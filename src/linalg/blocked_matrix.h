#ifndef COHERE_LINALG_BLOCKED_MATRIX_H_
#define COHERE_LINALG_BLOCKED_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <memory>

#include "common/check.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace cohere {

/// Raw storage for RowStore: `bytes` uninitialized bytes aligned to at
/// least 64, taken from the heap, or for a large `growable` block mapped
/// straight from the OS (see blocked_matrix.cc). FreeRowBytes must get the
/// same arguments back.
void* AllocateRowBytes(size_t bytes, bool growable);
void FreeRowBytes(void* p, size_t bytes, bool growable) noexcept;

/// Growable, 64-byte-aligned, append-only row storage: `capacity()` rows of
/// `cols()` values, of which the first are committed, that is final. Views
/// (a BlockedMatrix, a snapshot's label column) read a prefix of at most
/// the committed rows, so those bytes are never written again; one writer
/// appends past them with Append and commits the new row once the view
/// that exposes it has been published. Rows past the committed ones are
/// uninitialized until written.
template <typename T>
class RowStore {
 public:
  static constexpr size_t kAlignment = 64;

  /// Empty storage with room for `capacity` rows of `cols` values;
  /// `growable` when it is made to take appends (see AllocateRowBytes).
  RowStore(size_t cols, size_t capacity, bool growable)
      : cols_(cols),
        capacity_(capacity),
        data_(static_cast<T*>(
                  AllocateRowBytes(Bytes(cols, capacity), growable)),
              Free{Bytes(cols, capacity), growable}) {}
  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  /// Exact-fit storage holding a copy of `n` rows, all committed;
  /// `growable` when Append will grow it (see AllocateRowBytes).
  static std::shared_ptr<RowStore> Copy(const T* rows, size_t n, size_t cols,
                                        bool growable) {
    auto store = std::make_shared<RowStore>(cols, n, growable);
    std::copy(rows, rows + n * cols, store->data_.get());
    store->committed_ = n;
    return store;
  }

  size_t cols() const { return cols_; }
  size_t capacity() const { return capacity_; }
  const T* RowPtr(size_t i) const { return data_.get() + i * cols_; }

  /// Makes `row` row `n` of a store whose rows [0, n) equal those of
  /// `*store`, and returns that store; the caller commits row `n` once the
  /// view exposing it is published. The row is written in place when `n`
  /// is exactly the committed count (so no published view reads it and no
  /// other successor has claimed it) and a row is free. Otherwise rows
  /// [0, n) are copied into fresh storage of doubled capacity; the old
  /// store lives on for as long as its views do. An uncommitted row is
  /// simply overwritten by the next append at the same `n`.
  static std::shared_ptr<RowStore> Append(std::shared_ptr<RowStore> store,
                                          size_t n, const T* row) {
    COHERE_CHECK_LE(n, store->committed_);
    const size_t cols = store->cols_;
    if (store->committed_ != n || n == store->capacity_) {
      auto grown = std::make_shared<RowStore>(
          cols, std::max<size_t>(2 * n, 1), /*growable=*/true);
      std::copy(store->RowPtr(0), store->RowPtr(n), grown->data_.get());
      grown->committed_ = n;
      store = std::move(grown);
    }
    std::copy(row, row + cols, store->data_.get() + n * cols);
    return store;
  }

  /// Marks rows [0, rows) final: some published view may now read them.
  void Commit(size_t rows) {
    COHERE_CHECK_LE(rows, capacity_);
    committed_ = rows;
  }

 private:
  static size_t Bytes(size_t cols, size_t capacity) {
    return std::max<size_t>(1, capacity * cols) * sizeof(T);
  }
  struct Free {
    size_t bytes;
    bool growable;
    void operator()(T* p) const { FreeRowBytes(p, bytes, growable); }
  };

  size_t cols_;
  size_t capacity_;
  size_t committed_ = 0;
  std::unique_ptr<T, Free> data_;
};

/// Contiguous, 64-byte-aligned rows for the scan kernels: a view of the
/// first `rows()` rows of a shared RowStore. Rows keep the plain row-major
/// order of Matrix (`RowPtr(i) == data() + i * cols()`) and rows [0,
/// rows()) are one contiguous run. Nothing past `rows()` may be read: a
/// view built from a Matrix ends exactly at its last row, and a view of a
/// growable store sits in front of rows a writer is appending.
///
/// A snapshot shard owns one BlockedMatrix (via shared_ptr) and every index
/// built over that shard references it; successive snapshots of a dynamic
/// engine share the store itself, each viewing a longer prefix.
class BlockedMatrix {
 public:
  static constexpr size_t kAlignment = RowStore<double>::kAlignment;

  BlockedMatrix() = default;
  /// Copies the rows of `m` into exact-fit storage.
  explicit BlockedMatrix(const Matrix& m);
  /// Views the first `rows` rows of `store`.
  BlockedMatrix(std::shared_ptr<const RowStore<double>> store, size_t rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  const double* data() const { return data_; }
  const double* RowPtr(size_t i) const { return data_ + i * cols_; }
  /// Unchecked element access (inner-loop use, mirrors Matrix::At).
  double At(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  /// Copies row `i` into a Vector.
  Vector Row(size_t i) const;
  /// Copies the rows back into a Matrix.
  Matrix ToMatrix() const;

 private:
  std::shared_ptr<const RowStore<double>> store_;
  const double* data_ = nullptr;  // store_->RowPtr(0), cached for scans
  size_t rows_ = 0;
  size_t cols_ = 0;
};

}  // namespace cohere

#endif  // COHERE_LINALG_BLOCKED_MATRIX_H_
