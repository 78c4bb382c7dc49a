#include "linalg/blocked_matrix.h"

#include <cstring>
#include <new>

#if defined(__unix__)
#include <sys/mman.h>
#endif

namespace cohere {
namespace {

// Growable stores at least this large are mapped straight from the OS.
// A dynamic engine drops such a store at every capacity growth and every
// rebuild. From the heap, each dropped block was split by the small
// allocations made before the next one of its size was requested, so that
// one extended the heap instead: a 20 s perfbench insert_mix run (77k
// inserts, 4-vCPU VM) peaked at 720 MiB RSS, and at 239 MiB with only the
// grown stores mapped. Mapped, a dropped store goes back to the OS at once
// and capacity not yet written is never resident. Rows that are never
// appended to (a static engine's) stay on the heap.
constexpr size_t kMapBytes = size_t{1} << 20;

bool Mapped(size_t bytes, bool growable) {
  return growable && bytes >= kMapBytes;
}

}  // namespace

void* AllocateRowBytes(size_t bytes, bool growable) {
#if defined(__unix__)
  if (Mapped(bytes, growable)) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
#endif
  return ::operator new(bytes, std::align_val_t{RowStore<double>::kAlignment});
}

void FreeRowBytes(void* p, size_t bytes, bool growable) noexcept {
#if defined(__unix__)
  if (Mapped(bytes, growable)) {
    munmap(p, bytes);
    return;
  }
#endif
  ::operator delete(p, std::align_val_t{RowStore<double>::kAlignment});
}

BlockedMatrix::BlockedMatrix(const Matrix& m)
    : BlockedMatrix(RowStore<double>::Copy(m.data(), m.rows(), m.cols(),
                                           /*growable=*/false),
                    m.rows()) {}

BlockedMatrix::BlockedMatrix(std::shared_ptr<const RowStore<double>> store,
                             size_t rows)
    : store_(std::move(store)),
      data_(store_->RowPtr(0)),
      rows_(rows),
      cols_(store_->cols()) {
  COHERE_CHECK_LE(rows_, store_->capacity());
}

Vector BlockedMatrix::Row(size_t i) const {
  COHERE_CHECK_LT(i, rows_);
  Vector out(cols_);
  const double* src = RowPtr(i);
  std::copy(src, src + cols_, out.data());
  return out;
}

Matrix BlockedMatrix::ToMatrix() const {
  Matrix out(rows_, cols_);
  if (rows_ * cols_ > 0) {
    std::memcpy(out.data(), data_, rows_ * cols_ * sizeof(double));
  }
  return out;
}

}  // namespace cohere
