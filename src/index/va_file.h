#ifndef COHERE_INDEX_VA_FILE_H_
#define COHERE_INDEX_VA_FILE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/knn.h"
#include "linalg/blocked_matrix.h"

namespace cohere {

/// Vector-approximation file (Weber, Schek & Blott, VLDB 1998).
///
/// The classical high-dimensional baseline the paper cites [21]: each
/// dimension is quantized into 2^bits cells with equi-frequency boundaries;
/// a query first scans the compact approximations, computing a lower and an
/// upper distance bound per point, then refines only the candidates whose
/// lower bound beats the k-th smallest upper bound. Supports the
/// per-dimension-decomposable metrics (L1, L2, L-infinity).
///
/// The boundary table is one flat (d x (cells+1)) array and the codes are a
/// contiguous row-major n x d byte table, so the approximation scan runs
/// through the packed SIMD bound kernel (src/simd/kernels.h) — bitwise
/// identical to the scalar bound loop at every dispatch level.
class VaFileIndex final : public KnnIndex {
 public:
  /// Indexes shard-owned blocked rows (shared, no per-index copy). `metric`
  /// must outlive the index and be one of kEuclidean, kManhattan,
  /// kChebyshev. `bits_per_dim` must be in [1, 8].
  VaFileIndex(std::shared_ptr<const BlockedMatrix> rows, const Metric* metric,
              size_t bits_per_dim = 5);
  /// Convenience: copies `data` into a privately owned BlockedMatrix.
  VaFileIndex(Matrix data, const Metric* metric, size_t bits_per_dim = 5);

 protected:
  std::vector<Neighbor> QueryImpl(const Vector& query, size_t k,
                                  size_t skip_index, QueryStats* stats,
                                  QueryControl* control) const override;

 public:
  size_t size() const override { return rows_->rows(); }
  size_t dims() const override { return rows_->cols(); }
  std::string name() const override { return "va_file"; }

  /// Size in bytes of the approximation state scanned by phase 1 (what
  /// would be read from disk in the original system): the packed code table
  /// plus the flattened boundary table.
  size_t ApproximationBytes() const {
    return codes_.size() * sizeof(uint8_t) +
           boundaries_.size() * sizeof(double);
  }

 private:
  std::shared_ptr<const BlockedMatrix> rows_;
  const Metric* metric_;
  size_t cells_;  // 2^bits_per_dim
  std::vector<double> boundaries_;  // flat d x (cells+1), stride cells+1
  std::vector<uint8_t> codes_;      // row-major n x d cell codes
  std::vector<size_t> nan_rows_;    // ascending rows holding a NaN
};

}  // namespace cohere

#endif  // COHERE_INDEX_VA_FILE_H_
