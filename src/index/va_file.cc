#include "index/va_file.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "simd/kernels.h"

namespace cohere {

VaFileIndex::VaFileIndex(std::shared_ptr<const BlockedMatrix> rows,
                         const Metric* metric, size_t bits_per_dim)
    : rows_(std::move(rows)), metric_(metric) {
  COHERE_CHECK(rows_ != nullptr);
  COHERE_CHECK(metric_ != nullptr);
  const MetricKind kind = metric_->kind();
  COHERE_CHECK_MSG(kind == MetricKind::kEuclidean ||
                       kind == MetricKind::kManhattan ||
                       kind == MetricKind::kChebyshev,
                   "VA-file needs a per-dimension decomposable metric");
  COHERE_CHECK(bits_per_dim >= 1 && bits_per_dim <= 8);
  cells_ = size_t{1} << bits_per_dim;

  const size_t n = rows_->rows();
  const size_t d = rows_->cols();
  const size_t bstride = cells_ + 1;
  boundaries_.assign(d * bstride, 0.0);
  codes_.assign(n * d, 0);

  for (size_t i = 0; i < n; ++i) {
    const double* row = rows_->RowPtr(i);
    if (std::any_of(row, row + d, [](double v) { return std::isnan(v); })) {
      nan_rows_.push_back(i);
    }
  }

  // Boundaries come from the numbers of each column only: NaN has no place
  // in a sort. A NaN coordinate keeps code 0; its row's bounds are set
  // at query time instead (see QueryImpl).
  std::vector<double> column;
  column.reserve(n);
  for (size_t j = 0; j < d; ++j) {
    column.clear();
    for (size_t i = 0; i < n; ++i) {
      if (!std::isnan(rows_->At(i, j))) column.push_back(rows_->At(i, j));
    }
    std::sort(column.begin(), column.end());
    const size_t m = column.size();

    // Equi-frequency boundaries: cell c covers ranks [c*m/cells,
    // (c+1)*m/cells). Duplicated boundaries (constant stretches) are legal —
    // such cells are simply empty.
    double* b = boundaries_.data() + j * bstride;
    b[0] = column.empty() ? 0.0 : column.front();
    for (size_t c = 1; c < cells_; ++c) {
      const size_t rank = c * m / cells_;
      b[c] = column.empty() ? 0.0 : column[std::min(rank, m - 1)];
    }
    // Nudge the top boundary so max values land inside the last cell.
    const double top = column.empty() ? 1.0 : column.back();
    b[cells_] = top + (std::fabs(top) + 1.0) * 1e-12;

    for (size_t i = 0; i < n; ++i) {
      const double v = rows_->At(i, j);
      if (std::isnan(v)) continue;
      // Last boundary strictly above all values => upper_bound in [1, cells].
      const size_t cell =
          static_cast<size_t>(std::upper_bound(b + 1, b + bstride, v) -
                              (b + 1));
      codes_[i * d + j] = static_cast<uint8_t>(std::min(cell, cells_ - 1));
    }
  }
}

VaFileIndex::VaFileIndex(Matrix data, const Metric* metric,
                         size_t bits_per_dim)
    : VaFileIndex(std::make_shared<BlockedMatrix>(data), metric,
                  bits_per_dim) {}

std::vector<Neighbor> VaFileIndex::QueryImpl(const Vector& query, size_t k,
                                             size_t skip_index,
                                             QueryStats* stats,
                                             QueryControl* control) const {
  const size_t n = rows_->rows();
  const size_t d = rows_->cols();
  COHERE_CHECK_EQ(query.size(), d);
  if (k == 0 || n == 0) return {};

  // Phase 1: scan the approximations in spans through the packed bound
  // kernel, computing lower/upper bounds in the metric's comparable form.
  // Both filters below are exact: the final upper-bound threshold is <=
  // every running one, so an upper bound above the running threshold could
  // never lower it, and a lower bound above it fails the final cut anyway.
  const MetricKind kind = metric_->kind();
  const auto& kernels = simd::ActiveKernels();
  const auto va_bounds = kind == MetricKind::kEuclidean ? kernels.va_bounds_l2
                         : kind == MetricKind::kManhattan
                             ? kernels.va_bounds_l1
                             : kernels.va_bounds_linf;
  constexpr size_t kSpan = 256;
  const size_t span_rows =
      control != nullptr ? QueryControl::kCheckInterval : kSpan;
  const size_t bstride = cells_ + 1;
  // A row holding a NaN has a NaN distance under L2 and L1, which the
  // collectors rank after every number: bound it by (+inf, NaN). Under
  // L-infinity the NaN coordinate drops out of the max, so the distance is
  // a number: (0, NaN) bounds it.
  const double nan_row_lb =
      kind == MetricKind::kChebyshev ? 0.0
                                     : std::numeric_limits<double>::infinity();
  auto next_nan_row = nan_rows_.begin();
  std::vector<std::pair<double, size_t>> candidates;  // (lower bound, index)
  KnnCollector upper_bounds(k);
  double lb[kSpan];
  double ub[kSpan];
  size_t visited = 0;
  size_t spans = 0;
  for (size_t base = 0; base < n; base += span_rows) {
    if (control != nullptr && control->ShouldStopBeforeSpan()) break;
    const size_t span = std::min(span_rows, n - base);
    va_bounds(query.data(), codes_.data() + base * d, span, d,
              boundaries_.data(), bstride, lb, ub);
    for (; next_nan_row != nan_rows_.end() && *next_nan_row < base + span;
         ++next_nan_row) {
      lb[*next_nan_row - base] = nan_row_lb;
      ub[*next_nan_row - base] = std::numeric_limits<double>::quiet_NaN();
    }
    ++spans;
    visited += span - (skip_index - base < span ? 1 : 0);
    upper_bounds.OfferSpan(base, ub, span, skip_index);
    const double ub_threshold = upper_bounds.Threshold();
    for (size_t r = 0; r < span; ++r) {
      if (lb[r] > ub_threshold || base + r == skip_index) continue;
      candidates.emplace_back(lb[r], base + r);
    }
  }
  simd::CountKernel(simd::KernelId::kVaBounds, spans);

  // Points whose lower bound exceeds the k-th smallest upper bound can never
  // make the answer set.
  const double ub_threshold = upper_bounds.Threshold();
  std::erase_if(candidates, [ub_threshold](const auto& c) {
    return c.first > ub_threshold;
  });
  std::sort(candidates.begin(), candidates.end());

  // Phase 2: refine candidates in ascending lower-bound order; stop as soon
  // as the next lower bound exceeds the current exact k-th best. Refinement
  // reads the shard-owned blocked rows (scattered candidates, so per-row
  // distance evaluation).
  KnnCollector collector(k);
  uint64_t refined = 0;  // register accumulator; published once below
  for (const auto& [lower, i] : candidates) {
    if (collector.Full() && lower > collector.Threshold()) break;
    if (control != nullptr && control->ShouldStop()) break;
    const double comparable =
        metric_->ComparableDistance(query.data(), rows_->RowPtr(i), d);
    ++refined;
    collector.Offer(i, comparable);
  }
  if (stats != nullptr) {
    stats->nodes_visited += visited;
    stats->distance_evaluations += refined;
    stats->candidates_refined += refined;
  }

  std::vector<Neighbor> out = collector.Take();
  for (Neighbor& nb : out) {
    nb.distance = metric_->ComparableToActual(nb.distance);
  }
  return out;
}

}  // namespace cohere
