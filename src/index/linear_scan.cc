#include "index/linear_scan.h"

#include <algorithm>

#include "common/check.h"

namespace cohere {
namespace {

// Rows per ComparableDistanceBlock call without a control. A span is many
// SIMD row-groups: large enough that the per-call virtual dispatch and
// kernel counter cost vanish, small enough that the distance buffer lives
// on the stack. Under a control the span shrinks to one check interval.
constexpr size_t kScanSpan = 256;

}  // namespace

LinearScanIndex::LinearScanIndex(std::shared_ptr<const BlockedMatrix> rows,
                                 const Metric* metric)
    : rows_(std::move(rows)), metric_(metric) {
  COHERE_CHECK(rows_ != nullptr);
  COHERE_CHECK(metric_ != nullptr);
}

LinearScanIndex::LinearScanIndex(Matrix data, const Metric* metric)
    : LinearScanIndex(std::make_shared<BlockedMatrix>(data), metric) {}

std::vector<Neighbor> LinearScanIndex::QueryImpl(const Vector& query, size_t k,
                                                 size_t skip_index,
                                                 QueryStats* stats,
                                                 QueryControl* control) const {
  COHERE_CHECK_EQ(query.size(), rows_->cols());
  KnnCollector collector(k);
  const double* q = query.data();
  const size_t d = rows_->cols();
  const size_t n = rows_->rows();
  // One block-kernel call per span, then the collector's threshold filter.
  // Rows arrive in increasing index order, so the answer is bit-identical
  // to offering every row; a control is consulted once before each span.
  const size_t span_rows =
      control != nullptr ? QueryControl::kCheckInterval : kScanSpan;
  double dist[kScanSpan];
  size_t evaluated = 0;
  for (size_t base = 0; base < n; base += span_rows) {
    if (control != nullptr && control->ShouldStopBeforeSpan()) break;
    const size_t span = std::min(span_rows, n - base);
    metric_->ComparableDistanceBlock(q, rows_->RowPtr(base), span, d, dist);
    collector.OfferSpan(base, dist, span, skip_index);
    evaluated += span - (skip_index - base < span ? 1 : 0);
  }
  if (stats != nullptr) stats->distance_evaluations += evaluated;
  std::vector<Neighbor> out = collector.Take();
  for (Neighbor& n : out) {
    n.distance = metric_->ComparableToActual(n.distance);
  }
  return out;
}

}  // namespace cohere
