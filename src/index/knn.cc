#include "index/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/query_metrics.h"
#include "obs/tracing.h"
#include "simd/kernels.h"

namespace cohere {
namespace {

// Rank order of candidates: (distance, index) ascending with NaN after
// every number, which keeps it a strict weak order (as the heap and the
// sort in Take require) even when distances are NaN. As the max-heap
// ordering it puts the worst candidate at the root, so it is evicted first.
bool HeapLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance < b.distance) return true;
  if (b.distance < a.distance) return false;
  const bool a_nan = std::isnan(a.distance);
  const bool b_nan = std::isnan(b.distance);
  if (a_nan != b_nan) return b_nan;
  return a.index < b.index;
}

// Queries per work chunk in QueryBatch. Each query is already a coarse unit
// of work (a full index traversal), so small chunks keep the pool's lanes
// busy even for modest batches.
constexpr size_t kBatchGrain = 4;

}  // namespace

void KnnCollector::Offer(size_t index, double distance) {
  if (heap_.size() < k_) {
    heap_.push_back({index, distance});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess);
    return;
  }
  if (k_ == 0) return;
  const Neighbor candidate{index, distance};
  if (!HeapLess(candidate, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess);
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(), HeapLess);
}

void KnnCollector::OfferSpan(size_t first, const double* distance,
                             size_t count, size_t skip_index) {
  size_t r = 0;
  for (; r < count && heap_.size() < k_; ++r) {
    if (first + r != skip_index) Offer(first + r, distance[r]);
  }
  if (r == count || k_ == 0) return;
  // The heap is full. A later row beats the worst only at a smaller
  // distance, or as a number when the worst is NaN; a NaN row never does.
  // `distance <= bound` passes all of those (NaN fails every compare) and
  // lets only exact ties through, which Offer then rejects.
  const auto bound_of = [](double worst) {
    return std::isnan(worst) ? std::numeric_limits<double>::infinity()
                             : worst;
  };
  const auto first_at_most = simd::ActiveKernels().first_at_most;
  double bound = bound_of(heap_.front().distance);
  while ((r += first_at_most(distance + r, count - r, bound)) < count) {
    if (first + r != skip_index) {
      Offer(first + r, distance[r]);
      bound = bound_of(heap_.front().distance);
    }
    ++r;
  }
}

double KnnCollector::Threshold() const {
  // k = 0 is trivially full with nothing collectable: report the strongest
  // possible pruning bound instead of reading the front of an empty heap.
  if (k_ == 0) return -std::numeric_limits<double>::infinity();
  if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
  return heap_.front().distance;
}

std::vector<Neighbor> KnnCollector::Take() {
  std::vector<Neighbor> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), HeapLess);
  return out;
}

const obs::QueryPathMetrics& KnnIndex::Instrument() const {
  const obs::QueryPathMetrics* bundle =
      instrument_.load(std::memory_order_acquire);
  if (bundle == nullptr) {
    bundle = &obs::QueryPathMetricsFor("index." + name());
    instrument_.store(bundle, std::memory_order_release);
  }
  return *bundle;
}

const char* KnnIndex::TraceName() const {
  const char* cached = trace_name_.load(std::memory_order_acquire);
  if (cached == nullptr) {
    cached = obs::Tracer::InternName("index." + name() + ".query");
    trace_name_.store(cached, std::memory_order_release);
  }
  return cached;
}

long long QueryControl::DeadlineMicros(double deadline_us) {
  // The comparison is written so NaN also lands in the inactive branch.
  if (!(deadline_us > 0.0)) return 0;
  // ~285 years in microseconds: far beyond any real budget, comfortably
  // inside long long, and safe to add to steady_clock::now().
  constexpr double kMaxBudgetUs = 9.0e15;
  if (deadline_us >= kMaxBudgetUs) {
    return static_cast<long long>(kMaxBudgetUs);
  }
  // Round *up*: a (0,1) budget used to truncate to 0us — an already-expired
  // deadline that made every first control check fire.
  return std::max(1LL, static_cast<long long>(std::ceil(deadline_us)));
}

QueryControl QueryControl::FromLimits(const QueryLimits& limits) {
  const long long budget_us = DeadlineMicros(limits.deadline_us);
  const bool has_deadline = budget_us > 0;
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (has_deadline) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(budget_us);
  }
  return QueryControl(limits.cancel, deadline, has_deadline);
}

namespace {

// Deadline expiries are a service-level event worth counting even though
// each one also shows up as a truncated QueryStats. Counter pointers have
// process lifetime, so caching one in a function-local static is safe.
void CountDeadlineExceeded() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("queries.deadline_exceeded");
  counter->Increment();
}

}  // namespace

std::vector<Neighbor> KnnIndex::Query(const Vector& query, size_t k,
                                      size_t skip_index,
                                      QueryStats* stats) const {
  return QueryWithControl(query, k, skip_index, stats, nullptr);
}

std::vector<Neighbor> KnnIndex::Query(const Vector& query, size_t k,
                                      size_t skip_index, QueryStats* stats,
                                      const QueryLimits& limits) const {
  if (!limits.active()) {
    return QueryWithControl(query, k, skip_index, stats, nullptr);
  }
  QueryControl control = QueryControl::FromLimits(limits);
  return QueryWithControl(query, k, skip_index, stats, &control);
}

std::vector<Neighbor> KnnIndex::QueryWithControl(const Vector& query,
                                                 size_t k, size_t skip_index,
                                                 QueryStats* stats,
                                                 QueryControl* control) const {
  const bool metrics = obs::MetricsRegistry::Enabled();
  if (!metrics && !obs::Tracer::Enabled()) {
    // Metrics and tracing off: byte-for-byte the uninstrumented path, no
    // timing and no span bookkeeping.
    std::vector<Neighbor> out = QueryImpl(query, k, skip_index, stats, control);
    if (control != nullptr && control->stopped() && stats != nullptr) {
      stats->truncated = true;
    }
    return out;
  }
  obs::TraceSpan span(TraceName());
  span.AddArg("k", static_cast<double>(k));
  QueryStats local;
  Stopwatch watch;
  std::vector<Neighbor> out = QueryImpl(query, k, skip_index, &local, control);
  if (control != nullptr && control->stopped()) local.truncated = true;
  if (metrics) {
    Instrument().Record(local.distance_evaluations, local.nodes_visited,
                        local.candidates_refined, watch.ElapsedMicros(),
                        local.truncated);
    if (control != nullptr && control->deadline_exceeded()) {
      CountDeadlineExceeded();
    }
  }
  span.AddArg("distance_evaluations",
              static_cast<double>(local.distance_evaluations));
  if (local.truncated) span.AddArg("truncated", 1.0);
  if (stats != nullptr) stats->MergeFrom(local);
  return out;
}

std::vector<std::vector<Neighbor>> KnnIndex::QueryBatch(
    const Matrix& queries, size_t k, QueryStats* stats) const {
  const size_t n = queries.rows();
  std::vector<std::vector<Neighbor>> out(n);
  if (n == 0) return out;
  COHERE_CHECK_EQ(queries.cols(), dims());

  const size_t chunks = ParallelChunkCount(n, kBatchGrain);
  std::vector<QueryStats> partial(stats != nullptr ? chunks : 0);
  ParallelForIndexed(0, n, kBatchGrain,
                     [&](size_t chunk, size_t begin, size_t end) {
    QueryStats* local = stats != nullptr ? &partial[chunk] : nullptr;
    Vector query(queries.cols());
    for (size_t i = begin; i < end; ++i) {
      const double* src = queries.RowPtr(i);
      std::copy(src, src + queries.cols(), query.data());
      out[i] = Query(query, k, kNoSkip, local);
    }
  });
  if (stats != nullptr) {
    for (const QueryStats& p : partial) stats->MergeFrom(p);
  }
  return out;
}

std::vector<std::vector<Neighbor>> KnnIndex::QueryBatch(
    const Matrix& queries, size_t k, QueryStats* stats,
    const QueryLimits& limits) const {
  if (!limits.active()) return QueryBatch(queries, k, stats);

  const size_t n = queries.rows();
  std::vector<std::vector<Neighbor>> out(n);
  if (n == 0) return out;
  COHERE_CHECK_EQ(queries.cols(), dims());

  // One absolute deadline for the whole batch: rows started after expiry
  // stop at their first control check, so batch latency is bounded by the
  // budget plus one check interval per pool lane.
  const long long budget_us = QueryControl::DeadlineMicros(limits.deadline_us);
  const bool has_deadline = budget_us > 0;
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (has_deadline) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(budget_us);
  }

  const size_t chunks = ParallelChunkCount(n, kBatchGrain);
  std::vector<QueryStats> partial(stats != nullptr ? chunks : 0);
  ParallelForIndexed(0, n, kBatchGrain,
                     [&](size_t chunk, size_t begin, size_t end) {
    QueryStats* local = stats != nullptr ? &partial[chunk] : nullptr;
    Vector query(queries.cols());
    for (size_t i = begin; i < end; ++i) {
      const double* src = queries.RowPtr(i);
      std::copy(src, src + queries.cols(), query.data());
      QueryControl control(limits.cancel, deadline, has_deadline);
      out[i] = QueryWithControl(query, k, kNoSkip, local, &control);
    }
  });
  if (stats != nullptr) {
    for (const QueryStats& p : partial) stats->MergeFrom(p);
  }
  return out;
}

}  // namespace cohere
