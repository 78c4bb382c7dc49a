#include "core/serving.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cache/cache_manager.h"
#include "cluster/projected.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/tracing.h"

namespace cohere {
namespace {

// Queries per work chunk when a batch fans rows across the pool; matches
// the KnnIndex::QueryBatch grain so both fan-outs decompose identically.
constexpr size_t kBatchGrain = 4;

// Rows per chunk for batch projection (cheap per-row work).
constexpr size_t kProjectGrain = 16;

// One absolute expiry for a whole call (shared by every probe and every
// batch row), computed once on entry. The budget goes through
// QueryControl::DeadlineMicros so fractional budgets round up instead of
// truncating to an already-expired deadline, and negative/NaN budgets are
// explicitly inactive.
std::pair<std::chrono::steady_clock::time_point, bool> AbsoluteDeadline(
    const QueryLimits& limits) {
  const long long budget_us = QueryControl::DeadlineMicros(limits.deadline_us);
  const bool has_deadline = budget_us > 0;
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (has_deadline) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(budget_us);
  }
  return {deadline, has_deadline};
}

// FNV-1a of the snapshot metric's name — the metric component of every
// cache key built against that snapshot (computed once per call, not per
// batch row).
uint64_t MetricHashOf(const EngineSnapshot& snapshot) {
  const std::string name = snapshot.metric->name();
  return cache::FingerprintBytes(name.data(), name.size());
}

}  // namespace

ServingCore::ServingCore(ServingCoreOptions options)
    : options_(std::move(options)) {
  metrics_ = obs::ServingPathMetricsFor(options_.scope);
  span_query_ = obs::Tracer::InternName(options_.scope + ".query");
  span_project_ = obs::Tracer::InternName(options_.scope + ".project");
  span_query_batch_ = obs::Tracer::InternName(options_.scope + ".query_batch");
  span_project_batch_ =
      obs::Tracer::InternName(options_.scope + ".project_batch");
  span_probe_ = obs::Tracer::InternName(options_.scope + ".probe");
  span_cache_lookup_ =
      obs::Tracer::InternName(options_.scope + ".cache.lookup");
  span_cache_insert_ =
      obs::Tracer::InternName(options_.scope + ".cache.insert");
  log_scope_ = obs::Tracer::InternName(options_.scope);
  if (options_.cache_budget_bytes > 0) {
    cache_ = cache::CacheManager::Global().CreateCache(
        options_.scope, options_.cache_budget_bytes);
  }
  if (options_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(options_.scope,
                                                       options_.admission);
  }
}

cache::CacheKey ServingCore::MakeCacheKey(uint64_t snapshot_version,
                                          uint64_t metric_hash,
                                          const Vector& query,
                                          size_t k) const {
  cache::CacheKey key;
  key.snapshot_version = snapshot_version;
  key.metric_hash = metric_hash;
  key.query_fingerprint = cache::FingerprintVector(query);
  key.k = static_cast<uint32_t>(k);
  key.probes = static_cast<uint32_t>(options_.probe_shards);
  return key;
}

std::vector<Neighbor> ServingCore::Query(const Vector& original_space_query,
                                         size_t k, size_t skip_index,
                                         QueryStats* stats) const {
  QueryLimits limits;
  limits.deadline_us = options_.default_deadline_us;
  return Query(original_space_query, k, skip_index, stats, limits);
}

std::vector<Neighbor> ServingCore::Query(const Vector& original_space_query,
                                         size_t k, size_t skip_index,
                                         QueryStats* stats,
                                         const QueryLimits& limits) const {
  if (options_.explain) {
    obs::QueryProfile profile;
    std::vector<Neighbor> out = QueryServe(original_space_query, k, skip_index,
                                           stats, limits, &profile);
    std::lock_guard<std::mutex> lock(profile_mu_);
    last_profile_ = std::move(profile);
    has_profile_ = true;
    return out;
  }
  return QueryServe(original_space_query, k, skip_index, stats, limits,
                    /*profile=*/nullptr);
}

std::vector<Neighbor> ServingCore::Query(const Vector& original_space_query,
                                         size_t k, size_t skip_index,
                                         QueryStats* stats,
                                         const QueryLimits& limits,
                                         obs::QueryProfile* profile) const {
  COHERE_CHECK(profile != nullptr);
  *profile = obs::QueryProfile();
  return QueryServe(original_space_query, k, skip_index, stats, limits,
                    profile);
}

bool ServingCore::LastProfile(obs::QueryProfile* out) const {
  std::lock_guard<std::mutex> lock(profile_mu_);
  if (!has_profile_) return false;
  *out = last_profile_;
  return true;
}

Status ServingCore::TryQuery(const Vector& original_space_query, size_t k,
                             size_t skip_index, QueryStats* stats,
                             const QueryLimits& limits,
                             std::vector<Neighbor>* out) const {
  COHERE_CHECK(out != nullptr);
  if (admission_ == nullptr) {
    *out = Query(original_space_query, k, skip_index, stats, limits);
    return Status::Ok();
  }
  // Resolve the budget exactly as the deadline machinery will, so the
  // feasibility gate and the eventual QueryControl agree on it.
  const double budget_us = static_cast<double>(
      QueryControl::DeadlineMicros(limits.deadline_us));
  Stopwatch arrival_watch;  // covers any queue wait
  const AdmissionGrant grant = admission_->Admit(budget_us);
  if (!grant.admitted) return grant.status;
  // The queue wait ate into the caller's budget: the query runs with what
  // is left, so an admitted query still completes within the deadline the
  // caller configured (measured from arrival).
  QueryLimits adjusted = limits;
  if (budget_us > 0.0) {
    adjusted.deadline_us =
        std::max(1.0, budget_us - arrival_watch.ElapsedMicros());
  }
  BrownoutPlan plan;
  plan.level = grant.brownout_level;
  plan.probe_limit = grant.probe_limit;
  plan.rerank_cap = grant.rerank_cap;
  Stopwatch service_watch;
  QueryStats local;
  *out = QueryServe(original_space_query, k, skip_index, &local, adjusted,
                    /*profile=*/nullptr, plan.level > 0 ? &plan : nullptr);
  // Deadline/cancel truncation is the failure signal the breaker watches;
  // the EWMA only learns service time, not queue time.
  admission_->Release(service_watch.ElapsedMicros(),
                      /*success=*/!local.truncated);
  if (stats != nullptr) stats->MergeFrom(local);
  return Status::Ok();
}

std::vector<Neighbor> ServingCore::QueryServe(
    const Vector& original_space_query, size_t k, size_t skip_index,
    QueryStats* stats, const QueryLimits& limits,
    obs::QueryProfile* profile, const BrownoutPlan* plan) const {
  const std::shared_ptr<const EngineSnapshot> snapshot = handle_.Acquire();
  COHERE_CHECK(snapshot != nullptr);
  // Cacheable: cache enabled, no row exclusion (skip changes the answer but
  // is not part of the key), the token is not already cancelled (an
  // aborted caller gets the usual truncated answer, never a cached full
  // one), and the query is not brownout-degraded (a degraded answer must
  // never be served later as the full-fidelity one, and a degraded lookup
  // key would alias the full-probe entry). A cache hit trivially respects
  // any deadline — it does no work.
  const bool cacheable =
      cache_ != nullptr && skip_index == KnnIndex::kNoSkip &&
      (limits.cancel == nullptr || !limits.cancel->Cancelled()) &&
      (plan == nullptr || plan->level == 0);
  cache::CacheKey key;
  if (cacheable) {
    key = MakeCacheKey(snapshot->version, MetricHashOf(*snapshot),
                       original_space_query, k);
  }
  const bool instrumented = obs::MetricsRegistry::Enabled();
  const bool logging = obs::QueryLog::Enabled();
  if (profile == nullptr && !instrumented && !obs::Tracer::Enabled() &&
      !logging) {
    if (!cacheable) {
      if (plan != nullptr) {
        // Degraded queries record their brownout level even on the bare
        // path; the level rides through a local so a null caller stats
        // still works.
        QueryStats local;
        std::vector<Neighbor> out = QueryOnSnapshot(
            *snapshot, original_space_query, k, skip_index, &local, limits,
            /*traced=*/false, /*cache_key=*/nullptr, /*profile=*/nullptr,
            plan);
        if (plan->level > local.brownout_level) {
          local.brownout_level = plan->level;
        }
        if (stats != nullptr) stats->MergeFrom(local);
        return out;
      }
      // Every layer off, cache off: the exact uninstrumented path.
      return QueryOnSnapshot(*snapshot, original_space_query, k, skip_index,
                             stats, limits, /*traced=*/false);
    }
    std::vector<Neighbor> out;
    if (cache_->Lookup(key, &out)) return out;
    QueryStats local;
    out = QueryOnSnapshot(*snapshot, original_space_query, k, skip_index,
                          &local, limits, /*traced=*/false, &key);
    // Truncated answers are partial, never cacheable.
    if (!local.truncated) cache_->Insert(key, out);
    if (stats != nullptr) stats->MergeFrom(local);
    return out;
  }
  // Root span of the serial query path; the per-query sampling (and slow-
  // query) decision is made here, and the projection / probe phases nest
  // under it.
  obs::TraceSpan span(span_query_);
  span.AddArg("k", static_cast<double>(k));
  QueryStats local;
  Stopwatch watch;
  std::vector<Neighbor> out;
  bool cache_hit = false;
  if (cacheable) {
    Stopwatch lookup_watch;
    {
      obs::TraceSpan lookup(span_cache_lookup_);
      cache_hit = cache_->Lookup(key, &out);
      lookup.AddArg("hit", cache_hit ? 1.0 : 0.0);
    }
    if (profile != nullptr) {
      obs::QueryPhase phase;
      phase.name = "cache.lookup";
      phase.duration_us = lookup_watch.ElapsedMicros();
      phase.detail = cache_hit ? "hit" : "miss";
      profile->phases.push_back(std::move(phase));
    }
  }
  if (!cache_hit) {
    out = QueryOnSnapshot(*snapshot, original_space_query, k, skip_index,
                          &local, limits, /*traced=*/true,
                          cacheable ? &key : nullptr, profile, plan);
    if (plan != nullptr && plan->level > local.brownout_level) {
      local.brownout_level = plan->level;
    }
  }
  const double latency_us = watch.ElapsedMicros();
  if (instrumented) {
    // Hits record a (0 work, tiny latency) sample: the latency histogram
    // reflects what callers actually observed, and the work counters stay
    // consistent with QueryStats (a hit does no index work). Truncated
    // answers record into the dedicated `.truncated` histogram so an
    // overload storm of budget-bounded latencies cannot deflate the main
    // tail.
    metrics_.query->Record(local.distance_evaluations, local.nodes_visited,
                           local.candidates_refined, latency_us,
                           local.truncated);
  }
  if (cache_hit) span.AddArg("cache_hit", 1.0);
  if (local.truncated) span.AddArg("truncated", 1.0);
  if (cacheable && !cache_hit && !local.truncated) {
    Stopwatch insert_watch;
    {
      obs::TraceSpan insert(span_cache_insert_);
      cache_->Insert(key, out);
    }
    if (profile != nullptr) {
      obs::QueryPhase phase;
      phase.name = "cache.insert";
      phase.duration_us = insert_watch.ElapsedMicros();
      profile->phases.push_back(std::move(phase));
    }
  }
  if (logging) {
    obs::QueryEvent event;
    event.scope = log_scope_;
    event.snapshot_version = snapshot->version;
    event.k = static_cast<uint32_t>(k);
    event.cache_hit = cache_hit;
    event.truncated = local.truncated;
    event.distance_evaluations = local.distance_evaluations;
    event.nodes_visited = local.nodes_visited;
    event.candidates_refined = local.candidates_refined;
    event.latency_us = latency_us;
    obs::QueryLog::Global().Record(event);
  }
  if (profile != nullptr) {
    profile->scope = options_.scope;
    profile->snapshot_version = snapshot->version;
    profile->k = k;
    profile->cacheable = cacheable;
    profile->cache_hit = cache_hit;
    profile->truncated = local.truncated;
    profile->brownout_level = local.brownout_level;
    profile->rerank_dropped = local.rerank_dropped;
    profile->distance_evaluations = local.distance_evaluations;
    profile->nodes_visited = local.nodes_visited;
    profile->candidates_refined = local.candidates_refined;
    profile->latency_us = latency_us;
    const double budget_us = static_cast<double>(
        QueryControl::DeadlineMicros(limits.deadline_us));
    profile->deadline_us = budget_us;
    profile->deadline_headroom_us =
        budget_us > 0.0 ? std::max(0.0, budget_us - latency_us) : 0.0;
  }
  if (stats != nullptr) stats->MergeFrom(local);
  return out;
}

std::vector<Neighbor> ServingCore::QueryOnSnapshot(
    const EngineSnapshot& snapshot, const Vector& query, size_t k,
    size_t skip_index, QueryStats* stats, const QueryLimits& limits,
    bool traced, const cache::CacheKey* cache_key,
    obs::QueryProfile* profile, const BrownoutPlan* plan) const {
  if (SingleShard(snapshot)) {
    const SnapshotShard& shard = snapshot.shards[0];
    // With a cache key, the projection is itself cached under (version,
    // fingerprint, metric) — without k — so a hot query repeated with a
    // different k still skips the original-space transform. TransformPoint
    // is deterministic, so the reused vector is bit-identical to a
    // recompute.
    auto project = [&]() -> Vector {
      if (cache_key != nullptr) {
        Vector reduced;
        if (cache_->LookupProjection(cache_key->snapshot_version,
                                     cache_key->query_fingerprint,
                                     cache_key->metric_hash, &reduced)) {
          return reduced;
        }
        reduced = shard.pipeline.TransformPoint(query);
        cache_->InsertProjection(cache_key->snapshot_version,
                                 cache_key->query_fingerprint,
                                 cache_key->metric_hash, reduced);
        return reduced;
      }
      return shard.pipeline.TransformPoint(query);
    };
    if (!traced && profile == nullptr) {
      const Vector reduced = project();
      return shard.index->Query(reduced, k, skip_index, stats, limits);
    }
    Stopwatch project_watch;
    Vector reduced = [&] {
      obs::TraceSpan span(span_project_);
      return project();
    }();
    if (profile == nullptr) {
      return shard.index->Query(reduced, k, skip_index, stats, limits);
    }
    {
      obs::QueryPhase phase;
      phase.name = "project";
      phase.duration_us = project_watch.ElapsedMicros();
      profile->phases.push_back(std::move(phase));
    }
    // Scan through a local QueryStats so the phase carries exactly the
    // index's per-query counters (the caller's stats may accumulate).
    QueryStats scan_stats;
    Stopwatch scan_watch;
    std::vector<Neighbor> out =
        shard.index->Query(reduced, k, skip_index, &scan_stats, limits);
    obs::QueryPhase phase;
    phase.name = "scan";
    phase.duration_us = scan_watch.ElapsedMicros();
    phase.distance_evaluations = scan_stats.distance_evaluations;
    phase.nodes_visited = scan_stats.nodes_visited;
    phase.candidates_refined = scan_stats.candidates_refined;
    phase.truncated = scan_stats.truncated;
    phase.shard = 0;
    phase.detail = shard.index->name();
    profile->phases.push_back(std::move(phase));
    if (stats != nullptr) stats->MergeFrom(scan_stats);
    return out;
  }
  const auto [deadline, has_deadline] = AbsoluteDeadline(limits);
  return QueryMultiShard(snapshot, query, k, skip_index, stats, limits.cancel,
                         deadline, has_deadline, traced,
                         /*allow_parallel=*/true, profile, plan);
}

std::vector<size_t> ServingCore::RouteShards(
    const EngineSnapshot& snapshot, const Vector& studentized_query,
    const BrownoutPlan* plan) const {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(snapshot.shards.size());
  for (size_t c = 0; c < snapshot.shards.size(); ++c) {
    const SnapshotShard& shard = snapshot.shards[c];
    const double dist =
        shard.cluster_basis.empty()
            ? (studentized_query - shard.centroid).SquaredNorm2()
            : ProjectedSquaredDistance(studentized_query, shard.centroid,
                                       shard.cluster_basis);
    scored.emplace_back(dist, c);
  }
  std::sort(scored.begin(), scored.end());
  size_t probe_budget = options_.probe_shards;
  if (plan != nullptr && plan->probe_limit < probe_budget) {
    probe_budget = plan->probe_limit;
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < std::min(probe_budget, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

std::vector<Neighbor> ServingCore::QueryMultiShard(
    const EngineSnapshot& snapshot, const Vector& query, size_t k,
    size_t skip_index, QueryStats* stats, const CancelToken* cancel,
    std::chrono::steady_clock::time_point deadline, bool has_deadline,
    bool traced, bool allow_parallel, obs::QueryProfile* profile,
    const BrownoutPlan* plan) const {
  COHERE_CHECK(snapshot.has_studentizer);
  const bool profiling = profile != nullptr;
  Stopwatch route_watch;
  const Vector studentized = snapshot.studentizer.Apply(query);
  const std::vector<size_t> probes = RouteShards(snapshot, studentized, plan);
  const bool rerank = options_.rerank_multi_probe && probes.size() > 1;
  // Brownout level >= 1 caps the candidates each probe may contribute to
  // the full-space re-rank; everything past the cap is dropped (counted in
  // rerank_dropped) rather than merged with an incomparable local distance.
  const size_t rerank_cap = (plan != nullptr && rerank)
                                ? plan->rerank_cap
                                : static_cast<size_t>(-1);
  const bool limited = has_deadline || cancel != nullptr;
  if (profiling) {
    obs::QueryPhase phase;
    phase.name = "route";
    phase.duration_us = route_watch.ElapsedMicros();
    phase.detail = std::to_string(probes.size()) + " probes";
    profile->phases.push_back(std::move(phase));
  }

  // Scatter: each probe fills its own slot (results and stats), so the
  // probes can run on the pool without sharing anything; the gather below
  // merges in probe order. The merged result is order-independent anyway —
  // KnnCollector keeps the k smallest in the (distance, index) total order.
  // Profile phases are appended after the scatter from the per-slot arrays,
  // never from inside probe_one, so pool lanes share nothing.
  std::vector<std::vector<Neighbor>> gathered(probes.size());
  std::vector<QueryStats> probe_stats(probes.size());
  std::vector<double> probe_us(profiling ? probes.size() : 0);
  auto probe_one = [&](size_t pi) {
    Stopwatch probe_watch;
    const SnapshotShard& shard = snapshot.shards[probes[pi]];
    QueryStats* local = &probe_stats[pi];
    std::optional<obs::TraceSpan> span;
    if (traced) {
      span.emplace(span_probe_);
      span->AddArg("shard", static_cast<double>(probes[pi]));
    }
    // The routing decision that sent the query here is the one node this
    // layer visits per probe; everything else is the shard index's count.
    ++local->nodes_visited;
    const Vector local_query = shard.pipeline.TransformPoint(query);
    // Translate the global skip index into a local row, if it lives here.
    size_t local_skip = KnnIndex::kNoSkip;
    if (skip_index != KnnIndex::kNoSkip && !shard.members.empty()) {
      auto it = std::find(shard.members.begin(), shard.members.end(),
                          skip_index);
      if (it != shard.members.end()) {
        local_skip = static_cast<size_t>(it - shard.members.begin());
      }
    }
    std::vector<Neighbor> found;
    if (limited) {
      // Every probe (and batch row) shares the one absolute deadline; each
      // gets its own control so the check countdown stays per-traversal.
      QueryControl control(cancel, deadline, has_deadline);
      found = shard.index->QueryWithControl(local_query, k, local_skip, local,
                                            &control);
    } else {
      found = shard.index->Query(local_query, k, local_skip, local);
    }
    gathered[pi].reserve(found.size());
    size_t reranked = 0;
    for (const Neighbor& nb : found) {
      const size_t global_row =
          shard.members.empty() ? nb.index : shard.members[nb.index];
      if (rerank) {
        if (reranked >= rerank_cap) {
          // Brownout: this candidate's re-rank is sacrificed. `found` is
          // nearest-first in the shard's local space, so the cap keeps the
          // locally most promising candidates.
          ++local->rerank_dropped;
          continue;
        }
        // Local distances are not comparable across concept spaces: score
        // merged candidates by the metric in the shared studentized space.
        const double dist = snapshot.metric->Distance(
            studentized, snapshot.studentized_records.Row(global_row));
        ++local->candidates_refined;
        ++reranked;
        gathered[pi].push_back({global_row, dist});
      } else {
        gathered[pi].push_back({global_row, nb.distance});
      }
    }
    if (profiling) probe_us[pi] = probe_watch.ElapsedMicros();
  };
  if (allow_parallel && probes.size() > 1) {
    ParallelFor(0, probes.size(), /*grain=*/1, [&](size_t begin, size_t end) {
      for (size_t pi = begin; pi < end; ++pi) probe_one(pi);
    });
  } else {
    for (size_t pi = 0; pi < probes.size(); ++pi) probe_one(pi);
  }
  if (profiling) {
    // One phase per probe, carrying that probe's whole QueryStats (routing
    // node, shard scan, and its share of re-rank refinements), so the probe
    // phases plus the zero-work route/merge phases sum exactly to the
    // query's merged stats.
    for (size_t pi = 0; pi < probes.size(); ++pi) {
      obs::QueryPhase phase;
      phase.name = "probe";
      phase.duration_us = probe_us[pi];
      phase.distance_evaluations = probe_stats[pi].distance_evaluations;
      phase.nodes_visited = probe_stats[pi].nodes_visited;
      phase.candidates_refined = probe_stats[pi].candidates_refined;
      phase.truncated = probe_stats[pi].truncated;
      phase.shard = static_cast<int>(probes[pi]);
      phase.detail = snapshot.shards[probes[pi]].index->name();
      profile->phases.push_back(std::move(phase));
    }
  }

  Stopwatch merge_watch;
  KnnCollector collector(k);
  for (const std::vector<Neighbor>& candidates : gathered) {
    for (const Neighbor& nb : candidates) {
      collector.Offer(nb.index, nb.distance);
    }
  }
  if (stats != nullptr) {
    for (const QueryStats& ps : probe_stats) stats->MergeFrom(ps);
  }
  std::vector<Neighbor> merged = collector.Take();
  if (profiling) {
    obs::QueryPhase phase;
    phase.name = "merge";
    phase.duration_us = merge_watch.ElapsedMicros();
    phase.detail = rerank ? "rerank" : "";
    profile->phases.push_back(std::move(phase));
  }
  return merged;
}

std::vector<std::vector<Neighbor>> ServingCore::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats) const {
  QueryLimits limits;
  limits.deadline_us = options_.default_deadline_us;
  return QueryBatch(original_space_queries, k, stats, limits);
}

std::vector<std::vector<Neighbor>> ServingCore::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats,
    const QueryLimits& limits) const {
  const std::shared_ptr<const EngineSnapshot> snapshot = handle_.Acquire();
  COHERE_CHECK(snapshot != nullptr);
  obs::TraceSpan span(span_query_batch_);
  obs::ScopedTimer timer(
      obs::MetricsRegistry::Enabled() ? metrics_.batch_latency_us : nullptr);
  const size_t n = original_space_queries.rows();
  // As in the serial path: no caching for an already-cancelled token, and a
  // batch row's hit does no work (trivially within the batch deadline).
  const bool cacheable =
      cache_ != nullptr &&
      (limits.cancel == nullptr || !limits.cancel->Cancelled());
  const uint64_t metric_hash = cacheable ? MetricHashOf(*snapshot) : 0;
  if (SingleShard(*snapshot)) {
    const SnapshotShard& shard = snapshot->shards[0];
    if (!cacheable) {
      Matrix reduced(n, shard.pipeline.ReducedDims());
      {
        // Row transforms are independent; reduce them across the pool
        // before the index fans the reduced rows back out. Pool-lane chunks
        // emit no spans of their own — the caller-side span covers the
        // whole phase.
        obs::TraceSpan project(span_project_batch_);
        ParallelFor(0, n, kProjectGrain, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            reduced.SetRow(i, shard.pipeline.TransformPoint(
                                  original_space_queries.Row(i)));
          }
        });
      }
      return shard.index->QueryBatch(reduced, k, stats, limits);
    }
    // Cached batch: answer hits up front, fan out only the misses.
    std::vector<std::vector<Neighbor>> out(n);
    std::vector<size_t> miss_rows;
    std::vector<cache::CacheKey> keys(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = MakeCacheKey(snapshot->version, metric_hash,
                             original_space_queries.Row(i), k);
      if (!cache_->Lookup(keys[i], &out[i])) miss_rows.push_back(i);
    }
    if (miss_rows.empty()) return out;
    Matrix reduced(miss_rows.size(), shard.pipeline.ReducedDims());
    {
      obs::TraceSpan project(span_project_batch_);
      ParallelFor(0, miss_rows.size(), kProjectGrain,
                  [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          reduced.SetRow(j, shard.pipeline.TransformPoint(
                                original_space_queries.Row(miss_rows[j])));
        }
      });
    }
    QueryStats local;
    std::vector<std::vector<Neighbor>> found =
        shard.index->QueryBatch(reduced, k, &local, limits);
    // Truncation is reported batch-wide, not per row, so a truncated batch
    // conservatively stores nothing (a partial row must never be served as
    // the exact answer later).
    const bool store = !local.truncated;
    for (size_t j = 0; j < miss_rows.size(); ++j) {
      out[miss_rows[j]] = std::move(found[j]);
      if (store) cache_->Insert(keys[miss_rows[j]], out[miss_rows[j]]);
    }
    if (stats != nullptr) stats->MergeFrom(local);
    return out;
  }

  std::vector<std::vector<Neighbor>> out(n);
  if (n == 0) return out;
  const auto [deadline, has_deadline] = AbsoluteDeadline(limits);
  const bool traced = obs::Tracer::Enabled();
  const size_t chunks = ParallelChunkCount(n, kBatchGrain);
  std::vector<QueryStats> partial(stats != nullptr ? chunks : 0);
  ParallelForIndexed(0, n, kBatchGrain,
                     [&](size_t chunk, size_t begin, size_t end) {
    QueryStats* local = stats != nullptr ? &partial[chunk] : nullptr;
    for (size_t i = begin; i < end; ++i) {
      // Probes stay serial inside a batch row: the row fan-out already owns
      // the pool (nested regions run serial regardless).
      if (!cacheable) {
        out[i] = QueryMultiShard(*snapshot, original_space_queries.Row(i), k,
                                 KnnIndex::kNoSkip, local, limits.cancel,
                                 deadline, has_deadline, traced,
                                 /*allow_parallel=*/false);
        continue;
      }
      const cache::CacheKey row_key = MakeCacheKey(
          snapshot->version, metric_hash, original_space_queries.Row(i), k);
      if (cache_->Lookup(row_key, &out[i])) continue;
      // Row-local stats so the row's own truncation flag gates its insert
      // (the chunk merge would smear one row's truncation over all).
      QueryStats row_stats;
      out[i] = QueryMultiShard(*snapshot, original_space_queries.Row(i), k,
                               KnnIndex::kNoSkip, &row_stats, limits.cancel,
                               deadline, has_deadline, traced,
                               /*allow_parallel=*/false);
      if (!row_stats.truncated) cache_->Insert(row_key, out[i]);
      if (local != nullptr) local->MergeFrom(row_stats);
    }
  });
  if (stats != nullptr) {
    for (const QueryStats& p : partial) stats->MergeFrom(p);
  }
  return out;
}

}  // namespace cohere
