// Benchmark program: runs one workload against the library's serving facades
// and prints its metrics. See README.md for the workloads, the metrics and
// how each per-layer metric maps to an end-to-end one.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--source TEXT]
//
// With --trace 0 the timed phase measures only the facade calls (end-to-end
// metrics). With --trace 1 the same inputs are run again with each layer's
// public functions timed from outside (per-layer metrics). Every answer is
// checked against the independent oracle in oracle.cc; a mismatch prints
// "correct": false and exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "cluster/projected.h"
#include "common/parallel.h"
#include "core/dynamic_engine.h"
#include "core/engine.h"
#include "core/local_engine.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "index/linear_scan.h"
#include "index/va_file.h"
#include "linalg/blocked_matrix.h"
#include "obs/metrics.h"
#include "obs/query_metrics.h"
#include "oracle.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "stats/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using cohere::Dataset;
using cohere::Matrix;
using cohere::Neighbor;
using cohere::QueryLimits;
using cohere::QueryStats;
using cohere::Vector;
using Clock = std::chrono::steady_clock;

constexpr size_t kK = 3;  // neighbours per query, as in the paper (§1.5)
// Structure seed of the synthetic population models. It is a constant so
// that every --seed samples the same population (same concept loadings and
// class centroids); --seed picks which records form the corpus, the queries
// and the inserts.
constexpr uint64_t kModelSeed = 2001;
// Facade builds per run; setup_s is their median.
constexpr int kSetupBuilds = 5;
// Operations per round: every run attempts whole rounds.
constexpr size_t kRoundOps = 64;
// A deadline that never fires in these workloads but is active, so the
// index runs its deadline-checked scan path.
constexpr double kGenerousDeadlineUs = 1e6;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Output

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Report {
  std::vector<std::string> errors;  // oracle mismatches
  std::map<std::string, OpCount> ops;  // per operation type
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::pair<std::string, Metric>> details;  // printed only

  void Fail(std::string what) {
    if (errors.size() < 8) errors.push_back(std::move(what));
    else if (errors.size() == 8) errors.push_back("(further errors elided)");
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, {value, unit}});
  }
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Machine stamp

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

std::string CgroupCpuMax() {
  for (const char* path : {"/sys/fs/cgroup/cpu.max",
                           "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"}) {
    std::ifstream in(path);
    std::string line;
    if (in && std::getline(in, line)) return line;
  }
  return "none";
}

// Runs the same fixed spin on 1 thread and then on `threads` threads at
// once; the ratio of total work per wall second is the parallel speedup
// the process actually gets.
double SpinSpeedup(size_t threads) {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 20'000'000; ++i) x = x + i * 2654435761u;
  };
  auto t0 = Clock::now();
  spin();
  const double one = Us(t0, Clock::now());
  t0 = Clock::now();
  std::vector<std::thread> pool;
  for (size_t i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  const double all = Us(t0, Clock::now());
  return static_cast<double>(threads) * one / all;
}

std::string MachineStamp(const std::string& source) {
  const size_t cpus = AffinityCpus();
  std::ostringstream out;
  out << "{\"affinity_cpus\": " << cpus << ", \"cgroup_cpu_max\": \""
      << CgroupCpuMax() << "\", \"spin_speedup\": "
      << Num(SpinSpeedup(std::max<size_t>(cpus, 1)))
      << ", \"simd_level\": \""
      << cohere::simd::LevelName(cohere::simd::ActiveLevel())
      << "\", \"pool_threads\": " << cohere::ParallelThreadCount()
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"source\": \"" << source << "\"}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Inputs

struct Inputs {
  Dataset corpus;
  Dataset queries;
  Dataset inserts;
};

// Draws corpus, queries and inserts without replacement from `pool`, in an
// order set by `seed`.
Inputs Sample(const Dataset& pool, size_t corpus, size_t queries,
              size_t inserts, uint64_t seed) {
  cohere::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::vector<size_t> pick =
      rng.SampleWithoutReplacement(pool.NumRecords(), corpus + queries +
                                                          inserts);
  auto slice = [&](size_t begin, size_t count) {
    return pool.SelectRecords(std::vector<size_t>(
        pick.begin() + static_cast<ptrdiff_t>(begin),
        pick.begin() + static_cast<ptrdiff_t>(begin + count)));
  };
  return {slice(0, corpus), slice(corpus, queries),
          slice(corpus + queries, inserts)};
}

// One population of the latent-factor model (PAPER.md §1.5): 50 attributes,
// 8 concepts, two classes.
Inputs StaticInputs(size_t corpus, size_t queries, size_t inserts,
                    uint64_t seed) {
  cohere::LatentFactorConfig config;
  config.num_records = (corpus + queries + inserts) * 3 / 2;
  config.num_attributes = 50;
  config.num_concepts = 8;
  config.num_classes = 2;
  config.class_separation = 1.5;
  config.seed = kModelSeed;
  return Sample(cohere::GenerateLatentFactor(config), corpus, queries,
                inserts, seed);
}

// Four populations with their own concepts and classes (PAPER.md §3.1).
Inputs LocalInputs(size_t corpus, size_t queries, uint64_t seed) {
  cohere::MultiPopulationConfig config;
  config.center_separation = 6.0;
  config.seed = kModelSeed;
  const size_t per_population = (corpus + queries) * 3 / 2 / 4;
  for (uint64_t p = 0; p < 4; ++p) {
    cohere::LatentFactorConfig pop;
    pop.num_records = per_population;
    pop.num_attributes = 40;
    pop.num_concepts = 5;
    pop.num_classes = 2;
    pop.class_separation = 2.0;
    pop.seed = kModelSeed + 1 + p;
    config.populations.push_back(pop);
  }
  return Sample(cohere::GenerateMultiPopulation(config), corpus, queries, 0,
                seed);
}

// ---------------------------------------------------------------------------
// Answer bookkeeping shared by the workloads

// The first answer seen for each query id. Later answers to the same query
// must equal it exactly; first answers go to the oracle after the run.
class FirstAnswers {
 public:
  explicit FirstAnswers(size_t queries) : answers_(queries), seen_(queries) {}

  // Returns false when a repeat differs from the first answer.
  bool Record(size_t qid, const std::vector<Neighbor>& answer) {
    if (!seen_[qid]) {
      seen_[qid] = true;
      answers_[qid] = answer;
      return true;
    }
    return answers_[qid] == answer;
  }
  bool seen(size_t qid) const { return seen_[qid]; }
  const std::vector<Neighbor>& answer(size_t qid) const {
    return answers_[qid];
  }
  size_t size() const { return answers_.size(); }

 private:
  std::vector<std::vector<Neighbor>> answers_;
  std::vector<bool> seen_;
};

// Share of returned neighbours whose label matches the query's, counting
// each distinct query once (its first answer).
double Accuracy(const FirstAnswers& first,
                const std::vector<int>& corpus_labels,
                const Dataset& queries) {
  size_t match = 0;
  size_t total = 0;
  for (size_t q = 0; q < first.size(); ++q) {
    if (!first.seen(q)) continue;
    for (const Neighbor& nb : first.answer(q)) {
      ++total;
      match += corpus_labels[nb.index] == queries.label(q) ? 1 : 0;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(match) /
                                static_cast<double>(total);
}

void CheckExactFirstAnswers(const FirstAnswers& first, const Rows& corpus,
                            const Rows& queries, Report* report) {
  for (size_t q = 0; q < first.size(); ++q) {
    if (!first.seen(q)) continue;
    const std::string err =
        CheckExactKnn(first.answer(q), corpus, corpus.n, queries.row(q), kK);
    if (!err.empty()) report->Fail("query " + std::to_string(q) + ": " + err);
  }
}

void CheckPipeline(const cohere::ReductionPipeline& pipeline,
                   const Rows& data, const std::string& what,
                   Report* report) {
  std::string err = CheckModel(pipeline, data);
  if (!err.empty()) report->Fail(what + ": " + err);
  err = CheckCoherencePrefix(pipeline);
  if (!err.empty()) report->Fail(what + ": " + err);
}

// Builds the facade kSetupBuilds times; returns the last engine and the
// median build time in seconds.
template <typename Engine, typename BuildFn>
Engine TimedBuilds(BuildFn build, double* setup_s) {
  std::vector<double> times;
  std::optional<Engine> engine;
  for (int i = 0; i < kSetupBuilds; ++i) {
    engine.reset();
    const auto t0 = Clock::now();
    auto built = build();
    times.push_back(Us(t0, Clock::now()) * 1e-6);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(2);
    }
    engine.emplace(std::move(*built));
  }
  *setup_s = Median(times);
  return std::move(*engine);
}

// Moves the calling thread to the next allowed CPU whenever the timed phase
// enters a new window, and restores its affinity when destroyed. Another
// tenant then slows the run only while it shares the core the run is on,
// not for the whole run. Only the client thread moves; pool workers keep
// their own affinity.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Enter(size_t window) {
    if (window == window_ || cpus_.size() < 2) return;
    window_ = window;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[window % cpus_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof(one), &one) == 0 || moved_;
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  size_t window_ = static_cast<size_t>(-1);
  bool moved_ = false;
};

// Runs `round` until `seconds` have passed or it returns false; whole
// rounds only. Time added to `*paused` by the rounds does not count.
void RunRounds(double seconds, const std::function<bool()>& round,
               const Clock::duration* paused = nullptr) {
  const auto t0 = Clock::now() - (paused ? *paused : Clock::duration{});
  while (Us(t0, Clock::now() - (paused ? *paused : Clock::duration{})) <
         seconds * 1e6) {
    if (!round()) break;
  }
}

// Call latencies and step timings of one client's timed phase, each kept
// as a uniform sample of the whole phase. Storage is allocated and touched
// up front, so the process's peak memory does not depend on how many calls
// completed.
//
// The machine's other tenants switch its CPUs between a fast and a slow
// mode every second or so (the same scan takes about 290 or 520 us), and
// the share of slow time differs widely from run to run, so the median of
// a run lands in whichever mode held most of it. The metrics are therefore
// set by the run's fast stretches, which nearly every run has:
//   query_p10_us is the 10th percentile of the calls' latency;
//   ops_per_s is the 90th percentile of the throughput of the client's
//     steps (operations of a step over its wall time), summed over the
//     clients. A step holds the workload's mix of work: one call where
//     every call does the same work, else a round (an insert and its
//     queries; 64 Zipf lookups, hits and misses).
// The median and the p99 of the calls are printed as details.
class RunSamples {
 public:
  // Windows of the timed phase; the serial client moves to another CPU at
  // each one.
  static constexpr size_t kWindows = 40;

  RunSamples() : calls_(kCallCap, 0.0), steps_(kStepCap, 0.0) {}

  // Starts a timed phase of `seconds` at `t0`, dropping earlier samples.
  void Start(Clock::time_point t0, double seconds) {
    calls_seen_ = steps_seen_ = 0;
    t0_ = t0;
    window_us_ = seconds * 1e6 / kWindows;
  }

  // The window `t` falls in (kWindows past the end).
  size_t WindowAt(Clock::time_point t) const {
    return std::min(kWindows, static_cast<size_t>(Us(t0_, t) / window_us_));
  }

  // Leaves out of the timed phase a pause of `d` that has just ended.
  void Skip(Clock::duration d) { t0_ += d; }

  // One call that took `us` microseconds.
  void Add(double us) { Keep(us, calls_seen_++, &calls_); }

  // One step of the client's loop: `ops` operations completed in `us`
  // microseconds of wall time.
  void AddStep(double us, uint64_t ops) {
    Keep(static_cast<double>(ops) / us, steps_seen_++, &steps_);
  }

  struct Summary {
    double p10 = 0, p50 = 0, p99 = 0, ops_per_s = 0;
    uint64_t calls = 0, steps = 0;
  };

  static Summary Summarize(const std::vector<const RunSamples*>& clients) {
    // Each client's kept calls stand for calls_seen_ / kept calls.
    std::vector<std::pair<double, double>> calls;  // latency, weight
    Summary s;
    for (const RunSamples* c : clients) {
      const size_t n = std::min<uint64_t>(c->calls_seen_, kCallCap);
      for (size_t i = 0; i < n; ++i) {
        calls.push_back({c->calls_[i], static_cast<double>(c->calls_seen_) /
                                           static_cast<double>(n)});
      }
      const size_t r = std::min<uint64_t>(c->steps_seen_, kStepCap);
      s.ops_per_s += Quantile(std::vector<double>(c->steps_.begin(),
                                                  c->steps_.begin() + r),
                              0.9) *
                     1e6;
      s.calls += c->calls_seen_;
      s.steps += c->steps_seen_;
    }
    std::sort(calls.begin(), calls.end());
    double total = 0;
    for (const auto& [us, w] : calls) total += w;
    auto quantile = [&](double q) {
      double below = 0;
      for (const auto& [us, w] : calls) {
        below += w;
        if (below >= q * total) return us;
      }
      return calls.empty() ? 0.0 : calls.back().first;
    };
    s.p10 = quantile(0.1);
    s.p50 = quantile(0.5);
    s.p99 = quantile(0.99);
    return s;
  }

  static void Report(const std::vector<const RunSamples*>& clients,
                     perfbench::Report* report) {
    const Summary s = Summarize(clients);
    report->Add("query_p10_us", s.p10, "us");
    report->Detail("query_p50_us", s.p50, "us");
    report->Detail("query_p99_us", s.p99, "us");
    report->Add("ops_per_s", s.ops_per_s, "1/s");
    report->Detail("calls", static_cast<double>(s.calls), "count");
    report->Detail("steps", static_cast<double>(s.steps), "count");
  }

 private:
  static constexpr size_t kCallCap = 1 << 17;
  static constexpr size_t kStepCap = 1 << 15;

  // Reservoir sampling: `kept` stays a uniform sample of all values seen.
  void Keep(double value, uint64_t seen, std::vector<double>* kept) {
    if (seen < kept->size()) {
      (*kept)[seen] = value;
      return;
    }
    const uint64_t j = SplitMix() % (seen + 1);
    if (j < kept->size()) (*kept)[j] = value;
  }

  uint64_t SplitMix() {
    uint64_t z = (rng_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<double> calls_, steps_;
  uint64_t calls_seen_ = 0, steps_seen_ = 0;
  Clock::time_point t0_;
  double window_us_ = 1.0;
  uint64_t rng_ = 0;
};

bool Failed(const QueryStats& stats, const std::vector<Neighbor>& out) {
  return stats.truncated || stats.brownout_level > 0 || out.size() < kK;
}

// ---------------------------------------------------------------------------
// Per-layer measurements taken from outside the facades

// Blocking-path layer timings of one reduced-space shard, per query.
struct ShardLayers {
  std::vector<double> project_us, index_us, kernel_us, select_us;
  double distance_evals = 0, refined = 0, queries = 0;
};

// Times the projection, the index query, one pass of the active distance
// kernel over the shard's rows and the top-k selection over that pass.
void TimeShardLayers(const cohere::ReductionPipeline& pipeline,
                     const cohere::KnnIndex& index,
                     const cohere::BlockedMatrix& rows, const Vector& query,
                     const QueryLimits& limits, std::vector<double>* dist,
                     ShardLayers* out) {
  auto t0 = Clock::now();
  const Vector reduced = pipeline.TransformPoint(query);
  auto t1 = Clock::now();
  QueryStats stats;
  const std::vector<Neighbor> found =
      index.Query(reduced, kK, cohere::KnnIndex::kNoSkip, &stats, limits);
  auto t2 = Clock::now();
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  dist->resize(n);
  const auto& kernels = cohere::simd::ActiveKernels();
  constexpr size_t kSpan = 256;
  for (size_t base = 0; base < n; base += kSpan) {
    kernels.l2_block(reduced.data(), rows.RowPtr(base),
                     std::min(kSpan, n - base), d, dist->data() + base);
  }
  auto t3 = Clock::now();
  cohere::KnnCollector collector(kK);
  for (size_t i = 0; i < n; ++i) collector.Offer(i, (*dist)[i]);
  const std::vector<Neighbor> picked = collector.Take();
  auto t4 = Clock::now();
  if (picked.size() != found.size()) std::abort();  // keeps the work live
  out->project_us.push_back(Us(t0, t1));
  out->index_us.push_back(Us(t1, t2));
  out->kernel_us.push_back(Us(t2, t3));
  out->select_us.push_back(Us(t3, t4));
  out->distance_evals += static_cast<double>(stats.distance_evaluations);
  out->refined += static_cast<double>(stats.candidates_refined);
  out->queries += 1;
}

void AddShardLayers(const ShardLayers& s, Report* report) {
  report->Add("reduction.project_us", Median(s.project_us), "us");
  report->Add("index.query_us", Median(s.index_us), "us");
  report->Add("index.select_us", Median(s.select_us), "us");
  report->Add("simd.kernel_us", Median(s.kernel_us), "us");
  report->Add("index.distance_evals_per_query",
              s.distance_evals / std::max(1.0, s.queries), "count");
  report->Add("index.refined_per_query",
              s.refined / std::max(1.0, s.queries), "count");
}

// Time to copy `rows` into fresh blocked storage, as each insert does for
// the whole snapshot; and the bytes one insert copies at this size
// (originals, the reduced rows twice, labels).
void AddCopyCost(const cohere::BlockedMatrix& rows, size_t original_dims,
                 Report* report) {
  const Matrix plain = rows.ToMatrix();
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    cohere::BlockedMatrix copy(plain);
    times.push_back(Us(t0, Clock::now()));
    if (copy.rows() != rows.rows()) std::abort();
  }
  const double n = static_cast<double>(rows.rows());
  report->Add("dynamic.copy_us", Median(times), "us");
  report->Add("dynamic.copy_bytes_per_insert",
              n * 8.0 * static_cast<double>(original_dims) +
                  2.0 * n * 8.0 * static_cast<double>(rows.cols()) + n * 4.0,
              "bytes");
}

// Median difference between two interleaved configurations of the same
// query stream: `on` and `off` run alternately in blocks of 32 queries.
// `one_query` returns a latency, or NaN for a query that does not count.
double AlternatingDelta(double seconds, const std::function<void(bool)>& set,
                        const std::function<double()>& one_query) {
  std::vector<double> on, off;
  bool state = true;
  RunRounds(seconds, [&] {
    set(state);
    for (int i = 0; i < 32; ++i) {
      const double us = one_query();
      if (!std::isnan(us)) (state ? on : off).push_back(us);
    }
    state = !state;
    return true;
  });
  set(true);
  return Median(on) - Median(off);
}

void SetMetrics(bool enabled) {
  cohere::obs::MetricsRegistry::SetEnabled(enabled);
}

// ---------------------------------------------------------------------------
// The multi-locality serving path (route, probes, merge, cache, admission)

constexpr size_t kLocalClusters = 4;
constexpr size_t kLocalSubspace = 6;
constexpr size_t kLocalProbes = 2;
// Result-cache budget of serve_local_zipf: small enough that the Zipf
// stream keeps missing on its long tail (see README.md for the hit share).
constexpr size_t kLocalCacheBytes = 384 << 10;
constexpr size_t kZipfStreamLength = 1 << 15;
constexpr double kZipfExponent = 0.9;

cohere::LocalEngineOptions LocalOptions(size_t clients) {
  cohere::LocalEngineOptions options;
  options.num_clusters = kLocalClusters;
  options.cluster_subspace_dim = kLocalSubspace;
  options.probe_clusters = kLocalProbes;
  options.cache_budget_bytes = kLocalCacheBytes;
  options.query_deadline_us = kGenerousDeadlineUs;
  options.admission.enabled = true;
  options.admission.max_concurrency = clients;
  options.admission.max_queue = 64;
  return options;
}

// A Zipf(kZipfExponent) stream of query ids over `pool` ids, rank r drawn
// with weight 1/(r+1)^s; rank order is the (already random) id order.
std::vector<uint32_t> ZipfStream(size_t pool, size_t length, uint64_t seed) {
  std::vector<double> cdf(pool);
  double total = 0.0;
  for (size_t r = 0; r < pool; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  cohere::Rng rng(seed);
  std::vector<uint32_t> out(length);
  for (uint32_t& id : out) {
    const double u = rng.Uniform() * total;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    id = static_cast<uint32_t>(std::min(r, pool - 1));
  }
  return out;
}

// Per-layer numbers of a local engine on a Zipf stream over `queries`.
// Used on serve_local_zipf's own engine, and on the other workloads over a
// sample of their corpus (off their blocking path, see README.md).
// Returns the serving core's own time on the miss path: EXPLAIN latency
// minus the route, slowest probe, merge and cache phases (median).
double MeasureLocalLayers(const cohere::LocalReducedSearchEngine& engine,
                        const Matrix& studentized_corpus,
                        const Dataset& queries,
                        const std::vector<uint32_t>& stream, double seconds,
                        Report* report) {
  const cohere::ServingCore& serving = engine.serving();
  QueryLimits limits;
  limits.deadline_us = kGenerousDeadlineUs;
  size_t pos = 0;
  auto next = [&] {
    const Vector q = queries.Record(stream[pos]);
    pos = (pos + 1) % stream.size();
    return q;
  };

  // Clustering, refitted here on the same studentized rows and settings.
  {
    cohere::ProjectedClusteringOptions options;
    options.num_clusters = kLocalClusters;
    options.subspace_dim = kLocalSubspace;
    options.seed = 1;
    const auto t0 = Clock::now();
    auto clustering = cohere::RunProjectedClustering(studentized_corpus,
                                                     options);
    report->Add("cluster.fit_s", Us(t0, Clock::now()) * 1e-6, "s");
    if (!clustering.ok()) report->Fail("clustering refit failed");
  }

  // EXPLAIN phases on the stream.
  const cohere::cache::ResultCacheStats cache_before =
      serving.result_cache()->Stats();
  std::vector<double> route, probe, merge, lookup, insert, self_us;
  double probes = 0, refined = 0, misses = 0;
  RunRounds(seconds * 0.4, [&] {
    for (size_t i = 0; i < kRoundOps; ++i) {
      cohere::obs::QueryProfile profile;
      QueryStats stats;
      const Vector q = next();
      (void)serving.Query(q, kK, cohere::KnnIndex::kNoSkip, &stats, limits,
                          &profile);
      double blocking = 0.0, slowest_probe = 0.0;
      for (const cohere::obs::QueryPhase& phase : profile.phases) {
        if (phase.name == "route") route.push_back(phase.duration_us);
        if (phase.name == "probe") {
          probe.push_back(phase.duration_us);
          slowest_probe = std::max(slowest_probe, phase.duration_us);
          probes += 1;
          continue;
        }
        if (phase.name == "merge") merge.push_back(phase.duration_us);
        if (phase.name == "cache.lookup") lookup.push_back(phase.duration_us);
        if (phase.name == "cache.insert") insert.push_back(phase.duration_us);
        blocking += phase.duration_us;
      }
      if (!profile.cache_hit) {
        misses += 1;
        refined += static_cast<double>(profile.candidates_refined);
        self_us.push_back(profile.latency_us - blocking - slowest_probe);
      }
    }
    return true;
  });
  const cohere::cache::ResultCacheStats cache_after =
      serving.result_cache()->Stats();
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double looked =
      hits + static_cast<double>(cache_after.misses - cache_before.misses);
  report->Add("serving.route_us", Median(route), "us");
  report->Add("serving.probe_us", Median(probe), "us");
  report->Add("serving.merge_us", Median(merge), "us");
  report->Add("serving.probes_per_query", probes / std::max(1.0, misses),
              "count");
  report->Add("serving.rerank_per_query", refined / std::max(1.0, misses),
              "count");
  report->Add("cache.hit_ratio", looked > 0 ? hits / looked : 0.0,
              "fraction");
  report->Add("cache.lookup_us", Median(lookup), "us");
  report->Add("cache.insert_us", Median(insert), "us");
  report->Add("cache.evictions",
              static_cast<double>(cache_after.evictions -
                                  cache_before.evictions),
              "count");

  // Admission: TryQuery against Query on alternating stream positions.
  std::vector<double> try_us, plain_us;
  RunRounds(seconds * 0.3, [&] {
    for (size_t i = 0; i < kRoundOps; ++i) {
      const Vector q = next();
      std::vector<Neighbor> out;
      QueryStats stats;
      const auto t0 = Clock::now();
      if (i % 2 == 0) {
        (void)serving.TryQuery(q, kK, cohere::KnnIndex::kNoSkip, &stats,
                               limits, &out);
        try_us.push_back(Us(t0, Clock::now()));
      } else {
        out = serving.Query(q, kK, cohere::KnnIndex::kNoSkip, &stats, limits);
        plain_us.push_back(Us(t0, Clock::now()));
      }
    }
    return true;
  });
  report->Add("admission.self_us", Median(try_us) - Median(plain_us), "us");
  return Median(self_us);
}

// The locality a query routes to first (the same rule as the serving
// core's router: projected distance to each locality in studentized space).
size_t NearestShard(const cohere::EngineSnapshot& snapshot, const Vector& q) {
  const Vector z = snapshot.studentizer.Apply(q);
  size_t best = 0;
  double best_dist = 0.0;
  for (size_t c = 0; c < snapshot.shards.size(); ++c) {
    cohere::ProjectedCluster view;
    view.centroid = snapshot.shards[c].centroid;
    view.basis = snapshot.shards[c].cluster_basis;
    const double dist = cohere::ProjectedSquaredDistance(z, view);
    if (c == 0 || dist < best_dist) {
      best = c;
      best_dist = dist;
    }
  }
  return best;
}

// An off-path local engine over the first rows of a workload's corpus, so
// the route/probe/merge/cache/admission/cluster layers are measured on
// every workload's own data.
void MeasureLocalLayersOffPath(const Dataset& corpus, const Dataset& queries,
                               uint64_t seed, double seconds,
                               Report* report) {
  const size_t n = std::min<size_t>(corpus.NumRecords(), 8000);
  std::vector<size_t> head(n);
  for (size_t i = 0; i < n; ++i) head[i] = i;
  const Dataset sample = corpus.SelectRecords(head);
  auto engine = cohere::LocalReducedSearchEngine::Build(sample,
                                                        LocalOptions(1));
  if (!engine.ok()) {
    report->Fail("off-path local engine build failed");
    return;
  }
  const Matrix studentized =
      cohere::ColumnAffineTransform::FitZScore(sample.features())
          .ApplyToRows(sample.features());
  (void)MeasureLocalLayers(*engine, studentized, queries,
                           ZipfStream(queries.NumRecords(), kZipfStreamLength,
                                      seed),
                           seconds, report);
  report->Add("admission.queued", 0.0, "count");
}

// ---------------------------------------------------------------------------
// Workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source = "unknown";
};

// scan_100k and batch_va_100k: static ReducedSearchEngine over 100k rows.
constexpr size_t kStaticCorpus = 100000;
constexpr size_t kStaticQueries = 1000;
constexpr size_t kVaDims = 8;
constexpr size_t kBatch = 16;

void RunStatic(const Args& args, bool va, Report* report) {
  const Inputs in = StaticInputs(kStaticCorpus, kStaticQueries, 0, args.seed);
  cohere::EngineOptions options;
  if (va) {
    options.backend = cohere::IndexBackend::kVaFile;
    options.reduction.target_dim = kVaDims;
  } else {
    options.backend = cohere::IndexBackend::kLinearScan;
  }
  double setup_s = 0;
  const auto engine = TimedBuilds<cohere::ReducedSearchEngine>(
      [&] { return cohere::ReducedSearchEngine::Build(in.corpus, options); },
      &setup_s);

  const Rows corpus = FromMatrix(in.corpus.features());
  CheckPipeline(engine.pipeline(), corpus, "pipeline", report);
  const Rows reduced = Project(engine.pipeline(), corpus);
  const Rows queries =
      Project(engine.pipeline(), FromMatrix(in.queries.features()));
  FirstAnswers first(kStaticQueries);
  OpCount& op = report->ops[va ? "query_batch" : "query"];
  size_t next = 0;

  // One facade call of `count` consecutive stream queries; returns its
  // latency in microseconds, also recorded into `samples` when given.
  auto call = [&](size_t count, RunSamples* samples = nullptr) {
    Matrix batch(count, in.queries.NumAttributes());
    std::vector<size_t> ids(count);
    for (size_t i = 0; i < count; ++i) {
      ids[i] = next;
      batch.SetRow(i, in.queries.Record(next));
      next = (next + 1) % kStaticQueries;
    }
    std::vector<std::vector<Neighbor>> out;
    QueryStats stats;
    const auto t0 = Clock::now();
    if (va) {
      out = engine.QueryBatch(batch, kK, &stats);
    } else {
      out.push_back(engine.Query(batch.Row(0), kK,
                                 cohere::KnnIndex::kNoSkip, &stats));
    }
    const auto t1 = Clock::now();
    const double us = Us(t0, t1);
    if (samples != nullptr) samples->Add(us);
    op.attempted += count;
    for (size_t i = 0; i < count; ++i) {
      if (Failed(stats, out[i])) {
        ++op.failed;
      } else if (!first.Record(ids[i], out[i])) {
        report->Fail("query " + std::to_string(ids[i]) +
                     ": repeat differs from its first answer");
      }
    }
    return us;
  };
  const size_t per_call = va ? kBatch : 1;

  // Warm-up pass (untimed): page in the corpus and the query stream.
  for (size_t i = 0; i < 256; i += per_call) call(per_call);

  if (!args.trace) {
    RunSamples samples;
    samples.Start(Clock::now(), args.seconds);
    // Only the serial client moves between CPUs. The batch client is one
    // lane of a pool that has a lane on every CPU, so pinning it would make
    // it share a CPU with a pool worker.
    std::optional<CpuRotation> rotation;
    if (!va) rotation.emplace();
    // Every call does the same work, so each is a step of its own: the
    // queries it answered over the time since the previous call ended.
    auto last = Clock::now();
    RunRounds(args.seconds, [&] {
      if (rotation) rotation->Enter(samples.WindowAt(Clock::now()));
      for (size_t i = 0; i < kRoundOps; i += per_call) {
        call(per_call, &samples);
        const auto now = Clock::now();
        samples.AddStep(Us(last, now), per_call);
        last = now;
      }
      return true;
    });
    RunSamples::Report({&samples}, report);
    report->Add("setup_s", setup_s, "s");
    report->Add("prediction_accuracy",
                Accuracy(first, in.corpus.labels(), in.queries), "fraction");
  } else {
    const auto snapshot = engine.serving().snapshot();
    const cohere::SnapshotShard& shard = snapshot->shards[0];
    ShardLayers layers;
    std::vector<double> e2e, dist;
    QueryLimits no_limits;
    RunRounds(args.seconds * 0.35, [&] {
      for (size_t i = 0; i < kRoundOps; i += per_call) {
        e2e.push_back(call(per_call));
        TimeShardLayers(shard.pipeline, *shard.index, *shard.rows,
                        in.queries.Record(next), no_limits, &dist, &layers);
      }
      return true;
    });
    const double e2e_p50 = Median(e2e);
    report->Add("trace.query_p50_us", e2e_p50, "us");
    AddShardLayers(layers, report);
    report->Add("serving.self_us",
                e2e_p50 / static_cast<double>(per_call) -
                    Median(layers.project_us) - Median(layers.index_us),
                "us");
    report->Add("reduction.reduced_dims",
                static_cast<double>(engine.ReducedDims()), "count");
    {
      auto t0 = Clock::now();
      auto fit = cohere::ReductionPipeline::Fit(in.corpus, options.reduction);
      report->Add("reduction.fit_s", Us(t0, Clock::now()) * 1e-6, "s");
      if (!fit.ok()) report->Fail("reduction refit failed");
      t0 = Clock::now();
      std::unique_ptr<cohere::KnnIndex> index;
      if (va) {
        index = std::make_unique<cohere::VaFileIndex>(
            shard.rows, snapshot->metric.get(),
            engine.options().va_bits_per_dim);
      } else {
        index = std::make_unique<cohere::LinearScanIndex>(
            shard.rows, snapshot->metric.get());
      }
      report->Add("index.build_s", Us(t0, Clock::now()) * 1e-6, "s");
    }
    AddCopyCost(*shard.rows, in.corpus.NumAttributes(), report);
    report->Add("obs.overhead_us",
                AlternatingDelta(args.seconds * 0.15, SetMetrics,
                                 [&] { return call(per_call); }),
                "us");
    const size_t pool = cohere::ParallelThreadCount();
    report->Add("parallel.fanout_us",
                AlternatingDelta(
                    args.seconds * 0.15,
                    [&](bool on) {
                      cohere::SetParallelThreadCount(on ? pool : 1);
                    },
                    [&] { return call(per_call); }),
                "us");
    MeasureLocalLayersOffPath(in.corpus, in.queries, args.seed,
                              args.seconds * 0.35, report);
  }
  CheckExactFirstAnswers(first, reduced, queries, report);
}

// serve_local_zipf: LocalReducedSearchEngine, closed-loop clients on
// ServingCore::TryQuery over a Zipf stream.
constexpr size_t kLocalCorpus = 8000;
constexpr size_t kLocalQueries = 8192;
// One client: with two, on a shared 4-vCPU machine, the p99 spread across
// runs exceeded every usable bound (see README.md).
constexpr size_t kClients = 1;

void RunLocal(const Args& args, Report* report) {
  const Inputs in = LocalInputs(kLocalCorpus, kLocalQueries, args.seed);
  const size_t clients = kClients;
  double setup_s = 0;
  const auto engine = TimedBuilds<cohere::LocalReducedSearchEngine>(
      [&] {
        return cohere::LocalReducedSearchEngine::Build(in.corpus,
                                                       LocalOptions(clients));
      },
      &setup_s);
  const cohere::ServingCore& serving = engine.serving();

  // Oracle state: the benchmark's own studentized space.
  const Rows corpus = FromMatrix(in.corpus.features());
  std::vector<double> mean, stddev;
  ColumnStats(corpus, &mean, &stddev);
  const Rows corpus_z = Studentize(corpus, mean, stddev);
  const Rows queries_z =
      Studentize(FromMatrix(in.queries.features()), mean, stddev);
  for (size_t c = 0; c < engine.NumClusters(); ++c) {
    const Dataset members = in.corpus.SelectRecords(engine.ClusterMembers(c));
    CheckPipeline(engine.ClusterPipeline(c), FromMatrix(members.features()),
                  "cluster " + std::to_string(c) + " pipeline", report);
  }

  QueryLimits limits;
  limits.deadline_us = kGenerousDeadlineUs;
  struct Client {
    std::vector<uint32_t> stream;
    size_t pos = 0;
    FirstAnswers first{kLocalQueries};
    RunSamples samples;
    OpCount op;
    std::vector<std::string> errors;
  };
  std::vector<Client> state(clients);
  for (size_t c = 0; c < clients; ++c) {
    state[c].stream =
        ZipfStream(kLocalQueries, kZipfStreamLength, args.seed * 131 + c);
  }
  // One round of kRoundOps TryQuery calls on client `c`.
  auto round = [&](Client& cl, bool timed) {
    for (size_t i = 0; i < kRoundOps; ++i) {
      const uint32_t qid = cl.stream[cl.pos];
      cl.pos = (cl.pos + 1) % cl.stream.size();
      const Vector q = in.queries.Record(qid);
      std::vector<Neighbor> out;
      QueryStats stats;
      const auto t0 = Clock::now();
      const cohere::Status status = serving.TryQuery(
          q, kK, cohere::KnnIndex::kNoSkip, &stats, limits, &out);
      if (timed) {
        cl.samples.Add(Us(t0, Clock::now()));
      }
      ++cl.op.attempted;
      if (!status.ok() || Failed(stats, out)) {
        ++cl.op.failed;
      } else if (!cl.first.Record(qid, out) && cl.errors.size() < 4) {
        cl.errors.push_back("query " + std::to_string(qid) +
                            ": repeat differs from its first answer");
      }
    }
  };
  // Warm-up: fill the result cache to its steady state (untimed).
  for (int r = 0; r < 64; ++r) round(state[0], false);

  // Runs every client for `seconds`; returns their summary.
  auto run_clients = [&](double seconds) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    std::vector<const RunSamples*> samples;
    const auto t0 = Clock::now();
    for (size_t c = 0; c < clients; ++c) {
      state[c].samples.Start(t0, seconds);
      samples.push_back(&state[c].samples);
      threads.emplace_back([&, c] {
        CpuRotation rotation;
        while (!stop.load(std::memory_order_relaxed)) {
          rotation.Enter(state[c].samples.WindowAt(Clock::now()));
          const auto t0 = Clock::now();
          round(state[c], true);
          state[c].samples.AddStep(Us(t0, Clock::now()), kRoundOps);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    return samples;
  };

  if (!args.trace) {
    RunSamples::Report(run_clients(args.seconds), report);
    report->Add("setup_s", setup_s, "s");
    const cohere::cache::ResultCacheStats cache =
        serving.result_cache()->Stats();
    report->Detail("cache_hit_ratio",
                   static_cast<double>(cache.hits) /
                       static_cast<double>(cache.hits + cache.misses),
                   "fraction");
  } else {
    report->Add("trace.query_p50_us",
                RunSamples::Summarize(run_clients(args.seconds * 0.15))
                    .p50,
                "us");
    report->Add("admission.queued",
                static_cast<double>(serving.admission()->Totals().queued),
                "count");
    const Matrix studentized =
        cohere::ColumnAffineTransform::FitZScore(in.corpus.features())
            .ApplyToRows(in.corpus.features());
    const double local_self =
        MeasureLocalLayers(engine, studentized, in.queries, state[0].stream,
                           args.seconds * 0.4, report);
    report->Add("serving.self_us", local_self, "us");

    // Shard-level layers, each query on the locality it routes to first.
    const auto snapshot = serving.snapshot();
    ShardLayers layers;
    std::vector<double> dist;
    size_t pos = 0;
    RunRounds(args.seconds * 0.15, [&] {
      for (size_t i = 0; i < kRoundOps; ++i) {
        const uint32_t qid = state[0].stream[pos];
        pos = (pos + 1) % state[0].stream.size();
        const Vector q = in.queries.Record(qid);
        const cohere::SnapshotShard& shard =
            snapshot->shards[NearestShard(*snapshot, q)];
        TimeShardLayers(shard.pipeline, *shard.index, *shard.rows, q, limits,
                        &dist, &layers);
      }
      return true;
    });
    AddShardLayers(layers, report);
    double dims = 0, fit_s = 0, build_s = 0;
    for (size_t c = 0; c < snapshot->shards.size(); ++c) {
      const cohere::SnapshotShard& shard = snapshot->shards[c];
      dims += static_cast<double>(shard.pipeline.ReducedDims());
      const Dataset members = in.corpus.SelectRecords(shard.members);
      auto t0 = Clock::now();
      auto fit = cohere::ReductionPipeline::Fit(members,
                                                engine.ClusterPipeline(c)
                                                    .options());
      fit_s += Us(t0, Clock::now()) * 1e-6;
      if (!fit.ok()) report->Fail("cluster reduction refit failed");
      t0 = Clock::now();
      cohere::LinearScanIndex index(shard.rows, snapshot->metric.get());
      build_s += Us(t0, Clock::now()) * 1e-6;
    }
    report->Add("reduction.reduced_dims",
                dims / static_cast<double>(snapshot->shards.size()), "count");
    report->Add("reduction.fit_s", fit_s, "s");
    report->Add("index.build_s", build_s, "s");
    AddCopyCost(*snapshot->shards[0].rows, in.corpus.NumAttributes(), report);

    size_t pos2 = 0;
    auto one = [&] {
      const Vector q = in.queries.Record(state[0].stream[pos2]);
      pos2 = (pos2 + 1) % state[0].stream.size();
      std::vector<Neighbor> out;
      const auto t0 = Clock::now();
      (void)serving.TryQuery(q, kK, cohere::KnnIndex::kNoSkip, nullptr,
                             limits, &out);
      return Us(t0, Clock::now());
    };
    report->Add("obs.overhead_us",
                AlternatingDelta(args.seconds * 0.1, SetMetrics, one), "us");
    // Probe fan-out only happens on cache misses; hits are not counted.
    auto one_miss = [&] {
      const Vector q = in.queries.Record(state[0].stream[pos2]);
      pos2 = (pos2 + 1) % state[0].stream.size();
      cohere::obs::QueryProfile profile;
      const auto t0 = Clock::now();
      (void)serving.Query(q, kK, cohere::KnnIndex::kNoSkip, nullptr, limits,
                          &profile);
      const double us = Us(t0, Clock::now());
      return profile.cache_hit ? std::nan("") : us;
    };
    const size_t pool = cohere::ParallelThreadCount();
    report->Add("parallel.fanout_us",
                AlternatingDelta(
                    args.seconds * 0.1,
                    [&](bool on) {
                      cohere::SetParallelThreadCount(on ? pool : 1);
                    },
                    one_miss),
                "us");
  }

  // Merge per-client answers, check consistency across clients, then run
  // the oracle on every distinct query's first answer.
  FirstAnswers merged(kLocalQueries);
  OpCount& op = report->ops["try_query"];
  for (const Client& cl : state) {
    op.attempted += cl.op.attempted;
    op.failed += cl.op.failed;
    for (const std::string& e : cl.errors) report->Fail(e);
    for (size_t q = 0; q < kLocalQueries; ++q) {
      if (cl.first.seen(q) && !merged.Record(q, cl.first.answer(q))) {
        report->Fail("query " + std::to_string(q) +
                     ": clients saw different answers");
      }
    }
  }
  for (size_t q = 0; q < kLocalQueries; ++q) {
    if (!merged.seen(q)) continue;
    const std::string err = CheckRerankedAnswer(
        merged.answer(q), corpus_z, queries_z.row(q), kK);
    if (!err.empty()) report->Fail("query " + std::to_string(q) + ": " + err);
  }
  if (!args.trace) {
    report->Add("prediction_accuracy",
                Accuracy(merged, in.corpus.labels(), in.queries),
                "fraction");
  }
}

// insert_mix: DynamicReducedIndex, one thread alternating one Insert with
// kQueriesPerInsert queries (the first reads the inserted record back).
// Every kEpochInserts inserts the index is built again from the initial
// corpus, outside the timed phase, so the queries always run over 20 000 to
// 21 000 rows: the row count, and with it query latency, does not depend on
// how many inserts a run completes.
constexpr size_t kDynamicCorpus = 20000;
constexpr size_t kDynamicQueries = 1000;
constexpr size_t kEpochInserts = 1000;
constexpr size_t kQueriesPerInsert = 8;

void RunDynamic(const Args& args, Report* report) {
  const Inputs in = StaticInputs(kDynamicCorpus, kDynamicQueries,
                                 kEpochInserts, args.seed);
  cohere::DynamicEngineOptions options;
  options.query_deadline_us = kGenerousDeadlineUs;
  double setup_s = 0;
  auto engine = TimedBuilds<cohere::DynamicReducedIndex>(
      [&] { return cohere::DynamicReducedIndex::Build(in.corpus, options); },
      &setup_s);

  const Rows corpus = FromMatrix(in.corpus.features());
  CheckPipeline(engine.pipeline(), corpus, "pipeline", report);
  // Oracle rows: the initial corpus followed by every insert, in order, so
  // the snapshot after i inserts is the first n0 + i rows.
  Rows all = corpus;
  {
    const Rows extra = FromMatrix(in.inserts.features());
    all.v.insert(all.v.end(), extra.v.begin(), extra.v.end());
    all.n += extra.n;
  }
  const Rows reduced = Project(engine.pipeline(), all);
  // Every rebuild must fit the same pipeline: its projection of the first
  // rows must equal the first build's bit for bit.
  const Rows head{16, corpus.d,
                  std::vector<double>(corpus.v.begin(),
                                      corpus.v.begin() + 16 * corpus.d)};
  const std::vector<double> head_reduced = Project(engine.pipeline(), head).v;
  const Rows queries =
      Project(engine.pipeline(), FromMatrix(in.queries.features()));

  QueryLimits limits;
  limits.deadline_us = kGenerousDeadlineUs;
  OpCount& q_op = report->ops["query"];
  OpCount& i_op = report->ops["insert"];
  struct Sampled {
    size_t qid, rows;
    std::vector<Neighbor> answer;
  };
  std::vector<Sampled> answers;
  size_t inserted = 0, next_query = 0;  // inserted: in the current epoch
  Clock::duration paused{};  // rebuild time, left out of the timed phase
  // Query latencies and rounds (an insert and its queries), and insert
  // latencies.
  RunSamples query_samples, insert_samples;
  ShardLayers layers;
  std::vector<double> dist, e2e;
  bool trace_layers = false;

  auto query = [&](const Vector& q, size_t qid, bool self) {
    QueryStats stats;
    const auto t0 = Clock::now();
    std::vector<Neighbor> out =
        engine.Query(q, kK, cohere::KnnIndex::kNoSkip, &stats, limits);
    const auto t1 = Clock::now();
    const double us = Us(t0, t1);
    query_samples.Add(us);
    ++q_op.attempted;
    if (Failed(stats, out)) {
      ++q_op.failed;
      return;
    }
    if (self) {
      if (out[0].index != engine.size() - 1 || out[0].distance != 0.0) {
        report->Fail("insert " + std::to_string(inserted) +
                     ": not its own nearest neighbour at distance 0");
      }
    } else {
      answers.push_back({qid, engine.size(), std::move(out)});
    }
    if (trace_layers) {
      const auto snapshot = engine.serving().snapshot();
      const cohere::SnapshotShard& shard = snapshot->shards[0];
      e2e.push_back(us);
      TimeShardLayers(shard.pipeline, *shard.index, *shard.rows, q, limits,
                      &dist, &layers);
    }
  };
  // Starts the next epoch: the index is built again from the initial
  // corpus, and the time that takes is left out of the timed phase.
  auto restart = [&] {
    const auto t0 = Clock::now();
    auto rebuilt = cohere::DynamicReducedIndex::Build(in.corpus, options);
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   rebuilt.status().ToString().c_str());
      std::exit(2);
    }
    engine = std::move(*rebuilt);
    inserted = 0;
    if (Project(engine.pipeline(), head).v != head_reduced) {
      report->Fail("rebuilt index fitted another pipeline");
    }
    const Clock::duration pause = Clock::now() - t0;
    query_samples.Skip(pause);
    insert_samples.Skip(pause);
    paused += pause;
  };
  // One Insert followed by kQueriesPerInsert queries.
  auto round = [&] {
    if (inserted == kEpochInserts) restart();
    const size_t size_before = engine.size();
    const uint64_t version_before = engine.SnapshotVersion();
    const Vector record = in.inserts.Record(inserted);
    const auto t0 = Clock::now();
    const cohere::Status status =
        engine.Insert(record, in.inserts.label(inserted));
    const auto t1 = Clock::now();
    insert_samples.Add(Us(t0, t1));
    ++i_op.attempted;
    ++inserted;
    if (!status.ok()) {
      ++i_op.failed;
    } else if (engine.size() != size_before + 1 ||
               engine.SnapshotVersion() != version_before + 1) {
      report->Fail("insert " + std::to_string(inserted) +
                   ": size or snapshot version did not advance by one");
    }
    query(record, 0, /*self=*/true);
    for (size_t i = 1; i < kQueriesPerInsert; ++i) {
      query(in.queries.Record(next_query), next_query, false);
      next_query = (next_query + 1) % kDynamicQueries;
    }
    return true;
  };

  // Warm-up (untimed): a few rounds page in the snapshot copy path.
  for (int r = 0; r < 8; ++r) round();
  auto start = [&](double seconds) {
    const auto t0 = Clock::now();
    query_samples.Start(t0, seconds);
    insert_samples.Start(t0, seconds);
  };
  auto insert_details = [&] {
    const RunSamples::Summary s = RunSamples::Summarize(
        {&insert_samples});
    report->Detail("insert_p50_us", s.p50, "us");
    report->Detail("insert_p99_us", s.p99, "us");
  };

  if (!args.trace) {
    start(args.seconds);
    CpuRotation rotation;
    RunRounds(
        args.seconds,
        [&] {
          rotation.Enter(query_samples.WindowAt(Clock::now()));
          const Clock::duration paused_before = paused;
          const auto t0 = Clock::now();
          round();
          // A rebuild at the start of the round is not part of it.
          query_samples.AddStep(
              Us(t0, Clock::now() - (paused - paused_before)),
              1 + kQueriesPerInsert);
          return true;
        },
        &paused);
    RunSamples::Report({&query_samples}, report);
    report->Add("setup_s", setup_s, "s");
    insert_details();
    report->Detail("inserts", static_cast<double>(i_op.attempted), "count");
    report->Detail("rebuild_s", std::chrono::duration<double>(paused).count(),
                   "s");
  } else {
    trace_layers = true;
    start(args.seconds * 0.4);
    RunRounds(args.seconds * 0.4, round, &paused);
    trace_layers = false;
    const double e2e_p50 = Median(e2e);
    report->Add("trace.query_p50_us", e2e_p50, "us");
    AddShardLayers(layers, report);
    report->Add("serving.self_us",
                e2e_p50 - Median(layers.project_us) - Median(layers.index_us),
                "us");
    insert_details();
    report->Add("reduction.reduced_dims",
                static_cast<double>(engine.pipeline().ReducedDims()),
                "count");
    const auto snapshot = engine.serving().snapshot();
    {
      auto t0 = Clock::now();
      auto fit = cohere::ReductionPipeline::Fit(in.corpus, options.reduction);
      report->Add("reduction.fit_s", Us(t0, Clock::now()) * 1e-6, "s");
      if (!fit.ok()) report->Fail("reduction refit failed");
      t0 = Clock::now();
      cohere::LinearScanIndex index(snapshot->shards[0].rows,
                                    snapshot->metric.get());
      report->Add("index.build_s", Us(t0, Clock::now()) * 1e-6, "s");
    }
    AddCopyCost(*snapshot->shards[0].rows, in.corpus.NumAttributes(), report);
    auto one = [&] {
      const Vector q = in.queries.Record(next_query);
      next_query = (next_query + 1) % kDynamicQueries;
      const auto t0 = Clock::now();
      QueryStats stats;
      std::vector<Neighbor> out =
          engine.Query(q, kK, cohere::KnnIndex::kNoSkip, &stats, limits);
      return Us(t0, Clock::now());
    };
    report->Add("obs.overhead_us",
                AlternatingDelta(args.seconds * 0.1, SetMetrics, one), "us");
    const size_t pool = cohere::ParallelThreadCount();
    report->Add("parallel.fanout_us",
                AlternatingDelta(
                    args.seconds * 0.1,
                    [&](bool on) {
                      cohere::SetParallelThreadCount(on ? pool : 1);
                    },
                    one),
                "us");
    MeasureLocalLayersOffPath(in.corpus, in.queries, args.seed,
                              args.seconds * 0.3, report);
  }

  // Every stream answer against brute force over the rows that existed
  // when it was answered.
  FirstAnswers first(kDynamicQueries);
  for (const Sampled& s : answers) {
    const std::string err =
        CheckExactKnn(s.answer, reduced, s.rows, queries.row(s.qid), kK);
    if (!err.empty()) {
      report->Fail("query " + std::to_string(s.qid) + " at " +
                   std::to_string(s.rows) + " rows: " + err);
    }
    if (!first.seen(s.qid)) first.Record(s.qid, s.answer);
  }
  if (!args.trace) {
    // Neighbour ids index the grown corpus: initial rows, then inserts.
    std::vector<int> labels = in.corpus.labels();
    labels.insert(labels.end(), in.inserts.labels().begin(),
                  in.inserts.labels().end());
    report->Add("prediction_accuracy", Accuracy(first, labels, in.queries),
                "fraction");
  }
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "scan_100k|batch_va_100k|serve_local_zipf|insert_mix "
               "--seed N --seconds S --trace 0|1 [--source TEXT]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--source") args.source = value;
    else return Usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0) return Usage();

  Report report;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("machine: %s\n", MachineStamp(args.source).c_str());
  std::fflush(stdout);
  if (args.workload == "scan_100k") {
    RunStatic(args, /*va=*/false, &report);
  } else if (args.workload == "batch_va_100k") {
    RunStatic(args, /*va=*/true, &report);
  } else if (args.workload == "serve_local_zipf") {
    RunLocal(args, &report);
  } else if (args.workload == "insert_mix") {
    RunDynamic(args, &report);
  } else {
    return Usage();
  }
  if (!args.trace) report.Add("peak_rss_mb", PeakRssMb(), "MiB");

  uint64_t attempted = 0, failed = 0;
  for (const auto& [name, op] : report.ops) {
    std::printf("ops: %s attempted=%llu failed=%llu\n", name.c_str(),
                static_cast<unsigned long long>(op.attempted),
                static_cast<unsigned long long>(op.failed));
    attempted += op.attempted;
    failed += op.failed;
  }
  for (const auto& [name, m] : report.details) {
    std::printf("detail: %s = %s %s\n", name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("metric: %s = %s %s\n", name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("MISMATCH: %s\n", e.c_str());
  }
  const bool correct = report.errors.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, m] = report.metrics[i];
    json << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
         << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
