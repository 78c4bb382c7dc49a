#include "core/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/dynamic_engine.h"
#include "core/engine.h"
#include "core/local_engine.h"
#include "core/snapshot.h"
#include "data/synthetic.h"
#include "data/uci_like.h"
#include "obs/metrics.h"

namespace cohere {
namespace {

// ---------------------------------------------------------------------------
// Golden-result hashing. The expected values below were captured by running
// the exact same recipes against the pre-refactor engines (before the
// snapshot/serving-core extraction), so these tests pin the refactor to
// bit-identical single-threaded behavior: every neighbor index and every
// distance bit pattern must match.
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvSeed = 1469598103934665603ULL;

uint64_t Fnv(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashNeighbors(uint64_t h, const std::vector<Neighbor>& neighbors) {
  for (const Neighbor& n : neighbors) {
    const uint64_t index = n.index;
    uint64_t bits;
    std::memcpy(&bits, &n.distance, sizeof(bits));
    h = Fnv(h, &index, sizeof(index));
    h = Fnv(h, &bits, sizeof(bits));
  }
  return h;
}

// Two latent-factor populations with disjoint concept subspaces (the
// Section 3.1 regime the local engine exists for).
Dataset MixedPopulations(uint64_t seed) {
  MultiPopulationConfig config;
  LatentFactorConfig pop;
  pop.num_records = 180;
  pop.num_attributes = 40;
  pop.num_concepts = 6;
  pop.num_classes = 4;
  pop.class_separation = 1.0;
  pop.noise_stddev = 0.4;
  pop.seed = seed;
  config.populations.push_back(pop);
  pop.seed = seed + 100;  // different loadings => different concepts
  config.populations.push_back(pop);
  config.center_separation = 2.0;
  config.seed = seed + 1;
  return GenerateMultiPopulation(config);
}

Dataset DynamicData() {
  LatentFactorConfig config;
  config.num_records = 300;
  config.num_attributes = 30;
  config.num_concepts = 5;
  config.num_classes = 2;
  config.noise_stddev = 0.5;
  config.seed = 701;
  return GenerateLatentFactor(config);
}

DynamicEngineOptions DynamicOptions() {
  DynamicEngineOptions options;
  options.reduction.scaling = PcaScaling::kCorrelation;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 5;
  options.drift_window = 40;
  return options;
}

LocalEngineOptions LocalOptions(size_t probes) {
  LocalEngineOptions options;
  options.num_clusters = 3;
  options.cluster_subspace_dim = 10;
  options.reduction.scaling = PcaScaling::kCorrelation;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 6;
  options.probe_clusters = probes;
  return options;
}

TEST(ServingGoldenTest, StaticEnginesMatchPreRefactorResults) {
  Dataset data = IonosphereLike(152);
  struct Case {
    IndexBackend backend;
    uint64_t expected;
  };
  const Case cases[] = {
      {IndexBackend::kLinearScan, 0x5fc625f230dd3617ULL},
      {IndexBackend::kKdTree, 0x5fc625f230dd3617ULL},
      {IndexBackend::kVaFile, 0x5fc625f230dd3617ULL},
      {IndexBackend::kVpTree, 0x5fc625f230dd3617ULL},
      {IndexBackend::kRStarTree, 0x5fc625f230dd3617ULL},
  };
  for (const Case& c : cases) {
    EngineOptions options;
    options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
    options.reduction.target_dim = 8;
    options.backend = c.backend;
    Result<ReducedSearchEngine> engine =
        ReducedSearchEngine::Build(data, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t h = kFnvSeed;
    for (size_t q = 0; q < 20; ++q) {
      const Vector query = data.Record(q * 17 % data.NumRecords());
      h = HashNeighbors(h, engine->Query(query, 4));
    }
    EXPECT_EQ(h, c.expected) << IndexBackendName(c.backend);
  }
}

TEST(ServingGoldenTest, DynamicEngineMatchesPreRefactorResults) {
  Dataset data = DynamicData();
  auto [fit_part, insert_part] = data.Split(250);
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (size_t i = 0; i < insert_part.NumRecords(); ++i) {
    ASSERT_TRUE(index->Insert(insert_part.Record(i), insert_part.label(i))
                    .ok());
  }
  uint64_t h = kFnvSeed;
  for (size_t q = 0; q < 20; ++q) {
    h = HashNeighbors(h,
                      index->Query(data.Record(q * 13 % data.NumRecords()), 5));
  }
  EXPECT_EQ(h, 0xf57cdcc25ad7f662ULL) << "after inserts";

  ASSERT_TRUE(index->Refit().ok());
  h = kFnvSeed;
  for (size_t q = 0; q < 20; ++q) {
    h = HashNeighbors(h,
                      index->Query(data.Record(q * 13 % data.NumRecords()), 5));
  }
  EXPECT_EQ(h, 0x83284f467ec26586ULL) << "after refit";
}

TEST(ServingGoldenTest, LocalEngineMatchesPreRefactorResults) {
  Dataset data = MixedPopulations(411);
  struct Case {
    size_t probes;
    uint64_t expected;
  };
  const Case cases[] = {
      {1, 0x7612cde2a47eb504ULL},
      {3, 0x3513a7c9bc68e92bULL},
  };
  for (const Case& c : cases) {
    Result<LocalReducedSearchEngine> engine =
        LocalReducedSearchEngine::Build(data, LocalOptions(c.probes));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t h = kFnvSeed;
    for (size_t q = 0; q < 15; ++q) {
      h = HashNeighbors(
          h, engine->Query(data.Record(q * 11 % data.NumRecords()), 5));
    }
    EXPECT_EQ(h, c.expected) << "probes=" << c.probes;
  }
}

// ---------------------------------------------------------------------------
// Batch / limits parity: the pooled fan-out must produce entry-wise exactly
// what the serial overload produces.
// ---------------------------------------------------------------------------

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want, size_t row) {
  ASSERT_EQ(got.size(), want.size()) << "row " << row;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].index, want[j].index) << "row " << row << " slot " << j;
    EXPECT_EQ(got[j].distance, want[j].distance)
        << "row " << row << " slot " << j;
  }
}

Matrix QueryRows(const Dataset& data, size_t n, size_t stride) {
  Matrix queries(n, data.NumAttributes());
  for (size_t i = 0; i < n; ++i) {
    const Vector record = data.Record(i * stride % data.NumRecords());
    for (size_t d = 0; d < data.NumAttributes(); ++d) {
      queries.At(i, d) = record[d];
    }
  }
  return queries;
}

TEST(ServingParityTest, DynamicQueryBatchMatchesSerialQueries) {
  Dataset data = DynamicData();
  auto [fit_part, insert_part] = data.Split(250);
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(index.ok());
  for (size_t i = 0; i < insert_part.NumRecords(); ++i) {
    ASSERT_TRUE(index->Insert(insert_part.Record(i)).ok());
  }

  const Matrix queries = QueryRows(data, 12, 7);
  QueryStats batch_stats;
  const auto batch = index->QueryBatch(queries, 5, &batch_stats);
  ASSERT_EQ(batch.size(), 12u);

  QueryStats serial_stats;
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameNeighbors(batch[i], index->Query(queries.Row(i), 5,
                                               KnnIndex::kNoSkip,
                                               &serial_stats),
                        i);
  }
  EXPECT_EQ(batch_stats.distance_evaluations,
            serial_stats.distance_evaluations);
  EXPECT_FALSE(batch_stats.truncated);
}

TEST(ServingParityTest, LocalQueryBatchMatchesSerialQueries) {
  Dataset data = MixedPopulations(421);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, LocalOptions(2));
  ASSERT_TRUE(engine.ok());

  const Matrix queries = QueryRows(data, 10, 11);
  QueryStats batch_stats;
  const auto batch = engine->QueryBatch(queries, 5, &batch_stats);
  ASSERT_EQ(batch.size(), 10u);

  QueryStats serial_stats;
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameNeighbors(batch[i], engine->Query(queries.Row(i), 5,
                                                KnnIndex::kNoSkip,
                                                &serial_stats),
                        i);
  }
  EXPECT_EQ(batch_stats.distance_evaluations,
            serial_stats.distance_evaluations);
  EXPECT_EQ(batch_stats.nodes_visited, serial_stats.nodes_visited);
  EXPECT_EQ(batch_stats.candidates_refined, serial_stats.candidates_refined);
}

TEST(ServingParityTest, InactiveLimitsMatchPlainQuery) {
  Dataset data = MixedPopulations(422);
  Result<LocalReducedSearchEngine> local =
      LocalReducedSearchEngine::Build(data, LocalOptions(3));
  ASSERT_TRUE(local.ok());
  Result<DynamicReducedIndex> dynamic =
      DynamicReducedIndex::Build(DynamicData(), DynamicOptions());
  ASSERT_TRUE(dynamic.ok());

  const QueryLimits inactive;
  ASSERT_FALSE(inactive.active());
  for (size_t q = 0; q < 6; ++q) {
    const Vector local_query = data.Record(q * 29 % data.NumRecords());
    ExpectSameNeighbors(
        local->Query(local_query, 4, KnnIndex::kNoSkip, nullptr, inactive),
        local->Query(local_query, 4), q);
  }
  Dataset dyn_data = DynamicData();
  for (size_t q = 0; q < 6; ++q) {
    const Vector query = dyn_data.Record(q * 31 % dyn_data.NumRecords());
    ExpectSameNeighbors(
        dynamic->Query(query, 4, KnnIndex::kNoSkip, nullptr, inactive),
        dynamic->Query(query, 4), q);
  }
}

TEST(ServingParityTest, CancelledLimitsTruncateEveryEngine) {
  Dataset data = MixedPopulations(423);
  Result<LocalReducedSearchEngine> local =
      LocalReducedSearchEngine::Build(data, LocalOptions(3));
  ASSERT_TRUE(local.ok());
  Dataset dyn_data = DynamicData();
  Result<DynamicReducedIndex> dynamic =
      DynamicReducedIndex::Build(dyn_data, DynamicOptions());
  ASSERT_TRUE(dynamic.ok());

  CancelToken cancel;
  cancel.Cancel();
  QueryLimits limits;
  limits.cancel = &cancel;

  QueryStats stats;
  (void)dynamic->Query(dyn_data.Record(0), 3, KnnIndex::kNoSkip, &stats,
                       limits);
  EXPECT_TRUE(stats.truncated);

  stats = QueryStats();
  (void)local->Query(data.Record(0), 3, KnnIndex::kNoSkip, &stats, limits);
  EXPECT_TRUE(stats.truncated);
  // The routing decision per probed shard is still accounted.
  EXPECT_EQ(stats.nodes_visited, 3u);

  stats = QueryStats();
  (void)dynamic->QueryBatch(QueryRows(dyn_data, 4, 5), 3, &stats, limits);
  EXPECT_TRUE(stats.truncated);
}

// ---------------------------------------------------------------------------
// Unified work accounting (the former LocalReducedSearchEngine::Query
// double-counting bug): one nodes_visited per probed shard, index counters
// passed through untouched, one candidates_refined per merged candidate
// scored in the full-space re-rank.
// ---------------------------------------------------------------------------

TEST(ServingAccountingTest, SingleProbeCountsIndexWorkPlusRouting) {
  Dataset data = MixedPopulations(431);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, LocalOptions(1));
  ASSERT_TRUE(engine.ok());

  QueryStats stats;
  const auto neighbors = engine->Query(data.Record(42), 5, KnnIndex::kNoSkip,
                                       &stats);
  ASSERT_FALSE(neighbors.empty());
  // One routing decision; the probed locality's linear scan evaluates each
  // of its members exactly once; nothing is re-ranked with a single probe.
  EXPECT_EQ(stats.nodes_visited, 1u);
  const size_t probed = engine->assignment()[neighbors[0].index];
  EXPECT_EQ(stats.distance_evaluations,
            engine->ClusterMembers(probed).size());
  EXPECT_EQ(stats.candidates_refined, 0u);
}

TEST(ServingAccountingTest, MultiProbeAddsOneRefinementPerMergedCandidate) {
  Dataset data = MixedPopulations(432);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, LocalOptions(3));
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->NumClusters(), 3u);

  const size_t k = 5;
  size_t expected_candidates = 0;
  for (size_t c = 0; c < engine->NumClusters(); ++c) {
    expected_candidates += std::min(k, engine->ClusterMembers(c).size());
  }

  QueryStats stats;
  (void)engine->Query(data.Record(17), k, KnnIndex::kNoSkip, &stats);
  // All three localities probed: every record scanned exactly once, one
  // node per routing decision, one refinement per merged re-rank candidate.
  EXPECT_EQ(stats.nodes_visited, 3u);
  EXPECT_EQ(stats.distance_evaluations, data.NumRecords());
  EXPECT_EQ(stats.candidates_refined, expected_candidates);
}

// ---------------------------------------------------------------------------
// Snapshot lifecycle: versions, publish counters, old snapshots staying
// valid for readers that still hold them.
// ---------------------------------------------------------------------------

TEST(ServingSnapshotTest, DynamicPublishesAdvanceVersion) {
  Dataset data = DynamicData();
  auto [fit_part, rest] = data.Split(250);
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->SnapshotVersion(), 1u);

  ASSERT_TRUE(index->Insert(rest.Record(0)).ok());
  EXPECT_EQ(index->SnapshotVersion(), 2u);
  ASSERT_TRUE(index->Insert(rest.Record(1)).ok());
  EXPECT_EQ(index->SnapshotVersion(), 3u);
  ASSERT_TRUE(index->Refit().ok());
  EXPECT_EQ(index->SnapshotVersion(), 4u);
  EXPECT_EQ(index->serving().snapshot()->version, 4u);
}

TEST(ServingSnapshotTest, ConsecutiveInsertsShareRowStorage) {
  Dataset data = DynamicData();
  auto [fit_part, rest] = data.Split(250);
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(index.ok());
  // The first insert grows the exact-fit stores Build made; the next one
  // has room and appends in place.
  ASSERT_TRUE(index->Insert(rest.Record(0), 1).ok());
  const std::shared_ptr<const DynamicSnapshot> first = index->snapshot();
  const Vector first_last_row = first->shards[0].rows->Row(250);
  ASSERT_TRUE(index->Insert(rest.Record(1), 0).ok());
  const std::shared_ptr<const DynamicSnapshot> second = index->snapshot();

  EXPECT_EQ(second->shards[0].rows->RowPtr(0),
            first->shards[0].rows->RowPtr(0));
  EXPECT_EQ(second->originals.RowPtr(0), first->originals.RowPtr(0));
  EXPECT_EQ(second->labels, first->labels);
  // The older snapshot still views exactly its own rows.
  EXPECT_EQ(first->size(), 251u);
  EXPECT_EQ(second->size(), 252u);
  EXPECT_EQ(first->shards[0].rows->Row(250), first_last_row);
  EXPECT_EQ(*first->labels->RowPtr(250), 1);
  EXPECT_EQ(*second->labels->RowPtr(251), 0);
  EXPECT_EQ(second->originals.Row(251), rest.Record(1));
}

TEST(ServingSnapshotTest, LocalRebuildPublishesWhileOldSnapshotStaysValid) {
  Dataset data = MixedPopulations(441);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, LocalOptions(1));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->SnapshotVersion(), 1u);

  // A reader that acquired the snapshot before the rebuild keeps a complete,
  // untouched copy alive after the publish.
  const std::shared_ptr<const EngineSnapshot> held =
      engine->serving().snapshot();
  ASSERT_TRUE(engine->Rebuild(data).ok());
  EXPECT_EQ(engine->SnapshotVersion(), 2u);
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->shards.size(), 3u);
  for (const SnapshotShard& shard : held->shards) {
    EXPECT_FALSE(shard.members.empty());
    EXPECT_NE(shard.index, nullptr);
  }
  // The rebuilt engine still answers.
  EXPECT_EQ(engine->Query(data.Record(3), 4).size(), 4u);
}

TEST(ServingSnapshotTest, PublishCountersTrackReplacements) {
  if (!obs::MetricsRegistry::Enabled()) {
    GTEST_SKIP() << "metrics disabled";
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t publishes_before =
      registry.GetCounter("core.snapshot.publishes")->Value();
  const uint64_t retired_before =
      registry.GetCounter("core.snapshot.retired")->Value();

  Dataset data = DynamicData();
  auto [fit_part, rest] = data.Split(250);
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Insert(rest.Record(0)).ok());
  ASSERT_TRUE(index->Insert(rest.Record(1)).ok());

  // Build + two COW inserts: three publishes, of which the two replacements
  // each retired a predecessor.
  EXPECT_EQ(registry.GetCounter("core.snapshot.publishes")->Value() -
                publishes_before,
            3u);
  EXPECT_EQ(registry.GetCounter("core.snapshot.retired")->Value() -
                retired_before,
            2u);
  EXPECT_EQ(registry.GetGauge("core.snapshot.version")->Value(), 3.0);
}

// ---------------------------------------------------------------------------
// Publish fault point: a failed replacement publish must leave the previous
// snapshot serving, unchanged.
// ---------------------------------------------------------------------------

class ServingFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    fault::ResetCounters();
  }
  void TearDown() override {
    fault::DisarmAll();
    fault::ResetCounters();
  }
};

TEST_F(ServingFaultTest, FailedInsertPublishKeepsOldSnapshotServing) {
  Dataset data = DynamicData();
  auto [fit_part, rest] = data.Split(250);
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(index.ok());
  const uint64_t before_hash =
      HashNeighbors(kFnvSeed, index->Query(data.Record(5), 5));

  fault::Arm(fault::kPointSnapshotPublish, 1.0);
  const Status failed = index->Insert(rest.Record(0));
  EXPECT_FALSE(failed.ok()) << failed.ToString();
  EXPECT_EQ(index->size(), 250u);
  EXPECT_EQ(index->SnapshotVersion(), 1u);
  EXPECT_EQ(HashNeighbors(kFnvSeed, index->Query(data.Record(5), 5)),
            before_hash);

  fault::DisarmAll();
  ASSERT_TRUE(index->Insert(rest.Record(0)).ok());
  EXPECT_EQ(index->size(), 251u);
  EXPECT_EQ(index->SnapshotVersion(), 2u);
}

TEST_F(ServingFaultTest, FailedRefitPublishBacksOffAndKeepsServing) {
  Dataset data = DynamicData();
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(data, DynamicOptions());
  ASSERT_TRUE(index.ok());

  fault::Arm(fault::kPointSnapshotPublish, 1.0);
  EXPECT_FALSE(index->Refit().ok());
  EXPECT_EQ(index->SnapshotVersion(), 1u);
  EXPECT_GT(index->RefitBackoffRemaining(), 0u);
  EXPECT_EQ(index->Query(data.Record(2), 3).size(), 3u);

  fault::DisarmAll();
  ASSERT_TRUE(index->Refit().ok());
  EXPECT_EQ(index->SnapshotVersion(), 2u);
  EXPECT_EQ(index->RefitBackoffRemaining(), 0u);
}

TEST_F(ServingFaultTest, FailedRebuildPublishKeepsLocalEngineServing) {
  Dataset data = MixedPopulations(451);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, LocalOptions(2));
  ASSERT_TRUE(engine.ok());
  const uint64_t before_hash =
      HashNeighbors(kFnvSeed, engine->Query(data.Record(9), 5));

  fault::Arm(fault::kPointSnapshotPublish, 1.0);
  EXPECT_FALSE(engine->Rebuild(data).ok());
  EXPECT_EQ(engine->SnapshotVersion(), 1u);
  EXPECT_EQ(HashNeighbors(kFnvSeed, engine->Query(data.Record(9), 5)),
            before_hash);

  fault::DisarmAll();
  ASSERT_TRUE(engine->Rebuild(data).ok());
  EXPECT_EQ(engine->SnapshotVersion(), 2u);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (run under TSAN by scripts/tier1.sh): lock-free readers
// racing COW inserts/refits and local rebuilds. Readers must always see a
// complete snapshot — full result sets, in-range indices, sorted finite
// distances — regardless of interleaving.
// ---------------------------------------------------------------------------

void ExpectWellFormed(const std::vector<Neighbor>& neighbors, size_t k,
                      size_t max_records) {
  ASSERT_EQ(neighbors.size(), k);
  double previous = -1.0;
  for (const Neighbor& n : neighbors) {
    EXPECT_LT(n.index, max_records);
    EXPECT_TRUE(std::isfinite(n.distance));
    EXPECT_GE(n.distance, previous);
    previous = n.distance;
  }
}

TEST(ServingConcurrencyTest, QueriesRaceInsertsAndRefits) {
  Dataset data = DynamicData();
  auto [fit_part, insert_part] = data.Split(250);
  Result<DynamicReducedIndex> built =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(built.ok());
  DynamicReducedIndex& index = *built;

  std::atomic<bool> done{false};
  const size_t k = 5;
  auto reader = [&](size_t thread_seed) {
    const Matrix batch_queries = QueryRows(data, 4, thread_seed + 3);
    size_t i = 0;
    // Keep reading at least a few rounds after the writer finishes so the
    // final snapshot is exercised too.
    while (!done.load(std::memory_order_acquire) || i < 40) {
      const Vector query =
          data.Record((i * 13 + thread_seed) % data.NumRecords());
      QueryStats stats;
      ExpectWellFormed(index.Query(query, k, KnnIndex::kNoSkip, &stats), k,
                       data.NumRecords());
      EXPECT_FALSE(stats.truncated);
      if (i % 8 == 0) {
        for (const auto& row : index.QueryBatch(batch_queries, k)) {
          ExpectWellFormed(row, k, data.NumRecords());
        }
      }
      ++i;
    }
  };

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) readers.emplace_back(reader, t + 1);

  size_t refits = 0;
  for (size_t i = 0; i < insert_part.NumRecords(); ++i) {
    ASSERT_TRUE(index.Insert(insert_part.Record(i)).ok());
    if ((i + 1) % 20 == 0) {
      ASSERT_TRUE(index.Refit().ok());
      ++refits;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(index.size(), data.NumRecords());
  EXPECT_EQ(index.SnapshotVersion(), 1u + insert_part.NumRecords() + refits);
}

// What a reader copied out of a pinned dynamic snapshot at pin time.
struct PinnedCopy {
  std::shared_ptr<const DynamicSnapshot> snapshot;
  std::vector<double> rows;
  std::vector<double> originals;
  std::vector<int> labels;
};

PinnedCopy Pin(const DynamicReducedIndex& index) {
  PinnedCopy pin;
  pin.snapshot = index.snapshot();
  const DynamicSnapshot& snap = *pin.snapshot;
  const BlockedMatrix& rows = *snap.shards[0].rows;
  pin.rows.assign(rows.data(), rows.data() + rows.rows() * rows.cols());
  pin.originals.assign(
      snap.originals.data(),
      snap.originals.data() + snap.originals.rows() * snap.originals.cols());
  pin.labels.assign(snap.labels->RowPtr(0),
                    snap.labels->RowPtr(0) + snap.size());
  return pin;
}

// The pinned snapshot still holds the bytes read at pin time, and its index
// answers `query` exactly as a brute-force scan over those rows does,
// including the index order of ties.
void ExpectPinnedIntact(const PinnedCopy& pin, const Vector& query,
                        size_t k) {
  const DynamicSnapshot& snap = *pin.snapshot;
  const BlockedMatrix& rows = *snap.shards[0].rows;
  const size_t n = snap.size();
  ASSERT_EQ(rows.rows(), n);
  ASSERT_EQ(snap.originals.rows(), n);
  ASSERT_EQ(pin.labels.size(), n);
  EXPECT_EQ(std::memcmp(rows.data(), pin.rows.data(),
                        pin.rows.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(snap.originals.data(), pin.originals.data(),
                        pin.originals.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(snap.labels->RowPtr(0), pin.labels.data(),
                        n * sizeof(int)),
            0);

  const Vector reduced = snap.shards[0].pipeline.TransformPoint(query);
  const size_t d = rows.cols();
  std::vector<std::pair<double, size_t>> brute;
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double t = reduced[j] - pin.rows[i * d + j];
      sum += t * t;
    }
    brute.emplace_back(sum, i);
  }
  std::sort(brute.begin(), brute.end());
  const std::vector<Neighbor> answer = snap.shards[0].index->Query(reduced, k);
  ASSERT_EQ(answer.size(), std::min(k, n));
  for (size_t r = 0; r < answer.size(); ++r) {
    EXPECT_EQ(answer[r].index, brute[r].second) << "rank " << r;
    EXPECT_EQ(answer[r].distance,
              snap.metric->ComparableToActual(brute[r].first))
        << "rank " << r;
  }
}

TEST(ServingConcurrencyTest, PinnedSnapshotsSurviveGrowthAndRefit) {
  Dataset data = DynamicData();
  // 40 fitted rows and 260 inserts: the shared stores grow 40 -> 80 ->
  // 160 -> 320 rows, and the refit after insert 100 starts a fresh reduced
  // store that grows again, while the originals and labels keep theirs.
  auto [fit_part, insert_part] = data.Split(40);
  Result<DynamicReducedIndex> built =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(built.ok());
  DynamicReducedIndex& index = *built;

  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  const size_t k = 5;
  auto reader = [&](size_t thread_seed) {
    std::deque<PinnedCopy> held;
    size_t i = 0;
    while (!done.load(std::memory_order_acquire) || i < 20) {
      held.push_back(Pin(index));
      if (held.size() > 6) held.pop_front();
      const Vector query =
          data.Record((i * 11 + thread_seed) % data.NumRecords());
      for (const PinnedCopy& pin : held) ExpectPinnedIntact(pin, query, k);
      if (i++ == 0) started.fetch_add(1, std::memory_order_release);
    }
  };
  const std::shared_ptr<const DynamicSnapshot> first = index.snapshot();
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) readers.emplace_back(reader, t + 1);
  while (started.load(std::memory_order_acquire) < readers.size()) {
    std::this_thread::yield();
  }

  for (size_t i = 0; i < insert_part.NumRecords(); ++i) {
    ASSERT_TRUE(
        index.Insert(insert_part.Record(i), static_cast<int>(i % 3)).ok());
    if (i + 1 == 100) {
      ASSERT_TRUE(index.Refit().ok());
    }
    std::this_thread::yield();  // let the readers pin many versions
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  const std::shared_ptr<const DynamicSnapshot> last = index.snapshot();
  EXPECT_EQ(last->size(), data.NumRecords());
  EXPECT_NE(last->originals.RowPtr(0), first->originals.RowPtr(0));
  EXPECT_EQ(index.label(data.NumRecords() - 1), 259 % 3);
  // The very first snapshot, pinned through every growth, is untouched.
  ASSERT_EQ(first->size(), 40u);
  EXPECT_EQ(first->originals.Row(39), fit_part.Record(39));
}

TEST(ServingConcurrencyTest, QueriesRaceLocalRebuilds) {
  Dataset data = MixedPopulations(461);
  Result<LocalReducedSearchEngine> built =
      LocalReducedSearchEngine::Build(data, LocalOptions(2));
  ASSERT_TRUE(built.ok());
  LocalReducedSearchEngine& engine = *built;

  std::atomic<bool> done{false};
  const size_t k = 4;
  auto reader = [&](size_t thread_seed) {
    const Matrix batch_queries = QueryRows(data, 3, thread_seed + 5);
    size_t i = 0;
    while (!done.load(std::memory_order_acquire) || i < 30) {
      const Vector query =
          data.Record((i * 7 + thread_seed) % data.NumRecords());
      ExpectWellFormed(engine.Query(query, k), k, data.NumRecords());
      if (i % 6 == 0) {
        for (const auto& row : engine.QueryBatch(batch_queries, k)) {
          ExpectWellFormed(row, k, data.NumRecords());
        }
      }
      ++i;
    }
  };

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) readers.emplace_back(reader, t + 1);

  const size_t rebuilds = 5;
  for (size_t r = 0; r < rebuilds; ++r) {
    ASSERT_TRUE(engine.Rebuild(data).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(engine.SnapshotVersion(), 1u + rebuilds);
  EXPECT_EQ(engine.NumClusters(), 3u);
}

// ---------------------------------------------------------------------------
// Cancellation racing the batch fan-out (run under TSAN by scripts/tier1.sh):
// a CancelToken flipped concurrently with a batch must stop every lane
// promptly, return only well-formed partial rows, and merge the truncation
// flag into the batch-wide stats.
// ---------------------------------------------------------------------------

// A (possibly partial) result: bounded by k, sorted finite distances,
// in-range indices. Unlike ExpectWellFormed, the size may be short — a
// cancelled lane legitimately returns fewer (or zero) neighbors.
void ExpectWellFormedPrefix(const std::vector<Neighbor>& neighbors, size_t k,
                            size_t max_records) {
  ASSERT_LE(neighbors.size(), k);
  double previous = -1.0;
  for (const Neighbor& n : neighbors) {
    EXPECT_LT(n.index, max_records);
    EXPECT_TRUE(std::isfinite(n.distance));
    EXPECT_GE(n.distance, previous);
    previous = n.distance;
  }
}

TEST(ServingCancelRaceTest, PreCancelledBatchTruncatesEveryLaneWithinWindow) {
  Dataset data = MixedPopulations(471);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, LocalOptions(3));
  ASSERT_TRUE(engine.ok());

  CancelToken cancel;
  cancel.Cancel();
  QueryLimits limits;
  limits.cancel = &cancel;
  QueryStats stats;
  const size_t rows = 16;
  const size_t k = 4;
  const auto batch =
      engine->QueryBatch(QueryRows(data, rows, 7), k, &stats, limits);
  ASSERT_EQ(batch.size(), rows);
  EXPECT_TRUE(stats.truncated);
  // Each lane consults the token at its first control check and then every
  // kCheckInterval evaluations, so no probed shard may run more than one
  // check window past the cancellation.
  EXPECT_LE(stats.distance_evaluations,
            rows * engine->NumClusters() * QueryControl::kCheckInterval);
  for (const auto& row : batch) {
    ExpectWellFormedPrefix(row, k, data.NumRecords());
  }
}

TEST(ServingCancelRaceTest, ConcurrentCancelRacesBatchFanOutLanes) {
  Dataset data = MixedPopulations(472);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, LocalOptions(3));
  ASSERT_TRUE(engine.ok());
  const size_t k = 4;
  const Matrix queries = QueryRows(data, 24, 5);

  for (size_t round = 0; round < 6; ++round) {
    CancelToken cancel;
    QueryLimits limits;
    limits.cancel = &cancel;
    QueryStats stats;
    // The cancel lands at an arbitrary point inside the fan-out; every
    // interleaving must terminate with well-formed (possibly short) rows.
    std::thread canceller([&] { cancel.Cancel(); });
    const auto batch = engine->QueryBatch(queries, k, &stats, limits);
    canceller.join();
    ASSERT_EQ(batch.size(), 24u);
    for (const auto& row : batch) {
      ExpectWellFormedPrefix(row, k, data.NumRecords());
    }
    // Once the token is settled cancelled, a fresh batch on it observes the
    // cancellation in every lane and reports it batch-wide exactly once.
    QueryStats after;
    const auto cancelled_batch =
        engine->QueryBatch(queries, k, &after, limits);
    ASSERT_EQ(cancelled_batch.size(), 24u);
    EXPECT_TRUE(after.truncated);
    EXPECT_LE(after.distance_evaluations,
              24u * engine->NumClusters() * QueryControl::kCheckInterval);
  }
}

}  // namespace
}  // namespace cohere
