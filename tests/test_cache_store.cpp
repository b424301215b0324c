// The persistent cost-cache store (CostMatrixCache::save/load,
// docs/persistence.md).  Three layers of guarantees:
//
//   1. format: save -> load -> save reproduces the file byte for byte
//      (deterministic key-sorted serialization, bit-exact doubles),
//      loading is forgiving (wrong version / missing file / unknown
//      record kinds start cold or skip — never throw), and the hit/miss
//      telemetry is untouched by persistence;
//   2. the end-to-end oracle: a sweep with a cache reloaded from disk is
//      bit-identical to the uncached and the cold-cached sweep, across
//      mapping strategies and thread counts, and the reloaded cache
//      actually serves (hit rate >= 90% — the acceptance bar);
//   3. mutation fuzz (the test_json_fuzz.cpp treatment for the binary
//      format): random truncations and byte flips — multiple faults per
//      round — must load without crashing, keep only byte-identical
//      entries, and preserve the maximal valid prefix.
#include "core/mapper.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "util/binio.h"
#include "util/rng.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

/// Synthetic entry with every serialized field populated, deterministic
/// in `i` — non-trivial doubles included so byte-exactness is meaningful.
CostMatrix::Entry make_entry(size_t i) {
  CostMatrix::Entry entry;
  entry.feasible = true;
  auto& report = entry.report;
  report.layer_name = "fc" + std::to_string(i);
  report.subarch_name = "subarch";
  report.subarch_index = i % 2;
  report.dataflow.tiling.n_tile = 4;
  report.dataflow.tiling.m_blocks = static_cast<int64_t>(i) + 1;
  report.dataflow.compute_cycles = 100 + static_cast<int64_t>(i);
  report.dataflow.total_cycles = 250 + static_cast<int64_t>(i);
  report.dataflow.runtime_ns = 0.1 + static_cast<double>(i) / 3.0;
  report.dataflow.adc_rate_GHz = 5.0;
  report.dataflow.utilization = 1.0 / static_cast<double>(i + 2);
  report.link.critical_path_loss_dB = 4.5;
  report.link.critical_path = {"laser", "ptc", "pd"};
  report.link.input_bits = 8;
  report.traffic.hbm_bytes = 1024.0 * static_cast<double>(i + 1);
  report.traffic.energy_pJ = {{"HBM", 7.0 / 9.0}};
  report.energy.add("MAC", 10.0 + static_cast<double>(i) / 7.0);
  report.macs = 12345.0;
  return entry;
}

// (CostMatrixCache owns a mutex, so it is filled in place, not returned.)
void fill_synthetic(CostMatrixCache& cache, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    // Keys inserted in descending order: the save must sort them.
    (void)cache.insert({0xABCD0000 + (n - i), 0x1234 + (n - i)},
                       make_entry(n - i));
  }
}

std::string save_bytes(const CostMatrixCache& cache) {
  std::string bytes;
  util::MemoryOutputStream out(bytes);
  cache.save_to(out);
  return bytes;
}

CostMatrixCache::LoadReport load_bytes(CostMatrixCache& cache,
                                       const std::string& bytes) {
  util::MemoryInputStream in(bytes);
  return cache.load_from(in);
}

/// kEntry payload bytes of a saved image — the bit-identity oracle (the
/// meta record carries the entry count, which legitimately shrinks on a
/// partial recovery, so it is excluded).
std::set<std::string> entry_payloads(const std::string& bytes) {
  util::RecordReader reader(bytes);
  EXPECT_TRUE(reader.header_ok(CostMatrixCache::kFileMagic));
  std::set<std::string> payloads;
  std::string_view payload;
  while (reader.next(&payload) == util::RecordStatus::kOk) {
    util::ByteReader body(payload);
    if (body.read_varint() == 1) payloads.emplace(payload);
  }
  return payloads;
}

// ------------------------------------------------------ format properties

TEST(CacheStore, SaveLoadSaveIsByteIdentical) {
  CostMatrixCache original;
  fill_synthetic(original, 5);
  const std::string first = save_bytes(original);

  CostMatrixCache reloaded;
  const auto report = load_bytes(reloaded, first);
  EXPECT_TRUE(report.found);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, 5u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_TRUE(report.message.empty());
  EXPECT_EQ(reloaded.size(), 5u);

  // Deterministic bytes: the reloaded cache re-serializes identically.
  EXPECT_EQ(save_bytes(reloaded), first);

  // Every entry is retrievable and bit-identical (runtime_ns carries a
  // non-representable fraction, so == is a real bit check).
  for (size_t i = 1; i <= 5; ++i) {
    const auto entry = reloaded.find({0xABCD0000 + i, 0x1234 + i});
    ASSERT_NE(entry, nullptr) << i;
    EXPECT_EQ(entry->report.dataflow.runtime_ns,
              0.1 + static_cast<double>(i) / 3.0);
    EXPECT_EQ(entry->report.layer_name, "fc" + std::to_string(i));
  }
}

TEST(CacheStore, PersistenceNeverTouchesTheHitMissTelemetry) {
  CostMatrixCache cache;
  fill_synthetic(cache, 3);
  (void)cache.find({1, 1});  // one miss
  const std::string bytes = save_bytes(cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  CostMatrixCache reloaded;
  (void)load_bytes(reloaded, bytes);
  EXPECT_EQ(reloaded.stats().hits, 0u);
  EXPECT_EQ(reloaded.stats().misses, 0u);  // load is not a probe
}

TEST(CacheStore, LoadMergesFirstWriterWins) {
  // Pre-existing entries survive a load that carries the same keys.
  CostMatrixCache cache;
  CostMatrix::Entry mine = make_entry(0);
  mine.report.layer_name = "already_here";
  (void)cache.insert({0xABCD0001, 0x1235}, std::move(mine));

  CostMatrixCache incoming;
  fill_synthetic(incoming, 3);
  (void)load_bytes(cache, save_bytes(incoming));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.find({0xABCD0001, 0x1235})->report.layer_name,
            "already_here");
}

TEST(CacheStore, WrongMagicOrVersionStartsColdWithAWarning) {
  // A future format version: same magic, version bumped.
  std::string future;
  util::MemoryOutputStream out(future);
  util::RecordWriter writer(out, CostMatrixCache::kFileMagic,
                            CostMatrixCache::kFileVersion + 1);
  writer.write_record("whatever");

  CostMatrixCache cache;
  auto report = load_bytes(cache, future);
  EXPECT_TRUE(report.found);
  EXPECT_TRUE(report.version_mismatch);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_NE(report.message.find("SPCC"), std::string::npos);
  EXPECT_EQ(cache.size(), 0u);

  // A different store's file entirely.
  std::string alien;
  util::MemoryOutputStream alien_out(alien);
  util::RecordWriter alien_writer(alien_out, 0x464C4553u, 1);
  alien_writer.write_record("not ours");
  report = load_bytes(cache, alien);
  EXPECT_TRUE(report.version_mismatch);
  EXPECT_EQ(cache.size(), 0u);
}

/// `bytes` (a saved image) re-framed under format version `version`.
std::string restamped(const std::string& bytes, uint32_t version) {
  std::string out;
  util::MemoryOutputStream stream(out);
  util::RecordWriter writer(stream, CostMatrixCache::kFileMagic, version);
  util::RecordReader reader(bytes);
  EXPECT_TRUE(reader.header_ok(CostMatrixCache::kFileMagic));
  std::string_view payload;
  while (reader.next(&payload) == util::RecordStatus::kOk) {
    writer.write_record(payload);
  }
  return out;
}

// Version 2 keys built-in models' GEMMs by weight recipe, so a version-1
// image's entries sit under keys no lookup produces any more: it must
// load cold (with the warning), and the next save writes version 2.
TEST(CacheStore, VersionOneImageLoadsColdAndIsResavedAsVersionTwo) {
  ASSERT_EQ(CostMatrixCache::kFileVersion, 2u);
  CostMatrixCache original;
  fill_synthetic(original, 3);
  const std::string v1 = restamped(save_bytes(original), 1);
  ASSERT_EQ(util::RecordReader(v1).version(), 1u);

  CostMatrixCache cache;
  const auto report = load_bytes(cache, v1);
  EXPECT_TRUE(report.found);
  EXPECT_TRUE(report.version_mismatch);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_NE(report.message.find("SPCC v2"), std::string::npos)
      << report.message;
  EXPECT_EQ(cache.size(), 0u);

  fill_synthetic(cache, 3);
  const std::string resaved = save_bytes(cache);
  util::RecordReader reader(resaved);
  EXPECT_TRUE(reader.header_ok(CostMatrixCache::kFileMagic));
  EXPECT_EQ(reader.version(), 2u);
  EXPECT_EQ(entry_payloads(resaved), entry_payloads(save_bytes(original)));
}

TEST(CacheStore, UnknownRecordKindsAreSkippedForForwardCompat) {
  CostMatrixCache original;
  fill_synthetic(original, 2);
  const std::string bytes = save_bytes(original);

  // Re-frame the stream with an extra record of a kind this version has
  // never heard of, spliced between the existing records.
  std::string extended;
  util::MemoryOutputStream out(extended);
  util::RecordWriter writer(out, CostMatrixCache::kFileMagic,
                            CostMatrixCache::kFileVersion);
  util::RecordReader reader(bytes);
  ASSERT_TRUE(reader.header_ok(CostMatrixCache::kFileMagic));
  std::string_view payload;
  while (reader.next(&payload) == util::RecordStatus::kOk) {
    writer.write_record(payload);
    std::string unknown;
    util::append_varint(unknown, 99);  // future record kind
    unknown += "opaque bytes a v1 reader cannot know";
    writer.write_record(unknown);
  }

  CostMatrixCache reloaded;
  const auto report = load_bytes(reloaded, extended);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(entry_payloads(save_bytes(reloaded)), entry_payloads(bytes));
}

TEST(CacheStore, MissingFileIsAColdStartNotAnError) {
  CostMatrixCache cache;
  const auto report =
      cache.load(::testing::TempDir() + "no_such_cache.spcc");
  EXPECT_FALSE(report.found);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_TRUE(report.clean());
}

TEST(CacheStore, FileSaveIsAtomicAndRoundTrips) {
  const std::string path = ::testing::TempDir() + "cache_store.spcc";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  CostMatrixCache original;
  fill_synthetic(original, 4);
  original.save(path);
  // Committed: no temp file left behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  CostMatrixCache reloaded;
  const auto report = reloaded.load(path);
  EXPECT_TRUE(report.found);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, 4u);
  EXPECT_EQ(save_bytes(reloaded), save_bytes(original));
  std::remove(path.c_str());
}

// ----------------------------------- the cached-vs-reloaded sweep oracle

void expect_bit_identical(const DseResult& a, const DseResult& b,
                          const std::string& context) {
  ASSERT_EQ(a.points.size(), b.points.size()) << context;
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].index, b.points[i].index) << context << " i=" << i;
    EXPECT_EQ(a.points[i].params, b.points[i].params) << context;
    EXPECT_EQ(a.points[i].energy_pJ, b.points[i].energy_pJ)
        << context << " i=" << i;
    EXPECT_EQ(a.points[i].latency_ns, b.points[i].latency_ns)
        << context << " i=" << i;
    EXPECT_EQ(a.points[i].area_mm2, b.points[i].area_mm2)
        << context << " i=" << i;
    EXPECT_EQ(a.points[i].pareto, b.points[i].pareto) << context << " i=" << i;
  }
  EXPECT_EQ(to_json(a).dump(), to_json(b).dump()) << context;
}

// The acceptance oracle: for every mapping strategy and thread count,
// uncached == cold-cached == reloaded-from-disk-cached, bit for bit —
// and the reloaded cache hits at >= 90% (it should hit at 100%: every
// feasible pair of the sweep was persisted).
TEST(CacheStore, ReloadedSweepBitIdenticalAcrossMappersAndThreadCounts) {
  const std::vector<arch::PtcTemplate> templates = {
      arch::scatter_template(), arch::clements_mzi_template()};
  const workload::Model model = workload::mlp_mnist();
  DseSpace space;
  space.tiles = {1, 2};
  space.wavelengths = {1, 2};

  const GreedyMapper greedy;
  const BeamMapper beam(4);
  const BranchBoundMapper bnb;
  const std::vector<const Mapper*> mappers = {&greedy, &beam, &bnb};

  for (const Mapper* mapper : mappers) {
    DseOptions base;
    base.mapper = mapper;
    base.num_threads = 1;
    const DseResult uncached =
        explore(templates, g_lib, model, space, base);

    // One cold cached sweep produces the persistent image.
    CostMatrixCache cold_cache;
    DseOptions cold_options = base;
    cold_options.cost_cache = &cold_cache;
    const DseResult cold =
        explore(templates, g_lib, model, space, cold_options);
    expect_bit_identical(cold, uncached, mapper->name() + " (cold)");
    const std::string image = save_bytes(cold_cache);

    for (int threads : {1, 2, 0}) {
      CostMatrixCache reloaded;
      const auto report = load_bytes(reloaded, image);
      ASSERT_TRUE(report.clean());
      ASSERT_GT(report.loaded, 0u);

      DseOptions warm_options = base;
      warm_options.num_threads = threads;
      warm_options.cost_cache = &reloaded;
      const std::string context =
          mapper->name() + " threads=" + std::to_string(threads);
      const DseResult warm =
          explore(templates, g_lib, model, space, warm_options);
      expect_bit_identical(warm, uncached, context + " (reloaded)");

      const CostMatrixCache::Stats stats = reloaded.stats();
      EXPECT_GT(stats.hits, 0u) << context;
      EXPECT_GE(stats.hit_rate(), 0.9) << context;
    }
  }
}

// Reloading must also round-trip through the Simulator itself (the
// non-sweep --cache-file path): a fresh Simulator over a reloaded cache
// reproduces the original report without re-simulating anything.
TEST(CacheStore, SimulatorOverReloadedCacheReproducesTheReport) {
  auto make_system = [] {
    arch::ArchParams params;
    arch::Architecture system("hetero");
    system.add_subarch(
        arch::SubArchitecture(arch::scatter_template(), params, g_lib));
    system.add_subarch(
        arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
    return system;
  };
  const workload::Model model = workload::mlp_mnist();
  const GreedyMapper greedy;

  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const ModelReport original =
      Simulator(make_system(), options).simulate_model(model, greedy);
  const std::string image = save_bytes(cache);

  CostMatrixCache reloaded;
  ASSERT_TRUE(load_bytes(reloaded, image).clean());
  SimulationOptions reloaded_options;
  reloaded_options.cost_cache = &reloaded;
  const ModelReport again = Simulator(make_system(), reloaded_options)
                                .simulate_model(model, greedy);

  EXPECT_EQ(again.total_runtime_ns, original.total_runtime_ns);
  EXPECT_EQ(again.total_energy.total_pJ(), original.total_energy.total_pJ());
  ASSERT_EQ(again.layers.size(), original.layers.size());
  for (size_t i = 0; i < again.layers.size(); ++i) {
    EXPECT_EQ(again.layers[i].layer_name, original.layers[i].layer_name);
    EXPECT_EQ(again.layers[i].runtime_ns(), original.layers[i].runtime_ns());
    EXPECT_EQ(again.layers[i].energy_pJ(), original.layers[i].energy_pJ());
  }
  EXPECT_EQ(reloaded.stats().misses, 0u);
  EXPECT_GT(reloaded.stats().hits, 0u);
}

// ------------------------------------------------ single-flight claims

// find_or_claim: one thread claims a missing key; another asking for it
// meanwhile gets the claimant's entry and counts a hit, whenever it runs.
TEST(CostCacheClaims, WaiterGetsTheClaimantsEntryAsAHit) {
  CostMatrixCache cache;
  const CostMatrixCache::Key key{7, 9};
  ASSERT_EQ(cache.find_or_claim(key), nullptr);
  std::shared_ptr<const CostMatrix::Entry> got;
  std::thread waiter([&] { got = cache.find_or_claim(key); });
  (void)cache.insert(key, make_entry(3));
  waiter.join();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->report.layer_name, "fc3");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// A released claim (infeasible pair, failed simulation) hands the key to
// the next asker as a fresh miss.
TEST(CostCacheClaims, ReleasedClaimPassesToTheNextAsker) {
  CostMatrixCache cache;
  const CostMatrixCache::Key key{7, 9};
  ASSERT_EQ(cache.find_or_claim(key), nullptr);
  auto got = std::make_shared<const CostMatrix::Entry>(make_entry(1));
  std::thread waiter([&] {
    got = cache.find_or_claim(key);
    cache.release(key);
  });
  cache.release(key);
  waiter.join();
  EXPECT_EQ(got, nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Nothing is left claimed: a third asker claims without waiting.
  EXPECT_EQ(cache.find_or_claim(key), nullptr);
  cache.release(key);
}

// ------------------------------------------------- operand-power memo

arch::Architecture scatter_system(int tiles) {
  arch::ArchParams params;
  params.tiles = tiles;
  params.wavelengths = 1;
  arch::Architecture system("scatter");
  system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, g_lib));
  return system;
}

double first_layer_energy(const CostMatrix& costs) {
  EXPECT_TRUE(costs.at(0, 0).feasible);
  return costs.at(0, 0).report.energy_pJ();
}

// The memo rides on the cost cache: cost-cache misses at a new design
// point re-simulate the pair but reuse the weight walk, and the cache's
// own hit/miss counters (the "cost_cache" JSON section) count cost-cache
// lookups only.
TEST(OperandPowerMemo, CostCacheMissesShareOneWalkAcrossPoints) {
  const workload::Model model = workload::single_gemm_model(64, 32, 32);
  const std::vector<workload::GemmWorkload> gemms =
      workload::extract_gemms(model);

  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const double e1 =
      first_layer_energy(Simulator(scatter_system(1), options)
                             .build_cost_matrix(gemms));
  const uint64_t walks = cache.operand_power().stats().walks;
  ASSERT_GT(walks, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A second point misses the cost cache but hits the memo.
  const double e2 =
      first_layer_energy(Simulator(scatter_system(2), options)
                             .build_cost_matrix(gemms));
  EXPECT_EQ(cache.operand_power().stats().walks, walks);
  EXPECT_GT(cache.operand_power().stats().hits, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Bit-identical to simulating without any cache.
  const SimulationOptions uncached;
  EXPECT_EQ(e1, first_layer_energy(Simulator(scatter_system(1), uncached)
                                       .build_cost_matrix(gemms)));
  EXPECT_EQ(e2, first_layer_energy(Simulator(scatter_system(2), uncached)
                                       .build_cost_matrix(gemms)));

  // A cost-cache hit never reaches the memo.
  const energy::OperandPowerMemo::Stats before = cache.operand_power().stats();
  (void)Simulator(scatter_system(2), options).build_cost_matrix(gemms);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.operand_power().stats().hits, before.hits);
  EXPECT_EQ(cache.operand_power().stats().misses, before.misses);

  cache.clear();
  EXPECT_EQ(cache.operand_power().size(), 0u);
  EXPECT_EQ(cache.operand_power().stats().walks, 0u);
}

TEST(OperandPowerMemo, EqualShapesWithDifferentWeightsWalkSeparately) {
  const workload::Model a = workload::single_gemm_model(64, 32, 32, 1);
  const workload::Model b = workload::single_gemm_model(64, 32, 32, 2);
  std::vector<workload::GemmWorkload> gemms = workload::extract_gemms(a);
  gemms.push_back(workload::extract_gemms(b).front());
  ASSERT_NE(gemms[0].weights->data(), gemms[1].weights->data());

  CostMatrixCache one;
  SimulationOptions one_options;
  one_options.cost_cache = &one;
  (void)Simulator(scatter_system(1), one_options)
      .build_cost_matrix({gemms[0]});

  CostMatrixCache both;
  SimulationOptions both_options;
  both_options.cost_cache = &both;
  const CostMatrix costs =
      Simulator(scatter_system(1), both_options).build_cost_matrix(gemms);
  EXPECT_EQ(both.operand_power().size(), 2 * one.operand_power().size());
  EXPECT_EQ(both.operand_power().stats().walks,
            2 * one.operand_power().stats().walks);
  EXPECT_NE(costs.at(0, 0).report.energy.get("PS"),
            costs.at(1, 0).report.energy.get("PS"));
}

// Keys are content fingerprints, never tensor addresses: rewriting a
// tensor in place (as onn_convert does) must walk the new values.
TEST(OperandPowerMemo, TensorMutatedAfterAWalkIsWalkedAgain) {
  workload::Model model = workload::single_gemm_model(64, 32, 32);
  const std::vector<workload::GemmWorkload> gemms =
      workload::extract_gemms(model);

  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const Simulator sim(scatter_system(1), options);
  const double before = first_layer_energy(sim.build_cost_matrix(gemms));
  const uint64_t walks = cache.operand_power().stats().walks;

  for (float& w : model.layers.front().weights.data()) w *= 0.5f;
  const double after = first_layer_energy(sim.build_cost_matrix(gemms));
  EXPECT_EQ(cache.operand_power().stats().walks, 2 * walks);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, first_layer_energy(Simulator(scatter_system(1), {})
                                          .build_cost_matrix(gemms)));
}

// ------------------------------------------------------- mutation fuzz

// Random truncation cuts: the load keeps exactly the records that lie
// entirely before the cut — never throws, never invents entries.
TEST(CacheStoreFuzz, TruncationsAtEveryOffsetKeepTheMaximalPrefix) {
  CostMatrixCache original;
  fill_synthetic(original, 5);
  const std::string bytes = save_bytes(original);
  const std::set<std::string> originals = entry_payloads(bytes);

  // Entry-record end offsets for the expected-count arithmetic, plus the
  // offsets where a cut leaves a well-formed (if shorter) file: the
  // header end and every record end.  A cut exactly there loads cleanly —
  // it is indistinguishable from a legitimately smaller file.
  std::vector<size_t> ends;
  std::set<size_t> clean_cuts = {bytes.size()};
  {
    util::RecordReader reader(bytes);
    ASSERT_TRUE(reader.header_ok(CostMatrixCache::kFileMagic));
    clean_cuts.insert(reader.offset());  // end of the header
    std::string_view payload;
    while (reader.next(&payload) == util::RecordStatus::kOk) {
      clean_cuts.insert(reader.offset());
      util::ByteReader body(payload);
      if (body.read_varint() == 1) ends.push_back(reader.offset());
    }
  }

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;

    CostMatrixCache reloaded;
    CostMatrixCache::LoadReport report;
    ASSERT_NO_THROW(report = load_bytes(reloaded, bytes.substr(0, cut)))
        << "cut=" << cut;
    EXPECT_EQ(report.loaded, expected) << "cut=" << cut;
    if (!report.version_mismatch && clean_cuts.count(cut) == 0) {
      EXPECT_TRUE(report.truncated) << "cut=" << cut
                                    << ": mid-record damage must be reported";
    }
    if (report.loaded > 0) {
      for (const std::string& payload :
           entry_payloads(save_bytes(reloaded))) {
        EXPECT_EQ(originals.count(payload), 1u) << "cut=" << cut;
      }
    }
  }
}

// Compound damage: each round applies several random byte flips and
// (half the time) a random truncation on top.  Whatever survives the
// load must be byte-identical to a written entry — the CRC arithmetic
// has to hold for multi-fault damage too, not just single flips.
TEST(CacheStoreFuzz, RandomCompoundDamageNeverLoadsACorruptEntry) {
  CostMatrixCache original;
  fill_synthetic(original, 6);
  const std::string bytes = save_bytes(original);
  const std::set<std::string> originals = entry_payloads(bytes);

  util::Rng rng(9001);
  for (int round = 0; round < 500; ++round) {
    std::string damaged = bytes;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(rng.uniform_int(
          0, static_cast<int64_t>(damaged.size()) - 1));
      damaged[at] = static_cast<char>(
          damaged[at] ^ static_cast<char>(rng.uniform_int(1, 255)));
    }
    if (rng.coin()) {
      damaged.resize(static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(damaged.size()))));
    }

    CostMatrixCache reloaded;
    CostMatrixCache::LoadReport report;
    ASSERT_NO_THROW(report = load_bytes(reloaded, damaged))
        << "round=" << round;
    EXPECT_EQ(report.loaded, reloaded.size()) << "round=" << round;
    EXPECT_LE(report.loaded, originals.size()) << "round=" << round;
    if (report.loaded > 0) {
      for (const std::string& payload :
           entry_payloads(save_bytes(reloaded))) {
        EXPECT_EQ(originals.count(payload), 1u)
            << "round=" << round
            << ": damaged file loaded an entry the writer never wrote";
      }
    }
  }
}

}  // namespace
}  // namespace simphony::core
