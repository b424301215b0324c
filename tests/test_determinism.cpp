// The repo-wide determinism oracle: every parallel hot path — the DSE
// engine's point loop, simulate_batch's per-model loop, and the
// parallel_for inside BeamMapper / BranchBoundMapper — must produce
// BIT-identical results (==, not near) for every thread count, because
// each writes results to index-addressed slots and never lets scheduling
// order reach an accumulation.  These tests re-run the same exploration /
// batch / mapping search across thread counts {1, 2, 4, 8} against the
// serial run and compare every figure exactly; files a sweep publishes
// (--out shard documents) are compared byte for byte.  A failure here means a
// scheduling change leaked into result order (e.g. a reduction folded in
// completion order) — fix the code, never loosen the comparison.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/mapper.h"
#include "core/simulator.h"
#include "core/workload_set.h"
#include "workload/onn_convert.h"

namespace simphony::core {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

arch::Architecture scatter_mzi_system() {
  arch::ArchParams params;
  params.wavelengths = 1;
  arch::Architecture system("hetero");
  system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
  return system;
}

workload::Model converted(workload::Model model) {
  workload::convert_model_in_place(model);
  return model;
}

WorkloadSet small_batch() {
  WorkloadSet set;
  set.add(converted(workload::mlp_mnist()), "", 2.0);
  set.add(converted(workload::single_gemm_model(64, 32, 64)), "gemm-a", 1.0);
  set.add(converted(workload::single_gemm_model(96, 48, 32)), "gemm-b", 0.5);
  return set;
}

/// Every mapping strategy the engine ships, each objective included.
std::vector<std::unique_ptr<Mapper>> all_mappers() {
  std::vector<std::unique_ptr<Mapper>> mappers;
  mappers.push_back(std::make_unique<RuleMapper>(MappingConfig(0)));
  for (const char* name : {"latency", "energy", "edp"}) {
    const ObjectiveSpec objective = ObjectiveSpec::parse(name);
    mappers.push_back(std::make_unique<GreedyMapper>(objective));
    mappers.push_back(std::make_unique<BeamMapper>(4, objective));
    mappers.push_back(std::make_unique<BranchBoundMapper>(objective));
  }
  return mappers;
}

void expect_points_identical(const DsePoint& a, const DsePoint& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.energy_pJ, b.energy_pJ);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.area_mm2, b.area_mm2);
  EXPECT_EQ(a.power_W, b.power_W);
  EXPECT_EQ(a.tops, b.tops);
  EXPECT_EQ(a.pareto, b.pareto);
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (size_t i = 0; i < a.per_model.size(); ++i) {
    EXPECT_EQ(a.per_model[i].model, b.per_model[i].model);
    EXPECT_EQ(a.per_model[i].energy_pJ, b.per_model[i].energy_pJ);
    EXPECT_EQ(a.per_model[i].latency_ns, b.per_model[i].latency_ns);
    EXPECT_EQ(a.per_model[i].area_mm2, b.per_model[i].area_mm2);
    EXPECT_EQ(a.per_model[i].power_W, b.per_model[i].power_W);
    EXPECT_EQ(a.per_model[i].tops, b.per_model[i].tops);
  }
}

void expect_results_identical(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t p = 0; p < a.points.size(); ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    expect_points_identical(a.points[p], b.points[p]);
  }
}

TEST(Determinism, ExploreAcrossThreadCountsForEveryMapper) {
  DseSpace space;
  space.wavelengths = {1, 2};
  space.tiles = {1, 2};
  const std::vector<arch::PtcTemplate> templates{
      arch::scatter_template(), arch::clements_mzi_template()};
  const workload::Model model = converted(workload::mlp_mnist());

  // One cache across every run: bit-identity must hold through cache hits
  // too (first-writer-wins over bit-identical entries).
  CostMatrixCache cache;
  for (const auto& mapper : all_mappers()) {
    DseOptions serial;
    serial.num_threads = 1;
    serial.mapper = mapper.get();
    serial.cost_cache = &cache;
    const DseResult base = explore(templates, g_lib, model, space, serial);
    ASSERT_EQ(base.points.size(), 4u);

    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(mapper->name() + " threads=" + std::to_string(threads));
      DseOptions options = serial;
      options.num_threads = threads;
      expect_results_identical(
          explore(templates, g_lib, model, space, options), base);
    }
  }
}

TEST(Determinism, BatchedExploreAcrossThreadCounts) {
  DseSpace space;
  space.wavelengths = {1, 2};
  const WorkloadSet set = small_batch();
  const BeamMapper mapper(4);

  CostMatrixCache cache;
  DseOptions serial;
  serial.num_threads = 1;
  serial.mapper = &mapper;
  serial.cost_cache = &cache;
  const DseResult base = explore(arch::scatter_template(), g_lib, set, space,
                                 serial);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DseOptions options = serial;
    options.num_threads = threads;
    expect_results_identical(
        explore(arch::scatter_template(), g_lib, set, space, options), base);
  }
}

TEST(Determinism, MapperInternalParallelismAcrossThreadCounts) {
  // BeamMapper and BranchBoundMapper run their own parallel_for over beam
  // rows / subtree roots; the chosen assignment and every figure of the
  // report must not depend on their num_threads knob.
  CostMatrixCache cache;
  SimulationOptions sim_options;
  sim_options.cost_cache = &cache;
  const Simulator sim(scatter_mzi_system(), sim_options);
  const workload::Model model = converted(workload::mlp_mnist());

  for (const char* name : {"latency", "energy", "edp"}) {
    const ObjectiveSpec objective = ObjectiveSpec::parse(name);
    Mapping base_beam;
    const ModelReport beam_report =
        sim.simulate_model(model, BeamMapper(8, objective, 1), &base_beam);
    Mapping base_bnb;
    const ModelReport bnb_report =
        sim.simulate_model(model, BranchBoundMapper(objective, 1), &base_bnb);

    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("objective=" + std::string(name) +
                   " threads=" + std::to_string(threads));
      Mapping beam_chosen;
      const ModelReport beam_t = sim.simulate_model(
          model, BeamMapper(8, objective, threads), &beam_chosen);
      EXPECT_EQ(beam_chosen.assignment, base_beam.assignment);
      EXPECT_EQ(beam_chosen.predicted_cost, base_beam.predicted_cost);
      EXPECT_EQ(beam_t.total_runtime_ns, beam_report.total_runtime_ns);
      EXPECT_EQ(beam_t.total_energy.total_pJ(),
                beam_report.total_energy.total_pJ());

      Mapping bnb_chosen;
      const ModelReport bnb_t = sim.simulate_model(
          model, BranchBoundMapper(objective, threads), &bnb_chosen);
      EXPECT_EQ(bnb_chosen.assignment, base_bnb.assignment);
      EXPECT_EQ(bnb_chosen.predicted_cost, base_bnb.predicted_cost);
      EXPECT_EQ(bnb_t.total_runtime_ns, bnb_report.total_runtime_ns);
      EXPECT_EQ(bnb_t.total_energy.total_pJ(),
                bnb_report.total_energy.total_pJ());
    }
  }
}

TEST(Determinism, BatchWithNestedParallelMapperAcrossThreadCounts) {
  // Batch-level parallel_for with a parallel mapper nested inside each
  // model: the nested dispatch (inline on pool workers, pooled from the
  // calling thread) must not change any figure.
  const WorkloadSet set = small_batch();
  const BeamMapper mapper(4, {}, 2);

  CostMatrixCache cache;
  SimulationOptions sim_options;
  sim_options.cost_cache = &cache;

  const Simulator serial_sim(scatter_mzi_system(), sim_options);
  BatchOptions serial;
  serial.num_threads = 1;
  const BatchReport base = serial_sim.simulate_batch(set, mapper, serial);

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Simulator sim(scatter_mzi_system(), sim_options);
    BatchOptions options;
    options.num_threads = threads;
    const BatchReport batch = sim.simulate_batch(set, mapper, options);
    ASSERT_EQ(batch.models.size(), base.models.size());
    for (size_t i = 0; i < base.models.size(); ++i) {
      EXPECT_EQ(batch.models[i].name, base.models[i].name);
      EXPECT_EQ(batch.models[i].mapping.assignment,
                base.models[i].mapping.assignment);
      EXPECT_EQ(batch.models[i].report.total_runtime_ns,
                base.models[i].report.total_runtime_ns);
      EXPECT_EQ(batch.models[i].report.total_energy.total_pJ(),
                base.models[i].report.total_energy.total_pJ());
      EXPECT_EQ(batch.models[i].report.total_area_mm2(),
                base.models[i].report.total_area_mm2());
    }
  }
}

TEST(Determinism, CostCacheCountsAcrossThreadCounts) {
  // Two entries with the same weights race on the same cost-cache keys.
  // Claims make each key simulate once, so the counters — which the
  // "cost_cache" JSON sections print — do not depend on timing.
  WorkloadSet set;
  set.add(converted(workload::mlp_mnist()), "a");
  set.add(converted(workload::mlp_mnist()), "b");
  const GreedyMapper mapper;

  CostMatrixCache::Stats serial;
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CostMatrixCache cache;
    SimulationOptions sim_options;
    sim_options.cost_cache = &cache;
    const Simulator sim(scatter_mzi_system(), sim_options);
    BatchOptions options;
    options.num_threads = threads;
    (void)sim.simulate_batch(set, mapper, options);
    const CostMatrixCache::Stats stats = cache.stats();
    if (threads == 1) {
      serial = stats;
      EXPECT_GT(stats.hits, 0u);
    } else {
      EXPECT_EQ(stats.hits, serial.hits);
      EXPECT_EQ(stats.misses, serial.misses);
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

TEST(Determinism, PublishedShardFilesAcrossThreadCounts) {
  // The --out path: DseShardWriter's durable file sink fed from explore's
  // completion-order callback.  Workers finish points out of order, so
  // only finish()'s canonical rewrite makes the published bytes equal.
  DseSpace space;
  space.wavelengths = {1, 2, 4};
  space.tiles = {1, 2, 4};
  const std::vector<arch::PtcTemplate> templates{
      arch::scatter_template(), arch::clements_mzi_template()};
  const workload::Model model = converted(workload::mlp_mnist());
  const GreedyMapper mapper;

  for (const DseShard shard : {DseShard{0, 1}, DseShard{1, 2}}) {
    std::string serial_bytes;
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("shard " + std::to_string(shard.index) + "/" +
                   std::to_string(shard.count) +
                   " threads=" + std::to_string(threads));
      const std::string path = ::testing::TempDir() +
                               "/determinism_shard" +
                               std::to_string(shard.index) + "_t" +
                               std::to_string(threads) + ".json";
      DseShardWriter::Metadata metadata;
      metadata.arch = "scatter+clements_mzi";
      metadata.model = model.name;
      metadata.shard = shard;
      metadata.total_points = space.size();
      DseOptions options;
      options.num_threads = threads;
      options.mapper = &mapper;
      options.shard = shard;
      {
        DseShardWriter writer(path, metadata);
        (void)explore(templates, g_lib, model, space, options,
                      [&](const DsePoint& point) { writer.add_point(point); });
        writer.finish();
      }
      const std::string bytes = read_file(path);
      EXPECT_FALSE(file_exists(path + ".tmp"));
      std::remove(path.c_str());
      ASSERT_FALSE(bytes.empty());
      if (threads == 1) {
        serial_bytes = bytes;
      } else {
        EXPECT_EQ(bytes, serial_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace simphony::core
