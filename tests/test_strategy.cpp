// Pluggable exploration strategies (core/strategy.h): the one-shot
// schedule's byte-identity against recorded goldens across samplers,
// mappers, and thread counts; successive halving's determinism, its
// frontier-best-per-objective recovery at a bounded full-fidelity
// budget, sharding, and resume; frontier refinement; and — when
// SIMPHONY_CLI_PATH is defined — the engine / CLI byte-identity of a
// halving sweep.
#include "core/strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef SIMPHONY_CLI_PATH
#include <sys/wait.h>
#endif

#include "arch/prebuilt.h"
#include "core/engine.h"
#include "core/mapper.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

DseSpace small_space() {
  DseSpace space;
  space.tiles = {1, 2};
  space.core_sizes = {4, 8};
  space.wavelengths = {2, 4};
  return space;
}

/// 18 points with enough metric spread that halving's rungs genuinely
/// cull (the space the docs' worked example uses).
DseSpace halving_space() {
  DseSpace space;
  space.tiles = {1, 2, 4};
  space.wavelengths = {2, 4, 8};
  space.core_sizes = {8, 16};
  return space;
}

void expect_bit_identical(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].index, b.points[i].index) << i;
    EXPECT_EQ(a.points[i].params, b.points[i].params) << i;
    EXPECT_EQ(a.points[i].energy_pJ, b.points[i].energy_pJ) << i;
    EXPECT_EQ(a.points[i].latency_ns, b.points[i].latency_ns) << i;
    EXPECT_EQ(a.points[i].area_mm2, b.points[i].area_mm2) << i;
    EXPECT_EQ(a.points[i].power_W, b.points[i].power_W) << i;
    EXPECT_EQ(a.points[i].tops, b.points[i].tops) << i;
    EXPECT_EQ(a.points[i].pareto, b.points[i].pareto) << i;
    EXPECT_EQ(a.points[i].rung, b.points[i].rung) << i;
  }
}

// ------------------------------------------------------------ rung math

TEST(Strategy, RungSurvivorsMatchesCeilingDivision) {
  // k_r = max(1, ceil(n / eta^r)).
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(18, 3, 0), 18u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(18, 3, 1), 6u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(18, 3, 2), 2u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(18, 3, 3), 1u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(19, 3, 1), 7u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(7, 2, 1), 4u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(7, 2, 2), 2u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(7, 2, 3), 1u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(1, 5, 4), 1u);
  EXPECT_EQ(SuccessiveHalvingStrategy::rung_survivors(0, 3, 2), 0u);
}

TEST(Strategy, ConstructorsValidateTheirKnobs) {
  EXPECT_THROW(SuccessiveHalvingStrategy(1, 2), std::invalid_argument);
  EXPECT_THROW(SuccessiveHalvingStrategy(3, 0), std::invalid_argument);
  EXPECT_THROW(FrontierRefineStrategy(small_space(), 0),
               std::invalid_argument);
}

// ------------------------------------------ one-shot == recorded goldens

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(SIMPHONY_ONE_SHOT_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(Strategy, OneShotMatchesRecordedGoldensAcrossSamplersMappersThreads) {
  // tests/golden/one_shot/<mapper>_<sampler>.json hold the
  // to_json(DseResult) bytes of the dedicated one-shot loop explore()
  // ran before every sweep went through the strategy driver.  Default
  // options (no strategy) and an explicit OneShotStrategy must both
  // still reproduce them at every thread count.
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();
  const GreedyMapper greedy;
  const BeamMapper beam(4);
  const RandomSampler random(10, 42);
  const LatinHypercubeSampler lhs(6, 7);
  const std::vector<std::pair<std::string, const Mapper*>> mappers = {
      {"none", nullptr}, {"greedy", &greedy}, {"beam", &beam}};
  const std::vector<std::pair<std::string, const DseSampler*>> samplers = {
      {"grid", nullptr}, {"random", &random}, {"lhs", &lhs}};
  for (const auto& [mapper_name, mapper] : mappers) {
    for (const auto& [sampler_name, sampler] : samplers) {
      const std::string golden = mapper_name + "_" + sampler_name + ".json";
      const std::string expected = read_golden(golden);
      ASSERT_FALSE(expected.empty()) << golden;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(golden + " threads=" + std::to_string(threads));
        DseOptions defaults;
        defaults.num_threads = threads;
        defaults.mapper = mapper;
        defaults.sampler = sampler;
        const DseResult by_default =
            explore(arch::tempo_template(), g_lib, model, space, defaults);
        EXPECT_EQ(to_json(by_default).dump() + "\n", expected);

        OneShotStrategy one_shot;
        DseOptions strategic = defaults;
        strategic.strategy = &one_shot;
        const DseResult actual =
            explore(arch::tempo_template(), g_lib, model, space, strategic);
        EXPECT_EQ(to_json(actual).dump() + "\n", expected);
        for (const DsePoint& pt : actual.points) EXPECT_EQ(pt.rung, -1);
      }
    }
  }
}

// --------------------------------------------------- successive halving

DseResult run_halving(const DseSpace& space, const workload::Model& model,
                      int threads, const Mapper& full, const Mapper& low,
                      std::vector<RungStats>* stats = nullptr,
                      DseShard shard = {},
                      const std::unordered_set<size_t>* skip = nullptr) {
  SuccessiveHalvingStrategy halving;  // eta 3, rungs 2
  DseOptions options;
  options.num_threads = threads;
  options.mapper = &full;
  options.low_fidelity_mapper = &low;
  options.strategy = &halving;
  options.shard = shard;
  options.skip_indices = skip;
  DseResult result =
      explore(arch::tempo_template(), g_lib, model, space, options);
  if (stats != nullptr) *stats = halving.rung_stats();
  return result;
}

TEST(Strategy, HalvingIsDeterministicAcrossThreadCounts) {
  const DseSpace space = halving_space();
  const workload::Model model = workload::mlp_mnist();
  const BeamMapper full(4);
  const GreedyMapper low;
  std::vector<RungStats> baseline_stats;
  const DseResult baseline =
      run_halving(space, model, 1, full, low, &baseline_stats);
  ASSERT_EQ(baseline.points.size(), 6u);  // ceil(18 / 3)
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    std::vector<RungStats> stats;
    const DseResult result =
        run_halving(space, model, threads, full, low, &stats);
    expect_bit_identical(result, baseline);
    // The evaluation schedule is part of the determinism contract too.
    ASSERT_EQ(stats.size(), baseline_stats.size());
    for (size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].rung, baseline_stats[i].rung) << i;
      EXPECT_EQ(stats[i].fidelity, baseline_stats[i].fidelity) << i;
      EXPECT_EQ(stats[i].candidates, baseline_stats[i].candidates) << i;
      EXPECT_EQ(stats[i].evaluated, baseline_stats[i].evaluated) << i;
    }
  }
}

TEST(Strategy, HalvingRecoversFrontierBestPerObjectiveWithinBudget) {
  // The acceptance bar: against the exhaustive one-shot oracle, halving
  // must return the exact best point per objective while paying full
  // fidelity for at most 40% of the space.
  const DseSpace space = halving_space();
  const workload::Model model = workload::mlp_mnist();
  const BeamMapper full(4);
  const GreedyMapper low;

  DseOptions oracle_options;
  oracle_options.num_threads = 4;
  oracle_options.mapper = &full;
  const DseResult oracle =
      explore(arch::tempo_template(), g_lib, model, space, oracle_options);
  ASSERT_EQ(oracle.points.size(), 18u);

  std::vector<RungStats> stats;
  const DseResult halved = run_halving(space, model, 4, full, low, &stats);

  const auto best_by = [](const DseResult& r, auto metric) {
    const DsePoint* best = nullptr;
    for (const DsePoint& pt : r.points) {
      if (best == nullptr || metric(pt) < metric(*best)) best = &pt;
    }
    return best;
  };
  const auto check = [&](auto metric, const char* label) {
    SCOPED_TRACE(label);
    const DsePoint* want = best_by(oracle, metric);
    const DsePoint* got = best_by(halved, metric);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->index, want->index);
    EXPECT_EQ(metric(*got), metric(*want));
  };
  check([](const DsePoint& p) { return p.energy_pJ; }, "energy");
  check([](const DsePoint& p) { return p.latency_ns; }, "latency");
  check([](const DsePoint& p) { return p.area_mm2; }, "area");
  check([](const DsePoint& p) { return p.edap(); }, "edap");

  // <= 40% of the space at full fidelity, counted from the rung stats.
  size_t full_evaluations = 0;
  for (const RungStats& rung : stats) {
    if (rung.fidelity == FidelityLevel::kFull) {
      full_evaluations += rung.evaluated;
    }
  }
  EXPECT_GT(full_evaluations, 0u);
  EXPECT_LE(full_evaluations * 10, oracle.points.size() * 4)
      << full_evaluations << " full-fidelity evaluations on an "
      << oracle.points.size() << "-point space";
  // Every result point is a final-rung full-fidelity survivor.
  for (const DsePoint& pt : halved.points) EXPECT_EQ(pt.rung, 1);
}

TEST(Strategy, HalvingShardsMergeDeterministically) {
  const DseSpace space = halving_space();
  const workload::Model model = workload::mlp_mnist();
  const BeamMapper full(4);
  const GreedyMapper low;
  auto sharded = [&](int threads) {
    std::vector<DseResult> shards;
    for (int index = 0; index < 2; ++index) {
      shards.push_back(run_halving(space, model, threads, full, low,
                                   nullptr, DseShard{index, 2}));
    }
    return merge(std::move(shards));
  };
  const DseResult baseline = sharded(1);
  // Each shard runs an independent bracket over its 9-point slice:
  // ceil(9 / 3) = 3 survivors per shard.
  EXPECT_EQ(baseline.points.size(), 6u);
  std::set<size_t> indices;
  for (const DsePoint& pt : baseline.points) {
    EXPECT_TRUE(indices.insert(pt.index).second);
  }
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    expect_bit_identical(sharded(threads), baseline);
  }
}

TEST(Strategy, HalvingResumeSkipsOnlyTheRecoveredSurvivors) {
  // Interrupting a halving sweep after some final-rung points and
  // resuming (skip_indices) must reproduce the uninterrupted result once
  // the recovered points are merged back: the low-fidelity rungs re-rank
  // the whole slice, so the survivor set cannot drift.
  const DseSpace space = halving_space();
  const workload::Model model = workload::mlp_mnist();
  const BeamMapper full(4);
  const GreedyMapper low;
  const DseResult uninterrupted = run_halving(space, model, 1, full, low);
  ASSERT_GE(uninterrupted.points.size(), 3u);

  std::unordered_set<size_t> skip;
  DseResult recovered;
  for (size_t i = 0; i < 2; ++i) {  // "the interrupted run finished two"
    recovered.points.push_back(uninterrupted.points[i]);
    skip.insert(uninterrupted.points[i].index);
  }
  DseResult rest =
      run_halving(space, model, 1, full, low, nullptr, DseShard{}, &skip);
  for (const DsePoint& pt : rest.points) {
    EXPECT_EQ(skip.count(pt.index), 0u);
  }
  const DseResult resumed =
      merge({std::move(recovered), std::move(rest)});
  expect_bit_identical(resumed, uninterrupted);
}

// -------------------------------------------------- frontier refinement

TEST(Strategy, FrontierRefinementAppendsNeighborsBeyondTheSampledList) {
  DseSpace space = halving_space();
  const workload::Model model = workload::mlp_mnist();
  const GreedyMapper greedy;
  const RandomSampler sampler(5, 42);

  auto run = [&]() {
    FrontierRefineStrategy frontier(space);
    DseOptions options;
    options.num_threads = 2;
    options.mapper = &greedy;
    options.sampler = &sampler;
    options.strategy = &frontier;
    return explore(arch::tempo_template(), g_lib, model, space, options);
  };
  const DseResult first = run();
  EXPECT_GT(first.points.size(), 5u);  // base pass + refined neighbors
  size_t refined = 0;
  for (const DsePoint& pt : first.points) {
    if (pt.index >= 5u) {
      ++refined;
      EXPECT_EQ(pt.rung, 1) << pt.index;  // refine round 1
    } else {
      EXPECT_EQ(pt.rung, 0) << pt.index;  // base pass
    }
  }
  EXPECT_GT(refined, 0u);
  expect_bit_identical(run(), first);  // deterministic
}

// ------------------------------------------------- CLI byte-identity
#ifdef SIMPHONY_CLI_PATH

std::string run_cli_stdout(const std::string& args) {
  const std::string command = std::string(SIMPHONY_CLI_PATH) + " " + args +
                              " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("popen failed");
  std::string output;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("CLI exited non-zero for: " + args);
  }
  return output;
}

TEST(StrategyCliIdentity, HalvingResponseMatchesCliJson) {
  ExploreRequest request;
  request.base.models.push_back(WorkloadSpec{"gemm:32x16x32", "", 1.0});
  request.base.mapping = "greedy";
  request.base.num_threads = 1;
  request.space.tiles = {1, 2, 4};
  request.space.wavelengths = {2, 4};
  request.strategy = "halving";
  Engine engine;
  const ExploreResponse response = engine.explore(request);
  EXPECT_EQ(response.to_json().dump(2) + "\n",
            run_cli_stdout("--model gemm:32x16x32 --mapping greedy"
                           " --sweep tiles=1,2,4 --sweep wavelengths=2,4"
                           " --threads 1 --strategy halving --json"));
}

#endif  // SIMPHONY_CLI_PATH

}  // namespace
}  // namespace simphony::core
