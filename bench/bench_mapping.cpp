// Benchmarks of the mapping subsystem (core/mapper.h): fixed rules vs
// greedy vs beam vs branch-and-bound on the VGG8 heterogeneous scenario
// (SCATTER crossbar + Clements MZI mesh sharing one memory hierarchy),
// the search-only cost of beam widths and of the exact branch-and-bound
// on a prebuilt cost matrix, and the cost-matrix cache on the fig11
// heterogeneous DseSpace sweep.  Each end-to-end benchmark also reports
// the EDP the strategy achieved, so the perf trajectory tracks mapping
// quality alongside throughput; the cache benchmark reports measured
// hit/miss counters.
#include <benchmark/benchmark.h>

#include <string>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "util/arena.h"
#include "util/binio.h"
#include "workload/onn_convert.h"

namespace {

using namespace simphony;

/// High-water mark of this thread's scratch arena (the beam rows /
/// candidate buffers / bnb roots live there): how many bytes of scratch
/// the search actually needs — and, because the arena recycles one block,
/// what it costs in resident memory, not in per-iteration mallocs.
void report_arena(benchmark::State& state) {
  state.counters["arena_high_water_B"] =
      static_cast<double>(util::thread_scratch().high_water());
}

const devlib::DeviceLibrary& standard_lib() {
  static devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  return lib;
}

const workload::Model& vgg8_model() {
  static workload::Model model = [] {
    workload::Model m = workload::vgg8_cifar10(42, /*prune_ratio=*/0.3);
    workload::convert_model_in_place(m);
    return m;
  }();
  return model;
}

core::Simulator make_hetero_sim() {
  arch::ArchParams params;
  params.wavelengths = 1;
  arch::Architecture system("hetero");
  system.add_subarch(arch::SubArchitecture(arch::scatter_template(), params,
                                           standard_lib()));
  system.add_subarch(arch::SubArchitecture(arch::clements_mzi_template(),
                                           params, standard_lib()));
  return core::Simulator(std::move(system));
}

void report_edp(benchmark::State& state, const core::ModelReport& report) {
  state.counters["edp_uJ_us"] =
      report.total_energy.total_pJ() * report.total_runtime_ns / 1e9;
}

void BM_MapFixedRules(benchmark::State& state) {
  const core::Simulator sim = make_hetero_sim();
  core::MappingConfig rules(0);
  rules.route_type(workload::LayerType::kConv2d, 0);
  rules.route_type(workload::LayerType::kLinear, 1);
  core::ModelReport report;
  for (auto _ : state) {
    report = sim.simulate_model(vgg8_model(), rules);
    benchmark::DoNotOptimize(report);
  }
  report_edp(state, report);
}
BENCHMARK(BM_MapFixedRules)->Unit(benchmark::kMillisecond);

void BM_MapGreedy(benchmark::State& state) {
  const core::Simulator sim = make_hetero_sim();
  const core::GreedyMapper greedy;
  core::ModelReport report;
  for (auto _ : state) {
    report = sim.simulate_model(vgg8_model(), greedy);
    benchmark::DoNotOptimize(report);
  }
  report_edp(state, report);
}
BENCHMARK(BM_MapGreedy)->Unit(benchmark::kMillisecond);

/// Canned edp vs the parsed weighted spec "0.5*edp+0.5*area"
/// (core/metrics.h): the general ObjectiveSpec scoring path must not
/// regress the greedy search measurably — the spec is parsed once at
/// construction and mapper_score is a few multiply-adds per candidate.
void BM_MapGreedyWeightedSpec(benchmark::State& state) {
  const core::Simulator sim = make_hetero_sim();
  const core::GreedyMapper greedy(
      core::ObjectiveSpec::parse("0.5*edp+0.5*area"));
  core::ModelReport report;
  for (auto _ : state) {
    report = sim.simulate_model(vgg8_model(), greedy);
    benchmark::DoNotOptimize(report);
  }
  report_edp(state, report);
}
BENCHMARK(BM_MapGreedyWeightedSpec)->Unit(benchmark::kMillisecond);

void BM_MapBeam(benchmark::State& state) {
  const core::Simulator sim = make_hetero_sim();
  const core::BeamMapper beam(static_cast<size_t>(state.range(0)));
  core::ModelReport report;
  for (auto _ : state) {
    report = sim.simulate_model(vgg8_model(), beam);
    benchmark::DoNotOptimize(report);
  }
  report_edp(state, report);
}
BENCHMARK(BM_MapBeam)->Arg(2)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_MapBranchBound(benchmark::State& state) {
  const core::Simulator sim = make_hetero_sim();
  const core::BranchBoundMapper bnb;
  core::ModelReport report;
  for (auto _ : state) {
    report = sim.simulate_model(vgg8_model(), bnb);
    benchmark::DoNotOptimize(report);
  }
  report_edp(state, report);
}
BENCHMARK(BM_MapBranchBound)->Unit(benchmark::kMillisecond);

/// Search-only cost: the matrix is built once outside the loop, so this
/// isolates the beam itself (the end-to-end runs above are dominated by
/// the per-pair simulations).
void BM_BeamSearchOnly(benchmark::State& state) {
  const core::Simulator sim = make_hetero_sim();
  const auto gemms = workload::extract_gemms(vgg8_model());
  const core::CostMatrix costs = sim.build_cost_matrix(gemms);
  core::MappingProblem problem{&gemms, &costs, costs.num_subarchs()};
  const core::BeamMapper beam(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(beam.map(problem));
  }
  report_arena(state);
}
BENCHMARK(BM_BeamSearchOnly)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// Exact search on a prebuilt matrix: branch-and-bound against the S^n
/// tree it prunes.  Counters report how much of the tree was actually
/// expanded (visited + pruned roots << total assignments).
void BM_BnbSearchOnly(benchmark::State& state) {
  const core::Simulator sim = make_hetero_sim();
  const auto gemms = workload::extract_gemms(vgg8_model());
  const core::CostMatrix costs = sim.build_cost_matrix(gemms);
  core::MappingProblem problem{&gemms, &costs, costs.num_subarchs()};
  const core::BranchBoundMapper bnb(
      {}, /*num_threads=*/static_cast<int>(state.range(0)));
  core::BranchBoundMapper::Stats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnb.map_counted(problem, &stats));
  }
  state.counters["nodes_visited"] = static_cast<double>(stats.visited);
  state.counters["nodes_pruned"] = static_cast<double>(stats.pruned);
  state.counters["total_assignments"] = stats.total_assignments;
  report_arena(state);
}
BENCHMARK(BM_BnbSearchOnly)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

/// The fig11 heterogeneous sweep (SCATTER + MZI over a DseSpace) with the
/// cost-matrix cache off (arg 0) vs shared across the whole run (arg 1).
/// With the cache every repetition after the first costs only hash
/// lookups for the pair simulations; the hits/misses/hit_rate counters
/// surface the measured reuse.
void BM_HeteroSweepCostCache(benchmark::State& state) {
  const std::vector<arch::PtcTemplate> templates = {
      arch::scatter_template(), arch::clements_mzi_template()};
  core::DseSpace space;
  space.wavelengths = {1, 2};
  space.tiles = {2, 4};
  const core::GreedyMapper greedy;
  core::CostMatrixCache cache;
  core::DseOptions options;
  options.num_threads = 1;
  options.mapper = &greedy;
  options.cost_cache = state.range(0) != 0 ? &cache : nullptr;
  if (options.cost_cache != nullptr) {
    // Warm-up sweep: the timed loop then measures the marginal cost of a
    // repeat sweep (the cross-point reuse the cache exists for), and the
    // hit counters are meaningful even at a single timed iteration.
    benchmark::DoNotOptimize(core::explore(templates, standard_lib(),
                                           vgg8_model(), space, options));
  }
  for (auto _ : state) {
    const core::DseResult result = core::explore(
        templates, standard_lib(), vgg8_model(), space, options);
    benchmark::DoNotOptimize(result);
  }
  const core::CostMatrixCache::Stats stats = cache.stats();
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
  state.counters["cache_misses"] = static_cast<double>(stats.misses);
  state.counters["cache_hit_rate"] = stats.hit_rate();
}
BENCHMARK(BM_HeteroSweepCostCache)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// The warm-start path behind --cache-file: a sweep fills a cache, the
/// cache round-trips through the binary store, and a fresh cache loaded
/// from that image serves a repeat sweep.  The counters report the reuse
/// the persisted image delivers on the second host (reload_hit_rate
/// should sit at ~1.0 — every pair cost comes from disk, none are
/// recomputed).
void BM_HeteroSweepReloadedCache(benchmark::State& state) {
  const std::vector<arch::PtcTemplate> templates = {
      arch::scatter_template(), arch::clements_mzi_template()};
  core::DseSpace space;
  space.wavelengths = {1, 2};
  space.tiles = {2, 4};
  const core::GreedyMapper greedy;

  core::CostMatrixCache warm;
  core::DseOptions options;
  options.num_threads = 1;
  options.mapper = &greedy;
  options.cost_cache = &warm;
  benchmark::DoNotOptimize(
      core::explore(templates, standard_lib(), vgg8_model(), space, options));
  std::string image;
  {
    util::MemoryOutputStream out(image);
    warm.save_to(out);
  }

  core::CostMatrixCache reloaded;
  {
    util::MemoryInputStream in(image);
    benchmark::DoNotOptimize(reloaded.load_from(in));
  }
  options.cost_cache = &reloaded;
  for (auto _ : state) {
    const core::DseResult result = core::explore(
        templates, standard_lib(), vgg8_model(), space, options);
    benchmark::DoNotOptimize(result);
  }
  const core::CostMatrixCache::Stats stats = reloaded.stats();
  state.counters["reload_hits"] = static_cast<double>(stats.hits);
  state.counters["reload_misses"] = static_cast<double>(stats.misses);
  state.counters["reload_hit_rate"] = stats.hit_rate();
  state.counters["image_bytes"] = static_cast<double>(image.size());
}
BENCHMARK(BM_HeteroSweepReloadedCache)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
