// Benchmarks of the DSE engine (core/dse.h): serial vs. thread-pooled
// design-point evaluation on a 3-axis sweep, the effect of the
// duplicate-point evaluation cache, and the O(n log n) Pareto frontier
// sweep on synthetic point clouds.
#include <benchmark/benchmark.h>

#include <vector>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/mapper.h"
#include "core/strategy.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/model.h"

namespace {

using namespace simphony;

/// Attaches the parallel_for scheduling counters (docs/performance.md)
/// accumulated since `before` — per-iteration chunk/steal traffic plus an
/// items/sec rate the thread-scaling harness compares across -j values.
void set_scheduling_counters(benchmark::State& state,
                             const util::ThreadPool::BulkStats& before) {
  const util::ThreadPool::BulkStats after =
      util::ThreadPool::global_bulk_stats();
  const double iters = static_cast<double>(state.iterations());
  const double dispatches =
      static_cast<double>(after.dispatches - before.dispatches);
  state.counters["pf_items"] =
      static_cast<double>(after.items - before.items) / iters;
  state.counters["pf_steals"] =
      static_cast<double>(after.steals - before.steals) / iters;
  state.counters["pf_tasks_per_dispatch"] =
      dispatches > 0
          ? static_cast<double>(after.tasks - before.tasks) / dispatches
          : 0.0;
  state.counters["pf_items_per_s"] =
      benchmark::Counter(static_cast<double>(after.items - before.items),
                         benchmark::Counter::kIsRate);
}

const devlib::DeviceLibrary& standard_lib() {
  static devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  return lib;
}

const workload::Model& mlp_model() {
  static workload::Model model = workload::mlp_mnist();
  return model;
}

/// 4 tiles x 4 core sizes x 13 wavelengths = 208 distinct design points.
core::DseSpace sweep_3axis() {
  core::DseSpace space;
  space.tiles = {1, 2, 4, 8};
  space.core_sizes = {2, 4, 6, 8};
  for (int wavelengths = 1; wavelengths <= 13; ++wavelengths) {
    space.wavelengths.push_back(wavelengths);
  }
  return space;
}

void BM_ExploreSerial(benchmark::State& state) {
  const core::DseSpace space = sweep_3axis();
  core::DseOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::explore(
        arch::tempo_template(), standard_lib(), mlp_model(), space, options));
  }
  state.counters["points"] =
      static_cast<double>(space.enumerate().size());
}
BENCHMARK(BM_ExploreSerial)->Unit(benchmark::kMillisecond);

void BM_ExploreParallel(benchmark::State& state) {
  const core::DseSpace space = sweep_3axis();
  core::DseOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  const util::ThreadPool::BulkStats before =
      util::ThreadPool::global_bulk_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::explore(
        arch::tempo_template(), standard_lib(), mlp_model(), space, options));
  }
  set_scheduling_counters(state, before);
  state.counters["points"] =
      static_cast<double>(space.enumerate().size());
}
BENCHMARK(BM_ExploreParallel)
    ->Arg(1)  // serial baseline for the thread-scaling check
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // 0 = one worker per hardware thread
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Multi-fidelity successive halving vs. the one-shot engine on the same
/// costed sweep: rung 0 scores every point under the cheap greedy
/// mapper, then only the ceil(n / eta) survivors pay the full beam
/// search.  The counters record the schedule (full_evals / low_evals /
/// points), which scripts/bench.sh archives alongside the timings.
void BM_ExploreHalving(benchmark::State& state) {
  const core::DseSpace space = sweep_3axis();
  const core::BeamMapper full(4);
  const core::GreedyMapper low;
  const bool halving = state.range(0) != 0;
  size_t full_evals = 0;
  size_t low_evals = 0;
  size_t result_points = 0;
  for (auto _ : state) {
    core::SuccessiveHalvingStrategy strategy;  // eta 3, rungs 2
    core::DseOptions options;
    options.num_threads = 1;
    options.mapper = &full;
    if (halving) {
      options.strategy = &strategy;
      options.low_fidelity_mapper = &low;
    }
    const core::DseResult result = core::explore(
        arch::tempo_template(), standard_lib(), mlp_model(), space, options);
    benchmark::DoNotOptimize(result);
    result_points = result.points.size();
    full_evals = 0;
    low_evals = 0;
    if (halving) {
      for (const core::RungStats& rung : strategy.rung_stats()) {
        (rung.fidelity == core::FidelityLevel::kFull ? full_evals
                                                     : low_evals) +=
            rung.evaluated;
      }
    } else {
      full_evals = result.points.size();
    }
  }
  state.SetLabel(halving ? "halving" : "one-shot");
  state.counters["points"] = static_cast<double>(result_points);
  state.counters["full_evals"] = static_cast<double>(full_evals);
  state.counters["low_evals"] = static_cast<double>(low_evals);
}
BENCHMARK(BM_ExploreHalving)
    ->Arg(0)  // one-shot baseline under the same beam mapper
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Duplicate sweep values: the cache collapses 4x redundancy to one
/// evaluation per distinct point.
void BM_ExploreCachedDuplicates(benchmark::State& state) {
  core::DseSpace space = sweep_3axis();
  space.tiles = {1, 2, 1, 2, 1, 2, 1, 2};
  space.core_sizes = {4, 8, 4, 8};
  core::DseOptions options;
  options.num_threads = 1;
  options.cache = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::explore(
        arch::tempo_template(), standard_lib(), mlp_model(), space, options));
  }
}
BENCHMARK(BM_ExploreCachedDuplicates)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Batched exploration of K models against K separate explore() calls
/// over the same space: the batched engine materializes each design
/// point's architecture once for the whole batch.
void BM_ExploreBatched(benchmark::State& state) {
  core::DseSpace space;
  space.tiles = {1, 2};
  space.wavelengths = {1, 2, 4};
  const size_t k = static_cast<size_t>(state.range(0));
  core::WorkloadSet set;
  set.add(workload::mlp_mnist(), "mlp");
  for (size_t i = 1; i < k; ++i) {
    const int n = 64 << (i % 3);
    set.add(workload::single_gemm_model(n, 32, n),
            "gemm" + std::to_string(i));
  }
  core::DseOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::explore(arch::tempo_template(),
                                           standard_lib(), set, space,
                                           options));
  }
  state.counters["models"] = static_cast<double>(k);
  state.counters["points"] = static_cast<double>(space.size());
}
BENCHMARK(BM_ExploreBatched)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// The pre-batch way to cost K models: one full explore() per model,
/// re-materializing every design point's architecture K times.
void BM_ExploreSeparatePerModel(benchmark::State& state) {
  core::DseSpace space;
  space.tiles = {1, 2};
  space.wavelengths = {1, 2, 4};
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<workload::Model> models;
  models.push_back(workload::mlp_mnist());
  for (size_t i = 1; i < k; ++i) {
    const int n = 64 << (i % 3);
    models.push_back(workload::single_gemm_model(n, 32, n));
  }
  core::DseOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    for (const workload::Model& model : models) {
      benchmark::DoNotOptimize(core::explore(
          arch::tempo_template(), standard_lib(), model, space, options));
    }
  }
  state.counters["models"] = static_cast<double>(k);
  state.counters["points"] = static_cast<double>(space.size());
}
BENCHMARK(BM_ExploreSeparatePerModel)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Point-list generation cost of the samplers (no simulation): how fast
/// the engine can draw N design points from a 7-axis space.
void BM_SamplerDraw(benchmark::State& state) {
  core::DseSpace space = sweep_3axis();
  space.cores_per_tile = {1, 2, 4};
  space.core_widths = {2, 4, 8};
  const size_t n = static_cast<size_t>(state.range(1));
  const core::RandomSampler random(n, 7);
  const core::LatinHypercubeSampler lhs(n, 7);
  const core::DseSampler& sampler =
      state.range(0) == 0 ? static_cast<const core::DseSampler&>(random)
                          : static_cast<const core::DseSampler&>(lhs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(space));
  }
  state.SetLabel(sampler.name());
  state.counters["points"] = static_cast<double>(n);
}
BENCHMARK(BM_SamplerDraw)
    ->Args({0, 4096})
    ->Args({0, 65536})
    ->Args({1, 4096})
    ->Args({1, 65536})
    ->Unit(benchmark::kMillisecond);

/// Recombining K shards of an N-point sweep: concatenate, restore
/// canonical order, recompute the frontier.
void BM_MergeShards(benchmark::State& state) {
  const size_t n = 65536;
  const size_t shard_count = static_cast<size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<core::DseResult> shards(shard_count);
  for (size_t g = 0; g < n; ++g) {
    core::DsePoint p;
    p.index = g;
    p.energy_pJ = rng.uniform(1.0, 1000.0);
    p.latency_ns = rng.uniform(1.0, 1000.0);
    p.area_mm2 = rng.uniform(1.0, 1000.0);
    shards[g % shard_count].points.push_back(p);
  }
  for (auto _ : state) {
    std::vector<core::DseResult> copy = shards;
    benchmark::DoNotOptimize(core::merge(std::move(copy)));
  }
  state.counters["points"] = static_cast<double>(n);
}
BENCHMARK(BM_MergeShards)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// The skyline on a uniform 3-D cloud.  It costs O(N log N +
/// N * |frontier|) and a random cloud's frontier grows with N, so the
/// fitted curve is left to oAuto.
void BM_ParetoFrontier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<core::DsePoint> base(n);
  for (auto& p : base) {
    p.energy_pJ = rng.uniform(1.0, 1000.0);
    p.latency_ns = rng.uniform(1.0, 1000.0);
    p.area_mm2 = rng.uniform(1.0, 1000.0);
  }
  for (auto _ : state) {
    std::vector<core::DsePoint> points = base;
    core::mark_pareto_frontier(points);
    benchmark::DoNotOptimize(points);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ParetoFrontier)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity(benchmark::oAuto);

}  // namespace

BENCHMARK_MAIN();
