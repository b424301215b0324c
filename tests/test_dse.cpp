#include "core/dse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "arch/prebuilt.h"
#include "util/rng.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

DseResult small_sweep() {
  DseSpace space;
  space.tiles = {1, 2};
  space.wavelengths = {2, 4};
  const workload::Model model = workload::mlp_mnist();
  return explore(arch::tempo_template(), g_lib, model, space);
}

TEST(Dse, EnumeratesFullGrid) {
  const DseResult r = small_sweep();
  EXPECT_EQ(r.points.size(), 4u);  // 2 tiles x 2 wavelengths
  for (const auto& p : r.points) {
    EXPECT_GT(p.energy_pJ, 0.0);
    EXPECT_GT(p.latency_ns, 0.0);
    EXPECT_GT(p.area_mm2, 0.0);
  }
}

TEST(Dse, EmptyAxesUseBaseParams) {
  DseSpace space;
  space.base.wavelengths = 3;
  const DseResult r = explore(arch::tempo_template(), g_lib,
                              workload::mlp_mnist(), space);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_EQ(r.points.front().params.wavelengths, 3);
}

TEST(Dse, FrontierIsNonEmptyAndNonDominated) {
  const DseResult r = small_sweep();
  const auto frontier = r.frontier();
  ASSERT_FALSE(frontier.empty());
  for (const auto& a : frontier) {
    for (const auto& b : r.points) {
      const bool dominates =
          b.energy_pJ <= a.energy_pJ && b.latency_ns <= a.latency_ns &&
          b.area_mm2 <= a.area_mm2 &&
          (b.energy_pJ < a.energy_pJ || b.latency_ns < a.latency_ns ||
           b.area_mm2 < a.area_mm2);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Dse, BestEdapIsMinimal) {
  const DseResult r = small_sweep();
  const DsePoint& best = r.best_edap();
  for (const auto& p : r.points) {
    EXPECT_LE(best.edap(), p.edap());
  }
  EXPECT_THROW((void)DseResult{}.best_edap(), std::runtime_error);
}

TEST(Dse, ProgressCallbackFiresPerPoint) {
  DseSpace space;
  space.wavelengths = {1, 2, 4};
  int calls = 0;
  (void)explore(arch::tempo_template(), g_lib, workload::mlp_mnist(), space,
                [&](const DsePoint&) { ++calls; });
  EXPECT_EQ(calls, 3);
}

TEST(Dse, BitSweepChangesEnergy) {
  DseSpace space;
  space.input_bits = {2, 8};
  const DseResult r = explore(arch::tempo_template(), g_lib,
                              workload::mlp_mnist(), space);
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_LT(r.points[0].energy_pJ, r.points[1].energy_pJ);
}

TEST(Dse, MoreParallelismFasterButBigger) {
  DseSpace space;
  space.core_sizes = {4, 8};
  const DseResult r = explore(arch::tempo_template(), g_lib,
                              workload::mlp_mnist(), space);
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_GT(r.points[0].latency_ns, r.points[1].latency_ns);
  EXPECT_LT(r.points[0].area_mm2, r.points[1].area_mm2);
}

TEST(Dse, EnumerateMatchesResultOrder) {
  DseSpace space;
  space.tiles = {1, 2};
  space.core_sizes = {4, 8};
  space.wavelengths = {2, 4};
  const std::vector<arch::ArchParams> grid = space.enumerate();
  ASSERT_EQ(grid.size(), 8u);
  const DseResult r =
      explore(arch::tempo_template(), g_lib, workload::mlp_mnist(), space);
  ASSERT_EQ(r.points.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(r.points[i].params, grid[i]);
  }
}

// The acceptance bar for the parallel engine: any thread count yields the
// same points, in the same order, bit for bit.
TEST(Dse, ParallelIsBitIdenticalToSerial) {
  DseSpace space;
  space.tiles = {1, 2};
  space.core_sizes = {4, 8};
  space.wavelengths = {2, 4};
  const workload::Model model = workload::mlp_mnist();

  DseOptions serial;
  serial.num_threads = 1;
  const DseResult expected =
      explore(arch::tempo_template(), g_lib, model, space, serial);
  ASSERT_EQ(expected.points.size(), 8u);

  for (int threads : {0, 2, 4, 8}) {
    DseOptions options;
    options.num_threads = threads;
    const DseResult r =
        explore(arch::tempo_template(), g_lib, model, space, options);
    ASSERT_EQ(r.points.size(), expected.points.size()) << threads;
    for (size_t i = 0; i < r.points.size(); ++i) {
      EXPECT_EQ(r.points[i].params, expected.points[i].params);
      EXPECT_EQ(r.points[i].energy_pJ, expected.points[i].energy_pJ);
      EXPECT_EQ(r.points[i].latency_ns, expected.points[i].latency_ns);
      EXPECT_EQ(r.points[i].area_mm2, expected.points[i].area_mm2);
      EXPECT_EQ(r.points[i].power_W, expected.points[i].power_W);
      EXPECT_EQ(r.points[i].tops, expected.points[i].tops);
      EXPECT_EQ(r.points[i].pareto, expected.points[i].pareto);
    }
  }
}

// The Engine explores a resolved WorkloadSet entry through its stored
// GEMMs and fingerprints; that must be the Model overload, byte for byte,
// with and without a cost cache and with a swept bit axis.
TEST(Dse, WorkloadSetEntryOverloadMatchesTheModelOverload) {
  WorkloadSet set;
  const WorkloadSet::Entry& entry = set.add(workload::mlp_mnist());
  const std::vector<arch::PtcTemplate> templates = {
      arch::scatter_template(), arch::clements_mzi_template()};
  const GreedyMapper mapper;
  for (const bool swept_bits : {false, true}) {
    DseSpace space;
    space.tiles = {1, 2};
    space.wavelengths = {2, 4};
    if (swept_bits) space.input_bits = {4, 8};
    CostMatrixCache model_cache;
    CostMatrixCache entry_cache;
    DseOptions options;
    options.mapper = &mapper;
    options.cost_cache = &model_cache;
    const DseResult by_model =
        explore(templates, g_lib, entry.model, space, options);
    options.cost_cache = &entry_cache;
    const DseResult by_entry = explore(templates, g_lib, entry, space, options);
    EXPECT_EQ(to_json(by_entry).dump(), to_json(by_model).dump());
    EXPECT_EQ(entry_cache.stats().misses, model_cache.stats().misses);
    EXPECT_EQ(entry_cache.stats().hits, model_cache.stats().hits);
  }
}

TEST(Dse, CacheReturnsIdenticalPointsForDuplicateParams) {
  DseSpace space;
  space.tiles = {2, 2, 2};
  space.wavelengths = {3, 3};
  const workload::Model model = workload::mlp_mnist();

  DseOptions cached;
  cached.num_threads = 1;
  const DseResult r =
      explore(arch::tempo_template(), g_lib, model, space, cached);
  ASSERT_EQ(r.points.size(), 6u);
  for (const auto& p : r.points) {
    EXPECT_EQ(p.params, r.points.front().params);
    EXPECT_EQ(p.energy_pJ, r.points.front().energy_pJ);
    EXPECT_EQ(p.latency_ns, r.points.front().latency_ns);
    EXPECT_EQ(p.area_mm2, r.points.front().area_mm2);
    EXPECT_EQ(p.pareto, r.points.front().pareto);
  }

  DseOptions uncached = cached;
  uncached.cache = false;
  const DseResult full =
      explore(arch::tempo_template(), g_lib, model, space, uncached);
  ASSERT_EQ(full.points.size(), r.points.size());
  for (size_t i = 0; i < r.points.size(); ++i) {
    EXPECT_EQ(r.points[i].energy_pJ, full.points[i].energy_pJ);
    EXPECT_EQ(r.points[i].latency_ns, full.points[i].latency_ns);
    EXPECT_EQ(r.points[i].area_mm2, full.points[i].area_mm2);
  }
}

TEST(Dse, ProgressCountsEveryGridPointIncludingCacheHits) {
  DseSpace space;
  space.tiles = {2, 2};
  space.wavelengths = {3, 3};
  for (int threads : {1, 4}) {
    DseOptions options;
    options.num_threads = threads;
    int calls = 0;
    (void)explore(arch::tempo_template(), g_lib, workload::mlp_mnist(),
                  space, options, [&](const DsePoint&) { ++calls; });
    EXPECT_EQ(calls, 4) << threads;
  }
}

TEST(Dse, ProgressEveryThrottlesCallbacks) {
  DseSpace space;
  space.wavelengths = {1, 2, 3, 4, 5};
  DseOptions options;
  options.num_threads = 1;
  options.progress_every = 2;
  int calls = 0;
  (void)explore(arch::tempo_template(), g_lib, workload::mlp_mnist(), space,
                options, [&](const DsePoint&) { ++calls; });
  // After points 2 and 4, plus the guaranteed final callback at 5.
  EXPECT_EQ(calls, 3);
}

TEST(Dse, ProgressCountIsMonotoneWithExactlyOneFinalCallback) {
  DseSpace space;
  space.wavelengths = {1, 2, 3, 4, 5, 6, 7};
  for (int threads : {0, 1, 2, 4}) {
    for (int every : {1, 2, 3, 7, 100}) {
      DseOptions options;
      options.num_threads = threads;
      options.progress_every = every;
      std::vector<size_t> counts;
      std::mutex mutex;
      options.on_progress = [&](const DseProgress& p) {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(p.total, 7u);
        ASSERT_NE(p.point, nullptr);
        counts.push_back(p.completed);
      };
      (void)explore(arch::tempo_template(), g_lib, workload::mlp_mnist(),
                    space, options);
      // Counts are strictly increasing (monotone even under completion
      // reordering across workers) ...
      for (size_t i = 1; i < counts.size(); ++i) {
        EXPECT_LT(counts[i - 1], counts[i])
            << "threads=" << threads << " every=" << every;
      }
      // ... and the run ends with exactly one callback at n_total,
      // whatever the milestone stride is.
      ASSERT_FALSE(counts.empty());
      EXPECT_EQ(counts.back(), 7u)
          << "threads=" << threads << " every=" << every;
      EXPECT_EQ(std::count(counts.begin(), counts.end(), size_t{7}), 1)
          << "threads=" << threads << " every=" << every;
      // Milestone schedule: every Nth point plus the final one.
      const size_t expected = 7 / static_cast<size_t>(every) + (7 % every
                              != 0 ? 1 : 0);
      EXPECT_EQ(counts.size(), expected)
          << "threads=" << threads << " every=" << every;
    }
  }
}

TEST(Dse, SkippedIndicesCountAsCompletedUpFront) {
  // A resumed sweep (skip_indices) reports its true position: the three
  // recovered points count as completed before the first evaluation, so
  // progress runs skipped+1..total instead of restarting from 1 — and
  // the guaranteed final callback still lands exactly once at total.
  DseSpace space;
  space.wavelengths = {1, 2, 3, 4, 5, 6, 7};
  const std::unordered_set<size_t> skip = {0, 3, 6};
  for (int threads : {1, 4}) {
    for (int every : {1, 7}) {
      DseOptions options;
      options.num_threads = threads;
      options.progress_every = every;
      options.skip_indices = &skip;
      std::vector<size_t> counts;
      std::mutex mutex;
      options.on_progress = [&](const DseProgress& p) {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(p.total, 7u);
        counts.push_back(p.completed);
      };
      const DseResult result = explore(arch::tempo_template(), g_lib,
                                       workload::mlp_mnist(), space, options);
      EXPECT_EQ(result.points.size(), 4u);
      ASSERT_FALSE(counts.empty())
          << "threads=" << threads << " every=" << every;
      for (size_t i = 1; i < counts.size(); ++i) {
        EXPECT_LT(counts[i - 1], counts[i])
            << "threads=" << threads << " every=" << every;
      }
      // Every reported count already includes the 3 skipped points ...
      EXPECT_GT(counts.front(), 3u)
          << "threads=" << threads << " every=" << every;
      // ... and the run still ends at total, exactly once.
      EXPECT_EQ(counts.back(), 7u)
          << "threads=" << threads << " every=" << every;
      EXPECT_EQ(std::count(counts.begin(), counts.end(), size_t{7}), 1)
          << "threads=" << threads << " every=" << every;
      if (every == 1) {
        // One callback per fresh evaluation: 4, 5, 6, 7.
        EXPECT_EQ(counts, (std::vector<size_t>{4, 5, 6, 7}))
            << "threads=" << threads;
      }
    }
  }
}

TEST(Dse, BothProgressCallbacksFireAtTheSameMilestones) {
  DseSpace space;
  space.wavelengths = {1, 2, 3, 4, 5};
  DseOptions options;
  options.num_threads = 2;
  options.progress_every = 2;
  int positional = 0;
  int structured = 0;
  std::mutex mutex;
  options.on_progress = [&](const DseProgress&) {
    std::lock_guard<std::mutex> lock(mutex);
    ++structured;
  };
  (void)explore(arch::tempo_template(), g_lib, workload::mlp_mnist(), space,
                options, [&](const DsePoint&) {
                  std::lock_guard<std::mutex> lock(mutex);
                  ++positional;
                });
  EXPECT_EQ(positional, 3);  // points 2 and 4, plus the final at 5
  EXPECT_EQ(structured, 3);
}

TEST(Dse, NegativeThreadCountIsRejected) {
  DseSpace space;
  space.wavelengths = {1, 2};
  DseOptions options;
  options.num_threads = -1;
  // The engine-wide convention (util::ThreadPool::workers_for): 0 = one
  // worker per hardware thread, 1 = serial, negative is an error rather
  // than a silent alias for "auto".
  EXPECT_THROW((void)explore(arch::tempo_template(), g_lib,
                             workload::mlp_mnist(), space, options),
               std::invalid_argument);
}

TEST(Dse, UnsweptSizeAxisKeepsNonSquareBaseCore) {
  DseSpace space;
  space.base.core_height = 2;
  space.base.core_width = 4;
  space.wavelengths = {2, 4};
  const DseResult r = explore(arch::tempo_template(), g_lib,
                              workload::mlp_mnist(), space);
  ASSERT_EQ(r.points.size(), 2u);
  for (const auto& p : r.points) {
    EXPECT_EQ(p.params.core_height, 2);
    EXPECT_EQ(p.params.core_width, 4);
  }
}

TEST(Dse, OutputBitsAxisReachesTheSimulation) {
  const workload::Model model = workload::mlp_mnist();
  DseSpace space;
  space.output_bits = {2, 8};
  const DseResult r = explore(arch::tempo_template(), g_lib, model, space);
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_EQ(r.points[0].params.output_bits, 2);
  EXPECT_EQ(r.points[1].params.output_bits, 8);
  // ADC energy grows with resolution, so the label must track the cost.
  EXPECT_LT(r.points[0].energy_pJ, r.points[1].energy_pJ);
}

TEST(Dse, EmptyOutputAxisKeepsPerLayerOutputBits) {
  // Layers carry 2-bit ADCs; base params say 8.  Without an output_bits
  // axis the per-layer value must win (the pre-DseOptions behavior), so
  // the result differs from an explicit 8-bit override.
  workload::Model model = workload::mlp_mnist();
  for (auto& layer : model.layers) layer.output_bits = 2;

  DseSpace unswept;  // base.output_bits = 8 is only a label here
  const DseResult per_layer =
      explore(arch::tempo_template(), g_lib, model, unswept);

  DseSpace forced;
  forced.output_bits = {8};
  const DseResult overridden =
      explore(arch::tempo_template(), g_lib, model, forced);

  ASSERT_EQ(per_layer.points.size(), 1u);
  ASSERT_EQ(overridden.points.size(), 1u);
  EXPECT_LT(per_layer.points[0].energy_pJ, overridden.points[0].energy_pJ);

  DseSpace matching;
  matching.output_bits = {2};
  const DseResult same =
      explore(arch::tempo_template(), g_lib, model, matching);
  EXPECT_EQ(per_layer.points[0].energy_pJ, same.points[0].energy_pJ);
}

TEST(Dse, UnsweptBitsAxisKeepsPerLayerOperandBits) {
  // Layers carry asymmetric operand widths (input 2, weight 8); no bits
  // axis is swept, so the simulation must keep them rather than flatten
  // both to base.input_bits.
  workload::Model model = workload::mlp_mnist();
  for (auto& layer : model.layers) {
    layer.input_bits = 2;
    layer.weight_bits = 8;
  }
  DseSpace unswept;
  const DseResult kept =
      explore(arch::tempo_template(), g_lib, model, unswept);

  DseSpace flattened;
  flattened.input_bits = {4};  // forces input = weight = 4
  const DseResult forced =
      explore(arch::tempo_template(), g_lib, model, flattened);

  ASSERT_EQ(kept.points.size(), 1u);
  ASSERT_EQ(forced.points.size(), 1u);
  EXPECT_NE(kept.points[0].energy_pJ, forced.points[0].energy_pJ);
}

TEST(Dse, ThrowingProgressCallbackAbortsSerialSweep) {
  DseSpace space;
  space.wavelengths = {1, 2, 3, 4, 5};
  DseOptions options;
  options.num_threads = 1;
  int calls = 0;
  EXPECT_THROW((void)explore(arch::tempo_template(), g_lib,
                             workload::mlp_mnist(), space, options,
                             [&](const DsePoint&) {
                               ++calls;
                               throw std::runtime_error("user abort");
                             }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);  // remaining grid points never evaluate
}

TEST(Dse, EnumerateRejectsNonPositiveAxisValues) {
  DseSpace zero_size;
  zero_size.core_sizes = {0, 8};
  EXPECT_THROW((void)zero_size.enumerate(), std::invalid_argument);
  DseSpace zero_width;
  zero_width.core_widths = {8, -2};
  EXPECT_THROW((void)zero_width.enumerate(), std::invalid_argument);
  DseSpace zero_output;
  zero_output.output_bits = {4, 0};
  EXPECT_THROW((void)zero_output.enumerate(), std::invalid_argument);
}

TEST(Dse, SizeMatchesEnumerateWithoutMaterializing) {
  DseSpace space;
  space.tiles = {1, 2, 4};
  space.core_sizes = {4, 8};
  space.core_widths = {2, 4};
  space.output_bits = {4, 8};
  EXPECT_EQ(space.size(), space.enumerate().size());
  EXPECT_EQ(DseSpace{}.size(), 1u);
  DseSpace bad;
  bad.input_bits = {0};
  EXPECT_THROW((void)bad.size(), std::invalid_argument);
  // A space too big for size_t must throw, not wrap to a tiny count.
  DseSpace huge;
  const std::vector<int> axis(1 << 20, 1);
  huge.tiles = axis;
  huge.cores_per_tile = axis;
  huge.wavelengths = axis;
  huge.core_sizes = axis;
  EXPECT_THROW((void)huge.size(), std::overflow_error);
}

TEST(Dse, WidthAxisDecouplesWFromH) {
  // core_sizes alone forces H = W; a core_widths axis sweeps W
  // independently, making non-square points reachable.
  DseSpace space;
  space.core_sizes = {4, 8};
  space.core_widths = {2, 16};
  const std::vector<arch::ArchParams> grid = space.enumerate();
  ASSERT_EQ(grid.size(), 4u);  // widths vary innermost of the pair
  EXPECT_EQ(grid[0].core_height, 4);
  EXPECT_EQ(grid[0].core_width, 2);
  EXPECT_EQ(grid[1].core_height, 4);
  EXPECT_EQ(grid[1].core_width, 16);
  EXPECT_EQ(grid[2].core_height, 8);
  EXPECT_EQ(grid[2].core_width, 2);
  EXPECT_EQ(grid[3].core_height, 8);
  EXPECT_EQ(grid[3].core_width, 16);
}

TEST(Dse, WidthAxisAloneKeepsBaseHeight) {
  DseSpace space;
  space.base.core_height = 6;
  space.core_widths = {2, 4};
  const std::vector<arch::ArchParams> grid = space.enumerate();
  ASSERT_EQ(grid.size(), 2u);
  for (const auto& p : grid) EXPECT_EQ(p.core_height, 6);
  EXPECT_EQ(grid[0].core_width, 2);
  EXPECT_EQ(grid[1].core_width, 4);
}

TEST(Dse, NonSquareSweepReachesTheSimulation) {
  // The non-square path end to end: wider cores at fixed height must
  // change latency/area, and the params labels must track H != W.
  DseSpace space;
  space.core_widths = {2, 8};
  const DseResult r = explore(arch::tempo_template(), g_lib,
                              workload::mlp_mnist(), space);
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_EQ(r.points[0].params.core_height, 4);  // base H survives
  EXPECT_EQ(r.points[0].params.core_width, 2);
  EXPECT_EQ(r.points[1].params.core_width, 8);
  EXPECT_GT(r.points[0].latency_ns, r.points[1].latency_ns);
  EXPECT_LT(r.points[0].area_mm2, r.points[1].area_mm2);
}

TEST(Dse, InvalidPointFailsTheWholeSweep) {
  DseSpace space;
  space.tiles = {1, -1, 2};
  for (int threads : {1, 4}) {
    DseOptions options;
    options.num_threads = threads;
    EXPECT_THROW((void)explore(arch::tempo_template(), g_lib,
                               workload::mlp_mnist(), space, options),
                 std::invalid_argument)
        << threads;
  }
}

TEST(Dse, SerialSweepStopsEvaluatingAfterAFailure) {
  DseSpace space;
  space.tiles = {1, -1};
  space.wavelengths = {1, 2, 3, 4, 5};  // 5 valid points after the failure
  DseOptions options;
  options.num_threads = 1;
  int evaluated = 0;
  EXPECT_THROW(
      (void)explore(arch::tempo_template(), g_lib, workload::mlp_mnist(),
                    space, options,
                    [&](const DsePoint&) { ++evaluated; }),
      std::invalid_argument);
  // Grid order is tiles=1 x L=1..5 then tiles=-1 x L=1: the five valid
  // points complete, the sixth throws, and the remaining four never run.
  EXPECT_EQ(evaluated, 5);
}

// ----------------------------------------------------------------- Pareto

const std::vector<Metric> kTriple = {Metric::kEnergy, Metric::kLatency,
                                     Metric::kArea};
const std::vector<Metric> kWithPower = {Metric::kEnergy, Metric::kLatency,
                                        Metric::kArea, Metric::kPower};
const std::vector<Metric> kWithPowerP99 = {
    Metric::kEnergy, Metric::kLatency, Metric::kArea, Metric::kPower,
    Metric::kP99Latency};

/// The axis lists a sweep can mark over (pareto_axes yields the last
/// three), plus one- and two-axis lists for the skyline's edge cases.
const std::vector<std::vector<Metric>> kAxisLists = {
    {Metric::kEnergy},
    {Metric::kEnergy, Metric::kLatency},
    kTriple,
    kWithPower,
    kWithPowerP99};

bool finite_on(const DsePoint& p, const std::vector<Metric>& axes) {
  return std::all_of(axes.begin(), axes.end(), [&](Metric axis) {
    return std::isfinite(p.metric(axis));
  });
}

bool dominates(const DsePoint& a, const DsePoint& b,
               const std::vector<Metric>& axes) {
  bool strictly = false;
  for (Metric axis : axes) {
    if (a.metric(axis) > b.metric(axis)) return false;
    if (a.metric(axis) < b.metric(axis)) strictly = true;
  }
  return strictly;
}

/// The definition, checked pair by pair: a point is on the frontier iff
/// it is finite on every axis and no finite point dominates it.
std::vector<bool> brute_force_pareto(const std::vector<DsePoint>& points,
                                     const std::vector<Metric>& axes) {
  std::vector<bool> flags(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    flags[i] = finite_on(points[i], axes) &&
               std::none_of(points.begin(), points.end(),
                            [&](const DsePoint& other) {
                              return finite_on(other, axes) &&
                                     dominates(other, points[i], axes);
                            });
  }
  return flags;
}

template <typename Draw>
std::vector<DsePoint> cloud(size_t n, Draw draw) {
  std::vector<DsePoint> points(n);
  for (auto& p : points) {
    p.energy_pJ = draw();
    p.latency_ns = draw();
    p.area_mm2 = draw();
    p.power_W = draw();
    p.p99_latency_ns = draw();
  }
  return points;
}

void expect_brute_force_verdicts(std::vector<DsePoint> points,
                                 const std::vector<Metric>& axes,
                                 const std::string& label) {
  mark_pareto_frontier(points, axes);
  const std::vector<bool> expected = brute_force_pareto(points, axes);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(points[i].pareto, expected[i])
        << label << " axes=" << axes.size() << " i=" << i << " ("
        << points[i].energy_pJ << "," << points[i].latency_ns << ","
        << points[i].area_mm2 << "," << points[i].power_W << ","
        << points[i].p99_latency_ns << ")";
  }
}

TEST(Dse, ParetoSweepMatchesBruteForceOnRandomPoints) {
  util::Rng rng(123);
  for (size_t n : {0u, 1u, 2u, 3u, 50u, 300u}) {
    const std::vector<DsePoint> points =
        cloud(n, [&] { return rng.uniform(0.0, 100.0); });
    for (const auto& axes : kAxisLists) {
      expect_brute_force_verdicts(points, axes, "n=" + std::to_string(n));
    }
  }
}

TEST(Dse, ParetoSweepMatchesBruteForceWithTiesAndDuplicates) {
  // A coarse value alphabet forces equal coordinates, equal pairs, and
  // exact duplicate tuples — the tie-handling corner cases of the sweep.
  util::Rng rng(321);
  for (int round = 0; round < 20; ++round) {
    const std::vector<DsePoint> points = cloud(120, [&] {
      return static_cast<double>(rng.uniform_int(0, 3));
    });
    for (const auto& axes : kAxisLists) {
      expect_brute_force_verdicts(points, axes,
                                  "round=" + std::to_string(round));
    }
  }
}

TEST(Dse, ParetoSweepKeepsAnAntiCorrelatedCloudWhole) {
  // Energy rising exactly as latency falls: no point dominates another,
  // so every point is on the frontier — the skyline's worst case, where
  // each point is tested against all accepted before it.
  util::Rng rng(77);
  std::vector<DsePoint> points =
      cloud(400, [&] { return rng.uniform(0.0, 100.0); });
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].energy_pJ = static_cast<double>((i * 7) % points.size());
    points[i].latency_ns = 1000.0 - points[i].energy_pJ;
  }
  const std::vector<Metric> axes = {Metric::kEnergy, Metric::kLatency};
  expect_brute_force_verdicts(points, axes, "anti-correlated");
  mark_pareto_frontier(points, axes);
  for (const DsePoint& p : points) EXPECT_TRUE(p.pareto);
}

TEST(Dse, ParetoNonFiniteOnAnExtraAxisOnlyExcludesThePoint) {
  // Point 0 dominates everything on the triple, but carries NaN power or
  // inf p99: it leads the triple's frontier and is off every list that
  // reaches its non-finite axis, where the others are judged without it.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<DsePoint> points(3);
    for (size_t i = 0; i < points.size(); ++i) {
      points[i].energy_pJ = points[i].latency_ns = points[i].area_mm2 =
          1.0 + static_cast<double>(i);
      points[i].power_W = 3.0 - static_cast<double>(i);
      points[i].p99_latency_ns = 1.0;
    }
    points[0].power_W = bad;
    mark_pareto_frontier(points, kTriple);
    EXPECT_TRUE(points[0].pareto);
    EXPECT_FALSE(points[1].pareto);
    EXPECT_FALSE(points[2].pareto);
    mark_pareto_frontier(points, kWithPower);
    EXPECT_FALSE(points[0].pareto);
    EXPECT_TRUE(points[1].pareto);
    EXPECT_TRUE(points[2].pareto);
    expect_brute_force_verdicts(points, kWithPower, "bad power");

    points[0].power_W = 0.5;
    points[0].p99_latency_ns = bad;
    mark_pareto_frontier(points, kWithPower);
    EXPECT_TRUE(points[0].pareto);
    mark_pareto_frontier(points, kWithPowerP99);
    EXPECT_FALSE(points[0].pareto);
    EXPECT_TRUE(points[1].pareto);
    expect_brute_force_verdicts(points, kWithPowerP99, "bad p99");
  }
}

TEST(Dse, ParetoRejectsAnEmptyAxisList) {
  std::vector<DsePoint> points(2);
  EXPECT_THROW(mark_pareto_frontier(points, {}), std::invalid_argument);
  EXPECT_THROW((void)merge({}, {}), std::invalid_argument);
}

TEST(Dse, ParetoSweepResetsStaleFlags) {
  std::vector<DsePoint> points(2);
  points[0].energy_pJ = points[0].latency_ns = points[0].area_mm2 = 2.0;
  points[0].pareto = true;  // stale flag from a previous pass
  points[1].energy_pJ = points[1].latency_ns = points[1].area_mm2 = 1.0;
  mark_pareto_frontier(points);
  EXPECT_FALSE(points[0].pareto);
  EXPECT_TRUE(points[1].pareto);
}

}  // namespace
}  // namespace simphony::core
