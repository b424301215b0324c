// Heap-allocation regression gate for the per-design-point hot path.
//
// Each tests/*.cpp builds into its own binary (CMake GLOB), so this file
// can replace the global operator new/delete with counting versions
// without touching any other test.  The property pinned here backs the
// arena + SoA + fingerprint-caching work: once the cost cache and the
// thread-local scratch arena are warm, evaluating a design point costs a
// small CONSTANT number of heap allocations — independent of how many
// points the sweep evaluates.  A failure means someone put a per-point
// (or worse, per-pair) malloc back on the critical path.
//
// Skipped under AddressSanitizer: ASan interposes its own operator
// new/delete and double-replacement is undefined.
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#define SIMPHONY_ALLOC_COUNT_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIMPHONY_ALLOC_COUNT_DISABLED 1
#endif
#endif

#ifndef SIMPHONY_ALLOC_COUNT_DISABLED

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#include "arch/prebuilt.h"
#include "core/mapper.h"
#include "core/simulator.h"
#include "core/workload_set.h"
#include "energy/operand_power.h"
#include "util/arena.h"
#include "util/rng.h"
#include "workload/onn_convert.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace simphony::core {
namespace {

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

template <typename F>
std::uint64_t count_allocations(F&& f) {
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Measures warm-path allocations per design point for `mapper` and
/// checks the two O(1) properties: the per-point cost is (a) identical
/// at different repeat counts (no growth with sweep length) and (b)
/// below an absolute budget.
void expect_constant_allocs_per_point(const Simulator& sim,
                                      const WorkloadSet::Entry& entry,
                                      const Mapper& mapper,
                                      std::uint64_t budget) {
  const auto evaluate = [&] {
    const ModelTotals totals = sim.simulate_gemms_totals(
        entry.gemms, mapper, nullptr, entry.gemm_fingerprints.data());
    ASSERT_GT(totals.energy_pJ(), 0.0);
  };
  for (int i = 0; i < 4; ++i) evaluate();  // warm cache + arena + tables

  const std::uint64_t short_run = count_allocations([&] {
    for (int i = 0; i < 8; ++i) evaluate();
  });
  const std::uint64_t long_run = count_allocations([&] {
    for (int i = 0; i < 64; ++i) evaluate();
  });
  const double per_point_short = static_cast<double>(short_run) / 8.0;
  const double per_point_long = static_cast<double>(long_run) / 64.0;
  std::printf("[alloc-count] %s: %.1f allocs/point (short run %.1f)\n",
              mapper.name().c_str(), per_point_long, per_point_short);
  // (a) steady state: the long run may not cost more per point than the
  // short one (one point of slack absorbs hash-table jitter).
  EXPECT_LE(per_point_long, per_point_short + 1.0) << mapper.name();
  // (b) absolute budget, constant w.r.t. sweep length.
  EXPECT_LE(per_point_long, static_cast<double>(budget)) << mapper.name();
}

TEST(AllocCount, WarmDesignPointCostsConstantHeapAllocations) {
  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const Simulator sim(scatter_mzi_system(), options);

  WorkloadSet set;
  workload::Model model = workload::mlp_mnist();
  workload::convert_model_in_place(model);
  const WorkloadSet::Entry& entry = set.add(std::move(model));

  // Today's warm paths measure ~70 allocs/point (memory-hierarchy sizing
  // + cost-matrix vectors + the chosen Mapping); the budget leaves < 2x
  // headroom so a per-pair or per-layer malloc regression trips it.
  const std::uint64_t budget = 128;
  {
    SCOPED_TRACE("greedy");
    expect_constant_allocs_per_point(sim, entry, GreedyMapper(), budget);
  }
  {
    SCOPED_TRACE("beam");
    expect_constant_allocs_per_point(
        sim, entry, BeamMapper(4), budget);
  }
  {
    SCOPED_TRACE("bnb");
    expect_constant_allocs_per_point(
        sim, entry, BranchBoundMapper(), budget);
  }
}

TEST(AllocCount, MapperScratchStaysOffTheHeapOnceWarm) {
  // The thread-local arena must stop requesting heap blocks after the
  // first few points; mapper scratch then costs zero mallocs.
  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const Simulator sim(scatter_mzi_system(), options);

  WorkloadSet set;
  workload::Model model = workload::mlp_mnist();
  workload::convert_model_in_place(model);
  const WorkloadSet::Entry& entry = set.add(std::move(model));

  const BeamMapper mapper(8);
  for (int i = 0; i < 4; ++i) {
    (void)sim.simulate_gemms_totals(entry.gemms, mapper, nullptr,
                                    entry.gemm_fingerprints.data());
  }
  const size_t warm_blocks = util::thread_scratch().heap_blocks();
  for (int i = 0; i < 32; ++i) {
    (void)sim.simulate_gemms_totals(entry.gemms, mapper, nullptr,
                                    entry.gemm_fingerprints.data());
  }
  EXPECT_EQ(util::thread_scratch().heap_blocks(), warm_blocks);
}

TEST(AllocCount, OperandPowerMemoHitsDoNotAllocate) {
  // A cost-cache miss at a new design point looks its weight walk up in
  // the memo; once the walk is stored, the lookup is heap-free.
  workload::Model model = workload::mlp_mnist();
  const workload::Tensor& weights = model.layers.front().weights;
  energy::OperandPowerMemo memo;
  const double walked = memo.mean_power_mW(
      42, 20.0, devlib::PowerFidelity::kTabulated, weights.data());
  double hit = 0.0;
  const std::uint64_t allocations = count_allocations([&] {
    for (int i = 0; i < 64; ++i) {
      hit = memo.mean_power_mW(42, 20.0, devlib::PowerFidelity::kTabulated,
                               weights.data());
    }
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(hit, walked);
  EXPECT_EQ(memo.stats().walks, 1u);
  EXPECT_EQ(memo.stats().hits, 64u);
}

TEST(AllocCount, OperandPowerWalkDoesNotGrowWithItsInput) {
  // The walk's level memo is fixed-size: 10 values and 1 M distinct
  // values cost the same allocations, of the same bytes (those of
  // building the power model).
  util::Rng rng(9);
  const workload::Tensor few = workload::Tensor::randn({10}, rng);
  const workload::Tensor many = workload::Tensor::randn({1 << 20}, rng);
  for (const devlib::PowerFidelity fidelity :
       {devlib::PowerFidelity::kAnalytical,
        devlib::PowerFidelity::kTabulated}) {
    const auto walk = [&](const workload::Tensor& t) {
      const std::uint64_t bytes_before =
          g_allocated_bytes.load(std::memory_order_relaxed);
      const std::uint64_t allocations = count_allocations([&] {
        (void)energy::walk_mean_power_mW(20.0, fidelity, t.data());
      });
      return std::pair{allocations,
                       g_allocated_bytes.load(std::memory_order_relaxed) -
                           bytes_before};
    };
    EXPECT_EQ(walk(few), walk(many)) << devlib::to_string(fidelity);
  }
}

}  // namespace
}  // namespace simphony::core

#else  // SIMPHONY_ALLOC_COUNT_DISABLED

TEST(AllocCount, SkippedUnderSanitizers) {
  GTEST_SKIP() << "operator new/delete replacement conflicts with ASan";
}

#endif  // SIMPHONY_ALLOC_COUNT_DISABLED
