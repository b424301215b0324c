#include "energy/energy_model.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "arch/prebuilt.h"
#include "energy/operand_power.h"
#include "util/rng.h"
#include "workload/model.h"

namespace simphony::energy {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

struct Ctx {
  arch::SubArchitecture sub;
  workload::Model model;
  workload::GemmWorkload gemm;
  dataflow::DataflowResult mapped;
  arch::LinkBudgetReport link;
  memory::MemoryHierarchy memory;
  memory::TrafficResult traffic;

  explicit Ctx(arch::PtcTemplate t, arch::ArchParams p = {},
               workload::Model m = workload::single_gemm_model(280, 28, 280))
      : sub(std::move(t), p, g_lib),
        model(std::move(m)),
        gemm(workload::gemm_of_layer(model.layers.front())),
        mapped(dataflow::map_gemm(sub, gemm)),
        link(arch::analyze_link_budget(sub, gemm.input_bits)),
        memory(memory::build_memory_hierarchy({&sub}, {gemm})),
        traffic(memory::analyze_traffic(sub, gemm, mapped, memory)) {}

  EnergyBreakdown energy(const EnergyOptions& opt = {},
                         OperandPowerMemo* memo = nullptr,
                         uint64_t gemm_key = 0) const {
    return compute_energy(sub, gemm, mapped, link, &traffic, opt, memo,
                          gemm_key);
  }
};

TEST(EnergyBreakdown, ContainerSemantics) {
  EnergyBreakdown e;
  e.add("DAC", 10.0);
  e.add("DAC", 5.0);
  e.add("ADC", 2.0);
  EXPECT_DOUBLE_EQ(e.get("DAC"), 15.0);
  EXPECT_DOUBLE_EQ(e.total_pJ(), 17.0);
  EXPECT_DOUBLE_EQ(e.get("missing"), 0.0);
  EnergyBreakdown other;
  other.add("DAC", 1.0);
  e.merge(other);
  EXPECT_DOUBLE_EQ(e.get("DAC"), 16.0);
  e.scale(2.0);
  EXPECT_DOUBLE_EQ(e.total_pJ(), 36.0);
  EXPECT_DOUBLE_EQ(e.average_power_mW(36.0), 1.0);
  EXPECT_DOUBLE_EQ(e.average_power_mW(0.0), 0.0);
}

TEST(EnergyModel, TempoHasAllExpectedCategories) {
  Ctx ctx(arch::tempo_template());
  const EnergyBreakdown e = ctx.energy();
  for (const char* cat : {"Laser", "PS", "PD", "MZM", "ADC", "DAC", "TIA",
                          "Integrator", "DM"}) {
    EXPECT_GT(e.get(cat), 0.0) << cat;
  }
}

TEST(EnergyModel, LaserEnergyMatchesLinkBudgetTimesRuntime) {
  Ctx ctx(arch::tempo_template());
  const EnergyBreakdown e = ctx.energy();
  EXPECT_NEAR(e.get("Laser"),
              ctx.link.total_laser_power_mW * ctx.mapped.runtime_ns, 1e-6);
}

TEST(EnergyModel, DataMovementCanBeExcluded) {
  Ctx ctx(arch::tempo_template());
  EnergyOptions opt;
  opt.include_data_movement = false;
  EXPECT_DOUBLE_EQ(ctx.energy(opt).get("DM"), 0.0);
  EXPECT_GT(ctx.energy().get("DM"), 0.0);
}

TEST(EnergyModel, PruningGatesWeightEncoders) {
  workload::Model dense = workload::single_gemm_model(128, 64, 64, 1, 0.0);
  workload::Model sparse = workload::single_gemm_model(128, 64, 64, 1, 0.5);
  Ctx d(arch::tempo_template(), {}, std::move(dense));
  Ctx s(arch::tempo_template(), {}, std::move(sparse));
  const double dac_dense = d.energy().get("DAC");
  const double dac_sparse = s.energy().get("DAC");
  EXPECT_LT(dac_sparse, dac_dense);
  // Only the B-side DACs gate: reduction < full 50%.
  EXPECT_GT(dac_sparse, 0.5 * dac_dense);
}

TEST(EnergyModel, DataUnawareChargesFullPPiOnWeightCells) {
  arch::ArchParams p;
  p.wavelengths = 1;
  Ctx ctx(arch::scatter_template(), p,
          workload::single_gemm_model(100, 8, 8));
  EnergyOptions unaware;
  unaware.data_aware = false;
  unaware.fidelity = devlib::PowerFidelity::kDataUnaware;
  EnergyOptions aware;  // tabulated by default
  const double ps_unaware = ctx.energy(unaware).get("PS");
  const double ps_aware = ctx.energy(aware).get("PS");
  EXPECT_GT(ps_unaware, ps_aware);
  // The unaware case equals p_pi x cells x runtime.
  const double p_pi = g_lib.get("ps").prop("p_pi_mW");
  EXPECT_NEAR(ps_unaware,
              p_pi * static_cast<double>(ctx.sub.count_of("ps_w")) *
                  ctx.mapped.runtime_ns,
              1e-6);
}

TEST(EnergyModel, AnalyticalVsTabulatedOrdering) {
  arch::ArchParams p;
  p.wavelengths = 1;
  workload::Model m = workload::single_gemm_model(100, 8, 8);
  {
    util::Rng rng(3);
    m.layers.front().weights =
        workload::Tensor::uniform({8, 8}, rng, -0.8, 0.8);
  }
  Ctx ctx(arch::scatter_template(), p, std::move(m));
  EnergyOptions analytical;
  analytical.fidelity = devlib::PowerFidelity::kAnalytical;
  EnergyOptions tabulated;
  tabulated.fidelity = devlib::PowerFidelity::kTabulated;
  const double ps_lin = ctx.energy(analytical).get("PS");
  const double ps_lut = ctx.energy(tabulated).get("PS");
  // Measured curve sits slightly below the linear model (paper Fig. 10b).
  EXPECT_LT(ps_lut, ps_lin);
  EXPECT_GT(ps_lut, 0.9 * ps_lin);
}

TEST(EnergyModel, PcmCellsPayWriteEnergyNotHoldPower) {
  arch::ArchParams p;
  p.wavelengths = 1;
  Ctx ctx(arch::pcm_crossbar_template(), p,
          workload::single_gemm_model(64, 32, 32));
  const EnergyBreakdown e = ctx.energy();
  const double writes = static_cast<double>(ctx.mapped.reconfig_events) *
                        static_cast<double>(ctx.sub.count_of("pcm_w"));
  const double expected_pJ =
      g_lib.get("pcm_cell").dynamic_energy_fJ * writes * 1e-3;
  EXPECT_NEAR(e.get("PCM"), expected_pJ, expected_pJ * 0.5 + 1e-9);
}

TEST(EnergyModel, AdcEnergyScalesWithOutputBits) {
  workload::Model m8 = workload::single_gemm_model(128, 64, 64);
  workload::Model m4 = workload::single_gemm_model(128, 64, 64);
  m4.layers.front().output_bits = 4;
  Ctx c8(arch::tempo_template(), {}, std::move(m8));
  Ctx c4(arch::tempo_template(), {}, std::move(m4));
  EXPECT_NEAR(c8.energy().get("ADC") / c4.energy().get("ADC"), 16.0, 1e-6);
}

TEST(EnergyModel, SoaCountedUnderLaserForLt) {
  arch::ArchParams p;
  p.tiles = 4;
  p.core_height = 12;
  p.core_width = 12;
  p.wavelengths = 12;
  Ctx ctx(arch::lightening_transformer_template(), p,
          workload::single_gemm_model(197, 768, 768));
  const EnergyBreakdown e = ctx.energy();
  // Laser category includes the SOA static power on top of the comb.
  const double comb_only =
      ctx.link.total_laser_power_mW * ctx.mapped.runtime_ns;
  EXPECT_GT(e.get("Laser"), comb_only);
}

// ------------------------------------------------- operand-power memo

constexpr devlib::PowerFidelity kFidelities[] = {
    devlib::PowerFidelity::kDataUnaware, devlib::PowerFidelity::kAnalytical,
    devlib::PowerFidelity::kTabulated};

TEST(OperandPowerMemo, MemoizedEnergyIsBitIdenticalToTheWalk) {
  arch::ArchParams p;
  p.wavelengths = 1;
  for (const double prune : {0.0, 0.5}) {
    Ctx ctx(arch::scatter_template(), p,
            workload::single_gemm_model(100, 16, 16, 7, prune));
    for (const devlib::PowerFidelity fidelity : kFidelities) {
      for (const bool data_aware : {true, false}) {
        SCOPED_TRACE(devlib::to_string(fidelity) +
                     " data_aware=" + std::to_string(data_aware) +
                     " prune=" + std::to_string(prune));
        EnergyOptions opt;
        opt.fidelity = fidelity;
        opt.data_aware = data_aware;
        const EnergyBreakdown walked = ctx.energy(opt);
        OperandPowerMemo memo;
        // First call fills the memo (when the branch walks), second hits.
        for (int pass = 0; pass < 2; ++pass) {
          const EnergyBreakdown memoized = ctx.energy(opt, &memo, 0x5eed);
          EXPECT_EQ(memoized.entries(), walked.entries()) << pass;
          EXPECT_EQ(memoized.total_pJ(), walked.total_pJ()) << pass;
        }
        // Only the data-aware walk consults the memo.
        const bool walks =
            data_aware && fidelity != devlib::PowerFidelity::kDataUnaware;
        EXPECT_EQ(memo.stats().walks, walks ? 1u : 0u);
        EXPECT_EQ(memo.size(), walks ? 1u : 0u);
      }
    }
  }
}

TEST(OperandPowerMemo, KeyedOnContentKeyPPiAndFidelity) {
  util::Rng rng(11);
  const workload::Tensor a = workload::Tensor::uniform({32, 32}, rng);
  const workload::Tensor b = workload::Tensor::uniform({32, 32}, rng);
  OperandPowerMemo memo;
  const auto tab = devlib::PowerFidelity::kTabulated;
  const auto lin = devlib::PowerFidelity::kAnalytical;
  const double va = memo.mean_power_mW(1, 20.0, tab, a.data());
  const double vb = memo.mean_power_mW(2, 20.0, tab, b.data());
  EXPECT_EQ(va, walk_mean_power_mW(20.0, tab, a.data()));
  EXPECT_EQ(vb, walk_mean_power_mW(20.0, tab, b.data()));
  EXPECT_NE(va, vb);
  EXPECT_EQ(memo.mean_power_mW(1, 20.0, lin, a.data()),
            walk_mean_power_mW(20.0, lin, a.data()));
  EXPECT_EQ(memo.mean_power_mW(1, 10.0, tab, a.data()),
            walk_mean_power_mW(10.0, tab, a.data()));
  EXPECT_EQ(memo.stats().walks, 4u);
  // A repeat of any key is a hit.
  EXPECT_EQ(memo.mean_power_mW(2, 20.0, tab, b.data()), vb);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().misses, 4u);
  EXPECT_EQ(memo.size(), 4u);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.stats().walks, 0u);
  EXPECT_EQ(memo.mean_power_mW(2, 20.0, tab, b.data()), vb);
  EXPECT_EQ(memo.stats().walks, 1u);
}

// Single flight: however many threads race on the same keys, each key is
// walked exactly once and every caller gets the walk's own double.
TEST(OperandPowerMemo, WalksOncePerKeyAtAnyThreadCount) {
  util::Rng rng(5);
  std::vector<workload::Tensor> tensors;
  for (int i = 0; i < 4; ++i) {
    tensors.push_back(workload::Tensor::uniform({256, 256}, rng));
  }
  const devlib::PowerFidelity fidelities[] = {
      devlib::PowerFidelity::kAnalytical, devlib::PowerFidelity::kTabulated};
  std::vector<double> expected;
  for (const devlib::PowerFidelity f : fidelities) {
    for (const workload::Tensor& t : tensors) {
      expected.push_back(walk_mean_power_mW(20.0, f, t.data()));
    }
  }
  const size_t keys = expected.size();
  constexpr int kRounds = 3;

  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    OperandPowerMemo memo;
    std::vector<int> mismatches(static_cast<size_t>(threads), 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < keys; ++i) {
            // Every thread starts on the same key: first misses collide.
            const size_t k = (i + static_cast<size_t>(round)) % keys;
            const size_t tensor = k % tensors.size();
            const double got = memo.mean_power_mW(
                tensor, 20.0, fidelities[k / tensors.size()],
                tensors[tensor].data());
            if (got != expected[k]) ++mismatches[static_cast<size_t>(t)];
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (const int m : mismatches) EXPECT_EQ(m, 0);
    const OperandPowerMemo::Stats stats = memo.stats();
    EXPECT_EQ(stats.walks, keys);
    EXPECT_EQ(memo.size(), keys);
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<uint64_t>(threads) * kRounds * keys);
    EXPECT_GE(stats.misses, stats.walks);
  }
}

class FidelitySweep
    : public ::testing::TestWithParam<devlib::PowerFidelity> {};

TEST_P(FidelitySweep, AllTemplatesProducePositiveEnergy) {
  arch::ArchParams p;
  for (const auto& t : arch::all_templates()) {
    Ctx ctx(t, p, workload::single_gemm_model(64, 32, 32));
    EnergyOptions opt;
    opt.fidelity = GetParam();
    const EnergyBreakdown e = ctx.energy(opt);
    EXPECT_GT(e.total_pJ(), 0.0) << t.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fidelities, FidelitySweep,
    ::testing::Values(devlib::PowerFidelity::kDataUnaware,
                      devlib::PowerFidelity::kAnalytical,
                      devlib::PowerFidelity::kTabulated));

}  // namespace
}  // namespace simphony::energy
