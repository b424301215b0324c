#include "core/mapper.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "util/rng.h"
#include "workload/onn_convert.h"

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

workload::Model pruned_vgg8() {
  workload::Model model = workload::vgg8_cifar10(42, 0.3);
  workload::convert_model_in_place(model);
  return model;
}

/// A random small model mixing static linears and (sometimes) dynamic
/// matmuls, for oracle comparisons.
workload::Model random_model(util::Rng& rng, size_t num_layers,
                             bool allow_dynamic) {
  workload::Model model;
  model.name = "random";
  for (size_t i = 0; i < num_layers; ++i) {
    const int in = 8 << rng.uniform_int(0, 3);
    const int out = 8 << rng.uniform_int(0, 3);
    if (allow_dynamic && rng.uniform_int(0, 3) == 0) {
      model.layers.push_back(workload::make_matmul(
          "mm" + std::to_string(i), workload::LayerType::kMatMulQK, in, 16,
          out, 2));
    } else {
      util::Rng wrng(7 + i);
      model.layers.push_back(workload::make_linear(
          "fc" + std::to_string(i), in, out, wrng));
    }
  }
  return model;
}

double report_edp(const ModelReport& report) {
  return report.total_energy.total_pJ() * report.total_runtime_ns;
}

/// Bit-exact equality, with any NaN equal to any NaN (0 * inf may fold
/// to a NaN of either sign at compile time).
void expect_same_bits(double got, double want) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << got;
  } else {
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << got << " vs " << want;
  }
}

TEST(Mapper, ObjectiveParsingAndScalarization) {
  const ObjectiveSpec latency = ObjectiveSpec::parse("latency");
  const ObjectiveSpec energy = ObjectiveSpec::parse("energy");
  const ObjectiveSpec edp = ObjectiveSpec::parse("edp");
  const double inf = std::numeric_limits<double>::infinity();
  for (double e : {0.0, 2.0, inf}) {
    for (double l : {0.0, 3.0, inf}) {
      expect_same_bits(latency.mapper_score(e, l), l);
      expect_same_bits(energy.mapper_score(e, l), e);
      expect_same_bits(edp.mapper_score(e, l), e * l);
      expect_same_bits(ObjectiveSpec().mapper_score(e, l), e * l);
    }
  }
  EXPECT_THROW((void)ObjectiveSpec::parse("EDP"), std::invalid_argument);
  EXPECT_TRUE(ObjectiveSpec().canned_objective());
  for (const ObjectiveSpec& spec : {latency, energy, edp}) {
    EXPECT_TRUE(spec.canned_objective()) << spec.text();
  }
  EXPECT_FALSE(ObjectiveSpec::parse("1.0*edp").canned_objective());
  EXPECT_FALSE(ObjectiveSpec::parse("area").canned_objective());
}

TEST(Mapper, CostMatrixMarksInfeasiblePairs) {
  arch::ArchParams params;
  arch::Architecture system("lt+mzi");
  system.add_subarch(arch::SubArchitecture(
      arch::lightening_transformer_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
  const Simulator sim(std::move(system));

  workload::Model model;
  model.name = "attn";
  model.layers.push_back(workload::make_matmul(
      "qk", workload::LayerType::kMatMulQK, 32, 16, 32, 2));
  const auto gemms = workload::extract_gemms(model);
  const CostMatrix costs = sim.build_cost_matrix(gemms);

  ASSERT_EQ(costs.num_gemms(), 1u);
  ASSERT_EQ(costs.num_subarchs(), 2u);
  EXPECT_TRUE(costs.at(0, 0).feasible);
  EXPECT_FALSE(costs.at(0, 1).feasible);
  EXPECT_FALSE(costs.at(0, 1).error.empty());
  EXPECT_EQ(costs.feasible_row(0)[1], 0);
  EXPECT_TRUE(std::isinf(costs.energy_row(0)[1]));
  EXPECT_TRUE(std::isinf(costs.latency_row(0)[1]));
  EXPECT_EQ(costs.feasible_subarchs(0), std::vector<size_t>{0});
}

// The two public entry points — the MappingConfig overload (which now
// delegates through RuleMapper) and an explicit RuleMapper — must agree
// bit for bit, and the assignment must follow MappingConfig::resolve for
// every GEMM.  (The pre-refactor numeric behavior itself is pinned by the
// unchanged seed suites: test_simulator, test_integration, test_mapping.)
TEST(Mapper, RuleMapperBitIdenticalToLegacyConfig) {
  const workload::Model model = pruned_vgg8();
  const Simulator sim(scatter_mzi_system());

  MappingConfig config(0);
  config.route_type(workload::LayerType::kConv2d, 0);
  config.route_type(workload::LayerType::kLinear, 1);

  const ModelReport legacy = sim.simulate_model(model, config);
  Mapping mapping;
  const ModelReport via_mapper =
      sim.simulate_model(model, RuleMapper(config), &mapping);

  ASSERT_EQ(legacy.layers.size(), via_mapper.layers.size());
  const auto gemms = workload::extract_gemms(model);
  for (size_t i = 0; i < legacy.layers.size(); ++i) {
    EXPECT_EQ(legacy.layers[i].subarch_index,
              via_mapper.layers[i].subarch_index);
    EXPECT_EQ(mapping.assignment[i], config.resolve(gemms[i]));
    EXPECT_EQ(legacy.layers[i].runtime_ns(),
              via_mapper.layers[i].runtime_ns());
    EXPECT_EQ(legacy.layers[i].energy_pJ(),
              via_mapper.layers[i].energy_pJ());
  }
  EXPECT_EQ(legacy.total_runtime_ns, via_mapper.total_runtime_ns);
  EXPECT_EQ(legacy.total_energy.total_pJ(),
            via_mapper.total_energy.total_pJ());
  // A costless strategy leaves predictions at zero.
  EXPECT_EQ(mapping.predicted_cost, 0.0);
}

TEST(Mapper, GreedyMatchesExhaustiveForAdditiveObjectives) {
  util::Rng rng(11);
  const Simulator sim(scatter_mzi_system());
  for (int round = 0; round < 3; ++round) {
    workload::Model model = random_model(rng, 4, /*allow_dynamic=*/false);
    workload::convert_model_in_place(model);
    const auto gemms = workload::extract_gemms(model);
    const CostMatrix costs = sim.build_cost_matrix(gemms);
    MappingProblem problem{&gemms, &costs, 2};

    for (const char* name : {"latency", "energy"}) {
      const ObjectiveSpec obj = ObjectiveSpec::parse(name);
      const Mapping greedy = GreedyMapper(obj).map(problem);
      const Mapping exact = ExhaustiveMapper(obj).map(problem);
      EXPECT_EQ(greedy.assignment, exact.assignment) << round;
      EXPECT_EQ(greedy.predicted_cost, exact.predicted_cost) << round;
    }
  }
}

// The acceptance oracle: with width >= S^(n-1) the beam never prunes, so
// it must match full enumeration exactly — on models with up to 6 layers
// and 3 sub-architectures, including infeasible (dynamic, mesh) pairs.
TEST(Mapper, BeamMatchesExhaustiveOracleOnRandomSmallModels) {
  arch::ArchParams params;
  arch::Architecture system("three-way");
  system.add_subarch(
      arch::SubArchitecture(arch::tempo_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
  const Simulator sim(std::move(system));

  util::Rng rng(23);
  for (int round = 0; round < 6; ++round) {
    const size_t layers = static_cast<size_t>(rng.uniform_int(1, 6));
    workload::Model model = random_model(rng, layers, /*allow_dynamic=*/true);
    workload::convert_model_in_place(model);
    const auto gemms = workload::extract_gemms(model);
    const CostMatrix costs = sim.build_cost_matrix(gemms);
    MappingProblem problem{&gemms, &costs, 3};

    const size_t exhaustive_width = 243;  // 3^5 >= S^(n-1) for n <= 6
    const Mapping beam =
        BeamMapper(exhaustive_width).map(problem);
    const Mapping exact =
        ExhaustiveMapper().map(problem);
    EXPECT_EQ(beam.assignment, exact.assignment)
        << "round=" << round << " layers=" << layers;
    EXPECT_EQ(beam.predicted_cost, exact.predicted_cost) << round;
    EXPECT_EQ(beam.predicted_energy_pJ, exact.predicted_energy_pJ) << round;
    EXPECT_EQ(beam.predicted_latency_ns, exact.predicted_latency_ns)
        << round;
  }
}

TEST(Mapper, BeamParallelBitIdenticalToSerial) {
  const Simulator sim(scatter_mzi_system());
  util::Rng rng(5);
  workload::Model model = random_model(rng, 6, /*allow_dynamic=*/false);
  workload::convert_model_in_place(model);
  const auto gemms = workload::extract_gemms(model);
  const CostMatrix costs = sim.build_cost_matrix(gemms);
  MappingProblem problem{&gemms, &costs, 2};

  const Mapping serial =
      BeamMapper(8, {}, /*num_threads=*/1).map(problem);
  for (int threads : {0, 2, 4, 8}) {
    const Mapping parallel =
        BeamMapper(8, {}, threads).map(problem);
    EXPECT_EQ(parallel.assignment, serial.assignment) << threads;
    EXPECT_EQ(parallel.predicted_cost, serial.predicted_cost) << threads;
    EXPECT_EQ(parallel.predicted_energy_pJ, serial.predicted_energy_pJ)
        << threads;
    EXPECT_EQ(parallel.predicted_latency_ns, serial.predicted_latency_ns)
        << threads;
  }
}

// Acceptance criterion: on the VGG8 heterogeneous scenario the searched
// mappings must be at least as good (EDP) as the hand-written rule route,
// and the report assembled from the cost matrix must agree with the
// search's own prediction.
TEST(Mapper, SearchedMappingsNoWorseThanFixedRulesOnVgg8Hetero) {
  const workload::Model model = pruned_vgg8();
  const Simulator sim(scatter_mzi_system());

  MappingConfig rules(0);
  rules.route_type(workload::LayerType::kConv2d, 0);
  rules.route_type(workload::LayerType::kLinear, 1);
  const ModelReport fixed = sim.simulate_model(model, rules);

  Mapping greedy_mapping;
  const ModelReport greedy = sim.simulate_model(
      model, GreedyMapper(), &greedy_mapping);
  Mapping beam_mapping;
  const ModelReport beam = sim.simulate_model(
      model, BeamMapper(8), &beam_mapping);

  EXPECT_LE(report_edp(greedy), report_edp(fixed));
  EXPECT_LE(report_edp(beam), report_edp(fixed));

  // The report is assembled from the same cost-matrix entries the search
  // scored, so prediction and simulation agree exactly.
  EXPECT_EQ(greedy_mapping.predicted_latency_ns, greedy.total_runtime_ns);
  EXPECT_EQ(greedy_mapping.predicted_energy_pJ,
            greedy.total_energy.total_pJ());
  EXPECT_EQ(beam_mapping.predicted_latency_ns, beam.total_runtime_ns);
  EXPECT_EQ(beam_mapping.predicted_energy_pJ, beam.total_energy.total_pJ());
}

TEST(Mapper, GreedyRoutesDynamicLayersAwayFromStaticMesh) {
  arch::ArchParams params;
  arch::Architecture system("lt+mzi");
  const size_t kLt = system.add_subarch(arch::SubArchitecture(
      arch::lightening_transformer_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
  const Simulator sim(std::move(system));

  workload::Model model;
  model.name = "mini-attn";
  util::Rng wrng(3);
  model.layers.push_back(workload::make_linear("proj", 64, 64, wrng));
  model.layers.push_back(workload::make_matmul(
      "attn_qk", workload::LayerType::kMatMulQK, 32, 16, 32, 4));

  Mapping mapping;
  const ModelReport report = sim.simulate_model(
      model, GreedyMapper(), &mapping);
  ASSERT_EQ(mapping.assignment.size(), 2u);
  EXPECT_EQ(mapping.assignment[1], kLt);  // mesh is infeasible for QK^T
  EXPECT_GT(report.total_runtime_ns, 0.0);
}

TEST(Mapper, UnmappableLayerThrowsWithDiagnostics) {
  arch::ArchParams params;
  arch::Architecture system("mesh-only");
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
  const Simulator sim(std::move(system));

  workload::Model model;
  model.name = "attn-only";
  model.layers.push_back(workload::make_matmul(
      "qk", workload::LayerType::kMatMulQK, 32, 16, 32, 1));

  for (const Mapper* mapper :
       {static_cast<const Mapper*>(new GreedyMapper()),
        static_cast<const Mapper*>(new BeamMapper(4)),
        static_cast<const Mapper*>(new ExhaustiveMapper())}) {
    try {
      (void)sim.simulate_model(model, *mapper);
      FAIL() << mapper->name() << " accepted an unmappable layer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no sub-architecture can run"),
                std::string::npos)
          << mapper->name();
    }
    delete mapper;
  }
}

TEST(Mapper, MapperReturningBadAssignmentIsRejected) {
  struct BadSize final : Mapper {
    std::string name() const override { return "bad-size"; }
    bool needs_costs() const override { return false; }
    Mapping map(const MappingProblem&) const override { return {}; }
  };
  struct BadIndex final : Mapper {
    std::string name() const override { return "bad-index"; }
    bool needs_costs() const override { return false; }
    Mapping map(const MappingProblem& problem) const override {
      Mapping mapping;
      mapping.assignment.assign(problem.gemms->size(), 99);
      return mapping;
    }
  };

  const Simulator sim(scatter_mzi_system());
  const workload::Model model = workload::mlp_mnist();
  EXPECT_THROW((void)sim.simulate_model(model, BadSize{}),
               std::logic_error);
  EXPECT_THROW((void)sim.simulate_model(model, BadIndex{}),
               std::invalid_argument);
}

TEST(Mapper, SimulateGemmRejectsOutOfRangeSubarchIndex) {
  const Simulator sim(scatter_mzi_system());
  workload::GemmWorkload gemm;
  gemm.name = "g";
  gemm.n = gemm.d = gemm.m = 8;
  try {
    (void)sim.simulate_gemm(5, gemm);
    FAIL() << "out-of-range sub-arch index was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("out of range"), std::string::npos);
    EXPECT_NE(what.find("2 sub-architecture(s)"), std::string::npos);
  }
}

TEST(Mapper, OutOfRangeMappingConfigReportsIndexAndCount) {
  const Simulator sim(scatter_mzi_system());
  try {
    (void)sim.simulate_model(workload::mlp_mnist(), MappingConfig(7));
    FAIL() << "invalid mapping config was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid mapping config"), std::string::npos);
    EXPECT_NE(what.find("7"), std::string::npos);
    EXPECT_NE(what.find("2 sub-architecture(s)"), std::string::npos);
  }
}

// DseOptions::mapper routes each design point's layers under search: with
// a latency-greedy mapper on a heterogeneous template pair, every point
// must be at least as fast as the route-everything-to-sub-arch-0 default.
TEST(Mapper, DseMapperCostsPointsUnderSearchedMapping) {
  const std::vector<arch::PtcTemplate> templates = {
      arch::clements_mzi_template(), arch::scatter_template()};
  const workload::Model model = workload::mlp_mnist();
  DseSpace space;
  space.wavelengths = {1, 2};

  DseOptions fixed;
  fixed.num_threads = 1;
  const DseResult unmapped =
      explore(templates, g_lib, model, space, fixed);

  const GreedyMapper latency_greedy(ObjectiveSpec::parse("latency"));
  DseOptions searched = fixed;
  searched.mapper = &latency_greedy;
  const DseResult mapped =
      explore(templates, g_lib, model, space, searched);

  ASSERT_EQ(unmapped.points.size(), 2u);
  ASSERT_EQ(mapped.points.size(), 2u);
  for (size_t i = 0; i < mapped.points.size(); ++i) {
    EXPECT_LE(mapped.points[i].latency_ns, unmapped.points[i].latency_ns);
  }
}

}  // namespace
}  // namespace simphony::core
