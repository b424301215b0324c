// Example: heterogeneous multi-PTC architecture with mapping search
// (paper Fig. 11 scenario + §IV-B4 heterogeneous computing).
//
// A single chip hosts two photonic sub-architectures sharing one memory
// hierarchy: a SCATTER crossbar and a Clements MZI mesh.  The fixed
// hand-written rule (convs -> SCATTER, linears -> MZI) is compared against
// cost-driven mapping search: GreedyMapper (per-layer argmin) and
// BeamMapper (width-k beam over the layer order) and the exact
// BranchBoundMapper, all minimizing the model-level energy-delay product.
// The chosen assignment table and the EDP of each strategy are printed.
// Also demonstrates what happens if you try to route a dynamic workload
// to a static mesh.
#include <iostream>

#include "arch/prebuilt.h"
#include "core/simulator.h"
#include "util/table.h"
#include "workload/onn_convert.h"

int main() {
  using namespace simphony;

  devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::ArchParams params;  // 2 tiles, 2 cores/tile, 4x4
  params.wavelengths = 1;

  arch::Architecture system("hetero-epic");
  const size_t kScatter = system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, lib));
  const size_t kMzi = system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, lib));

  // The legacy fixed route: layer *type* decides the sub-architecture.
  core::MappingConfig rules(kScatter);
  rules.route_type(workload::LayerType::kConv2d, kScatter);
  rules.route_type(workload::LayerType::kLinear, kMzi);

  // 30% magnitude pruning: data-aware energy modeling power-gates the
  // pruned weight cells.
  workload::Model model = workload::vgg8_cifar10(42, /*prune_ratio=*/0.3);
  workload::convert_model_in_place(model);

  core::Simulator sim(system);

  const core::RuleMapper rule_mapper(rules);
  const core::GreedyMapper greedy;
  const core::BeamMapper beam(/*width=*/8);
  const core::BranchBoundMapper bnb;

  struct Run {
    const char* label;
    const core::Mapper* mapper;
    core::Mapping mapping;
    core::ModelReport report;
  };
  Run runs[] = {{"rules", &rule_mapper, {}, {}},
                {"greedy", &greedy, {}, {}},
                {"beam-8", &beam, {}, {}},
                {"bnb", &bnb, {}, {}}};
  for (auto& run : runs) {
    run.report = sim.simulate_model(model, *run.mapper, &run.mapping);
  }

  // Where did each strategy put each layer?
  util::Table assignment({"layer", "rules", "greedy", "beam-8", "bnb"});
  const auto& layers = runs[0].report.layers;
  for (size_t i = 0; i < layers.size(); ++i) {
    assignment.add_row({layers[i].layer_name,
                        runs[0].report.layers[i].subarch_name,
                        runs[1].report.layers[i].subarch_name,
                        runs[2].report.layers[i].subarch_name,
                        runs[3].report.layers[i].subarch_name});
  }
  std::cout << "layer-to-sub-arch assignment (objective: EDP)\n"
            << assignment.render();

  util::Table summary({"strategy", "runtime (us)", "energy (uJ)",
                       "EDP (uJ*us)"});
  const double rules_edp = runs[0].report.total_energy.total_pJ() *
                           runs[0].report.total_runtime_ns;
  for (const auto& run : runs) {
    const double energy_pJ = run.report.total_energy.total_pJ();
    const double runtime_ns = run.report.total_runtime_ns;
    summary.add_row({run.label, util::Table::fmt(runtime_ns / 1e3, 1),
                     util::Table::fmt(energy_pJ / 1e6, 1),
                     util::Table::fmt(energy_pJ * runtime_ns / 1e9, 1)});
  }
  std::cout << summary.render();

  const double bnb_edp = runs[3].report.total_energy.total_pJ() *
                         runs[3].report.total_runtime_ns;
  std::cout << "searched mapping (exact bnb) improves EDP by "
            << util::Table::fmt(100.0 * (1.0 - bnb_edp / rules_edp), 1)
            << "% over the fixed rules\n";

  std::cout << "\nshared GLB: "
            << runs[0].report.memory.glb.capacity_kB << " KB in "
            << runs[0].report.memory.glb.blocks << " block(s)\n";

  // Negative demo: attention on a static mesh is rejected with a clear
  // diagnostic instead of silently producing garbage — and the cost
  // matrix records the same diagnostic as an infeasible pair.
  workload::Layer attn = workload::make_matmul(
      "demo_qk", workload::LayerType::kMatMulQK, 197, 64, 197, 12);
  try {
    (void)sim.simulate_gemm(kMzi, workload::gemm_of_layer(attn));
    std::cout << "ERROR: static mesh accepted a dynamic tensor product!\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cout << "\nexpected rejection of attention on the MZI mesh:\n  "
              << e.what() << "\n";
  }
  return 0;
}
