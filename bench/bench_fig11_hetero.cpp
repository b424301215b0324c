// Reproduces paper Fig. 11: heterogeneous layer-to-sub-architecture
// mapping of VGG-8 (CIFAR-10).  Convolutions map to SCATTER [14], linear
// layers map to Clements MZI meshes [1]; both sub-architectures share one
// on-chip memory hierarchy.  Prints the per-layer energy breakdown, then
// searches the same heterogeneous template set over a DseSpace with the
// exact branch-and-bound mapper and the cross-point cost-matrix cache
// (the paper's stated DSE extension on top of the Fig. 11 scenario).
#include <cstdio>
#include <iostream>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "util/table.h"
#include "workload/onn_convert.h"

int main() {
  using namespace simphony;

  devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::ArchParams params;  // 4x4 cores, 2 tiles, 2 cores/tile (paper IV-B)
  params.wavelengths = 1;

  arch::Architecture system("scatter+mzi-hetero");
  const size_t kScatter = system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, lib));
  const size_t kMzi = system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, lib));

  core::MappingConfig mapping(kScatter);
  mapping.route_type(workload::LayerType::kConv2d, kScatter);
  mapping.route_type(workload::LayerType::kLinear, kMzi);

  workload::Model model = workload::vgg8_cifar10(/*seed=*/42,
                                                 /*prune_ratio=*/0.3);
  workload::convert_model_in_place(model);

  core::Simulator sim(system);
  const core::ModelReport report = sim.simulate_model(model, mapping);

  std::cout << "=== Fig. 11: VGG-8(CIFAR10) heterogeneous mapping ===\n";
  std::cout << "conv -> SCATTER, linear -> MZI mesh, shared memory\n\n";
  const char* kCategories[] = {"Laser", "PS", "PD", "MZM", "ADC", "DAC",
                               "TIA",   "DM"};
  util::Table table({"layer", "sub-arch", "Laser", "PS", "PD", "MZM", "ADC",
                     "DAC", "TIA", "DM", "TOTAL (uJ)"});
  for (const auto& layer : report.layers) {
    std::vector<std::string> row{layer.layer_name, layer.subarch_name};
    for (const char* cat : kCategories) {
      row.push_back(util::Table::fmt(layer.energy.get(cat) * 1e-6, 3));
    }
    row.push_back(util::Table::fmt(layer.energy.total_pJ() * 1e-6, 3));
    table.add_row(row);
  }
  std::cout << table.render();

  std::printf("\ntotal: %.2f uJ over %.1f us; shared GLB: %.0f KB in %d "
              "blocks (%.0f GB/s)\n",
              report.total_energy.total_pJ() * 1e-6,
              report.total_runtime_ns * 1e-3, report.memory.glb.capacity_kB,
              report.memory.glb.blocks, report.memory.glb.bandwidth_GBps);
  std::printf("expected shape: conv (SCATTER) layers dominated by compute "
              "energy; linear (MZI) layers pay thermo-optic reconfiguration "
              "and mesh PS power\n");

  // Heterogeneous DSE on the same template set: every swept point
  // materializes one SCATTER and one MZI sub-arch, and the exact
  // branch-and-bound mapper routes each layer; the cost-matrix cache
  // memoizes the per-(sub-arch, GEMM) simulations behind the searches.
  std::cout << "\n=== heterogeneous DSE sweep (bnb mapping, cost-matrix "
               "cache) ===\n";
  core::DseSpace space;
  space.base = params;
  space.tiles = {2, 4};
  space.wavelengths = {1, 2};
  const core::BranchBoundMapper bnb;
  core::CostMatrixCache cache;
  core::DseOptions options;
  options.mapper = &bnb;
  options.cost_cache = &cache;
  const core::DseResult swept = core::explore(
      {arch::scatter_template(), arch::clements_mzi_template()}, lib, model,
      space, options);

  util::Table dse_table({"#", "R", "L", "energy (uJ)", "latency (us)",
                         "area (mm^2)", "Pareto"});
  for (const auto& pt : swept.points) {
    dse_table.add_row({std::to_string(pt.index),
                       std::to_string(pt.params.tiles),
                       std::to_string(pt.params.wavelengths),
                       util::Table::fmt(pt.energy_pJ * 1e-6, 2),
                       util::Table::fmt(pt.latency_ns * 1e-3, 1),
                       util::Table::fmt(pt.area_mm2, 3),
                       pt.pareto ? "*" : ""});
  }
  std::cout << dse_table.render();
  const core::DsePoint& best = swept.best_edap();
  std::printf("best EDAP at R=%d L=%d\n", best.params.tiles,
              best.params.wavelengths);

  // Refinement sweep around the winner, sharing the cache: the points
  // whose sub-arch parameterization already appeared above (here the
  // whole tiles = 4 column) cost only hash lookups — the cross-point
  // reuse the cost-matrix cache exists for.
  core::DseSpace refined = space;
  refined.tiles = {best.params.tiles, best.params.tiles * 2};
  const core::DseResult refined_result = core::explore(
      {arch::scatter_template(), arch::clements_mzi_template()}, lib, model,
      refined, options);
  const core::DsePoint& refined_best = refined_result.best_edap();
  const core::CostMatrixCache::Stats stats = cache.stats();
  std::printf("refined around R=%d: best EDAP now R=%d L=%d; cost-matrix "
              "cache: %llu hit(s) / %llu miss(es) (%.1f%% hit rate)\n",
              best.params.tiles, refined_best.params.tiles,
              refined_best.params.wavelengths,
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              100.0 * stats.hit_rate());
  return 0;
}
