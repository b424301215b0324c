// Example: transformer workload on a dynamic photonic tensor core, with
// cost-driven layer-to-sub-arch mapping.
//
// Simulates BERT-Base over a 224x224 image (197 tokens) on the
// Lightening-Transformer architecture (4 tiles x 2 cores x 12x12 nodes,
// 12 wavelengths @ 5 GHz) — the paper's Fig. 8 validation scenario — and
// prints per-layer-type latency/energy plus the system-level summary.
//
// The interesting part: the attention matmuls (QK^T, AV) are dynamic x
// dynamic tensor products.  A weight-stationary PTC cannot serve them
// (SimPhony raises an error); LT's symbol-rate reconfiguration can.  To
// show mapping search handling that, a second run pairs LT with a static
// Clements MZI mesh: GreedyMapper must route every attention matmul to LT
// (the mesh is infeasible for them) while the static projections/FFN land
// wherever they are cheapest.
#include <iostream>
#include <map>

#include "arch/prebuilt.h"
#include "core/simulator.h"
#include "util/table.h"
#include "workload/onn_convert.h"

int main() {
  using namespace simphony;

  devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::ArchParams params;
  params.tiles = 4;
  params.cores_per_tile = 2;
  params.core_height = 12;
  params.core_width = 12;
  params.wavelengths = 12;
  params.clock_GHz = 5.0;

  arch::Architecture system("lightening-transformer");
  system.add_subarch(arch::SubArchitecture(
      arch::lightening_transformer_template(), params, lib));
  core::Simulator sim(std::move(system));

  workload::Model model = workload::bert_base_image224();
  const double quant_err = workload::max_quantization_error(model);
  workload::convert_model_in_place(model);
  std::cout << "ONN conversion: max quantization error "
            << util::Table::fmt(quant_err, 4) << " at 4-bit weights\n";

  const core::ModelReport report =
      sim.simulate_model(model, core::MappingConfig(0));

  // Aggregate by layer kind.
  struct Agg {
    double runtime_ns = 0.0;
    double energy_pJ = 0.0;
    double macs = 0.0;
    int count = 0;
  };
  std::map<std::string, Agg> by_kind;
  for (const auto& layer : report.layers) {
    std::string kind = "projection";
    if (layer.layer_name.find("attn_qk") != std::string::npos) {
      kind = "attention QK^T (dynamic x dynamic)";
    } else if (layer.layer_name.find("attn_av") != std::string::npos) {
      kind = "attention AV (dynamic x dynamic)";
    } else if (layer.layer_name.find("ffn") != std::string::npos) {
      kind = "FFN";
    }
    Agg& a = by_kind[kind];
    a.runtime_ns += layer.runtime_ns();
    a.energy_pJ += layer.energy_pJ();
    a.macs += layer.macs;
    ++a.count;
  }

  util::Table table(
      {"layer kind", "#layers", "GMACs", "runtime (us)", "energy (uJ)",
       "fJ/MAC"});
  for (const auto& [kind, a] : by_kind) {
    table.add_row({kind, std::to_string(a.count),
                   util::Table::fmt(a.macs / 1e9, 2),
                   util::Table::fmt(a.runtime_ns / 1e3, 1),
                   util::Table::fmt(a.energy_pJ / 1e6, 1),
                   util::Table::fmt(a.energy_pJ * 1e3 / a.macs, 1)});
  }
  std::cout << table.render();

  std::cout << "\nBERT-Base inference: "
            << util::Table::fmt(report.total_runtime_ns / 1e6, 3) << " ms, "
            << util::Table::fmt(report.total_energy.total_pJ() / 1e6, 1)
            << " uJ, " << util::Table::fmt(report.average_power_W(), 2)
            << " W average, " << util::Table::fmt(report.tops(), 2)
            << " TOPS, chip " << util::Table::fmt(report.total_area_mm2(), 1)
            << " mm^2\n";

  // ---- heterogeneous run: LT + static MZI mesh, searched mapping -------
  arch::Architecture hetero("lt+mzi");
  const size_t kLt = hetero.add_subarch(arch::SubArchitecture(
      arch::lightening_transformer_template(), params, lib));
  const size_t kMzi = hetero.add_subarch(arch::SubArchitecture(
      arch::clements_mzi_template(), params, lib));
  core::Simulator hetero_sim(std::move(hetero));

  const core::GreedyMapper greedy;
  core::Mapping mapping;
  const core::ModelReport mapped =
      hetero_sim.simulate_model(model, greedy, &mapping);

  size_t on_lt = 0;
  size_t on_mzi = 0;
  size_t dynamic_on_mzi = 0;
  for (size_t i = 0; i < mapped.layers.size(); ++i) {
    if (mapping.assignment[i] == kLt) {
      ++on_lt;
    } else {
      ++on_mzi;
      const std::string& n = mapped.layers[i].layer_name;
      if (n.find("attn_qk") != std::string::npos ||
          n.find("attn_av") != std::string::npos) {
        ++dynamic_on_mzi;
      }
    }
  }
  std::cout << "\n== greedy EDP mapping on LT + Clements MZI ==\n"
            << on_lt << " layer(s) -> LT, " << on_mzi
            << " layer(s) -> MZI mesh (dynamic matmuls on the mesh: "
            << dynamic_on_mzi << ", must be 0)\n";

  // The chosen assignment, aggregated per (kind, sub-arch).
  std::map<std::string, int> routed;
  for (size_t i = 0; i < mapped.layers.size(); ++i) {
    std::string kind = "projection/FFN";
    const std::string& n = mapped.layers[i].layer_name;
    if (n.find("attn_qk") != std::string::npos ||
        n.find("attn_av") != std::string::npos) {
      kind = "attention matmul";
    }
    ++routed[kind + " -> " + mapped.layers[i].subarch_name];
  }
  util::Table routing({"route", "#layers"});
  for (const auto& [route, count] : routed) {
    routing.add_row({route, std::to_string(count)});
  }
  std::cout << routing.render();

  std::cout << "hetero inference: "
            << util::Table::fmt(mapped.total_runtime_ns / 1e6, 3) << " ms, "
            << util::Table::fmt(mapped.total_energy.total_pJ() / 1e6, 1)
            << " uJ (predicted by search: "
            << util::Table::fmt(mapping.predicted_latency_ns / 1e6, 3)
            << " ms, "
            << util::Table::fmt(mapping.predicted_energy_pJ / 1e6, 1)
            << " uJ)\n";
  return dynamic_on_mzi == 0 ? 0 : 1;
}
