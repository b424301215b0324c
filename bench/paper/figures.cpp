#include "figures.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>

#include "arch/link_budget.h"
#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "dataflow/dataflow.h"
#include "energy/energy_model.h"
#include "layout/floorplan.h"
#include "memory/hierarchy.h"
#include "memory/traffic.h"
#include "workload/gemm.h"
#include "workload/onn_convert.h"

namespace simphony::paper {

namespace {

using util::Json;

const devlib::DeviceLibrary& lib() {
  static const devlib::DeviceLibrary library =
      devlib::DeviceLibrary::standard();
  return library;
}

/// A column spec; precision < 0 marks a text column.
Json col(std::string name, int precision = -1, std::string suffix = "") {
  Json c;
  c["name"] = std::move(name);
  if (precision >= 0) c["precision"] = precision;
  if (!suffix.empty()) c["suffix"] = std::move(suffix);
  return c;
}

Json figure(std::string id, std::string title, Json::Array columns) {
  Json f;
  f["id"] = std::move(id);
  f["title"] = std::move(title);
  f["columns"] = std::move(columns);
  f["rows"] = Json::Array{};
  f["values"] = Json::Object{};
  f["notes"] = Json::Array{};
  return f;
}

Json num(long long n) { return static_cast<double>(n); }

arch::ArchParams params(int tiles, int cores, int height, int width,
                        int wavelengths) {
  arch::ArchParams p;
  p.tiles = tiles;
  p.cores_per_tile = cores;
  p.core_height = height;
  p.core_width = width;
  p.wavelengths = wavelengths;
  return p;
}

/// Converts `model` and simulates it on one sub-architecture of `ptc`.
core::ModelReport simulate(const arch::PtcTemplate& ptc,
                           const arch::ArchParams& p, workload::Model model) {
  arch::Architecture system(ptc.name);
  system.add_subarch(arch::SubArchitecture(ptc, p, lib()));
  workload::convert_model_in_place(model);
  return core::Simulator(std::move(system))
      .simulate_model(model, core::MappingConfig(0));
}

// Fig. 3: parametric construction with auto-derived scaling rules and the
// critical insertion-loss path: (a) dynamic array-style TeMPO, (b) static
// mesh-style Clements MZI (node-U/V scaled by R*C*H*(H-1)/2, node-Sigma
// by R*C*min(H,W)), then a template at a larger parameter point.
Json construction(std::string id, const std::string& title,
                  const arch::PtcTemplate& ptc, const arch::ArchParams& p) {
  const arch::SubArchitecture subarch(ptc, p, lib());
  char setup[128];
  std::snprintf(setup, sizeof setup, ": %s (R=%d, C=%d, H=%d, W=%d, L=%d)",
                subarch.name().c_str(), p.tiles, p.cores_per_tile,
                p.core_height, p.core_width, p.wavelengths);
  Json f = figure(std::move(id), title + setup,
                  {col("instance"), col("device"), col("scaling rule"),
                   col("count", 0), col("path loss (dB)", 2)});
  for (const auto& g : subarch.groups()) {
    f["rows"].push_back(Json::Array{g.spec->name, g.spec->device,
                                    g.spec->count.text(), num(g.count),
                                    g.path_loss_dB});
  }
  const arch::PathResult path = arch::critical_insertion_loss_path(subarch);
  std::string hops;
  for (const std::string& hop : path.path) {
    hops += (hops.empty() ? "" : " -> ") + hop;
  }
  const arch::LinkBudgetReport link = arch::analyze_link_budget(subarch);
  f["values"] = Json::Object{
      {"path_dB", path.weight}, {"path", hops},
      {"laser_mW_per_wavelength", link.laser_power_per_wavelength_mW},
      {"laser_mW", link.total_laser_power_mW}};
  f["notes"] = Json::Array{
      "critical insertion-loss path ({path_dB:2} dB): {path}",
      "laser power: {laser_mW_per_wavelength:1} mW per wavelength, "
      "{laser_mW:1} mW total"};
  return f;
}

// Table I: operand ranges, reconfiguration speed, full-range method and
// the derived number of forward passes I, which surfaces as I x the
// compute cycles of one pass on the same GEMM.
Json table1_taxonomy() {
  const std::pair<const char*, arch::PtcTemplate> designs[] = {
      {"MZI Array [1]", arch::clements_mzi_template()},
      {"Butterfly Mesh [10]", arch::butterfly_template()},
      {"MRR Array [20]", arch::mrr_bank_template()},
      {"PCM crossbar [27]", arch::pcm_crossbar_template()},
      {"TeMPO [17]", arch::tempo_template()},
  };
  const int paper_forwards[] = {1, 1, 2, 4, 1};
  Json f = figure("table1", "Table I: PTC taxonomy",
                  {col("EPIC Design"), col("A Range"), col("A Reconfig"),
                   col("B Range"), col("B Reconfig"), col("Method"),
                   col("#Forwards", 0), col("paper", 0),
                   col("cycles (64x16x16, L=1)", 0),
                   col("dynamic tensor product")});
  const workload::Model model = workload::single_gemm_model(64, 16, 16);
  const workload::GemmWorkload gemm =
      workload::gemm_of_layer(model.layers.front());
  bool all_match = true;
  for (size_t i = 0; i < std::size(designs); ++i) {
    const auto& [name, ptc] = designs[i];
    const arch::PtcTaxonomy& tax = ptc.taxonomy;
    all_match &= tax.forwards() == paper_forwards[i];
    const arch::SubArchitecture subarch(ptc, params(2, 2, 4, 4, 1), lib());
    f["rows"].push_back(Json::Array{
        name, arch::to_string(tax.operand_a.range),
        arch::to_string(tax.operand_a.reconfig),
        arch::to_string(tax.operand_b.range),
        arch::to_string(tax.operand_b.reconfig), arch::to_string(tax.method),
        tax.forwards(), paper_forwards[i],
        num(dataflow::map_gemm(subarch, gemm).compute_cycles),
        tax.supports_dynamic_tensor_product()
            ? "dynamic x dynamic OK"
            : "weights static -> attention must map elsewhere"});
  }
  f["values"]["forwards_match"] = all_match ? "YES" : "NO";
  f["notes"] = Json::Array{"derived #forwards match Table I: {forwards_match}"};
  return f;
}

// Fig. 6: signal-flow-aware row-based floorplan of the TeMPO dot-product
// node.  Paper: prior method (footprint sum) 1270.5 um^2, real layout
// 4416 um^2 (64 x 69 um), proposed estimate 4531.5 um^2 (53 x 85.5 um).
std::vector<Json> fig6_floorplan() {
  constexpr double kPaperNaiveUm2 = 1270.5;
  constexpr double kPaperRealUm2 = 4416.0;
  constexpr double kPaperEstimateUm2 = 4531.5;
  const layout::FloorplanResult fp =
      layout::floorplan_signal_flow(arch::tempo_template().node, lib());
  Json placements = figure(
      "fig6_placements", "Fig. 6: node floorplan (TeMPO dot-product node)",
      {col("instance"), col("device"), col("level", 0), col("x (um)", 1),
       col("y (um)", 1), col("w (um)", 1), col("h (um)", 2)});
  for (const auto& pl : fp.placements) {
    placements["rows"].push_back(Json::Array{pl.name, pl.device, pl.level,
                                             pl.x_um, pl.y_um, pl.width_um,
                                             pl.height_um});
  }
  Json summary = figure("fig6", "Fig. 6: node area, prior method vs floorplan",
                        {col("method"), col("area (um^2)", 1),
                         col("paper (um^2)", 1), col("ratio", 3)});
  summary["rows"] = Json::Array{
      Json::Array{"prior (footprint sum)", fp.naive_sum_um2, kPaperNaiveUm2,
                  fp.naive_sum_um2 / kPaperNaiveUm2},
      Json::Array{"proposed floorplan", fp.area_um2(), kPaperEstimateUm2,
                  fp.area_um2() / kPaperEstimateUm2},
      Json::Array{"real layout (reference)", "-", kPaperRealUm2, "-"}};
  summary["values"] = Json::Object{
      {"bbox_w_um", fp.width_um}, {"bbox_h_um", fp.height_um},
      {"naive_under_pct", 100.0 * (1.0 - fp.naive_sum_um2 / kPaperRealUm2)},
      {"estimate_vs_real_pct", 100.0 * (fp.area_um2() / kPaperRealUm2 - 1)}};
  summary["notes"] = Json::Array{
      "chip bbox {bbox_w_um:1} x {bbox_h_um:1} um (paper: 53 x 85.5)",
      "naive underestimates the real node by {naive_under_pct:0}% "
      "(paper: 72%)",
      "floorplan estimate within {estimate_vs_real_pct:1}% of the real "
      "layout"};
  return {placements, summary};
}

// Fig. 7: (280x28)x(28x280) GEMM on TeMPO (R=2, C=2, 4x4 nodes, L=4,
// 5 GHz).  (a) area 0.84 mm^2 (SimPhony and the TeMPO reference); (b)
// compute energy per output, DM left out: 96.13 pJ (SimPhony) vs
// 92.52 pJ (TeMPO reference).
std::vector<Json> fig7_tempo_gemm() {
  const core::ModelReport report =
      simulate(arch::tempo_template(), arch::ArchParams{},
               workload::single_gemm_model(280, 28, 280));
  const double outputs = 280.0 * 280.0;

  Json area = figure("fig7a", "Fig. 7(a): TeMPO area breakdown (mm^2)",
                     {col("category"), col("SimPhony-C++ (mm^2)", 4)});
  const layout::AreaBreakdown& ab = report.subarch_area.front();
  for (const auto& [k, v] : ab.mm2) area["rows"].push_back(Json::Array{k, v});
  area["rows"].push_back(Json::Array{"TOTAL", ab.total_mm2()});
  area["values"] = Json::Object{
      {"paper_mm2", 0.84}, {"ref_mm2", 0.84}, {"total_mm2", ab.total_mm2()},
      {"pct_of_ref", 100.0 * ab.total_mm2() / 0.84}};
  area["notes"] = Json::Array{
      "paper: SimPhony {paper_mm2:2} mm^2 | TeMPO ref {ref_mm2:2} mm^2 | "
      "measured {total_mm2:4} mm^2 ({pct_of_ref:1}% of ref)"};

  Json energy = figure("fig7b",
                       "Fig. 7(b): TeMPO energy breakdown (pJ per output)",
                       {col("category"), col("pJ/output", 3)});
  double total = 0.0;
  for (const auto& [k, v] : report.total_energy.entries()) {
    if (k == "DM") continue;
    energy["rows"].push_back(Json::Array{k, v / outputs});
    total += v / outputs;
  }
  energy["rows"].push_back(Json::Array{"TOTAL", total});
  const dataflow::DataflowResult& df = report.layers.front().dataflow;
  energy["values"] = Json::Object{
      {"paper_pJ", 96.13}, {"ref_pJ", 92.52}, {"total_pJ", total},
      {"pct_of_paper", 100.0 * total / 96.13},
      {"runtime_us", report.total_runtime_ns / 1e3},
      {"utilization_pct", df.utilization * 100.0},
      {"dm_pJ", report.total_energy.get("DM") / outputs},
      {"base_compute_cycles", num(df.base_compute_cycles)}};
  energy["notes"] = Json::Array{
      "paper: SimPhony {paper_pJ:2} pJ | TeMPO ref {ref_pJ:2} pJ | "
      "measured {total_pJ:2} pJ ({pct_of_paper:1}% of paper-SimPhony)",
      "total runtime {runtime_us:3} us, utilization {utilization_pct:1}%, "
      "DM {dm_pJ:2} pJ/out"};
  return {area, energy};
}

// Fig. 8: BERT-Base, one 224x224 image, on Lightening-Transformer (4
// tiles, 2 cores/tile, 12x12 cores, 12 wavelengths, 5 GHz).  (a) area
// 59.83 mm^2 (SimPhony) vs 60.30 mm^2 (LT); (b) average power per
// category over the runtime, DM shown as "Mem" plus the hierarchy's
// leakage: 20.77 W vs 14.75 W.
std::vector<Json> fig8_bert_lt() {
  const core::ModelReport report =
      simulate(arch::lightening_transformer_template(),
               params(4, 2, 12, 12, 12), workload::bert_base_image224());

  Json area = figure("fig8a", "Fig. 8(a): LT BERT-Base area breakdown (mm^2)",
                     {col("category"), col("mm^2", 2)});
  double total_area = report.memory_area_mm2;
  area["rows"].push_back(Json::Array{"Mem", report.memory_area_mm2});
  for (const auto& [k, v] : report.subarch_area.front().mm2) {
    area["rows"].push_back(Json::Array{k, v});
    total_area += v;
  }
  area["rows"].push_back(Json::Array{"TOTAL", total_area});
  area["values"] = Json::Object{
      {"paper_mm2", 59.83}, {"ref_mm2", 60.30}, {"total_mm2", total_area},
      {"pct_of_paper", 100.0 * total_area / 59.83}};
  area["notes"] = Json::Array{
      "paper: SimPhony {paper_mm2:2} | LT ref {ref_mm2:2} | measured "
      "{total_mm2:2} mm^2 ({pct_of_paper:1}% of paper-SimPhony)"};

  Json power = figure("fig8b", "Fig. 8(b): LT BERT-Base power breakdown (W)",
                      {col("category"), col("W", 3)});
  double total_W = 0.0;
  for (const auto& [k, v] : report.total_energy.entries()) {
    const double watts = v / report.total_runtime_ns * 1e-3;
    power["rows"].push_back(Json::Array{k == "DM" ? "Mem" : k, watts});
    total_W += watts;
  }
  const double leak_W = report.memory.total_leakage_mW() * 1e-3;
  power["rows"].push_back(Json::Array{"Mem leakage", leak_W});
  total_W += leak_W;
  power["rows"].push_back(Json::Array{"TOTAL", total_W});
  power["values"] = Json::Object{
      {"paper_W", 20.77}, {"ref_W", 14.75}, {"total_W", total_W},
      {"pct_of_paper", 100.0 * total_W / 20.77},
      {"runtime_ms", report.total_runtime_ns / 1e6},
      {"gmacs", report.total_macs() / 1e9}};
  power["notes"] = Json::Array{
      "paper: SimPhony {paper_W:2} W | LT ref {ref_W:2} W | measured "
      "{total_W:2} W ({pct_of_paper:1}% of paper-SimPhony)",
      "BERT-Base runtime {runtime_ms:3} ms, {gmacs:1} GMACs"};
  return {area, power};
}

// Fig. 9: design-space sweeps on TeMPO with the (280x28)x(28x280) GEMM:
// (a) energy vs #wavelengths, (b) energy vs input/weight/output bitwidth,
// then both axes crossed through the parallel DSE engine.
Json fig9_sweep(std::string id, std::string title, const char* label,
                const std::vector<std::array<int, 4>>& points) {
  const char* const categories[] = {"Laser", "PS",  "PD",         "MZM", "ADC",
                                    "DAC",   "TIA", "Integrator", "DM"};
  Json::Array columns{col(label, 0), col("cycles", 0), col("MZMs", 0)};
  for (const char* cat : categories) columns.push_back(col(cat, 3));
  columns.push_back(col("TOTAL", 3));
  Json f = figure(std::move(id), std::move(title), std::move(columns));
  for (const auto& [value, wavelengths, bits, out_bits] : points) {
    arch::ArchParams p;  // R=2, C=2, H=W=4, 5 GHz
    p.wavelengths = wavelengths;
    workload::Model model = workload::single_gemm_model(280, 28, 280);
    for (auto& layer : model.layers) {
      layer.input_bits = layer.weight_bits = bits;
      layer.output_bits = out_bits;
    }
    const core::ModelReport report =
        simulate(arch::tempo_template(), p, std::move(model));
    const arch::SubArchitecture subarch(arch::tempo_template(), p, lib());
    Json::Array row{value, num(report.layers.front().dataflow.compute_cycles),
                    num(subarch.count_of("mzm_a") + subarch.count_of("mzm_b"))};
    for (const char* cat : categories) {
      row.push_back(report.total_energy.get(cat) * 1e-6);
    }
    row.push_back(report.total_energy.total_pJ() * 1e-6);
    f["rows"].push_back(std::move(row));
  }
  return f;
}

std::vector<Json> fig9_sweeps() {
  std::vector<std::array<int, 4>> by_wavelengths, by_bits;
  for (int l = 1; l <= 7; ++l) by_wavelengths.push_back({l, l, 4, 8});
  for (int b = 2; b <= 8; ++b) by_bits.push_back({b, 4, b, b});
  Json sweep_l = fig9_sweep(
      "fig9a",
      "Fig. 9(a): energy (uJ) vs #wavelengths, TeMPO, (280x28)x(28x280) GEMM",
      "#wavelengths", by_wavelengths);
  sweep_l["claim"] =
      "cycles = 2450 * ceil(28 / 2L): the depth-28 reduction is tiled C*L "
      "= 2L wide, so L=5 and L=6 both take 3 blocks; total energy falls "
      "wherever cycles fall and rises where padding holds them (L=5 -> 6) "
      "while the per-wavelength laser, MZM and DAC counts grow; MZM energy "
      "= MZMs * cycles * const";
  Json sweep_b = fig9_sweep(
      "fig9b", "Fig. 9(b): energy (uJ) vs input/weight/output bitwidth",
      "bits", by_bits);
  sweep_b["claim"] = "monotonically increasing total energy with bitwidth";

  workload::Model model = workload::single_gemm_model(280, 28, 280);
  workload::convert_model_in_place(model);
  core::DseSpace space;  // base: TeMPO defaults, L=4
  for (int i = 1; i <= 7; ++i) {
    space.wavelengths.push_back(i);
    space.input_bits.push_back(i + 1);
    space.output_bits.push_back(i + 1);  // the (b) diagonal lives in the grid
  }
  const core::DseResult result = core::explore(
      arch::tempo_template(), lib(), model, space, core::DseOptions{});
  Json cross = figure("fig9_dse",
                      "wavelengths x input/weight bits x output bits "
                      "cross-sweep via the parallel DSE engine",
                      {});
  cross["values"] = Json::Object{
      {"points", result.points.size()}, {"pareto", result.frontier().size()},
      {"best_L", result.best_edap().params.wavelengths},
      {"best_bits", result.best_edap().params.input_bits}};
  cross["notes"] = Json::Array{
      "{points:0} points explored, {pareto:0} Pareto-optimal; best EDAP at "
      "L={best_L:0} bits={best_bits:0}"};
  return {sweep_l, sweep_b, cross};
}

// Fig. 10: the modeling-fidelity ablations.  (a) TeMPO area with vs
// without layout awareness: 0.84 vs 0.63 mm^2.  (b) SCATTER weight-static
// PTC with data awareness: phase-shifter energy 53.7 nJ -> 21.5 nJ
// (analytical) -> 20.9 nJ (rigorous device power model), ~60% less.
std::vector<Json> fig10_fidelity() {
  const arch::SubArchitecture tempo(arch::tempo_template(), arch::ArchParams{},
                                    lib());
  const layout::AreaBreakdown aware =
      layout::analyze_area(tempo, {.layout_aware = true, .floorplan = {}});
  const layout::AreaBreakdown unaware =
      layout::analyze_area(tempo, {.layout_aware = false, .floorplan = {}});
  Json area = figure("fig10a",
                     "Fig. 10(a): TeMPO area, layout aware vs unaware",
                     {col("category"), col("layout-aware (mm^2)", 4),
                      col("unaware (mm^2)", 4)});
  for (const auto& [k, v] : aware.mm2) {
    area["rows"].push_back(Json::Array{k, v, unaware.get(k)});
  }
  area["rows"].push_back(
      Json::Array{"TOTAL", aware.total_mm2(), unaware.total_mm2()});
  const double node_ratio =
      unaware.get("Node") / std::max(1e-12, aware.get("Node"));
  area["values"] = Json::Object{
      {"paper_aware_mm2", 0.84}, {"paper_unaware_mm2", 0.63},
      {"aware_mm2", aware.total_mm2()}, {"unaware_mm2", unaware.total_mm2()},
      {"node_under_pct", 100.0 * (1.0 - node_ratio)}};
  area["notes"] = Json::Array{
      "paper: {paper_aware_mm2:2} vs {paper_unaware_mm2:2} | measured: "
      "{aware_mm2:4} vs {unaware_mm2:4}",
      "node area underestimated by {node_under_pct:0}% without layout "
      "awareness (paper: 72%)"};

  // A single resident weight block (no reprogramming stalls) streaming 150
  // input vectors; weights uniform in [-0.8, 0.8] as after SCATTER's
  // co-sparse training.
  arch::Architecture scatter("scatter");
  scatter.add_subarch(arch::SubArchitecture(arch::scatter_template(),
                                            params(2, 2, 4, 4, 1), lib()));
  workload::Model model = workload::single_gemm_model(150, 8, 8);
  util::Rng rng(7);
  model.layers.front().weights =
      workload::Tensor::uniform({8, 8}, rng, -0.8, 0.8);
  const workload::GemmWorkload gemm =
      workload::gemm_of_layer(model.layers.front());
  Json energy = figure("fig10b",
                       "Fig. 10(b): SCATTER energy with data awareness",
                       {col("mode"), col("PS (nJ)", 2), col("MZM (nJ)", 2),
                        col("PS+MZM (nJ)", 2), col("paper PS (nJ)", 1)});
  using devlib::PowerFidelity;
  const std::tuple<const char*, PowerFidelity, bool, double> modes[] = {
      {"Data Unaware", PowerFidelity::kDataUnaware, false, 53.7},
      {"Data Aware w/o Model", PowerFidelity::kAnalytical, true, 21.5},
      {"Data Aware w/ Model", PowerFidelity::kTabulated, true, 20.9},
  };
  std::vector<double> ps_nJ;
  for (const auto& [label, fidelity, data_aware, paper_nJ] : modes) {
    core::SimulationOptions opt;
    opt.energy.fidelity = fidelity;
    opt.energy.data_aware = data_aware;
    const core::LayerReport r =
        core::Simulator(scatter, opt).simulate_gemm(0, gemm);
    ps_nJ.push_back(r.energy.get("PS") * 1e-3);
    const double mzm_nJ = r.energy.get("MZM") * 1e-3;
    energy["rows"].push_back(Json::Array{label, ps_nJ.back(), mzm_nJ,
                                         ps_nJ.back() + mzm_nJ, paper_nJ});
  }
  energy["values"]["ps_reduction_pct"] = 100.0 * (1.0 - ps_nJ[2] / ps_nJ[0]);
  energy["notes"] = Json::Array{
      "PS energy reduction with rigorous device model: "
      "{ps_reduction_pct:0}% (paper: ~60%)"};
  return {area, energy};
}

// Fig. 11: VGG-8 (CIFAR-10), convolutions on SCATTER and linear layers on
// Clements MZI meshes sharing one memory hierarchy; then the same
// templates swept with the branch-and-bound mapper and a cost-matrix
// cache that a refinement sweep around the winner reuses.
std::vector<Json> fig11_hetero() {
  const arch::ArchParams p = params(2, 2, 4, 4, 1);  // paper §IV-B
  arch::Architecture system("scatter+mzi-hetero");
  const size_t scatter = system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), p, lib()));
  const size_t mzi = system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), p, lib()));
  core::MappingConfig mapping(scatter);
  mapping.route_type(workload::LayerType::kConv2d, scatter);
  mapping.route_type(workload::LayerType::kLinear, mzi);
  workload::Model model = workload::vgg8_cifar10(/*seed=*/42, /*prune=*/0.3);
  workload::convert_model_in_place(model);
  const core::ModelReport report =
      core::Simulator(system).simulate_model(model, mapping);

  const char* const categories[] = {"Laser", "PS",  "PD",  "MZM",
                                    "ADC",   "DAC", "TIA", "DM"};
  Json::Array columns{col("layer"), col("sub-arch")};
  for (const char* cat : categories) columns.push_back(col(cat, 3));
  columns.push_back(col("TOTAL (uJ)", 3));
  columns.push_back(col("reconfig cycles", 0));
  columns.push_back(col("compute cycles", 0));
  Json layers = figure("fig11",
                       "Fig. 11: VGG-8(CIFAR10) heterogeneous mapping (conv "
                       "-> SCATTER, linear -> MZI mesh, shared memory)",
                       std::move(columns));
  for (const auto& layer : report.layers) {
    Json::Array row{layer.layer_name, layer.subarch_name};
    for (const char* cat : categories) {
      row.push_back(layer.energy.get(cat) * 1e-6);
    }
    row.push_back(layer.energy.total_pJ() * 1e-6);
    row.push_back(num(layer.dataflow.reconfig_cycles));
    row.push_back(num(layer.dataflow.base_compute_cycles));
    layers["rows"].push_back(std::move(row));
  }
  const memory::MemoryLevel& glb = report.memory.glb;
  layers["values"] = Json::Object{
      {"total_uJ", report.total_energy.total_pJ() * 1e-6},
      {"runtime_us", report.total_runtime_ns * 1e-3},
      {"glb_kB", glb.capacity_kB}, {"glb_blocks", glb.blocks},
      {"glb_GBps", glb.bandwidth_GBps}};
  layers["notes"] = Json::Array{
      "total: {total_uJ:2} uJ over {runtime_us:1} us; shared GLB: "
      "{glb_kB:0} KB in {glb_blocks:0} blocks ({glb_GBps:0} GB/s)"};
  layers["claim"] =
      "conv (SCATTER) layers dominated by compute energy; linear (MZI) "
      "layers pay thermo-optic reconfiguration and mesh PS power";

  core::DseSpace space;
  space.base = p;
  space.tiles = {2, 4};
  space.wavelengths = {1, 2};
  const core::BranchBoundMapper bnb;
  core::CostMatrixCache cache;
  core::DseOptions options;
  options.mapper = &bnb;
  options.cost_cache = &cache;
  const std::vector<arch::PtcTemplate> ptcs = {arch::scatter_template(),
                                               arch::clements_mzi_template()};
  const core::DseResult swept =
      core::explore(ptcs, lib(), model, space, options);
  Json dse = figure("fig11_dse",
                    "heterogeneous DSE sweep (bnb mapping, cost-matrix cache)",
                    {col("#", 0), col("R", 0), col("L", 0),
                     col("energy (uJ)", 2), col("latency (us)", 1),
                     col("area (mm^2)", 3), col("Pareto")});
  for (const auto& pt : swept.points) {
    dse["rows"].push_back(Json::Array{
        pt.index, pt.params.tiles, pt.params.wavelengths, pt.energy_pJ * 1e-6,
        pt.latency_ns * 1e-3, pt.area_mm2, pt.pareto ? "*" : ""});
  }
  const core::DsePoint& best = swept.best_edap();
  core::DseSpace refined = space;
  refined.tiles = {best.params.tiles, best.params.tiles * 2};
  const core::DsePoint refined_best =
      core::explore(ptcs, lib(), model, refined, options).best_edap();
  const core::CostMatrixCache::Stats stats = cache.stats();
  dse["values"] = Json::Object{
      {"best_R", best.params.tiles}, {"best_L", best.params.wavelengths},
      {"refined_R", refined_best.params.tiles},
      {"refined_L", refined_best.params.wavelengths},
      {"cache_hits", num(static_cast<long long>(stats.hits))},
      {"cache_misses", num(static_cast<long long>(stats.misses))},
      {"hit_rate_pct", 100.0 * stats.hit_rate()}};
  dse["notes"] = Json::Array{
      "best EDAP at R={best_R:0} L={best_L:0}",
      "refined around R={best_R:0}: best EDAP now R={refined_R:0} "
      "L={refined_L:0}; cost-matrix cache: {cache_hits:0} hit(s) / "
      "{cache_misses:0} miss(es) ({hit_rate_pct:1}% hit rate)"};
  return {layers, dse};
}

// Dataflow ablation (§III-C2: standard GEMM dataflows on top of the
// photonic dimensions).  On TeMPO, output-stationary mapping integrates
// partial sums in the analog domain, so the ADC fires once per d-window
// of accumulated cycles; a forced weight-stationary mapping samples every
// cycle.
Json ablation_dataflow() {
  const arch::SubArchitecture tempo(arch::tempo_template(), arch::ArchParams{},
                                    lib());
  const arch::LinkBudgetReport link = arch::analyze_link_budget(tempo);
  Json f = figure("ablation_dataflow",
                  "Ablation: output- vs weight-stationary on TeMPO, "
                  "(256 x D) x (D x 256)",
                  {col("D", 0), col("OS d-window", 0), col("OS cycles", 0),
                   col("WS cycles", 0), col("OS ADC rate (GHz)", 2),
                   col("WS ADC rate (GHz)", 2), col("OS energy (uJ)", 2),
                   col("WS energy (uJ)", 2), col("winner")});
  for (int d : {8, 32, 128, 512, 2048}) {
    const workload::Model model = workload::single_gemm_model(256, d, 256);
    const workload::GemmWorkload gemm =
        workload::gemm_of_layer(model.layers.front());
    const memory::MemoryHierarchy memory =
        memory::build_memory_hierarchy({&tempo}, {gemm});
    auto cost = [&](dataflow::DataflowStyle style) {
      const auto mapped = dataflow::map_gemm(tempo, gemm, 256.0, style);
      const auto traffic = memory::analyze_traffic(tempo, gemm, mapped, memory);
      return std::make_pair(mapped, energy::compute_energy(
                                        tempo, gemm, mapped, link, &traffic, {})
                                        .total_pJ());
    };
    const auto [os, os_pj] = cost(dataflow::DataflowStyle::kOutputStationary);
    const auto [ws, ws_pj] = cost(dataflow::DataflowStyle::kWeightStationary);
    f["rows"].push_back(Json::Array{
        d, num(os.tiling.d_blocks), num(os.total_cycles),
        num(ws.total_cycles), os.adc_rate_GHz, ws.adc_rate_GHz,
        os_pj * 1e-6, ws_pj * 1e-6, os_pj <= ws_pj ? "OS" : "WS"});
  }
  f["claim"] =
      "output-stationary's analog accumulation slows the ADC by the "
      "d-window factor, so its advantage grows with the reduction depth D";
  return f;
}

// Multi-block GLB ablation (§III-C3: "a SoTA multi-block SRAM design to
// meet the bandwidth demand"): the auto-sized GLB against a forced single
// block across architecture scales on BERT-Base.  The block count is
// ceil(tau * dBW / (bus/8)) with tau the cycle of a 64 KB block; blocks
// holding more than 64 KB cycle slower, so BW can stay below demand.
Json ablation_memory() {
  workload::Model model = workload::bert_base_image224();
  workload::convert_model_in_place(model);
  const auto gemms = workload::extract_gemms(model);
  Json f = figure("ablation_memory",
                  "Ablation: multi-block vs single-block GLB (BERT-Base "
                  "workload)",
                  {col("arch (RxC, HxW, L)"), col("R*C*H*W*L", 0),
                   col("dBW demand (GB/s)", 1), col("blocks (auto)", 0),
                   col("BW multi (GB/s)", 1), col("BW single (GB/s)", 1),
                   col("single-block shortfall", 1, " %")});
  const arch::ArchParams points[] = {
      params(1, 1, 4, 4, 1),    params(2, 2, 4, 4, 4),
      params(2, 2, 8, 8, 8),    params(4, 2, 12, 12, 12),
      params(4, 4, 16, 16, 16),
  };
  for (const arch::ArchParams& p : points) {
    const arch::SubArchitecture subarch(
        arch::lightening_transformer_template(), p, lib());
    memory::MemoryOptions single;
    single.force_single_block_glb = true;
    const auto hm = memory::build_memory_hierarchy({&subarch}, gemms);
    const auto hs = memory::build_memory_hierarchy({&subarch}, gemms, single);
    const double shortfall =
        hs.glb.bandwidth_GBps >= hm.glb_demand_GBps
            ? 0.0
            : 1.0 - hs.glb.bandwidth_GBps / hm.glb_demand_GBps;
    char label[64];
    std::snprintf(label, sizeof label, "%dx%d, %dx%d, %d", p.tiles,
                  p.cores_per_tile, p.core_height, p.core_width,
                  p.wavelengths);
    f["rows"].push_back(Json::Array{
        label, num(subarch.node_count() * p.wavelengths),
        hm.glb_demand_GBps, hm.glb.blocks, hm.glb.bandwidth_GBps,
        hs.glb.bandwidth_GBps, shortfall * 100.0});
  }
  f["claim"] =
      "demand grows with the parallelism R*C*H*W*L; the block count, sized "
      "at a 64 KB block's cycle, grows with demand and multi-block BW >= "
      "single-block BW, but blocks holding more than 64 KB cycle slower, "
      "so BW can stay below demand; a single block increasingly starves "
      "the cores";
  return f;
}

// Reconfiguration ablation (§III-C2: a cycle penalty whenever weight
// loading causes a reconfiguration delay over one clock cycle).  The
// weight-cell reprogramming time sweeps from symbol-rate EO (0 ns)
// through PCM writes (100 ns) to thermo-optic tuning (10 us) on one
// weight-stationary crossbar: the quantitative form of the paper's claim
// that thermo-optic meshes are "unsuitable for dynamic workloads".
Json ablation_reconfig() {
  const workload::Model model = workload::single_gemm_model(256, 128, 128);
  const workload::GemmWorkload gemm =
      workload::gemm_of_layer(model.layers.front());
  Json f = figure("ablation_reconfig",
                  "Ablation: reconfiguration latency on a weight-stationary "
                  "crossbar, GEMM (256x128)x(128x128)",
                  {col("reconfig"), col("cycles/switch", 0),
                   col("switch stalls", 0), col("total cycles", 0),
                   col("runtime (us)", 1), col("energy (uJ)", 2),
                   col("vs EO baseline", 1, "x")});
  const std::pair<const char*, double> points[] = {
      {"EO symbol-rate (0 ns)", 0.0}, {"carrier inj. (10 ns)", 10.0},
      {"PCM write (100 ns)", 100.0},  {"MEMS (1 us)", 1000.0},
      {"thermo-optic (10 us)", 10000.0},
  };
  const arch::ArchParams p = params(2, 2, 4, 4, 2);
  double baseline = 0.0;
  for (const auto& [label, reconfig_ns] : points) {
    arch::PtcTemplate t = arch::scatter_template();
    t.reconfig_latency_ns = reconfig_ns;
    arch::Architecture system("xbar");
    system.add_subarch(arch::SubArchitecture(t, p, lib()));
    const core::LayerReport r =
        core::Simulator(std::move(system)).simulate_gemm(0, gemm);
    const double cycles = static_cast<double>(r.dataflow.total_cycles);
    if (baseline == 0.0) baseline = cycles;
    f["rows"].push_back(Json::Array{
        label, num(static_cast<long long>(reconfig_ns * p.clock_GHz)),
        num(r.dataflow.reconfig_cycles), cycles, r.runtime_ns() / 1e3,
        r.energy_pJ() / 1e6, cycles / baseline});
  }
  f["claim"] =
      "sub-cycle reprogramming is free; the penalty then grows linearly "
      "with the reconfiguration time until it dominates the runtime (the "
      "paper's MZI-mesh observation)";
  return f;
}

}  // namespace

std::vector<Json> figures() {
  std::vector<Json> out = {
      construction("fig3a", "Fig. 3(a): dynamic array-style TeMPO",
                   arch::tempo_template(), params(1, 2, 2, 2, 1)),
      construction("fig3b", "Fig. 3(b): static mesh-style MZI array",
                   arch::clements_mzi_template(), params(1, 1, 3, 3, 1)),
      construction(
          "fig3_scaling",
          "Fig. 3 scaling check: same templates at a larger parameter point",
          arch::lightening_transformer_template(), params(4, 2, 12, 12, 12)),
      table1_taxonomy()};
  for (auto figs : {fig6_floorplan(), fig7_tempo_gemm(), fig8_bert_lt(),
                    fig9_sweeps(), fig10_fidelity(), fig11_hetero()}) {
    out.insert(out.end(), figs.begin(), figs.end());
  }
  out.push_back(ablation_dataflow());
  out.push_back(ablation_memory());
  out.push_back(ablation_reconfig());
  return out;
}

}  // namespace simphony::paper
