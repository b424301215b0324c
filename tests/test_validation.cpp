// End-to-end validation of the paper's §IV figures, read from the figure
// library (bench/paper/figures.h) that bench_paper prints: every figure
// byte-compares against tests/golden/paper/<id>.json, every "expected
// shape" holds over all of its rows, and the reproduced headline numbers
// stay within their tolerance of the paper's.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "figures.h"

namespace simphony {
namespace {

using util::Json;

const std::vector<Json>& all() {
  static const std::vector<Json> figures = paper::figures();
  return figures;
}

const Json& figure(const std::string& id) {
  for (const Json& f : all()) {
    if (f.at("id").as_string() == id) return f;
  }
  throw std::invalid_argument("no figure " + id);
}

/// One table row, cells keyed by column name.
struct Row {
  Json label;  // the first cell
  std::map<std::string, Json> cells;
  double operator[](const std::string& column) const {
    return cells.at(column).as_number();
  }
  const std::string& text(const std::string& column) const {
    return cells.at(column).as_string();
  }
};

std::vector<Row> rows(const std::string& id) {
  const Json::Array& columns = figure(id).at("columns").as_array();
  std::vector<Row> out;
  for (const Json& cells : figure(id).at("rows").as_array()) {
    Row row{cells.as_array().front(), {}};
    for (size_t c = 0; c < columns.size(); ++c) {
      row.cells[columns[c].at("name").as_string()] = cells.as_array()[c];
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// The row whose first column reads `label`.
Row row(const std::string& id, const std::string& label) {
  for (const Row& r : rows(id)) {
    if (r.label.is_string() && r.label.as_string() == label) return r;
  }
  throw std::invalid_argument(id + " has no row " + label);
}

double value(const std::string& id, const std::string& key) {
  return figure(id).at("values").at(key).as_number();
}

TEST(Validation, FiguresMatchGoldens) {
  const std::filesystem::path dir = SIMPHONY_PAPER_GOLDEN_DIR;
  std::vector<std::string> ids;
  for (const Json& f : all()) {
    ids.push_back(f.at("id").as_string());
    const std::filesystem::path path = dir / (ids.back() + ".json");
    std::ostringstream golden;
    golden << std::ifstream(path, std::ios::binary).rdbuf();
    const std::string actual = f.dump() + "\n";
    // To re-record after a deliberate model change, copy the printed JSON
    // over the golden.
    if (golden.str() != actual) {
      ADD_FAILURE() << path.string() << " differs; actual figure:\n" << actual;
    }
  }
  // One golden per figure: no id repeats, no golden is left over.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir), {}),
            static_cast<std::ptrdiff_t>(ids.size()));
}

TEST(Validation, Fig7TempoAreaWithinOnePercent) {
  EXPECT_NEAR(row("fig7a", "TOTAL")["SimPhony-C++ (mm^2)"], 0.84,
              0.84 * 0.01);
}

TEST(Validation, Fig7TempoEnergyWithinTwoPercent) {
  EXPECT_NEAR(row("fig7b", "TOTAL")["pJ/output"], 96.13, 96.13 * 0.02);
}

TEST(Validation, Fig7CycleCountAndRuntime) {
  EXPECT_EQ(value("fig7b", "base_compute_cycles"), 9800);
  EXPECT_NEAR(value("fig7b", "runtime_us") * 1e3, 9800.0 / 5.0,
              9800.0 / 5.0 * 0.15);
}

TEST(Validation, Fig8LtBertAreaWithinFivePercent) {
  EXPECT_NEAR(row("fig8a", "TOTAL")["mm^2"], 59.83, 59.83 * 0.05);
  // Power (categories plus memory leakage) within 15% of the paper's
  // SimPhony value (the paper itself sits 41% above LT's own estimate,
  // so this is well inside the spread).
  EXPECT_NEAR(row("fig8b", "TOTAL")["W"], 20.77, 20.77 * 0.15);
}

TEST(Validation, Fig9aWavelengthScalingShape) {
  const std::vector<Row> r = rows("fig9a");
  ASSERT_EQ(r.size(), 7u);
  const double mzm_per_device_cycle =
      r[0]["MZM"] / (r[0]["MZMs"] * r[0]["cycles"]);
  for (size_t i = 0; i < r.size(); ++i) {
    const int l = static_cast<int>(r[i]["#wavelengths"]);
    // 35 x 70 output blocks, each reducing D=28 in blocks of C*L = 2L:
    // padding makes ceil(28 / 2L) equal at L=5 and L=6.
    EXPECT_EQ(r[i]["cycles"], 35 * 70 * ((28 + 2 * l - 1) / (2 * l))) << l;
    EXPECT_EQ(r[i]["MZMs"], 16 * l) << l;  // (R*H + C*W) * L
    // Bias and drive energy per MZM per cycle are both L-independent.
    EXPECT_NEAR(r[i]["MZM"] / (r[i]["MZMs"] * r[i]["cycles"]),
                mzm_per_device_cycle, mzm_per_device_cycle * 1e-12)
        << l;
    if (i == 0) continue;
    const bool fewer_cycles = r[i]["cycles"] < r[i - 1]["cycles"];
    EXPECT_EQ(r[i]["TOTAL"] < r[i - 1]["TOTAL"], fewer_cycles) << l;
    if (!fewer_cycles) {
      for (const char* grows : {"Laser", "MZM", "DAC"}) {
        EXPECT_GT(r[i][grows], r[i - 1][grows]) << grows << " at L=" << l;
      }
    }
  }
  // Total energy decreases across L = 1, 4, 7; MZM stays within 25% from
  // L=1 to L=4; the integrator shrinks with the cycle count.
  EXPECT_GT(r[0]["TOTAL"], r[3]["TOTAL"]);
  EXPECT_GT(r[3]["TOTAL"], r[6]["TOTAL"]);
  EXPECT_NEAR(r[3]["MZM"] / r[0]["MZM"], 1.0, 0.25);
  EXPECT_LT(r[6]["Integrator"], 0.3 * r[0]["Integrator"]);
}

TEST(Validation, Fig9bBitwidthScalingShape) {
  const std::vector<Row> r = rows("fig9b");
  ASSERT_EQ(r.size(), 7u);
  for (size_t i = 1; i < r.size(); ++i) {
    EXPECT_GT(r[i]["TOTAL"], r[i - 1]["TOTAL"]) << r[i]["bits"] << " bits";
  }
}

TEST(Validation, Fig10bScatterDataAwareness) {
  const double unaware = row("fig10b", "Data Unaware")["PS (nJ)"];
  const double analytical = row("fig10b", "Data Aware w/o Model")["PS (nJ)"];
  const double tabulated = row("fig10b", "Data Aware w/ Model")["PS (nJ)"];
  EXPECT_NEAR(unaware, 53.7, 53.7 * 0.05);
  EXPECT_NEAR(analytical, 21.5, 21.5 * 0.08);
  EXPECT_NEAR(tabulated, 20.9, 20.9 * 0.08);
  // The headline: ~60% reduction with the rigorous device model.
  EXPECT_NEAR(1.0 - tabulated / unaware, 0.60, 0.03);
  EXPECT_LT(tabulated, analytical);
}

TEST(Validation, Fig11HeterogeneousMappingRuns) {
  ASSERT_EQ(rows("fig11").size(), 8u);
  // MZI fc layers are reconfiguration-bound (thermo-optic 10 us); conv1
  // on SCATTER is not.
  const Row fc1 = row("fig11", "fc1");
  EXPECT_EQ(fc1.text("sub-arch"), "mzi-mesh");
  EXPECT_GT(fc1["reconfig cycles"], fc1["compute cycles"]);
  const Row conv1 = row("fig11", "conv1");
  EXPECT_LT(conv1["reconfig cycles"], conv1["compute cycles"]);
}

TEST(Validation, Fig11ConvComputeLinearReconfigShape) {
  const std::vector<Row> r = rows("fig11");
  auto stalls = [](const Row& x) {
    return x["reconfig cycles"] / x["compute cycles"];
  };
  double conv_stalls = 0.0;  // the largest over the conv rows
  for (const Row& x : r) {
    if (!x.text("layer").starts_with("conv")) continue;
    EXPECT_EQ(x.text("sub-arch"), "scatter") << x.text("layer");
    // Compute energy (everything but data movement) dominates.
    EXPECT_LT(x["DM"], 0.5 * x["TOTAL (uJ)"]) << x.text("layer");
    conv_stalls = std::max(conv_stalls, stalls(x));
  }
  for (const Row& x : r) {
    if (!x.text("layer").starts_with("fc")) continue;
    EXPECT_EQ(x.text("sub-arch"), "mzi-mesh") << x.text("layer");
    // Thermo-optic reprogramming stalls outlast the compute cycles, far
    // beyond any conv layer's, and the mesh PS power leads the energy.
    EXPECT_GT(stalls(x), std::max(1.0, conv_stalls)) << x.text("layer");
    for (const char* cat : {"Laser", "PD", "MZM", "ADC", "DAC", "TIA", "DM"}) {
      EXPECT_GT(x["PS"], x[cat]) << x.text("layer") << " " << cat;
    }
  }
}

TEST(Validation, Table1ForwardsMatchPaper) {
  const std::vector<Row> r = rows("table1");
  ASSERT_EQ(r.size(), 5u);
  for (const Row& x : r) {
    EXPECT_EQ(x["#Forwards"], x["paper"]) << x.text("EPIC Design");
  }
}

TEST(Validation, Table1ForwardsViaLatencyPenalty) {
  // The I multiplier must surface in end-to-end cycles: PCM (I=4) takes
  // 2x the compute passes of MRR (I=2) on the same workload and shape.
  const std::string cycles = "cycles (64x16x16, L=1)";
  EXPECT_EQ(row("table1", "PCM crossbar [27]")[cycles],
            2 * row("table1", "MRR Array [20]")[cycles]);
}

TEST(Validation, DataflowAblationOsAdvantageGrowsWithDepth) {
  const std::vector<Row> r = rows("ablation_dataflow");
  ASSERT_EQ(r.size(), 5u);
  for (size_t i = 0; i < r.size(); ++i) {
    const double ws_rate = r[i]["WS ADC rate (GHz)"];
    EXPECT_EQ(ws_rate, r[0]["WS ADC rate (GHz)"]);  // every cycle
    // Output-stationary samples once per d-window of accumulation.
    EXPECT_NEAR(r[i]["OS ADC rate (GHz)"] * r[i]["OS d-window"], ws_rate,
                ws_rate * 1e-12);
    const double os = r[i]["OS energy (uJ)"], ws = r[i]["WS energy (uJ)"];
    EXPECT_EQ(r[i].text("winner"), os <= ws ? "OS" : "WS");
    if (i == 0) continue;
    EXPECT_GT(r[i]["OS d-window"], r[i - 1]["OS d-window"]);
    EXPECT_GT(ws / os, r[i - 1]["WS energy (uJ)"] / r[i - 1]["OS energy (uJ)"])
        << "D=" << r[i]["D"];
  }
}

TEST(Validation, MemoryAblationBlocksTrackDemand) {
  const std::vector<Row> r = rows("ablation_memory");
  ASSERT_EQ(r.size(), 5u);
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_GE(r[i]["BW multi (GB/s)"], r[i]["BW single (GB/s)"]);
    if (i == 0) continue;
    EXPECT_GT(r[i]["R*C*H*W*L"], r[i - 1]["R*C*H*W*L"]);
    EXPECT_GT(r[i]["dBW demand (GB/s)"], r[i - 1]["dBW demand (GB/s)"]);
    EXPECT_GE(r[i]["blocks (auto)"], r[i - 1]["blocks (auto)"]);
    EXPECT_GT(r[i]["single-block shortfall"],
              r[i - 1]["single-block shortfall"]);
  }
}

TEST(Validation, ReconfigAblationPenaltyLinearThenDominant) {
  const std::vector<Row> r = rows("ablation_reconfig");
  ASSERT_EQ(r.size(), 5u);
  const double baseline = r[0]["total cycles"];
  EXPECT_EQ(r[0]["cycles/switch"], 0);  // sub-cycle: free
  EXPECT_EQ(r[0]["switch stalls"], 0);
  const double switches = r[1]["switch stalls"] / r[1]["cycles/switch"];
  for (const Row& x : r) {
    // Each block switch stalls for the reprogramming time: the penalty is
    // linear in it and adds straight onto the EO runtime.
    EXPECT_EQ(x["switch stalls"], switches * x["cycles/switch"]);
    EXPECT_EQ(x["total cycles"], baseline + x["switch stalls"]);
    EXPECT_DOUBLE_EQ(x["vs EO baseline"], x["total cycles"] / baseline);
  }
  EXPECT_GT(r.back()["switch stalls"], 0.9 * r.back()["total cycles"]);
}

}  // namespace
}  // namespace simphony
