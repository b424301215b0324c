// The paper's §IV results as data: Fig. 3 construction, Table I, Figs.
// 6-11 and the dataflow, memory and reconfiguration ablations.  One
// function per figure builds its setup and returns its tables;
// bench/bench_paper.cpp prints them and tests/test_validation.cpp checks
// them.
//
// A figure is a util::Json object:
//   id       golden file stem: tests/golden/paper/<id>.json
//   title    printed as "=== <title> ==="
//   columns  [{name, precision?, suffix?}]: a number cell prints as
//            util::Table::fmt(value, precision) + suffix, text verbatim
//   rows     one array of cells (number or text) per table row
//   values   named numbers or text outside the table: the paper's
//            reference totals, summaries and counts
//   notes    lines printed after the table; "{key:p}" stands for
//            values[key] at p decimals, "{key}" for a text value
//   claim    the expected shape (optional), asserted over all rows
//
// Ids, in paper order: fig3a fig3b fig3_scaling table1 fig6_placements
// fig6 fig7a fig7b fig8a fig8b fig9a fig9b fig9_dse fig10a fig10b fig11
// fig11_dse ablation_dataflow ablation_memory ablation_reconfig.
//
// Re-recording after a deliberate model change: test_validation prints
// the actual JSON of each figure that differs from its golden; copy it
// over tests/golden/paper/<id>.json and say in the change why it moved.
#pragma once

#include <vector>

#include "util/json.h"

namespace simphony::paper {

/// Every figure, in paper order.  Deterministic: no wall-clock values.
[[nodiscard]] std::vector<util::Json> figures();

}  // namespace simphony::paper
