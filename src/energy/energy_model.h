// Data-dependent, device-response-aware energy analysis
// (paper §III-C5, Fig. 5).
//
// "SimPhony accumulates the energy over cycles based on the values of the
// real operands.  This approach enables accurate energy profiling with
// fine-grained power gating from ONN pruning."
//
// Per instance group the model selects the appropriate cost law by role:
//   * laser       — link-budget-derived wall-plug power over the runtime;
//   * DAC / ADC   — converter scaling laws at the workload bitwidths and
//                   the effective sampling rate from the dataflow;
//   * MZM         — bias power + per-symbol driving energy (gated by
//                   pruning sparsity on the weight side);
//   * weight cells (PS / MZI / MRR) — data-dependent power evaluated on
//                   the *actual weight values* at the selected fidelity
//                   (data-unaware / analytical / tabulated);
//   * PCM cells   — zero hold power, write energy per reconfiguration;
//   * PD / TIA / integrator — bias and front-end power over active time;
//   * DM          — memory traffic energy from the CACTI-backed hierarchy.
#pragma once

#include "arch/hierarchy.h"
#include "arch/link_budget.h"
#include "dataflow/dataflow.h"
#include "devlib/power_model.h"
#include "energy/operand_power.h"
#include "energy/report.h"
#include "memory/traffic.h"
#include "workload/gemm.h"

namespace simphony::energy {

struct EnergyOptions {
  /// Fidelity of data-dependent device power (paper Fig. 5 / Fig. 10b).
  devlib::PowerFidelity fidelity = devlib::PowerFidelity::kTabulated;

  /// When false, weight-cell power ignores operand values entirely and
  /// pruning gating is disabled (the "Data Unaware" bar of Fig. 10b).
  bool data_aware = true;

  /// Include the "DM" (data movement) category from memory traffic.
  bool include_data_movement = true;
};

/// Computes the energy breakdown of one mapped GEMM.  `traffic` may be
/// nullptr when data movement is excluded.  With `memo` set, the
/// data-aware weight-cell walk is looked up under `gemm_key` (the
/// content fingerprint of `gemm`, core::gemm_fingerprint) and run at most
/// once per key; the result is bit-identical to the un-memoized walk.
[[nodiscard]] EnergyBreakdown compute_energy(
    const arch::SubArchitecture& subarch, const workload::GemmWorkload& gemm,
    const dataflow::DataflowResult& mapped,
    const arch::LinkBudgetReport& link,
    const memory::TrafficResult* traffic, const EnergyOptions& options = {},
    OperandPowerMemo* memo = nullptr, uint64_t gemm_key = 0);

}  // namespace simphony::energy
