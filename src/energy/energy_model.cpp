#include "energy/energy_model.h"

#include <cmath>
#include <span>

#include "devlib/electronics.h"
#include "util/units.h"

namespace simphony::energy {

namespace {

using arch::Role;

/// Mean data-dependent power per weight cell over the actual operand
/// values (pruned zeros contribute zero power: fine-grained gating).
/// With a memo, the walk runs once per (gemm_key, P_pi, fidelity).
double weight_cell_mean_power_mW(const devlib::DeviceParams& dev,
                                 const workload::GemmWorkload& gemm,
                                 const EnergyOptions& options,
                                 OperandPowerMemo* memo, uint64_t gemm_key) {
  const double p_pi = dev.prop_or("p_pi_mW", dev.static_power_mW);
  if (!options.data_aware ||
      options.fidelity == devlib::PowerFidelity::kDataUnaware ||
      gemm.weights == nullptr || gemm.weights->numel() == 0) {
    // Library reference power for every cell; pruning cannot gate what the
    // model does not see.
    return p_pi;
  }
  const std::span<const float> values(gemm.weights->data());
  return memo != nullptr
             ? memo->mean_power_mW(gemm_key, p_pi, options.fidelity, values)
             : walk_mean_power_mW(p_pi, options.fidelity, values);
}

}  // namespace

EnergyBreakdown compute_energy(const arch::SubArchitecture& subarch,
                               const workload::GemmWorkload& gemm,
                               const dataflow::DataflowResult& mapped,
                               const arch::LinkBudgetReport& link,
                               const memory::TrafficResult* traffic,
                               const EnergyOptions& options,
                               OperandPowerMemo* memo, uint64_t gemm_key) {
  const arch::ArchParams& p = subarch.params();
  const devlib::DeviceLibrary& lib = subarch.library();
  EnergyBreakdown out;

  const double runtime_ns = mapped.runtime_ns;
  const double active_ns =
      static_cast<double>(mapped.compute_cycles) / p.clock_GHz;
  // Pruning gates the weight-side encoders and cells.
  const double weight_activity = options.data_aware
                                     ? 1.0 - gemm.sparsity
                                     : 1.0;

  for (const auto& g : subarch.groups()) {
    if (g.count == 0) continue;
    const arch::ArchInstance& spec = *g.spec;
    // The composite node placeholder (role kNodeInternal, zero-power
    // device) falls through harmlessly; weight-cell node instances
    // (SCATTER/MZI/MRR/PCM) are costed by their role below.
    const devlib::DeviceParams& dev = lib.get(spec.device);
    const double count = static_cast<double>(g.count);

    switch (spec.role) {
      case Role::kSource: {
        // Wall-plug laser power from the link budget, on for the runtime.
        out.add(spec.category,
                util::energy_pJ(link.total_laser_power_mW, runtime_ns));
        break;
      }
      case Role::kCoupling:
        break;  // passive
      case Role::kEncoderA:
      case Role::kEncoderB: {
        const bool is_b = spec.role == Role::kEncoderB;
        const double gate = is_b ? weight_activity : 1.0;
        const int bits = is_b ? gemm.weight_bits : gemm.input_bits;
        if (dev.category == devlib::DeviceCategory::kElectronic) {
          const double power = devlib::dac_power_mW(
              dev, {.bits = bits, .sample_rate_GHz = p.clock_GHz});
          out.add(spec.category,
                  util::energy_pJ(power * count * gate, active_ns));
        } else {
          // Modulator: bias power + per-symbol driving energy.
          const double symbols = static_cast<double>(
              is_b ? mapped.encoder_b_symbols : mapped.encoder_a_symbols);
          const double bias_pJ =
              util::energy_pJ(dev.static_power_mW * count, active_ns);
          const double drive_pJ = util::fJ_to_pJ(
              devlib::mzm_symbol_energy_fJ(dev) * symbols *
              static_cast<double>(mapped.range_penalty_I) * gate);
          out.add(spec.category, bias_pJ + drive_pJ);
        }
        break;
      }
      case Role::kWeightCell: {
        if (spec.device == "pcm_cell") {
          // Non-volatile: zero hold power, energy only on writes.
          const double writes =
              static_cast<double>(mapped.reconfig_events) * count *
              weight_activity;
          out.add(spec.category,
                  util::fJ_to_pJ(dev.dynamic_energy_fJ * writes));
        } else {
          // Data-aware fidelities take the mean over the actual weight
          // values (pruned zeros draw zero power: implicit gating); the
          // data-unaware reference charges P_pi for every cell.
          const double mean_mW =
              weight_cell_mean_power_mW(dev, gemm, options, memo, gemm_key);
          out.add(spec.category,
                  util::energy_pJ(mean_mW * count, runtime_ns));
        }
        break;
      }
      case Role::kNodeInternal: {
        // Bias/trim power of the replicated node devices.
        if (dev.static_power_mW > 0) {
          out.add(spec.category,
                  util::energy_pJ(dev.static_power_mW * count, runtime_ns));
        }
        break;
      }
      case Role::kReadout: {
        if (spec.device == "adc") {
          const double power = devlib::adc_power_mW(
              dev, {.bits = gemm.output_bits,
                    .sample_rate_GHz = mapped.adc_rate_GHz});
          out.add(spec.category, util::energy_pJ(power * count, active_ns));
        } else if (spec.device == "tia") {
          const double power = devlib::tia_power_mW(dev, p.clock_GHz);
          out.add(spec.category, util::energy_pJ(power * count, active_ns));
        } else if (spec.device == "integrator") {
          const double power =
              devlib::integrator_power_mW(dev, mapped.adc_rate_GHz);
          out.add(spec.category, util::energy_pJ(power * count, active_ns));
        } else if (dev.static_power_mW > 0) {  // PD bias etc.
          out.add(spec.category,
                  util::energy_pJ(dev.static_power_mW * count, runtime_ns));
        }
        break;
      }
      case Role::kDistribution:
      case Role::kOther:
        // Mostly passive optics; active distribution elements (SOA gain
        // stages) burn static power for the whole runtime.
        if (dev.static_power_mW > 0) {
          out.add(spec.category,
                  util::energy_pJ(dev.static_power_mW * count, runtime_ns));
        }
        break;
    }
  }

  if (options.include_data_movement && traffic != nullptr) {
    out.add("DM", traffic->total_energy_pJ());
  }
  return out;
}

}  // namespace simphony::energy
