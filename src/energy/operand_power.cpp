#include "energy/operand_power.h"

#include <bit>

namespace simphony::energy {

double walk_mean_power_mW(double p_pi_mW, devlib::PowerFidelity fidelity,
                          std::span<const float> values) {
  const auto model = devlib::make_phase_shifter_power(p_pi_mW, fidelity);
  return model->mean_power_mW(values);
}

double OperandPowerMemo::mean_power_mW(uint64_t content_key, double p_pi_mW,
                                       devlib::PowerFidelity fidelity,
                                       std::span<const float> values) {
  const Key key{content_key, std::bit_cast<uint64_t>(p_pi_mW), fidelity};
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = slots_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Slot>();
    } else if (it->second->ready.load(std::memory_order_acquire)) {
      ++stats_.hits;
      return it->second->value;
    }
    ++stats_.misses;
    slot = it->second;
  }
  // Single flight: the first caller walks; callers arriving meanwhile
  // block here until its value is published.
  std::call_once(slot->once, [&] {
    slot->value = walk_mean_power_mW(p_pi_mW, fidelity, values);
    slot->ready.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.walks;
  });
  return slot->value;
}

OperandPowerMemo::Stats OperandPowerMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t OperandPowerMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

void OperandPowerMemo::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
  stats_ = Stats{};
}

}  // namespace simphony::energy
