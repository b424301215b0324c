#include "workload/recipe.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/hash.h"
#include "util/rng.h"
#include "workload/onn_convert.h"
#include "workload/tensor.h"

namespace simphony::workload {

uint64_t WeightRecipe::key() const {
  size_t seed_hash = 0x72656369;  // "reci": the recipe format, version 1
  util::hash_combine_value(seed_hash, seed);
  util::hash_combine_value(seed_hash, prune_ratio);
  util::hash_combine_value(seed_hash, draws.size());
  for (const Draw& draw : draws) {
    util::hash_combine_value(seed_hash, draw.shape.size());
    for (int64_t dim : draw.shape) util::hash_combine_value(seed_hash, dim);
    util::hash_combine_value(seed_hash, draw.stddev);
  }
  util::hash_combine_value(seed_hash, quantize_bits.size());
  for (const std::vector<int>& pass : quantize_bits) {
    util::hash_combine_value(seed_hash, pass.size());
    for (int bits : pass) util::hash_combine_value(seed_hash, bits);
  }
  return static_cast<uint64_t>(seed_hash);
}

WeightSource::WeightSource(WeightRecipe recipe)
    : recipe_(std::move(recipe)), key_(recipe_.key()) {
  for (const std::vector<int>& pass : recipe_.quantize_bits) {
    if (pass.size() != recipe_.draws.size()) {
      throw std::invalid_argument(
          "weight recipe quantize pass covers " +
          std::to_string(pass.size()) + " slot(s), expected " +
          std::to_string(recipe_.draws.size()));
    }
  }
}

const std::vector<float>& WeightSource::values(size_t slot) const {
  std::call_once(once_, [this] { materialize(); });
  return values_.at(slot);
}

void WeightSource::materialize() const {
  // Exactly the eager builders' arithmetic: the same Tensor operations in
  // the same order, so the values match them bit for bit.
  util::Rng rng(recipe_.seed);
  std::vector<std::vector<float>> values;
  values.reserve(recipe_.draws.size());
  for (size_t slot = 0; slot < recipe_.draws.size(); ++slot) {
    const WeightRecipe::Draw& draw = recipe_.draws[slot];
    Tensor t = Tensor::randn(draw.shape, rng, 0.0, draw.stddev);
    t.normalize_to(1.0f);
    if (recipe_.prune_ratio > 0.0) t.prune_smallest(recipe_.prune_ratio);
    for (const std::vector<int>& pass : recipe_.quantize_bits) {
      if (pass[slot] > 0) quantize_in_place(t, pass[slot]);
    }
    values.push_back(std::move(t.data()));
  }
  values_ = std::move(values);
  materializations_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace simphony::workload
