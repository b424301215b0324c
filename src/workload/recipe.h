// Weight recipes: synthetic weights described, not stored.
//
// Every built-in model (model.h) draws its weights from one seeded
// util::Rng stream, so its tensors are a pure function of a few numbers:
// the seed, each weighted layer's shape and init stddev, the prune ratio
// and the quantize passes applied since.  A WeightSource holds that recipe
// for one model and draws the values only when something reads them.  An
// all-hit simulate or explore keys its cost lookups by recipe
// (core::gemm_fingerprint) and never draws, quantizes or hashes a weight;
// the data-aware energy walk on a cost-cache miss, cosim and tests read
// the values and materialize the model once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace simphony::workload {

/// What a WeightSource draws.  Slot i is the i-th weighted layer in model
/// order: normal(0, draws[i].stddev) values from the ONE stream
/// Rng(seed) (one normal_distribution per slot, as Tensor::randn does),
/// scaled to abs_max 1, magnitude-pruned by `prune_ratio`, then quantized
/// by every recorded pass in order.
struct WeightRecipe {
  struct Draw {
    std::vector<int64_t> shape;
    double stddev = 1.0;
  };

  uint64_t seed = 0;
  double prune_ratio = 0.0;
  std::vector<Draw> draws;
  /// One entry per convert_model_in_place pass: the quantize bits of each
  /// slot (0 = the pass did not touch that slot).
  std::vector<std::vector<int>> quantize_bits;

  /// Hash of every field above: equal keys draw equal values.
  [[nodiscard]] uint64_t key() const;
};

/// One model's weights by recipe.  Tensors (tensor.h) share it through a
/// shared_ptr, one slot each; the first read of any slot materializes
/// every slot, once, even under concurrent readers.  The recipe never
/// changes: recording a quantize pass makes a new source.
class WeightSource {
 public:
  explicit WeightSource(WeightRecipe recipe);

  WeightSource(const WeightSource&) = delete;
  WeightSource& operator=(const WeightSource&) = delete;

  [[nodiscard]] const WeightRecipe& recipe() const { return recipe_; }
  [[nodiscard]] uint64_t key() const { return key_; }

  /// The values of `slot`, materializing the whole source on first use.
  [[nodiscard]] const std::vector<float>& values(size_t slot) const;

  /// How many times this source drew its values: 0 until read, then 1.
  [[nodiscard]] uint64_t materializations() const {
    return materializations_.load(std::memory_order_relaxed);
  }

 private:
  void materialize() const;

  WeightRecipe recipe_;
  uint64_t key_;
  mutable std::once_flag once_;
  mutable std::vector<std::vector<float>> values_;
  mutable std::atomic<uint64_t> materializations_{0};
};

}  // namespace simphony::workload
