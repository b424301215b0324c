// Minimal dense float tensor used to carry *actual workload values*
// (weights, activations, pruning masks) into the simulator — the paper's
// data-aware energy modeling (§III-C5) depends on real operand values, so
// the workload substrate must ship them, not just shapes.
//
// A tensor either owns its values or is one slot of a shared
// WeightSource (recipe.h): the built-in models' weights are drawn on
// first read, not at build time.  Both kinds read the same; writing
// through the mutable accessors turns a recipe-backed tensor into an
// owning one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace simphony::workload {

class WeightSource;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int64_t> shape);
  /// Slot `slot` of `source`, shaped as its recipe draws it.
  Tensor(std::shared_ptr<const WeightSource> source, size_t slot);

  [[nodiscard]] const std::vector<int64_t>& shape() const { return shape_; }
  [[nodiscard]] int64_t numel() const;
  [[nodiscard]] size_t rank() const { return shape_.size(); }

  /// Read access.  A recipe-backed tensor materializes its whole source on
  /// the first read (once, safe under concurrent readers) and returns the
  /// source's buffer, which lives as long as any tensor sharing it.
  [[nodiscard]] const std::vector<float>& data() const;
  /// Write access: takes a private copy of the values and drops the
  /// recipe, so the tensor is keyed by its content from then on.
  [[nodiscard]] std::vector<float>& data();

  [[nodiscard]] float& at(int64_t flat_index);
  [[nodiscard]] float at(int64_t flat_index) const;

  /// The source this tensor is slot slot() of; nullptr when the tensor
  /// owns its values.
  [[nodiscard]] const WeightSource* source() const { return source_.get(); }
  [[nodiscard]] size_t slot() const { return slot_; }

  /// Deterministic initializers.
  static Tensor randn(std::vector<int64_t> shape, util::Rng& rng,
                      double mean = 0.0, double stddev = 1.0);
  static Tensor uniform(std::vector<int64_t> shape, util::Rng& rng,
                        double lo = -1.0, double hi = 1.0);
  static Tensor zeros(std::vector<int64_t> shape);
  static Tensor full(std::vector<int64_t> shape, float value);

  /// Largest |value| (0 for empty tensors).
  [[nodiscard]] float abs_max() const;
  /// Mean of |values| (0 for empty tensors).
  [[nodiscard]] float abs_mean() const;
  /// Fraction of exact zeros (pruned entries).
  [[nodiscard]] double sparsity() const;

  /// In-place magnitude pruning of the smallest `ratio` fraction to zero.
  void prune_smallest(double ratio);

  /// In-place scaling so abs_max == `target` (no-op on all-zero tensors).
  void normalize_to(float target);

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;  // the values when source_ is null
  std::shared_ptr<const WeightSource> source_;
  size_t slot_ = 0;
};

}  // namespace simphony::workload
