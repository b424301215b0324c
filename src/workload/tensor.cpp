#include "workload/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "workload/recipe.h"

namespace simphony::workload {

namespace {
int64_t shape_numel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d <= 0) throw std::invalid_argument("tensor dims must be positive");
    n *= d;
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(shape_numel(shape_)), 0.0f);
}

Tensor::Tensor(std::shared_ptr<const WeightSource> source, size_t slot)
    : source_(std::move(source)), slot_(slot) {
  if (source_ == nullptr || slot_ >= source_->recipe().draws.size()) {
    throw std::invalid_argument("tensor slot is not in its weight recipe");
  }
  shape_ = source_->recipe().draws[slot_].shape;
  (void)shape_numel(shape_);
}

int64_t Tensor::numel() const {
  return source_ != nullptr ? shape_numel(shape_)
                            : static_cast<int64_t>(data_.size());
}

const std::vector<float>& Tensor::data() const {
  return source_ != nullptr ? source_->values(slot_) : data_;
}

std::vector<float>& Tensor::data() {
  if (source_ != nullptr) {
    data_ = source_->values(slot_);
    source_.reset();
  }
  return data_;
}

float& Tensor::at(int64_t flat_index) {
  return data().at(static_cast<size_t>(flat_index));
}

float Tensor::at(int64_t flat_index) const {
  return data().at(static_cast<size_t>(flat_index));
}

Tensor Tensor::randn(std::vector<int64_t> shape, util::Rng& rng, double mean,
                     double stddev) {
  Tensor t;
  t.data_ = rng.normal_vector(static_cast<size_t>(shape_numel(shape)), mean,
                              stddev);
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::uniform(std::vector<int64_t> shape, util::Rng& rng, double lo,
                       double hi) {
  Tensor t;
  t.data_ =
      rng.uniform_vector(static_cast<size_t>(shape_numel(shape)), lo, hi);
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  std::fill(t.data_.begin(), t.data_.end(), value);
  return t;
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data()) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::abs_mean() const {
  const std::vector<float>& values = data();
  if (values.empty()) return 0.0f;
  double sum = 0.0;
  for (float v : values) sum += std::abs(v);
  return static_cast<float>(sum / static_cast<double>(values.size()));
}

double Tensor::sparsity() const {
  const std::vector<float>& values = data();
  if (values.empty()) return 0.0;
  const auto zeros = std::count(values.begin(), values.end(), 0.0f);
  return static_cast<double>(zeros) / static_cast<double>(values.size());
}

void Tensor::prune_smallest(double ratio) {
  if (ratio <= 0.0 || numel() == 0) return;
  (void)data();  // own the values before rewriting them
  ratio = std::min(ratio, 1.0);
  std::vector<float> mags(data_.size());
  std::transform(data_.begin(), data_.end(), mags.begin(),
                 [](float v) { return std::abs(v); });
  const auto k = static_cast<size_t>(
      std::llround(ratio * static_cast<double>(mags.size())));
  if (k == 0) return;
  std::nth_element(mags.begin(), mags.begin() + static_cast<ptrdiff_t>(k - 1),
                   mags.end());
  const float threshold = mags[k - 1];
  for (float& v : data_) {
    if (std::abs(v) <= threshold) v = 0.0f;
  }
}

void Tensor::normalize_to(float target) {
  const float m = abs_max();
  if (m <= 0.0f) return;
  (void)data();  // own the values before rewriting them
  const float scale = target / m;
  for (float& v : data_) v *= scale;
}

}  // namespace simphony::workload
