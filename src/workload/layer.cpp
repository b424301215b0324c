#include "workload/layer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace simphony::workload {

std::string to_string(LayerType type) {
  switch (type) {
    case LayerType::kConv2d: return "Conv2d";
    case LayerType::kLinear: return "Linear";
    case LayerType::kMatMulQK: return "MatMulQK";
    case LayerType::kMatMulAV: return "MatMulAV";
  }
  return "?";
}

int Layer::out_height() const {
  return (in_height + 2 * padding - kernel) / stride + 1;
}

int Layer::out_width() const {
  return (in_width + 2 * padding - kernel) / stride + 1;
}

int64_t Layer::macs() const {
  switch (type) {
    case LayerType::kConv2d:
      return static_cast<int64_t>(out_height()) * out_width() * out_channels *
             in_channels * kernel * kernel;
    case LayerType::kLinear:
      // Applied to every activation row (batch / sequence length).
      return static_cast<int64_t>(in_features) * out_features *
             std::max(1, mm_m);
    case LayerType::kMatMulQK:
    case LayerType::kMatMulAV:
      return static_cast<int64_t>(mm_m) * mm_k * mm_n * batch;
  }
  return 0;
}

int64_t Layer::weight_count() const {
  switch (type) {
    case LayerType::kConv2d:
      return static_cast<int64_t>(out_channels) * in_channels * kernel *
             kernel;
    case LayerType::kLinear:
      return static_cast<int64_t>(in_features) * out_features;
    default:
      return 0;
  }
}

Layer conv2d_layer(std::string name, int in_ch, int out_ch, int kernel,
                   int in_h, int in_w, int stride, int padding) {
  if (in_ch <= 0 || out_ch <= 0 || kernel <= 0 || in_h <= 0 || in_w <= 0) {
    throw std::invalid_argument("conv2d dims must be positive");
  }
  Layer layer;
  layer.name = std::move(name);
  layer.type = LayerType::kConv2d;
  layer.in_channels = in_ch;
  layer.out_channels = out_ch;
  layer.kernel = kernel;
  layer.stride = stride;
  layer.padding = padding;
  layer.in_height = in_h;
  layer.in_width = in_w;
  return layer;
}

Layer linear_layer(std::string name, int in_features, int out_features) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("linear dims must be positive");
  }
  Layer layer;
  layer.name = std::move(name);
  layer.type = LayerType::kLinear;
  layer.in_features = in_features;
  layer.out_features = out_features;
  return layer;
}

WeightRecipe::Draw weight_init(const Layer& layer) {
  switch (layer.type) {
    case LayerType::kConv2d:
      return {{layer.out_channels,
               static_cast<int64_t>(layer.in_channels) * layer.kernel *
                   layer.kernel},
              std::sqrt(2.0 / (static_cast<double>(layer.in_channels) *
                               layer.kernel * layer.kernel))};
    case LayerType::kLinear:
      return {{layer.out_features, layer.in_features},
              std::sqrt(2.0 / static_cast<double>(layer.in_features))};
    default:
      throw std::invalid_argument("layer '" + layer.name +
                                  "' has no weights to draw");
  }
}

namespace {
void draw_weights(Layer& layer, util::Rng& rng) {
  const WeightRecipe::Draw init = weight_init(layer);
  layer.weights = Tensor::randn(init.shape, rng, 0.0, init.stddev);
  layer.weights.normalize_to(1.0f);
}
}  // namespace

Layer make_conv2d(std::string name, int in_ch, int out_ch, int kernel,
                  int in_h, int in_w, util::Rng& rng, int stride,
                  int padding) {
  Layer layer = conv2d_layer(std::move(name), in_ch, out_ch, kernel, in_h,
                             in_w, stride, padding);
  draw_weights(layer, rng);
  return layer;
}

Layer make_linear(std::string name, int in_features, int out_features,
                  util::Rng& rng) {
  Layer layer = linear_layer(std::move(name), in_features, out_features);
  draw_weights(layer, rng);
  return layer;
}

Layer make_matmul(std::string name, LayerType type, int m, int k, int n,
                  int batch) {
  if (type != LayerType::kMatMulQK && type != LayerType::kMatMulAV) {
    throw std::invalid_argument("make_matmul requires a matmul layer type");
  }
  Layer layer;
  layer.name = std::move(name);
  layer.type = type;
  layer.mm_m = m;
  layer.mm_k = k;
  layer.mm_n = n;
  layer.batch = batch;
  return layer;
}

}  // namespace simphony::workload
