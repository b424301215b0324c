// Recipe-backed weights (workload/recipe.h): the built-in models draw
// their weights on first read instead of at build time.  Three guarantees:
//
//   1. the lazy draw reproduces the eager builders byte for byte, unquantized
//      and after convert_model_in_place at 4 and 8 bits;
//   2. a model materializes once, whatever the number of concurrent first
//      readers, and a copy written through data() leaves the original's
//      recipe, key and values intact;
//   3. building, converting and fingerprinting a model reads no weight.
#include "workload/recipe.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/dse.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/gemm.h"
#include "workload/model.h"
#include "workload/onn_convert.h"

namespace simphony::workload {
namespace {

/// fnv1a of each weighted layer's float bytes, in layer order.
std::vector<uint64_t> layer_digests(const Model& model) {
  std::vector<uint64_t> digests;
  for (const Layer& layer : model.layers) {
    if (layer.weights.numel() == 0) continue;
    const std::vector<float>& values = layer.weights.data();
    digests.push_back(
        util::fnv1a_bytes(values.data(), values.size() * sizeof(float)));
  }
  return digests;
}

Model build(const std::string& label) {
  return label == "vgg8_cifar10(42, 0.5)" ? vgg8_cifar10(42, 0.5)
                                          : model_from_spec(label);
}

Model converted(const std::string& label, int bits) {
  Model model = build(label);
  if (bits > 0) {
    for (Layer& layer : model.layers) layer.weight_bits = bits;
    convert_model_in_place(model);
  }
  return model;
}

// Recorded with the eager builders of commit d0a2b21 (before weights became
// recipe-backed): model_from_spec(label) (or vgg8_cifar10(42, 0.5)), every
// layer's weight_bits set to `bits`, convert_model_in_place unless bits is
// 0, then layer_digests().  The lazy stream must reproduce them, including
// the Rng state carried from one layer's draw into the next.
struct PinnedDigests {
  const char* label;
  int bits;
  std::vector<uint64_t> digests;
};

const std::vector<PinnedDigests>& pinned() {
  static const std::vector<PinnedDigests> table = {
    {"vgg8", 0,
     {
         0xdd9be043261107b9ull, 0x22b0f0b0ffb6ee4aull, 0x325d92f025d9e424ull,
         0xccae34d8c28ac2e5ull, 0x81a58ce3f63e1c21ull, 0xdf16de79b72a0b30ull,
         0x7b09d48af9578058ull, 0x8cfb5585e5dbdac9ull
     }},
    {"vgg8", 4,
     {
         0x1492b276fca078adull, 0xab3e5da22f8ec546ull, 0x2093f8b6100c1baaull,
         0xc9b5cf920b7dd3ffull, 0x344c924b39b1ec38ull, 0x0d332f90aaccdab5ull,
         0xfb48d1d5a4cc1507ull, 0x26f17a3e0d2ee94bull
     }},
    {"vgg8", 8,
     {
         0x2dbe25800d52de48ull, 0xa7635afed43ddf92ull, 0x2d41d19a81b2510dull,
         0xec291be3965a2d83ull, 0x0e80a0c1449f9efaull, 0x19ddbf388364ff85ull,
         0x131682cfc1e2376bull, 0xc7b79691791b89a7ull
     }},
    {"resnet20", 0,
     {
         0x739018d2e8c5a6a9ull, 0x162d0c367302986eull, 0xe4fec30b3428a2d0ull,
         0x00771543a37878a1ull, 0x30a89e986fc1ca15ull, 0x9e60f77287d23779ull,
         0xd1ac75a8867e3d30ull, 0xfc2243c1fd4dc5bbull, 0xdbdbe3cb863eec16ull,
         0xcb410d0f40313164ull, 0xb61c72f34af720a2ull, 0x9c01c1ae989a91feull,
         0x3afe2786b1881444ull, 0x2b428349826161cdull, 0x57c23245b5d63051ull,
         0x0f15ed7b29c36733ull, 0xd088aff6028da9d5ull, 0x2786d4ef9acf5ad1ull,
         0xee1ac12725fe7908ull, 0x68161ba9c580b6eeull
     }},
    {"resnet20", 4,
     {
         0xc1addbdc9214cbf9ull, 0xde8c95cb7cd7186bull, 0xfe4f93940cf70499ull,
         0xf69de5f52a397cbeull, 0xe5fca0c322e0f3d2ull, 0x2d14f0cf1f170d98ull,
         0x43f9619e517cf7a7ull, 0xacd241837e1545d9ull, 0xbe7c484d271e19c3ull,
         0x7fc6bd5022cd99d9ull, 0x666280d7c49bd5baull, 0xa87089d4b3bbe3a5ull,
         0x9d3691c79a3c533bull, 0x9a3683bc8eacf7b6ull, 0x4b28c803d7e998c3ull,
         0x21391f78cea3bd0full, 0x3ce273e0028cc316ull, 0x32434f49d5a7f9caull,
         0x846a03d9ece136e3ull, 0xb09b948c1956a617ull
     }},
    {"resnet20", 8,
     {
         0xe0c416a2e2bb220dull, 0xf4aad4ed76eb206dull, 0x18bf92615c76ea86ull,
         0xc34a0a35e0425f08ull, 0x233b4db71084b38full, 0xffbbd6594396c1faull,
         0x907cfa40870a3ba5ull, 0xbc4597c52b77be97ull, 0x5d0ae3a4326ad440ull,
         0x5b9e5b42932dbfe4ull, 0xeeaa18ed52004636ull, 0xb80ef6b247bb6a30ull,
         0x0c7971a36e61f649ull, 0x7bc7af0b900b785full, 0x229edbd22b3e1872ull,
         0xed11b920e7545458ull, 0x2a360b5e3cdea66bull, 0x34b439f03b4ad60dull,
         0xb35b0d1a2d187bebull, 0xc544eca4053045e8ull
     }},
    {"mlp", 0,
     {
         0x8f2a74792e8d050eull, 0xdadf98e08426229eull, 0x6144f23ab848197cull
     }},
    {"mlp", 4,
     {
         0x631862c7be301489ull, 0x2215db17551986a2ull, 0xde115e11e32218a8ull
     }},
    {"mlp", 8,
     {
         0x9c8af8b4a70f4e6cull, 0x94f862bb60d20b0bull, 0x491d30375e587710ull
     }},
    {"gemm:280x28x280", 0,
     {
         0x5f8079c70e3921d1ull
     }},
    {"gemm:280x28x280", 4,
     {
         0x68d567359446d2aaull
     }},
    {"gemm:280x28x280", 8,
     {
         0xdc225c52d78c6dd9ull
     }},
    {"vgg8_cifar10(42, 0.5)", 0,
     {
         0xd687dbd98f2b3922ull, 0x2212b23a7cd8d49dull, 0xeaba7cdddb7e26c3ull,
         0x73b10a09248ec77bull, 0x738bd1984bb0c166ull, 0xaebfee214210fbc8ull,
         0x2f48a7395d54dacaull, 0x184a000a21e2d8a4ull
     }},
    {"vgg8_cifar10(42, 0.5)", 4,
     {
         0xb1b88a5fe674dd61ull, 0x82733346e03d8078ull, 0x78d40dca5d577f22ull,
         0x5cb1b9e36b1326edull, 0x0427c8d45ea67f28ull, 0x25054849dba0a929ull,
         0xf4724bafcc38837dull, 0x37431b9fdf53e385ull
     }},
    {"vgg8_cifar10(42, 0.5)", 8,
     {
         0xc10eba249a8a3493ull, 0xb04cf12fb2bbf99cull, 0xc441c5cffed6d61eull,
         0x1fbb82339a966df4ull, 0x8cb7f765b3b3c1a4ull, 0x9de6457596d86ec1ull,
         0xbf736b3c0538e078ull, 0xaeb6af51d9732e61ull
     }},
  };
  return table;
}

TEST(WeightRecipe, LazyDrawsMatchTheEagerBuildersByteForByte) {
  ASSERT_EQ(pinned().size(), 15u);
  for (const PinnedDigests& pin : pinned()) {
    SCOPED_TRACE(std::string(pin.label) + " @ " + std::to_string(pin.bits));
    const Model model = converted(pin.label, pin.bits);
    for (const Layer& layer : model.layers) {
      if (layer.weights.numel() > 0) ASSERT_NE(layer.weights.source(), nullptr);
    }
    EXPECT_EQ(layer_digests(model), pin.digests);
  }
}

// Every built-in layer draws an even count, so the pinned digests cannot
// see what happens to normal_distribution's cached second value at a
// slot boundary.  Odd-sized eager layers can: each draw starts a fresh
// distribution, discarding the cached value, and the source must too.
TEST(WeightRecipe, OddSizedSlotsMatchEagerLayersAcrossBoundaries) {
  util::Rng rng(11);
  const std::vector<Layer> eager = {make_linear("a", 5, 3, rng),
                                    make_linear("b", 7, 9, rng),
                                    make_conv2d("c", 3, 5, 1, 4, 4, rng)};
  WeightRecipe recipe;
  recipe.seed = 11;
  for (const Layer& layer : eager) recipe.draws.push_back(weight_init(layer));
  const WeightSource source(std::move(recipe));
  for (size_t slot = 0; slot < eager.size(); ++slot) {
    EXPECT_EQ(source.values(slot), eager[slot].weights.data()) << slot;
  }
}

TEST(WeightRecipe, BuildConvertAndFingerprintDrawNothing) {
  core::SimulateRequest request;
  request.models = {{"vgg8", "", 1.0}, {"resnet20", "", 1.0},
                    {"bert", "", 1.0}};
  const core::ResolvedModels resolved = core::resolve_models(request);
  for (size_t m = 0; m < resolved.workloads.size(); ++m) {
    const core::WorkloadSet::Entry& entry = resolved.workloads.at(m);
    ASSERT_EQ(entry.gemm_fingerprints.size(), entry.gemms.size());
    for (const GemmWorkload& gemm : entry.gemms) {
      if (gemm.weights == nullptr) continue;
      ASSERT_NE(gemm.weights->source(), nullptr) << entry.name;
      EXPECT_EQ(gemm.weights->source()->materializations(), 0u)
          << entry.name;
    }
  }
}

TEST(WeightRecipe, KeysFollowTheRecipe) {
  const auto key_of = [](const Model& model, size_t layer) {
    return core::gemm_fingerprint(gemm_of_layer(model.layers.at(layer)));
  };
  const Model a = converted("vgg8", 4);
  const Model b = converted("vgg8", 4);
  EXPECT_NE(a.layers[0].weights.source(), b.layers[0].weights.source());
  EXPECT_EQ(key_of(a, 0), key_of(b, 0));
  EXPECT_NE(key_of(a, 0), key_of(a, 1));
  EXPECT_NE(key_of(a, 0), key_of(converted("vgg8", 8), 0));
  EXPECT_NE(key_of(a, 0), key_of(converted("vgg8", 0), 0));
  EXPECT_NE(key_of(a, 0), key_of(vgg8_cifar10(7), 0));
  EXPECT_NE(key_of(converted("vgg8", 0), 0), key_of(vgg8_cifar10(42, 0.5), 0));

  // Written weights fall back to content keys: equal values, equal keys,
  // in a domain apart from the recipe's.
  Model written = a;
  (void)written.layers[0].weights.data();
  Model written_too = b;
  (void)written_too.layers[0].weights.data();
  EXPECT_EQ(written.layers[0].weights.source(), nullptr);
  EXPECT_EQ(key_of(written, 0), key_of(written_too, 0));
  EXPECT_NE(key_of(written, 0), key_of(a, 0));
}

// A cold sweep draws the model once, at its first operand-power walk,
// however many points and sub-architectures miss; a warm rerun draws
// nothing.
TEST(WeightRecipe, ColdSweepMaterializesOnceAndAWarmOneNever) {
  core::SimulateRequest request;
  request.models = {{"vgg8", "", 1.0}};
  request.arch = {"scatter", "mzi"};
  const core::ResolvedModels resolved = core::resolve_models(request);
  const core::WorkloadSet::Entry& entry = resolved.workloads.at(0);
  const WeightSource* source = entry.gemms[0].weights->source();
  ASSERT_NE(source, nullptr);

  core::DseSpace space;
  space.base = request.params;
  space.tiles = {1, 2};
  space.wavelengths = {1, 2};
  const core::GreedyMapper mapper;
  core::CostMatrixCache cache;
  core::DseOptions options;
  options.num_threads = 2;
  options.mapper = &mapper;
  options.cost_cache = &cache;
  const std::vector<arch::PtcTemplate> templates =
      core::resolve_templates(request);
  (void)core::explore(templates, devlib::DeviceLibrary::standard(), entry,
                      space, options);
  EXPECT_GT(cache.stats().misses, 0u);
  EXPECT_EQ(source->materializations(), 1u);

  // The same sweep on a fresh build of the same spec: all hits, no draw.
  const core::ResolvedModels again = core::resolve_models(request);
  const WeightSource* fresh = again.workloads.at(0).gemms[0].weights->source();
  const uint64_t misses = cache.stats().misses;
  (void)core::explore(templates, devlib::DeviceLibrary::standard(),
                      again.workloads.at(0), space, options);
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(fresh->materializations(), 0u);
}

TEST(WeightRecipe, ConcurrentFirstReadsMaterializeOnce) {
  const std::vector<uint64_t>& expected = pinned()[1].digests;  // vgg8 @ 4
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " thread(s)");
    const Model model = converted("vgg8", 4);
    const WeightSource* source = model.layers[0].weights.source();
    ASSERT_NE(source, nullptr);
    std::atomic<int> ready{0};
    std::vector<uint64_t> digests(static_cast<size_t>(threads));
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        const Tensor& weights =
            model.layers[static_cast<size_t>(t) % model.layers.size()].weights;
        ready.fetch_add(1);
        while (ready.load() < threads) std::this_thread::yield();
        const std::vector<float>& values = weights.data();
        digests[static_cast<size_t>(t)] =
            util::fnv1a_bytes(values.data(), values.size() * sizeof(float));
      });
    }
    for (std::thread& reader : readers) reader.join();
    EXPECT_EQ(source->materializations(), 1u);
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(digests[static_cast<size_t>(t)],
                expected[static_cast<size_t>(t) % expected.size()]);
    }
    EXPECT_EQ(layer_digests(model), expected);
    EXPECT_EQ(source->materializations(), 1u);
  }
}

TEST(WeightRecipe, WritingACopyLeavesTheOriginalIntact) {
  const Model original = converted("mlp", 8);
  const WeightSource* source = original.layers[0].weights.source();
  ASSERT_NE(source, nullptr);
  const uint64_t key =
      core::gemm_fingerprint(gemm_of_layer(original.layers[0]));

  Model copy = original;
  EXPECT_EQ(copy.layers[0].weights.source(), source);
  std::vector<float>& values = copy.layers[0].weights.data();
  values[0] += 0.5f;
  copy.layers[1].weights.normalize_to(0.5f);
  EXPECT_EQ(copy.layers[0].weights.source(), nullptr);
  EXPECT_EQ(copy.layers[1].weights.source(), nullptr);
  EXPECT_EQ(copy.layers[2].weights.source(), source);  // untouched slot
  EXPECT_EQ(source->materializations(), 1u);

  EXPECT_EQ(original.layers[0].weights.source(), source);
  EXPECT_EQ(original.layers[1].weights.source(), source);
  EXPECT_EQ(core::gemm_fingerprint(gemm_of_layer(original.layers[0])), key);
  EXPECT_NE(core::gemm_fingerprint(gemm_of_layer(copy.layers[0])), key);
  EXPECT_EQ(layer_digests(original), pinned()[8].digests);  // mlp @ 8
  EXPECT_NE(layer_digests(copy), pinned()[8].digests);
}

TEST(WeightRecipe, ConvertRecordsAPassWithoutReading) {
  Model model = vgg8_cifar10();
  const WeightSource* raw = model.layers[0].weights.source();
  convert_model_in_place(model);
  const WeightSource* quantized = model.layers[0].weights.source();
  ASSERT_NE(quantized, nullptr);
  EXPECT_NE(quantized, raw);
  EXPECT_EQ(quantized->materializations(), 0u);
  ASSERT_EQ(quantized->recipe().quantize_bits.size(), 1u);
  EXPECT_EQ(quantized->recipe().quantize_bits[0],
            std::vector<int>(model.layers.size(), 4));
  // Owned weights are quantized on the spot, as before.
  Model owned = mlp_mnist();
  (void)owned.layers[0].weights.data();
  const double err = max_quantization_error(owned);
  convert_model_in_place(owned);
  EXPECT_GT(err, 0.0);
  EXPECT_EQ(owned.layers[0].weights.source(), nullptr);
  EXPECT_EQ(layer_digests(owned), pinned()[7].digests);  // mlp @ 4
  // Two layers sharing a slot at different bits each get their own grid.
  Model shared = mlp_mnist();
  shared.layers.push_back(shared.layers[0]);
  shared.layers.back().weight_bits = 8;
  convert_model_in_place(shared);
  EXPECT_NE(shared.layers[0].weights.source(), nullptr);
  EXPECT_EQ(shared.layers.back().weights.source(), nullptr);
  EXPECT_EQ(layer_digests(shared).front(), pinned()[7].digests.front());
  EXPECT_EQ(layer_digests(shared).back(), pinned()[8].digests.front());
  // Out-of-range bits are rejected at convert time, recipe or not.
  model.layers[0].weight_bits = 0;
  EXPECT_THROW(convert_model_in_place(model), std::invalid_argument);
}

}  // namespace
}  // namespace simphony::workload
