// Distributed-sweep layer: shard partitioning, merge, samplers, and the
// DsePoint/DseResult JSON serialization used by shard files.
#include "core/dse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "arch/prebuilt.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

DseSpace small_space() {
  DseSpace space;
  space.tiles = {1, 2};
  space.core_sizes = {4, 8};
  space.wavelengths = {2, 4};
  return space;
}

void expect_bit_identical(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].index, b.points[i].index) << i;
    EXPECT_EQ(a.points[i].params, b.points[i].params) << i;
    EXPECT_EQ(a.points[i].energy_pJ, b.points[i].energy_pJ) << i;
    EXPECT_EQ(a.points[i].latency_ns, b.points[i].latency_ns) << i;
    EXPECT_EQ(a.points[i].area_mm2, b.points[i].area_mm2) << i;
    EXPECT_EQ(a.points[i].power_W, b.points[i].power_W) << i;
    EXPECT_EQ(a.points[i].tops, b.points[i].tops) << i;
    EXPECT_EQ(a.points[i].pareto, b.points[i].pareto) << i;
  }
}

// ---------------------------------------------------------------- shards

TEST(DseShard, SlicesAreDisjointAndCovering) {
  const DseSpace space = small_space();
  const size_t total = space.enumerate().size();
  const workload::Model model = workload::mlp_mnist();
  for (int count : {2, 3}) {
    std::set<size_t> seen;
    size_t points = 0;
    for (int index = 0; index < count; ++index) {
      DseOptions options;
      options.shard = {index, count};
      const DseResult r =
          explore(arch::tempo_template(), g_lib, model, space, options);
      for (const auto& p : r.points) {
        EXPECT_TRUE(seen.insert(p.index).second)
            << "index " << p.index << " in two shards";
        EXPECT_EQ(p.index % static_cast<size_t>(count),
                  static_cast<size_t>(index));
      }
      points += r.points.size();
    }
    EXPECT_EQ(points, total) << count;
    EXPECT_EQ(*seen.rbegin(), total - 1);
  }
}

TEST(DseShard, MergedShardsEqualUnshardedRunForGrid) {
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();
  const DseResult unsharded =
      explore(arch::tempo_template(), g_lib, model, space);
  ASSERT_EQ(unsharded.points.size(), 8u);

  for (int count : {2, 3}) {
    std::vector<DseResult> shards;
    for (int index = 0; index < count; ++index) {
      DseOptions options;
      options.shard = {index, count};
      shards.push_back(
          explore(arch::tempo_template(), g_lib, model, space, options));
    }
    // Merge in scrambled order: canonical order comes from the indices,
    // not from the order the shard files arrive in.
    std::reverse(shards.begin(), shards.end());
    const DseResult merged = merge(std::move(shards));
    expect_bit_identical(merged, unsharded);
  }
}

TEST(DseShard, MergedShardsEqualUnshardedRunForSeededRandomSampling) {
  DseSpace space = small_space();
  space.cores_per_tile = {1, 2, 4};
  const workload::Model model = workload::mlp_mnist();
  const RandomSampler sampler(10, 42);

  DseOptions unsharded_options;
  unsharded_options.sampler = &sampler;
  const DseResult unsharded = explore(arch::tempo_template(), g_lib, model,
                                      space, unsharded_options);
  ASSERT_EQ(unsharded.points.size(), 10u);

  std::vector<DseResult> shards;
  for (int index = 0; index < 2; ++index) {
    DseOptions options;
    options.sampler = &sampler;
    options.shard = {index, 2};
    shards.push_back(
        explore(arch::tempo_template(), g_lib, model, space, options));
  }
  const DseResult merged = merge(std::move(shards));
  expect_bit_identical(merged, unsharded);
}

TEST(DseShard, ShardLocalFrontierIsProvisional) {
  // A shard sees only its slice, so merge() must recompute pareto flags
  // over the union rather than concatenate them.
  DsePoint good;
  good.index = 0;
  good.energy_pJ = good.latency_ns = good.area_mm2 = 1.0;
  good.pareto = true;
  DsePoint bad;
  bad.index = 1;
  bad.energy_pJ = bad.latency_ns = bad.area_mm2 = 2.0;
  bad.pareto = true;  // pareto within its own one-point shard
  DseResult shard_a;
  shard_a.points = {bad};
  DseResult shard_b;
  shard_b.points = {good};
  const DseResult merged = merge({shard_a, shard_b});
  ASSERT_EQ(merged.points.size(), 2u);
  EXPECT_TRUE(merged.points[0].pareto);
  EXPECT_FALSE(merged.points[1].pareto);
}

TEST(DseShard, MergeToleratesNaNMetricsFromNullJson) {
  // A shard file's null metric parses back as NaN; the frontier sweep
  // must neither crash (NaN breaks strict-weak-ordering in std::sort)
  // nor put the incomparable point on the frontier.
  DseResult shard;
  for (size_t i = 0; i < 40; ++i) {
    DsePoint p;
    p.index = i;
    p.energy_pJ = static_cast<double>(40 - i);
    p.latency_ns = static_cast<double>(i + 1);
    p.area_mm2 = 1.0;
    if (i % 4 == 0) p.energy_pJ = std::numeric_limits<double>::quiet_NaN();
    if (i == 7) p.latency_ns = std::numeric_limits<double>::infinity();
    shard.points.push_back(p);
  }
  const DseResult merged = merge({shard});
  ASSERT_EQ(merged.points.size(), 40u);
  for (const auto& p : merged.points) {
    // inf gets the NaN verdict too: serialization collapses both to
    // null, so the on-disk and in-memory frontiers must agree.
    if (!std::isfinite(p.energy_pJ) || !std::isfinite(p.latency_ns)) {
      EXPECT_FALSE(p.pareto) << p.index;
    }
  }
  EXPECT_FALSE(merged.frontier().empty());
  // The full text round trip stays safe too.
  const DseResult reparsed =
      dse_result_from_json(util::Json::parse(to_json(merged).dump(-1)));
  EXPECT_EQ(reparsed.points.size(), merged.points.size());
  (void)merge({reparsed});
}

TEST(DseShard, MergeRejectsOverlappingShards) {
  DsePoint p;
  p.index = 3;
  DseResult a;
  a.points = {p};
  EXPECT_THROW((void)merge({a, a}), std::invalid_argument);
}

TEST(DseShard, InvalidShardSpecThrows) {
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();
  for (DseShard shard : {DseShard{0, 0}, DseShard{-1, 2}, DseShard{2, 2}}) {
    DseOptions options;
    options.shard = shard;
    EXPECT_THROW((void)explore(arch::tempo_template(), g_lib, model, space,
                               options),
                 std::invalid_argument)
        << shard.index << "/" << shard.count;
  }
}

// -------------------------------------------------------------- samplers

TEST(DseSampler, RandomSamplerIsReproducibleAndInSpace) {
  const DseSpace space = small_space();
  const std::vector<arch::ArchParams> a = RandomSampler(25, 7).sample(space);
  const std::vector<arch::ArchParams> b = RandomSampler(25, 7).sample(space);
  ASSERT_EQ(a.size(), 25u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, RandomSampler(25, 8).sample(space));
  const std::vector<arch::ArchParams> grid = space.enumerate();
  for (const auto& p : a) {
    EXPECT_NE(std::find(grid.begin(), grid.end(), p), grid.end());
  }
}

TEST(DseSampler, RandomSamplerDrawsDistinctPointsWhenTheSpaceAllows) {
  // Regression: independent per-axis draws used to collide constantly
  // (8 distinct points in 25 draws on a 27-point space was typical), so
  // a "--samples N" sweep silently explored far fewer than N designs.
  // The sampler now redraws duplicates (bounded, deterministic).
  DseSpace space = small_space();
  space.cores_per_tile = {1, 2, 4};  // 24 grid points
  const std::vector<arch::ArchParams> pts =
      RandomSampler(20, 7).sample(space);
  ASSERT_EQ(pts.size(), 20u);
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_FALSE(pts[i] == pts[j]) << i << " duplicates " << j;
    }
  }
  // Still seed-reproducible with the redraw loop in the stream.
  EXPECT_EQ(pts, RandomSampler(20, 7).sample(space));
}

TEST(DseSampler, RandomSamplerAcceptsDuplicatesOnTinySpaces) {
  // A space smaller than the request cannot yield N distinct points;
  // after the bounded redraws the sampler must keep the duplicates (and
  // warn) rather than spin forever.
  DseSpace space;
  space.tiles = {1, 2};  // 2 grid points
  const std::vector<arch::ArchParams> pts =
      RandomSampler(10, 7).sample(space);
  ASSERT_EQ(pts.size(), 10u);
  std::set<int> distinct;
  for (const auto& p : pts) distinct.insert(p.tiles);
  EXPECT_EQ(distinct.size(), 2u);
  EXPECT_EQ(pts, RandomSampler(10, 7).sample(space));
}

TEST(DseSampler, LatinHypercubeCoversEveryAxisValue) {
  DseSpace space;
  space.tiles = {1, 2, 3, 4};
  space.wavelengths = {2, 4, 8};
  const std::vector<arch::ArchParams> pts =
      LatinHypercubeSampler(8, 3).sample(space);
  ASSERT_EQ(pts.size(), 8u);
  // With n a multiple of each axis size, LHS stratification guarantees
  // every axis value appears (here: each tile value twice and each
  // wavelength at least twice).
  std::set<int> tiles_seen;
  std::set<int> lambda_seen;
  for (const auto& p : pts) {
    tiles_seen.insert(p.tiles);
    lambda_seen.insert(p.wavelengths);
  }
  EXPECT_EQ(tiles_seen.size(), 4u);
  EXPECT_EQ(lambda_seen.size(), 3u);
  // Reproducible for a seed.
  EXPECT_EQ(pts, LatinHypercubeSampler(8, 3).sample(space));
}

TEST(DseSampler, SamplersValidateAxesLikeEnumerate) {
  DseSpace space;
  space.core_widths = {0};
  EXPECT_THROW((void)RandomSampler(4, 1).sample(space),
               std::invalid_argument);
  EXPECT_THROW((void)LatinHypercubeSampler(4, 1).sample(space),
               std::invalid_argument);
  EXPECT_THROW((void)space.enumerate(), std::invalid_argument);
}

TEST(DseSampler, ExploreUsesTheSamplerPointList) {
  const DseSpace space = small_space();
  const RandomSampler sampler(5, 11);
  const std::vector<arch::ArchParams> expected = sampler.sample(space);
  DseOptions options;
  options.sampler = &sampler;
  const DseResult r = explore(arch::tempo_template(), g_lib,
                              workload::mlp_mnist(), space, options);
  ASSERT_EQ(r.points.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.points[i].params, expected[i]);
    EXPECT_EQ(r.points[i].index, i);
  }
}

// ----------------------------------------------------------------- JSON

DsePoint sample_point() {
  DsePoint p;
  p.index = 5;
  p.params.tiles = 3;
  p.params.cores_per_tile = 2;
  p.params.core_height = 4;
  p.params.core_width = 8;
  p.params.wavelengths = 6;
  p.params.clock_GHz = 4.25;
  p.params.input_bits = 4;
  p.params.weight_bits = 5;
  p.params.output_bits = 8;
  p.energy_pJ = 123.456789012345;
  p.latency_ns = 0.1;
  p.area_mm2 = 1.0 / 3.0;
  p.power_W = 2.5;
  p.tops = 98.7;
  p.pareto = true;
  return p;
}

TEST(DseJson, PointRoundTripsExactly) {
  const DsePoint p = sample_point();
  const DsePoint q = dse_point_from_json(
      util::Json::parse(to_json(p).dump(2)));
  EXPECT_EQ(q.index, p.index);
  EXPECT_EQ(q.params, p.params);
  EXPECT_EQ(q.energy_pJ, p.energy_pJ);
  EXPECT_EQ(q.latency_ns, p.latency_ns);
  EXPECT_EQ(q.area_mm2, p.area_mm2);
  EXPECT_EQ(q.power_W, p.power_W);
  EXPECT_EQ(q.tops, p.tops);
  EXPECT_EQ(q.pareto, p.pareto);
}

TEST(DseJson, NonFiniteMetricsRoundTripAsNaN) {
  DsePoint p = sample_point();
  p.energy_pJ = std::numeric_limits<double>::quiet_NaN();
  p.tops = std::numeric_limits<double>::infinity();
  const DsePoint q = dse_point_from_json(
      util::Json::parse(to_json(p).dump(-1)));
  EXPECT_TRUE(std::isnan(q.energy_pJ));
  EXPECT_TRUE(std::isnan(q.tops));  // inf collapses to null, parses as NaN
  EXPECT_EQ(q.latency_ns, p.latency_ns);
}

TEST(DseJson, EmptyResultRoundTrips) {
  const DseResult empty;
  const DseResult parsed = dse_result_from_json(
      util::Json::parse(to_json(empty).dump(2)));
  EXPECT_TRUE(parsed.points.empty());
}

TEST(DseJson, ResultRoundTripsThroughText) {
  DseResult r;
  r.points = {sample_point(), sample_point()};
  r.points[1].index = 9;
  r.points[1].energy_pJ = 7.25;
  r.points[1].pareto = false;
  const DseResult q =
      dse_result_from_json(util::Json::parse(to_json(r).dump(2)));
  ASSERT_EQ(q.points.size(), 2u);
  EXPECT_EQ(q.points[0].index, 5u);
  EXPECT_EQ(q.points[1].index, 9u);
  EXPECT_EQ(q.points[1].energy_pJ, 7.25);
  EXPECT_TRUE(q.points[0].pareto);
  EXPECT_FALSE(q.points[1].pareto);
}

TEST(DseJson, AcceptsBareArrayAndDefaultsMissingIndexToPosition) {
  util::Json arr{util::Json::Array{}};
  util::Json pt = to_json(sample_point());
  // Simulate a pre-sharding file: no index, no pareto, no clock_GHz.
  util::Json::Object obj = pt.as_object();
  obj.erase("index");
  obj.erase("pareto");
  obj.erase("clock_GHz");
  arr.push_back(util::Json(obj));
  arr.push_back(util::Json(obj));
  const DseResult r = dse_result_from_json(arr);
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_EQ(r.points[0].index, 0u);
  EXPECT_EQ(r.points[1].index, 1u);
  EXPECT_FALSE(r.points[0].pareto);
  EXPECT_EQ(r.points[0].params.clock_GHz, arch::ArchParams{}.clock_GHz);
}

TEST(DseJson, MalformedPointsThrow) {
  // Missing field.
  util::Json missing = to_json(sample_point());
  util::Json::Object obj = missing.as_object();
  obj.erase("energy_pJ");
  EXPECT_THROW((void)dse_point_from_json(util::Json(obj)),
               std::invalid_argument);
  // Wrong type.
  util::Json wrong = to_json(sample_point());
  wrong["tiles"] = "three";
  EXPECT_THROW((void)dse_point_from_json(wrong), std::invalid_argument);
  // Non-integer where an int field is expected.
  util::Json frac = to_json(sample_point());
  frac["wavelengths"] = 2.5;
  EXPECT_THROW((void)dse_point_from_json(frac), std::invalid_argument);
  // Negative canonical index.
  util::Json neg = to_json(sample_point());
  neg["index"] = -1;
  EXPECT_THROW((void)dse_point_from_json(neg), std::invalid_argument);
  // Not an object / missing points array.
  EXPECT_THROW((void)dse_result_from_json(util::Json(3)),
               std::invalid_argument);
  EXPECT_THROW((void)dse_result_from_json(util::Json::parse("{}")),
               std::invalid_argument);
}

// A full disk-shaped cycle: explore shards, serialize, parse, merge —
// the in-process equivalent of the CI shard-merge smoke step.
TEST(DseShard, JsonShardFilesMergeToTheUnshardedResult) {
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();
  const DseResult unsharded =
      explore(arch::tempo_template(), g_lib, model, space);

  std::vector<DseResult> parsed_shards;
  for (int index = 0; index < 2; ++index) {
    DseOptions options;
    options.shard = {index, 2};
    const DseResult shard =
        explore(arch::tempo_template(), g_lib, model, space, options);
    const std::string text = to_json(shard).dump(2);  // "to disk"
    parsed_shards.push_back(
        dse_result_from_json(util::Json::parse(text)));  // "from disk"
  }
  const DseResult merged = merge(std::move(parsed_shards));
  expect_bit_identical(merged, unsharded);
}

}  // namespace
}  // namespace simphony::core
