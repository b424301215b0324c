// DseShardWriter — the streaming shard-file writer behind the CLI's
// --out flag.  The contract under test: after every add_point() the
// stream holds a complete, parseable shard document, so a sweep killed
// between point writes leaves a file that still parses and merges into
// the canonical result; damage *inside* a write (torn final record)
// surfaces as std::invalid_argument from the parser, never as a crash or
// a silently wrong merge.
#include "core/dse.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arch/prebuilt.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

DseSpace small_space() {
  DseSpace space;
  space.tiles = {1, 2};
  space.wavelengths = {2, 4};
  return space;
}

DseShardWriter::Metadata metadata_for(const DseShard& shard,
                                      size_t total_points) {
  DseShardWriter::Metadata meta;
  meta.arch = "tempo";
  meta.model = "MLP(MNIST)";
  meta.sampler = "grid";
  meta.shard = shard;
  meta.total_points = total_points;
  return meta;
}

/// Runs one shard of the reference sweep, capturing the stream snapshot
/// after every completed point — exactly the on-disk states a kill
/// between writes could leave behind (add_point flushes the footer
/// before seeking back over it).
struct StreamedShard {
  DseResult result;
  std::vector<DsePoint> streamed;      // points as the writer received them
  std::vector<std::string> snapshots;  // snapshots[k] = state after k points
  std::string final_text;
};

StreamedShard run_streamed_shard(const DseShard& shard) {
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();

  StreamedShard out;
  std::stringstream stream;
  DseShardWriter writer(stream, metadata_for(shard, space.size()));
  out.snapshots.push_back(stream.str());  // header only, zero points
  DseOptions options;
  options.num_threads = 1;  // completion order == canonical order
  options.shard = shard;
  out.result = explore(arch::tempo_template(), g_lib, model, space, options,
                       [&](const DsePoint& point) {
                         writer.add_point(point);
                         out.streamed.push_back(point);
                         out.snapshots.push_back(stream.str());
                       });
  writer.finish();
  out.final_text = stream.str();
  return out;
}

TEST(DseStream, EveryFlushedStateIsACompleteParseableDocument) {
  const StreamedShard shard = run_streamed_shard(DseShard{0, 1});
  ASSERT_EQ(shard.snapshots.size(), shard.result.points.size() + 1);

  // snapshots[0] is the state a kill during the *first* point would
  // leave behind: the constructor already terminated the document, so
  // it parses as a zero-point shard.
  for (size_t k = 0; k < shard.snapshots.size(); ++k) {
    util::Json root;
    ASSERT_NO_THROW(root = util::Json::parse(shard.snapshots[k]))
        << "snapshot after " << k << " points";
    EXPECT_EQ(root.at("arch").as_string(), "tempo");
    EXPECT_EQ(root.at("model").as_string(), "MLP(MNIST)");
    EXPECT_EQ(root.at("total_points").as_number(), 4.0);
    const DseResult parsed = dse_result_from_json(root);
    ASSERT_EQ(parsed.points.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(parsed.points[i].index, shard.result.points[i].index);
      EXPECT_EQ(parsed.points[i].params, shard.result.points[i].params);
      EXPECT_EQ(parsed.points[i].energy_pJ,
                shard.result.points[i].energy_pJ);
      EXPECT_EQ(parsed.points[i].latency_ns,
                shard.result.points[i].latency_ns);
    }
  }
  // finish() on a non-empty shard adds nothing: the footer was already
  // streamed with the last point.
  EXPECT_EQ(shard.final_text, shard.snapshots.back());
}

TEST(DseStream, EmptyShardIsParseableFromConstruction) {
  std::stringstream stream;
  DseShardWriter writer(stream, metadata_for(DseShard{0, 1}, 0));
  // No finish() needed: the constructor already flushed a complete
  // zero-point document.
  util::Json root;
  ASSERT_NO_THROW(root = util::Json::parse(stream.str()));
  EXPECT_TRUE(root.at("points").as_array().empty());
  writer.finish();
  EXPECT_EQ(util::Json::parse(stream.str()).dump(-1), root.dump(-1));
}

// The acceptance scenario: shard 0 of 2 is interrupted after two of its
// points (the truncated file is a prefix of the stream ending at the last
// flushed footer); shard 1 completes.  Recovery must parse both, merge
// them, and reproduce the unsharded run's values point for point — with
// the interrupted shard's missing points absent, nothing else lost.
TEST(DseStream, InterruptedShardFileStillParsesAndMergesCorrectly) {
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();
  DseOptions options;
  options.num_threads = 1;
  const DseResult unsharded =
      explore(arch::tempo_template(), g_lib, model, space, options);
  ASSERT_EQ(unsharded.points.size(), 4u);

  const StreamedShard shard0 = run_streamed_shard(DseShard{0, 2});
  const StreamedShard shard1 = run_streamed_shard(DseShard{1, 2});
  ASSERT_EQ(shard0.result.points.size(), 2u);

  // "Kill" shard 0 after its first point: the on-disk bytes are the
  // snapshot taken right after that point's footer flush.  (The
  // kill-during-first-point state, snapshots[0], recovers too — as an
  // empty shard.)
  const std::string interrupted = shard0.snapshots[1];
  ASSERT_LT(interrupted.size(), shard0.final_text.size());
  EXPECT_TRUE(dse_result_from_json(
                  util::Json::parse(shard0.snapshots[0]))
                  .points.empty());

  const DseResult recovered =
      dse_result_from_json(util::Json::parse(interrupted));
  ASSERT_EQ(recovered.points.size(), 1u);

  const DseResult merged = merge(
      {recovered, dse_result_from_json(util::Json::parse(
                      shard1.final_text))});
  ASSERT_EQ(merged.points.size(), 3u);  // 4 minus the lost point

  // Every surviving point matches the unsharded run bit for bit, in
  // canonical index order, and the recomputed frontier flags agree with
  // a frontier marked over the same surviving subset.
  std::vector<DsePoint> expected;
  for (const DsePoint& p : unsharded.points) {
    if (p.index != 2) expected.push_back(p);  // index 2 was in flight
  }
  mark_pareto_frontier(expected);
  for (size_t i = 0; i < merged.points.size(); ++i) {
    EXPECT_EQ(merged.points[i].index, expected[i].index) << i;
    EXPECT_EQ(merged.points[i].params, expected[i].params) << i;
    EXPECT_EQ(merged.points[i].energy_pJ, expected[i].energy_pJ) << i;
    EXPECT_EQ(merged.points[i].latency_ns, expected[i].latency_ns) << i;
    EXPECT_EQ(merged.points[i].area_mm2, expected[i].area_mm2) << i;
    EXPECT_EQ(merged.points[i].pareto, expected[i].pareto) << i;
  }
}

// Damage *inside* a point write (a torn record, not a clean
// between-points kill) must be a detectable parse failure — the merge
// tool's documented recovery path — for every truncation offset.
TEST(DseStream, TornFinalRecordIsAParseErrorNeverACrash) {
  const StreamedShard shard = run_streamed_shard(DseShard{0, 1});
  const std::string& complete = shard.final_text;
  const std::string& last_good = shard.snapshots[shard.snapshots.size() - 2];
  size_t parse_failures = 0;
  for (size_t cut = last_good.size() + 1; cut < complete.size(); ++cut) {
    try {
      (void)dse_result_from_json(util::Json::parse(complete.substr(0, cut)));
    } catch (const std::invalid_argument&) {
      ++parse_failures;
    }
  }
  EXPECT_GT(parse_failures, 0u);
}

// A parallel sweep streams points in completion order; finish() must
// publish the canonical index-ordered document (the same bytes a serial
// sweep writes), while the stream up to finish() keeps completion order
// — the state --resume salvages after a kill.
TEST(DseStream, FinishPublishesPointsInIndexOrder) {
  const StreamedShard serial = run_streamed_shard(DseShard{0, 1});
  ASSERT_EQ(serial.streamed.size(), 4u);

  std::stringstream stream;
  DseShardWriter writer(stream, metadata_for(DseShard{0, 1}, 4));
  for (auto it = serial.streamed.rbegin(); it != serial.streamed.rend();
       ++it) {
    writer.add_point(*it);
  }
  const DseResult streamed =
      dse_result_from_json(util::Json::parse(stream.str()));
  ASSERT_EQ(streamed.points.size(), 4u);
  EXPECT_EQ(streamed.points.front().index, serial.streamed.back().index);
  EXPECT_EQ(stream.str().size(), serial.final_text.size());

  writer.finish();
  EXPECT_EQ(stream.str(), serial.final_text);
}

TEST(DseStream, AddPointAfterFinishThrows) {
  std::stringstream stream;
  DseShardWriter writer(stream, metadata_for(DseShard{0, 1}, 1));
  writer.finish();
  EXPECT_THROW(writer.add_point(DsePoint{}), std::logic_error);
}

}  // namespace
}  // namespace simphony::core
