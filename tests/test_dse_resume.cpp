// Resumable sweeps: recover_shard_text() salvage of torn --out files,
// DseOptions::skip_indices, and the CLI --resume / --cache-file flow
// (driven against the real binary when SIMPHONY_CLI_PATH is defined).
// The contract: a sweep interrupted at ANY byte of its shard file
// resumes to a final document bit-identical to the uninterrupted run's.
#include "core/dse.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#ifdef SIMPHONY_CLI_PATH
#include <sys/wait.h>
#endif

#include "arch/prebuilt.h"
#include "core/mapper.h"
#include "util/binio.h"
#include "util/json.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

DseSpace small_space() {
  DseSpace space;
  space.tiles = {1, 2};
  space.wavelengths = {2, 4};
  return space;
}

DseShardWriter::Metadata metadata_for(size_t total_points) {
  DseShardWriter::Metadata meta;
  meta.arch = "tempo";
  meta.model = "MLP(MNIST)";
  meta.sampler = "grid";
  meta.shard = DseShard{0, 1};
  meta.total_points = total_points;
  return meta;
}

/// The reference sweep streamed through a shard writer, with the stream
/// snapshot after every completed point — every on-disk state a kill
/// between writes could leave.
struct StreamedShard {
  DseResult result;
  std::vector<std::string> snapshots;
  std::string final_text;
};

StreamedShard run_streamed_shard() {
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();

  StreamedShard out;
  std::stringstream stream;
  DseShardWriter writer(stream, metadata_for(space.size()));
  out.snapshots.push_back(stream.str());
  DseOptions options;
  options.num_threads = 1;  // completion order == canonical order
  out.result = explore(arch::tempo_template(), g_lib, model, space, options,
                       [&](const DsePoint& point) {
                         writer.add_point(point);
                         out.snapshots.push_back(stream.str());
                       });
  writer.finish();
  out.final_text = stream.str();
  return out;
}

void expect_points_equal(const DsePoint& a, const DsePoint& b,
                         const std::string& context) {
  EXPECT_EQ(a.index, b.index) << context;
  EXPECT_EQ(a.params, b.params) << context;
  EXPECT_EQ(a.energy_pJ, b.energy_pJ) << context;
  EXPECT_EQ(a.latency_ns, b.latency_ns) << context;
  EXPECT_EQ(a.area_mm2, b.area_mm2) << context;
  EXPECT_EQ(a.power_W, b.power_W) << context;
  EXPECT_EQ(a.tops, b.tops) << context;
}

// --------------------------------------------------- recover_shard_text

TEST(DseResume, CompleteDocumentRecoversFully) {
  const StreamedShard shard = run_streamed_shard();
  const ShardRecovery recovery = recover_shard_text(shard.final_text);

  EXPECT_TRUE(recovery.complete);
  EXPECT_EQ(recovery.truncated_at, 0u);
  EXPECT_TRUE(recovery.message.empty());
  EXPECT_EQ(recovery.metadata.arch, "tempo");
  EXPECT_EQ(recovery.metadata.model, "MLP(MNIST)");
  EXPECT_EQ(recovery.metadata.sampler, "grid");
  EXPECT_EQ(recovery.metadata.shard.count, 1);
  EXPECT_EQ(recovery.metadata.shard.index, 0);
  EXPECT_EQ(recovery.metadata.total_points, 4u);
  ASSERT_EQ(recovery.result.points.size(), shard.result.points.size());
  for (size_t i = 0; i < shard.result.points.size(); ++i) {
    expect_points_equal(recovery.result.points[i], shard.result.points[i],
                        "i=" + std::to_string(i));
  }
}

// The tentpole sweep: cut the shard file at EVERY byte offset.  Once the
// header is on disk (the writer's constructor flushes it), salvage must
// never throw, must recover a bit-identical prefix of the completed
// points, and must recover at LEAST every point whose footer flush
// completed before the cut (maximal valid prefix).
TEST(DseResume, EveryTruncationOffsetRecoversTheMaximalPointPrefix) {
  const StreamedShard shard = run_streamed_shard();
  const std::string& full = shard.final_text;
  const size_t header_len = shard.snapshots[0].size();

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string torn = full.substr(0, cut);
    if (cut < header_len) {
      // Before the first flush even the header may be unrecoverable;
      // the only legal failure is the documented invalid_argument.
      try {
        (void)recover_shard_text(torn, "torn.json");
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("torn.json"),
                  std::string::npos);
      } catch (...) {
        FAIL() << "non-invalid_argument exception at cut " << cut;
      }
      continue;
    }

    ShardRecovery recovery;
    ASSERT_NO_THROW(recovery = recover_shard_text(torn)) << "cut=" << cut;
    EXPECT_EQ(recovery.metadata.arch, "tempo") << "cut=" << cut;
    EXPECT_EQ(recovery.metadata.total_points, 4u) << "cut=" << cut;

    // Bit-identical prefix, nothing invented.
    ASSERT_LE(recovery.result.points.size(), shard.result.points.size())
        << "cut=" << cut;
    for (size_t i = 0; i < recovery.result.points.size(); ++i) {
      expect_points_equal(recovery.result.points[i], shard.result.points[i],
                          "cut=" + std::to_string(cut) +
                              " i=" + std::to_string(i));
    }
    // Maximal: every point whose snapshot is fully within the cut.
    size_t flushed = 0;
    while (flushed + 1 < shard.snapshots.size() &&
           shard.snapshots[flushed + 1].size() <= cut) {
      ++flushed;
    }
    EXPECT_GE(recovery.result.points.size(), flushed) << "cut=" << cut;
    if (!recovery.complete) {
      EXPECT_FALSE(recovery.message.empty()) << "cut=" << cut;
    }
  }
}

TEST(DseResume, UnrecoverableTextThrowsWithTheOriginPrefixed) {
  for (const std::string& garbage :
       {std::string(), std::string("not json at all"),
        std::string("{\"arch\": \"tempo\"")}) {
    try {
      (void)recover_shard_text(garbage, "shards/a.json");
      FAIL() << "recovered from '" << garbage << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("shards/a.json"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------- skip_indices

// Resumption algebra: explore() with skip_indices plus the recovered
// points merges to the uninterrupted sweep bit for bit, for any thread
// count (the skipped slice keeps canonical indices).
TEST(DseResume, SkippedExploreMergesBackBitIdentical) {
  const DseSpace space = small_space();
  const workload::Model model = workload::mlp_mnist();
  DseOptions base;
  base.num_threads = 1;
  const DseResult full =
      explore(arch::tempo_template(), g_lib, model, space, base);
  ASSERT_EQ(full.points.size(), 4u);

  // "Recovered" points 0 and 2 of an interrupted run.
  DseResult recovered;
  recovered.points = {full.points[0], full.points[2]};
  const std::unordered_set<size_t> skip = {0, 2};

  for (int threads : {1, 2, 0}) {
    DseOptions options = base;
    options.num_threads = threads;
    options.skip_indices = &skip;
    const DseResult rest =
        explore(arch::tempo_template(), g_lib, model, space, options);
    ASSERT_EQ(rest.points.size(), 2u) << threads;
    EXPECT_EQ(rest.points[0].index, 1u) << threads;
    EXPECT_EQ(rest.points[1].index, 3u) << threads;

    const DseResult merged = merge({recovered, rest});
    EXPECT_EQ(to_json(merged).dump(), to_json(full).dump())
        << "threads=" << threads;
  }
}

TEST(DseResume, SkippingEverythingYieldsAnEmptyRun) {
  const DseSpace space = small_space();
  const std::unordered_set<size_t> all = {0, 1, 2, 3};
  DseOptions options;
  options.num_threads = 1;
  options.skip_indices = &all;
  const DseResult none = explore(arch::tempo_template(), g_lib,
                                 workload::mlp_mnist(), space, options);
  EXPECT_TRUE(none.points.empty());
}

// ----------------------------------------------------- CLI end-to-end

// SIMPHONY_CLI_PATH is defined by CMake when the example binary is built
// alongside the tests; these cases drive the real --resume / --cache-file
// flow through the real binary.
#ifdef SIMPHONY_CLI_PATH

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Runs a /bin/sh command line, capturing stdout + stderr.
CliResult run_shell(const std::string& command_line) {
  const std::string command = command_line + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("popen failed");
  CliResult result;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CliResult run_cli(const std::string& args) {
  return run_shell(std::string(SIMPHONY_CLI_PATH) + " " + args);
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string out;
  char chunk[4096];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    out.append(chunk, n);
  }
  std::fclose(file);
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
  std::fclose(file);
}

const char kSweepArgs[] =
    "--model mlp --arch scatter,mzi --mapping greedy --threads 1 "
    "--sweep wavelengths=1,2 --sweep tiles=1,2";

// The acceptance scenario end to end: a full run, a torn copy of its
// shard file, and a --resume that must reproduce the full file byte for
// byte (same flags, --threads 1).
TEST(CliResume, ResumedSweepIsByteIdenticalToUninterrupted) {
  const std::string dir = ::testing::TempDir();
  const std::string full_path = dir + "resume_full.json";
  const std::string resumed_path = dir + "resume_torn.json";
  std::remove(full_path.c_str());
  std::remove(resumed_path.c_str());
  std::remove((resumed_path + ".tmp").c_str());

  const CliResult full = run_cli(std::string(kSweepArgs) + " --out " +
                                 full_path);
  ASSERT_EQ(full.exit_code, 0) << full.output;
  const std::string full_bytes = read_file(full_path);
  ASSERT_FALSE(full_bytes.empty());

  // A kill mid-write leaves the in-progress temp file; tear it at 60%.
  write_file(resumed_path + ".tmp",
             full_bytes.substr(0, full_bytes.size() * 3 / 5));

  const CliResult resumed = run_cli(std::string(kSweepArgs) + " --resume " +
                                    "--out " + resumed_path);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resuming " + resumed_path),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(read_file(resumed_path), full_bytes);

  std::remove(full_path.c_str());
  std::remove(resumed_path.c_str());
  std::remove((resumed_path + ".tmp").c_str());
}

// The same contract for an adaptive sweep: a torn halving run resumes to
// the identical bytes — the low-fidelity rungs re-rank the whole slice,
// so the recovered survivors and the fresh remainder line back up.
TEST(CliResume, ResumedHalvingSweepIsByteIdenticalToUninterrupted) {
  const std::string dir = ::testing::TempDir();
  const std::string full_path = dir + "halving_full.json";
  const std::string resumed_path = dir + "halving_torn.json";
  std::remove(full_path.c_str());
  std::remove(resumed_path.c_str());
  std::remove((resumed_path + ".tmp").c_str());

  const std::string args =
      std::string(kSweepArgs) + " --strategy halving --eta 2 --rungs 2";
  const CliResult full = run_cli(args + " --out " + full_path);
  ASSERT_EQ(full.exit_code, 0) << full.output;
  const std::string full_bytes = read_file(full_path);
  ASSERT_FALSE(full_bytes.empty());
  EXPECT_NE(full_bytes.find("\"strategy\""), std::string::npos);

  write_file(resumed_path + ".tmp",
             full_bytes.substr(0, full_bytes.size() * 3 / 5));

  const CliResult resumed =
      run_cli(args + " --resume --out " + resumed_path);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(read_file(resumed_path), full_bytes);

  // The torn file belongs to a *halving* schedule; resuming it with
  // different strategy flags must be rejected, not silently mixed.
  write_file(resumed_path + ".tmp",
             full_bytes.substr(0, full_bytes.size() * 3 / 5));
  std::remove(resumed_path.c_str());
  const CliResult mismatched = run_cli(std::string(kSweepArgs) +
                                       " --resume --out " + resumed_path);
  EXPECT_EQ(mismatched.exit_code, 1);
  EXPECT_NE(mismatched.output.find("metadata mismatch"), std::string::npos)
      << mismatched.output;
  // Rejected before the writer opens: the recovery artifact is untouched.
  EXPECT_EQ(read_file(resumed_path + ".tmp"),
            full_bytes.substr(0, full_bytes.size() * 3 / 5));
  EXPECT_TRUE(read_file(resumed_path).empty());

  std::remove(full_path.c_str());
  std::remove(resumed_path.c_str());
  std::remove((resumed_path + ".tmp").c_str());
}

// A resume the engine rejects exits 1 and leaves FILE and FILE.tmp as
// they were: every check runs before the shard writer opens FILE.tmp.
TEST(CliResume, RejectedResumesLeaveTheirFilesByteIdentical) {
  const std::string dir = ::testing::TempDir();
  const std::string full_path = dir + "reject_full.json";
  const std::string path = dir + "reject.json";
  ASSERT_EQ(run_cli(std::string(kSweepArgs) + " --out " + full_path)
                .exit_code,
            0);
  const std::string full = read_file(full_path);
  // The writer emits one point per line after the header lines.
  std::vector<std::string> lines;
  std::istringstream stream(full);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  size_t first = 0;  // the first point's line
  while (first < lines.size() && lines[first].rfind("{\"", 0) != 0) ++first;
  ASSERT_LT(first + 1, lines.size());
  const auto join = [](const std::vector<std::string>& parts) {
    std::string text;
    for (const std::string& part : parts) text += part + "\n";
    return text;
  };

  std::vector<std::string> foreign = lines;  // point 0 with other params
  const size_t tiles = foreign[first].find("\"tiles\":1,");
  ASSERT_NE(tiles, std::string::npos) << foreign[first];
  foreign[first].replace(tiles, 10, "\"tiles\":7,");
  std::vector<std::string> duplicated = lines;  // point 0 twice
  duplicated.insert(duplicated.begin() + static_cast<long>(first) + 1,
                    lines[first]);

  struct Case {
    std::string label;
    std::string tmp_text;  // the interrupted run's FILE.tmp
    std::string expected;
  };
  for (const Case& c :
       {Case{"foreign params", join(foreign), "does not match"},
        Case{"duplicate index", join(duplicated), "twice"}}) {
    std::remove(path.c_str());
    write_file(path + ".tmp", c.tmp_text);
    const CliResult result =
        run_cli(std::string(kSweepArgs) + " --resume --out " + path);
    EXPECT_EQ(result.exit_code, 1) << c.label << "\n" << result.output;
    EXPECT_NE(result.output.find(c.expected), std::string::npos)
        << c.label << "\n" << result.output;
    EXPECT_EQ(read_file(path + ".tmp"), c.tmp_text) << c.label;
    EXPECT_TRUE(read_file(path).empty()) << c.label;
  }

  // A finished --shard 0/2 FILE resumed as --shard 1/2.
  std::remove((path + ".tmp").c_str());
  ASSERT_EQ(run_cli(std::string(kSweepArgs) + " --shard 0/2 --out " + path)
                .exit_code,
            0);
  const std::string shard0 = read_file(path);
  const CliResult result = run_cli(std::string(kSweepArgs) +
                                   " --shard 1/2 --resume --out " + path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("metadata mismatch"), std::string::npos)
      << result.output;
  EXPECT_EQ(read_file(path), shard0);
  EXPECT_TRUE(read_file(path + ".tmp").empty());

  std::remove(full_path.c_str());
  std::remove(path.c_str());
}

TEST(CliResume, FrontierStrategyRejectsResume) {
  const CliResult result =
      run_cli(std::string(kSweepArgs) +
              " --strategy frontier --resume --out ignored.json");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("frontier does not support --resume"),
            std::string::npos)
      << result.output;
}

TEST(CliResume, MergeRejectsMixedStrategyShards) {
  const std::string dir = ::testing::TempDir();
  const std::string halving_path = dir + "merge_halving.json";
  const std::string one_shot_path = dir + "merge_one_shot.json";

  ASSERT_EQ(run_cli(std::string(kSweepArgs) + " --shard 0/2 " +
                    "--strategy halving --out " + halving_path)
                .exit_code,
            0);
  ASSERT_EQ(run_cli(std::string(kSweepArgs) + " --shard 1/2 --out " +
                    one_shot_path)
                .exit_code,
            0);
  const CliResult merged =
      run_cli("--merge " + halving_path + " " + one_shot_path);
  EXPECT_EQ(merged.exit_code, 1);
  EXPECT_NE(merged.output.find("different sweep"), std::string::npos)
      << merged.output;

  std::remove(halving_path.c_str());
  std::remove(one_shot_path.c_str());
}

// --merge --out writes through a temp file: a write the file-size limit
// cuts short exits 1 naming the file and publishes nothing.
TEST(CliMerge, OutFailureExitsNonZeroAndPublishesNothing) {
  const std::string dir = ::testing::TempDir();
  const std::string s0 = dir + "merge_limit0.json";
  const std::string s1 = dir + "merge_limit1.json";
  const std::string merged = dir + "merge_limit_out.json";
  ASSERT_EQ(run_cli(std::string(kSweepArgs) + " --shard 0/2 --out " + s0)
                .exit_code,
            0);
  ASSERT_EQ(run_cli(std::string(kSweepArgs) + " --shard 1/2 --out " + s1)
                .exit_code,
            0);
  std::remove(merged.c_str());
  // 1 block = 512 bytes: far below the merged document.
  const CliResult result =
      run_shell("trap '' XFSZ; ulimit -f 1; " +
                std::string(SIMPHONY_CLI_PATH) + " --merge " + s0 + " " + s1 +
                " --out " + merged);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(merged), std::string::npos) << result.output;
  EXPECT_TRUE(read_file(merged).empty());

  // Without the limit the same merge publishes the stdout document.
  ASSERT_EQ(run_cli("--merge " + s0 + " " + s1 + " --out " + merged)
                .exit_code,
            0);
  const CliResult stdout_merge = run_shell(
      std::string(SIMPHONY_CLI_PATH) + " --merge " + s0 + " " + s1 +
      " 2>/dev/null");
  EXPECT_EQ(read_file(merged), stdout_merge.output);

  for (const std::string& file : {s0, s1, merged, merged + ".tmp"}) {
    std::remove(file.c_str());
  }
}

TEST(CliResume, CacheFileRoundTripsAndReportsTheWarmLoad) {
  const std::string dir = ::testing::TempDir();
  const std::string cache_path = dir + "resume_cache.spcc";
  const std::string out1 = dir + "resume_cache_1.json";
  const std::string out2 = dir + "resume_cache_2.json";
  std::remove(cache_path.c_str());

  const CliResult cold = run_cli(std::string(kSweepArgs) + " --cache-file " +
                                 cache_path + " --out " + out1);
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  ASSERT_FALSE(read_file(cache_path).empty());

  const CliResult warm = run_cli(std::string(kSweepArgs) + " --cache-file " +
                                 cache_path + " --out " + out2);
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("loaded"), std::string::npos) << warm.output;
  EXPECT_NE(warm.output.find("cached cost entr"), std::string::npos)
      << warm.output;
  // The warm sweep produces the identical shard document.
  EXPECT_EQ(read_file(out2), read_file(out1));

  std::remove(cache_path.c_str());
  std::remove(out1.c_str());
  std::remove(out2.c_str());
}

/// Runs the CLI keeping only its stdout.
CliResult run_cli_stdout(const std::string& args) {
  return run_shell("(" + std::string(SIMPHONY_CLI_PATH) + " " + args +
                   " 2>/dev/null)");
}

/// The cost_cache {hits, misses} of a CLI --json sweep document.
std::pair<double, double> cache_counts(const std::string& json_text) {
  const util::Json doc = util::Json::parse(json_text);
  const util::Json& cache = doc.at("cost_cache");
  return {cache.at("hits").as_number(), cache.at("misses").as_number()};
}

// The canonical cold sweep (perfbench's sweep_cold flags) against a cache
// file this build primed: every one of its 144 (sub-arch, GEMM) pairs
// hits.  The same file re-stamped as format version 1 starts cold and is
// re-saved as version 2.
TEST(CliResume, PrimedCacheFileServesTheCanonicalSweepWithoutAMiss) {
  const std::string dir = ::testing::TempDir();
  const std::string cache_path = dir + "canonical_cache.spcc";
  std::remove(cache_path.c_str());
  const std::string args =
      "--model vgg8 --arch scatter,mzi --sweep tiles=1,2,4 "
      "--sweep wavelengths=1,2,4 --mapping greedy --threads 2 --json "
      "--cache-file " + cache_path;

  const CliResult cold = run_cli_stdout(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_EQ(cache_counts(cold.output), std::make_pair(0.0, 144.0));

  const CliResult warm = run_cli_stdout(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_EQ(cache_counts(warm.output), std::make_pair(144.0, 0.0));

  const std::string primed = read_file(cache_path);
  std::string v1;
  util::MemoryOutputStream stream(v1);
  util::RecordWriter writer(stream, CostMatrixCache::kFileMagic, 1);
  util::RecordReader reader(primed);
  ASSERT_TRUE(reader.header_ok(CostMatrixCache::kFileMagic));
  ASSERT_EQ(reader.version(), CostMatrixCache::kFileVersion);
  std::string_view payload;
  while (reader.next(&payload) == util::RecordStatus::kOk) {
    writer.write_record(payload);
  }
  write_file(cache_path, v1);

  const CliResult stale = run_cli(args);
  ASSERT_EQ(stale.exit_code, 0) << stale.output;
  EXPECT_NE(stale.output.find("starting cold"), std::string::npos)
      << stale.output;
  EXPECT_EQ(util::RecordReader(read_file(cache_path)).version(),
            CostMatrixCache::kFileVersion);
  const CliResult rewarmed = run_cli_stdout(args);
  ASSERT_EQ(rewarmed.exit_code, 0) << rewarmed.output;
  EXPECT_EQ(cache_counts(rewarmed.output), std::make_pair(144.0, 0.0));
  std::remove(cache_path.c_str());
}

TEST(CliResume, ResumeWithoutOutExitsWithDiagnostic) {
  const CliResult result = run_cli(std::string(kSweepArgs) + " --resume");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("--resume needs --out"), std::string::npos)
      << result.output;
}

TEST(CliResume, CacheFileWithoutCostedMappingExitsWithDiagnostic) {
  const CliResult result = run_cli(
      "--model mlp --sweep wavelengths=1,2 --cache-file ignored.spcc");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("costed mapping"), std::string::npos)
      << result.output;
}

#endif  // SIMPHONY_CLI_PATH

}  // namespace
}  // namespace simphony::core
