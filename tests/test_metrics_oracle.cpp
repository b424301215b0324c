// Byte-identity oracle for the metric/objective refactor: every legacy
// CLI surface — sweeps under all mappers x canned objectives x thread
// counts, rules mapping, single-model simulate, batch aggregates,
// successive halving, and sharded --out / --merge documents — must
// reproduce the pre-refactor goldens in tests/golden/metrics_oracle/
// byte for byte.  The goldens were captured from the seed CLI before
// ObjectiveSpec existed; any diff here means a legacy document changed.
//
// Guarded on SIMPHONY_CLI_PATH / SIMPHONY_METRICS_GOLDEN_DIR, which
// CMake defines when the example binary is built alongside the tests.
#include <gtest/gtest.h>

#if defined(SIMPHONY_CLI_PATH) && defined(SIMPHONY_METRICS_GOLDEN_DIR)

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout only — goldens are captured stdout bytes
};

CliResult run_cli(const std::string& args) {
  const std::string command =
      std::string(SIMPHONY_CLI_PATH) + " " + args + " 2>/dev/null";
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string golden(const std::string& name) {
  return read_file(std::string(SIMPHONY_METRICS_GOLDEN_DIR) + "/" + name);
}

/// EXPECT byte-identity with a diff-friendly failure message (first
/// differing offset, not two full JSON dumps).
void expect_bytes_equal(const std::string& got, const std::string& want,
                        const std::string& label) {
  if (got == want) {
    SUCCEED();
    return;
  }
  size_t offset = 0;
  while (offset < got.size() && offset < want.size() &&
         got[offset] == want[offset]) {
    ++offset;
  }
  ADD_FAILURE() << label << ": output diverges from golden at byte " << offset
                << " (got " << got.size() << " bytes, golden " << want.size()
                << ")\n  got:    ..."
                << got.substr(offset > 40 ? offset - 40 : 0, 120)
                << "\n  golden: ..."
                << want.substr(offset > 40 ? offset - 40 : 0, 120);
}

const std::string kSweep =
    "--model mlp --arch scatter,mzi --sweep tiles=1,2 "
    "--sweep wavelengths=1,2";

// ------------------------------------------------- sweeps (DSE engine)

TEST(MetricsOracle, SweepsByteIdenticalAcrossMappersObjectivesThreads) {
  const std::vector<std::string> mappers = {"greedy", "beam", "bnb"};
  const std::vector<std::string> objectives = {"edp", "energy", "latency"};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  for (const std::string& mapper : mappers) {
    for (const std::string& objective : objectives) {
      const std::string want =
          golden("dse_" + mapper + "_" + objective + ".json");
      for (int threads : thread_counts) {
        const std::string label = mapper + "/" + objective + "/t" +
                                  std::to_string(threads);
        const CliResult result = run_cli(
            kSweep + " --mapping " + mapper + " --objective " + objective +
            " --threads " + std::to_string(threads) + " --json");
        ASSERT_EQ(result.exit_code, 0) << label;
        expect_bytes_equal(result.output, want, label);
      }
    }
  }
}

TEST(MetricsOracle, RulesSweepByteIdentical) {
  const CliResult result = run_cli(kSweep + " --mapping rules --json");
  ASSERT_EQ(result.exit_code, 0);
  expect_bytes_equal(result.output, golden("dse_rules.json"), "rules");
}

// ----------------------------------------- single-model simulate, batch

TEST(MetricsOracle, SimulateBnbByteIdentical) {
  const CliResult result =
      run_cli("--model mlp --arch scatter,mzi --mapping bnb --json");
  ASSERT_EQ(result.exit_code, 0);
  expect_bytes_equal(result.output, golden("simulate_bnb_edp.json"),
                     "simulate/bnb");
}

TEST(MetricsOracle, BatchAggregatesByteIdentical) {
  for (const std::string aggregate : {"sum", "max"}) {
    const CliResult result = run_cli(
        "--model mlp --model gemm:64x32x64 --arch scatter,mzi "
        "--mapping greedy --aggregate " +
        aggregate + " --json");
    ASSERT_EQ(result.exit_code, 0) << aggregate;
    expect_bytes_equal(result.output,
                       golden("batch_" + aggregate + "_greedy_edp.json"),
                       "batch/" + aggregate);
  }
}

// --------------------------------------------------- halving strategy

TEST(MetricsOracle, HalvingByteIdenticalAcrossThreads) {
  const std::string want = golden("dse_halving_greedy_edp.json");
  for (int threads : {1, 4}) {
    const CliResult result = run_cli(
        kSweep + " --mapping greedy --strategy halving --eta 2 --threads " +
        std::to_string(threads) + " --json");
    ASSERT_EQ(result.exit_code, 0) << threads;
    expect_bytes_equal(result.output, want,
                       "halving/t" + std::to_string(threads));
  }
}

// --------------------------------------------------- shards and merge

TEST(MetricsOracle, ShardFilesAndMergeByteIdentical) {
  const std::string dir = ::testing::TempDir();
  for (int shard : {0, 1}) {
    const std::string out =
        dir + "/metrics_oracle_shard" + std::to_string(shard) + ".json";
    const CliResult result = run_cli(
        kSweep + " --mapping greedy --shard " + std::to_string(shard) +
        "/2 --out " + out + " --json");
    ASSERT_EQ(result.exit_code, 0) << shard;
    expect_bytes_equal(
        read_file(out),
        golden("shard" + std::to_string(shard) + "_greedy_edp.json"),
        "shard" + std::to_string(shard));
    std::remove(out.c_str());
  }
  // Merging the committed shard goldens must reproduce the merged golden
  // (which differs from the unsharded sweep only by the omitted
  // cost_cache section).
  const std::string golden_dir = SIMPHONY_METRICS_GOLDEN_DIR;
  const CliResult merged =
      run_cli("--merge " + golden_dir + "/shard0_greedy_edp.json " +
              golden_dir + "/shard1_greedy_edp.json");
  ASSERT_EQ(merged.exit_code, 0);
  expect_bytes_equal(merged.output, golden("merged_greedy_edp.json"),
                     "merge");
}

// The --merge stdout of five more shard pairs, recorded before merge
// moved from the CLI into core::merge_sweep_documents: each header field
// the merge carries (strategy knobs, "distinct", "aggregate",
// "objective"), and --json shard documents whose per-run "cost_cache"
// and "rung_stats" sections the merge drops.
void expect_merge_matches_golden(const std::string& args, bool json_shards,
                                 const std::string& name) {
  const std::string dir = ::testing::TempDir();
  const std::string sink = json_shards ? " --json > " : " --out ";
  std::string files;
  for (const std::string shard : {"0", "1"}) {
    const std::string path = dir + "/merge_pair" + shard + ".json";
    const CliResult result =
        run_cli(args + " --shard " + shard + "/2" + sink + path);
    ASSERT_EQ(result.exit_code, 0) << name;
    files += " " + path;
  }
  const CliResult merged = run_cli("--merge" + files);
  ASSERT_EQ(merged.exit_code, 0) << name;
  const std::string golden_dir = SIMPHONY_METRICS_GOLDEN_DIR;
  const std::string want = read_file(golden_dir + "/../merge/" + name);
  expect_bytes_equal(merged.output, want, name);
  std::remove((dir + "/merge_pair0.json").c_str());
  std::remove((dir + "/merge_pair1.json").c_str());
}

TEST(MetricsOracle, MergedShardPairsByteIdentical) {
  const std::string greedy = kSweep + " --mapping greedy";
  const std::string halving = greedy + " --strategy halving --eta 2";
  const std::string random =
      kSweep + " --sweep size=4,8 --sample random --samples 5 --seed 9";
  const std::string batch =
      "--model mlp --model gemm:64x32x64 --arch scatter,mzi "
      "--sweep tiles=1,2 --sweep wavelengths=1,2 --mapping greedy "
      "--aggregate max";
  const std::string objective = greedy + " --objective '0.6*edp+0.4*area'";
  expect_merge_matches_golden(halving, false, "merged_halving_greedy_edp.json");
  expect_merge_matches_golden(random, false, "merged_random.json");
  expect_merge_matches_golden(batch, false, "merged_batch_max_greedy_edp.json");
  expect_merge_matches_golden(objective, false,
                              "merged_weighted_objective.json");
  expect_merge_matches_golden(halving, true, "merged_json_shards.json");
}

// Frontier --out headers carry refine_rounds, like the --json document,
// so the merge of a frontier file reports the knob too.
TEST(MetricsOracle, FrontierOutHeaderAndMergeCarryRefineRounds) {
  const std::string out = ::testing::TempDir() + "/metrics_frontier.json";
  const std::string args =
      kSweep + " --strategy frontier --refine-rounds 2 --out " + out;
  const CliResult json = run_cli(args + " --json");
  ASSERT_EQ(json.exit_code, 0);
  const std::string header =
      "\"strategy\": {\"name\": \"frontier\", \"refine_rounds\": 2}";
  EXPECT_NE(read_file(out).find(header), std::string::npos);
  const CliResult merged = run_cli("--merge " + out);
  ASSERT_EQ(merged.exit_code, 0);
  for (const std::string& document : {json.output, merged.output}) {
    EXPECT_NE(document.find("\"refine_rounds\": 2"), std::string::npos);
  }
  std::remove(out.c_str());
}

}  // namespace

#endif  // SIMPHONY_CLI_PATH && SIMPHONY_METRICS_GOLDEN_DIR
