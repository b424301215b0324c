// core::Engine (the DSE-as-a-service facade): strict JSON round-trips of
// the typed requests, the canonical-normal-form property the coalescing
// key relies on, admission (backpressure + coalescing) through the
// counters, the warm-cache acceptance bar (>= 90% hits for a repeated
// request), and — when SIMPHONY_CLI_PATH is defined — bit-identity of
// the facade's documents against the real one-shot CLI's --json output.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#ifdef SIMPHONY_CLI_PATH
#include <sys/wait.h>
#endif

#include "util/json.h"

namespace simphony::core {
namespace {

std::string error_of(const std::function<void()>& thunk) {
  try {
    thunk();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

// ------------------------------------------------------ JSON round trips

TEST(EngineRequestJson, SimulateDefaultsRoundTripExactly) {
  const SimulateRequest request;
  const util::Json document = request.to_json();
  const SimulateRequest back = SimulateRequest::from_json(document);
  EXPECT_EQ(back.to_json().dump(-1), document.dump(-1));
}

TEST(EngineRequestJson, SimulatePopulatedRoundTripExactly) {
  SimulateRequest request;
  request.arch = {"tempo", "mzi"};
  request.params.tiles = 3;
  request.params.wavelengths = 8;
  request.params.clock_GHz = 2.5;
  request.models.push_back(WorkloadSpec{"gemm:64x32x64", "a", 2.0});
  request.models.push_back(WorkloadSpec{"mlp", "", 1.0});
  request.aggregate = "weighted";
  request.mapping = "beam";
  request.objective = "energy";
  request.beam_width = 4;
  request.cost_cache = false;
  request.num_threads = 2;

  const util::Json document = request.to_json();
  const SimulateRequest back = SimulateRequest::from_json(document);
  EXPECT_EQ(back.to_json().dump(-1), document.dump(-1));
  EXPECT_EQ(back.arch, request.arch);
  EXPECT_EQ(back.models.size(), 2u);
  EXPECT_EQ(back.models[0].name, "a");
  EXPECT_EQ(back.models[0].weight, 2.0);
  EXPECT_EQ(back.params.clock_GHz, 2.5);
}

TEST(EngineRequestJson, ExploreRoundTripExactly) {
  ExploreRequest request;
  request.base.mapping = "greedy";
  request.space.tiles = {1, 2};
  request.space.wavelengths = {4, 8};
  request.sample = "random";
  request.samples = 3;
  request.seed = 42;
  request.shard.index = 1;
  request.shard.count = 2;
  request.dse_cache = false;

  const util::Json document = request.to_json();
  const ExploreRequest back = ExploreRequest::from_json(document);
  EXPECT_EQ(back.to_json().dump(-1), document.dump(-1));
  EXPECT_EQ(back.space.tiles, request.space.tiles);
  EXPECT_EQ(back.samples, 3);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.shard.index, 1u);
  EXPECT_EQ(back.shard.count, 2u);
}

// The coalescing key is the canonical dump: a sparse spelling and the
// full default document must serialize identically after one parse.
TEST(EngineRequestJson, SparseSpellingCanonicalizesToDefaults) {
  const SimulateRequest sparse =
      SimulateRequest::from_json(util::Json::parse("{}"));
  EXPECT_EQ(sparse.to_json().dump(-1), SimulateRequest{}.to_json().dump(-1));

  const ExploreRequest sparse_explore =
      ExploreRequest::from_json(util::Json::parse("{}"));
  EXPECT_EQ(sparse_explore.to_json().dump(-1),
            ExploreRequest{}.to_json().dump(-1));
}

// ------------------------------------------------------ malformed corpus

TEST(EngineRequestJson, UnknownKeysAreRejectedEverywhere) {
  EXPECT_NE(error_of([] {
              (void)SimulateRequest::from_json(
                  util::Json::parse(R"({"mappnig": "beam"})"));
            }).find("unexpected key 'mappnig'"),
            std::string::npos);
  EXPECT_NE(error_of([] {
              (void)SimulateRequest::from_json(
                  util::Json::parse(R"({"params": {"tiless": 2}})"));
            }).find("unexpected key 'tiless'"),
            std::string::npos);
  EXPECT_NE(error_of([] {
              (void)SimulateRequest::from_json(util::Json::parse(
                  R"({"models": [{"spec": "mlp", "wieght": 2}]})"));
            }).find("unexpected key 'wieght'"),
            std::string::npos);
  EXPECT_NE(error_of([] {
              (void)ExploreRequest::from_json(
                  util::Json::parse(R"({"sweeep": {}})"));
            }).find("unexpected key 'sweeep'"),
            std::string::npos);
}

TEST(EngineRequestJson, WrongTypesAndRangesAreRejected) {
  // Non-integer where an integer is required.
  EXPECT_FALSE(error_of([] {
                 (void)SimulateRequest::from_json(
                     util::Json::parse(R"({"params": {"tiles": 1.5}})"));
               }).empty());
  EXPECT_FALSE(error_of([] {
                 (void)SimulateRequest::from_json(
                     util::Json::parse(R"({"params": {"tiles": "two"}})"));
               }).empty());
  // Negative worker count.
  EXPECT_FALSE(error_of([] {
                 (void)SimulateRequest::from_json(
                     util::Json::parse(R"({"num_threads": -1})"));
               }).empty());
  // Non-positive / non-finite clock.
  EXPECT_FALSE(error_of([] {
                 (void)SimulateRequest::from_json(
                     util::Json::parse(R"({"params": {"clock_GHz": 0}})"));
               }).empty());
  // Shard index out of range.
  EXPECT_FALSE(error_of([] {
                 (void)ExploreRequest::from_json(util::Json::parse(
                     R"({"shard": {"index": 2, "count": 2}})"));
               }).empty());
  // Negative seed.
  EXPECT_FALSE(error_of([] {
                 (void)ExploreRequest::from_json(
                     util::Json::parse(R"({"seed": -1})"));
               }).empty());
}

TEST(EngineRequestJson, EvaluationValidationKeepsCliDiagnostics) {
  SimulateRequest both;
  both.arch = {"tempo"};
  both.description = "ptc x\n  core 4x4\n";
  EXPECT_NE(error_of([&] { (void)resolve_templates(both); })
                .find("not both"),
            std::string::npos);

  SimulateRequest bad_mapping;
  bad_mapping.mapping = "quantum";
  EXPECT_NE(error_of([&] { (void)make_mapper(bad_mapping); })
                .find("--mapping expects rules|greedy|beam|bnb"),
            std::string::npos);

  ExploreRequest no_samples;
  no_samples.sample = "random";
  EXPECT_NE(error_of([&] { (void)make_sampler(no_samples); })
                .find("--samples"),
            std::string::npos);
}

// ------------------------------------------------------------- admission

SimulateRequest tiny_request() {
  SimulateRequest request;
  request.models.push_back(WorkloadSpec{"gemm:32x16x32", "", 1.0});
  request.num_threads = 1;
  return request;
}

TEST(EngineAdmission, QueueFullRejectsWithRetryHint) {
  Engine::Options options;
  options.queue_capacity = 0;  // reject everything
  options.retry_after_ms = 123;
  Engine engine(options);

  const Engine::Admission admission = engine.submit(tiny_request());
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.retry_after_ms, 123);
  EXPECT_EQ(engine.counters().rejected, 1u);
  EXPECT_EQ(engine.counters().accepted, 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineAdmission, ConcurrentIdenticalRequestsCoalesce) {
  std::mutex mutex;
  std::condition_variable started_cv;
  std::condition_variable release_cv;
  bool started = false;
  bool released = false;

  Engine::Options options;
  options.num_threads = 2;  // a real pool, so evaluation blocks off-thread
  options.queue_capacity = 4;
  options.evaluation_hook = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    started_cv.notify_all();
    release_cv.wait(lock, [&] { return released; });
  };
  Engine engine(options);

  const SimulateRequest request = tiny_request();
  const Engine::Admission first = engine.submit(request);
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.coalesced);
  {
    // Only join once the evaluation is demonstrably in flight.
    std::unique_lock<std::mutex> lock(mutex);
    started_cv.wait(lock, [&] { return started; });
  }

  // Same request, spelled through a JSON round trip: still one flight.
  const Engine::Admission twin = engine.submit(
      SimulateRequest::from_json(request.to_json()));
  ASSERT_TRUE(twin.accepted);
  EXPECT_TRUE(twin.coalesced);
  EXPECT_EQ(engine.pending(), 1u);

  // A different request is admitted independently (hook blocks it too).
  SimulateRequest other = tiny_request();
  other.objective = "energy";
  const Engine::Admission distinct = engine.submit(other);
  ASSERT_TRUE(distinct.accepted);
  EXPECT_FALSE(distinct.coalesced);

  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  release_cv.notify_all();

  const Engine::Outcome a = first.outcome.get();
  const Engine::Outcome b = twin.outcome.get();
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.document.dump(-1), b.document.dump(-1));

  engine.drain();
  const Engine::Counters counters = engine.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.coalesced, 1u);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineAdmission, EvaluationErrorsLandInOutcomeNotExceptions) {
  Engine engine;
  SimulateRequest bad = tiny_request();
  bad.mapping = "quantum";
  const Engine::Admission admission = engine.submit(bad);
  ASSERT_TRUE(admission.accepted);
  const Engine::Outcome outcome = admission.outcome.get();
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("--mapping expects"), std::string::npos);
  engine.drain();
  EXPECT_EQ(engine.counters().completed, 1u);
}

// ------------------------------------------------------------ warm cache

ExploreRequest costed_sweep() {
  ExploreRequest request;
  request.base = tiny_request();
  request.base.mapping = "greedy";
  request.space.tiles = {1, 2};
  return request;
}

TEST(EngineWarmCache, RepeatedExploreServesAtLeastNinetyPercentHits) {
  Engine engine;
  const ExploreRequest request = costed_sweep();

  const ExploreResponse cold = engine.explore(request);
  ASSERT_TRUE(cold.cache_attached);
  EXPECT_GT(cold.cache.misses, 0u);
  EXPECT_EQ(cold.cache.hits, 0u);

  const ExploreResponse warm = engine.explore(request);
  ASSERT_TRUE(warm.cache_attached);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_GE(warm.cache.hit_rate(), 0.9);

  // Warm results are bit-identical to cold ones.
  EXPECT_EQ(to_json(warm.result).dump(-1), to_json(cold.result).dump(-1));
}

TEST(EngineWarmCache, SimulateReusesTheSharedCacheAcrossRequests) {
  Engine engine;
  SimulateRequest request = tiny_request();
  request.mapping = "greedy";

  const SimulateResponse cold = engine.simulate(request);
  ASSERT_TRUE(cold.cache_attached);
  EXPECT_GT(cold.cache.misses, 0u);

  const SimulateResponse warm = engine.simulate(request);
  ASSERT_TRUE(warm.cache_attached);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_GE(warm.cache.hit_rate(), 0.9);
  EXPECT_EQ(warm.to_json().dump(-1), cold.to_json().dump(-1));
}

// ------------------------------------------- resume and merge in core

/// A six-point costed sweep without the shared cost cache, so whole
/// responses (not just results) compare across resumed and merged runs.
ExploreRequest resumable_sweep(int threads) {
  ExploreRequest request = costed_sweep();
  request.space.wavelengths = {1, 2, 4};
  request.base.cost_cache = false;
  request.base.num_threads = threads;
  return request;
}

/// One explore streamed through an in-memory DseShardWriter that
/// on_start opens (what the CLI's --out does), with the on_point order.
struct StreamedExplore {
  ExploreResponse response;
  std::string text;          // the writer's published document
  std::vector<size_t> seen;  // on_point indices, in call order
};

StreamedExplore explore_streamed(const ExploreRequest& request,
                                 const ShardRecovery* resume = nullptr) {
  StreamedExplore out;
  std::stringstream stream;
  std::unique_ptr<DseShardWriter> writer;
  Engine::ExploreHooks hooks;
  hooks.resume = resume;
  hooks.on_start = [&](const DseShardWriter::Metadata& header) {
    writer = std::make_unique<DseShardWriter>(stream, header);
  };
  hooks.on_point = [&](const DsePoint& point) {
    out.seen.push_back(point.index);
    writer->add_point(point);
  };
  Engine engine;
  out.response = engine.explore(request, hooks);
  writer->finish();
  out.text = stream.str();
  return out;
}

TEST(EngineResume, ResumedExploreIsBitIdenticalAndReplaysRecoveredFirst) {
  for (int threads : {1, 4}) {
    const ExploreRequest request = resumable_sweep(threads);
    const StreamedExplore full = explore_streamed(request);
    // An interrupted run's document, torn at 60%.
    const ShardRecovery recovery = recover_shard_text(
        full.text.substr(0, full.text.size() * 3 / 5), "interrupted.json");
    ASSERT_FALSE(recovery.result.points.empty()) << threads;
    ASSERT_LT(recovery.result.points.size(), full.seen.size()) << threads;

    const StreamedExplore resumed = explore_streamed(request, &recovery);
    EXPECT_EQ(resumed.response.to_json().dump(-1),
              full.response.to_json().dump(-1))
        << threads;
    EXPECT_EQ(resumed.text, full.text) << threads;
    ASSERT_EQ(resumed.seen.size(), full.seen.size()) << threads;
    for (size_t i = 0; i < recovery.result.points.size(); ++i) {
      EXPECT_EQ(resumed.seen[i], recovery.result.points[i].index)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(EngineResume, ForeignRecoveriesThrowBeforeOnStart) {
  const ExploreRequest request = resumable_sweep(1);
  const ShardRecovery good =
      recover_shard_text(explore_streamed(request).text, "run.json");
  ASSERT_EQ(good.result.points.size(), 6u);

  ShardRecovery header = good;
  header.metadata.strategy = "halving";
  ShardRecovery foreign = good;
  foreign.result.points[2].params.tiles = 99;
  ShardRecovery duplicate = good;
  duplicate.result.points.push_back(good.result.points[0]);
  const std::vector<std::pair<const ShardRecovery*, std::string>> cases = {
      {&header, "metadata mismatch"},
      {&foreign, "point 2 does not match"},
      {&duplicate, "index 0 twice"}};
  for (const auto& [recovery, expected] : cases) {
    bool started = false;
    Engine::ExploreHooks hooks;
    hooks.resume = recovery;
    hooks.on_start = [&](const DseShardWriter::Metadata&) { started = true; };
    Engine engine;
    try {
      (void)engine.explore(request, hooks);
      ADD_FAILURE() << "accepted: " << expected;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("run.json"), std::string::npos) << what;
      EXPECT_NE(what.find(expected), std::string::npos) << what;
    }
    EXPECT_FALSE(started) << expected;
  }
}

TEST(EngineMerge, ShardDocumentsMergeToTheUnshardedResponse) {
  const ExploreRequest request = resumable_sweep(1);
  const StreamedExplore whole = explore_streamed(request);
  ExploreRequest first = request;
  first.shard = DseShard{0, 2};
  ExploreRequest second = request;
  second.shard = DseShard{1, 2};
  // A --out shard file and a --json response document, in either order.
  const std::string out_file = explore_streamed(first).text;
  const std::string json_doc =
      explore_streamed(second).response.to_json().dump(2);
  for (const bool reversed : {false, true}) {
    std::vector<std::pair<std::string, std::string>> documents = {
        {"s0.json", out_file}, {"s1.json", json_doc}};
    if (reversed) std::swap(documents[0], documents[1]);
    EXPECT_EQ(merge_sweep_documents(documents).to_json().dump(2),
              whole.response.to_json().dump(2))
        << reversed;
  }
}

TEST(EngineMerge, ErrorsNameTheirDocuments) {
  EXPECT_THROW((void)merge_sweep_documents({}), std::invalid_argument);

  ExploreRequest request = resumable_sweep(1);
  request.shard = DseShard{0, 2};
  const std::string shard0 = explore_streamed(request).text;
  const std::string overlap = error_of([&] {
    (void)merge_sweep_documents({{"first.json", shard0},
                                 {"second.json", shard0}});
  });
  EXPECT_NE(overlap.find("appears in both first.json and second.json"),
            std::string::npos)
      << overlap;

  ExploreRequest other = request;
  other.shard = DseShard{1, 2};
  other.space.wavelengths = {1, 2};  // a different point list
  const std::string mismatch = error_of([&] {
    (void)merge_sweep_documents(
        {{"first.json", shard0}, {"other.json", explore_streamed(other).text}});
  });
  EXPECT_NE(mismatch.find("other.json"), std::string::npos) << mismatch;
  EXPECT_NE(mismatch.find("different sweep than first.json"),
            std::string::npos)
      << mismatch;

  const std::string torn = error_of([&] {
    (void)merge_sweep_documents({{"torn.json", shard0.substr(0, 40)}});
  });
  EXPECT_EQ(torn.rfind("torn.json: ", 0), 0u) << torn;
}

// --------------------------------------------------- CLI byte-identity
//
// The acceptance bar of the facade: the documents the Engine returns are
// byte-for-byte what the one-shot CLI prints with --json.
#ifdef SIMPHONY_CLI_PATH

std::string run_cli_stdout(const std::string& args) {
  const std::string command = std::string(SIMPHONY_CLI_PATH) + " " + args +
                              " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("popen failed");
  std::string output;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("CLI exited non-zero for: " + args);
  }
  return output;
}

TEST(EngineCliIdentity, SimulateMatchesOneShotCliJson) {
  SimulateRequest request;
  request.models.push_back(WorkloadSpec{"gemm:64x32x64", "", 1.0});
  request.mapping = "greedy";
  Engine engine;
  const SimulateResponse response = engine.simulate(request);
  EXPECT_EQ(response.to_json().dump(2) + "\n",
            run_cli_stdout("--model gemm:64x32x64 --mapping greedy --json"));
}

TEST(EngineCliIdentity, BatchSimulateMatchesOneShotCliJson) {
  const std::string models_path =
      testing::TempDir() + "engine_cli_models.json";
  {
    std::ofstream file(models_path);
    file << R"({"models": [{"spec": "gemm:64x32x64"},)"
         << R"( {"spec": "gemm:32x16x32", "weight": 2.0}]})";
  }
  SimulateRequest request;
  request.models.push_back(WorkloadSpec{"gemm:64x32x64", "", 1.0});
  request.models.push_back(WorkloadSpec{"gemm:32x16x32", "", 2.0});
  request.aggregate = "weighted";
  Engine engine;
  const SimulateResponse response = engine.simulate(request);
  EXPECT_EQ(response.to_json().dump(2) + "\n",
            run_cli_stdout("--models " + models_path +
                           " --aggregate weighted --json"));
  std::remove(models_path.c_str());
}

TEST(EngineCliIdentity, ExploreMatchesOneShotCliJsonOnFreshEngine) {
  ExploreRequest request = costed_sweep();
  // Fresh engine: the per-request cache delta equals the CLI's
  // process-cumulative counters, so even "cost_cache" matches.
  Engine engine;
  const ExploreResponse response = engine.explore(request);
  EXPECT_EQ(response.to_json().dump(2) + "\n",
            run_cli_stdout("--model gemm:32x16x32 --mapping greedy"
                           " --sweep tiles=1,2 --threads 1 --json"));
}

#endif  // SIMPHONY_CLI_PATH

}  // namespace
}  // namespace simphony::core
