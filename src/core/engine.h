// DSE-as-a-service: the request-oriented facade over the whole
// simulation stack.
//
// Every entry point before this layer was one-shot: simphony_cli parsed
// flags, materialized the architecture, warmed the cost-matrix cache,
// answered one question, and threw all of it away.  core::Engine owns
// that warm state across requests — one shared CostMatrixCache (with
// optional cache-file persistence, PR 6), a memo of materialized
// Simulators keyed on (architecture, params), and a util::ThreadPool for
// asynchronous admission — behind typed SimulateRequest/ExploreRequest
// structs with exact-round-trip JSON (util/json.h).
//
// Three layers consume it:
//   * simphony_cli calls the synchronous simulate()/explore() and
//     merge_sweep_documents() — flag parsing, file I/O and output
//     rendering only; the engine computes, checks and renders every
//     sweep header, including --resume verification.
//   * simphonyd (core/server.h) calls submit(): a bounded admission
//     queue with reject-with-retry-after backpressure, and coalescing of
//     concurrent identical requests onto one evaluation (keyed on the
//     request's canonical JSON — collision-proof, and normalizing, since
//     two spellings of the same request canonicalize identically).
//   * tests drive both paths and assert the warm-cache and coalescing
//     contracts through the per-request cache counters.
//
// Results are bit-identical to the one-shot CLI for every request, warm
// or cold: the cache is first-writer-wins over bit-identical entries and
// the Simulator memo only reuses exactly-equal constructions.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/node.h"
#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/mapper.h"
#include "core/options.h"
#include "core/simulator.h"
#include "core/strategy.h"
#include "core/workload_set.h"
#include "devlib/library.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace simphony::core {

/// One simulation question: which models on which architecture under
/// which mapping.  Field semantics mirror the CLI flags one-to-one (the
/// CLI is a thin client of this type); validation happens at evaluation
/// with the same diagnostics the CLI has always produced.
struct SimulateRequest {
  /// Prebuilt PTC template names (tempo|lt|mzi|scatter|mrr|butterfly|
  /// pcm|wdm), one sub-architecture each.  Empty with an empty
  /// `description` defaults to {"tempo"}; giving both is an error.
  std::vector<std::string> arch;
  /// Inline circuit description text (arch/description.h) as an
  /// alternative to `arch` — the request is self-contained, so a remote
  /// server needs no access to the client's files.
  std::string description;
  arch::ArchParams params;
  /// Models to simulate (workload_set.h spec syntax).  Empty defaults to
  /// the CLI's single-GEMM demo workload; two or more switch the
  /// response to the batched multi-model document.
  std::vector<WorkloadSpec> models;
  std::string aggregate = "sum";   // sum|max|weighted (batch fold)
  std::string mapping = "rules";   // rules|greedy|beam|bnb
  /// Objective spec (core/metrics.h grammar): a canned name
  /// (latency|energy|edp), any registry metric (e.g. p99_latency), a
  /// weighted sum ("0.6*edp+0.4*area"), or a lexicographic list
  /// ("latency,energy").  Parsed with ObjectiveSpec::parse at evaluation.
  std::string objective = "edp";
  int beam_width = 8;
  /// Consult the engine's shared cost-matrix cache (only effective with
  /// a costed mapping).  Results are bit-identical either way.
  bool cost_cache = true;
  int num_threads = 0;  // ThreadPool::workers_for convention

  /// Canonical JSON: every field emitted, object keys sorted (the
  /// writer's order), numbers round-trip exact — so parse -> to_json is
  /// a normal form and equal requests serialize identically (the
  /// coalescing key).
  [[nodiscard]] util::Json to_json() const;
  /// Strict parse: unknown keys are rejected ("unexpected key ...") so a
  /// typo'd field name can never be silently ignored.
  [[nodiscard]] static SimulateRequest from_json(const util::Json& j);
};

/// A design-space-exploration question over a SimulateRequest's
/// workload: sweep axes, sampler, shard.  `space.base` is ignored —
/// base parameters always come from base.params.
struct ExploreRequest {
  SimulateRequest base;
  /// Sweep axes (DseSpace semantics; empty axis keeps the base value).
  DseSpace space;
  std::string sample = "grid";  // grid|random|lhs
  int samples = 0;              // required >= 1 for random|lhs
  uint64_t seed = 1;
  DseShard shard;
  bool dse_cache = true;  // ArchParams-keyed duplicate-point memo
  /// Exploration strategy (core/strategy.h): one-shot|halving|frontier.
  /// "one-shot" is the legacy evaluate-everything engine, byte-identical
  /// to pre-strategy documents.
  std::string strategy = "one-shot";
  int eta = 3;            // halving: survivor fraction 1/eta per rung
  int rungs = 2;          // halving: rung count (last rung is full fidelity)
  int refine_rounds = 1;  // frontier: refinement rounds after the base pass

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static ExploreRequest from_json(const util::Json& j);
};

/// Typed result of a SimulateRequest.  to_json() reproduces the CLI's
/// --json document byte for byte: the bare ModelReport document (plus
/// "mapping" under a searched strategy) for a single model, the
/// {"arch", "aggregate", "models", "totals"} batch document for two or
/// more.
struct SimulateResponse {
  BatchReport batch;  // one entry per model (single-model: exactly one)
  bool is_batch = false;      // >= 2 models: batch document rendering
  bool mapped = false;        // a searched (non-rules) strategy chose
  BatchAggregate aggregate = BatchAggregate::kSum;
  std::string arch_label;     // template names joined with "+"
  std::string model_label;    // deduped model names joined with "+"
  std::string mapping_name;   // strategy name ("rules", "greedy", ...)
  std::string objective_name;
  /// M/G/1 tail latency of the workload mix (core/metrics.h
  /// p99_latency_ns).  Computed — and serialized as "p99_latency_ns" —
  /// only when the request's objective references p99_latency, so every
  /// legacy document stays byte-identical.
  double p99_latency_ns = std::numeric_limits<double>::quiet_NaN();
  /// Cost-cache activity attributed to THIS request (stats delta across
  /// the evaluation; exact when requests are sequential, approximate
  /// attribution under concurrent evaluations sharing the cache).  All
  /// zero when no cache was attached.
  CostMatrixCache::Stats cache;
  bool cache_attached = false;

  [[nodiscard]] util::Json to_json() const;
};

/// Typed result of an ExploreRequest.  to_json() reproduces the CLI's
/// DSE --json document byte for byte, including the "cost_cache"
/// counters section when a cache was attached — on a fresh engine the
/// per-request delta equals the process-cumulative stats the CLI
/// reports, so the documents are identical; on a warm engine the
/// counters prove the warm serve (>= 90% hits for a repeated request).
struct ExploreResponse {
  DseResult result;
  std::string arch_label;
  std::string model_label;
  std::string sampler_name;
  std::string aggregate_label;  // empty for single-model sweeps
  /// Non-canned objective spec text (ObjectiveSpec::text), surfaced as
  /// the document's "objective" field; empty (every canned spec) omits
  /// the field, keeping legacy documents byte-identical.
  std::string objective;
  size_t total_points = 0;
  DseShard shard;
  CostMatrixCache::Stats cache;  // per-request delta (see above)
  bool cache_attached = false;
  /// Strategy identity + per-rung evaluation accounting.  "one-shot"
  /// (with empty rung_stats) omits the whole "strategy" section from
  /// to_json(), keeping one-shot documents byte-identical to pre-strategy
  /// responses.
  std::string strategy_name = "one-shot";
  int eta = 0;            // halving only; 0 omits the field
  int rungs = 0;          // halving only; 0 omits the field
  int refine_rounds = 0;  // frontier only; 0 omits the field
  std::vector<RungStats> rung_stats;
  /// Random-sampler sweeps report how many of the drawn points were
  /// distinct (the redraw-on-duplicate sampler makes this == samples on
  /// all but tiny spaces); other samplers omit the "distinct" field.
  size_t distinct = 0;
  bool report_distinct = false;
  /// A merged document (merge_sweep_documents) carries the strategy's
  /// identity but not its per-shard rung accounting.
  bool report_rung_stats = true;

  [[nodiscard]] util::Json to_json() const;
};

/// --merge: recombines (origin, text) sweep documents — --out shard files
/// or DSE --json responses of one sweep (require_same_sweep, shard
/// ignored) — with the frontier recomputed over the sweep's Pareto axes.
/// to_json() of the result is the merged document: the unsharded --json
/// document without its per-run "cost_cache"/"rung_stats".  Throws
/// std::invalid_argument on an empty list, and naming the origin(s) on
/// a parse error, a different sweep, or an index in two documents.
[[nodiscard]] ExploreResponse merge_sweep_documents(
    const std::vector<std::pair<std::string, std::string>>& documents);

// Request-resolution helpers, shared by the Engine's evaluators, the
// CLI's flag-time validation and the traced benchmark harness, so labels
// and point lists cannot drift between them.

/// The PTC templates a request names ({"tempo"} default).  Throws on an
/// unknown template name, an empty `arch` list entry, or a request
/// carrying both `arch` and `description`.
[[nodiscard]] std::vector<arch::PtcTemplate> resolve_templates(
    const SimulateRequest& request);

/// Template names joined with "+" (the "arch" label of every document).
[[nodiscard]] std::string arch_label(const SimulateRequest& request);

struct ResolvedModels {
  WorkloadSet workloads;  // bits applied from params, ONN-converted
  std::string label;      // deduped names joined with "+"
};

/// Builds the request's WorkloadSet exactly like the CLI: empty model
/// list defaults to gemm:280x28x280, operand widths come from
/// request.params, repeated names dedup to "name#2", "#3", ...
[[nodiscard]] ResolvedModels resolve_models(const SimulateRequest& request);

/// The mapper a request asks for; nullptr for "rules" (the fixed
/// route-to-sub-arch-0 default).  Throws on an unknown mapping /
/// objective or a non-positive beam width, with the CLI's diagnostics.
[[nodiscard]] std::unique_ptr<Mapper> make_mapper(
    const SimulateRequest& request);

/// The sampler an explore request asks for; nullptr for "grid".  Throws
/// when random|lhs lacks a positive `samples`, or grid carries one.
[[nodiscard]] std::unique_ptr<DseSampler> make_sampler(
    const ExploreRequest& request);

/// The exploration strategy a request asks for; nullptr for "one-shot"
/// (explore()'s default schedule).  Throws on an unknown strategy name,
/// halving parameters out of range (eta >= 2, rungs >= 1), a non-positive
/// refine_rounds, or "frontier" combined with sharding (refined points
/// fall outside the canonical point list, so shards cannot merge).
/// Strategies are stateful and single-use: make a fresh one per
/// explore() evaluation.
[[nodiscard]] std::unique_ptr<ExploreStrategy> make_strategy(
    const ExploreRequest& request);

/// The canonical (unsharded) point list of an explore request — the
/// per-index ground truth a resumed sweep's recovered points are checked
/// against.
[[nodiscard]] std::vector<arch::ArchParams> resolve_points(
    const ExploreRequest& request);

/// The long-lived service facade.  Thread-safe: simulate()/explore()/
/// submit() may be called concurrently from any thread (the server's
/// per-connection threads all talk to one Engine).
class Engine {
 public:
  struct Options {
    /// Workers of the asynchronous admission pool (workers_for
    /// convention; 1 degenerates submit() to inline evaluation on the
    /// submitting thread).  Evaluation-internal parallelism is governed
    /// by each request's own num_threads, not this.
    int num_threads = 0;
    /// Admitted-but-unfinished evaluations the engine holds before
    /// rejecting new work (coalesced joins never consume capacity).
    /// 0 rejects everything — the backpressure test seam.
    size_t queue_capacity = 16;
    /// When non-empty: load this cost-cache file at construction
    /// (degrading gracefully, see CostMatrixCache::LoadReport) and save
    /// it back in save_cache() and at destruction.
    std::string cache_file;
    /// Hint returned with a rejection: how long a client should wait
    /// before retrying.
    int retry_after_ms = 50;
    /// Test seam: invoked at the start of every evaluation (async path
    /// only), before any simulation work.
    std::function<void()> evaluation_hook;
  };

  Engine();  // all-defaults Options
  explicit Engine(Options options);
  /// Drains outstanding evaluations, then persists the cache file (when
  /// configured).
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// What the construction-time cache-file load found (default-empty
  /// report when no cache_file was configured).
  [[nodiscard]] const CostMatrixCache::LoadReport& cache_load_report()
      const {
    return load_report_;
  }

  /// Per-call observers and resume support for explore().
  struct ExploreHooks {
    /// Fires once with the sweep header, after every request and resume
    /// check passed and before the first point — the CLI opens its --out
    /// shard writer here, so a rejected request never touches the file.
    std::function<void(const DseShardWriter::Metadata&)> on_start;
    /// Fires as each point completes (completion order), after the point
    /// is final — the CLI streams shard files from this.  A resumed
    /// sweep replays its recovered points here first.
    std::function<void(const DsePoint&)> on_point;
    /// Generic progress milestones (CommonOptions contract).  Fires
    /// after on_point for the same completion, so an abort thrown from
    /// here never loses a streamed point.
    std::function<void(const Progress&)> on_progress;
    /// Resume: what an interrupted run of this sweep saved.  Before
    /// on_start the engine requires the same header (shard included) and
    /// each point's params at its index, once (std::invalid_argument
    /// naming the origin otherwise); the points are then replayed through
    /// on_point, skipped, and merged into the response.  Not owned.
    const ShardRecovery* resume = nullptr;
  };

  /// Synchronous evaluation on the calling thread (the CLI path — no
  /// queue, no capacity check).  Throws what the underlying engines
  /// throw; whatever an on_progress hook throws unwinds through here
  /// (the CLI's cooperative interrupt).
  [[nodiscard]] SimulateResponse simulate(
      const SimulateRequest& request,
      const std::function<void(const Progress&)>& on_progress = nullptr);
  [[nodiscard]] ExploreResponse explore(const ExploreRequest& request,
                                        const ExploreHooks& hooks);
  [[nodiscard]] ExploreResponse explore(const ExploreRequest& request);

  /// Terminal result of an asynchronous evaluation.
  struct Outcome {
    bool ok = false;
    std::string error;    // diagnostic when !ok
    util::Json document;  // the response's to_json() when ok
    CostMatrixCache::Stats cache;  // per-request delta
    bool cache_attached = false;
  };

  /// Admission verdict.  accepted == false means the queue was full:
  /// retry after retry_after_ms.  coalesced == true means an identical
  /// request was already in flight and this submission shares its
  /// outcome (and its progress stream — the new on_progress is NOT
  /// wired).  `outcome` is valid iff accepted.
  struct Admission {
    bool accepted = false;
    bool coalesced = false;
    int retry_after_ms = 0;
    std::shared_future<Outcome> outcome;
  };

  /// Asynchronous admission on the engine pool.  Evaluation errors land
  /// in the Outcome (ok == false), never as exceptions from the future.
  [[nodiscard]] Admission submit(
      const SimulateRequest& request,
      std::function<void(const Progress&)> on_progress = nullptr);
  [[nodiscard]] Admission submit(
      const ExploreRequest& request,
      std::function<void(const Progress&)> on_progress = nullptr);

  /// Admitted evaluations not yet completed.
  [[nodiscard]] size_t pending() const;
  /// Blocks until every admitted evaluation has completed (graceful
  /// drain; new submissions meanwhile still admit normally).
  void drain();
  /// Atomically persists the cache to Options::cache_file (no-op when
  /// unset).
  void save_cache() const;

  /// Cumulative stats of the shared cost-matrix cache.
  [[nodiscard]] CostMatrixCache::Stats cache_stats() const {
    return cache_.stats();
  }
  /// The shared cache itself (tests seed and inspect it).
  [[nodiscard]] CostMatrixCache& cost_cache() { return cache_; }

  /// Admission accounting since construction.
  struct Counters {
    uint64_t accepted = 0;   // evaluations admitted (excludes coalesced)
    uint64_t coalesced = 0;  // submissions joined onto an in-flight twin
    uint64_t rejected = 0;   // queue-full rejections
    uint64_t completed = 0;  // evaluations finished (ok or not)
  };
  [[nodiscard]] Counters counters() const;

 private:
  [[nodiscard]] SimulateResponse evaluate_simulate(
      const SimulateRequest& request,
      const std::function<void(const Progress&)>& on_progress);
  [[nodiscard]] ExploreResponse evaluate_explore(
      const ExploreRequest& request, const ExploreHooks& hooks);
  /// Memoized Simulator for (arch, description, params); the memo is
  /// capacity-bounded and cleared wholesale when full (shared_ptrs keep
  /// in-use Simulators alive).
  [[nodiscard]] std::shared_ptr<const Simulator> simulator_for(
      const SimulateRequest& request);
  [[nodiscard]] Admission admit(
      std::string key, std::function<Outcome()> evaluate);

  Options options_;
  CostMatrixCache cache_;
  CostMatrixCache::LoadReport load_report_;
  devlib::DeviceLibrary lib_;

  mutable std::mutex mutex_;
  std::condition_variable drained_;
  std::unordered_map<std::string, std::shared_future<Outcome>> inflight_;
  std::unordered_map<std::string, std::shared_ptr<const Simulator>>
      simulators_;
  size_t active_ = 0;  // admitted, not yet completed
  Counters counters_;

  /// Declared last: destroyed first, joining workers (whose tasks touch
  /// every member above) before anything else is torn down.
  util::ThreadPool pool_;
};

}  // namespace simphony::core
