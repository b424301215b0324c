// Pluggable exploration strategies for the DSE engine (the ROADMAP's
// "adaptive search" direction), in the style of klee-mc's lib/Searcher:
// small strategy objects that propose batches of candidate points and
// consume their evaluated results.
//
// The engine loop behind DseOptions::strategy (core/dse.cpp) is
// fidelity-aware: every candidate carries a FidelityLevel, and the
// evaluator substitutes DseOptions::low_fidelity_mapper (typically a
// GreedyMapper) for the full mapping search on kLow candidates.
// SuccessiveHalvingStrategy exploits this the way klee-mc layers caching
// solvers — run the cheap tier over everything, escalate only the
// survivors — so a sweep pays the expensive mapper for a 1/eta^(rungs-1)
// fraction of the space while the shared CostMatrixCache keeps the
// refinement pass warm.  See docs/strategies.md for the rung math and
// the CLI/JSON surface.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "core/dse.h"

namespace simphony::core {

/// Per-rung evaluation accounting, exposed through
/// ExploreStrategy::rung_stats() (and reported by bench_dse / the
/// "strategy" section of explore responses).
struct RungStats {
  int rung = 0;
  FidelityLevel fidelity = FidelityLevel::kFull;
  /// Candidates the strategy proposed at this rung (its batch size).
  size_t candidates = 0;
  /// Fresh evaluations the engine actually ran for the batch —
  /// candidates minus duplicate-parameter and cross-rung memo hits.
  size_t evaluated = 0;
};

/// "low" | "full" — the spelling rung stats serialize with.
[[nodiscard]] const char* to_string(FidelityLevel fidelity);

/// The propose/consume interface the strategy-driven engine loop talks
/// to.  A strategy is stateful and single-use: begin() starts one
/// exploration, then the engine alternates next_batch() / consume()
/// until next_batch() returns empty, and finish() hands back the
/// slice's result points.
class ExploreStrategy {
 public:
  /// One proposed evaluation: a canonical point index, its parameters,
  /// and the fidelity to cost it at.
  struct Candidate {
    size_t index = 0;
    arch::ArchParams params;
    FidelityLevel fidelity = FidelityLevel::kFull;
  };

  /// What the engine hands begin(): this shard's slice of the canonical
  /// point list (ascending canonical index — every index, including the
  /// ones in `skip_indices`), the full list's size, and the resume-skip
  /// set.  A strategy must not re-propose a skipped index at kFull (the
  /// caller already holds its result and merges it back in), but may
  /// re-evaluate its parameters at kLow so selection ranks stay
  /// identical to the uninterrupted run.
  struct Context {
    std::vector<Candidate> slice;
    size_t total_points = 0;
    const std::unordered_set<size_t>* skip_indices = nullptr;  // not owned

    [[nodiscard]] bool skipped(size_t index) const {
      return skip_indices != nullptr && skip_indices->count(index) != 0;
    }
  };

  virtual ~ExploreStrategy() = default;

  /// Strategy name for reports and request JSON ("one-shot", "halving",
  /// "frontier", "interleaved").
  [[nodiscard]] virtual std::string name() const = 0;

  virtual void begin(Context context) = 0;

  /// The next batch of candidates to evaluate; empty ends the loop.
  /// Within a batch the engine deduplicates identical (params, fidelity)
  /// pairs — also against every earlier batch — and evaluates the rest
  /// in parallel, so the batch is the strategy's parallelism grain.
  [[nodiscard]] virtual std::vector<Candidate> next_batch() = 0;

  /// The last batch's results, in batch order (every candidate gets its
  /// result; memo hits are copies of the first evaluation).
  /// `fresh_evaluations` is how many the engine actually simulated.
  virtual void consume(const std::vector<DsePoint>& evaluated,
                       size_t fresh_evaluations) = 0;

  /// The slice's final result points, in any order — the engine restores
  /// canonical index order and recomputes the Pareto frontier.  Must
  /// exclude skipped indices.
  [[nodiscard]] virtual std::vector<DsePoint> finish() = 0;

  /// Per-rung accounting, appended as rungs complete.
  [[nodiscard]] const std::vector<RungStats>& rung_stats() const {
    return rung_stats_;
  }

 protected:
  std::vector<RungStats> rung_stats_;
};

/// Evaluates every slice point at full fidelity in one batch — the
/// schedule explore() runs when DseOptions::strategy is nullptr
/// (tests/test_strategy.cpp pins its documents against recorded goldens
/// across samplers, mappers, and thread counts).
class OneShotStrategy final : public ExploreStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "one-shot"; }
  void begin(Context context) override;
  [[nodiscard]] std::vector<Candidate> next_batch() override;
  void consume(const std::vector<DsePoint>& evaluated,
               size_t fresh_evaluations) override;
  [[nodiscard]] std::vector<DsePoint> finish() override;

 private:
  Context context_;
  bool proposed_ = false;
  std::vector<DsePoint> results_;
};

/// Multi-fidelity successive halving over the slice.  Rung r holds
/// k_r = max(1, ceil(n / eta^r)) survivors of the slice's n points:
/// every rung before the last evaluates its survivors at kLow (cheap
/// mapper) and keeps the best k_{r+1}; the last rung (index rungs - 1)
/// re-evaluates its k_{rungs-1} survivors at kFull, and only those
/// full-fidelity points form the result.  Selection ranks a point by
/// its best position across the per-objective leaderboards (energy,
/// latency, area, EDAP; canonical index breaks ties), so the cheap
/// tier's argmin of every objective always survives — which is what
/// lets halving recover the frontier's best point per objective while
/// paying full fidelity for a 1/eta^(rungs-1) fraction of the space
/// (tests/test_strategy.cpp asserts both).  Under sharding each shard
/// runs an independent bracket over its own slice; results are
/// deterministic for any thread count, but a merged sharded run keeps
/// per-shard survivor sets rather than the unsharded global bracket.
class SuccessiveHalvingStrategy final : public ExploreStrategy {
 public:
  /// Throws std::invalid_argument unless eta >= 2 and rungs >= 1.
  explicit SuccessiveHalvingStrategy(int eta = 3, int rungs = 2);

  /// Halving driven by an objective spec (core/metrics.h).  The four
  /// legacy leaderboards always run — selection (and therefore every
  /// legacy document) is unchanged for the canned specs — and a
  /// non-canned spec adds one more board ranked by its value(), so the
  /// spec's own argmin always survives to the full-fidelity rung.
  SuccessiveHalvingStrategy(int eta, int rungs, ObjectiveSpec objective);

  [[nodiscard]] std::string name() const override { return "halving"; }
  [[nodiscard]] int eta() const { return eta_; }
  [[nodiscard]] int rungs() const { return rungs_; }
  [[nodiscard]] const ObjectiveSpec& objective() const { return objective_; }

  /// k_r = max(1, ceil(n / eta^r)): survivors entering rung r.
  [[nodiscard]] static size_t rung_survivors(size_t n, int eta, int rung);

  void begin(Context context) override;
  [[nodiscard]] std::vector<Candidate> next_batch() override;
  void consume(const std::vector<DsePoint>& evaluated,
               size_t fresh_evaluations) override;
  [[nodiscard]] std::vector<DsePoint> finish() override;

 private:
  int eta_;
  int rungs_;
  ObjectiveSpec objective_;  // default: canned edp (legacy selection)
  Context context_;
  int rung_ = 0;
  bool awaiting_consume_ = false;
  bool done_ = false;
  std::vector<size_t> survivors_;  // positions into context_.slice
  std::vector<DsePoint> results_;
};

/// Importance-resampling around the Pareto frontier: round 0 evaluates
/// the whole slice at full fidelity (one-shot), then each refine round
/// proposes the axis-neighbors of every current frontier point — the
/// adjacent values of each swept DseSpace axis, deduplicated against
/// everything seen — as new candidates with canonical indices starting
/// at total_points.  All rounds run at kFull; refined points carry
/// their round in DsePoint::rung.  Designed for sampled sweeps (random /
/// LHS), where the frontier's grid neighborhood was likely never drawn;
/// incompatible with sharding and --resume (the engine's caller rejects
/// both — refined indices fall outside the canonical point list).
class FrontierRefineStrategy final : public ExploreStrategy {
 public:
  /// Throws std::invalid_argument when refine_rounds < 1.
  explicit FrontierRefineStrategy(DseSpace space, int refine_rounds = 1);

  /// Refinement around the frontier of an objective spec's pareto_axes
  /// (core/metrics.h): a spec referencing p99_latency steps neighbors of
  /// the tail-latency frontier too.  Canned specs reproduce the legacy
  /// (energy, latency, area) frontier exactly.
  FrontierRefineStrategy(DseSpace space, int refine_rounds,
                         ObjectiveSpec objective);

  [[nodiscard]] std::string name() const override { return "frontier"; }
  [[nodiscard]] int refine_rounds() const { return refine_rounds_; }
  [[nodiscard]] const ObjectiveSpec& objective() const { return objective_; }

  void begin(Context context) override;
  [[nodiscard]] std::vector<Candidate> next_batch() override;
  void consume(const std::vector<DsePoint>& evaluated,
               size_t fresh_evaluations) override;
  [[nodiscard]] std::vector<DsePoint> finish() override;

 private:
  [[nodiscard]] std::vector<Candidate> neighbors_of_frontier();

  DseSpace space_;
  int refine_rounds_;
  ObjectiveSpec objective_;  // default: canned edp (legacy frontier axes)
  Context context_;
  int round_ = 0;  // 0 = base one-shot pass, 1.. = refine rounds
  bool awaiting_consume_ = false;
  bool done_ = false;
  size_t next_index_ = 0;
  std::unordered_set<arch::ArchParams, ArchParamsHash> seen_;
  std::vector<DsePoint> results_;
};

}  // namespace simphony::core
