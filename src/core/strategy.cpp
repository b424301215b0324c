#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace simphony::core {

const char* to_string(FidelityLevel fidelity) {
  return fidelity == FidelityLevel::kLow ? "low" : "full";
}

namespace {

/// Batch positions sorted ascending by one objective — non-finite values
/// last (they can never be frontier points), canonical index as the tie
/// break so the order is deterministic for any thread count.
std::vector<size_t> leaderboard(const std::vector<DsePoint>& points,
                                double (*metric)(const DsePoint&)) {
  std::vector<size_t> order(points.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double ma = metric(points[a]);
    const double mb = metric(points[b]);
    const bool fa = std::isfinite(ma);
    const bool fb = std::isfinite(mb);
    if (fa != fb) return fa;
    if (fa && ma != mb) return ma < mb;
    return points[a].index < points[b].index;
  });
  return order;
}

double metric_energy(const DsePoint& p) { return p.energy_pJ; }
double metric_latency(const DsePoint& p) { return p.latency_ns; }
double metric_area(const DsePoint& p) { return p.area_mm2; }
double metric_edap(const DsePoint& p) { return p.edap(); }

/// Batch positions ranked by an objective spec: finite spec values first
/// (ascending under the spec's own ordering — value() for scalar specs,
/// the component-wise comparison for lexicographic ones), canonical index
/// as the deterministic tie break.
std::vector<size_t> spec_leaderboard(const std::vector<DsePoint>& points,
                                     const ObjectiveSpec& spec) {
  std::vector<MetricVector> vectors;
  vectors.reserve(points.size());
  for (const DsePoint& p : points) vectors.push_back(p.metrics());
  std::vector<size_t> order(points.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const bool fa = std::isfinite(spec.value(vectors[a]));
    const bool fb = std::isfinite(spec.value(vectors[b]));
    if (fa != fb) return fa;
    if (fa) {
      if (spec.less(vectors[a], vectors[b])) return true;
      if (spec.less(vectors[b], vectors[a])) return false;
    }
    return points[a].index < points[b].index;
  });
  return order;
}

}  // namespace

// ------------------------------------------------------- OneShotStrategy

void OneShotStrategy::begin(Context context) {
  context_ = std::move(context);
  proposed_ = false;
  results_.clear();
}

std::vector<ExploreStrategy::Candidate> OneShotStrategy::next_batch() {
  if (proposed_) return {};
  proposed_ = true;
  std::vector<Candidate> batch;
  batch.reserve(context_.slice.size());
  for (const Candidate& candidate : context_.slice) {
    if (context_.skipped(candidate.index)) continue;
    batch.push_back(candidate);
  }
  if (batch.empty()) return {};
  rung_stats_.push_back(
      RungStats{0, FidelityLevel::kFull, batch.size(), 0});
  return batch;
}

void OneShotStrategy::consume(const std::vector<DsePoint>& evaluated,
                              size_t fresh_evaluations) {
  rung_stats_.back().evaluated = fresh_evaluations;
  results_.insert(results_.end(), evaluated.begin(), evaluated.end());
}

std::vector<DsePoint> OneShotStrategy::finish() {
  return std::move(results_);
}

// --------------------------------------------- SuccessiveHalvingStrategy

SuccessiveHalvingStrategy::SuccessiveHalvingStrategy(int eta, int rungs)
    : eta_(eta), rungs_(rungs) {
  if (eta < 2) {
    throw std::invalid_argument("successive halving needs eta >= 2, got " +
                                std::to_string(eta));
  }
  if (rungs < 1) {
    throw std::invalid_argument("successive halving needs rungs >= 1, got " +
                                std::to_string(rungs));
  }
}

SuccessiveHalvingStrategy::SuccessiveHalvingStrategy(int eta, int rungs,
                                                     ObjectiveSpec objective)
    : SuccessiveHalvingStrategy(eta, rungs) {
  objective_ = std::move(objective);
}

size_t SuccessiveHalvingStrategy::rung_survivors(size_t n, int eta,
                                                 int rung) {
  // Iterated ceiling division: ceil(ceil(n/eta)/eta) == ceil(n/eta^2), so
  // the loop computes ceil(n / eta^rung) without overflowing eta^rung.
  size_t k = n;
  for (int r = 0; r < rung && k > 1; ++r) {
    k = (k + static_cast<size_t>(eta) - 1) / static_cast<size_t>(eta);
  }
  return n == 0 ? 0 : std::max<size_t>(1, k);
}

void SuccessiveHalvingStrategy::begin(Context context) {
  context_ = std::move(context);
  rung_ = 0;
  awaiting_consume_ = false;
  done_ = false;
  results_.clear();
  survivors_.resize(context_.slice.size());
  std::iota(survivors_.begin(), survivors_.end(), size_t{0});
}

std::vector<ExploreStrategy::Candidate>
SuccessiveHalvingStrategy::next_batch() {
  if (done_ || awaiting_consume_ || survivors_.empty()) {
    done_ = done_ || survivors_.empty();
    return {};
  }
  const bool final_rung = rung_ == rungs_ - 1;
  const FidelityLevel fidelity =
      final_rung ? FidelityLevel::kFull : FidelityLevel::kLow;
  std::vector<Candidate> batch;
  batch.reserve(survivors_.size());
  for (size_t s : survivors_) {
    Candidate candidate = context_.slice[s];
    // Resumed indices already hold a full-fidelity result; every other
    // rung re-ranks them at kLow so survivor selection matches the
    // uninterrupted run exactly.
    if (final_rung && context_.skipped(candidate.index)) continue;
    candidate.fidelity = fidelity;
    batch.push_back(std::move(candidate));
  }
  rung_stats_.push_back(RungStats{rung_, fidelity, batch.size(), 0});
  if (batch.empty()) {  // every survivor was resumed
    done_ = true;
    return {};
  }
  awaiting_consume_ = true;
  return batch;
}

void SuccessiveHalvingStrategy::consume(
    const std::vector<DsePoint>& evaluated, size_t fresh_evaluations) {
  awaiting_consume_ = false;
  rung_stats_.back().evaluated = fresh_evaluations;
  if (rung_ == rungs_ - 1) {
    results_ = evaluated;
    for (DsePoint& point : results_) point.rung = rung_;
    done_ = true;
    return;
  }
  // Multi-objective rank: a point's rank is its best position across the
  // per-objective leaderboards, so the cheap tier's argmin of every
  // objective — and with it each frontier extreme — always survives.
  std::vector<size_t> rank(evaluated.size(),
                           std::numeric_limits<size_t>::max());
  for (double (*metric)(const DsePoint&) :
       {&metric_energy, &metric_latency, &metric_area, &metric_edap}) {
    const std::vector<size_t> order = leaderboard(evaluated, metric);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      rank[order[pos]] = std::min(rank[order[pos]], pos);
    }
  }
  // A non-canned objective adds its own board, so the spec's argmin is
  // guaranteed a full-fidelity evaluation; the canned specs add nothing,
  // keeping legacy survivor sets (and documents) byte-identical.
  if (!objective_.canned_objective()) {
    const std::vector<size_t> order = spec_leaderboard(evaluated, objective_);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      rank[order[pos]] = std::min(rank[order[pos]], pos);
    }
  }
  std::vector<size_t> order(evaluated.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (rank[a] != rank[b]) return rank[a] < rank[b];
    return evaluated[a].index < evaluated[b].index;
  });
  const size_t keep =
      rung_survivors(context_.slice.size(), eta_, rung_ + 1);
  order.resize(std::min(keep, order.size()));
  // Batch order is survivors_ order on non-final rungs, so a batch
  // position maps straight back to its slice position.
  std::vector<size_t> next;
  next.reserve(order.size());
  for (size_t pos : order) next.push_back(survivors_[pos]);
  std::sort(next.begin(), next.end());
  survivors_ = std::move(next);
  ++rung_;
}

std::vector<DsePoint> SuccessiveHalvingStrategy::finish() {
  return std::move(results_);
}

// ----------------------------------------------- FrontierRefineStrategy

FrontierRefineStrategy::FrontierRefineStrategy(DseSpace space,
                                               int refine_rounds)
    : space_(std::move(space)), refine_rounds_(refine_rounds) {
  if (refine_rounds < 1) {
    throw std::invalid_argument(
        "frontier refinement needs refine_rounds >= 1, got " +
        std::to_string(refine_rounds));
  }
}

FrontierRefineStrategy::FrontierRefineStrategy(DseSpace space,
                                               int refine_rounds,
                                               ObjectiveSpec objective)
    : FrontierRefineStrategy(std::move(space), refine_rounds) {
  objective_ = std::move(objective);
}

void FrontierRefineStrategy::begin(Context context) {
  context_ = std::move(context);
  round_ = 0;
  awaiting_consume_ = false;
  done_ = false;
  next_index_ = context_.total_points;
  results_.clear();
  seen_.clear();
  for (const Candidate& candidate : context_.slice) {
    seen_.insert(candidate.params);
  }
}

std::vector<ExploreStrategy::Candidate>
FrontierRefineStrategy::neighbors_of_frontier() {
  // The frontier over everything evaluated so far — marked over the
  // objective's pareto_axes, so e.g. a p99 objective refines around the
  // tail-latency frontier too — in canonical index order so proposals
  // (and their assigned indices) are deterministic.
  std::vector<DsePoint> pool = results_;
  mark_pareto_frontier(pool, pareto_axes(objective_));
  std::sort(pool.begin(), pool.end(),
            [](const DsePoint& a, const DsePoint& b) {
              return a.index < b.index;
            });

  std::vector<Candidate> batch;
  auto propose = [&](arch::ArchParams params) {
    if (!seen_.insert(params).second) return;
    batch.push_back(
        Candidate{next_index_++, std::move(params), FidelityLevel::kFull});
  };
  // Step one swept axis to its adjacent value list entries, reproducing
  // the axis coupling of grid enumeration (a core_sizes step drives
  // width too unless core_widths is swept; an input_bits step sets
  // input and weight bits together).
  const bool coupled_width = space_.core_widths.empty();
  auto perturb = [&](const std::vector<int>& axis, int current,
                     const std::function<void(arch::ArchParams&, int)>& set,
                     const arch::ArchParams& base) {
    if (axis.size() < 2) return;
    const auto it = std::find(axis.begin(), axis.end(), current);
    if (it == axis.end()) return;
    const size_t pos = static_cast<size_t>(it - axis.begin());
    for (int delta : {-1, +1}) {
      const long long neighbor = static_cast<long long>(pos) + delta;
      if (neighbor < 0 ||
          neighbor >= static_cast<long long>(axis.size())) {
        continue;
      }
      arch::ArchParams next = base;
      set(next, axis[static_cast<size_t>(neighbor)]);
      propose(std::move(next));
    }
  };
  for (const DsePoint& point : pool) {
    if (!point.pareto) continue;
    const arch::ArchParams& p = point.params;
    perturb(space_.tiles, p.tiles,
            [](arch::ArchParams& q, int v) { q.tiles = v; }, p);
    perturb(space_.cores_per_tile, p.cores_per_tile,
            [](arch::ArchParams& q, int v) { q.cores_per_tile = v; }, p);
    perturb(space_.core_sizes, p.core_height,
            [coupled_width](arch::ArchParams& q, int v) {
              q.core_height = v;
              if (coupled_width) q.core_width = v;
            },
            p);
    perturb(space_.core_widths, p.core_width,
            [](arch::ArchParams& q, int v) { q.core_width = v; }, p);
    perturb(space_.wavelengths, p.wavelengths,
            [](arch::ArchParams& q, int v) { q.wavelengths = v; }, p);
    perturb(space_.input_bits, p.input_bits,
            [](arch::ArchParams& q, int v) {
              q.input_bits = v;
              q.weight_bits = v;
            },
            p);
    perturb(space_.output_bits, p.output_bits,
            [](arch::ArchParams& q, int v) { q.output_bits = v; }, p);
  }
  return batch;
}

std::vector<ExploreStrategy::Candidate>
FrontierRefineStrategy::next_batch() {
  if (done_ || awaiting_consume_) return {};
  std::vector<Candidate> batch;
  if (round_ == 0) {
    batch.reserve(context_.slice.size());
    for (const Candidate& candidate : context_.slice) {
      if (context_.skipped(candidate.index)) continue;
      batch.push_back(candidate);
    }
  } else if (round_ <= refine_rounds_) {
    batch = neighbors_of_frontier();
  }
  if (batch.empty()) {
    done_ = true;
    return {};
  }
  rung_stats_.push_back(
      RungStats{round_, FidelityLevel::kFull, batch.size(), 0});
  awaiting_consume_ = true;
  return batch;
}

void FrontierRefineStrategy::consume(const std::vector<DsePoint>& evaluated,
                                     size_t fresh_evaluations) {
  awaiting_consume_ = false;
  rung_stats_.back().evaluated = fresh_evaluations;
  for (DsePoint point : evaluated) {
    point.rung = round_;
    results_.push_back(std::move(point));
  }
  ++round_;
  if (round_ > refine_rounds_) done_ = true;
}

std::vector<DsePoint> FrontierRefineStrategy::finish() {
  return std::move(results_);
}

}  // namespace simphony::core
