#include "core/mapper.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "util/arena.h"
#include "util/thread_pool.h"

namespace simphony::core {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

/// Throws when any layer has no feasible sub-arch, aggregating *every*
/// stuck layer's per-sub-arch diagnostics into one message — a model with
/// several unmappable layers reports them all at once instead of only the
/// first one found.  Allocation-free on the happy path (it sits on the
/// per-design-point critical path of every search strategy).
void require_mappable(const MappingProblem& problem) {
  const CostMatrix& costs = *problem.costs;
  std::string message;
  for (size_t g = 0; g < costs.num_gemms(); ++g) {
    const std::uint8_t* feasible = costs.feasible_row(g);
    bool any = false;
    for (size_t s = 0; s < costs.num_subarchs() && !any; ++s) {
      any = feasible[s] != 0;
    }
    if (any) continue;
    if (!message.empty()) message += "\n";
    message += "no sub-architecture can run GEMM '" +
               (*problem.gemms)[g].name + "' (layer " + std::to_string(g) +
               ")";
    for (size_t s = 0; s < costs.num_subarchs(); ++s) {
      message += "; sub-arch " + std::to_string(s) + ": " +
                 costs.at(g, s).error;
    }
  }
  if (!message.empty()) throw std::invalid_argument(message);
}

void require_costs(const MappingProblem& problem, const char* who) {
  if (problem.gemms == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                " needs a MappingProblem with gemms");
  }
  if (problem.costs == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                " needs a MappingProblem with a cost matrix");
  }
}

Mapping finalize(const ObjectiveSpec& objective,
                 std::vector<size_t> assignment, double energy_pJ,
                 double latency_ns) {
  Mapping mapping;
  mapping.assignment = std::move(assignment);
  mapping.predicted_energy_pJ = energy_pJ;
  mapping.predicted_latency_ns = latency_ns;
  mapping.predicted_cost = objective.mapper_score(energy_pJ, latency_ns);
  return mapping;
}

/// All search strategies share the compatibility gate: a spec that cannot
/// give a sound scalar mapping score (lexicographic tuples, power,
/// weighted edap — see ObjectiveSpec::mapper_compatible) is rejected at
/// construction, before any cost matrix is built.
ObjectiveSpec require_mapper_spec(ObjectiveSpec objective, const char* who) {
  std::string why;
  if (!objective.mapper_compatible(&why)) {
    throw std::invalid_argument(std::string(who) + ": objective '" +
                                objective.text() + "' cannot drive a "
                                "mapping search: " + why);
  }
  return objective;
}

}  // namespace

// ------------------------------------------------------------- CostMatrix

CostMatrix::CostMatrix(size_t num_gemms, size_t num_subarchs)
    : num_gemms_(num_gemms),
      num_subarchs_(num_subarchs),
      entries_(num_gemms * num_subarchs),
      feasible_(num_gemms * num_subarchs, 0),
      energy_pJ_(num_gemms * num_subarchs, kInfeasible),
      latency_ns_(num_gemms * num_subarchs, kInfeasible) {}

const CostMatrix::Entry& CostMatrix::at(size_t gemm, size_t subarch) const {
  if (gemm >= num_gemms_ || subarch >= num_subarchs_) {
    throw std::out_of_range("CostMatrix::at(" + std::to_string(gemm) + ", " +
                            std::to_string(subarch) + ") out of range");
  }
  static const Entry empty;
  const auto& entry = entries_[gemm * num_subarchs_ + subarch];
  return entry != nullptr ? *entry : empty;
}

void CostMatrix::set_soa(size_t index, const Entry& entry) {
  feasible_[index] = entry.feasible ? 1 : 0;
  // The scalar objective terms are extracted once at store time (the
  // search loops would otherwise re-sum the energy breakdown per read).
  energy_pJ_[index] = entry.feasible ? entry.report.energy_pJ() : kInfeasible;
  latency_ns_[index] =
      entry.feasible ? entry.report.runtime_ns() : kInfeasible;
}

void CostMatrix::set(size_t gemm, size_t subarch, Entry entry) {
  set(gemm, subarch,
      std::make_shared<const Entry>(std::move(entry)));
}

void CostMatrix::set(size_t gemm, size_t subarch,
                     std::shared_ptr<const Entry> entry) {
  if (gemm >= num_gemms_ || subarch >= num_subarchs_) {
    throw std::out_of_range("CostMatrix::set(" + std::to_string(gemm) + ", " +
                            std::to_string(subarch) + ") out of range");
  }
  const size_t index = gemm * num_subarchs_ + subarch;
  set_soa(index, *entry);
  entries_[index] = std::move(entry);
}

std::vector<size_t> CostMatrix::feasible_subarchs(size_t gemm) const {
  if (gemm >= num_gemms_) {
    throw std::out_of_range("CostMatrix::feasible_subarchs(" +
                            std::to_string(gemm) + ") out of range");
  }
  std::vector<size_t> out;
  const std::uint8_t* row = feasible_row(gemm);
  for (size_t s = 0; s < num_subarchs_; ++s) {
    if (row[s] != 0) out.push_back(s);
  }
  return out;
}

// -------------------------------------------------------- CostMatrixCache

std::shared_ptr<const CostMatrix::Entry> CostMatrixCache::find(
    const Key& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

std::shared_ptr<const CostMatrix::Entry> CostMatrixCache::find_or_claim(
    const Key& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      return it->second;
    }
    if (claimed_.insert(key).second) {
      ++stats_.misses;
      return nullptr;
    }
    settled_.wait(lock);
  }
}

void CostMatrixCache::release(const Key& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (claimed_.erase(key) == 0) return;
  }
  settled_.notify_all();
}

std::shared_ptr<const CostMatrix::Entry> CostMatrixCache::insert(
    const Key& key, CostMatrix::Entry entry) {
  auto stored = std::make_shared<const CostMatrix::Entry>(std::move(entry));
  std::shared_ptr<const CostMatrix::Entry> result;
  bool was_claimed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // First writer wins: concurrent writers of one key carry
    // bit-identical entries (same key => same simulation inputs), so
    // which one lands is immaterial for determinism.
    result = entries_.try_emplace(key, std::move(stored)).first->second;
    was_claimed = claimed_.erase(key) > 0;
  }
  if (was_claimed) settled_.notify_all();
  return result;
}

CostMatrixCache::Stats CostMatrixCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t CostMatrixCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void CostMatrixCache::clear() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    stats_ = Stats{};
  }
  operand_power_.clear();
}

// ----------------------------------------------------------------- Mapper

std::vector<std::string> Mapper::validate(const arch::Architecture&) const {
  return {};
}

// ------------------------------------------------------------- RuleMapper

RuleMapper::RuleMapper(MappingConfig config) : config_(std::move(config)) {}

std::vector<std::string> RuleMapper::validate(
    const arch::Architecture& architecture) const {
  return config_.validate(architecture);
}

Mapping RuleMapper::map(const MappingProblem& problem) const {
  if (problem.gemms == nullptr) {
    throw std::invalid_argument(
        "RuleMapper needs a MappingProblem with gemms");
  }
  Mapping mapping;
  mapping.assignment.reserve(problem.gemms->size());
  for (const auto& gemm : *problem.gemms) {
    mapping.assignment.push_back(config_.resolve(gemm));
  }
  return mapping;  // no costs consulted: predictions stay 0
}

// ----------------------------------------------------------- GreedyMapper

GreedyMapper::GreedyMapper(ObjectiveSpec objective)
    : objective_(require_mapper_spec(std::move(objective), "GreedyMapper")) {}

Mapping GreedyMapper::map(const MappingProblem& problem) const {
  require_costs(problem, "GreedyMapper");
  require_mappable(problem);
  const CostMatrix& costs = *problem.costs;

  const size_t S = costs.num_subarchs();
  std::vector<size_t> assignment;
  assignment.reserve(costs.num_gemms());
  double energy = 0.0;
  double latency = 0.0;
  for (size_t g = 0; g < costs.num_gemms(); ++g) {
    const std::uint8_t* feasible = costs.feasible_row(g);
    const double* row_energy = costs.energy_row(g);
    const double* row_latency = costs.latency_row(g);
    size_t best = S;
    double best_cost = kInfeasible;
    for (size_t s = 0; s < S; ++s) {
      if (feasible[s] == 0) continue;
      const double c = objective_.mapper_score(row_energy[s], row_latency[s]);
      if (c < best_cost) {
        best_cost = c;
        best = s;
      }
    }
    // require_mappable guarantees a feasible sub-arch per layer.
    energy += row_energy[best];
    latency += row_latency[best];
    assignment.push_back(best);
  }
  return finalize(objective_, std::move(assignment), energy, latency);
}

// ------------------------------------------------------------- BeamMapper

namespace {

/// One expansion of a beam state by one sub-arch choice.  `valid` is false
/// for infeasible pairs.  Trivially destructible by design: candidate
/// buffers live in the thread-local scratch arena.
struct Candidate {
  bool valid = false;
  size_t state = 0;    // row index into the previous beam
  size_t subarch = 0;  // the appended choice
  double energy_pJ = 0.0;
  double latency_ns = 0.0;
  double score = kInfeasible;
};

/// Strict total order: score, then the candidate's full assignment
/// (prefix, then appended sub-arch) lexicographically.  Prefixes are rows
/// of `stride` elements in the flat beam-assignment array, all
/// `prefix_len` long at a given layer.  Distinct candidates always differ
/// in assignment, so the order — and therefore the pruned beam — is
/// unique regardless of evaluation or sort order.
bool candidate_less(const Candidate& a, const Candidate& b,
                    const size_t* assignments, size_t prefix_len,
                    size_t stride) {
  if (a.score != b.score) return a.score < b.score;
  const size_t* pa = assignments + a.state * stride;
  const size_t* pb = assignments + b.state * stride;
  for (size_t i = 0; i < prefix_len; ++i) {
    if (pa[i] != pb[i]) return pa[i] < pb[i];
  }
  return a.subarch < b.subarch;
}

}  // namespace

BeamMapper::BeamMapper(size_t width, ObjectiveSpec objective, int num_threads)
    : width_(width),
      objective_(require_mapper_spec(std::move(objective), "BeamMapper")),
      num_threads_(num_threads) {
  if (width_ == 0) {
    throw std::invalid_argument("BeamMapper width must be >= 1");
  }
  if (num_threads_ < 0) {
    throw std::invalid_argument("BeamMapper num_threads must be >= 0");
  }
}

Mapping BeamMapper::map(const MappingProblem& problem) const {
  require_costs(problem, "BeamMapper");
  require_mappable(problem);
  const CostMatrix& costs = *problem.costs;
  const size_t n = costs.num_gemms();
  const size_t S = costs.num_subarchs();

  // Engine-wide thread-count convention (0 = one worker per hardware
  // thread, 1 = serial inline execution); never more workers than beam
  // states to expand.
  util::ThreadPool pool(util::ThreadPool::workers_for(num_threads_, width_));

  // The whole search state lives in the thread-local scratch arena as flat
  // rows — beam assignments are `width_` rows of `n` slots, so a layer
  // transition is pointer swaps plus row copies, with zero steady-state
  // heap traffic.  Nothing allocated here escapes the scope: the winning
  // row is copied into the Mapping before return.
  util::Arena& arena = util::thread_scratch();
  util::ArenaScope scope(arena);
  size_t* cur_assign = arena.allocate_array<size_t>(width_ * n);
  size_t* next_assign = arena.allocate_array<size_t>(width_ * n);
  double* cur_energy = arena.allocate_array<double>(width_);
  double* cur_latency = arena.allocate_array<double>(width_);
  double* next_energy = arena.allocate_array<double>(width_);
  double* next_latency = arena.allocate_array<double>(width_);
  Candidate* candidates = arena.allocate_array<Candidate>(width_ * S);
  size_t* order = arena.allocate_array<size_t>(width_ * S);

  size_t beam_size = 1;  // the empty prefix
  cur_energy[0] = 0.0;
  cur_latency[0] = 0.0;

  for (size_t g = 0; g < n; ++g) {
    const std::uint8_t* feasible = costs.feasible_row(g);
    const double* row_energy = costs.energy_row(g);
    const double* row_latency = costs.latency_row(g);

    // Expand every beam state by every sub-arch choice.  Each state owns
    // an indexed slot range of the candidate array (every slot written,
    // valid or not), so the array contents are identical for any thread
    // count; scoring a pair is pure arithmetic on the SoA cost rows.
    pool.parallel_for(beam_size, [&](size_t b) {
      for (size_t s = 0; s < S; ++s) {
        Candidate& cand = candidates[b * S + s];
        if (feasible[s] == 0) {
          cand = Candidate{};
          continue;
        }
        cand.valid = true;
        cand.state = b;
        cand.subarch = s;
        cand.energy_pJ = cur_energy[b] + row_energy[s];
        cand.latency_ns = cur_latency[b] + row_latency[s];
        cand.score = objective_.mapper_score(cand.energy_pJ, cand.latency_ns);
      }
    });

    size_t num_valid = 0;
    for (size_t i = 0; i < beam_size * S; ++i) {
      if (candidates[i].valid) order[num_valid++] = i;
    }
    if (num_valid == 0) {
      // Unreachable: require_mappable guarantees every layer expands at
      // least one candidate from a non-empty beam.
      throw std::logic_error("BeamMapper: beam emptied at layer " +
                             std::to_string(g));
    }
    std::sort(order, order + num_valid, [&](size_t a, size_t b) {
      return candidate_less(candidates[a], candidates[b], cur_assign, g, n);
    });
    const size_t next_size = std::min(num_valid, width_);

    for (size_t r = 0; r < next_size; ++r) {
      const Candidate& cand = candidates[order[r]];
      const size_t* src = cur_assign + cand.state * n;
      size_t* dst = next_assign + r * n;
      std::copy(src, src + g, dst);
      dst[g] = cand.subarch;
      next_energy[r] = cand.energy_pJ;
      next_latency[r] = cand.latency_ns;
    }
    std::swap(cur_assign, next_assign);
    std::swap(cur_energy, next_energy);
    std::swap(cur_latency, next_latency);
    beam_size = next_size;
  }

  // The beam is sorted by (score, lexicographic assignment); row 0 is the
  // deterministic winner.  (With no GEMMs the empty prefix survives.)
  return finalize(objective_,
                  std::vector<size_t>(cur_assign, cur_assign + n),
                  cur_energy[0], cur_latency[0]);
}

// ----------------------------------------------------- BranchBoundMapper

namespace {

/// State shared by every subtree of one branch-and-bound search.
struct BnbContext {
  const CostMatrix* costs = nullptr;
  const ObjectiveSpec* objective = nullptr;
  size_t n = 0;
  size_t S = 0;
  /// suffix_min_*[g] = sum over layers k >= g of the feasible minimum of
  /// that component (suffix_min_*[n] = 0).
  std::vector<double> suffix_min_energy;
  std::vector<double> suffix_min_latency;
};

/// A full-assignment candidate: score + the totals it was scored from.
struct BnbBest {
  bool valid = false;
  double score = kInfeasible;
  double energy_pJ = 0.0;
  double latency_ns = 0.0;
  std::vector<size_t> assignment;
};

/// The ExhaustiveMapper tie-break: lower score, then lexicographically
/// smaller assignment.
bool bnb_better(double score, const std::vector<size_t>& assignment,
                const BnbBest& than) {
  if (!than.valid) return true;
  if (score != than.score) return score < than.score;
  return assignment < than.assignment;
}

/// Lower bound on the score of any completion of a prefix with sums
/// (energy, latency) at `depth`.  Latency/energy are additive, so prefix
/// + suffix-of-minima bounds the relaxation that picks each remaining
/// layer independently; for EDP the component-wise minima bound applies
/// because EDP is monotone in both totals and every completion satisfies
/// E >= E_lb and L >= L_lb.
///
/// The raw value is admissible only in real arithmetic: the suffix sums
/// accumulate right-to-left while a DFS completion sums left-to-right,
/// so non-associative floating-point addition (and the EDP product) can
/// push the computed bound a few ulps above a completion's true score.
/// The caller therefore prunes against a slightly deflated bound — see
/// bnb_safe_bound — trading ulp-marginal extra exploration for the
/// bit-for-bit ExhaustiveMapper equivalence the class guarantees.
double bnb_bound(const BnbContext& ctx, size_t depth, double energy,
                 double latency) {
  // Scoring the component-wise minima is admissible for every
  // mapper-compatible spec: each scored metric is monotone nondecreasing
  // in (E, L) (mapper_compatible rejects the ratios that are not), and
  // every completion satisfies E >= E_lb and L >= L_lb.
  return ctx.objective->mapper_score(energy + ctx.suffix_min_energy[depth],
                                     latency + ctx.suffix_min_latency[depth]);
}

/// Deflates a bound by a relative margin comfortably above the
/// accumulated rounding error of an n-term sum (or product of two such
/// sums): error <= ~(n + 2) * eps relative, margin = 1e-12 covers
/// thousands of layers.  Always moves toward -infinity, so pruning only
/// ever gets more conservative, never unsound.
double bnb_safe_bound(double bound) {
  constexpr double kSlack = 1e-12;
  return bound - std::abs(bound) * kSlack;
}

/// Lock-free monotone minimum on the shared pruning bound.  The bound only
/// ever tightens, and pruning is strict (> only), so the timing of updates
/// affects how much work is skipped but never which mapping wins.
void bnb_relax(std::atomic<double>& bound, double score) {
  double current = bound.load(std::memory_order_relaxed);
  while (score < current &&
         !bound.compare_exchange_weak(current, score,
                                      std::memory_order_relaxed)) {
  }
}

/// Serial DFS under one subtree.  `path` holds the assignment prefix;
/// prefix sums accumulate left to right, which keeps the floating-point
/// summation order identical to ExhaustiveMapper's per-candidate loop.
void bnb_dfs(const BnbContext& ctx, size_t depth, double energy,
             double latency, std::vector<size_t>& path, BnbBest& local,
             std::atomic<double>& bound, BranchBoundMapper::Stats& stats) {
  if (bnb_safe_bound(bnb_bound(ctx, depth, energy, latency)) >
      bound.load(std::memory_order_relaxed)) {
    ++stats.pruned;
    return;
  }
  ++stats.visited;  // expanded nodes only — disjoint from pruned
  if (depth == ctx.n) {
    const double score = ctx.objective->mapper_score(energy, latency);
    if (bnb_better(score, path, local)) {
      local.valid = true;
      local.score = score;
      local.energy_pJ = energy;
      local.latency_ns = latency;
      local.assignment = path;
      bnb_relax(bound, score);
    }
    return;
  }
  const std::uint8_t* feasible = ctx.costs->feasible_row(depth);
  const double* row_energy = ctx.costs->energy_row(depth);
  const double* row_latency = ctx.costs->latency_row(depth);
  for (size_t s = 0; s < ctx.S; ++s) {
    if (feasible[s] == 0) continue;
    path.push_back(s);
    bnb_dfs(ctx, depth + 1, energy + row_energy[s], latency + row_latency[s],
            path, local, bound, stats);
    path.pop_back();
  }
}

}  // namespace

BranchBoundMapper::BranchBoundMapper(ObjectiveSpec objective, int num_threads)
    : objective_(
          require_mapper_spec(std::move(objective), "BranchBoundMapper")),
      num_threads_(num_threads) {
  if (num_threads_ < 0) {
    throw std::invalid_argument(
        "BranchBoundMapper num_threads must be >= 0");
  }
}

Mapping BranchBoundMapper::map(const MappingProblem& problem) const {
  return map_counted(problem, nullptr);
}

Mapping BranchBoundMapper::map_counted(const MappingProblem& problem,
                                       Stats* stats) const {
  require_costs(problem, "BranchBoundMapper");
  require_mappable(problem);
  const CostMatrix& costs = *problem.costs;

  BnbContext ctx;
  ctx.costs = &costs;
  ctx.objective = &objective_;
  ctx.n = costs.num_gemms();
  ctx.S = costs.num_subarchs();
  ctx.suffix_min_energy.assign(ctx.n + 1, 0.0);
  ctx.suffix_min_latency.assign(ctx.n + 1, 0.0);
  for (size_t g = ctx.n; g > 0; --g) {
    const std::uint8_t* feasible = costs.feasible_row(g - 1);
    const double* row_energy = costs.energy_row(g - 1);
    const double* row_latency = costs.latency_row(g - 1);
    double min_energy = kInfeasible;
    double min_latency = kInfeasible;
    for (size_t s = 0; s < ctx.S; ++s) {
      if (feasible[s] == 0) continue;
      min_energy = std::min(min_energy, row_energy[s]);
      min_latency = std::min(min_latency, row_latency[s]);
    }
    ctx.suffix_min_energy[g - 1] = min_energy + ctx.suffix_min_energy[g];
    ctx.suffix_min_latency[g - 1] = min_latency + ctx.suffix_min_latency[g];
  }

  Stats local_stats;
  local_stats.total_assignments =
      std::pow(static_cast<double>(ctx.S), static_cast<double>(ctx.n));

  // Incumbent seed: GreedyMapper's per-layer argmin (optimal for
  // additive objectives, a strong start for EDP) — reused outright so
  // its tie-break and left-to-right summation order can never drift
  // from the pruning argument that relies on them.  The seed's score
  // enters the shared pruning bound; the assignment itself joins the
  // final reduction, though the DFS always re-finds it (no ancestor of
  // an incumbent-score leaf can exceed the bound, and pruning is
  // strict).
  BnbBest seed;
  {
    Mapping greedy = GreedyMapper(objective_).map(problem);
    seed.valid = true;
    seed.score = greedy.predicted_cost;
    seed.energy_pJ = greedy.predicted_energy_pJ;
    seed.latency_ns = greedy.predicted_latency_ns;
    seed.assignment = std::move(greedy.assignment);
  }
  std::atomic<double> bound{seed.score};

  // Engine-wide thread-count convention (0 = one worker per hardware
  // thread; workers_for returns 0 — inline — for a serial request).
  const unsigned pool_threads = util::ThreadPool::workers_for(
      num_threads_, std::numeric_limits<size_t>::max());

  BnbBest winner = seed;
  if (pool_threads == 0 || ctx.n == 0) {
    BnbBest local;
    std::vector<size_t> path;
    path.reserve(ctx.n);
    bnb_dfs(ctx, 0, 0.0, 0.0, path, local, bound, local_stats);
    if (local.valid &&
        bnb_better(local.score, local.assignment, winner)) {
      winner = std::move(local);
    }
  } else {
    // Split the tree at a fixed small depth into its lex-ordered feasible
    // prefixes; each prefix's subtree runs as one pool task.  Workers
    // share only the monotone pruning bound, so each subtree's winner is
    // independent of scheduling, and the reduction below is a pure
    // (score, lexicographic) fold — bit-identical for any thread count.
    size_t depth = 0;
    size_t width = 1;
    while (depth < ctx.n && width < 4 * static_cast<size_t>(pool_threads) &&
           width <= 4096 / std::max<size_t>(ctx.S, 1)) {
      ++depth;
      width *= ctx.S;
    }
    struct SubtreeRoot {
      std::vector<size_t> path;
      double energy_pJ = 0.0;
      double latency_ns = 0.0;
    };
    std::vector<SubtreeRoot> roots;
    {
      SubtreeRoot root;
      std::vector<SubtreeRoot> frontier{root};
      for (size_t level = 0; level < depth; ++level) {
        const std::uint8_t* feasible = costs.feasible_row(level);
        const double* row_energy = costs.energy_row(level);
        const double* row_latency = costs.latency_row(level);
        std::vector<SubtreeRoot> next;
        next.reserve(frontier.size() * ctx.S);
        for (const SubtreeRoot& r : frontier) {
          for (size_t s = 0; s < ctx.S; ++s) {
            if (feasible[s] == 0) continue;
            SubtreeRoot child;
            child.path = r.path;
            child.path.push_back(s);
            child.energy_pJ = r.energy_pJ + row_energy[s];
            child.latency_ns = r.latency_ns + row_latency[s];
            next.push_back(std::move(child));
          }
        }
        frontier = std::move(next);
      }
      roots = std::move(frontier);
    }

    // One chunked parallel_for over the subtree roots (the caller
    // participates; participants steal chunks of roots as their own run
    // dry).  Each root writes only its own indexed slots, so the reduction
    // below sees the same per-root winners for any thread count.
    std::vector<BnbBest> locals(roots.size());
    std::vector<Stats> task_stats(roots.size());
    util::ThreadPool pool(pool_threads);
    pool.parallel_for(roots.size(), [&](size_t r) {
      std::vector<size_t> path = roots[r].path;
      path.reserve(ctx.n);
      bnb_dfs(ctx, depth, roots[r].energy_pJ, roots[r].latency_ns, path,
              locals[r], bound, task_stats[r]);
    });

    for (size_t r = 0; r < roots.size(); ++r) {
      local_stats.visited += task_stats[r].visited;
      local_stats.pruned += task_stats[r].pruned;
      if (locals[r].valid &&
          bnb_better(locals[r].score, locals[r].assignment, winner)) {
        winner = std::move(locals[r]);
      }
    }
  }

  if (stats != nullptr) *stats = local_stats;
  return finalize(objective_, std::move(winner.assignment),
                  winner.energy_pJ, winner.latency_ns);
}

// ------------------------------------------------------ ExhaustiveMapper

ExhaustiveMapper::ExhaustiveMapper(ObjectiveSpec objective)
    : objective_(
          require_mapper_spec(std::move(objective), "ExhaustiveMapper")) {}

Mapping ExhaustiveMapper::map(const MappingProblem& problem) const {
  require_costs(problem, "ExhaustiveMapper");
  const CostMatrix& costs = *problem.costs;
  const size_t n = costs.num_gemms();
  const size_t S = costs.num_subarchs();

  constexpr size_t kMaxCandidates = size_t{1} << 20;
  double total = 1.0;
  for (size_t g = 0; g < n; ++g) total *= static_cast<double>(S);
  if (total > static_cast<double>(kMaxCandidates)) {
    throw std::invalid_argument(
        "ExhaustiveMapper: " + std::to_string(S) + "^" + std::to_string(n) +
        " candidate assignments exceed the enumeration limit; use "
        "BeamMapper");
  }

  // Every GEMM must be runnable somewhere, otherwise no assignment is
  // feasible; report every stuck layer with per-sub-arch diagnostics.
  require_mappable(problem);

  // Mixed-radix counter with the last GEMM as the least significant digit:
  // enumeration order is lexicographic, so keeping the first strictly
  // better assignment yields the lexicographically smallest optimum — the
  // same tie-break BeamMapper uses.
  std::vector<size_t> digits(n, 0);
  std::vector<size_t> best_assignment;
  double best_score = kInfeasible;
  double best_energy = 0.0;
  double best_latency = 0.0;
  bool done = n == 0;
  while (!done) {
    double energy = 0.0;
    double latency = 0.0;
    bool feasible = true;
    for (size_t g = 0; g < n && feasible; ++g) {
      const size_t s = digits[g];
      if (costs.feasible_row(g)[s] == 0) {
        feasible = false;
        break;
      }
      energy += costs.energy_row(g)[s];
      latency += costs.latency_row(g)[s];
    }
    if (feasible) {
      const double score = objective_.mapper_score(energy, latency);
      if (score < best_score) {
        best_score = score;
        best_assignment = digits;
        best_energy = energy;
        best_latency = latency;
      }
    }

    size_t pos = n;
    while (pos > 0) {
      --pos;
      if (++digits[pos] < S) break;
      digits[pos] = 0;
      if (pos == 0) done = true;
    }
  }

  return finalize(objective_, std::move(best_assignment), best_energy,
                  best_latency);
}

}  // namespace simphony::core
