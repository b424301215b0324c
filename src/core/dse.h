// Automated design-space exploration (the paper's stated extension:
// "SimPhony can be extended to enable automated design space exploration
// that combines the strengths of different photonic computing
// architectures").
//
// Searches ArchParams over user-supplied axes, simulates the workload
// at every point, and extracts the Pareto frontier in
// (energy, latency, area).
//
// The engine is parallel: the point list is enumerated (or sampled) up
// front, points are evaluated on a util::ThreadPool with indexed result
// writes (the output order is the canonical point order, independent of
// thread count and bit-identical to a serial run), per-point invariants
// (PTC template, device library, extracted GEMMs) are shared immutably
// across workers, and duplicate parameter points — collapsed axes,
// repeated sweep values — are evaluated once through an ArchParams-keyed
// memo cache.
//
// The engine also scales beyond one process: DseOptions::shard
// deterministically partitions the point list so N processes each
// evaluate a disjoint slice, DsePoint/DseResult serialize to JSON
// (util/json.h) so shards can be written to disk, and merge() recombines
// shard results into the canonical order with a recomputed frontier.
#pragma once

#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "arch/node.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/simulator.h"
#include "core/workload_set.h"
#include "util/json.h"
#include "workload/model.h"

namespace simphony::core {

/// The sweep axes; empty vectors keep the base value.
struct DseSpace {
  std::vector<int> tiles;
  std::vector<int> cores_per_tile;
  std::vector<int> core_sizes;   // H (and W while core_widths is empty);
                                 // empty keeps base H and W (which may be
                                 // non-square)
  std::vector<int> core_widths;  // W, decoupled from H so non-square cores
                                 // become reachable; empty makes core_sizes
                                 // (or base) drive W as before
  std::vector<int> wavelengths;
  std::vector<int> input_bits;   // swept values set input AND weight bits;
                                 // empty keeps base input/weight bits
                                 // (which may differ from each other)
  std::vector<int> output_bits;  // ADC resolution; empty keeps each
                                 // layer's own output bits (params.output_bits
                                 // then merely echoes base)
  arch::ArchParams base;

  /// The swept parameter points in grid order (tiles outermost, then
  /// cores, sizes, widths, wavelengths, bits; output bits innermost) —
  /// the order of DseResult.points.  Throws std::invalid_argument on
  /// non-positive core_sizes, core_widths, input_bits, or output_bits
  /// values.
  [[nodiscard]] std::vector<arch::ArchParams> enumerate() const;

  /// Number of grid points enumerate() would produce (product of the
  /// resolved axis sizes) without materializing them.  Validates axis
  /// values like enumerate().
  [[nodiscard]] size_t size() const;
};

/// Deterministic 1-of-N partition of the point list: shard {i, n}
/// evaluates exactly the points whose canonical index g satisfies
/// g % n == i.  The default {0, 1} is the whole space.
struct DseShard {
  int index = 0;
  int count = 1;
};

/// Strategy producing the ordered list of parameter points explore()
/// evaluates.  The position of a point in this list is its canonical
/// index (DsePoint::index), which sharding partitions on and merge()
/// restores order by.
class DseSampler {
 public:
  virtual ~DseSampler() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::vector<arch::ArchParams> sample(
      const DseSpace& space) const = 0;
};

/// `samples` points drawn uniformly and independently per axis from a
/// seeded util::Rng — reproducible run-to-run for a given seed, for
/// spaces too large to enumerate.
class RandomSampler final : public DseSampler {
 public:
  explicit RandomSampler(size_t samples, uint64_t seed = 1)
      : samples_(samples), seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] std::vector<arch::ArchParams> sample(
      const DseSpace& space) const override;

 private:
  size_t samples_;
  uint64_t seed_;
};

/// Latin-hypercube design over the axes: each axis's value list is
/// stratified into `samples` bins and the bins are permuted independently
/// per axis (seeded Fisher–Yates), so every axis is covered near-uniformly
/// even when `samples` is far below the grid size.  Reproducible for a
/// given seed.
class LatinHypercubeSampler final : public DseSampler {
 public:
  explicit LatinHypercubeSampler(size_t samples, uint64_t seed = 1)
      : samples_(samples), seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "lhs"; }
  [[nodiscard]] std::vector<arch::ArchParams> sample(
      const DseSpace& space) const override;

 private:
  size_t samples_;
  uint64_t seed_;
};

struct DsePoint;     // defined below
class ExploreStrategy;  // core/strategy.h

/// Evaluation fidelity of one candidate evaluation.  kFull is the
/// ordinary evaluation under DseOptions::mapper; kLow substitutes
/// DseOptions::low_fidelity_mapper (falling back to the full mapper when
/// none is set), trading mapping quality for speed.  Only the
/// strategy-driven engine (DseOptions::strategy) ever requests kLow.
enum class FidelityLevel { kLow, kFull };

/// Hash over every ArchParams field the engine's duplicate-point memo
/// keys on (all nine parameters, clock included) — shared by the
/// samplers, the evaluation memo, and the strategies' seen-point sets.
struct ArchParamsHash {
  [[nodiscard]] size_t operator()(const arch::ArchParams& p) const;
};

/// Progress snapshot handed to DseOptions::on_progress: the generic
/// Progress counters (monotone `completed` under one mutex, shard-local
/// `total`) plus the point that just completed.  Consecutive callbacks
/// always see strictly increasing `completed` values (1, 2, ..., total
/// under progress_every = 1) even though points complete in a
/// nondeterministic order across workers.
struct DseProgress : Progress {
  const DsePoint* point = nullptr;  // the point that just completed
};

/// Knobs for the exploration engine.  The inherited CommonOptions block
/// (core/options.h) carries num_threads (worker threads evaluating
/// design points), cost_cache (cross-point cost-matrix memoization — see
/// the field's doc in CommonOptions; only consulted when `mapper` needs
/// costs), progress_every, and the generic on_progress observer.
struct DseOptions : CommonOptions {
  /// Memoize evaluations by ArchParams so duplicate grid points (collapsed
  /// axes, repeated sweep values) are simulated once.
  bool cache = true;

  /// Richer, DSE-typed progress observer; deliberately shadows
  /// CommonOptions::on_progress (the generic hook serves callers like
  /// core::Engine that need no DsePoint payload).  Both fire — at the
  /// same milestones — when both are set.  Milestones follow
  /// CommonOptions::progress_every: every Nth completion plus exactly
  /// one final callback at completed == total for a non-empty shard.
  /// The *point* passed at a milestone is whichever one completed
  /// there, which is nondeterministic under num_threads > 1.
  std::function<void(const DseProgress&)> on_progress;

  /// How the per-model metrics of a WorkloadSet explore() fold into the
  /// design point's objective metrics (energy, latency, MACs):
  /// sum | max | weighted (WorkloadSet entry weights).  Area is always
  /// the per-model max — one chip must fit the largest per-model memory
  /// sizing — and kMax reports per-model worst-case power / TOPS (see
  /// BatchReport::Totals).  Ignored by the single-model overloads.
  BatchAggregate aggregate = BatchAggregate::kSum;

  /// Optional mapping strategy: each design point is costed under the
  /// mapping this strategy picks for it (layer-to-sub-arch search per
  /// point) instead of the fixed route-everything-to-sub-arch-0 default.
  /// Most useful with the multi-template explore() overload, where every
  /// point materializes one sub-architecture per template.  Not owned;
  /// must be thread-safe (Mapper::map is const) and outlive the call.
  /// Prefer serial mappers (e.g. BeamMapper's default num_threads = 1)
  /// so pool workers are not oversubscribed.
  const Mapper* mapper = nullptr;

  /// Optional point-list strategy (random / Latin-hypercube sampling for
  /// spaces too large to enumerate).  Not owned; must outlive the call.
  /// No sampler = the grid (DseSpace::enumerate() order).
  const DseSampler* sampler = nullptr;

  /// Which 1-of-N slice of the point list this process evaluates.  The
  /// returned points keep their canonical DsePoint::index, and the
  /// shard-local Pareto flags are provisional until merge() recomputes
  /// them over all shards.  Throws std::invalid_argument from explore()
  /// when count < 1 or index is outside [0, count).
  DseShard shard;

  /// Resume support: canonical point indices already evaluated (e.g.
  /// recovered from an interrupted --out shard file), excluded from this
  /// run's slice.  The surviving points keep their canonical indices, so
  /// merge()-ing the recovered points with this run's result reproduces
  /// the uninterrupted sweep bit for bit.  Skipped indices count as
  /// completed up front in the progress observers, so a resumed sweep
  /// reports its true position instead of restarting from zero.  Not
  /// owned; nullptr skips nothing.
  const std::unordered_set<size_t>* skip_indices = nullptr;

  /// Optional exploration strategy (core/strategy.h): the schedule the
  /// engine's one propose-evaluate-consume driver follows (successive
  /// halving, frontier refinement, ...).  nullptr runs a local
  /// OneShotStrategy — every slice point at full fidelity in one batch.
  /// Strategies are stateful and single-use — construct a fresh one per
  /// explore() call.  Not owned.
  ExploreStrategy* strategy = nullptr;

  /// The cheap evaluator behind FidelityLevel::kLow — typically a
  /// GreedyMapper sharing the full mapper's objective.  Low-fidelity
  /// candidates are costed under this mapper instead of `mapper`; nullptr
  /// makes kLow fall back to `mapper` (adaptive strategies stay correct
  /// but save nothing).  Not owned; must be thread-safe and outlive the
  /// call, like `mapper`.
  const Mapper* low_fidelity_mapper = nullptr;

  /// What the sweep optimizes for (core/metrics.h): decides the Pareto
  /// axes the frontier is marked over and which derived metrics are
  /// computed per point (p99_latency is evaluated — and serialized — only
  /// when the spec references it).  The default canned "edp" spec keeps
  /// every legacy document byte-identical.  Note this does NOT configure
  /// the mapping search — construct `mapper` with the same spec for that.
  ObjectiveSpec objective;
};

/// Per-model metrics of one batched design point (the WorkloadSet
/// explore() overloads); identical to what a single-model explore of that
/// model would have produced at the same point.
struct DseModelMetrics {
  std::string model;   // WorkloadSet entry name
  double weight = 1.0; // the entry's kWeighted coefficient
  double energy_pJ = 0.0;
  double latency_ns = 0.0;
  double area_mm2 = 0.0;
  double power_W = 0.0;
  double tops = 0.0;
};

struct DsePoint {
  /// Canonical position in the full (unsharded) point list: the grid
  /// index for grid exploration, the sample index for sampled runs.
  /// merge() restores canonical order by sorting on it.
  size_t index = 0;

  arch::ArchParams params;
  double energy_pJ = 0.0;
  double latency_ns = 0.0;
  double area_mm2 = 0.0;
  double power_W = 0.0;
  double tops = 0.0;
  bool pareto = false;

  /// Strategy provenance: the rung (core/strategy.h) this point's metrics
  /// were produced at, or -1 for one-shot exploration.  Serialized as
  /// "rung" only when >= 0, keeping one-shot documents byte-identical to
  /// pre-strategy files.
  int rung = -1;

  /// Batched exploration only: the per-model rows behind the aggregate
  /// metrics above, in WorkloadSet order.  Empty for single-model
  /// exploration; serialized as a "models" array in JSON when non-empty.
  std::vector<DseModelMetrics> per_model;

  /// M/G/1-approximated tail latency (core/metrics.h p99_latency_ns over
  /// the per-model mix; the single-stream formula for single-model
  /// points).  NaN — and omitted from JSON — unless the sweep's
  /// DseOptions::objective references Metric::kP99Latency, keeping every
  /// legacy document byte-identical.
  double p99_latency_ns = std::numeric_limits<double>::quiet_NaN();

  /// Scalarized figure of merit: energy-delay-area product (lower better).
  [[nodiscard]] double edap() const {
    return energy_pJ * latency_ns * area_mm2;
  }

  /// One metric slot of this point (the MetricVector view without
  /// materializing it); derived slots use the legacy associations
  /// (edp = E*L, edap = E*L*A).
  [[nodiscard]] double metric(Metric m) const;

  /// The point's full MetricVector.
  [[nodiscard]] MetricVector metrics() const;
};

struct DseResult {
  std::vector<DsePoint> points;

  /// Points flagged on the Pareto frontier.
  [[nodiscard]] std::vector<DsePoint> frontier() const;

  /// The minimum-EDAP point; throws std::runtime_error if empty.
  [[nodiscard]] const DsePoint& best_edap() const;
};

/// Sets the `pareto` flag of every point that is non-dominated over
/// `axes` (pareto_axes of the sweep's objective; by default the
/// (energy_pJ, latency_ns, area_mm2) triple), minimizing every axis.  A
/// sort-then-filter skyline: points with a non-finite value on any axis
/// are never on the frontier, the rest are sorted lexicographically on
/// the axes, and each run of identical tuples is marked dominated iff an
/// already-accepted frontier point is <= it on every axis — O(n log n +
/// n * |frontier|).  Identical tuples share one verdict.  Throws
/// std::invalid_argument on an empty axis list.
void mark_pareto_frontier(std::vector<DsePoint>& points,
                          const std::vector<Metric>& axes = {
                              Metric::kEnergy, Metric::kLatency,
                              Metric::kArea});

/// Recombines shard results: concatenates all points, restores canonical
/// order by DsePoint::index, and re-runs mark_pareto_frontier over the
/// union with `axes` (the sweep's pareto_axes).  The frontier depends
/// only on the set of tuples, so merging every shard of an explore()
/// yields a result bit-identical to the unsharded run.  Throws
/// std::invalid_argument when two points carry the same index
/// (overlapping shards).
[[nodiscard]] DseResult merge(std::vector<DseResult> shards,
                              const std::vector<Metric>& axes = {
                                  Metric::kEnergy, Metric::kLatency,
                                  Metric::kArea});

/// Streams completed DsePoints to an output stream as a canonical shard
/// document (the format `--out` writes and `--merge` reads):
///
///   {"arch": ..., "model": ..., "sampler": ..., "shard": {...},
///    "total_points": N, "points": [ <point>, ... ]}
///
/// The constructor and every add_point() terminate the document and
/// flush before seeking the put pointer back over the footer — so the
/// stream holds a complete, parseable document from the moment the
/// writer exists (a zero-point shard while the first point simulates),
/// and a sweep killed between writes leaves a recoverable shard file
/// (see tests/test_dse_stream.cpp).  Points stand in completion order
/// until finish(), which publishes them sorted by canonical index.  The
/// stream must support seekp/tellp (files and stringstreams do).
/// Byte sink behind DseShardWriter.  The writer's footer trick needs
/// random access (seek back over the footer before the next point), so
/// the interface is a seekable text sink rather than a pure appender.
/// flush() is the durability point; commit() finalizes (atomic rename
/// for file-backed sinks, no-op otherwise).  Implementations report
/// failures as util::IoError carrying the file name and byte offset.
class ShardSink {
 public:
  virtual ~ShardSink() = default;
  virtual void write(const std::string& text) = 0;
  [[nodiscard]] virtual uint64_t tell() = 0;
  virtual void seek(uint64_t pos) = 0;
  virtual void flush() = 0;
  virtual void commit() {}
};

class DseShardWriter {
 public:
  /// The sweep header: which sweep a document belongs to.  core::Engine
  /// computes it once per explore; from_json is its one parser and
  /// require_same_sweep the one check behind --resume and --merge.
  struct Metadata {
    std::string arch;
    std::string model;
    std::string sampler = "grid";
    /// Batched sweeps record their BatchAggregate mode ("sum" | "max" |
    /// "weighted") so --merge can reproduce the unsharded document;
    /// empty (single-model sweeps) omits the field entirely.
    std::string aggregate;
    /// Strategy-driven sweeps record the strategy identity and knobs;
    /// empty (one-shot sweeps) omits the "strategy" header object
    /// entirely, keeping pre-strategy documents byte-identical.
    /// eta/rungs are meaningful for "halving" only, refine_rounds for
    /// "frontier" only; 0 omits the knob.
    std::string strategy;
    int eta = 0;
    int rungs = 0;
    int refine_rounds = 0;
    /// Random-sampled sweeps record the sample's distinct-point count
    /// (a pure function of space/samples/seed, so identical across the
    /// shards of one sweep) so --merge reproduces the unsharded
    /// document's "distinct" field; other samplers omit it.
    size_t distinct = 0;
    bool report_distinct = false;
    /// Non-canned objective specs (core/metrics.h ObjectiveSpec::text)
    /// change point semantics (extra Pareto axes, p99 fields); empty (the
    /// canned latency/energy/edp sweeps) omits the field, keeping legacy
    /// shard documents byte-identical.
    std::string objective;
    DseShard shard;
    size_t total_points = 0;

    /// Reads the header of a shard document, a DSE --json response or a
    /// pre-sharding file: absent fields keep the defaults above, unknown
    /// ones are ignored, a mistyped one throws std::invalid_argument.
    [[nodiscard]] static Metadata from_json(const util::Json& root);

    /// Throws std::invalid_argument naming `origin`, `against` and both
    /// headers unless `other` describes the same sweep.  Every field is
    /// compared; `shard` only when `compare_shard` (--resume continues
    /// one shard, --merge combines different shards of one sweep).
    void require_same_sweep(const Metadata& other, const std::string& origin,
                            const std::string& against,
                            bool compare_shard) const;
  };

  /// Writes the document header immediately.  The stream is not owned and
  /// must outlive the writer.
  DseShardWriter(std::ostream& out, Metadata metadata);

  /// Durable file-backed writer: streams to `path + ".tmp"` with an
  /// fsync on every flushed point, and finish() atomically renames the
  /// temp file onto `path` — a kill can never leave a torn *final*
  /// document (the temp file holds the always-parseable in-progress
  /// state for --resume).  Throws util::IoError naming the file when the
  /// temp file cannot be created.
  DseShardWriter(const std::string& path, Metadata metadata);

  /// Caller-supplied sink (tests, custom transports).
  DseShardWriter(std::unique_ptr<ShardSink> sink, Metadata metadata);

  /// Appends one point (completion order; the point's canonical index
  /// travels in its "index" field) and re-terminates the document.
  void add_point(const DsePoint& point);

  /// Publishes the canonical document and commits the sink (for the
  /// file-backed writer: fsync + atomic rename onto the target path).
  /// Points that arrived out of index order are first rewritten sorted
  /// by index, so the published bytes do not depend on completion order
  /// (thread count); until then the stream — the file-backed writer's
  /// `.tmp` — keeps completion order.  Called implicitly by the
  /// destructor; add_point() afterwards throws std::logic_error.
  void finish();

  ~DseShardWriter();
  DseShardWriter(const DseShardWriter&) = delete;
  DseShardWriter& operator=(const DseShardWriter&) = delete;

 private:
  std::unique_ptr<ShardSink> sink_;
  uint64_t header_end_ = 0;
  /// (canonical index, serialized point) in arrival order; finish()
  /// publishes them sorted by index.
  std::vector<std::pair<size_t, std::string>> points_;
  bool in_index_order_ = true;
  bool finished_ = false;
};

/// What recover_shard_text() salvaged from a shard document: the input
/// of a resumed sweep (Engine::ExploreHooks::resume).
struct ShardRecovery {
  std::string origin;  // the file name recover_shard_text was given
  DseShardWriter::Metadata metadata;
  /// The valid point prefix, in file order (completion order of the
  /// interrupted run), canonical indices preserved.
  DseResult result;
  /// True when the whole document parsed cleanly (nothing torn).
  bool complete = false;
  /// Approximate byte offset where salvage stopped (0 when complete).
  size_t truncated_at = 0;
  std::string message;  // human-readable description of the damage
};

/// Salvages a DseShardWriter document, torn or not: a clean document
/// parses fully; a document cut anywhere — mid-record included — yields
/// its metadata plus the maximal valid point prefix (the writer emits
/// one point per line, so recovery is a per-line parse that stops at the
/// first torn line).  Throws std::invalid_argument — prefixed with
/// `origin` (a file name) when non-empty — only when not even the header
/// is recoverable.
[[nodiscard]] ShardRecovery recover_shard_text(const std::string& text,
                                               const std::string& origin = "");

/// DsePoint <-> JSON.  Non-finite metrics serialize as null and parse
/// back as NaN; from_json throws std::invalid_argument on missing fields
/// or type mismatches, except the fields pre-sharding files never wrote:
/// a missing "pareto" defaults to false, a missing "clock_GHz" keeps the
/// ArchParams default (and see from_json below for "index").
[[nodiscard]] util::Json to_json(const DsePoint& point);
[[nodiscard]] DsePoint dse_point_from_json(const util::Json& j);

/// DseResult <-> JSON: {"points": [...]}.  from_json also accepts a bare
/// point array, and a missing per-point "index" defaults to the array
/// position (pre-sharding files).
[[nodiscard]] util::Json to_json(const DseResult& result);
[[nodiscard]] DseResult dse_result_from_json(const util::Json& j);

/// Runs the exploration of one PTC template on one workload.
/// `progress` (optional) is invoked as points complete (see
/// DseOptions::progress_every); the points it receives carry their
/// canonical index but not the final pareto flag.  Result order is the
/// canonical point order (grid order, or the sampler's sample order)
/// regardless of thread count.
[[nodiscard]] DseResult explore(
    const arch::PtcTemplate& ptc_template, const devlib::DeviceLibrary& lib,
    const workload::Model& model, const DseSpace& space,
    const DseOptions& options,
    const std::function<void(const DsePoint&)>& progress = nullptr);

/// Back-compat overload with default options.
[[nodiscard]] DseResult explore(
    const arch::PtcTemplate& ptc_template, const devlib::DeviceLibrary& lib,
    const workload::Model& model, const DseSpace& space,
    const std::function<void(const DsePoint&)>& progress = nullptr);

/// Heterogeneous exploration: every design point materializes one
/// sub-architecture per template (all at the same ArchParams) sharing one
/// memory hierarchy, and the workload is routed across them by
/// DseOptions::mapper (sub-arch 0 carries everything when no mapper is
/// set).  Throws std::invalid_argument on an empty template list.
[[nodiscard]] DseResult explore(
    const std::vector<arch::PtcTemplate>& ptc_templates,
    const devlib::DeviceLibrary& lib, const workload::Model& model,
    const DseSpace& space, const DseOptions& options,
    const std::function<void(const DsePoint&)>& progress = nullptr);

/// The same over one WorkloadSet entry: reuses the GEMMs and fingerprints
/// the entry computed at add() instead of extracting and hashing again.
[[nodiscard]] DseResult explore(
    const std::vector<arch::PtcTemplate>& ptc_templates,
    const devlib::DeviceLibrary& lib, const WorkloadSet::Entry& workload,
    const DseSpace& space, const DseOptions& options,
    const std::function<void(const DsePoint&)>& progress = nullptr);

/// Batched multi-model exploration: every design point constructs the
/// (possibly heterogeneous) architecture and sizes its device groups
/// ONCE, then simulates every model of the set on it — the
/// serve-many-models amortization that separate per-model explore()
/// calls cannot get.  Per-model metrics land in DsePoint::per_model
/// (bit-identical to what a single-model explore of that model would
/// produce at the same point) and the point's objective metrics are the
/// DseOptions::aggregate fold over them.  The mapping search stays
/// per-model; DseOptions::cost_cache is shared across models, so
/// repeated layers across the batch are simulated once per design
/// point.  Throws std::invalid_argument on an empty set.
[[nodiscard]] DseResult explore(
    const std::vector<arch::PtcTemplate>& ptc_templates,
    const devlib::DeviceLibrary& lib, const WorkloadSet& workloads,
    const DseSpace& space, const DseOptions& options,
    const std::function<void(const DsePoint&)>& progress = nullptr);

/// Single-template convenience overload of the batched exploration.
[[nodiscard]] DseResult explore(
    const arch::PtcTemplate& ptc_template, const devlib::DeviceLibrary& lib,
    const WorkloadSet& workloads, const DseSpace& space,
    const DseOptions& options,
    const std::function<void(const DsePoint&)>& progress = nullptr);

}  // namespace simphony::core
