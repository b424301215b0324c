// The metric/objective subsystem: one vocabulary of "what is an
// objective" shared by the mapper (core/mapper.h), the DSE engine
// (core/dse.h), the exploration strategies (core/strategy.h), the
// service facade (core/engine.h), and the CLI/server surface:
//
//   * BatchAggregate (sum|max|weighted) and fold_batch() — the one
//     batch-totals fold shared by BatchReport::totals and the DSE batch
//     evaluator.
//   * Metric / MetricVector — named, ordered double slots (energy,
//     latency, area, power, edp, edap, p99_latency) with NaN = unset.
//   * metric_registry() — name -> Metric lookup with units and
//     descriptions (the CLI's --list-objectives table).
//   * ObjectiveSpec — a parsed objective: a single metric, a
//     non-negative weighted sum over metrics (util/expr grammar, e.g.
//     "0.6*edp+0.4*area"), or a lexicographic tuple ("latency,area").
//     Every spec scores through the same path; the legacy names
//     latency|energy|edp are "canned" only in what they serialize.
//   * p99_latency_ns() — an M/G/1-style tail-latency approximation over
//     per-model latencies + WorkloadSet weights (docs/metrics.md derives
//     it).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace simphony::core {

// ---------------------------------------------------- batch aggregate

/// How per-model metrics of a batch fold into one figure per design
/// point.
enum class BatchAggregate {
  kSum,       // total across models (throughput-style accounting)
  kMax,       // worst model (latency-bound accounting)
  kWeighted,  // weighted sum with WorkloadSet entry weights
};

[[nodiscard]] const char* to_string(BatchAggregate aggregate);

/// "sum" | "max" | "weighted" -> aggregate; anything else -> nullopt.
[[nodiscard]] std::optional<BatchAggregate> parse_aggregate(
    const std::string& text);

/// Folds per-model values under the aggregate mode.  For kWeighted,
/// `weights` must be the same length as `values` (throws
/// std::invalid_argument otherwise); kSum and kMax ignore it.
[[nodiscard]] double aggregate_values(BatchAggregate aggregate,
                                      const std::vector<double>& values,
                                      const std::vector<double>& weights);

/// Power/TOPS are ratios, so they do not fold like the additive metrics:
/// under kSum/kWeighted they derive from the already-folded energy,
/// latency, and MAC totals; under kMax they are the per-model worst case
/// (peak power, minimum TOPS).
struct BatchDerivedMetrics {
  double power_W = 0.0;
  double tops = 0.0;
};

[[nodiscard]] BatchDerivedMetrics derive_batch_metrics(
    BatchAggregate aggregate, double energy_pJ, double latency_ns,
    double macs, const std::vector<double>& per_model_power_W,
    const std::vector<double>& per_model_tops);

// ------------------------------------------------ one shared batch fold

/// One model's slice of a batch fold — the metrics-layer view both
/// BatchReport::ModelResult (core/simulator.h) and DseModelMetrics
/// (core/dse.h) project onto, so batch totals and the DSE batch
/// evaluator fold through exactly one code path.
struct BatchModelSlice {
  double energy_pJ = 0.0;
  double latency_ns = 0.0;
  double area_mm2 = 0.0;
  double macs = 0.0;
  double weight = 1.0;
  double power_W = 0.0;
  double tops = 0.0;
};

/// Aggregate figures of one batch fold.  Area is always the per-model
/// max — one chip must fit the largest per-model memory sizing.
struct BatchFold {
  double energy_pJ = 0.0;
  double latency_ns = 0.0;
  double area_mm2 = 0.0;
  double macs = 0.0;
  double power_W = 0.0;
  double tops = 0.0;
};

/// THE batch fold: energy/latency/MACs through aggregate_values, area as
/// the per-model max, power/TOPS through derive_batch_metrics — in model
/// order.  BatchReport::totals and the DSE evaluator both fold through it.
[[nodiscard]] BatchFold fold_batch(BatchAggregate aggregate,
                                   const std::vector<BatchModelSlice>& models);

// ------------------------------------------------- metric vocabulary

/// The compile-known metric slots.  All are minimized; throughput-style
/// figures (TOPS) are deliberately not metrics — a higher-is-better slot
/// would silently invert every consumer that assumes "lower wins".
enum class Metric : size_t {
  kEnergy = 0,   // total energy (pJ)
  kLatency,      // end-to-end latency (ns)
  kArea,         // chip area (mm^2)
  kPower,        // average power (W)
  kEdp,          // energy-delay product (pJ*ns), derived
  kEdap,         // energy-delay-area product (pJ*ns*mm^2), derived
  kP99Latency,   // M/G/1-approximated tail latency (ns), derived
};

inline constexpr size_t kMetricCount = 7;

[[nodiscard]] const char* to_string(Metric metric);

/// Registry row: the name the spec grammar accepts plus the
/// human-facing description (--list-objectives).
struct MetricInfo {
  Metric metric = Metric::kEnergy;
  const char* name = "";
  const char* unit = "";
  const char* description = "";
};

/// All known metrics in Metric enum order — the one name->Metric table
/// the spec grammar, the CLI listing, and the docs share.
[[nodiscard]] const std::array<MetricInfo, kMetricCount>& metric_registry();

/// Registry lookup; nullopt for unknown names.
[[nodiscard]] std::optional<Metric> parse_metric(std::string_view name);

/// "energy|latency|area|power|edp|edap|p99_latency" — for diagnostics.
[[nodiscard]] const std::string& known_metric_names();

/// Named, ordered double slots; NaN marks "not computed" (e.g. p99
/// before anyone supplies the workload mix).  The interchange type of
/// the metric layer: built from ModelTotals / batch folds / DsePoints,
/// consumed by ObjectiveSpec::value, Pareto axes, and leaderboards.
class MetricVector {
 public:
  MetricVector();

  [[nodiscard]] double get(Metric metric) const {
    return values_[static_cast<size_t>(metric)];
  }
  void set(Metric metric, double value) {
    values_[static_cast<size_t>(metric)] = value;
  }

  /// Fills the measured slots and derives edp/edap with the exact
  /// associations the legacy fields used (edp = E*L, edap = E*L*A).
  /// p99_latency stays unset until a caller provides the workload mix.
  [[nodiscard]] static MetricVector of(double energy_pJ, double latency_ns,
                                       double area_mm2, double power_W);

 private:
  std::array<double, kMetricCount> values_;
};

// ------------------------------------------------------- tail latency

/// Design utilization of the tail-latency model: the p99 figure answers
/// "serving this workload mix at 80% utilization, what latency does the
/// 99th-percentile request see?".
inline constexpr double kP99Utilization = 0.8;

/// M/G/1-style 99th-percentile latency (ns) of a request stream whose
/// service times are the per-model latencies drawn with probability
/// proportional to the weights.  Approximation (docs/metrics.md derives
/// it): service p99 from the discrete mix + a Pollaczek–Khinchine mean
/// wait with an exponential tail at utilization kP99Utilization.
/// Returns NaN when any input is non-finite, 0 for an empty or
/// zero-weight mix.  Single-model special case: p99 = S * (1 +
/// ln(100*rho) / (2*(1-rho))) — linear in S, which is what makes
/// p99_latency admissible as a mapper objective.
[[nodiscard]] double p99_latency_ns(const double* latency_ns,
                                    const double* weights, size_t count);
[[nodiscard]] double p99_latency_ns(const std::vector<double>& latency_ns,
                                    const std::vector<double>& weights);

// ----------------------------------------------------- objective spec

/// A parsed --objective: what exploration ranks by and mapping search
/// minimizes.  One shared grammar across CLI, server, and library:
///
///   spec     := metric | weighted | metric (',' metric)+
///   metric   := a metric_registry() name
///   weighted := util/expr arithmetic over metric names that reduces to
///               a non-negative linear combination (e.g.
///               "0.6*edp+0.4*area", "latency+0.01*power")
///
/// The three legacy names latency|energy|edp parse to *canned* specs.
/// They score like any other single-metric spec; canned only means they
/// add no serialization field (no "objective" stamp, no extra halving
/// board), so legacy CLI / server / shard documents stay byte-identical.
class ObjectiveSpec {
 public:
  enum class Kind {
    kSingle,         // one metric
    kWeighted,       // non-negative linear combination
    kLexicographic,  // ordered tie-breaking tuple
  };

  /// The default objective: canned "edp".
  ObjectiveSpec() = default;

  /// Parses a spec string; throws std::invalid_argument with an
  /// offset-annotated diagnostic ("--objective: unknown metric 'foo' at
  /// offset 4 ...") on unknown metric names, nonlinear expressions, or
  /// negative weights.
  [[nodiscard]] static ObjectiveSpec parse(const std::string& text);

  [[nodiscard]] Kind kind() const { return kind_; }
  /// The original spec text (normal form for stamping/round-trips).
  [[nodiscard]] const std::string& text() const { return text_; }
  /// True iff the spec is spelled latency, energy or edp (or is the
  /// default spec): it adds no serialization field.
  [[nodiscard]] bool canned_objective() const { return canned_; }
  /// Metrics the spec actually depends on (zero-weight terms dropped),
  /// in Metric enum order.
  [[nodiscard]] const std::vector<Metric>& referenced() const {
    return referenced_;
  }
  [[nodiscard]] bool references(Metric metric) const;
  /// Lexicographic tuple order (kLexicographic only).
  [[nodiscard]] const std::vector<Metric>& lex_order() const { return lex_; }
  /// Weight of a metric in a weighted spec (0 when absent); the
  /// constant term of the expression.
  [[nodiscard]] double weight(Metric metric) const {
    return coefficients_[static_cast<size_t>(metric)];
  }
  [[nodiscard]] double offset() const { return offset_; }

  /// Scalar figure of merit of a metric vector (lower is better).
  /// kSingle reads the slot; kWeighted sums offset + weight*slot over
  /// referenced() in enum order; kLexicographic reads the primary slot
  /// (use less() for full tuple ranking).
  [[nodiscard]] double value(const MetricVector& metrics) const;

  /// Full spec ordering: lexicographic tuple compare for kLex, value()
  /// compare otherwise.  NaN slots compare as ties (callers break ties
  /// and quarantine non-finite entries themselves).
  [[nodiscard]] bool less(const MetricVector& a, const MetricVector& b) const;

  /// Mapping-search score of a candidate's predicted (energy, latency)
  /// totals: value() of a synthetic vector where area is 0 (assignment-
  /// independent, so it only shifts every candidate equally, and a
  /// constant shift never reorders an argmin), edap degrades to edp
  /// (same reasoning), and p99 is the single-stream tail formula
  /// (linear in latency).  So "latency", "energy" and "edp" score
  /// exactly L, E and E*L.  Only call when mapper_compatible().
  [[nodiscard]] double mapper_score(double energy_pJ,
                                    double latency_ns) const;

  /// Whether the spec can drive a mapping search soundly: every
  /// referenced metric must be monotone nondecreasing in the predicted
  /// (energy, latency) totals or assignment-independent, or BnB's
  /// lower bounds stop being admissible.  Rejects power (a ratio,
  /// non-monotone in latency), edap inside weighted sums (the unknown
  /// area factor would reweight the combination), and lexicographic
  /// tuples (rank-only).  On rejection fills `why` (when non-null) with
  /// the diagnostic.
  [[nodiscard]] bool mapper_compatible(std::string* why = nullptr) const;

 private:
  Kind kind_ = Kind::kSingle;
  std::string text_ = "edp";
  bool canned_ = true;
  Metric single_ = Metric::kEdp;
  std::vector<Metric> lex_;
  std::array<double, kMetricCount> coefficients_{};
  double offset_ = 0.0;
  std::vector<Metric> referenced_ = {Metric::kEdp};
};

/// The Pareto axes an objective implies: always the legacy
/// (energy, latency, area) triple — byte-identity for every legacy
/// document — plus any referenced directly-rankable extras (power,
/// p99_latency) appended in enum order.  Derived products (edp, edap)
/// never join: they are dominated-iff-components-dominated only along
/// the axes already present, and the legacy axes cover their factors.
[[nodiscard]] std::vector<Metric> pareto_axes(const ObjectiveSpec& spec);

// ------------------------------------------------ registry extractors

struct ModelTotals;  // core/simulator.h

/// MetricVector of one simulated model (the single-model extractor
/// behind the registry); p99_latency is the single-stream formula over
/// the model's own runtime.
[[nodiscard]] MetricVector metrics_of(const ModelTotals& totals);

/// MetricVector of one batch fold; p99_latency stays unset (it needs
/// the per-model mix, not the fold — use p99_latency_ns directly).
[[nodiscard]] MetricVector metrics_of(const BatchFold& fold);

}  // namespace simphony::core
