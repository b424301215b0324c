#include "core/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/simulator.h"
#include "util/expr.h"

namespace simphony::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

// ---------------------------------------------------- batch aggregate

const char* to_string(BatchAggregate aggregate) {
  switch (aggregate) {
    case BatchAggregate::kSum:
      return "sum";
    case BatchAggregate::kMax:
      return "max";
    case BatchAggregate::kWeighted:
      return "weighted";
  }
  return "?";
}

std::optional<BatchAggregate> parse_aggregate(const std::string& text) {
  if (text == "sum") return BatchAggregate::kSum;
  if (text == "max") return BatchAggregate::kMax;
  if (text == "weighted") return BatchAggregate::kWeighted;
  return std::nullopt;
}

double aggregate_values(BatchAggregate aggregate,
                        const std::vector<double>& values,
                        const std::vector<double>& weights) {
  if (values.empty()) return 0.0;
  switch (aggregate) {
    case BatchAggregate::kSum: {
      double total = 0.0;
      for (double v : values) total += v;
      return total;
    }
    case BatchAggregate::kMax:
      return *std::max_element(values.begin(), values.end());
    case BatchAggregate::kWeighted: {
      if (weights.size() != values.size()) {
        throw std::invalid_argument(
            "aggregate_values: kWeighted needs one weight per value (" +
            std::to_string(weights.size()) + " weights for " +
            std::to_string(values.size()) + " values)");
      }
      double total = 0.0;
      for (size_t i = 0; i < values.size(); ++i) {
        total += weights[i] * values[i];
      }
      return total;
    }
  }
  return 0.0;
}

BatchDerivedMetrics derive_batch_metrics(
    BatchAggregate aggregate, double energy_pJ, double latency_ns,
    double macs, const std::vector<double>& per_model_power_W,
    const std::vector<double>& per_model_tops) {
  BatchDerivedMetrics derived;
  if (aggregate == BatchAggregate::kMax) {
    if (per_model_power_W.empty() || per_model_tops.empty()) return derived;
    derived.power_W =
        *std::max_element(per_model_power_W.begin(), per_model_power_W.end());
    // min_element, not a 0-sentinel fold: a model legitimately reporting
    // 0 TOPS (degenerate zero-runtime workload) IS the worst case.
    derived.tops =
        *std::min_element(per_model_tops.begin(), per_model_tops.end());
    return derived;
  }
  if (latency_ns > 0.0) {
    derived.power_W = energy_pJ / latency_ns * 1e-3;
    derived.tops = 2.0 * macs / latency_ns * 1e-3;
  }
  return derived;
}

BatchFold fold_batch(BatchAggregate aggregate,
                     const std::vector<BatchModelSlice>& models) {
  BatchFold fold;
  std::vector<double> energies, latencies, macs, weights, powers, tops;
  energies.reserve(models.size());
  latencies.reserve(models.size());
  macs.reserve(models.size());
  weights.reserve(models.size());
  powers.reserve(models.size());
  tops.reserve(models.size());
  for (const BatchModelSlice& model : models) {
    energies.push_back(model.energy_pJ);
    latencies.push_back(model.latency_ns);
    macs.push_back(model.macs);
    weights.push_back(model.weight);
    powers.push_back(model.power_W);
    tops.push_back(model.tops);
    // Area never folds: one chip must fit the largest per-model sizing.
    fold.area_mm2 = std::max(fold.area_mm2, model.area_mm2);
  }
  fold.energy_pJ = aggregate_values(aggregate, energies, weights);
  fold.latency_ns = aggregate_values(aggregate, latencies, weights);
  fold.macs = aggregate_values(aggregate, macs, weights);
  const BatchDerivedMetrics derived = derive_batch_metrics(
      aggregate, fold.energy_pJ, fold.latency_ns, fold.macs, powers, tops);
  fold.power_W = derived.power_W;
  fold.tops = derived.tops;
  return fold;
}

// ------------------------------------------------- metric vocabulary

const char* to_string(Metric metric) {
  switch (metric) {
    case Metric::kEnergy:
      return "energy";
    case Metric::kLatency:
      return "latency";
    case Metric::kArea:
      return "area";
    case Metric::kPower:
      return "power";
    case Metric::kEdp:
      return "edp";
    case Metric::kEdap:
      return "edap";
    case Metric::kP99Latency:
      return "p99_latency";
  }
  return "?";
}

const std::array<MetricInfo, kMetricCount>& metric_registry() {
  static const std::array<MetricInfo, kMetricCount> kRegistry = {{
      {Metric::kEnergy, "energy", "pJ", "total energy of the run"},
      {Metric::kLatency, "latency", "ns", "end-to-end latency"},
      {Metric::kArea, "area", "mm^2", "chip area (memory + sub-arch)"},
      {Metric::kPower, "power", "W", "average power (energy / latency)"},
      {Metric::kEdp, "edp", "pJ*ns", "energy-delay product"},
      {Metric::kEdap, "edap", "pJ*ns*mm^2", "energy-delay-area product"},
      {Metric::kP99Latency, "p99_latency", "ns",
       "M/G/1-approximated 99th-percentile latency at 80% utilization"},
  }};
  return kRegistry;
}

std::optional<Metric> parse_metric(std::string_view name) {
  for (const MetricInfo& info : metric_registry()) {
    if (name == info.name) return info.metric;
  }
  return std::nullopt;
}

const std::string& known_metric_names() {
  static const std::string kNames = [] {
    std::string names;
    for (const MetricInfo& info : metric_registry()) {
      if (!names.empty()) names += "|";
      names += info.name;
    }
    return names;
  }();
  return kNames;
}

MetricVector::MetricVector() { values_.fill(kNaN); }

MetricVector MetricVector::of(double energy_pJ, double latency_ns,
                              double area_mm2, double power_W) {
  MetricVector metrics;
  metrics.set(Metric::kEnergy, energy_pJ);
  metrics.set(Metric::kLatency, latency_ns);
  metrics.set(Metric::kArea, area_mm2);
  metrics.set(Metric::kPower, power_W);
  metrics.set(Metric::kEdp, energy_pJ * latency_ns);
  metrics.set(Metric::kEdap, energy_pJ * latency_ns * area_mm2);
  return metrics;
}

// ------------------------------------------------------- tail latency

double p99_latency_ns(const double* latency_ns, const double* weights,
                      size_t count) {
  if (count == 0) return 0.0;
  for (size_t i = 0; i < count; ++i) {
    if (!std::isfinite(latency_ns[i]) || !std::isfinite(weights[i])) {
      return kNaN;
    }
  }
  double weight_sum = 0.0;
  for (size_t i = 0; i < count; ++i) weight_sum += weights[i];
  if (weight_sum <= 0.0) return 0.0;
  // Service-time moments of the discrete mix: each request draws model i
  // with probability weight_i / Σ weights and is served in latency_i.
  double mean_s = 0.0;
  double mean_s2 = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double p = weights[i] / weight_sum;
    mean_s += p * latency_ns[i];
    mean_s2 += p * latency_ns[i] * latency_ns[i];
  }
  if (mean_s <= 0.0) return 0.0;
  // Pollaczek–Khinchine mean wait at utilization rho, with the waiting
  // time treated as exponential beyond its mean (heavy-traffic shape):
  //   P(W > t) ≈ rho * exp(-t / (Wq / rho))  =>  t99 = (Wq/rho) ln(100 rho)
  constexpr double rho = kP99Utilization;
  const double mean_wait = rho * mean_s2 / (2.0 * (1.0 - rho) * mean_s);
  const double tail_wait = (mean_wait / rho) * std::log(100.0 * rho);
  // Service p99: smallest latency covering 99% of the request mix.
  double service_p99 = latency_ns[0];
  if (count > 1) {
    std::vector<size_t> order(count);
    for (size_t i = 0; i < count; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (latency_ns[a] != latency_ns[b]) return latency_ns[a] < latency_ns[b];
      return a < b;
    });
    service_p99 = latency_ns[order.back()];
    double cumulative = 0.0;
    for (size_t i : order) {
      cumulative += weights[i] / weight_sum;
      if (cumulative >= 0.99) {
        service_p99 = latency_ns[i];
        break;
      }
    }
  }
  return service_p99 + tail_wait;
}

double p99_latency_ns(const std::vector<double>& latency_ns,
                      const std::vector<double>& weights) {
  if (latency_ns.size() != weights.size()) {
    throw std::invalid_argument(
        "p99_latency_ns: needs one weight per latency (" +
        std::to_string(weights.size()) + " weights for " +
        std::to_string(latency_ns.size()) + " latencies)");
  }
  return p99_latency_ns(latency_ns.data(), weights.data(), latency_ns.size());
}

// ----------------------------------------------------- objective spec

namespace {

[[noreturn]] void throw_unknown_metric(const std::string& name,
                                       size_t offset) {
  throw std::invalid_argument(
      "--objective: unknown metric '" + name + "' at offset " +
      std::to_string(offset) + " (known metrics: " + known_metric_names() +
      ")");
}

[[noreturn]] void throw_nonlinear(const std::string& text) {
  throw std::invalid_argument(
      "--objective '" + text +
      "': expected a weighted sum of metrics (e.g. 0.6*edp+0.4*area)");
}

}  // namespace

ObjectiveSpec ObjectiveSpec::parse(const std::string& text) {
  // Lexicographic tuple: comma-separated bare metric names.
  if (text.find(',') != std::string::npos) {
    ObjectiveSpec spec;
    spec.kind_ = Kind::kLexicographic;
    spec.text_ = text;
    spec.canned_ = false;
    spec.referenced_.clear();
    size_t pos = 0;
    while (true) {
      const size_t comma = text.find(',', pos);
      const size_t end = comma == std::string::npos ? text.size() : comma;
      size_t begin = pos;
      size_t stop = end;
      while (begin < stop &&
             std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
      }
      while (stop > begin &&
             std::isspace(static_cast<unsigned char>(text[stop - 1]))) {
        --stop;
      }
      const std::string name = text.substr(begin, stop - begin);
      const std::optional<Metric> metric = parse_metric(name);
      if (!metric) throw_unknown_metric(name, begin);
      spec.lex_.push_back(*metric);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    for (const MetricInfo& info : metric_registry()) {
      if (std::find(spec.lex_.begin(), spec.lex_.end(), info.metric) !=
          spec.lex_.end()) {
        spec.referenced_.push_back(info.metric);
      }
    }
    spec.single_ = spec.lex_.front();
    return spec;
  }

  // A bare registry name is a single-metric spec; the three legacy names
  // stay canned so their output bytes do not change.
  if (const std::optional<Metric> metric = parse_metric(text)) {
    ObjectiveSpec spec;
    spec.kind_ = Kind::kSingle;
    spec.text_ = text;
    spec.canned_ = text == "latency" || text == "energy" || text == "edp";
    spec.single_ = *metric;
    spec.referenced_ = {*metric};
    return spec;
  }

  // Everything else must be a util/expr arithmetic expression that
  // reduces to a non-negative linear combination of metric names.
  util::Expr expr;
  try {
    expr = util::Expr::parse(text);
  } catch (const util::ExprError& error) {
    throw std::invalid_argument("--objective '" + text + "': " + error.what());
  }
  for (const std::string& var : expr.variables()) {
    if (!parse_metric(var)) {
      throw_unknown_metric(var, text.find(var));
    }
  }
  util::Env zeros;
  for (const MetricInfo& info : metric_registry()) zeros[info.name] = 0.0;
  double offset = 0.0;
  std::array<double, kMetricCount> coefficients{};
  try {
    offset = expr.eval(zeros);
    for (size_t i = 0; i < kMetricCount; ++i) {
      util::Env basis = zeros;
      basis[metric_registry()[i].name] = 1.0;
      coefficients[i] = expr.eval(basis) - offset;
    }
  } catch (const util::ExprError& error) {
    throw std::invalid_argument("--objective '" + text + "': " + error.what());
  }
  if (!std::isfinite(offset)) throw_nonlinear(text);
  for (double c : coefficients) {
    if (!std::isfinite(c)) throw_nonlinear(text);
  }
  // Linearity probe: the coefficient extraction above only recovers the
  // expression if it IS linear; check at a point with distinct prime
  // coordinates so products/ratios of metrics cannot alias a sum.
  {
    constexpr std::array<double, kMetricCount> kProbe = {2.0,  3.0,  5.0, 7.0,
                                                         11.0, 13.0, 17.0};
    util::Env probe;
    double expected = offset;
    for (size_t i = 0; i < kMetricCount; ++i) {
      probe[metric_registry()[i].name] = kProbe[i];
      expected += coefficients[i] * kProbe[i];
    }
    double got = 0.0;
    try {
      got = expr.eval(probe);
    } catch (const util::ExprError& error) {
      throw std::invalid_argument("--objective '" + text +
                                  "': " + error.what());
    }
    const double scale =
        std::max({1.0, std::abs(got), std::abs(expected)});
    if (!std::isfinite(got) || std::abs(got - expected) > 1e-9 * scale) {
      throw_nonlinear(text);
    }
  }
  ObjectiveSpec spec;
  spec.kind_ = Kind::kWeighted;
  spec.text_ = text;
  spec.canned_ = false;
  spec.referenced_.clear();
  spec.coefficients_ = coefficients;
  spec.offset_ = offset;
  for (const MetricInfo& info : metric_registry()) {
    const double c = coefficients[static_cast<size_t>(info.metric)];
    if (c < 0.0) {
      throw std::invalid_argument("--objective '" + text + "': weight of '" +
                                  std::string(info.name) +
                                  "' must be non-negative");
    }
    if (c > 0.0) spec.referenced_.push_back(info.metric);
  }
  if (spec.referenced_.empty()) {
    throw std::invalid_argument("--objective '" + text +
                                "': references no metric");
  }
  // Normalize "1.0 * metric"-shaped expressions (e.g. "edap ") down to a
  // single-metric spec so spacing never changes semantics.
  if (spec.offset_ == 0.0 && spec.referenced_.size() == 1 &&
      spec.coefficients_[static_cast<size_t>(spec.referenced_.front())] ==
          1.0) {
    spec.kind_ = Kind::kSingle;
    spec.single_ = spec.referenced_.front();
  }
  return spec;
}

bool ObjectiveSpec::references(Metric metric) const {
  return std::find(referenced_.begin(), referenced_.end(), metric) !=
         referenced_.end();
}

double ObjectiveSpec::value(const MetricVector& metrics) const {
  switch (kind_) {
    case Kind::kSingle:
      return metrics.get(single_);
    case Kind::kWeighted: {
      double total = offset_;
      for (Metric metric : referenced_) {
        total += weight(metric) * metrics.get(metric);
      }
      return total;
    }
    case Kind::kLexicographic:
      return metrics.get(lex_.front());
  }
  return kNaN;
}

bool ObjectiveSpec::less(const MetricVector& a, const MetricVector& b) const {
  if (kind_ == Kind::kLexicographic) {
    for (Metric metric : lex_) {
      const double av = a.get(metric);
      const double bv = b.get(metric);
      if (av < bv) return true;
      if (bv < av) return false;
      // Equal or NaN: tie — fall through to the next component.
    }
    return false;
  }
  return value(a) < value(b);
}

double ObjectiveSpec::mapper_score(double energy_pJ, double latency_ns) const {
  MetricVector metrics;
  metrics.set(Metric::kEnergy, energy_pJ);
  metrics.set(Metric::kLatency, latency_ns);
  // Area is assignment-independent during a mapping search: scoring it as
  // 0 shifts every candidate equally and never reorders an argmin.  For
  // the same reason edap degrades to edp (the unknown area factor is a
  // constant); mapper_compatible() rejects the weighted-edap case where
  // that constant would reweight the combination.
  metrics.set(Metric::kArea, 0.0);
  metrics.set(Metric::kEdp, energy_pJ * latency_ns);
  metrics.set(Metric::kEdap, energy_pJ * latency_ns);
  if (references(Metric::kP99Latency)) {
    const double one = 1.0;
    metrics.set(Metric::kP99Latency, p99_latency_ns(&latency_ns, &one, 1));
  }
  return value(metrics);
}

bool ObjectiveSpec::mapper_compatible(std::string* why) const {
  if (kind_ == Kind::kLexicographic) {
    if (why) {
      *why =
          "lexicographic objectives rank points but give no scalar mapping "
          "score; use a single metric or a weighted sum";
    }
    return false;
  }
  if (references(Metric::kPower)) {
    if (why) {
      *why =
          "'power' is a ratio of energy over latency and not monotone in the "
          "mapping totals, so branch-and-bound lower bounds would be unsound";
    }
    return false;
  }
  if (kind_ == Kind::kWeighted && references(Metric::kEdap)) {
    if (why) {
      *why =
          "'edap' inside a weighted sum depends on the design-point area, "
          "which is unknown during mapping; use 'edp' there (or a pure "
          "'edap' objective, which maps identically to 'edp')";
    }
    return false;
  }
  return true;
}

std::vector<Metric> pareto_axes(const ObjectiveSpec& spec) {
  std::vector<Metric> axes = {Metric::kEnergy, Metric::kLatency,
                              Metric::kArea};
  if (spec.references(Metric::kPower)) axes.push_back(Metric::kPower);
  if (spec.references(Metric::kP99Latency)) {
    axes.push_back(Metric::kP99Latency);
  }
  return axes;
}

// ------------------------------------------------ registry extractors

MetricVector metrics_of(const ModelTotals& totals) {
  MetricVector metrics =
      MetricVector::of(totals.energy_pJ(), totals.runtime_ns,
                       totals.total_area_mm2(), totals.average_power_W());
  const double latency = totals.runtime_ns;
  const double one = 1.0;
  metrics.set(Metric::kP99Latency, p99_latency_ns(&latency, &one, 1));
  return metrics;
}

MetricVector metrics_of(const BatchFold& fold) {
  return MetricVector::of(fold.energy_pJ, fold.latency_ns, fold.area_mm2,
                          fold.power_W);
}

}  // namespace simphony::core
