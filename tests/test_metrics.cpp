// The unified metric/objective subsystem (core/metrics.h): registry and
// MetricVector invariants, the p99 tail-latency approximation's edge
// cases and closed-form single-stream shape, ObjectiveSpec parsing
// (canned / single / weighted / lexicographic, offset-annotated
// diagnostics), the property that weighted-spec mapper scores equal the
// hand-computed combination of the per-metric scores, and the
// fold_batch <-> aggregate_values/derive_batch_metrics equivalence that
// pins the batch-totals dedup.
#include "core/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "arch/prebuilt.h"
#include "core/mapper.h"
#include "core/simulator.h"
#include "workload/onn_convert.h"

namespace simphony::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ----------------------------------------------------------- registry

TEST(MetricRegistry, NamesRoundTripThroughParseMetric) {
  ASSERT_EQ(metric_registry().size(), kMetricCount);
  for (size_t i = 0; i < kMetricCount; ++i) {
    const MetricInfo& info = metric_registry()[i];
    // Registry rows are in enum order — MetricVector indexes rely on it.
    EXPECT_EQ(static_cast<size_t>(info.metric), i);
    EXPECT_STREQ(to_string(info.metric), info.name);
    EXPECT_EQ(parse_metric(info.name), info.metric);
  }
  EXPECT_FALSE(parse_metric("frobs").has_value());
  EXPECT_FALSE(parse_metric("EDP").has_value());
  EXPECT_EQ(known_metric_names(),
            "energy|latency|area|power|edp|edap|p99_latency");
}

TEST(MetricVectorTest, StartsUnsetAndOfDerivesProducts) {
  const MetricVector unset;
  for (const MetricInfo& info : metric_registry()) {
    EXPECT_TRUE(std::isnan(unset.get(info.metric))) << info.name;
  }
  const MetricVector v = MetricVector::of(2.0, 3.0, 5.0, 7.0);
  EXPECT_EQ(v.get(Metric::kEnergy), 2.0);
  EXPECT_EQ(v.get(Metric::kLatency), 3.0);
  EXPECT_EQ(v.get(Metric::kArea), 5.0);
  EXPECT_EQ(v.get(Metric::kPower), 7.0);
  EXPECT_EQ(v.get(Metric::kEdp), 6.0);
  EXPECT_EQ(v.get(Metric::kEdap), 30.0);
  // p99 needs the workload mix; of() must leave it unset.
  EXPECT_TRUE(std::isnan(v.get(Metric::kP99Latency)));
}

// -------------------------------------------------------- tail latency

/// Single-stream closed form: S * (1 + ln(100*rho) / (2*(1-rho))).
double single_stream_p99(double service_ns) {
  constexpr double rho = kP99Utilization;
  return service_ns * (1.0 + std::log(100.0 * rho) / (2.0 * (1.0 - rho)));
}

TEST(P99Latency, SingleModelMatchesClosedFormAndIsLinear) {
  const std::vector<double> one = {1.0};
  for (double s : {1.0, 10.0, 1234.5, 8.8e6}) {
    EXPECT_DOUBLE_EQ(p99_latency_ns({s}, one), single_stream_p99(s)) << s;
  }
  // Linear in the service time — the property that makes p99_latency an
  // admissible mapper objective (BnB bounds stay lower bounds).
  const double base = p99_latency_ns({100.0}, one);
  EXPECT_DOUBLE_EQ(p99_latency_ns({300.0}, one), 3.0 * base);
  // Weight scaling of a one-model mix is a no-op (probabilities
  // normalize).
  EXPECT_DOUBLE_EQ(p99_latency_ns({100.0}, {17.0}), base);
}

TEST(P99Latency, EdgeCasesAndMixOrdering) {
  EXPECT_EQ(p99_latency_ns(nullptr, nullptr, 0), 0.0);
  EXPECT_EQ(p99_latency_ns({1.0, 2.0}, {0.0, 0.0}), 0.0);
  EXPECT_EQ(p99_latency_ns({0.0}, {1.0}), 0.0);
  EXPECT_TRUE(std::isnan(p99_latency_ns({kNaN}, {1.0})));
  EXPECT_TRUE(std::isnan(
      p99_latency_ns({std::numeric_limits<double>::infinity()}, {1.0})));
  EXPECT_TRUE(std::isnan(p99_latency_ns({1.0}, {kNaN})));
  EXPECT_THROW((void)p99_latency_ns(std::vector<double>{1.0, 2.0},
                                    std::vector<double>{1.0}),
               std::invalid_argument);

  // Mix order must not matter (the service-p99 scan sorts internally).
  const double forward = p99_latency_ns({10.0, 500.0, 90.0}, {5.0, 1.0, 3.0});
  const double backward = p99_latency_ns({90.0, 500.0, 10.0}, {3.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(forward, backward);

  // A heavier tail model strictly worsens p99.
  const double light = p99_latency_ns({10.0, 100.0}, {99.0, 1.0});
  const double heavy = p99_latency_ns({10.0, 1000.0}, {99.0, 1.0});
  EXPECT_GT(heavy, light);

  // A rare (sub-1%) slow model still raises the wait term, and the mixed
  // p99 is at least the dominant model's service time.
  EXPECT_GE(light, 10.0);
}

TEST(P99Latency, MixMatchesHandComputedApproximation) {
  // Two models, hand-evaluated: p = {0.75, 0.25}, S = {100, 400}.
  const std::vector<double> lat = {100.0, 400.0};
  const std::vector<double> w = {3.0, 1.0};
  const double mean_s = 0.75 * 100.0 + 0.25 * 400.0;          // 175
  const double mean_s2 = 0.75 * 1e4 + 0.25 * 16e4;            // 47500
  constexpr double rho = kP99Utilization;
  const double wq = rho * mean_s2 / (2.0 * (1.0 - rho) * mean_s);
  const double tail = (wq / rho) * std::log(100.0 * rho);
  // Service p99: cumulative 0.75 < 0.99 at S=100, reaches 1.0 at S=400.
  const double expected = 400.0 + tail;
  EXPECT_DOUBLE_EQ(p99_latency_ns(lat, w), expected);
}

// ------------------------------------------------------ objective spec

TEST(ObjectiveSpecParse, CannedLegacyNamesStayCanned) {
  struct Legacy {
    const char* name;
    double (*score)(double energy, double latency);
  };
  const Legacy legacy[] = {
      {"latency", [](double, double l) { return l; }},
      {"energy", [](double e, double) { return e; }},
      {"edp", [](double e, double l) { return e * l; }},
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const Legacy& row : legacy) {
    const ObjectiveSpec spec = ObjectiveSpec::parse(row.name);
    EXPECT_EQ(spec.kind(), ObjectiveSpec::Kind::kSingle);
    EXPECT_TRUE(spec.canned_objective()) << row.name;
    EXPECT_EQ(spec.text(), row.name);
    // The legacy names score exactly L, E and E*L, bit for bit, at 0
    // and +inf too (0 * inf is a NaN of either sign).
    for (double e : {0.0, 2.0, inf}) {
      for (double l : {0.0, 3.0, inf}) {
        const double want = row.score(e, l);
        const double got = spec.mapper_score(e, l);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got)) << row.name;
        } else {
          EXPECT_EQ(std::bit_cast<uint64_t>(got),
                    std::bit_cast<uint64_t>(want))
              << row.name << " at (" << e << ", " << l << ")";
        }
      }
    }
  }
  // Default-constructed spec: canned edp.
  EXPECT_TRUE(ObjectiveSpec().canned_objective());
  EXPECT_EQ(ObjectiveSpec().text(), "edp");
  EXPECT_EQ(ObjectiveSpec().mapper_score(2.0, 3.0), 6.0);
  // Canned is a spelling, not a score: these are not canned.
  EXPECT_FALSE(ObjectiveSpec::parse("1.0*edp").canned_objective());
  EXPECT_FALSE(ObjectiveSpec::parse("area").canned_objective());
  EXPECT_THROW((void)ObjectiveSpec::parse("EDP"), std::invalid_argument);
}

TEST(ObjectiveSpecParse, SingleWeightedAndLexicographicShapes) {
  const ObjectiveSpec area = ObjectiveSpec::parse("area");
  EXPECT_EQ(area.kind(), ObjectiveSpec::Kind::kSingle);
  EXPECT_FALSE(area.canned_objective());
  EXPECT_EQ(area.referenced(), std::vector<Metric>{Metric::kArea});

  const ObjectiveSpec weighted = ObjectiveSpec::parse("0.6*edp+0.4*area");
  EXPECT_EQ(weighted.kind(), ObjectiveSpec::Kind::kWeighted);
  EXPECT_DOUBLE_EQ(weighted.weight(Metric::kEdp), 0.6);
  EXPECT_DOUBLE_EQ(weighted.weight(Metric::kArea), 0.4);
  EXPECT_EQ(weighted.weight(Metric::kEnergy), 0.0);
  EXPECT_EQ(weighted.offset(), 0.0);
  EXPECT_EQ(weighted.referenced(),
            (std::vector<Metric>{Metric::kArea, Metric::kEdp}));
  EXPECT_TRUE(weighted.references(Metric::kEdp));
  EXPECT_FALSE(weighted.references(Metric::kLatency));

  // "1.0 * metric"-shaped expressions normalize to a single-metric spec.
  const ObjectiveSpec unit = ObjectiveSpec::parse("1.0*edap");
  EXPECT_EQ(unit.kind(), ObjectiveSpec::Kind::kSingle);
  EXPECT_FALSE(unit.canned_objective());

  const ObjectiveSpec lex = ObjectiveSpec::parse("latency, energy");
  EXPECT_EQ(lex.kind(), ObjectiveSpec::Kind::kLexicographic);
  EXPECT_EQ(lex.lex_order(),
            (std::vector<Metric>{Metric::kLatency, Metric::kEnergy}));
}

TEST(ObjectiveSpecParse, DiagnosticsCarryOffsetsAndKnownNames) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)ObjectiveSpec::parse(text);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("(no throw)");
  };
  EXPECT_EQ(message_of("frobs"),
            "--objective: unknown metric 'frobs' at offset 0 (known metrics: " +
                known_metric_names() + ")");
  // Offset points into the original spec text.
  EXPECT_NE(message_of("0.5*edp+0.5*frobs").find("at offset 12"),
            std::string::npos);
  EXPECT_NE(message_of("latency,frobs").find("'frobs' at offset 8"),
            std::string::npos);
  // Nonlinear expressions fail the linearity probe.
  EXPECT_NE(message_of("edp*latency").find("expected a weighted sum"),
            std::string::npos);
  // Ratio specs fail too (division by a metric is nonlinear); whichever
  // stage rejects them, the diagnostic names the spec.
  EXPECT_NE(message_of("energy/latency").find("--objective 'energy/latency'"),
            std::string::npos);
  // Negative weights are rejected by name.
  EXPECT_NE(message_of("edp-2*area").find("'area' must be non-negative"),
            std::string::npos);
  // A metric-free expression references nothing.
  EXPECT_NE(message_of("1+2").find("references no metric"),
            std::string::npos);
}

TEST(ObjectiveSpecValue, ValueAndLessFollowTheSpecShape) {
  const MetricVector a = MetricVector::of(2.0, 3.0, 5.0, 7.0);
  const MetricVector b = MetricVector::of(4.0, 1.0, 5.0, 7.0);

  const ObjectiveSpec energy = ObjectiveSpec::parse("energy");
  EXPECT_EQ(energy.value(a), 2.0);
  EXPECT_TRUE(energy.less(a, b));

  const ObjectiveSpec weighted = ObjectiveSpec::parse("0.5*energy+2*latency");
  EXPECT_DOUBLE_EQ(weighted.value(a), 0.5 * 2.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(weighted.value(b), 0.5 * 4.0 + 2.0 * 1.0);
  EXPECT_TRUE(weighted.less(b, a));

  // Lexicographic: the primary decides; ties fall through to the next
  // component (area ties at 5.0, energy then prefers a).
  const ObjectiveSpec lex = ObjectiveSpec::parse("area,energy");
  EXPECT_TRUE(lex.less(a, b));
  EXPECT_FALSE(lex.less(b, a));
  EXPECT_FALSE(lex.less(a, a));
  const ObjectiveSpec lex2 = ObjectiveSpec::parse("latency,area");
  EXPECT_TRUE(lex2.less(b, a));
}

TEST(ObjectiveSpecMapper, CompatibilityRules) {
  std::string why;
  EXPECT_TRUE(ObjectiveSpec::parse("edp").mapper_compatible(&why));
  EXPECT_TRUE(ObjectiveSpec::parse("p99_latency").mapper_compatible());
  EXPECT_TRUE(ObjectiveSpec::parse("edap").mapper_compatible());
  EXPECT_TRUE(ObjectiveSpec::parse("0.6*edp+0.4*area").mapper_compatible());

  EXPECT_FALSE(ObjectiveSpec::parse("latency,energy").mapper_compatible(&why));
  EXPECT_NE(why.find("lexicographic"), std::string::npos);
  EXPECT_FALSE(ObjectiveSpec::parse("power").mapper_compatible(&why));
  EXPECT_NE(why.find("power"), std::string::npos);
  EXPECT_FALSE(
      ObjectiveSpec::parse("0.5*edp+0.5*edap").mapper_compatible(&why));
  EXPECT_NE(why.find("edap"), std::string::npos);
}

/// Property: for any weighted spec, mapper_score(E, L) equals the
/// hand-computed combination offset + sum(w_i * score_i(E, L)) where the
/// per-metric scores are the documented synthetic slots (energy = E,
/// latency = L, area = 0, edp = edap = E*L, p99 = single-stream tail).
TEST(ObjectiveSpecMapper, WeightedScoresEqualHandComputedCombination) {
  const std::vector<std::string> specs = {
      "0.6*edp+0.4*area",       "latency+0.01*energy",
      "2*energy+3*latency",     "0.25*edp+0.75*p99_latency",
      "p99_latency+0.5*energy", "area+edp",
  };
  const std::vector<std::pair<double, double>> points = {
      {1.0, 1.0}, {2.5, 3.0}, {1e3, 7.5}, {8.8e6, 4.4e6}, {0.0, 5.0},
  };
  for (const std::string& text : specs) {
    const ObjectiveSpec spec = ObjectiveSpec::parse(text);
    ASSERT_TRUE(spec.mapper_compatible()) << text;
    for (const auto& [energy, latency] : points) {
      const auto slot_score = [&](Metric metric) {
        switch (metric) {
          case Metric::kEnergy:
            return energy;
          case Metric::kLatency:
            return latency;
          case Metric::kArea:
            return 0.0;
          case Metric::kEdp:
          case Metric::kEdap:
            return energy * latency;
          case Metric::kP99Latency:
            return single_stream_p99(latency);
          default:
            return kNaN;
        }
      };
      double expected = spec.offset();
      for (Metric metric : spec.referenced()) {
        expected += spec.weight(metric) * slot_score(metric);
      }
      EXPECT_DOUBLE_EQ(spec.mapper_score(energy, latency), expected)
          << text << " at (" << energy << ", " << latency << ")";
    }
  }
}

TEST(ParetoAxes, CannedStaysLegacyAndReferencedExtrasAppend) {
  const std::vector<Metric> legacy = {Metric::kEnergy, Metric::kLatency,
                                      Metric::kArea};
  EXPECT_EQ(pareto_axes(ObjectiveSpec()), legacy);
  EXPECT_EQ(pareto_axes(ObjectiveSpec::parse("latency")), legacy);
  // Non-canned specs keep the legacy triple and append rankable extras.
  EXPECT_EQ(pareto_axes(ObjectiveSpec::parse("area")), legacy);
  EXPECT_EQ(pareto_axes(ObjectiveSpec::parse("0.6*edp+0.4*area")), legacy);
  std::vector<Metric> with_p99 = legacy;
  with_p99.push_back(Metric::kP99Latency);
  EXPECT_EQ(pareto_axes(ObjectiveSpec::parse("p99_latency")), with_p99);
  std::vector<Metric> with_power = legacy;
  with_power.push_back(Metric::kPower);
  EXPECT_EQ(pareto_axes(ObjectiveSpec::parse("power")), with_power);
}

// ------------------------------------------------------ one batch fold

/// fold_batch must match the by-hand composition of aggregate_values and
/// derive_batch_metrics it replaced (the batch-totals dedup pin).
TEST(FoldBatch, MatchesHandRolledAggregateComposition) {
  const std::vector<BatchModelSlice> models = {
      {100.0, 10.0, 4.0, 1000.0, 2.0, 10.0, 0.2},
      {300.0, 50.0, 9.0, 5000.0, 1.0, 6.0, 0.2},
      {200.0, 20.0, 1.0, 3000.0, 0.5, 10.0, 0.3},
  };
  std::vector<double> energies, latencies, macs, weights, powers, tops;
  for (const BatchModelSlice& m : models) {
    energies.push_back(m.energy_pJ);
    latencies.push_back(m.latency_ns);
    macs.push_back(m.macs);
    weights.push_back(m.weight);
    powers.push_back(m.power_W);
    tops.push_back(m.tops);
  }
  for (BatchAggregate aggregate :
       {BatchAggregate::kSum, BatchAggregate::kMax,
        BatchAggregate::kWeighted}) {
    const BatchFold fold = fold_batch(aggregate, models);
    EXPECT_EQ(fold.energy_pJ, aggregate_values(aggregate, energies, weights));
    EXPECT_EQ(fold.latency_ns,
              aggregate_values(aggregate, latencies, weights));
    EXPECT_EQ(fold.macs, aggregate_values(aggregate, macs, weights));
    EXPECT_EQ(fold.area_mm2, 9.0);  // area is always the per-model max
    const BatchDerivedMetrics derived =
        derive_batch_metrics(aggregate, fold.energy_pJ, fold.latency_ns,
                             fold.macs, powers, tops);
    EXPECT_EQ(fold.power_W, derived.power_W);
    EXPECT_EQ(fold.tops, derived.tops);
  }
  // Empty fold: all zeros.
  const BatchFold empty = fold_batch(BatchAggregate::kSum, {});
  EXPECT_EQ(empty.energy_pJ, 0.0);
  EXPECT_EQ(empty.area_mm2, 0.0);
  EXPECT_EQ(empty.power_W, 0.0);
}

// ------------------------------------------- spec-driven mapping search

workload::Model converted_mlp() {
  workload::Model model = workload::mlp_mnist();
  workload::convert_model_in_place(model);
  return model;
}

arch::Architecture scatter_mzi_system() {
  static devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::ArchParams params;
  params.wavelengths = 1;
  arch::Architecture system("hetero");
  system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, lib));
  return system;
}

/// A non-canned spec that scores identically to canned edp ("1.0*edp"
/// normalizes to single-metric edp; single edp reads the E*L slot) must
/// produce the identical mapping and report through the real simulator.
TEST(ObjectiveSpecMapper, SingleEdpSpecMapsIdenticallyToCannedEdp) {
  const workload::Model model = converted_mlp();
  const arch::Architecture system = scatter_mzi_system();
  Simulator sim(system);
  Mapping canned_mapping, spec_mapping;
  const ModelReport canned_report =
      sim.simulate_model(model, GreedyMapper(), &canned_mapping);
  const ModelReport spec_report = sim.simulate_model(
      model, GreedyMapper(ObjectiveSpec::parse("1.0*edp")), &spec_mapping);
  EXPECT_EQ(canned_mapping.assignment, spec_mapping.assignment);
  EXPECT_EQ(canned_report.total_runtime_ns, spec_report.total_runtime_ns);
  EXPECT_EQ(canned_report.total_energy.total_pJ(),
            spec_report.total_energy.total_pJ());
}

/// Incompatible specs are rejected at mapper construction, before any
/// cost matrix is built, with the mapper_compatible diagnostic.
TEST(ObjectiveSpecMapper, MapperConstructionRejectsIncompatibleSpecs) {
  try {
    const GreedyMapper mapper(ObjectiveSpec::parse("latency,energy"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("GreedyMapper"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot drive a mapping search"), std::string::npos)
        << what;
    EXPECT_NE(what.find("lexicographic"), std::string::npos) << what;
  }
  EXPECT_THROW(BeamMapper(4, ObjectiveSpec::parse("power")),
               std::invalid_argument);
  EXPECT_THROW(BranchBoundMapper(ObjectiveSpec::parse("0.5*edp+0.5*edap")),
               std::invalid_argument);
}

}  // namespace
}  // namespace simphony::core
