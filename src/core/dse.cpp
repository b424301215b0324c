#include "core/dse.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/fingerprint.h"
#include "core/strategy.h"
#include "util/binio.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/gemm.h"

namespace simphony::core {

size_t ArchParamsHash::operator()(const arch::ArchParams& p) const {
  size_t seed = 0;
  util::hash_combine_value(seed, p.tiles);
  util::hash_combine_value(seed, p.cores_per_tile);
  util::hash_combine_value(seed, p.core_height);
  util::hash_combine_value(seed, p.core_width);
  util::hash_combine_value(seed, p.wavelengths);
  util::hash_combine_value(seed, p.clock_GHz);
  util::hash_combine_value(seed, p.input_bits);
  util::hash_combine_value(seed, p.weight_bits);
  util::hash_combine_value(seed, p.output_bits);
  return seed;
}

namespace {

std::vector<int> axis_or(const std::vector<int>& axis, int fallback) {
  return axis.empty() ? std::vector<int>{fallback} : axis;
}

void require_positive(const std::vector<int>& axis, const char* name) {
  for (int v : axis) {
    if (v <= 0) {
      throw std::invalid_argument(std::string(name) +
                                  " values must be positive");
    }
  }
}

/// The candidate values of the seven axes in canonical order, with the
/// "keep base" sentinel semantics shared by grid enumeration and the
/// samplers.  0 marks "axis not swept" (rejected above as a user value)
/// for the size/width/bits axes: the base core_height/core_width pair is
/// kept as-is so a non-square base architecture survives other sweeps,
/// and per-layer operand/output bits stay with the workload.
struct ResolvedAxes {
  std::vector<int> tiles;
  std::vector<int> cores;
  std::vector<int> sizes;
  std::vector<int> widths;
  std::vector<int> wavelengths;
  std::vector<int> in_bits;
  std::vector<int> out_bits;
};

ResolvedAxes resolve_axes(const DseSpace& space) {
  require_positive(space.core_sizes, "core_sizes");
  require_positive(space.core_widths, "core_widths");
  require_positive(space.input_bits, "input_bits");
  require_positive(space.output_bits, "output_bits");
  return ResolvedAxes{axis_or(space.tiles, space.base.tiles),
                      axis_or(space.cores_per_tile, space.base.cores_per_tile),
                      axis_or(space.core_sizes, 0),
                      axis_or(space.core_widths, 0),
                      axis_or(space.wavelengths, space.base.wavelengths),
                      axis_or(space.input_bits, 0),
                      axis_or(space.output_bits, 0)};
}

arch::ArchParams make_point(const DseSpace& space, int tiles, int cores,
                            int hw, int width, int lambda, int bits,
                            int out_bits) {
  arch::ArchParams p = space.base;
  p.tiles = tiles;
  p.cores_per_tile = cores;
  if (hw > 0) {
    p.core_height = hw;
    p.core_width = hw;
  }
  if (width > 0) p.core_width = width;  // decoupled W wins over H = W
  p.wavelengths = lambda;
  if (bits > 0) {
    p.input_bits = bits;
    p.weight_bits = bits;
  }  // unswept: keep base input/weight bits, which may differ
  if (out_bits > 0) p.output_bits = out_bits;
  return p;
}

/// Materializes one design point's architecture (one sub-architecture per
/// template, all at `params`) and wraps it in a Simulator sharing the
/// cross-point cost cache.  This construction is the per-point cost the
/// batched overloads amortize across models.
Simulator make_point_simulator(
    const std::vector<std::shared_ptr<const arch::PtcTemplate>>&
        ptc_templates,
    const devlib::DeviceLibrary& lib, const arch::ArchParams& params,
    CostMatrixCache* cost_cache) {
  std::string arch_name = "dse-" + ptc_templates.front()->name;
  for (size_t t = 1; t < ptc_templates.size(); ++t) {
    arch_name += "+" + ptc_templates[t]->name;
  }
  arch::Architecture system(std::move(arch_name));
  for (const auto& ptc_template : ptc_templates) {
    system.add_subarch(arch::SubArchitecture(ptc_template, params, lib));
  }
  SimulationOptions sim_options;
  sim_options.cost_cache = cost_cache;
  return Simulator(std::move(system), sim_options);
}

/// Runs one model's GEMMs on a point's Simulator, applying the swept bit
/// axes (only an explicitly swept axis overrides the per-layer operand
/// resolutions the model carries).  Totals-only: the DSE objective needs
/// just the aggregate figures, so the per-layer reports are never
/// materialized (simulate_gemms_totals accumulates straight off the cost
/// matrix, bit-identically to the full-report path).  `base_gemm_keys`
/// (optional) are precomputed fingerprints of `base_gemms`; they are only
/// consulted when no bit axis rewrites the GEMMs.
ModelTotals simulate_point_model(
    const Simulator& sim, const std::vector<workload::GemmWorkload>& base_gemms,
    const arch::ArchParams& params, bool override_input_bits,
    bool override_output_bits, const Mapper* mapper,
    const uint64_t* base_gemm_keys) {
  const RuleMapper subarch0{MappingConfig(0)};  // the pre-mapper behavior
  const Mapper& chosen_mapper =
      mapper != nullptr ? *mapper : static_cast<const Mapper&>(subarch0);

  if (!override_input_bits && !override_output_bits) {
    return sim.simulate_gemms_totals(base_gemms, chosen_mapper, nullptr,
                                     base_gemm_keys);
  }
  std::vector<workload::GemmWorkload> gemms = base_gemms;
  for (auto& gemm : gemms) {
    if (override_input_bits) {
      gemm.input_bits = params.input_bits;
      gemm.weight_bits = params.weight_bits;
    }
    if (override_output_bits) gemm.output_bits = params.output_bits;
  }
  // The rewrite changes the GEMMs' fingerprints: recompute, never reuse.
  return sim.simulate_gemms_totals(gemms, chosen_mapper, nullptr, nullptr);
}

/// Costs one parameter point.  All heavyweight inputs (templates, library,
/// extracted GEMMs) are shared immutably across concurrent callers; the
/// only per-point allocations are the materialized sub-architectures and a
/// vector of small GemmWorkload records whose weight tensors still point
/// into the caller's Model.  With a mapper set, the point is costed under
/// the layer-to-sub-arch assignment that mapper picks for it; otherwise
/// everything runs on sub-arch 0 (the pre-mapper behavior).
DsePoint evaluate_point(
    const std::vector<std::shared_ptr<const arch::PtcTemplate>>&
        ptc_templates,
    const devlib::DeviceLibrary& lib,
    const std::vector<workload::GemmWorkload>& base_gemms,
    const arch::ArchParams& params, bool override_input_bits,
    bool override_output_bits, const Mapper* mapper,
    CostMatrixCache* cost_cache, const uint64_t* base_gemm_keys,
    bool want_p99) {
  const Simulator sim =
      make_point_simulator(ptc_templates, lib, params, cost_cache);
  const ModelTotals totals =
      simulate_point_model(sim, base_gemms, params, override_input_bits,
                           override_output_bits, mapper, base_gemm_keys);

  DsePoint point;
  point.params = params;
  point.energy_pJ = totals.energy_pJ();
  point.latency_ns = totals.runtime_ns;
  point.area_mm2 = totals.total_area_mm2();
  point.power_W = totals.average_power_W();
  point.tops = totals.tops();
  if (want_p99) {
    // Single-model stream: the single-service-time tail formula.
    const double latency = totals.runtime_ns;
    const double one = 1.0;
    point.p99_latency_ns = p99_latency_ns(&latency, &one, 1);
  }
  return point;
}

/// Costs one parameter point for a whole WorkloadSet: the architecture is
/// materialized ONCE and every model runs on it (per-model memory sizing
/// and mapping search, exactly the simulate_point_model flow — per-model
/// metrics are bit-identical to a single-model explore of that model).
/// The point's objective metrics are the aggregate fold over the batch;
/// area is the per-model max (one chip must fit every model's memory
/// sizing).
DsePoint evaluate_batch_point(
    const std::vector<std::shared_ptr<const arch::PtcTemplate>>&
        ptc_templates,
    const devlib::DeviceLibrary& lib, const WorkloadSet& workloads,
    const arch::ArchParams& params, bool override_input_bits,
    bool override_output_bits, const Mapper* mapper,
    CostMatrixCache* cost_cache, BatchAggregate aggregate, bool want_p99) {
  const Simulator sim =
      make_point_simulator(ptc_templates, lib, params, cost_cache);

  DsePoint point;
  point.params = params;
  point.per_model.reserve(workloads.size());
  std::vector<BatchModelSlice> slices;
  slices.reserve(workloads.size());
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadSet::Entry& entry = workloads.at(i);
    const ModelTotals totals =
        simulate_point_model(sim, entry.gemms, params, override_input_bits,
                             override_output_bits, mapper,
                             entry.gemm_fingerprints.data());
    DseModelMetrics metrics;
    metrics.model = entry.name;
    metrics.weight = entry.weight;
    metrics.energy_pJ = totals.energy_pJ();
    metrics.latency_ns = totals.runtime_ns;
    metrics.area_mm2 = totals.total_area_mm2();
    metrics.power_W = totals.average_power_W();
    metrics.tops = totals.tops();
    BatchModelSlice slice;
    slice.energy_pJ = metrics.energy_pJ;
    slice.latency_ns = metrics.latency_ns;
    slice.area_mm2 = metrics.area_mm2;
    slice.macs = totals.macs;
    slice.weight = entry.weight;
    slice.power_W = metrics.power_W;
    slice.tops = metrics.tops;
    slices.push_back(slice);
    point.per_model.push_back(std::move(metrics));
  }
  const BatchFold fold = fold_batch(aggregate, slices);
  point.energy_pJ = fold.energy_pJ;
  point.latency_ns = fold.latency_ns;
  point.area_mm2 = fold.area_mm2;
  point.power_W = fold.power_W;
  point.tops = fold.tops;
  if (want_p99) {
    // Tail latency of the batch as an arrival mix: each model is a job
    // class whose service time is its end-to-end latency and whose arrival
    // share is its batch weight (M/G/1 approximation, see core/metrics.h).
    std::vector<double> latencies;
    std::vector<double> weights;
    latencies.reserve(slices.size());
    weights.reserve(slices.size());
    for (const BatchModelSlice& slice : slices) {
      latencies.push_back(slice.latency_ns);
      weights.push_back(slice.weight);
    }
    point.p99_latency_ns = p99_latency_ns(latencies, weights);
  }
  return point;
}

}  // namespace

std::vector<arch::ArchParams> DseSpace::enumerate() const {
  const ResolvedAxes axes = resolve_axes(*this);
  std::vector<arch::ArchParams> grid;
  for (int tiles : axes.tiles) {
    for (int cores : axes.cores) {
      for (int hw : axes.sizes) {
        for (int width : axes.widths) {
          for (int lambda : axes.wavelengths) {
            for (int bits : axes.in_bits) {
              for (int out_bits : axes.out_bits) {
                grid.push_back(make_point(*this, tiles, cores, hw, width,
                                          lambda, bits, out_bits));
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

size_t DseSpace::size() const {
  const ResolvedAxes axes = resolve_axes(*this);
  size_t total = 1;
  for (size_t axis : {axes.tiles.size(), axes.cores.size(),
                      axes.sizes.size(), axes.widths.size(),
                      axes.wavelengths.size(), axes.in_bits.size(),
                      axes.out_bits.size()}) {
    // The whole point of size() is gauging spaces too big to
    // materialize; a silently wrapped product would report them tiny.
    if (__builtin_mul_overflow(total, axis, &total)) {
      throw std::overflow_error("DseSpace::size() overflows size_t");
    }
  }
  return total;
}

std::vector<arch::ArchParams> RandomSampler::sample(
    const DseSpace& space) const {
  const ResolvedAxes axes = resolve_axes(space);
  util::Rng rng(seed_);
  auto pick = [&rng](const std::vector<int>& axis) {
    return axis[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(axis.size()) - 1))];
  };
  auto draw = [&] {
    // Sequential named draws: one rng call per axis in canonical order,
    // so the stream (and thus the sample list) is stable for a seed.
    const int tiles = pick(axes.tiles);
    const int cores = pick(axes.cores);
    const int hw = pick(axes.sizes);
    const int width = pick(axes.widths);
    const int lambda = pick(axes.wavelengths);
    const int bits = pick(axes.in_bits);
    const int out_bits = pick(axes.out_bits);
    return make_point(space, tiles, cores, hw, width, lambda, bits, out_bits);
  };
  // Redraw on duplicate so `--samples N` means N *distinct* design points
  // whenever the space affords them (the eval cache silently collapsed
  // repeats before).  The retry budget is bounded: on spaces with fewer
  // than N reachable points the sampler falls back to keeping duplicates
  // rather than looping forever, and says so once on stderr.  Redraws
  // consume the rng stream deterministically, so a fixed seed still
  // reproduces the exact sample list.
  constexpr int kMaxRedraws = 64;
  std::unordered_set<arch::ArchParams, ArchParamsHash> seen;
  seen.reserve(samples_);
  std::vector<arch::ArchParams> points;
  points.reserve(samples_);
  size_t duplicates = 0;
  for (size_t i = 0; i < samples_; ++i) {
    arch::ArchParams point = draw();
    for (int retry = 0; retry < kMaxRedraws && seen.count(point) != 0;
         ++retry) {
      point = draw();
    }
    if (!seen.insert(point).second) ++duplicates;
    points.push_back(std::move(point));
  }
  if (duplicates > 0) {
    std::fprintf(stderr,
                 "warning: random sampler kept %zu duplicate point(s) after "
                 "%d redraws each; the space offers fewer than %zu "
                 "easy-to-reach distinct points\n",
                 duplicates, kMaxRedraws, samples_);
  }
  return points;
}

std::vector<arch::ArchParams> LatinHypercubeSampler::sample(
    const DseSpace& space) const {
  const ResolvedAxes axes = resolve_axes(space);
  util::Rng rng(seed_);
  const size_t n = samples_;
  // One stratified-then-permuted column per axis: sample j lands in
  // stratum j of [0, 1), maps to a value index, and a seeded Fisher-Yates
  // shuffle decorrelates the axes.  Marginal coverage of every axis is
  // near-uniform even when n is far below the grid size.
  auto column = [&rng, n](const std::vector<int>& axis) {
    std::vector<int> values(n);
    const double k = static_cast<double>(axis.size());
    for (size_t j = 0; j < n; ++j) {
      const double pos =
          (static_cast<double>(j) + rng.uniform(0.0, 1.0)) /
          static_cast<double>(n);
      const size_t idx = std::min(axis.size() - 1,
                                  static_cast<size_t>(pos * k));
      values[j] = axis[idx];
    }
    for (size_t j = n; j > 1; --j) {  // hand-rolled: std::shuffle's
      const size_t other = static_cast<size_t>(  // draws are unspecified
          rng.uniform_int(0, static_cast<int64_t>(j) - 1));
      std::swap(values[j - 1], values[other]);
    }
    return values;
  };
  const std::vector<int> tiles = column(axes.tiles);
  const std::vector<int> cores = column(axes.cores);
  const std::vector<int> sizes = column(axes.sizes);
  const std::vector<int> widths = column(axes.widths);
  const std::vector<int> wavelengths = column(axes.wavelengths);
  const std::vector<int> in_bits = column(axes.in_bits);
  const std::vector<int> out_bits = column(axes.out_bits);

  std::vector<arch::ArchParams> points;
  points.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    points.push_back(make_point(space, tiles[j], cores[j], sizes[j],
                                widths[j], wavelengths[j], in_bits[j],
                                out_bits[j]));
  }
  return points;
}

std::vector<DsePoint> DseResult::frontier() const {
  std::vector<DsePoint> out;
  for (const auto& p : points) {
    if (p.pareto) out.push_back(p);
  }
  return out;
}

const DsePoint& DseResult::best_edap() const {
  if (points.empty()) throw std::runtime_error("empty DSE result");
  const DsePoint* best = &points.front();
  for (const auto& p : points) {
    if (p.edap() < best->edap()) best = &p;
  }
  return *best;
}

double DsePoint::metric(Metric m) const {
  switch (m) {
    case Metric::kEnergy:
      return energy_pJ;
    case Metric::kLatency:
      return latency_ns;
    case Metric::kArea:
      return area_mm2;
    case Metric::kPower:
      return power_W;
    case Metric::kEdp:
      return energy_pJ * latency_ns;
    case Metric::kEdap:
      return edap();
    case Metric::kP99Latency:
      return p99_latency_ns;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

MetricVector DsePoint::metrics() const {
  MetricVector v =
      MetricVector::of(energy_pJ, latency_ns, area_mm2, power_W);
  v.set(Metric::kP99Latency, p99_latency_ns);
  return v;
}

void mark_pareto_frontier(std::vector<DsePoint>& points,
                          const std::vector<Metric>& axes) {
  if (axes.empty()) {
    throw std::invalid_argument("mark_pareto_frontier: empty axis list");
  }
  // Gather each point's tuple once.  A non-finite value on any axis keeps
  // the point off the frontier and out of the sort: NaN (e.g. parsed back
  // from a shard file's null) breaks the comparator's strict weak
  // ordering, and inf must get NaN's verdict because serialization
  // collapses both to null — otherwise a merged shard file could disagree
  // with the unsharded in-memory run.
  const size_t d = axes.size();
  std::vector<double> rows(points.size() * d);  // row-major tuples
  const auto row = [&](size_t i) { return rows.data() + i * d; };
  std::vector<size_t> order;  // the finite points
  order.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].pareto = false;
    double* tuple = row(i);
    for (size_t k = 0; k < d; ++k) tuple[k] = points[i].metric(axes[k]);
    if (std::all_of(tuple, tuple + d,
                    [](double v) { return std::isfinite(v); })) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(row(a), row(a) + d, row(b),
                                        row(b) + d);
  });

  // Skyline: every point sorted before p is lexicographically smaller, so
  // p is dominated iff an earlier point with a different tuple is <= p on
  // every axis, and by transitivity it suffices to test the points
  // already accepted onto the frontier.  Identical tuples never dominate
  // each other, so each run of them shares one verdict.
  std::vector<size_t> frontier;
  for (size_t i = 0; i < order.size();) {
    const double* p = row(order[i]);
    size_t j = i + 1;
    while (j < order.size() && std::equal(p, p + d, row(order[j]))) ++j;
    const bool dominated =
        std::any_of(frontier.begin(), frontier.end(), [&](size_t f) {
          const double* q = row(f);
          // Axis 0 is the sort key, so q[0] <= p[0] already holds.
          for (size_t k = 1; k < d; ++k) {
            if (q[k] > p[k]) return false;
          }
          return true;
        });
    if (!dominated) {
      frontier.push_back(order[i]);
      for (size_t k = i; k < j; ++k) points[order[k]].pareto = true;
    }
    i = j;
  }
}

DseResult merge(std::vector<DseResult> shards,
                const std::vector<Metric>& axes) {
  DseResult merged;
  size_t total = 0;
  for (const auto& shard : shards) total += shard.points.size();
  merged.points.reserve(total);
  for (auto& shard : shards) {
    for (auto& point : shard.points) {
      merged.points.push_back(std::move(point));
    }
  }
  std::stable_sort(
      merged.points.begin(), merged.points.end(),
      [](const DsePoint& a, const DsePoint& b) { return a.index < b.index; });
  for (size_t i = 1; i < merged.points.size(); ++i) {
    if (merged.points[i - 1].index == merged.points[i].index) {
      throw std::invalid_argument(
          "merge: duplicate canonical point index " +
          std::to_string(merged.points[i].index) + " (overlapping shards?)");
    }
  }
  mark_pareto_frontier(merged.points, axes);
  return merged;
}

namespace {

const util::Json& require_field(const util::Json& j, const std::string& key) {
  if (!j.is_object() || !j.contains(key)) {
    throw std::invalid_argument("DSE point JSON missing field '" + key +
                                "'");
  }
  return j.at(key);
}

/// Metric field: the writer emits null for non-finite values, so null
/// parses back as NaN.
double metric_from(const util::Json& j, const std::string& key) {
  const util::Json& v = require_field(j, key);
  if (v.is_null()) return std::numeric_limits<double>::quiet_NaN();
  return v.as_number();
}

int int_from(const util::Json& j, const std::string& key) {
  const double d = require_field(j, key).as_number();
  if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("DSE point JSON field '" + key +
                                "' is not an integer");
  }
  return static_cast<int>(d);
}

}  // namespace

util::Json to_json(const DsePoint& point) {
  util::Json j;
  j["index"] = point.index;
  j["tiles"] = point.params.tiles;
  j["cores_per_tile"] = point.params.cores_per_tile;
  j["core_height"] = point.params.core_height;
  j["core_width"] = point.params.core_width;
  j["wavelengths"] = point.params.wavelengths;
  j["clock_GHz"] = point.params.clock_GHz;
  j["input_bits"] = point.params.input_bits;
  j["weight_bits"] = point.params.weight_bits;
  j["output_bits"] = point.params.output_bits;
  j["energy_pJ"] = point.energy_pJ;
  j["latency_ns"] = point.latency_ns;
  j["area_mm2"] = point.area_mm2;
  j["power_W"] = point.power_W;
  j["tops"] = point.tops;
  // Tail latency rides along only when the sweep's objective asked for it
  // (the evaluator leaves it NaN otherwise), so every legacy document is
  // byte-identical.
  if (std::isfinite(point.p99_latency_ns)) {
    j["p99_latency_ns"] = point.p99_latency_ns;
  }
  j["pareto"] = point.pareto;
  // Strategy provenance: only points a multi-rung strategy produced carry
  // a rung, so one-shot documents stay byte-identical to older files.
  if (point.rung >= 0) j["rung"] = point.rung;
  // Batched points carry their per-model rows; single-model points omit
  // the field entirely, keeping pre-batch documents byte-identical.
  if (!point.per_model.empty()) {
    util::Json models{util::Json::Array{}};
    for (const DseModelMetrics& m : point.per_model) {
      util::Json mj;
      mj["model"] = m.model;
      mj["weight"] = m.weight;
      mj["energy_pJ"] = m.energy_pJ;
      mj["latency_ns"] = m.latency_ns;
      mj["area_mm2"] = m.area_mm2;
      mj["power_W"] = m.power_W;
      mj["tops"] = m.tops;
      models.push_back(std::move(mj));
    }
    j["models"] = std::move(models);
  }
  return j;
}

DsePoint dse_point_from_json(const util::Json& j) {
  DsePoint point;
  if (j.contains("index")) {
    const double index = j.at("index").as_number();
    if (index < 0.0 || index != std::floor(index) || index >= 0x1p53) {
      throw std::invalid_argument(
          "DSE point JSON field 'index' is not a non-negative integer");
    }
    point.index = static_cast<size_t>(index);
  }
  point.params.tiles = int_from(j, "tiles");
  point.params.cores_per_tile = int_from(j, "cores_per_tile");
  point.params.core_height = int_from(j, "core_height");
  point.params.core_width = int_from(j, "core_width");
  point.params.wavelengths = int_from(j, "wavelengths");
  // Pre-sharding files never recorded the clock; keep the ArchParams
  // default so they stay loadable (like the missing-"index" fallback).
  if (j.contains("clock_GHz")) {
    point.params.clock_GHz = j.at("clock_GHz").as_number();
  }
  point.params.input_bits = int_from(j, "input_bits");
  point.params.weight_bits = int_from(j, "weight_bits");
  point.params.output_bits = int_from(j, "output_bits");
  point.energy_pJ = metric_from(j, "energy_pJ");
  point.latency_ns = metric_from(j, "latency_ns");
  point.area_mm2 = metric_from(j, "area_mm2");
  point.power_W = metric_from(j, "power_W");
  point.tops = metric_from(j, "tops");
  if (j.contains("p99_latency_ns")) {
    const util::Json& v = j.at("p99_latency_ns");
    point.p99_latency_ns =
        v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                    : v.as_number();
  }
  point.pareto = j.contains("pareto") && j.at("pareto").as_bool();
  if (j.contains("rung")) point.rung = int_from(j, "rung");
  if (j.contains("models")) {
    const util::Json::Array& models = j.at("models").as_array();
    point.per_model.reserve(models.size());
    for (const util::Json& mj : models) {
      DseModelMetrics m;
      m.model = require_field(mj, "model").as_string();
      m.weight = require_field(mj, "weight").as_number();
      m.energy_pJ = metric_from(mj, "energy_pJ");
      m.latency_ns = metric_from(mj, "latency_ns");
      m.area_mm2 = metric_from(mj, "area_mm2");
      m.power_W = metric_from(mj, "power_W");
      m.tops = metric_from(mj, "tops");
      point.per_model.push_back(std::move(m));
    }
  }
  return point;
}

// ---------------------------------------------------------- DseShardWriter

namespace {

/// Back-compat sink over a caller-owned std::ostream (stringstreams in
/// tests, pre-durability file streams).  No commit step.
class OstreamSink final : public ShardSink {
 public:
  explicit OstreamSink(std::ostream& out) : out_(&out) {}
  void write(const std::string& text) override { *out_ << text; }
  uint64_t tell() override {
    return static_cast<uint64_t>(out_->tellp());
  }
  void seek(uint64_t pos) override {
    out_->seekp(static_cast<std::ostream::pos_type>(pos));
  }
  void flush() override { out_->flush(); }

 private:
  std::ostream* out_;
};

/// Durable file sink: all bytes land in `path + ".tmp"`; every flush()
/// is an fflush + fsync (the in-progress file survives a hard kill up to
/// the last completed point); commit() renames the temp file onto
/// `path`, so the final document appears atomically.  Reuses
/// util::AtomicFileOutputStream's open/rename plumbing indirectly via
/// plain stdio here because the shard writer needs seek support, which
/// the append-only binio stream deliberately does not offer.
class AtomicFileSink final : public ShardSink {
 public:
  explicit AtomicFileSink(std::string path)
      : path_(std::move(path)), temp_path_(path_ + ".tmp") {
    file_ = std::fopen(temp_path_.c_str(), "wb");
    if (file_ == nullptr) {
      throw util::IoError("cannot open '" + temp_path_ +
                          "' for writing: " + std::strerror(errno));
    }
  }

  ~AtomicFileSink() override {
    // Uncommitted: keep the temp file — it is the --resume artifact.
    if (file_ != nullptr) std::fclose(file_);
  }

  void write(const std::string& text) override {
    require_open("write");
    if (std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
      throw util::IoError("write failed on '" + temp_path_ + "' at byte " +
                          std::to_string(tell_raw()) + ": " +
                          std::strerror(errno));
    }
  }

  uint64_t tell() override {
    require_open("tell");
    return tell_raw();
  }

  void seek(uint64_t pos) override {
    require_open("seek");
    if (std::fseek(file_, static_cast<long>(pos), SEEK_SET) != 0) {
      throw util::IoError("seek failed on '" + temp_path_ + "' to byte " +
                          std::to_string(pos) + ": " + std::strerror(errno));
    }
  }

  void flush() override {
    require_open("flush");
    if (std::fflush(file_) != 0) {
      throw util::IoError("flush failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
#ifndef _WIN32
    if (::fsync(fileno(file_)) != 0) {
      throw util::IoError("fsync failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
#endif
  }

  void commit() override {
    require_open("commit");
    flush();
    std::FILE* file = std::exchange(file_, nullptr);
    if (std::fclose(file) != 0) {
      throw util::IoError("close failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
    if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
      throw util::IoError("rename '" + temp_path_ + "' -> '" + path_ +
                          "' failed: " + std::strerror(errno));
    }
  }

 private:
  uint64_t tell_raw() {
    const long pos = std::ftell(file_);
    if (pos < 0) {
      throw util::IoError("tell failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
    return static_cast<uint64_t>(pos);
  }

  void require_open(const char* op) {
    if (file_ == nullptr) {
      throw util::IoError(std::string(op) + " on '" + path_ +
                          "' after commit");
    }
  }

  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
};

}  // namespace

DseShardWriter::DseShardWriter(std::unique_ptr<ShardSink> sink,
                               Metadata metadata)
    : sink_(std::move(sink)) {
  std::string header;
  header += "{\n\"arch\": " + util::Json(metadata.arch).dump(-1);
  header += ",\n\"model\": " + util::Json(metadata.model).dump(-1);
  header += ",\n\"sampler\": " + util::Json(metadata.sampler).dump(-1);
  if (metadata.report_distinct) {
    header += ",\n\"distinct\": " + std::to_string(metadata.distinct);
  }
  if (!metadata.aggregate.empty()) {
    header += ",\n\"aggregate\": " + util::Json(metadata.aggregate).dump(-1);
  }
  if (!metadata.objective.empty()) {
    header += ",\n\"objective\": " + util::Json(metadata.objective).dump(-1);
  }
  if (!metadata.strategy.empty()) {
    header += ",\n\"strategy\": {\"name\": " +
              util::Json(metadata.strategy).dump(-1);
    if (metadata.eta > 0) header += ", \"eta\": " + std::to_string(metadata.eta);
    if (metadata.rungs > 0) {
      header += ", \"rungs\": " + std::to_string(metadata.rungs);
    }
    if (metadata.refine_rounds > 0) {
      header += ", \"refine_rounds\": " +
                std::to_string(metadata.refine_rounds);
    }
    header += "}";
  }
  header += ",\n\"shard\": {\"count\": " + std::to_string(metadata.shard.count) +
            ", \"index\": " + std::to_string(metadata.shard.index) + "}";
  header += ",\n\"total_points\": " + std::to_string(metadata.total_points);
  header += ",\n\"points\": [";
  sink_->write(header);
  // Terminate the document immediately: a sweep killed while its first
  // (possibly expensive) point is still simulating must already leave a
  // parseable zero-point shard on disk.
  header_end_ = sink_->tell();
  sink_->write("\n]\n}\n");
  sink_->flush();
  sink_->seek(header_end_);
}

DseShardWriter::DseShardWriter(std::ostream& out, Metadata metadata)
    : DseShardWriter(std::make_unique<OstreamSink>(out),
                     std::move(metadata)) {}

DseShardWriter::DseShardWriter(const std::string& path, Metadata metadata)
    : DseShardWriter(std::make_unique<AtomicFileSink>(path),
                     std::move(metadata)) {}

void DseShardWriter::add_point(const DsePoint& point) {
  if (finished_) {
    throw std::logic_error("DseShardWriter: add_point after finish");
  }
  std::string record = to_json(point).dump(-1);
  if (!points_.empty() && points_.back().first >= point.index) {
    in_index_order_ = false;
  }
  sink_->write((points_.empty() ? "\n" : ",\n") + record);
  points_.emplace_back(point.index, std::move(record));
  // Re-terminate the document, flush it, then seek the put pointer back
  // over the footer: the bytes on disk always form a complete document,
  // and the next point simply overwrites the footer.
  const uint64_t point_end = sink_->tell();
  sink_->write("\n]\n}\n");
  sink_->flush();
  sink_->seek(point_end);
}

void DseShardWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // The footer is already in the stream past the put pointer — the
  // constructor wrote it for the zero-point state and every add_point
  // rewrote it.  Points streamed out of index order (a parallel sweep's
  // completion order, which is what --resume salvages from the temp
  // file) are rewritten in canonical index order first, so the published
  // document is the same bytes at any thread count.  The rewrite covers
  // exactly the bytes it replaces: same records, same separators.
  if (!in_index_order_) {
    std::stable_sort(
        points_.begin(), points_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    sink_->seek(header_end_);
    for (size_t i = 0; i < points_.size(); ++i) {
      sink_->write((i == 0 ? "\n" : ",\n") + points_[i].second);
    }
  }
  // Flush the last bytes, then let the sink finalize (atomic rename for
  // the file-backed writer).
  sink_->flush();
  sink_->commit();
}

DseShardWriter::~DseShardWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an uncommitted file sink keeps its
    // temp file on disk as the recovery artifact.
  }
}

// --------------------------------------------------------- shard recovery

namespace {

[[noreturn]] void recovery_fail(const std::string& origin,
                                const std::string& what) {
  throw std::invalid_argument(
      (origin.empty() ? std::string() : origin + ": ") + what);
}

}  // namespace

DseShardWriter::Metadata DseShardWriter::Metadata::from_json(
    const util::Json& root) {
  // Absent fields keep `fallback`; present ones must have the right type.
  const auto text = [](const util::Json& j, const char* key,
                       const char* fallback) {
    return j.contains(key) ? j.at(key).as_string() : std::string(fallback);
  };
  const auto count = [](const util::Json& j, const char* key,
                        size_t fallback) {
    if (!j.contains(key)) return fallback;
    const double value = j.at(key).as_number();
    if (value < 0 || value != std::floor(value) || value >= 0x1p31) {
      throw std::invalid_argument(std::string("sweep header field '") + key +
                                  "' is not a non-negative integer");
    }
    return static_cast<size_t>(value);
  };
  Metadata meta;
  meta.arch = text(root, "arch", "");
  meta.model = text(root, "model", "");
  meta.sampler = text(root, "sampler", "grid");
  meta.report_distinct = root.contains("distinct");
  meta.distinct = count(root, "distinct", 0);
  meta.aggregate = text(root, "aggregate", "");
  meta.objective = text(root, "objective", "");
  if (root.contains("strategy")) {
    const util::Json& strategy = root.at("strategy");
    meta.strategy = strategy.at("name").as_string();
    meta.eta = static_cast<int>(count(strategy, "eta", 0));
    meta.rungs = static_cast<int>(count(strategy, "rungs", 0));
    meta.refine_rounds = static_cast<int>(count(strategy, "refine_rounds", 0));
  }
  if (root.contains("shard")) {
    meta.shard.count = static_cast<int>(count(root.at("shard"), "count", 1));
    meta.shard.index = static_cast<int>(count(root.at("shard"), "index", 0));
  }
  meta.total_points = count(root, "total_points", 0);
  return meta;
}

void DseShardWriter::Metadata::require_same_sweep(
    const Metadata& other, const std::string& origin,
    const std::string& against, bool compare_shard) const {
  // Every compared field as "name=value", strings JSON-quoted so equal
  // lists mean equal headers; a mismatch names the differing fields.
  const auto fields = [compare_shard](const Metadata& m) {
    const auto quote = [](const std::string& s) {
      return util::Json(s).dump(-1);
    };
    std::vector<std::string> list = {
        "arch=" + quote(m.arch), "model=" + quote(m.model),
        "sampler=" + quote(m.sampler),
        "distinct=" + (m.report_distinct ? std::to_string(m.distinct) : "-"),
        "aggregate=" + quote(m.aggregate), "objective=" + quote(m.objective),
        "strategy=" + quote(m.strategy), "eta=" + std::to_string(m.eta),
        "rungs=" + std::to_string(m.rungs),
        "refine_rounds=" + std::to_string(m.refine_rounds),
        "total_points=" + std::to_string(m.total_points)};
    if (compare_shard) {
      list.push_back("shard=" + std::to_string(m.shard.index) + "/" +
                     std::to_string(m.shard.count));
    }
    return list;
  };
  const std::vector<std::string> theirs = fields(other);
  const std::vector<std::string> ours = fields(*this);
  std::string diff;
  for (size_t i = 0; i < theirs.size(); ++i) {
    if (theirs[i] == ours[i]) continue;
    diff += (diff.empty() ? "" : ", ") + theirs[i] + " vs " + ours[i];
  }
  if (diff.empty()) return;
  throw std::invalid_argument(
      (origin.empty() ? std::string() : origin + ": ") +
      "metadata mismatch, a different sweep than " + against + " (" + diff +
      ")");
}

ShardRecovery recover_shard_text(const std::string& text,
                                 const std::string& origin) {
  ShardRecovery recovery;
  recovery.origin = origin;

  // Fast path: an untorn document (every between-points kill state the
  // writer can leave behind, and every finished file) parses whole.
  try {
    const util::Json root = util::Json::parse(text);
    recovery.metadata = DseShardWriter::Metadata::from_json(root);
    recovery.result = dse_result_from_json(root);
    recovery.complete = true;
    return recovery;
  } catch (const std::invalid_argument&) {
    // Torn inside a write: fall through to line-based salvage.
  }

  // The writer emits "points": [ then one point per line, so the header
  // is everything before the marker and each body line is one point.
  static const std::string kMarker = "\"points\": [";
  const size_t marker = text.find(kMarker);
  if (marker == std::string::npos) {
    recovery_fail(origin,
                  "shard document unrecoverable: torn before the "
                  "\"points\" array (no metadata salvageable)");
  }
  const size_t body_start = marker + kMarker.size();
  try {
    const util::Json header =
        util::Json::parse(text.substr(0, body_start) + "]}");
    recovery.metadata = DseShardWriter::Metadata::from_json(header);
  } catch (const std::invalid_argument& error) {
    recovery_fail(origin, std::string("shard header unrecoverable: ") +
                              error.what());
  }

  // Greedy per-line point parse; the first torn line ends the salvage.
  size_t cursor = body_start;
  size_t valid_end = body_start;
  while (cursor < text.size()) {
    size_t line_end = text.find('\n', cursor);
    if (line_end == std::string::npos) line_end = text.size();
    std::string line = text.substr(cursor, line_end - cursor);
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (!line.empty() && line != "]" && line != "}") {
      try {
        recovery.result.points.push_back(
            dse_point_from_json(util::Json::parse(line)));
        valid_end = line_end;
      } catch (const std::invalid_argument&) {
        break;  // torn (or foreign) line: keep the prefix before it
      }
    }
    cursor = line_end + 1;
  }
  recovery.truncated_at = valid_end;
  recovery.message =
      (origin.empty() ? std::string("shard document") : origin) +
      " torn at byte " + std::to_string(valid_end) + "; recovered " +
      std::to_string(recovery.result.points.size()) + " point(s)";
  return recovery;
}

util::Json to_json(const DseResult& result) {
  util::Json points{util::Json::Array{}};
  for (const auto& point : result.points) points.push_back(to_json(point));
  util::Json j;
  j["points"] = std::move(points);
  return j;
}

DseResult dse_result_from_json(const util::Json& j) {
  const util::Json::Array& array =
      j.is_array() ? j.as_array() : require_field(j, "points").as_array();
  DseResult result;
  result.points.reserve(array.size());
  for (size_t i = 0; i < array.size(); ++i) {
    DsePoint point = dse_point_from_json(array[i]);
    // Pre-sharding files carry no index: the array position is canonical.
    if (!array[i].contains("index")) point.index = i;
    result.points.push_back(std::move(point));
  }
  return result;
}

namespace {

/// The exploration engine shared by the single-model and batched
/// overloads.  It validates the shard, builds the canonical point list,
/// hands the strategy this shard's slice of it (a local OneShotStrategy
/// when DseOptions::strategy is null), then alternates next_batch() /
/// consume() — deduplicating identical (params, fidelity) evaluations
/// across batches, evaluating fresh candidates on the pool — until the
/// strategy is done, restores canonical index order over finish(), and
/// marks the frontier.  `evaluate` costs one parameter point at a
/// requested fidelity (it must be thread-safe; the engine shares it
/// across workers).
DseResult run_engine(
    const DseSpace& space, const DseOptions& options,
    const std::function<void(const DsePoint&)>& progress,
    const std::function<DsePoint(const arch::ArchParams&, FidelityLevel)>&
        evaluate) {
  if (options.shard.count < 1 || options.shard.index < 0 ||
      options.shard.index >= options.shard.count) {
    throw std::invalid_argument(
        "invalid DSE shard " + std::to_string(options.shard.index) + "/" +
        std::to_string(options.shard.count) +
        " (need count >= 1 and 0 <= index < count)");
  }
  const std::vector<arch::ArchParams> all_points =
      options.sampler != nullptr ? options.sampler->sample(space)
                                 : space.enumerate();
  OneShotStrategy one_shot;
  ExploreStrategy& strategy =
      options.strategy != nullptr ? *options.strategy : one_shot;

  // This process's slice: canonical indices congruent to the shard index
  // modulo the shard count (round-robin, so shards stay load-balanced
  // even when cost grows along the grid).
  ExploreStrategy::Context context;
  context.total_points = all_points.size();
  context.skip_indices = options.skip_indices;
  context.slice.reserve(
      all_points.size() / static_cast<size_t>(options.shard.count) + 1);
  size_t skipped = 0;
  for (size_t g = static_cast<size_t>(options.shard.index);
       g < all_points.size(); g += static_cast<size_t>(options.shard.count)) {
    // Skipped (resumed) indices stay in the slice — a strategy may need
    // them for rank consistency — but count as completed up front, and
    // the strategy never re-proposes them at full fidelity.
    if (options.skip_indices != nullptr &&
        options.skip_indices->count(g) != 0) {
      ++skipped;
    }
    context.slice.push_back(ExploreStrategy::Candidate{
        g, all_points[g], FidelityLevel::kFull});
  }
  strategy.begin(std::move(context));

  const size_t progress_every =
      static_cast<size_t>(std::max(1, options.progress_every));
  std::mutex progress_mutex;
  size_t completed = skipped;
  size_t scheduled = skipped;
  // Milestones: every Nth completion plus the last evaluation scheduled
  // so far (a strategy's total work is not known up front, so every batch
  // boundary lands a callback; the one-shot batch ends exactly once, at
  // the slice size).  Skipped (resumed) indices count as completed up
  // front, so a resumed sweep reports its true position.  The positional
  // `progress` hook is the result stream (--out shard files): only
  // full-fidelity completions reach it — low-fidelity probes are
  // engine-internal and never part of the result.
  auto report_progress = [&](const DsePoint& point, FidelityLevel fidelity) {
    if (!progress && !options.on_progress &&
        !options.CommonOptions::on_progress) {
      return;
    }
    std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    if (completed % progress_every != 0 && completed != scheduled) return;
    if (progress && fidelity == FidelityLevel::kFull) progress(point);
    if (options.on_progress) {
      options.on_progress(DseProgress{{completed, scheduled}, &point});
    }
    if (options.CommonOptions::on_progress) {
      options.CommonOptions::on_progress(Progress{completed, scheduled});
    }
  };

  // Cross-batch memo: one evaluation per distinct (params, fidelity),
  // so e.g. halving's full-fidelity rung reuses nothing from its
  // low-fidelity rungs but repeated parameter points cost once.
  struct FidelityParamsKey {
    arch::ArchParams params;
    FidelityLevel fidelity;
    bool operator==(const FidelityParamsKey& other) const {
      return fidelity == other.fidelity && params == other.params;
    }
  };
  struct FidelityParamsKeyHash {
    size_t operator()(const FidelityParamsKey& key) const {
      size_t seed = ArchParamsHash{}(key.params);
      util::hash_combine_value(seed, static_cast<int>(key.fidelity));
      return seed;
    }
  };
  std::unordered_map<FidelityParamsKey, size_t, FidelityParamsKeyHash> memo;
  std::vector<DsePoint> store;

  while (true) {
    const std::vector<ExploreStrategy::Candidate> batch =
        strategy.next_batch();
    if (batch.empty()) break;

    // Grow the store once per batch: doubling past a large one-shot batch
    // would leave up to twice its points' worth of idle capacity.
    store.reserve(store.size() + batch.size());
    std::vector<size_t> slot_of(batch.size());
    std::vector<size_t> fresh_slot;       // store slots to fill this batch
    std::vector<size_t> fresh_candidate;  // batch positions owning them
    for (size_t b = 0; b < batch.size(); ++b) {
      if (options.cache) {
        const auto [it, inserted] = memo.try_emplace(
            FidelityParamsKey{batch[b].params, batch[b].fidelity},
            store.size());
        slot_of[b] = it->second;
        if (!inserted) continue;  // memo hit: reported at assembly below
      } else {
        slot_of[b] = store.size();
      }
      fresh_slot.push_back(store.size());
      fresh_candidate.push_back(b);
      store.emplace_back();
    }
    {
      std::lock_guard<std::mutex> lock(progress_mutex);
      scheduled += batch.size();
    }

    // Evaluate the fresh candidates with one chunked parallel_for (the
    // caller participates; workers steal chunks as their own run dry).
    // Results land in indexed slots, so the assembled order below is the
    // batch order no matter which participant finishes first; a given
    // point runs the same instruction sequence on any thread, so results
    // are bit-identical across thread counts.  workers_for clamps the
    // pool to the work, resolves 0 to the hardware thread count, runs 1
    // inline, and rejects negative requests.  One failed point fails the
    // whole sweep: no new chunks are claimed after a throw (a throwing
    // progress callback also aborts) and the lowest failing point's
    // exception reaches the caller.
    const unsigned pool_threads = util::ThreadPool::workers_for(
        options.num_threads, fresh_candidate.size());
    {
      util::ThreadPool pool(pool_threads);
      pool.parallel_for(fresh_candidate.size(), [&](size_t u) {
        const ExploreStrategy::Candidate& c = batch[fresh_candidate[u]];
        DsePoint& out = store[fresh_slot[u]];
        out = evaluate(c.params, c.fidelity);
        out.index = c.index;
        report_progress(out, c.fidelity);
      });
    }

    std::vector<DsePoint> results;
    results.reserve(batch.size());
    size_t next_fresh = 0;
    for (size_t b = 0; b < batch.size(); ++b) {
      results.push_back(store[slot_of[b]]);
      results.back().index = batch[b].index;
      if (next_fresh < fresh_candidate.size() &&
          fresh_candidate[next_fresh] == b) {
        ++next_fresh;  // evaluated (and reported) on a worker above
      } else {
        report_progress(results.back(), batch[b].fidelity);
      }
    }
    strategy.consume(results, fresh_candidate.size());
  }

  DseResult result;
  result.points = strategy.finish();
  std::stable_sort(
      result.points.begin(), result.points.end(),
      [](const DsePoint& a, const DsePoint& b) { return a.index < b.index; });
  mark_pareto_frontier(result.points, pareto_axes(options.objective));
  return result;
}

std::vector<std::shared_ptr<const arch::PtcTemplate>> share_templates(
    const std::vector<arch::PtcTemplate>& ptc_templates) {
  if (ptc_templates.empty()) {
    throw std::invalid_argument("explore needs at least one PTC template");
  }
  std::vector<std::shared_ptr<const arch::PtcTemplate>> shared_templates;
  shared_templates.reserve(ptc_templates.size());
  for (const auto& ptc_template : ptc_templates) {
    shared_templates.push_back(
        std::make_shared<const arch::PtcTemplate>(ptc_template));
  }
  return shared_templates;
}

/// The single-workload sweep over pre-extracted GEMMs.  `keys` holds their
/// fingerprints (a sweep with no swept bit axis costs the identical GEMMs
/// at every point, so they are computed once per workload), or is null.
DseResult explore_gemms(
    const std::vector<arch::PtcTemplate>& ptc_templates,
    const devlib::DeviceLibrary& lib,
    const std::vector<workload::GemmWorkload>& base_gemms,
    const uint64_t* keys, const DseSpace& space, const DseOptions& options,
    const std::function<void(const DsePoint&)>& progress) {
  const std::vector<std::shared_ptr<const arch::PtcTemplate>>
      shared_templates = share_templates(ptc_templates);
  const bool override_input_bits = !space.input_bits.empty();
  const bool override_output_bits = !space.output_bits.empty();
  const uint64_t* base_keys =
      options.cost_cache != nullptr && !override_input_bits &&
              !override_output_bits
          ? keys
          : nullptr;
  const bool want_p99 = options.objective.references(Metric::kP99Latency);
  return run_engine(
      space, options, progress,
      [&](const arch::ArchParams& params, FidelityLevel fidelity) {
        // kLow substitutes the cheap mapper; with none configured the
        // full mapper runs (correct, just saves nothing).
        const Mapper* mapper =
            fidelity == FidelityLevel::kLow &&
                    options.low_fidelity_mapper != nullptr
                ? options.low_fidelity_mapper
                : options.mapper;
        return evaluate_point(shared_templates, lib, base_gemms, params,
                              override_input_bits, override_output_bits,
                              mapper, options.cost_cache, base_keys,
                              want_p99);
      });
}

}  // namespace

DseResult explore(const std::vector<arch::PtcTemplate>& ptc_templates,
                  const devlib::DeviceLibrary& lib,
                  const workload::Model& model, const DseSpace& space,
                  const DseOptions& options,
                  const std::function<void(const DsePoint&)>& progress) {
  const std::vector<workload::GemmWorkload> gemms =
      workload::extract_gemms(model);
  std::vector<uint64_t> keys;
  if (options.cost_cache != nullptr) {
    keys.reserve(gemms.size());
    for (const auto& gemm : gemms) keys.push_back(gemm_fingerprint(gemm));
  }
  return explore_gemms(ptc_templates, lib, gemms,
                       keys.empty() ? nullptr : keys.data(), space, options,
                       progress);
}

DseResult explore(const std::vector<arch::PtcTemplate>& ptc_templates,
                  const devlib::DeviceLibrary& lib,
                  const WorkloadSet::Entry& workload, const DseSpace& space,
                  const DseOptions& options,
                  const std::function<void(const DsePoint&)>& progress) {
  return explore_gemms(ptc_templates, lib, workload.gemms,
                       workload.gemm_fingerprints.data(), space, options,
                       progress);
}

DseResult explore(const std::vector<arch::PtcTemplate>& ptc_templates,
                  const devlib::DeviceLibrary& lib,
                  const WorkloadSet& workloads, const DseSpace& space,
                  const DseOptions& options,
                  const std::function<void(const DsePoint&)>& progress) {
  const std::vector<std::shared_ptr<const arch::PtcTemplate>>
      shared_templates = share_templates(ptc_templates);
  if (workloads.empty()) {
    throw std::invalid_argument("explore needs a non-empty WorkloadSet");
  }
  const bool override_input_bits = !space.input_bits.empty();
  const bool override_output_bits = !space.output_bits.empty();
  const bool want_p99 = options.objective.references(Metric::kP99Latency);
  return run_engine(
      space, options, progress,
      [&](const arch::ArchParams& params, FidelityLevel fidelity) {
        const Mapper* mapper =
            fidelity == FidelityLevel::kLow &&
                    options.low_fidelity_mapper != nullptr
                ? options.low_fidelity_mapper
                : options.mapper;
        return evaluate_batch_point(shared_templates, lib, workloads, params,
                                    override_input_bits, override_output_bits,
                                    mapper, options.cost_cache,
                                    options.aggregate, want_p99);
      });
}

DseResult explore(const arch::PtcTemplate& ptc_template,
                  const devlib::DeviceLibrary& lib,
                  const workload::Model& model, const DseSpace& space,
                  const DseOptions& options,
                  const std::function<void(const DsePoint&)>& progress) {
  return explore(std::vector<arch::PtcTemplate>{ptc_template}, lib, model,
                 space, options, progress);
}

DseResult explore(const arch::PtcTemplate& ptc_template,
                  const devlib::DeviceLibrary& lib,
                  const WorkloadSet& workloads, const DseSpace& space,
                  const DseOptions& options,
                  const std::function<void(const DsePoint&)>& progress) {
  return explore(std::vector<arch::PtcTemplate>{ptc_template}, lib,
                 workloads, space, options, progress);
}

DseResult explore(const arch::PtcTemplate& ptc_template,
                  const devlib::DeviceLibrary& lib,
                  const workload::Model& model, const DseSpace& space,
                  const std::function<void(const DsePoint&)>& progress) {
  return explore(ptc_template, lib, model, space, DseOptions{}, progress);
}

}  // namespace simphony::core
