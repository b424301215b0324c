#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "arch/description.h"
#include "arch/hierarchy.h"
#include "workload/model.h"
#include "workload/onn_convert.h"

namespace simphony::core {
namespace {

/// Simulator-memo bound: distinct (arch, params) constructions kept warm
/// before the memo is cleared wholesale.  Materialization is cheap
/// relative to evaluation, so an occasional full re-warm beats LRU
/// bookkeeping on the hot path.
constexpr size_t kSimulatorMemoCapacity = 32;

// ------------------------------------------------ JSON field helpers

/// Strict-object guard: every key must be in `allowed`, so a typo'd
/// request field fails loudly instead of being silently ignored.
void check_keys(const util::Json& j, const std::vector<std::string>& allowed,
                const std::string& context) {
  for (const auto& [key, value] : j.as_object()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw std::invalid_argument("unexpected key '" + key + "' in " +
                                  context);
    }
  }
}

int int_field(const util::Json& j, const std::string& key, int fallback) {
  if (!j.contains(key)) return fallback;
  const double value = j.at(key).as_number();
  const int as_int = static_cast<int>(value);
  if (static_cast<double>(as_int) != value) {
    throw std::invalid_argument("field '" + key + "' must be an integer");
  }
  return as_int;
}

std::string string_field(const util::Json& j, const std::string& key,
                         const std::string& fallback) {
  return j.contains(key) ? j.at(key).as_string() : fallback;
}

bool bool_field(const util::Json& j, const std::string& key, bool fallback) {
  return j.contains(key) ? j.at(key).as_bool() : fallback;
}

util::Json int_list_to_json(const std::vector<int>& values) {
  util::Json array{util::Json::Array{}};
  for (int v : values) array.push_back(v);
  return array;
}

std::vector<int> int_list_field(const util::Json& j, const std::string& key) {
  std::vector<int> values;
  if (!j.contains(key)) return values;
  for (const util::Json& v : j.at(key).as_array()) {
    const double number = v.as_number();
    const int as_int = static_cast<int>(number);
    if (static_cast<double>(as_int) != number) {
      throw std::invalid_argument("sweep axis '" + key +
                                  "' must hold integers");
    }
    values.push_back(as_int);
  }
  return values;
}

util::Json params_to_json(const arch::ArchParams& params) {
  // Same field names as the DsePoint serializer (core/dse.cpp), so one
  // vocabulary covers requests and results.
  util::Json j;
  j["tiles"] = params.tiles;
  j["cores_per_tile"] = params.cores_per_tile;
  j["core_height"] = params.core_height;
  j["core_width"] = params.core_width;
  j["wavelengths"] = params.wavelengths;
  j["clock_GHz"] = params.clock_GHz;
  j["input_bits"] = params.input_bits;
  j["weight_bits"] = params.weight_bits;
  j["output_bits"] = params.output_bits;
  return j;
}

arch::ArchParams params_from_json(const util::Json& j) {
  check_keys(j,
             {"tiles", "cores_per_tile", "core_height", "core_width",
              "wavelengths", "clock_GHz", "input_bits", "weight_bits",
              "output_bits"},
             "params");
  arch::ArchParams params;  // absent fields keep the defaults
  params.tiles = int_field(j, "tiles", params.tiles);
  params.cores_per_tile = int_field(j, "cores_per_tile",
                                    params.cores_per_tile);
  params.core_height = int_field(j, "core_height", params.core_height);
  params.core_width = int_field(j, "core_width", params.core_width);
  params.wavelengths = int_field(j, "wavelengths", params.wavelengths);
  if (j.contains("clock_GHz")) {
    params.clock_GHz = j.at("clock_GHz").as_number();
    if (!std::isfinite(params.clock_GHz) || params.clock_GHz <= 0.0) {
      throw std::invalid_argument(
          "clock_GHz expects a positive finite number");
    }
  }
  params.input_bits = int_field(j, "input_bits", params.input_bits);
  params.weight_bits = int_field(j, "weight_bits", params.weight_bits);
  params.output_bits = int_field(j, "output_bits", params.output_bits);
  return params;
}

util::Json models_to_json(const std::vector<WorkloadSpec>& models) {
  util::Json array{util::Json::Array{}};
  for (const WorkloadSpec& model : models) {
    util::Json m;
    m["spec"] = model.spec;
    if (!model.name.empty()) m["name"] = model.name;
    m["weight"] = model.weight;
    array.push_back(std::move(m));
  }
  return array;
}

std::vector<WorkloadSpec> models_from_json(const util::Json& j) {
  // An empty list means "the default workload" — exactly what to_json()
  // emits for a default request, so the canonical form round-trips.
  if (j.as_array().empty()) return {};
  for (const util::Json& m : j.as_array()) {
    if (m.is_object()) check_keys(m, {"spec", "name", "weight"}, "model");
  }
  return workload_specs_from_json(j);
}

/// The rendered "mapping" section of a searched-strategy document —
/// field-for-field what the CLI has always emitted.
util::Json mapping_to_json(const Mapping& mapping,
                           const std::string& strategy,
                           const std::string& objective) {
  util::Json j;
  j["strategy"] = strategy;
  j["objective"] = objective;
  j["predicted_energy_pJ"] = mapping.predicted_energy_pJ;
  j["predicted_latency_ns"] = mapping.predicted_latency_ns;
  j["predicted_cost"] = mapping.predicted_cost;
  util::Json assignment{util::Json::Array{}};
  for (size_t a : mapping.assignment) {
    assignment.push_back(static_cast<double>(a));
  }
  j["assignment"] = std::move(assignment);
  return j;
}

util::Json cache_stats_to_json(const CostMatrixCache::Stats& stats) {
  util::Json j;
  j["hits"] = stats.hits;
  j["misses"] = stats.misses;
  j["hit_rate"] = stats.hit_rate();
  return j;
}

/// Per-request cache activity: the counter delta across one evaluation.
CostMatrixCache::Stats stats_delta(const CostMatrixCache::Stats& before,
                                   const CostMatrixCache::Stats& after) {
  return CostMatrixCache::Stats{after.hits - before.hits,
                                after.misses - before.misses};
}

arch::PtcTemplate template_by_name(const std::string& name) {
  if (name == "tempo") return arch::tempo_template();
  if (name == "lt") return arch::lightening_transformer_template();
  if (name == "mzi") return arch::clements_mzi_template();
  if (name == "scatter") return arch::scatter_template();
  if (name == "mrr") return arch::mrr_bank_template();
  if (name == "butterfly") return arch::butterfly_template();
  if (name == "pcm") return arch::pcm_crossbar_template();
  if (name == "wdm") return arch::wdm_link_template();
  // The CLI's historical wording, preserved so the thin-client refactor
  // changes no diagnostics.
  throw std::invalid_argument(
      "unknown --arch template '" + name +
      "' (expected tempo|lt|mzi|scatter|mrr|butterfly|pcm|wdm)");
}

/// The request's batch fold, with the CLI's diagnostic.
BatchAggregate aggregate_of(const SimulateRequest& request) {
  const std::optional<BatchAggregate> aggregate =
      parse_aggregate(request.aggregate);
  if (!aggregate) {
    throw std::invalid_argument("--aggregate expects sum|max|weighted, "
                                "got '" + request.aggregate + "'");
  }
  return *aggregate;
}

/// Template names joined with "+" (the "arch" label of every document).
std::string label_of(const std::vector<arch::PtcTemplate>& templates) {
  std::string label = templates.front().name;
  for (size_t t = 1; t < templates.size(); ++t) {
    label += "+" + templates[t].name;
  }
  return label;
}

/// The sweep header of a resolved explore request: the one place its
/// fields are computed, for shard files, the response and --resume alike.
DseShardWriter::Metadata sweep_header(const ExploreRequest& request,
                                      std::string arch,
                                      const ResolvedModels& models,
                                      BatchAggregate aggregate,
                                      const ObjectiveSpec& objective,
                                      const DseSpace& space,
                                      const DseSampler* sampler) {
  DseShardWriter::Metadata header;
  header.arch = std::move(arch);
  header.model = models.label;
  header.sampler = sampler != nullptr ? request.sample : "grid";
  if (header.sampler == "random") {
    // A cheap deterministic re-sample (no evaluation), so every shard of
    // one sweep stamps the same count.
    const std::vector<arch::ArchParams> drawn = sampler->sample(space);
    header.distinct =
        std::unordered_set<arch::ArchParams, ArchParamsHash>(drawn.begin(),
                                                             drawn.end())
            .size();
    header.report_distinct = true;
  }
  if (models.workloads.size() > 1) header.aggregate = to_string(aggregate);
  if (!objective.canned_objective()) header.objective = objective.text();
  if (request.strategy != "one-shot") header.strategy = request.strategy;
  if (request.strategy == "halving") {
    header.eta = request.eta;
    header.rungs = request.rungs;
  }
  if (request.strategy == "frontier") {
    header.refine_rounds = request.refine_rounds;
  }
  header.shard = request.shard;
  header.total_points = sampler != nullptr
                            ? static_cast<size_t>(request.samples)
                            : space.size();
  return header;
}

/// A response labelled from a sweep header (evaluated or merged).
ExploreResponse response_for(const DseShardWriter::Metadata& header) {
  ExploreResponse response;
  response.arch_label = header.arch;
  response.model_label = header.model;
  response.sampler_name = header.sampler;
  response.aggregate_label = header.aggregate;
  response.objective = header.objective;
  response.total_points = header.total_points;
  response.shard = header.shard;
  response.strategy_name =
      header.strategy.empty() ? "one-shot" : header.strategy;
  response.eta = header.eta;
  response.rungs = header.rungs;
  response.refine_rounds = header.refine_rounds;
  response.distinct = header.distinct;
  response.report_distinct = header.report_distinct;
  return response;
}

}  // namespace

// ------------------------------------------------------ request JSON

util::Json SimulateRequest::to_json() const {
  util::Json j;
  util::Json arch_json{util::Json::Array{}};
  for (const std::string& name : arch) arch_json.push_back(name);
  j["arch"] = std::move(arch_json);
  if (!description.empty()) j["description"] = description;
  j["params"] = params_to_json(params);
  j["models"] = models_to_json(models);
  j["aggregate"] = aggregate;
  j["mapping"] = mapping;
  j["objective"] = objective;
  j["beam_width"] = beam_width;
  j["cost_cache"] = cost_cache;
  j["num_threads"] = num_threads;
  return j;
}

SimulateRequest SimulateRequest::from_json(const util::Json& j) {
  check_keys(j,
             {"arch", "description", "params", "models", "aggregate",
              "mapping", "objective", "beam_width", "cost_cache",
              "num_threads"},
             "simulate request");
  SimulateRequest request;
  if (j.contains("arch")) {
    for (const util::Json& name : j.at("arch").as_array()) {
      request.arch.push_back(name.as_string());
    }
  }
  request.description = string_field(j, "description", "");
  if (j.contains("params")) request.params = params_from_json(j.at("params"));
  if (j.contains("models")) request.models = models_from_json(j.at("models"));
  request.aggregate = string_field(j, "aggregate", request.aggregate);
  request.mapping = string_field(j, "mapping", request.mapping);
  request.objective = string_field(j, "objective", request.objective);
  request.beam_width = int_field(j, "beam_width", request.beam_width);
  request.cost_cache = bool_field(j, "cost_cache", request.cost_cache);
  request.num_threads = int_field(j, "num_threads", request.num_threads);
  if (request.num_threads < 0) {
    throw std::invalid_argument("num_threads must be non-negative");
  }
  return request;
}

util::Json ExploreRequest::to_json() const {
  util::Json j = base.to_json();
  util::Json sweep;
  if (!space.tiles.empty()) sweep["tiles"] = int_list_to_json(space.tiles);
  if (!space.cores_per_tile.empty()) {
    sweep["cores"] = int_list_to_json(space.cores_per_tile);
  }
  if (!space.core_sizes.empty()) {
    sweep["size"] = int_list_to_json(space.core_sizes);
  }
  if (!space.core_widths.empty()) {
    sweep["width"] = int_list_to_json(space.core_widths);
  }
  if (!space.wavelengths.empty()) {
    sweep["wavelengths"] = int_list_to_json(space.wavelengths);
  }
  if (!space.input_bits.empty()) {
    sweep["bits"] = int_list_to_json(space.input_bits);
  }
  if (!space.output_bits.empty()) {
    sweep["output"] = int_list_to_json(space.output_bits);
  }
  if (!sweep.is_object()) sweep = util::Json{util::Json::Object{}};
  j["sweep"] = std::move(sweep);
  j["sample"] = sample;
  j["samples"] = samples;
  j["seed"] = static_cast<double>(seed);
  util::Json shard_json;
  shard_json["index"] = shard.index;
  shard_json["count"] = shard.count;
  j["shard"] = std::move(shard_json);
  j["dse_cache"] = dse_cache;
  j["strategy"] = strategy;
  j["eta"] = eta;
  j["rungs"] = rungs;
  j["refine_rounds"] = refine_rounds;
  return j;
}

ExploreRequest ExploreRequest::from_json(const util::Json& j) {
  check_keys(j,
             {"arch", "description", "params", "models", "aggregate",
              "mapping", "objective", "beam_width", "cost_cache",
              "num_threads", "sweep", "sample", "samples", "seed", "shard",
              "dse_cache", "strategy", "eta", "rungs", "refine_rounds"},
             "explore request");
  ExploreRequest request;
  request.base = SimulateRequest::from_json([&] {
    // The simulate-level fields, re-wrapped without the explore-only
    // keys (SimulateRequest::from_json is strict).
    util::Json base;
    for (const auto& [key, value] : j.as_object()) {
      if (key != "sweep" && key != "sample" && key != "samples" &&
          key != "seed" && key != "shard" && key != "dse_cache" &&
          key != "strategy" && key != "eta" && key != "rungs" &&
          key != "refine_rounds") {
        base[key] = value;
      }
    }
    if (!base.is_object()) base = util::Json{util::Json::Object{}};
    return base;
  }());
  if (j.contains("sweep")) {
    const util::Json& sweep = j.at("sweep");
    check_keys(sweep,
               {"tiles", "cores", "size", "width", "wavelengths", "bits",
                "output"},
               "sweep");
    request.space.tiles = int_list_field(sweep, "tiles");
    request.space.cores_per_tile = int_list_field(sweep, "cores");
    request.space.core_sizes = int_list_field(sweep, "size");
    request.space.core_widths = int_list_field(sweep, "width");
    request.space.wavelengths = int_list_field(sweep, "wavelengths");
    request.space.input_bits = int_list_field(sweep, "bits");
    request.space.output_bits = int_list_field(sweep, "output");
  }
  request.sample = string_field(j, "sample", request.sample);
  request.samples = int_field(j, "samples", request.samples);
  if (j.contains("seed")) {
    const double seed = j.at("seed").as_number();
    if (seed < 0 || seed != std::floor(seed)) {
      throw std::invalid_argument("seed must be a non-negative integer");
    }
    request.seed = static_cast<uint64_t>(seed);
  }
  if (j.contains("shard")) {
    const util::Json& shard = j.at("shard");
    check_keys(shard, {"index", "count"}, "shard");
    request.shard.index = int_field(shard, "index", 0);
    request.shard.count = int_field(shard, "count", 1);
    if (request.shard.count < 1 || request.shard.index < 0 ||
        request.shard.index >= request.shard.count) {
      throw std::invalid_argument(
          "shard out of range (need 0 <= index < count)");
    }
  }
  request.dse_cache = bool_field(j, "dse_cache", request.dse_cache);
  request.strategy = string_field(j, "strategy", request.strategy);
  request.eta = int_field(j, "eta", request.eta);
  request.rungs = int_field(j, "rungs", request.rungs);
  request.refine_rounds = int_field(j, "refine_rounds", request.refine_rounds);
  return request;
}

// -------------------------------------------------- request resolution

std::vector<arch::PtcTemplate> resolve_templates(
    const SimulateRequest& request) {
  if (!request.arch.empty() && !request.description.empty()) {
    throw std::invalid_argument(
        "give either a description file or --arch, not both");
  }
  if (!request.description.empty()) {
    return {arch::parse_description(request.description)};
  }
  std::vector<arch::PtcTemplate> templates;
  if (request.arch.empty()) {
    templates.push_back(arch::tempo_template());
    return templates;
  }
  for (const std::string& name : request.arch) {
    templates.push_back(template_by_name(name));
  }
  return templates;
}

std::string arch_label(const SimulateRequest& request) {
  return label_of(resolve_templates(request));
}

ResolvedModels resolve_models(const SimulateRequest& request) {
  std::vector<WorkloadSpec> specs = request.models;
  if (specs.empty()) {
    // The CLI's historical single-GEMM demo default.
    specs.push_back(WorkloadSpec{"gemm:280x28x280", "", 1.0});
  }
  ResolvedModels resolved;
  std::map<std::string, int> name_uses;  // repeated specs become #2, #3...
  for (const WorkloadSpec& spec : specs) {
    workload::Model built = workload::model_from_spec(spec.spec);
    // Operand widths apply uniformly to every model of the batch.
    for (auto& layer : built.layers) {
      layer.input_bits = request.params.input_bits;
      layer.weight_bits = request.params.weight_bits;
      layer.output_bits = request.params.output_bits;
    }
    workload::convert_model_in_place(built);
    std::string name = spec.name.empty() ? built.name : spec.name;
    const int uses = ++name_uses[name];
    if (uses > 1) name += "#" + std::to_string(uses);
    if (!resolved.label.empty()) resolved.label += "+";
    resolved.label += name;
    resolved.workloads.add(std::move(built), std::move(name), spec.weight);
  }
  return resolved;
}

std::unique_ptr<Mapper> make_mapper(const SimulateRequest& request) {
  // One grammar for every surface (core/metrics.h): canned names parse to
  // the legacy specs (scored bit-identically), and the spec is validated
  // up front even under "rules" so a typo'd objective fails loudly — the
  // pre-spec behavior.
  const ObjectiveSpec objective = ObjectiveSpec::parse(request.objective);
  if (request.mapping == "rules") return nullptr;
  if (request.mapping == "greedy") {
    return std::make_unique<GreedyMapper>(objective);
  }
  if (request.mapping == "beam") {
    if (request.beam_width < 1) {
      throw std::invalid_argument("--beam-width expects a positive integer");
    }
    return std::make_unique<BeamMapper>(
        static_cast<size_t>(request.beam_width), objective);
  }
  if (request.mapping == "bnb") {
    return std::make_unique<BranchBoundMapper>(objective);
  }
  throw std::invalid_argument("--mapping expects rules|greedy|beam|bnb, "
                              "got '" + request.mapping + "'");
}

std::unique_ptr<DseSampler> make_sampler(const ExploreRequest& request) {
  if (request.sample == "random" || request.sample == "lhs") {
    if (request.samples < 1) {
      throw std::invalid_argument("--sample " + request.sample +
                                  " needs --samples N");
    }
    if (request.sample == "random") {
      return std::make_unique<RandomSampler>(
          static_cast<size_t>(request.samples), request.seed);
    }
    return std::make_unique<LatinHypercubeSampler>(
        static_cast<size_t>(request.samples), request.seed);
  }
  if (request.sample != "grid") {
    throw std::invalid_argument("--sample expects grid|random|lhs, got '" +
                                request.sample + "'");
  }
  if (request.samples > 0) {
    throw std::invalid_argument(
        "--samples only applies to --sample random|lhs");
  }
  return nullptr;
}

std::unique_ptr<ExploreStrategy> make_strategy(
    const ExploreRequest& request) {
  if (request.strategy == "one-shot") return nullptr;
  if (request.strategy == "halving") {
    if (request.eta < 2) {
      throw std::invalid_argument("--eta expects an integer >= 2, got " +
                                  std::to_string(request.eta));
    }
    if (request.rungs < 1) {
      throw std::invalid_argument("--rungs expects a positive integer, got " +
                                  std::to_string(request.rungs));
    }
    return std::make_unique<SuccessiveHalvingStrategy>(
        request.eta, request.rungs,
        ObjectiveSpec::parse(request.base.objective));
  }
  if (request.strategy == "frontier") {
    if (request.refine_rounds < 1) {
      throw std::invalid_argument(
          "--refine-rounds expects a positive integer, got " +
          std::to_string(request.refine_rounds));
    }
    if (request.shard.count > 1) {
      throw std::invalid_argument(
          "--strategy frontier does not support sharding: refined points "
          "fall outside the canonical point list, so shards cannot merge");
    }
    DseSpace space = request.space;
    space.base = request.base.params;
    return std::make_unique<FrontierRefineStrategy>(
        std::move(space), request.refine_rounds,
        ObjectiveSpec::parse(request.base.objective));
  }
  throw std::invalid_argument(
      "--strategy expects one-shot|halving|frontier, got '" +
      request.strategy + "'");
}

std::vector<arch::ArchParams> resolve_points(const ExploreRequest& request) {
  DseSpace space = request.space;
  space.base = request.base.params;
  const std::unique_ptr<DseSampler> sampler = make_sampler(request);
  return sampler != nullptr ? sampler->sample(space) : space.enumerate();
}

// -------------------------------------------------- response rendering

util::Json SimulateResponse::to_json() const {
  if (!is_batch) {
    const BatchReport::ModelResult& m = batch.models.front();
    util::Json root = m.report.to_json();
    if (mapped) {
      root["mapping"] =
          mapping_to_json(m.mapping, mapping_name, objective_name);
    }
    // NaN (every legacy request) omits the field: documents only change
    // when the objective asked for the tail metric.
    if (std::isfinite(p99_latency_ns)) {
      root["p99_latency_ns"] = p99_latency_ns;
    }
    return root;
  }
  util::Json root;
  root["arch"] = arch_label;
  root["aggregate"] = std::string(to_string(aggregate));
  util::Json models{util::Json::Array{}};
  for (const BatchReport::ModelResult& m : batch.models) {
    util::Json mj = m.report.to_json();
    mj["weight"] = m.weight;
    if (mapped) {
      mj["mapping"] =
          mapping_to_json(m.mapping, mapping_name, objective_name);
    }
    models.push_back(std::move(mj));
  }
  root["models"] = std::move(models);
  const BatchReport::Totals totals = batch.totals(aggregate);
  util::Json totals_json;
  totals_json["energy_pJ"] = totals.energy_pJ;
  totals_json["latency_ns"] = totals.latency_ns;
  totals_json["area_mm2"] = totals.area_mm2;
  totals_json["power_W"] = totals.power_W;
  totals_json["tops"] = totals.tops;
  if (std::isfinite(p99_latency_ns)) {
    totals_json["p99_latency_ns"] = p99_latency_ns;
  }
  root["totals"] = std::move(totals_json);
  return root;
}

util::Json ExploreResponse::to_json() const {
  util::Json root = core::to_json(result);
  root["model"] = model_label;
  root["arch"] = arch_label;
  root["sampler"] = sampler_name;
  if (report_distinct) root["distinct"] = distinct;
  if (!aggregate_label.empty()) root["aggregate"] = aggregate_label;
  // Non-canned specs only: legacy sweeps never carried the field.
  if (!objective.empty()) root["objective"] = objective;
  root["total_points"] = total_points;
  if (shard.count > 1) {
    util::Json shard_json;
    shard_json["index"] = shard.index;
    shard_json["count"] = shard.count;
    root["shard"] = std::move(shard_json);
  }
  // Strategy section only for strategy-driven sweeps: one-shot documents
  // stay byte-identical to pre-strategy responses.
  if (strategy_name != "one-shot") {
    util::Json strategy_json;
    strategy_json["name"] = strategy_name;
    if (eta > 0) strategy_json["eta"] = eta;
    if (rungs > 0) strategy_json["rungs"] = rungs;
    if (refine_rounds > 0) strategy_json["refine_rounds"] = refine_rounds;
    util::Json stats{util::Json::Array{}};
    for (const RungStats& r : rung_stats) {
      util::Json rj;
      rj["rung"] = r.rung;
      rj["fidelity"] = std::string(to_string(r.fidelity));
      rj["candidates"] = r.candidates;
      rj["evaluated"] = r.evaluated;
      stats.push_back(std::move(rj));
    }
    if (report_rung_stats) strategy_json["rung_stats"] = std::move(stats);
    root["strategy"] = std::move(strategy_json);
  }
  if (cache_attached) root["cost_cache"] = cache_stats_to_json(cache);
  return root;
}

// --------------------------------------------------------------- Engine

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options)
    : options_(std::move(options)),
      lib_(devlib::DeviceLibrary::standard()),
      pool_(util::ThreadPool::workers_for(
          options_.num_threads,
          std::max<size_t>(options_.queue_capacity, 1))) {
  if (!options_.cache_file.empty()) {
    load_report_ = cache_.load(options_.cache_file);
  }
}

Engine::~Engine() {
  drain();
  if (!options_.cache_file.empty()) {
    try {
      save_cache();
    } catch (const std::exception&) {
      // Destructors must not throw; an explicit save_cache() call is the
      // path that reports persistence failures.
    }
  }
}

SimulateResponse Engine::simulate(
    const SimulateRequest& request,
    const std::function<void(const Progress&)>& on_progress) {
  return evaluate_simulate(request, on_progress);
}

ExploreResponse Engine::explore(const ExploreRequest& request,
                                const ExploreHooks& hooks) {
  return evaluate_explore(request, hooks);
}

ExploreResponse Engine::explore(const ExploreRequest& request) {
  return evaluate_explore(request, ExploreHooks{});
}

SimulateResponse Engine::evaluate_simulate(
    const SimulateRequest& request,
    const std::function<void(const Progress&)>& on_progress) {
  const BatchAggregate aggregate = aggregate_of(request);
  ResolvedModels resolved = resolve_models(request);
  const std::unique_ptr<Mapper> mapper = make_mapper(request);
  const std::shared_ptr<const Simulator> simulator = simulator_for(request);

  // The searched strategy, or the fixed route-to-sub-arch-0 default —
  // RuleMapper(MappingConfig(0)) is documented bit-identical to the
  // legacy simulate_model(model, config) path, and simulate_batch to K
  // independent simulate_model calls, so one batch call serves single-
  // and multi-model requests with byte-identical documents.
  const RuleMapper fallback((MappingConfig(0)));
  const Mapper& chosen =
      mapper != nullptr ? static_cast<const Mapper&>(*mapper) : fallback;

  BatchOptions batch_options;
  batch_options.num_threads = request.num_threads;
  const bool attach = request.cost_cache && mapper != nullptr &&
                      mapper->needs_costs();
  if (attach) batch_options.cost_cache = &cache_;
  batch_options.on_progress = on_progress;

  const CostMatrixCache::Stats before = cache_.stats();
  SimulateResponse response;
  response.batch =
      simulator->simulate_batch(resolved.workloads, chosen, batch_options);
  response.is_batch = resolved.workloads.size() > 1;
  response.mapped = mapper != nullptr;
  response.aggregate = aggregate;
  response.arch_label = arch_label(request);
  response.model_label = std::move(resolved.label);
  response.mapping_name = chosen.name();
  response.objective_name = request.objective;
  response.cache_attached = attach;
  if (attach) response.cache = stats_delta(before, cache_.stats());
  // Tail latency of the workload mix, only when the objective asked for
  // it (make_mapper already validated the spec text above).
  if (ObjectiveSpec::parse(request.objective)
          .references(Metric::kP99Latency)) {
    std::vector<double> latencies;
    std::vector<double> weights;
    latencies.reserve(response.batch.models.size());
    weights.reserve(response.batch.models.size());
    for (const BatchReport::ModelResult& m : response.batch.models) {
      latencies.push_back(m.report.total_runtime_ns);
      weights.push_back(m.weight);
    }
    response.p99_latency_ns = p99_latency_ns(latencies, weights);
  }
  return response;
}

ExploreResponse Engine::evaluate_explore(const ExploreRequest& request,
                                         const ExploreHooks& hooks) {
  const std::vector<arch::PtcTemplate> templates =
      resolve_templates(request.base);
  const BatchAggregate aggregate = aggregate_of(request.base);
  const ResolvedModels resolved = resolve_models(request.base);
  const bool batch = resolved.workloads.size() > 1;
  const std::unique_ptr<Mapper> mapper = make_mapper(request.base);
  const std::unique_ptr<DseSampler> sampler = make_sampler(request);
  const std::unique_ptr<ExploreStrategy> strategy = make_strategy(request);
  // Halving's cheap tier: a greedy pass under the request's objective.
  // Only worth substituting when the full mapper actually searches (a
  // costed mapping); under "rules" kLow falls back to the same fixed
  // routing and the rungs merely subset the space.
  const ObjectiveSpec objective = ObjectiveSpec::parse(request.base.objective);
  std::unique_ptr<Mapper> low_fidelity;
  if (strategy != nullptr && mapper != nullptr && mapper->needs_costs()) {
    low_fidelity = std::make_unique<GreedyMapper>(objective);
  }

  DseSpace space = request.space;
  space.base = request.base.params;
  const DseShardWriter::Metadata header =
      sweep_header(request, label_of(templates), resolved, aggregate,
                   objective, space, sampler.get());

  DseOptions options;
  options.num_threads = request.base.num_threads;
  options.cache = request.dse_cache;
  options.aggregate = aggregate;
  options.objective = objective;
  options.mapper = mapper.get();
  options.sampler = sampler.get();
  options.shard = request.shard;
  options.strategy = strategy.get();
  options.low_fidelity_mapper = low_fidelity.get();
  options.CommonOptions::on_progress = hooks.on_progress;
  const bool attach = request.base.cost_cache && mapper != nullptr &&
                      mapper->needs_costs();
  if (attach) options.cost_cache = &cache_;

  // Resume: the recovered points must be THIS sweep's — same header, and
  // (the point list being a pure function of space, sampler and seed) the
  // same params at every index — before on_start may overwrite anything.
  std::unordered_set<size_t> recovered;
  if (hooks.resume != nullptr) {
    const ShardRecovery& resume = *hooks.resume;
    header.require_same_sweep(resume.metadata, resume.origin, "this run",
                              /*compare_shard=*/true);
    const std::string prefix =
        resume.origin.empty() ? "" : resume.origin + ": ";
    const std::vector<arch::ArchParams> points = resolve_points(request);
    for (const DsePoint& point : resume.result.points) {
      if (point.index >= points.size() ||
          !(point.params == points[point.index])) {
        throw std::invalid_argument(
            prefix + "--resume point " + std::to_string(point.index) +
            " does not match the current sweep's parameters at that index "
            "(different --sweep/--sample/--samples/--seed?)");
      }
      if (!recovered.insert(point.index).second) {
        throw std::invalid_argument(
            prefix + "--resume found canonical index " +
            std::to_string(point.index) + " twice (damaged shard file?)");
      }
    }
    options.skip_indices = &recovered;
  }
  if (hooks.on_start) hooks.on_start(header);
  if (hooks.resume != nullptr && hooks.on_point) {
    for (const DsePoint& point : hooks.resume->result.points) {
      hooks.on_point(point);
    }
  }

  const CostMatrixCache::Stats before = cache_.stats();
  ExploreResponse response = response_for(header);
  response.result =
      batch ? core::explore(templates, lib_, resolved.workloads, space,
                            options, hooks.on_point)
            : core::explore(templates, lib_, resolved.workloads.at(0), space,
                            options, hooks.on_point);
  // A resumed sweep's result is the merge of the recovered points with
  // the fresh remainder — bit-identical to the uninterrupted run (merge
  // restores canonical order and recomputes the frontier).
  if (!recovered.empty()) {
    response.result = merge({hooks.resume->result, std::move(response.result)},
                            pareto_axes(objective));
  }
  response.cache_attached = attach;
  if (attach) response.cache = stats_delta(before, cache_.stats());
  if (strategy != nullptr) response.rung_stats = strategy->rung_stats();
  return response;
}

ExploreResponse merge_sweep_documents(
    const std::vector<std::pair<std::string, std::string>>& documents) {
  if (documents.empty()) {
    throw std::invalid_argument("merge needs at least one sweep document");
  }
  DseShardWriter::Metadata header;
  std::vector<DseResult> shards;
  std::map<size_t, const std::string*> origin_of;  // canonical index
  for (const auto& [origin, text] : documents) {
    DseShardWriter::Metadata got;
    DseResult shard;
    try {
      const util::Json root = util::Json::parse(text);
      got = DseShardWriter::Metadata::from_json(root);
      shard = dse_result_from_json(root);
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(origin + ": " + error.what());
    }
    if (shards.empty()) {
      header = got;
    } else {
      header.require_same_sweep(got, origin, documents.front().first,
                                /*compare_shard=*/false);
    }
    for (const DsePoint& point : shard.points) {
      const auto [it, inserted] = origin_of.emplace(point.index, &origin);
      if (!inserted) {
        throw std::invalid_argument(
            "canonical point index " + std::to_string(point.index) +
            " appears in both " + *it->second + " and " + origin +
            " (overlapping shard files?)");
      }
    }
    shards.push_back(std::move(shard));
  }
  ExploreResponse response = response_for(header);
  response.shard = DseShard{};
  response.report_rung_stats = false;
  // An empty objective stamp is a canned spec: the legacy Pareto triple.
  const ObjectiveSpec objective = header.objective.empty()
                                      ? ObjectiveSpec()
                                      : ObjectiveSpec::parse(header.objective);
  response.result = merge(std::move(shards), pareto_axes(objective));
  // Pre-sharding documents carry no total: the merged points are all.
  if (response.total_points == 0) {
    response.total_points = response.result.points.size();
  }
  return response;
}

std::shared_ptr<const Simulator> Engine::simulator_for(
    const SimulateRequest& request) {
  // Canonical construction key: everything the Simulator's constructor
  // consumes.  The cache is attached per call (BatchOptions::cost_cache),
  // never at construction, so one memo entry serves cached and uncached
  // requests alike.
  util::Json key_json;
  util::Json arch_json{util::Json::Array{}};
  for (const std::string& name : request.arch) arch_json.push_back(name);
  key_json["arch"] = std::move(arch_json);
  if (!request.description.empty()) {
    key_json["description"] = request.description;
  }
  key_json["params"] = params_to_json(request.params);
  const std::string key = key_json.dump(-1);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = simulators_.find(key);
    if (it != simulators_.end()) return it->second;
  }

  // Materialize outside the lock (construction is the expensive part);
  // racing constructions of the same key produce identical Simulators,
  // and the first insert wins.
  const std::vector<arch::PtcTemplate> templates =
      resolve_templates(request);
  arch::Architecture system(label_of(templates));
  for (const arch::PtcTemplate& ptc : templates) {
    system.add_subarch(arch::SubArchitecture(ptc, request.params, lib_));
  }
  auto simulator = std::make_shared<const Simulator>(std::move(system),
                                                     SimulationOptions{});

  std::lock_guard<std::mutex> lock(mutex_);
  // Bound the memo: wholesale clear when full (in-use Simulators stay
  // alive through their shared_ptrs).
  if (simulators_.size() >= kSimulatorMemoCapacity) simulators_.clear();
  const auto [it, inserted] = simulators_.emplace(key, std::move(simulator));
  return it->second;
}

Engine::Admission Engine::admit(std::string key,
                                std::function<Outcome()> evaluate) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto inflight = inflight_.find(key);
  if (inflight != inflight_.end()) {
    ++counters_.coalesced;
    Admission admission;
    admission.accepted = true;
    admission.coalesced = true;
    admission.outcome = inflight->second;
    return admission;
  }
  if (active_ >= options_.queue_capacity) {
    ++counters_.rejected;
    Admission admission;
    admission.retry_after_ms = options_.retry_after_ms;
    return admission;
  }
  ++counters_.accepted;
  ++active_;
  // Publish the future BEFORE the task can run: with an inline pool
  // (num_threads 1) submit() evaluates on this thread, so the map entry
  // must exist first for completion bookkeeping to erase it.  The task
  // body therefore re-locks; insert a placeholder now and fill it below.
  lock.unlock();

  std::shared_future<Outcome> outcome =
      pool_
          .submit([this, key, evaluate = std::move(evaluate)]() -> Outcome {
            if (options_.evaluation_hook) options_.evaluation_hook();
            Outcome result;
            try {
              result = evaluate();
            } catch (const std::exception& error) {
              result.ok = false;
              result.error = error.what();
            }
            {
              std::lock_guard<std::mutex> inner(mutex_);
              inflight_.erase(key);
              --active_;
              ++counters_.completed;
            }
            drained_.notify_all();
            return result;
          })
          .share();

  {
    std::lock_guard<std::mutex> inner(mutex_);
    // With a threaded pool the task may not have started yet — publish
    // the future for coalescing.  With an inline pool the task already
    // finished (and erased nothing: the key was never inserted), so
    // don't resurrect it.
    if (outcome.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      inflight_.emplace(key, outcome);
    }
  }
  Admission admission;
  admission.accepted = true;
  admission.outcome = std::move(outcome);
  return admission;
}

Engine::Admission Engine::submit(
    const SimulateRequest& request,
    std::function<void(const Progress&)> on_progress) {
  // Parse -> to_json is the canonical form; prefix the op so a simulate
  // and an explore of the same base can never collide.
  const std::string key = "simulate:" + request.to_json().dump(-1);
  SimulateRequest copy = request;
  return admit(key, [this, copy = std::move(copy),
                     on_progress = std::move(on_progress)]() -> Outcome {
    const SimulateResponse response = evaluate_simulate(copy, on_progress);
    Outcome outcome;
    outcome.ok = true;
    outcome.document = response.to_json();
    outcome.cache = response.cache;
    outcome.cache_attached = response.cache_attached;
    return outcome;
  });
}

Engine::Admission Engine::submit(
    const ExploreRequest& request,
    std::function<void(const Progress&)> on_progress) {
  const std::string key = "explore:" + request.to_json().dump(-1);
  ExploreRequest copy = request;
  return admit(key, [this, copy = std::move(copy),
                     on_progress = std::move(on_progress)]() -> Outcome {
    ExploreHooks hooks;
    hooks.on_progress = on_progress;
    const ExploreResponse response = evaluate_explore(copy, hooks);
    Outcome outcome;
    outcome.ok = true;
    outcome.document = response.to_json();
    outcome.cache = response.cache;
    outcome.cache_attached = response.cache_attached;
    return outcome;
  });
}

size_t Engine::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

void Engine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return active_ == 0; });
}

void Engine::save_cache() const {
  if (options_.cache_file.empty()) return;
  cache_.save(options_.cache_file);
}

Engine::Counters Engine::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace simphony::core
