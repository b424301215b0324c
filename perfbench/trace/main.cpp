// perfbench_trace — the benchmark's traced run, in process.
//
//   perfbench_trace PLAN.json OUT_DIR
//
// PLAN.json: {"cache_file": "<.spcc path or empty>",
//             "ops": [{"id": "...", "line": "<NDJSON request envelope>"}]}
//
// Each op is answered twice on the calling thread, both times from the
// same starting cache state (the plan's cache file, or cold):
//
//  1. untraced: core::Engine::simulate / explore, the path the CLI and
//     simphonyd run;
//  2. traced: a replica of the Engine's evaluation assembled from the
//     modules' public calls, with a span around each call.
//
// The replica's document must equal the Engine's byte for byte, which is
// what makes its spans a faithful account of the Engine's work.  Calls
// that run inside a library call and cannot be wrapped from outside
// (shared-memory sizing and the four per-pair analyses inside the cost
// fill, the per-sub-arch area analysis) are replayed on the same inputs
// right after the enclosing call and recorded as "replay" children of
// the span that contained them.  The per-pair replay runs only on cost
// fills whose lookups all missed the cache, since on a hit that work
// never ran.
//
// OUT_DIR receives trace.json (spans, per-op timings, cache counters)
// and <id>.engine.json / <id>.replica.json (the rendered documents,
// written exactly as the CLI prints them, trailing newline included).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "arch/hierarchy.h"
#include "arch/link_budget.h"
#include "core/dse.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "core/mapper.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "dataflow/dataflow.h"
#include "devlib/library.h"
#include "energy/energy_model.h"
#include "memory/hierarchy.h"
#include "memory/traffic.h"
#include "util/json.h"
#include "workload/gemm.h"
#include "workload/model.h"
#include "workload/onn_convert.h"

namespace {

using namespace simphony;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the span list, -1 for a root
  int op;      // index of the plan op (request) the span belongs to
  bool replay;
  /// The span that was open while this one ran: `parent` for a call,
  /// the enclosing span for a replay (whose parent is the span that
  /// contained the replayed call).
  int host;
};

/// In-memory span recorder.  begin()/end() nest on a stack; replay()
/// records a finished span under an explicit parent.
class Tracer {
 public:
  int begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, op_, false, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end() {
    spans_[static_cast<size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  template <typename F>
  void replay(const char* name, int parent, F&& work) {
    const int64_t start = now_ns();
    work();
    const int host = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, start, now_ns(), parent, op_, true, host});
    replay_ns_ += spans_.back().end_ns - start;
  }
  void set_op(int op) { op_ = op; }
  [[nodiscard]] int64_t replay_ns() const { return replay_ns_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int op_ = -1;
  int64_t replay_ns_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.begin(name);
  }
  ~Scope() { tracer_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// Forwards to the request's mapper and uses the two calls the Simulator
/// makes on it as span boundaries: validate() opens a mapping pass
/// (Simulator::plan_mapping), map() ends the cost fill and is itself the
/// search.  One Pass per plan_mapping call, with the cache counters
/// across its cost fill.
class TracingMapper final : public core::Mapper {
 public:
  struct Pass {
    int fill_span;
    uint64_t hits;
    uint64_t misses;
  };

  TracingMapper(const core::Mapper& inner, Tracer& tracer,
                const core::CostMatrixCache& cache)
      : inner_(inner), tracer_(tracer), cache_(cache) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool needs_costs() const override {
    return inner_.needs_costs();
  }
  [[nodiscard]] std::vector<std::string> validate(
      const arch::Architecture& architecture) const override {
    std::vector<std::string> problems = inner_.validate(architecture);
    before_ = cache_.stats();
    fill_span_ = tracer_.begin("core.mapper.cost_fill");
    return problems;
  }
  [[nodiscard]] core::Mapping map(
      const core::MappingProblem& problem) const override {
    tracer_.end();
    const core::CostMatrixCache::Stats after = cache_.stats();
    passes_.push_back(Pass{fill_span_, after.hits - before_.hits,
                           after.misses - before_.misses});
    Scope search(tracer_, "core.mapper.search");
    return inner_.map(problem);
  }

  /// Passes recorded since the last call (and forgets them).
  std::vector<Pass> take_passes() { return std::exchange(passes_, {}); }

 private:
  const core::Mapper& inner_;
  Tracer& tracer_;
  const core::CostMatrixCache& cache_;
  mutable core::CostMatrixCache::Stats before_;
  mutable int fill_span_ = -1;
  mutable std::vector<Pass> passes_;
};

struct Counters {
  uint64_t json_bytes = 0;
  uint64_t miss_only_passes = 0;
  uint64_t mixed_passes = 0;
};

class Replica {
 public:
  Replica(Tracer& tracer, core::CostMatrixCache& cache)
      : tracer_(tracer), cache_(cache),
        lib_(devlib::DeviceLibrary::standard()) {}

  std::string simulate(const std::string& line) {
    Scope root(tracer_, "core.engine.simulate");
    core::SimulateRequest request;
    {
      Scope parse(tracer_, "util.json.parse");
      request =
          core::SimulateRequest::from_json(util::Json::parse(line).at("request"));
    }
    const std::optional<core::BatchAggregate> aggregate =
        core::parse_aggregate(request.aggregate);
    if (!aggregate) throw std::invalid_argument("bad aggregate");
    core::ResolvedModels resolved = resolve_models(request);
    const std::unique_ptr<core::Mapper> mapper = core::make_mapper(request);
    const core::RuleMapper fallback((core::MappingConfig(0)));
    const core::Mapper& chosen = mapper != nullptr
                                     ? static_cast<const core::Mapper&>(*mapper)
                                     : fallback;
    if (request.num_threads != 1) {
      // The span stack and the forwarding mapper are single-threaded.
      throw std::invalid_argument("the traced replica needs num_threads 1");
    }
    const std::shared_ptr<const core::Simulator> sim = simulator_for(request);

    TracingMapper traced(chosen, tracer_, cache_);
    core::BatchOptions options;
    options.num_threads = request.num_threads;
    const bool attach =
        request.cost_cache && mapper != nullptr && mapper->needs_costs();
    if (attach) options.cost_cache = &cache_;
    const core::CostMatrixCache::Stats before = cache_.stats();
    core::SimulateResponse response;
    const int batch_span = tracer_.begin("core.simulator.batch");
    response.batch =
        sim->simulate_batch(resolved.workloads, traced, options);
    tracer_.end();
    const std::vector<TracingMapper::Pass> passes = traced.take_passes();
    for (size_t m = 0; m < passes.size() && m < resolved.workloads.size();
         ++m) {
      replay_pass(*sim, resolved.workloads.at(m).gemms, passes[m],
                  batch_span);
    }
    response.is_batch = resolved.workloads.size() > 1;
    response.mapped = mapper != nullptr;
    response.aggregate = *aggregate;
    response.arch_label = core::arch_label(request);
    response.model_label = std::move(resolved.label);
    response.mapping_name = chosen.name();
    response.objective_name = request.objective;
    response.cache_attached = attach;
    if (attach) {
      const core::CostMatrixCache::Stats after = cache_.stats();
      response.cache = {after.hits - before.hits,
                        after.misses - before.misses};
    }
    if (core::ObjectiveSpec::parse(request.objective)
            .references(core::Metric::kP99Latency)) {
      std::vector<double> latencies;
      std::vector<double> weights;
      for (const core::BatchReport::ModelResult& m : response.batch.models) {
        latencies.push_back(m.report.total_runtime_ns);
        weights.push_back(m.weight);
      }
      response.p99_latency_ns = core::p99_latency_ns(latencies, weights);
    }
    return render(response);
  }

  std::string explore(const std::string& line) {
    Scope root(tracer_, "core.dse.explore");
    core::ExploreRequest request;
    {
      Scope parse(tracer_, "util.json.parse");
      request =
          core::ExploreRequest::from_json(util::Json::parse(line).at("request"));
    }
    const core::SimulateRequest& base = request.base;
    if (request.strategy != "one-shot" || request.shard.count != 1 ||
        !request.space.input_bits.empty() ||
        !request.space.output_bits.empty()) {
      throw std::invalid_argument(
          "the traced replica covers one-shot, unsharded sweeps without "
          "bit axes");
    }
    core::ResolvedModels resolved = resolve_models(base);
    if (resolved.workloads.size() != 1) {
      throw std::invalid_argument("the traced replica sweeps one model");
    }
    const std::unique_ptr<core::Mapper> mapper = core::make_mapper(base);
    if (mapper == nullptr) {
      throw std::invalid_argument("the traced replica needs a costed mapping");
    }
    const core::ObjectiveSpec objective =
        core::ObjectiveSpec::parse(base.objective);
    const bool attach = base.cost_cache && mapper->needs_costs();
    const bool want_p99 = objective.references(core::Metric::kP99Latency);

    std::vector<arch::ArchParams> points;
    {
      Scope sample(tracer_, "core.dse.sample");
      points = core::resolve_points(request);
    }
    // core::explore re-extracts the GEMMs and re-fingerprints them once
    // per sweep.
    std::vector<workload::GemmWorkload> gemms;
    std::vector<uint64_t> keys;
    {
      Scope prepare(tracer_, "core.dse.prepare");
      gemms = workload::extract_gemms(resolved.workloads.at(0).model);
      if (attach) {
        for (const workload::GemmWorkload& gemm : gemms) {
          keys.push_back(core::gemm_fingerprint(gemm));
        }
      }
    }
    std::vector<std::shared_ptr<const arch::PtcTemplate>> templates;
    for (const arch::PtcTemplate& t : core::resolve_templates(base)) {
      templates.push_back(std::make_shared<const arch::PtcTemplate>(t));
    }
    std::string arch_name = "dse-" + templates.front()->name;
    for (size_t t = 1; t < templates.size(); ++t) {
      arch_name += "+" + templates[t]->name;
    }

    TracingMapper traced(*mapper, tracer_, cache_);
    const core::CostMatrixCache::Stats before = cache_.stats();
    core::DseResult result;
    std::unordered_set<arch::ArchParams, core::ArchParamsHash> distinct;
    for (size_t i = 0; i < points.size(); ++i) {
      const arch::ArchParams& params = points[i];
      distinct.insert(params);
      tracer_.begin("arch.materialize");
      arch::Architecture system(arch_name);
      for (const auto& t : templates) {
        system.add_subarch(arch::SubArchitecture(t, params, lib_));
      }
      core::SimulationOptions sim_options;
      sim_options.cost_cache = attach ? &cache_ : nullptr;
      const core::Simulator sim(std::move(system), sim_options);
      tracer_.end();

      const int point_span = tracer_.begin("core.simulator.totals");
      const core::ModelTotals totals = sim.simulate_gemms_totals(
          gemms, traced, nullptr, keys.empty() ? nullptr : keys.data());
      tracer_.end();
      for (const TracingMapper::Pass& pass : traced.take_passes()) {
        replay_pass(sim, gemms, pass, point_span);
      }

      core::DsePoint point;
      point.index = i;
      point.params = params;
      point.energy_pJ = totals.energy_pJ();
      point.latency_ns = totals.runtime_ns;
      point.area_mm2 = totals.total_area_mm2();
      point.power_W = totals.average_power_W();
      point.tops = totals.tops();
      if (want_p99) {
        const double latency = totals.runtime_ns;
        const double one = 1.0;
        point.p99_latency_ns = core::p99_latency_ns(&latency, &one, 1);
      }
      result.points.push_back(std::move(point));
    }
    {
      Scope pareto(tracer_, "core.dse.pareto");
      core::mark_pareto_frontier(result.points, core::pareto_axes(objective));
    }

    core::ExploreResponse response;
    response.result = std::move(result);
    response.arch_label = core::arch_label(base);
    response.model_label = std::move(resolved.label);
    const bool sampled = request.sample != "grid";
    response.sampler_name = sampled ? request.sample : "grid";
    response.objective = objective.canned_objective() ? "" : objective.text();
    core::DseSpace space = request.space;
    space.base = base.params;
    response.total_points =
        sampled ? static_cast<size_t>(request.samples) : space.size();
    response.shard = request.shard;
    response.cache_attached = attach;
    if (attach) {
      const core::CostMatrixCache::Stats after = cache_.stats();
      response.cache = {after.hits - before.hits,
                        after.misses - before.misses};
    }
    response.strategy_name = request.strategy;
    if (request.sample == "random") {
      response.distinct = distinct.size();
      response.report_distinct = true;
    }
    return render(response);
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  /// core::resolve_models, call by call.
  core::ResolvedModels resolve_models(const core::SimulateRequest& request) {
    Scope resolve(tracer_, "workload.resolve");
    std::vector<core::WorkloadSpec> specs = request.models;
    if (specs.empty()) specs.push_back({"gemm:280x28x280", "", 1.0});
    core::ResolvedModels resolved;
    std::map<std::string, int> name_uses;
    for (const core::WorkloadSpec& spec : specs) {
      workload::Model built;
      {
        Scope build(tracer_, "workload.build");
        built = workload::model_from_spec(spec.spec);
      }
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

  /// The Engine's Simulator memo (same key, same construction).
  std::shared_ptr<const core::Simulator> simulator_for(
      const core::SimulateRequest& request) {
    const util::Json canonical = request.to_json();
    util::Json key_json;
    key_json["arch"] = canonical.at("arch");
    if (!request.description.empty()) {
      key_json["description"] = request.description;
    }
    key_json["params"] = canonical.at("params");
    const std::string key = key_json.dump(-1);
    const auto it = simulators_.find(key);
    if (it != simulators_.end()) return it->second;

    Scope materialize(tracer_, "arch.materialize");
    const std::vector<arch::PtcTemplate> templates =
        core::resolve_templates(request);
    arch::Architecture system(core::arch_label(request));
    for (const arch::PtcTemplate& ptc : templates) {
      system.add_subarch(arch::SubArchitecture(ptc, request.params, lib_));
    }
    auto sim = std::make_shared<const core::Simulator>(
        std::move(system), core::SimulationOptions{});
    simulators_.emplace(key, sim);
    return sim;
  }

  /// Replays the calls a mapping pass made inside the library: the shared
  /// memory sizing and (on all-miss cost fills) the four per-pair
  /// analyses under the cost-fill span, the area analysis under `parent`.
  void replay_pass(const core::Simulator& sim,
                   const std::vector<workload::GemmWorkload>& gemms,
                   const TracingMapper::Pass& pass, int parent) {
    const arch::Architecture& system = sim.architecture();
    std::vector<const arch::SubArchitecture*> subarchs;
    for (size_t s = 0; s < system.subarch_count(); ++s) {
      subarchs.push_back(&system.subarch(s));
    }
    memory::MemoryHierarchy memory;
    tracer_.replay("memory.size", pass.fill_span, [&] {
      memory = memory::build_memory_hierarchy(subarchs, gemms,
                                              sim.options().memory);
    });
    if (pass.misses > 0 && pass.hits == 0) {
      ++counters_.miss_only_passes;
      const energy::EnergyOptions& energy_options = sim.options().energy;
      for (const workload::GemmWorkload& gemm : gemms) {
        for (const arch::SubArchitecture* subarch : subarchs) {
          dataflow::DataflowResult mapped;
          bool feasible = true;
          tracer_.replay("dataflow.map", pass.fill_span, [&] {
            try {
              mapped = dataflow::map_gemm(*subarch, gemm,
                                          memory.glb.bandwidth_GBps);
            } catch (const std::invalid_argument&) {
              feasible = false;  // the infeasible pair the fill recorded
            }
          });
          if (!feasible) continue;
          arch::LinkBudgetReport link;
          tracer_.replay("arch.link_budget", pass.fill_span, [&] {
            link = arch::analyze_link_budget(*subarch, gemm.input_bits);
          });
          memory::TrafficResult traffic;
          tracer_.replay("memory.traffic", pass.fill_span, [&] {
            traffic = memory::analyze_traffic(*subarch, gemm, mapped, memory);
          });
          tracer_.replay("energy.compute", pass.fill_span, [&] {
            const energy::EnergyBreakdown energy = energy::compute_energy(
                *subarch, gemm, mapped, link,
                energy_options.include_data_movement ? &traffic : nullptr,
                energy_options);
            static_cast<void>(energy);
          });
        }
      }
    } else if (pass.misses > 0) {
      ++counters_.mixed_passes;
    }
    for (size_t s = 0; s < system.subarch_count(); ++s) {
      tracer_.replay("layout.area", parent, [&] {
        static_cast<void>(sim.analyze_area(s));
      });
    }
  }

  template <typename Response>
  std::string render(const Response& response) {
    Scope render_span(tracer_, "util.json.render");
    std::string text = response.to_json().dump(2) + "\n";
    counters_.json_bytes += text.size();
    return text;
  }

  Tracer& tracer_;
  core::CostMatrixCache& cache_;
  devlib::DeviceLibrary lib_;
  std::map<std::string, std::shared_ptr<const core::Simulator>> simulators_;
  Counters counters_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

struct Op {
  std::string id;
  std::string kind;  // simulate | explore
  std::string line;
};

int run(const std::string& plan_path, const std::string& out_dir) {
  const util::Json plan = util::Json::parse(read_file(plan_path));
  const std::string cache_file = plan.at("cache_file").as_string();
  std::vector<Op> ops;
  for (const util::Json& op : plan.at("ops").as_array()) {
    const std::string line = op.at("line").as_string();
    ops.push_back(Op{op.at("id").as_string(),
                     util::Json::parse(line).at("op").as_string(), line});
  }

  // 1. Untraced: the Engine itself, one thread.  It runs once before and
  // once after the traced replica; timings are the mean of the two, so
  // first-run effects (allocator growth, cold caches) fall on both sides.
  std::vector<int64_t> engine_ns(ops.size(), 0);
  std::vector<int64_t> untraced_ns(ops.size(), 0);
  std::vector<std::string> engine_docs(ops.size());
  const auto untraced_pass = [&] {
    core::Engine::Options options;
    options.num_threads = 1;
    core::Engine engine(options);
    if (!cache_file.empty()) {
      static_cast<void>(engine.cost_cache().load(cache_file));
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      const int64_t start = now_ns();
      const util::Json request = util::Json::parse(ops[i].line).at("request");
      util::Json document;
      int64_t eval_start = 0;
      int64_t eval_end = 0;
      if (ops[i].kind == "simulate") {
        const core::SimulateRequest typed =
            core::SimulateRequest::from_json(request);
        eval_start = now_ns();
        const core::SimulateResponse response = engine.simulate(typed);
        eval_end = now_ns();
        document = response.to_json();
      } else {
        const core::ExploreRequest typed =
            core::ExploreRequest::from_json(request);
        eval_start = now_ns();
        const core::ExploreResponse response = engine.explore(typed);
        eval_end = now_ns();
        document = response.to_json();
      }
      const std::string text = document.dump(2) + "\n";
      untraced_ns[i] += (now_ns() - start) / 2;
      engine_ns[i] += (eval_end - eval_start) / 2;
      if (engine_docs[i].empty()) engine_docs[i] = text;
      if (text != engine_docs[i]) {
        throw std::runtime_error("the Engine answered " + ops[i].id +
                                 " differently on its second pass");
      }
    }
  };
  untraced_pass();

  // 2. Traced replica from the same starting cache state.
  Tracer tracer;
  core::CostMatrixCache cache;
  uint64_t cache_bytes = 0;
  if (!cache_file.empty()) {
    Scope load(tracer, "util.binio.cache_load");
    static_cast<void>(cache.load(cache_file));
    cache_bytes = read_file(cache_file).size();
  }
  const core::CostMatrixCache::Stats loaded = cache.stats();
  Replica replica(tracer, cache);
  std::vector<int64_t> traced_ns(ops.size());
  std::vector<int64_t> replay_ns(ops.size());
  std::vector<bool> equal(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    tracer.set_op(static_cast<int>(i));
    const int64_t replay_before = tracer.replay_ns();
    const int64_t start = now_ns();
    const std::string document = ops[i].kind == "simulate"
                                     ? replica.simulate(ops[i].line)
                                     : replica.explore(ops[i].line);
    traced_ns[i] = now_ns() - start;
    replay_ns[i] = tracer.replay_ns() - replay_before;
    equal[i] = document == engine_docs[i];
    write_file(out_dir + "/" + ops[i].id + ".engine.json", engine_docs[i]);
    write_file(out_dir + "/" + ops[i].id + ".replica.json", document);
  }

  untraced_pass();

  util::Json op_results{util::Json::Array{}};
  bool all_equal = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    all_equal = all_equal && equal[i];
    util::Json result;
    result["id"] = ops[i].id;
    result["kind"] = ops[i].kind;
    result["engine_ns"] = static_cast<double>(engine_ns[i]);
    result["untraced_ns"] = static_cast<double>(untraced_ns[i]);
    result["traced_ns"] = static_cast<double>(traced_ns[i]);
    result["replay_ns"] = static_cast<double>(replay_ns[i]);
    result["replica_equal"] = static_cast<bool>(equal[i]);
    op_results.push_back(std::move(result));
  }

  util::Json spans{util::Json::Array{}};
  for (const Span& span : tracer.spans()) {
    util::Json s{util::Json::Array{}};
    s.push_back(span.name);
    s.push_back(static_cast<double>(span.start_ns));
    s.push_back(static_cast<double>(span.end_ns));
    s.push_back(span.parent);
    s.push_back(span.op);
    s.push_back(span.replay);
    s.push_back(span.host);
    spans.push_back(std::move(s));
  }
  const core::CostMatrixCache::Stats stats = cache.stats();
  util::Json out;
  out["ops"] = std::move(op_results);
  out["spans"] = std::move(spans);
  out["replica_equal"] = all_equal;
  out["cache_hits"] = static_cast<double>(stats.hits - loaded.hits);
  out["cache_misses"] = static_cast<double>(stats.misses - loaded.misses);
  out["cache_bytes"] = static_cast<double>(cache_bytes);
  out["json_bytes"] = static_cast<double>(replica.counters().json_bytes);
  out["miss_only_passes"] =
      static_cast<double>(replica.counters().miss_only_passes);
  out["mixed_passes"] = static_cast<double>(replica.counters().mixed_passes);
  write_file(out_dir + "/trace.json", out.dump(-1) + "\n");
  return all_equal ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_trace PLAN.json OUT_DIR\n";
    return 2;
  }
  try {
    return run(argv[1], argv[2]);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_trace: " << error.what() << "\n";
    return 1;
  }
}
