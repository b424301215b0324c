#include "core/simulator.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "core/fingerprint.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "workload/gemm.h"
#include "workload/recipe.h"

namespace simphony::core {

namespace {

/// Construction-invariant prefix of the hardware-side half of a
/// CostMatrixCache key: everything simulate_one reads that is fixed once
/// the Simulator exists — template structure, materialized instance
/// groups (the symbolic scaling rules evaluated at this parameter point),
/// ArchParams, device-library content, and the energy options.  The
/// per-call memory-hierarchy suffix is appended by
/// finish_subarch_fingerprint; the two-step sequence hashes exactly the
/// same values in exactly the same order as the original one-pass
/// fingerprint, so persisted caches (docs/persistence.md) stay valid.
size_t subarch_static_fingerprint(const arch::SubArchitecture& subarch,
                                  const SimulationOptions& options) {
  size_t seed = 0;
  const arch::PtcTemplate& t = subarch.ptc();
  util::hash_combine_value(seed, t.name);
  util::hash_combine_value(seed, t.node_instance);
  util::hash_combine_value(seed, t.reconfig_latency_ns);
  util::hash_combine_value(seed, t.output_stationary);
  util::hash_combine_value(seed, t.core_routing_overhead);
  util::hash_combine_value(seed,
                           static_cast<int>(t.taxonomy.operand_a.range));
  util::hash_combine_value(seed,
                           static_cast<int>(t.taxonomy.operand_a.reconfig));
  util::hash_combine_value(seed,
                           static_cast<int>(t.taxonomy.operand_b.range));
  util::hash_combine_value(seed,
                           static_cast<int>(t.taxonomy.operand_b.reconfig));
  util::hash_combine_value(seed, static_cast<int>(t.taxonomy.method));
  // The arch-level connectivity feeds the link-budget DAG; endpoint names
  // are enough to tell templates apart alongside the group list below.
  util::hash_combine_value(seed, t.nets.size());
  for (const auto& net : t.nets) {
    util::hash_combine_value(seed, net.src);
    util::hash_combine_value(seed, net.dst);
  }
  for (const auto& group : subarch.groups()) {
    util::hash_combine_value(seed, group.spec->name);
    util::hash_combine_value(seed, group.spec->device);
    util::hash_combine_value(seed, static_cast<int>(group.spec->role));
    util::hash_combine_value(seed, group.spec->on_optical_path);
    util::hash_combine_value(seed, group.count);
    util::hash_combine_value(seed, group.unit_area_um2);
    util::hash_combine_value(seed, group.path_loss_dB);
  }
  const arch::ArchParams& p = subarch.params();
  util::hash_combine_value(seed, p.tiles);
  util::hash_combine_value(seed, p.cores_per_tile);
  util::hash_combine_value(seed, p.core_height);
  util::hash_combine_value(seed, p.core_width);
  util::hash_combine_value(seed, p.wavelengths);
  util::hash_combine_value(seed, p.clock_GHz);
  util::hash_combine_value(seed, p.input_bits);
  util::hash_combine_value(seed, p.weight_bits);
  util::hash_combine_value(seed, p.output_bits);
  // The device library enters by *content*, not address: a sweep loop
  // rebuilding library variants at a recycled address while sharing one
  // cache must never collide with an earlier variant's costs.
  const devlib::DeviceLibrary& lib = subarch.library();
  util::hash_combine_value(seed, lib.size());
  for (const std::string& device_name : lib.names()) {
    const devlib::DeviceParams& device = lib.get(device_name);
    util::hash_combine_value(seed, device.name);
    util::hash_combine_value(seed, static_cast<int>(device.category));
    util::hash_combine_value(seed, device.footprint.width_um);
    util::hash_combine_value(seed, device.footprint.height_um);
    util::hash_combine_value(seed, device.insertion_loss_dB);
    util::hash_combine_value(seed, device.static_power_mW);
    util::hash_combine_value(seed, device.dynamic_energy_fJ);
    util::hash_combine_value(seed, device.latency_ns);
    util::hash_combine_value(seed, device.bandwidth_GHz);
    for (const auto& [key, value] : device.extra) {
      util::hash_combine_value(seed, key);
      util::hash_combine_value(seed, value);
    }
  }
  util::hash_combine_value(seed,
                           static_cast<int>(options.energy.fidelity));
  util::hash_combine_value(seed, options.energy.data_aware);
  util::hash_combine_value(seed, options.energy.include_data_movement);
  return seed;
}

/// Appends the per-call memory-hierarchy suffix to a static prefix seed,
/// producing the full hardware-side fingerprint.
uint64_t finish_subarch_fingerprint(size_t seed,
                                    const memory::MemoryHierarchy& memory) {
  for (const memory::MemoryLevel* level :
       {&memory.hbm, &memory.glb, &memory.lb, &memory.rf}) {
    util::hash_combine_value(seed, level->capacity_kB);
    util::hash_combine_value(seed, level->bandwidth_GBps);
    util::hash_combine_value(seed, level->read_energy_pJ_per_bit);
    util::hash_combine_value(seed, level->write_energy_pJ_per_bit);
    util::hash_combine_value(seed, level->leakage_mW);
    util::hash_combine_value(seed, level->blocks);
    util::hash_combine_value(seed, level->cycle_ns);
  }
  util::hash_combine_value(seed, memory.glb_demand_GBps);
  return static_cast<uint64_t>(seed);
}

}  // namespace

/// Workload-side half of the key (declared in core/fingerprint.h so
/// WorkloadSet::add can pre-compute it once per sweep).  The layer *name*
/// is deliberately excluded (identical layers share an entry; identity
/// fields are rewritten at report-assembly time), while the weight values
/// are included because the energy model is data-aware: by recipe and
/// slot while the tensor is recipe-backed (nothing is drawn), else by
/// content.  The two domains carry distinct tags.
uint64_t gemm_fingerprint(const workload::GemmWorkload& gemm) {
  size_t seed = 0x67656d6d;  // "gemm": decorrelates from the subarch side
  util::hash_combine_value(seed, gemm.n);
  util::hash_combine_value(seed, gemm.d);
  util::hash_combine_value(seed, gemm.m);
  util::hash_combine_value(seed, gemm.batch);
  util::hash_combine_value(seed, gemm.input_bits);
  util::hash_combine_value(seed, gemm.weight_bits);
  util::hash_combine_value(seed, gemm.output_bits);
  util::hash_combine_value(seed, gemm.b_dynamic);
  util::hash_combine_value(seed, gemm.sparsity);
  util::hash_combine_value(seed, static_cast<int>(gemm.source_type));
  util::hash_combine_value(seed, gemm.weights != nullptr);
  if (gemm.weights != nullptr) {
    for (int64_t dim : gemm.weights->shape()) {
      util::hash_combine_value(seed, dim);
    }
    if (const workload::WeightSource* source = gemm.weights->source()) {
      util::hash_combine_value(seed, 0x72656369U);  // "reci"
      util::hash_combine_value(seed, source->key());
      util::hash_combine_value(seed, gemm.weights->slot());
    } else {
      const std::vector<float>& data = gemm.weights->data();
      util::hash_combine_value(seed, 0x64617461U);  // "data"
      util::hash_combine(
          seed, util::fnv1a_bytes(data.data(), data.size() * sizeof(float)));
    }
  }
  return static_cast<uint64_t>(seed);
}

Simulator::Simulator(arch::Architecture architecture,
                     SimulationOptions options)
    : architecture_(std::move(architecture)), options_(std::move(options)) {
  if (architecture_.subarch_count() == 0) {
    throw std::invalid_argument(
        "Simulator needs an architecture with >= 1 sub-architecture");
  }
  // Static cache-key prefixes are computed even without a construction-
  // time cache attachment: BatchOptions::cost_cache may attach one
  // per-call, and the one-time hash of the template structure is cheap
  // next to materializing the architecture.
  subarch_static_seeds_.reserve(architecture_.subarch_count());
  for (size_t s = 0; s < architecture_.subarch_count(); ++s) {
    subarch_static_seeds_.push_back(
        subarch_static_fingerprint(architecture_.subarch(s), options_));
  }
}

LayerReport Simulator::simulate_one(
    size_t subarch_index, const workload::GemmWorkload& gemm,
    const memory::MemoryHierarchy& memory, energy::OperandPowerMemo* memo,
    uint64_t gemm_key) const {
  const arch::SubArchitecture& subarch =
      architecture_.subarch(subarch_index);

  LayerReport report;
  report.layer_name = gemm.name;
  report.subarch_name = subarch.name();
  report.subarch_index = subarch_index;
  report.macs = static_cast<double>(gemm.macs());

  report.dataflow =
      dataflow::map_gemm(subarch, gemm, memory.glb.bandwidth_GBps);
  report.link = arch::analyze_link_budget(subarch, gemm.input_bits);
  report.traffic =
      memory::analyze_traffic(subarch, gemm, report.dataflow, memory);
  report.energy = energy::compute_energy(
      subarch, gemm, report.dataflow, report.link,
      options_.energy.include_data_movement ? &report.traffic : nullptr,
      options_.energy, memo, gemm_key);
  return report;
}

LayerReport Simulator::simulate_gemm(size_t subarch_index,
                                     const workload::GemmWorkload& gemm) const {
  if (subarch_index >= architecture_.subarch_count()) {
    throw std::invalid_argument(
        "simulate_gemm: sub-arch index " + std::to_string(subarch_index) +
        " out of range (architecture '" + architecture_.name() + "' has " +
        std::to_string(architecture_.subarch_count()) +
        " sub-architecture(s))");
  }
  const arch::SubArchitecture& subarch =
      architecture_.subarch(subarch_index);
  const memory::MemoryHierarchy memory = memory::build_memory_hierarchy(
      {&subarch}, {gemm}, options_.memory);
  return simulate_one(subarch_index, gemm, memory);
}

memory::MemoryHierarchy Simulator::build_shared_memory(
    const std::vector<workload::GemmWorkload>& gemms) const {
  std::vector<const arch::SubArchitecture*> subarch_ptrs;
  for (size_t i = 0; i < architecture_.subarch_count(); ++i) {
    subarch_ptrs.push_back(&architecture_.subarch(i));
  }
  return memory::build_memory_hierarchy(subarch_ptrs, gemms,
                                        options_.memory);
}

CostMatrix Simulator::build_cost_matrix(
    const std::vector<workload::GemmWorkload>& gemms,
    const memory::MemoryHierarchy& memory, const uint64_t* gemm_keys,
    CostMatrixCache* cache_override) const {
  CostMatrixCache* cache =
      cache_override != nullptr ? cache_override : options_.cost_cache;
  const size_t S = architecture_.subarch_count();

  // Fingerprints are computed once per side, not once per pair; the key
  // arrays are thread-local arena scratch so the warm-cache path touches
  // the heap only for genuinely new matrix entries.
  util::Arena& arena = util::thread_scratch();
  util::ArenaScope scope(arena);
  uint64_t* subarch_keys = nullptr;
  if (cache != nullptr) {
    subarch_keys = arena.allocate_array<uint64_t>(S);
    for (size_t s = 0; s < S; ++s) {
      subarch_keys[s] =
          finish_subarch_fingerprint(subarch_static_seeds_[s], memory);
    }
    if (gemm_keys == nullptr) {
      // The workload side hashes the weight tensors' content, which would
      // otherwise dominate matrix assembly; callers that sweep the same
      // GEMMs across many points pass precomputed keys instead.
      uint64_t* local = arena.allocate_array<uint64_t>(gemms.size());
      for (size_t g = 0; g < gemms.size(); ++g) {
        local[g] = gemm_fingerprint(gemms[g]);
      }
      gemm_keys = local;
    }
  }

  CostMatrix costs(gemms.size(), S);
  for (size_t g = 0; g < gemms.size(); ++g) {
    for (size_t s = 0; s < S; ++s) {
      const CostMatrixCache::Key key{cache ? subarch_keys[s] : 0,
                                     cache ? gemm_keys[g] : 0};
      if (cache != nullptr) {
        if (auto cached = cache->find_or_claim(key)) {
          // Hits alias the cache's entry — no deep copy of the
          // LayerReport.  The canonical key excludes identity fields, so
          // the shared entry keeps the donor's; report assembly rewrites
          // them for this architecture and layer.
          costs.set(g, s, std::move(cached));
          continue;
        }
      }
      // This thread now holds the key's claim; settle it however the
      // simulation ends, so threads waiting on the key never hang.
      struct ClaimRelease {
        CostMatrixCache* cache;
        const CostMatrixCache::Key& key;
        ~ClaimRelease() {
          if (cache != nullptr) cache->release(key);
        }
      } claim{cache, key};
      CostMatrix::Entry entry;
      try {
        // A miss still walks each weight tensor only once per cache: the
        // cache's operand-power memo holds the walk under the GEMM's
        // content key.
        entry.report = simulate_one(
            s, gemms[g], memory,
            cache != nullptr ? &cache->operand_power() : nullptr, key.gemm);
        entry.feasible = true;
      } catch (const std::invalid_argument& e) {
        // The simulator rejects workload/hardware mismatches (e.g. a
        // dynamic tensor product on a static mesh) with invalid_argument;
        // that is an infeasible pair the search routes around.  Anything
        // else is a genuine failure and must propagate, not silently
        // become a routing decision.
        entry.error = e.what();
      }
      // Only feasible entries are memoized: infeasibility diagnostics
      // embed the layer's own name (which the canonical key excludes),
      // and a cached copy would cite the donor layer.  Detecting
      // infeasibility is cheap — the simulator rejects the pair before
      // any costly analysis.  The matrix stores the cache's own pointer,
      // so a later hit in this same sweep shares it too.
      if (cache != nullptr && entry.feasible) {
        costs.set(g, s, cache->insert(key, std::move(entry)));
      } else {
        costs.set(g, s, std::move(entry));
      }
    }
  }
  return costs;
}

CostMatrix Simulator::build_cost_matrix(
    const std::vector<workload::GemmWorkload>& gemms) const {
  return build_cost_matrix(gemms, build_shared_memory(gemms), nullptr);
}

ModelReport Simulator::simulate_model(const workload::Model& model,
                                      const MappingConfig& mapping) const {
  return simulate_gemms(workload::extract_gemms(model), mapping, model.name);
}

ModelReport Simulator::simulate_model(const workload::Model& model,
                                      const Mapper& mapper,
                                      Mapping* chosen) const {
  return simulate_gemms(workload::extract_gemms(model), mapper, model.name,
                        chosen);
}

ModelReport Simulator::simulate_gemms(
    const std::vector<workload::GemmWorkload>& gemms,
    const MappingConfig& mapping, const std::string& model_name) const {
  return simulate_gemms(gemms, RuleMapper(mapping), model_name);
}

ModelReport Simulator::simulate_gemms(
    const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
    const std::string& model_name, Mapping* chosen) const {
  return simulate_gemms_report(gemms, mapper, model_name, chosen, nullptr);
}

Simulator::MappingPlan Simulator::plan_mapping(
    const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
    const uint64_t* gemm_keys, CostMatrixCache* cache_override) const {
  const auto problems = mapper.validate(architecture_);
  if (!problems.empty()) {
    // Report every validation problem, not just the first one found.
    std::string message = "invalid mapping config: " + problems[0];
    for (size_t i = 1; i < problems.size(); ++i) {
      message += "; " + problems[i];
    }
    throw std::invalid_argument(message);
  }

  MappingPlan plan;
  plan.memory = build_shared_memory(gemms);

  MappingProblem problem;
  problem.gemms = &gemms;
  problem.subarch_count = architecture_.subarch_count();
  if (mapper.needs_costs()) {
    plan.costs.emplace(
        build_cost_matrix(gemms, plan.memory, gemm_keys, cache_override));
    problem.costs = &*plan.costs;
  }

  plan.mapping = mapper.map(problem);
  if (plan.mapping.assignment.size() != gemms.size()) {
    throw std::logic_error(
        "mapper '" + mapper.name() + "' returned " +
        std::to_string(plan.mapping.assignment.size()) + " assignments for " +
        std::to_string(gemms.size()) + " GEMMs");
  }
  for (size_t g = 0; g < gemms.size(); ++g) {
    if (plan.mapping.assignment[g] >= architecture_.subarch_count()) {
      throw std::invalid_argument(
          "mapper '" + mapper.name() + "' routed GEMM '" + gemms[g].name +
          "' to sub-arch index " + std::to_string(plan.mapping.assignment[g]) +
          " but architecture '" + architecture_.name() + "' has only " +
          std::to_string(architecture_.subarch_count()) +
          " sub-architecture(s)");
    }
  }
  return plan;
}

ModelReport Simulator::simulate_gemms_report(
    const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
    const std::string& model_name, Mapping* chosen,
    const uint64_t* gemm_keys, CostMatrixCache* cache_override) const {
  MappingPlan plan = plan_mapping(gemms, mapper, gemm_keys, cache_override);
  const std::optional<CostMatrix>& costs = plan.costs;

  ModelReport report;
  report.model_name = model_name;
  report.arch_name = architecture_.name();
  report.memory = plan.memory;
  report.memory_area_mm2 = plan.memory.total_sram_area_mm2();

  for (size_t g = 0; g < gemms.size(); ++g) {
    const size_t target = plan.mapping.assignment[g];
    // The cost matrix already simulated every feasible pair; reuse that
    // result instead of re-simulating the chosen pair.  A rule-driven
    // route to an infeasible pair still surfaces the simulator's own
    // diagnostic via simulate_one.
    LayerReport layer = costs && costs->at(g, target).feasible
                            ? costs->at(g, target).report
                            : simulate_one(target, gemms[g], plan.memory);
    // A cache-hit matrix entry keeps its donor's identity (the canonical
    // key excludes identity fields); restore this layer's.
    layer.layer_name = gemms[g].name;
    layer.subarch_name = architecture_.subarch(target).name();
    layer.subarch_index = target;
    report.total_energy.merge(layer.energy);
    report.total_runtime_ns += layer.runtime_ns();
    report.layers.push_back(std::move(layer));
  }

  for (size_t i = 0; i < architecture_.subarch_count(); ++i) {
    report.subarch_area.push_back(analyze_area(i));
  }
  if (chosen != nullptr) *chosen = std::move(plan.mapping);
  return report;
}

ModelTotals Simulator::simulate_gemms_totals(
    const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
    Mapping* chosen, const uint64_t* gemm_keys) const {
  MappingPlan plan = plan_mapping(gemms, mapper, gemm_keys);
  const std::optional<CostMatrix>& costs = plan.costs;

  ModelTotals totals;
  totals.memory_area_mm2 = plan.memory.total_sram_area_mm2();

  // Accumulation order (GEMM order, then sub-arch-area order) matches
  // simulate_gemms_report exactly, so the floating-point totals are
  // bit-identical to the full-report path.
  for (size_t g = 0; g < gemms.size(); ++g) {
    const size_t target = plan.mapping.assignment[g];
    if (costs && costs->at(g, target).feasible) {
      const CostMatrix::Entry& entry = costs->at(g, target);
      totals.energy.merge(entry.report.energy);
      totals.runtime_ns += entry.report.runtime_ns();
      totals.macs += entry.report.macs;
    } else {
      const LayerReport layer = simulate_one(target, gemms[g], plan.memory);
      totals.energy.merge(layer.energy);
      totals.runtime_ns += layer.runtime_ns();
      totals.macs += layer.macs;
    }
  }

  for (size_t i = 0; i < architecture_.subarch_count(); ++i) {
    totals.subarch_area_mm2 += analyze_area(i).total_mm2();
  }
  if (chosen != nullptr) *chosen = std::move(plan.mapping);
  return totals;
}

BatchReport::Totals BatchReport::totals(BatchAggregate aggregate) const {
  std::vector<BatchModelSlice> slices;
  slices.reserve(models.size());
  for (const ModelResult& m : models) {
    BatchModelSlice slice;
    slice.energy_pJ = m.report.total_energy.total_pJ();
    slice.latency_ns = m.report.total_runtime_ns;
    slice.area_mm2 = m.report.total_area_mm2();
    slice.macs = m.report.total_macs();
    slice.weight = m.weight;
    slice.power_W = m.report.average_power_W();
    slice.tops = m.report.tops();
    slices.push_back(slice);
  }
  const BatchFold fold = fold_batch(aggregate, slices);
  Totals totals;
  totals.energy_pJ = fold.energy_pJ;
  totals.latency_ns = fold.latency_ns;
  totals.area_mm2 = fold.area_mm2;
  totals.macs = fold.macs;
  totals.power_W = fold.power_W;
  totals.tops = fold.tops;
  return totals;
}

BatchReport Simulator::simulate_batch(const WorkloadSet& workloads,
                                      const Mapper& mapper,
                                      const BatchOptions& options) const {
  if (workloads.empty()) {
    throw std::invalid_argument("simulate_batch needs a non-empty "
                                "WorkloadSet");
  }
  BatchReport batch;
  batch.models.resize(workloads.size());

  // One chunked parallel_for over the models (the caller participates;
  // each index is exactly an independent simulate_gemms call — per-model
  // memory sizing, per-model mapping search — writing its own slot), so
  // results are bit-identical to K separate runs whichever participant
  // picks a model up.  The architecture, the thread-safe cost-matrix
  // cache (options_.cost_cache), and the Mapper (const, thread-safe per
  // its contract) are the shared, read-only state.  On a failure no new
  // models start and the lowest failing model's diagnostic reaches the
  // caller.
  util::ThreadPool pool(
      util::ThreadPool::workers_for(options.num_threads, workloads.size()));

  // Progress milestones follow the CommonOptions contract: one mutex
  // keeps the completed count monotone, and the final model always fires
  // exactly one callback at completed == size() for any progress_every.
  const size_t progress_every =
      static_cast<size_t>(std::max(1, options.progress_every));
  std::mutex progress_mutex;
  size_t completed = 0;
  auto report_progress = [&]() {
    if (!options.on_progress) return;
    std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    if (completed % progress_every != 0 && completed != workloads.size()) {
      return;
    }
    options.on_progress(Progress{completed, workloads.size()});
  };

  pool.parallel_for(workloads.size(), [&](size_t i) {
    const WorkloadSet::Entry& entry = workloads.at(i);
    BatchReport::ModelResult& slot = batch.models[i];
    slot.name = entry.name;
    slot.weight = entry.weight;
    slot.report =
        simulate_gemms_report(entry.gemms, mapper, entry.name, &slot.mapping,
                              entry.gemm_fingerprints.data(),
                              options.cost_cache);
    report_progress();
  });
  return batch;
}

layout::AreaBreakdown Simulator::analyze_area(size_t subarch_index) const {
  return layout::analyze_area(architecture_.subarch(subarch_index),
                              options_.area);
}

}  // namespace simphony::core
