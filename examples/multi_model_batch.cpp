// Batched multi-model simulation (core/workload_set.h): the
// serve-many-models scenario.  A WorkloadSet of three models runs on one
// heterogeneous scatter+MZI system — the architecture is constructed
// once and reused across the batch — with a per-model mapping search
// sharing one cost-matrix cache.  The demo then measures the
// amortization: K cold single-model runs (architecture rebuilt per
// model) against one warm simulate_batch on a pre-built Simulator.
#include <chrono>
#include <iostream>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "core/workload_set.h"
#include "util/table.h"
#include "workload/onn_convert.h"

using namespace simphony;

namespace {

arch::Architecture make_system(const devlib::DeviceLibrary& lib) {
  arch::ArchParams params;
  params.wavelengths = 2;
  arch::Architecture system("scatter+mzi");
  system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, lib));
  return system;
}

workload::Model converted(workload::Model model) {
  workload::convert_model_in_place(model);
  return model;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();

  // The batch: a CNN, an MLP, and a raw GEMM, weighted by traffic share.
  core::WorkloadSet workloads;
  workloads.add(converted(workload::vgg8_cifar10()), "vgg8", 2.0);
  workloads.add(converted(workload::mlp_mnist()), "mlp", 1.0);
  workloads.add(converted(workload::single_gemm_model(280, 28, 280)),
                "gemm280", 0.5);

  core::CostMatrixCache cost_cache;
  core::SimulationOptions sim_options;
  sim_options.cost_cache = &cost_cache;
  const core::Simulator sim(make_system(lib), sim_options);

  const core::GreedyMapper mapper;
  core::BatchOptions batch_options;
  batch_options.num_threads = 0;  // one worker per hardware thread
  const core::BatchReport batch =
      sim.simulate_batch(workloads, mapper, batch_options);

  std::cout << "== batched simulation: " << batch.models.size()
            << " models on scatter+mzi (greedy/edp mapping) ==\n";
  util::Table table({"model", "weight", "runtime (us)", "energy (uJ)",
                     "assignment"});
  for (const core::BatchReport::ModelResult& m : batch.models) {
    std::string assignment;
    for (size_t a : m.mapping.assignment) {
      assignment += assignment.empty() ? "" : ",";
      assignment += std::to_string(a);
    }
    table.add_row({m.name, util::Table::fmt(m.weight, 1),
                   util::Table::fmt(m.report.total_runtime_ns / 1e3, 2),
                   util::Table::fmt(m.report.total_energy.total_pJ() / 1e6,
                                    2),
                   assignment});
  }
  std::cout << table.render();

  util::Table totals({"aggregate", "energy (uJ)", "latency (us)",
                      "area (mm^2)", "TOPS"});
  for (const core::BatchAggregate aggregate :
       {core::BatchAggregate::kSum, core::BatchAggregate::kMax,
        core::BatchAggregate::kWeighted}) {
    const core::BatchReport::Totals t = batch.totals(aggregate);
    totals.add_row({core::to_string(aggregate),
                    util::Table::fmt(t.energy_pJ / 1e6, 2),
                    util::Table::fmt(t.latency_ns / 1e3, 2),
                    util::Table::fmt(t.area_mm2, 3),
                    util::Table::fmt(t.tops, 2)});
  }
  std::cout << totals.render();
  const core::CostMatrixCache::Stats stats = cost_cache.stats();
  std::cout << "cost-matrix cache across the batch: " << stats.hits
            << " hit(s) / " << stats.misses << " miss(es)\n\n";

  // Amortization, three regimes on the same serial execution:
  //   cold         — architecture (and Simulator) rebuilt per model, no
  //                  cache: today's K-independent-runs cost;
  //   warm         — one architecture, simulate_batch, still no cache:
  //                  isolates pure construction amortization (large for
  //                  small workloads — see bench_perf — but small when
  //                  per-model simulation dominates, as it does here);
  //   steady-state — one architecture + the shared CostMatrixCache, the
  //                  actual serve-many-models configuration: repeated
  //                  requests re-simulate only unseen pairs.
  const int kRounds = 5;
  const auto cold_start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < workloads.size(); ++i) {
      const core::Simulator cold_sim(make_system(lib));
      (void)cold_sim.simulate_model(workloads.at(i).model, mapper);
    }
  }
  const double cold_ms = ms_since(cold_start);

  core::BatchOptions serial;
  serial.num_threads = 1;  // same serial execution as the cold loop

  const core::Simulator warm_sim(make_system(lib));  // built once, no cache
  const auto warm_start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    (void)warm_sim.simulate_batch(workloads, mapper, serial);
  }
  const double warm_ms = ms_since(warm_start);

  // `sim` already carries the warmed cost-matrix cache from the run above
  // — exactly the steady state of a long-lived serving process.
  const auto steady_start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    (void)sim.simulate_batch(workloads, mapper, serial);
  }
  const double steady_ms = ms_since(steady_start);

  const double n = static_cast<double>(kRounds * workloads.size());
  std::cout << "cold (arch rebuilt per model, no cache):  " << cold_ms / n
            << " ms/model\n"
            << "warm (one arch, simulate_batch, no cache): " << warm_ms / n
            << " ms/model\n"
            << "steady-state (one arch + shared cache):    "
            << steady_ms / n << " ms/model\n";
  return 0;
}
