// Batched multi-model simulation, part 1: the workload side.
//
// The serve-many-models scenario (ROADMAP "batched multi-model
// simulation") runs K workloads against ONE design point.  Today each
// simulate_model call re-extracts the GEMMs and — in a DSE sweep — the
// caller re-materializes the architecture per model.  A WorkloadSet is
// the batch: named models with per-model weights whose GEMM lowering is
// done exactly once at add() time, so a Simulator (or the batched
// explore() overloads in core/dse.h) can reuse one constructed
// architecture, one thread pool, and one CostMatrixCache across every
// model of the batch.
//
// Entries are immutable and address-stable after add(): each stored
// Model holds the weight tensors its extracted GemmWorkloads point into,
// and lives behind a shared_ptr so growing or copying the set never
// moves it.  Adding a built-in model draws no weight: its tensors are
// recipe-backed (workload/recipe.h) until the energy walk of a cost-cache
// miss first reads them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "util/json.h"
#include "workload/gemm.h"
#include "workload/model.h"

namespace simphony::core {

// BatchAggregate, aggregate_values, and derive_batch_metrics moved to
// core/metrics.h (the unified metric layer); this include keeps every
// workload_set.h consumer compiling unchanged.

/// A batch of named models whose GEMMs are extracted once, up front.
class WorkloadSet {
 public:
  struct Entry {
    std::string name;    // unique within the set; labels per-model rows
    double weight = 1.0; // used by BatchAggregate::kWeighted
    workload::Model model;
    /// extract_gemms(model), computed once at add(); the weight pointers
    /// point into `model` above (same lifetime as this Entry).
    std::vector<workload::GemmWorkload> gemms;
    /// core::gemm_fingerprint of each GEMM (same order as `gemms`),
    /// computed once at add() so a sweep sharing a CostMatrixCache never
    /// re-keys the weight tensors per design point.  Valid only for the
    /// GEMMs exactly as stored — a caller that overrides bit widths
    /// per-point must re-fingerprint.
    std::vector<uint64_t> gemm_fingerprints;
  };

  /// Moves `model` into the set and extracts its GEMMs.  An empty `name`
  /// defaults to model.name.  Throws std::invalid_argument on a duplicate
  /// name (names key per-model result rows) or a non-finite / non-positive
  /// weight.  Returns the stored entry.
  const Entry& add(workload::Model model, std::string name = "",
                   double weight = 1.0);

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Entry i in add() order; throws std::out_of_range.
  [[nodiscard]] const Entry& at(size_t index) const;

  /// Sum of per-model GEMM counts (total per-design-point work items).
  [[nodiscard]] size_t total_gemms() const;

  /// Per-model weights in add() order (the kWeighted coefficients).
  [[nodiscard]] std::vector<double> weights() const;

 private:
  // shared_ptr gives address stability under vector growth and makes
  // copies of the set cheap (entries are immutable once added).
  std::vector<std::shared_ptr<const Entry>> entries_;
};

/// One model request parsed from a WorkloadSet JSON document — the
/// `--models file.json` format, built by core::resolve_models
/// (core/engine.h):
///
///   {"models": [{"spec": "vgg8", "name": "cnn", "weight": 2.0},
///               {"spec": "gemm:256x64x256"}]}
///
/// (a bare array is also accepted).  "spec" is required and must be a
/// workload::model_from_spec string; "name" defaults to the built model's
/// name; "weight" defaults to 1 and must be a positive finite number.
struct WorkloadSpec {
  std::string spec;
  std::string name;     // empty = use the built model's name
  double weight = 1.0;
};

/// Parses the request list without building the models, so callers can
/// rewrite layer bit-widths or apply conversions before WorkloadSet::add.
/// Throws std::invalid_argument on structural problems (missing "spec",
/// bad weight, wrong types).
[[nodiscard]] std::vector<WorkloadSpec> workload_specs_from_json(
    const util::Json& j);

}  // namespace simphony::core
