// Canonical workload-side fingerprint of a GEMM (the CostMatrixCache key
// half that hashes shapes, bit widths, flags, and the weight values — the
// energy model is data-aware, so two layers share a cost entry only when
// their weights match bit for bit).  Recipe-backed weights (the built-in
// models, workload/recipe.h) are keyed by (recipe, slot) without drawing
// a value; weights a caller wrote or built by hand are content-hashed.
//
// Declared here, separately from the Simulator, so WorkloadSet::add can
// compute each model's fingerprints once per sweep instead of once per
// design point.  The definition lives in simulator.cpp next to the
// hardware-side half; persisted cost caches (docs/persistence.md) depend
// on the produced values never changing without a file-version bump.
#pragma once

#include <cstdint>

#include "workload/gemm.h"

namespace simphony::core {

[[nodiscard]] uint64_t gemm_fingerprint(const workload::GemmWorkload& gemm);

}  // namespace simphony::core
