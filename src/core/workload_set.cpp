#include "core/workload_set.h"

#include <cmath>
#include <stdexcept>

#include "core/fingerprint.h"

namespace simphony::core {

const WorkloadSet::Entry& WorkloadSet::add(workload::Model model,
                                           std::string name, double weight) {
  if (name.empty()) name = model.name;
  if (name.empty()) {
    throw std::invalid_argument("WorkloadSet entry needs a non-empty name");
  }
  if (!std::isfinite(weight) || weight <= 0.0) {
    throw std::invalid_argument("WorkloadSet weight for '" + name +
                                "' must be a positive finite number");
  }
  for (const auto& entry : entries_) {
    if (entry->name == name) {
      throw std::invalid_argument("WorkloadSet already holds a model named '" +
                                  name + "'");
    }
  }
  auto entry = std::make_shared<Entry>();
  entry->name = std::move(name);
  entry->weight = weight;
  entry->model = std::move(model);
  // Extract AFTER the model reached its final address: the GemmWorkloads
  // point into entry->model's weight tensors.
  entry->gemms = workload::extract_gemms(entry->model);
  entry->gemm_fingerprints.reserve(entry->gemms.size());
  for (const auto& gemm : entry->gemms) {
    entry->gemm_fingerprints.push_back(gemm_fingerprint(gemm));
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

const WorkloadSet::Entry& WorkloadSet::at(size_t index) const {
  if (index >= entries_.size()) {
    throw std::out_of_range("WorkloadSet::at(" + std::to_string(index) +
                            "): set holds " +
                            std::to_string(entries_.size()) + " model(s)");
  }
  return *entries_[index];
}

size_t WorkloadSet::total_gemms() const {
  size_t total = 0;
  for (const auto& entry : entries_) total += entry->gemms.size();
  return total;
}

std::vector<double> WorkloadSet::weights() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry->weight);
  return out;
}

std::vector<WorkloadSpec> workload_specs_from_json(const util::Json& j) {
  const util::Json::Array* array = nullptr;
  if (j.is_array()) {
    array = &j.as_array();
  } else if (j.is_object() && j.contains("models")) {
    array = &j.at("models").as_array();
  } else {
    throw std::invalid_argument(
        "workload set JSON must be {\"models\": [...]} or a bare array");
  }
  std::vector<WorkloadSpec> specs;
  specs.reserve(array->size());
  for (size_t i = 0; i < array->size(); ++i) {
    const util::Json& m = (*array)[i];
    WorkloadSpec spec;
    if (!m.is_object() || !m.contains("spec")) {
      throw std::invalid_argument("workload set model #" +
                                  std::to_string(i) +
                                  " needs a \"spec\" field");
    }
    spec.spec = m.at("spec").as_string();
    if (m.contains("name")) spec.name = m.at("name").as_string();
    if (m.contains("weight")) {
      spec.weight = m.at("weight").as_number();
      if (!std::isfinite(spec.weight) || spec.weight <= 0.0) {
        throw std::invalid_argument(
            "workload set model #" + std::to_string(i) +
            " weight must be a positive finite number");
      }
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    throw std::invalid_argument("workload set JSON lists no models");
  }
  return specs;
}

}  // namespace simphony::core
