// simphony_cli — drive the whole flow from the command line:
//
//   example_simphony_cli [description.sphy] [options]
//     --model vgg8|resnet20|bert|mlp|gemm:NxDxM   (default gemm:280x28x280;
//                            repeatable — two or more --model flags switch
//                            to batched multi-model simulation on one
//                            shared architecture)
//     --models file.json     batch from a workload-set file:
//                            {"models": [{"spec": "vgg8", "name": "cnn",
//                            "weight": 2.0}, ...]}; combines with --model
//     --aggregate sum|max|weighted  how per-model metrics fold into the
//                            batch objective (default sum; weighted uses
//                            the per-model weights, default 1)
//     --tiles R --cores C --size H --wavelengths L --clock GHz
//     --bits in,w,out        operand bitwidths
//     --arch T1,T2,..        build a (heterogeneous) system from prebuilt
//                            templates: tempo|lt|mzi|scatter|mrr|butterfly|
//                            pcm|wdm (default: the description file or tempo)
//     --mapping rules|greedy|beam|bnb  layer-to-sub-arch mapping strategy
//                            (bnb = exact branch-and-bound, equal to
//                            exhaustive search with pruning)
//     --objective SPEC       what greedy/beam/bnb minimize and what a
//                            sweep optimizes for (default edp).  SPEC is
//                            a canned name (latency|energy|edp), any
//                            registry metric (e.g. p99_latency), a
//                            weighted sum ("0.6*edp+0.4*area"), or a
//                            lexicographic list ("latency,energy") — see
//                            docs/metrics.md
//     --list-objectives      print the metric registry and the objective
//                            spec grammar, then exit
//     --beam-width K         beam width for --mapping beam (default 8)
//     --no-cost-cache        disable the cross-point cost-matrix cache
//                            (DSE mode with a searched mapping memoizes
//                            per-(sub-arch, GEMM) simulations by default;
//                            hit/miss counters appear in the summary and
//                            under "cost_cache" in --json)
//     --sweep AXIS=V1,V2,..  DSE mode: sweep an axis (repeatable); axes are
//                            tiles|cores|size|width|wavelengths|bits|output
//     --sample grid|random|lhs  how to draw points from the swept space
//                            (default grid = full cross product)
//     --samples N            point count for --sample random|lhs
//     --seed S               sampler seed (default 1, reproducible)
//     --strategy one-shot|halving|frontier  exploration strategy (default
//                            one-shot = every point at full fidelity;
//                            halving = multi-fidelity successive halving:
//                            cheap greedy-mapper rungs cull the space,
//                            then the survivors re-run at full fidelity;
//                            frontier = one-shot plus axis-neighbor
//                            refinement rounds around the Pareto
//                            frontier; see docs/strategies.md)
//     --eta N                halving cull factor (default 3; needs
//                            --strategy halving)
//     --rungs N              halving rung count (default 2; needs
//                            --strategy halving)
//     --refine-rounds N      frontier refinement rounds (default 1;
//                            needs --strategy frontier)
//     --shard I/N            evaluate only slice I of N (canonical index
//                            mod N == I); combine shard files with --merge
//     --out FILE             stream completed points to FILE as JSON; the
//                            writer streams to FILE.tmp (fsynced after
//                            every point) and atomically renames onto FILE
//                            when the sweep finishes, so FILE is only ever
//                            a complete document
//     --resume               with --out FILE: recover the completed points
//                            of an interrupted sweep from FILE (or
//                            FILE.tmp after a hard kill), verify they
//                            belong to this exact sweep, skip them, and
//                            continue — the finished output is
//                            bit-identical to an uninterrupted run
//     --cache-file FILE      persistent cost-matrix cache: load FILE
//                            before the run and save it back after (also
//                            on SIGINT/SIGTERM), in the versioned SPCC
//                            binary format (docs/persistence.md).  Needs a
//                            costed --mapping (greedy|beam|bnb); corrupt
//                            or stale files degrade to a cold start
//     --threads N            DSE worker threads (0 = all hardware threads)
//     --no-dse-cache         disable the duplicate-point evaluation cache
//     --json | --csv         machine-readable output
//
//   example_simphony_cli --merge a.json b.json ...
//     merge mode: recombine shard files written by --out (or --json
//     output) into one canonical result with a recomputed Pareto
//     frontier, printed as JSON to stdout (or --out FILE).  Merging every
//     shard of a sweep reproduces the unsharded --json output byte for
//     byte.
//
// All options also accept --flag=value syntax.  Without a description file
// or --arch the built-in TeMPO template is used; with a description file
// the PTC is loaded from the circuit description format
// (arch/description.h).
//
// The CLI is a thin client of core::Engine (the same facade simphonyd
// serves over a socket): flags build a typed SimulateRequest /
// ExploreRequest, the engine evaluates it, and this file only renders the
// response — so CLI and server answers are byte-identical by
// construction.  Flag handling sits on util::FlagParser and interrupt
// handling on util::ScopedSignalGuard, both shared with simphonyd.
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "arch/description.h"
#include "core/dse.h"
#include "core/engine.h"
#include "util/binio.h"
#include "util/flags.h"
#include "util/signals.h"
#include "util/table.h"

namespace {

using namespace simphony;

// ----------------------------------------------------- interrupt handling

// SIGINT/SIGTERM request a *cooperative* shutdown (util/signals.h): the
// guard's handler only sets a flag, and the sweep's progress callback
// converts it into a CliInterrupt unwind at the next completed point —
// after that point has been streamed to --out, so the shard file and the
// cost cache capture every finished evaluation.
//
// Deliberately NOT derived from std::exception: main's catch-all turns
// exceptions into exit code 1, but an interrupt is not an error — it is
// caught by run_dse, which finalizes the partial outputs and exits 130.
struct CliInterrupt {};

// Whole-string integer parse: rejects trailing garbage ("4x", "1;2") that
// bare stoi would silently truncate.
int parse_int(const std::string& text) {
  size_t parsed = 0;
  int value = 0;
  try {
    value = std::stoi(text, &parsed);
  } catch (const std::exception&) {
    parsed = 0;
  }
  if (text.empty() || parsed != text.size()) {
    throw std::invalid_argument("bad integer '" + text + "'");
  }
  return value;
}

uint64_t parse_uint64(const std::string& text) {
  size_t parsed = 0;
  unsigned long long value = 0;
  try {
    // stoull accepts a leading '-' (wrapping); reject it explicitly.
    if (text.empty() || text[0] == '-') throw std::invalid_argument(text);
    value = std::stoull(text, &parsed);
  } catch (const std::exception&) {
    parsed = 0;
  }
  if (text.empty() || parsed != text.size()) {
    throw std::invalid_argument("bad non-negative integer '" + text + "'");
  }
  return static_cast<uint64_t>(value);
}

// Whole-string float parse with the same hardening as parse_int: trailing
// garbage ("2.5GHz"), NaN/inf spellings (stod accepts both), and — for the
// physical quantities every float flag carries — non-positive values are
// all rejected with one uniform error.
double parse_positive_double(const std::string& text,
                             const std::string& flag) {
  size_t parsed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &parsed);
  } catch (const std::exception&) {
    parsed = 0;
  }
  if (text.empty() || parsed != text.size() || !std::isfinite(value) ||
      value <= 0.0) {
    throw std::invalid_argument(flag + " expects a positive finite number, "
                                "got '" + text + "'");
  }
  return value;
}

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> values;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) values.push_back(parse_int(item));
  if (values.empty()) {
    throw std::invalid_argument("empty value list '" + csv + "'");
  }
  return values;
}

std::vector<std::string> parse_arch_list(const std::string& csv) {
  std::vector<std::string> names;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) names.push_back(item);
  if (names.empty()) {
    throw std::invalid_argument("empty --arch template list");
  }
  // Validate each name now (flag-time diagnostics) through the engine's
  // own resolver, so the accepted vocabulary can never drift from it.
  core::SimulateRequest probe;
  probe.arch = names;
  (void)core::resolve_templates(probe);
  return names;
}

void apply_sweep_axis(core::DseSpace& space, const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("--sweep expects AXIS=V1,V2,... got '" +
                                spec + "'");
  }
  const std::string axis = spec.substr(0, eq);
  const std::vector<int> values = parse_int_list(spec.substr(eq + 1));
  std::vector<int>* target = nullptr;
  if (axis == "tiles") {
    target = &space.tiles;
  } else if (axis == "cores") {
    target = &space.cores_per_tile;
  } else if (axis == "size") {
    target = &space.core_sizes;
  } else if (axis == "width") {
    target = &space.core_widths;
  } else if (axis == "wavelengths") {
    target = &space.wavelengths;
  } else if (axis == "bits") {
    target = &space.input_bits;
  } else if (axis == "output") {
    target = &space.output_bits;
  } else {
    throw std::invalid_argument("unknown sweep axis '" + axis + "'");
  }
  if (!target->empty()) {
    // Silently replacing the earlier list would sweep a different grid
    // than the user asked for.
    throw std::invalid_argument("sweep axis '" + axis +
                                "' specified twice; give all values in one "
                                "--sweep");
  }
  *target = values;
}

core::DseShard parse_shard(const std::string& spec) {
  const size_t slash = spec.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("--shard expects I/N, got '" + spec + "'");
  }
  core::DseShard shard;
  shard.index = parse_int(spec.substr(0, slash));
  shard.count = parse_int(spec.substr(slash + 1));
  if (shard.count < 1 || shard.index < 0 || shard.index >= shard.count) {
    throw std::invalid_argument("--shard " + spec +
                                " out of range (need 0 <= I < N)");
  }
  return shard;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::invalid_argument("cannot open " + path);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Json::parse with the file name prepended to the error.
util::Json parse_json_file(const std::string& path) {
  const std::string text = read_file(path);
  try {
    return util::Json::parse(text);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

/// --merge mode: recombine sweep documents into the canonical order with
/// a recomputed global Pareto frontier (core::merge_sweep_documents).
int run_merge(const std::vector<std::string>& files,
              const std::string& out_path) {
  std::vector<std::pair<std::string, std::string>> documents;
  for (const std::string& file : files) {
    documents.emplace_back(file, read_file(file));
  }
  const core::ExploreResponse merged = core::merge_sweep_documents(documents);
  // Adaptive strategies legitimately emit fewer (halving: survivors
  // only) or more (frontier: refined neighbors) points than the sampled
  // space holds, so the missing-shard heuristic only applies to
  // exhaustive one-shot sweeps.
  if (merged.result.points.size() != merged.total_points &&
      merged.strategy_name == "one-shot") {
    std::cerr << "simphony_cli: warning: merged "
              << merged.result.points.size() << " of " << merged.total_points
              << " points — missing shard file(s)?\n";
  }
  const std::string text = merged.to_json().dump(2) + "\n";
  if (out_path.empty()) {
    std::cout << text;
    return 0;
  }
  // Temp file + fsync + rename: a failed write (full disk, file-size
  // limit) exits 1 naming the file and never publishes a torn document.
  util::AtomicFileOutputStream out(out_path);
  out.write(text);
  out.commit();
  return 0;
}

/// DSE mode.  Builds the ExploreRequest's outputs from the engine
/// response: the table and CSV show the aggregate metrics, `--json` /
/// `--out` points additionally carry per-model rows (batched sweeps).
int run_dse(core::Engine& engine, const core::ExploreRequest& request,
            const std::string& out_path, const std::string& cache_file,
            bool resume, bool as_json, bool as_csv) {
  // --cache-file: warm-start the cost-matrix cache.  The engine loaded
  // it at construction (a missing file is a cold start; a damaged one
  // degrades with a warning — a bad cache may only ever cost time, never
  // correctness); report what it found.
  if (!cache_file.empty()) {
    const core::CostMatrixCache::LoadReport& loaded =
        engine.cache_load_report();
    if (!loaded.message.empty()) {
      std::cerr << "simphony_cli: " << cache_file << ": " << loaded.message
                << "\n";
    }
    if (loaded.found) {
      std::cerr << "simphony_cli: loaded " << loaded.loaded
                << " cached cost entr" << (loaded.loaded == 1 ? "y" : "ies")
                << " from " << cache_file << "\n";
    }
  }

  // --resume: salvage the completed points of an interrupted run from
  // the finalized file (clean interrupt) or its .tmp (hard kill).  The
  // engine verifies they belong to THIS sweep before on_start, skips
  // them, and replays them through on_point.
  std::optional<core::ShardRecovery> recovery;
  if (resume) {
    std::string source = out_path + ".tmp";
    if (std::ifstream(out_path)) source = out_path;
    if (!std::ifstream(source)) {
      std::cerr << "simphony_cli: --resume: no " << out_path << " or "
                << out_path << ".tmp to recover; starting fresh\n";
    } else {
      recovery = core::recover_shard_text(read_file(source), source);
      if (!recovery->message.empty()) {
        std::cerr << "simphony_cli: " << recovery->message << "\n";
      }
    }
  }

  // --out streams each point as it completes through DseShardWriter's
  // durable sink: FILE.tmp, fsynced per point, which finish() rewrites in
  // canonical index order and renames onto FILE — so FILE only ever holds
  // a complete document, byte-identical at any --threads, and the .tmp
  // survives a hard kill for --resume.  The writer opens in on_start,
  // once the engine has accepted the request and any resumed points.
  std::unique_ptr<core::DseShardWriter> shard_writer;
  core::Engine::ExploreHooks hooks;
  if (recovery) hooks.resume = &*recovery;
  hooks.on_start = [&](const core::DseShardWriter::Metadata& header) {
    if (recovery) {
      std::cerr << "simphony_cli: resuming " << out_path << ": "
                << recovery->result.points.size() << " of "
                << header.total_points << " point(s) recovered\n";
    }
    if (!out_path.empty()) {
      shard_writer = std::make_unique<core::DseShardWriter>(out_path, header);
    }
  };
  hooks.on_point = [&](const core::DsePoint& pt) {
    if (shard_writer != nullptr) shard_writer->add_point(pt);
  };

  // SIGINT/SIGTERM unwind cooperatively at the next completed point (the
  // point itself is streamed before the check fires), so the shard file
  // and the cache capture every finished evaluation.
  util::ScopedSignalGuard signal_guard;
  hooks.on_progress = [](const core::Progress&) {
    if (util::ScopedSignalGuard::interrupted()) throw CliInterrupt{};
  };

  core::ExploreResponse response;
  bool interrupted = false;
  try {
    response = engine.explore(request, hooks);
  } catch (const CliInterrupt&) {
    interrupted = true;
  }

  // Finalize the partial (or complete) outputs in both exits: the shard
  // file commits atomically, the cache saves atomically.
  if (shard_writer != nullptr) shard_writer->finish();
  if (!cache_file.empty()) engine.save_cache();

  if (interrupted) {
    std::cerr << "simphony_cli: interrupted";
    if (!out_path.empty()) {
      std::cerr << "; completed points saved to " << out_path
                << " (rerun with --resume to continue)";
    }
    if (!cache_file.empty()) {
      std::cerr << "; cost cache saved to " << cache_file;
    }
    std::cerr << "\n";
    return 130;
  }

  const core::DseResult& result = response.result;

  if (as_json) {
    std::cout << response.to_json().dump(2) << "\n";
    return 0;
  }
  if (as_csv) {
    std::ostringstream csv;
    csv.precision(12);  // default 6 digits would merge distinct points
                        // (JSON output is round-trip exact; CSV is not)
    csv << "index,tiles,cores,height,width,wavelengths,in_bits,w_bits,"
           "out_bits,energy_pJ,latency_ns,area_mm2,power_W,tops,pareto\n";
    for (const auto& pt : result.points) {
      csv << pt.index << "," << pt.params.tiles << ","
          << pt.params.cores_per_tile << "," << pt.params.core_height << ","
          << pt.params.core_width << "," << pt.params.wavelengths << ","
          << pt.params.input_bits << "," << pt.params.weight_bits << ","
          << pt.params.output_bits << "," << pt.energy_pJ << ","
          << pt.latency_ns << "," << pt.area_mm2 << "," << pt.power_W << ","
          << pt.tops << "," << (pt.pareto ? 1 : 0) << "\n";
    }
    std::cout << csv.str();
    return 0;
  }

  std::cout << "== DSE: " << response.model_label << " on "
            << response.arch_label << " (" << result.points.size() << " of "
            << response.total_points << " points, sampler "
            << response.sampler_name;
  if (request.strategy != "one-shot") {
    std::cout << ", strategy " << request.strategy;
  }
  if (request.shard.count > 1) {
    std::cout << ", shard " << request.shard.index << "/"
              << request.shard.count;
  }
  std::cout << ") ==\n";
  if (!response.aggregate_label.empty()) {
    std::cout << "batch of " << request.base.models.size()
              << " model(s), aggregate " << response.aggregate_label
              << " (per-model rows in --json / --out)\n";
  }
  util::Table table({"#", "R", "C", "HxW", "L", "bits(in/w/out)",
                     "energy (uJ)", "latency (us)", "area (mm^2)", "Pareto"});
  auto bits_label = [](const arch::ArchParams& p) {
    return std::to_string(p.input_bits) + "/" +
           std::to_string(p.weight_bits) + "/" +
           std::to_string(p.output_bits);
  };
  for (const auto& pt : result.points) {
    table.add_row({std::to_string(pt.index),
                   std::to_string(pt.params.tiles),
                   std::to_string(pt.params.cores_per_tile),
                   std::to_string(pt.params.core_height) + "x" +
                       std::to_string(pt.params.core_width),
                   std::to_string(pt.params.wavelengths),
                   bits_label(pt.params),
                   util::Table::fmt(pt.energy_pJ * 1e-6, 2),
                   util::Table::fmt(pt.latency_ns * 1e-3, 2),
                   util::Table::fmt(pt.area_mm2, 3), pt.pareto ? "*" : ""});
  }
  std::cout << table.render();
  const core::DsePoint& best = result.best_edap();
  std::cout << result.frontier().size()
            << " Pareto-optimal point(s); best EDAP at R=" << best.params.tiles
            << " C=" << best.params.cores_per_tile << " "
            << best.params.core_height << "x" << best.params.core_width
            << " L=" << best.params.wavelengths << " bits="
            << bits_label(best.params) << "\n";
  if (response.cache_attached) {
    std::cout << "cost-matrix cache: " << response.cache.hits << " hit(s) / "
              << response.cache.misses << " miss(es) ("
              << util::Table::fmt(100.0 * response.cache.hit_rate(), 1)
              << "% hit rate)\n";
  }
  if (request.shard.count > 1) {
    std::cout << "(shard-local frontier; --merge the shard files for the "
                 "global one)\n";
  }
  return 0;
}

/// Batched multi-model mode (no sweep): the architecture is constructed
/// once, every model of the set runs on it, and the output carries
/// per-model rows plus the aggregate batch totals.
int run_batch(const core::SimulateResponse& response,
              const std::string& objective_spec, bool as_json, bool as_csv) {
  const core::BatchReport& batch = response.batch;
  const core::BatchReport::Totals totals =
      batch.totals(response.aggregate);

  if (as_json) {
    std::cout << response.to_json().dump(2) << "\n";
    return 0;
  }
  if (as_csv) {
    std::ostringstream csv;
    csv.precision(12);
    csv << "model,weight,runtime_ns,energy_pJ,avg_power_W,area_mm2,tops\n";
    for (const core::BatchReport::ModelResult& m : batch.models) {
      csv << m.name << "," << m.weight << "," << m.report.total_runtime_ns
          << "," << m.report.total_energy.total_pJ() << ","
          << m.report.average_power_W() << "," << m.report.total_area_mm2()
          << "," << m.report.tops() << "\n";
    }
    csv << "batch(" << core::to_string(response.aggregate) << "),,"
        << totals.latency_ns << "," << totals.energy_pJ << ","
        << totals.power_W << "," << totals.area_mm2 << "," << totals.tops
        << "\n";
    std::cout << csv.str();
    return 0;
  }

  std::cout << "== batch: " << batch.models.size() << " models on "
            << response.arch_label << " (aggregate "
            << core::to_string(response.aggregate);
  if (response.mapped) {
    std::cout << ", mapping " << response.mapping_name << "/"
              << objective_spec;
  }
  std::cout << ") ==\n";
  if (response.mapped) {
    util::Table assignment({"model", "layer", "sub-arch", "runtime (us)",
                            "energy (uJ)"});
    for (const core::BatchReport::ModelResult& m : batch.models) {
      for (const auto& layer : m.report.layers) {
        assignment.add_row({m.name, layer.layer_name,
                            std::to_string(layer.subarch_index) + ":" +
                                layer.subarch_name,
                            util::Table::fmt(layer.runtime_ns() / 1e3, 2),
                            util::Table::fmt(layer.energy_pJ() / 1e6, 3)});
      }
    }
    std::cout << assignment.render();
  }
  util::Table summary({"model", "weight", "runtime (us)", "energy (uJ)",
                       "power (W)", "area (mm^2)", "TOPS"});
  for (const core::BatchReport::ModelResult& m : batch.models) {
    summary.add_row({m.name, util::Table::fmt(m.weight, 2),
                     util::Table::fmt(m.report.total_runtime_ns / 1e3, 2),
                     util::Table::fmt(
                         m.report.total_energy.total_pJ() / 1e6, 2),
                     util::Table::fmt(m.report.average_power_W(), 3),
                     util::Table::fmt(m.report.total_area_mm2(), 3),
                     util::Table::fmt(m.report.tops(), 2)});
  }
  summary.add_row({"batch(" +
                       std::string(core::to_string(response.aggregate)) +
                       ")",
                   "", util::Table::fmt(totals.latency_ns / 1e3, 2),
                   util::Table::fmt(totals.energy_pJ / 1e6, 2),
                   util::Table::fmt(totals.power_W, 3),
                   util::Table::fmt(totals.area_mm2, 3),
                   util::Table::fmt(totals.tops, 2)});
  std::cout << summary.render();
  return 0;
}

int run(int argc, char** argv) {
  core::SimulateRequest request;
  core::ExploreRequest explore_request;  // .base filled from request later
  bool arch_from_file = false;  // a positional description file was given
  bool arch_from_flag = false;  // --arch was given
  std::vector<std::string> model_specs;  // --model, repeatable
  std::string models_file;               // --models workload-set JSON
  bool aggregate_seen = false;
  std::string dse_flag_seen;
  bool eta_seen = false;
  bool rungs_seen = false;
  bool refine_rounds_seen = false;
  bool threads_seen = false;
  std::string out_path;
  std::string cache_file;
  bool resume = false;
  std::vector<std::string> merge_files;
  bool sweeping = false;
  bool as_json = false;
  bool as_csv = false;
  bool list_objectives = false;

  // The declarative flag table (util/flags.h): registration order is
  // usage order; the parser owns --flag=value expansion, the
  // unknown-option / missing-value diagnostics, and --help.
  util::FlagParser flags;
  flags.set_usage_prefix("usage: simphony_cli [description.sphy]");
  flags.add_usage_line("       simphony_cli --merge a.json b.json ...");
  flags.add_flag("--model", "[--model SPEC]...",
                 [&](const std::string& v) { model_specs.push_back(v); });
  flags.add_flag("--models", "[--models file.json]",
                 [&](const std::string& v) { models_file = v; });
  flags.add_flag("--aggregate", "[--aggregate sum|max|weighted]",
                 [&](const std::string& v) {
                   if (!core::parse_aggregate(v)) {
                     throw std::invalid_argument(
                         "--aggregate expects sum|max|weighted, got '" + v +
                         "'");
                   }
                   request.aggregate = v;
                   aggregate_seen = true;
                 });
  flags.add_flag("--tiles", "[--tiles R]", [&](const std::string& v) {
    request.params.tiles = parse_int(v);
  });
  flags.add_flag("--cores", "[--cores C]", [&](const std::string& v) {
    request.params.cores_per_tile = parse_int(v);
  });
  flags.add_flag("--size", "[--size HW]", [&](const std::string& v) {
    request.params.core_height = request.params.core_width = parse_int(v);
  });
  flags.add_flag("--wavelengths", "[--wavelengths L]",
                 [&](const std::string& v) {
                   request.params.wavelengths = parse_int(v);
                 });
  flags.add_flag("--clock", "[--clock GHz]", [&](const std::string& v) {
    request.params.clock_GHz = parse_positive_double(v, "--clock");
  });
  flags.add_flag("--bits", "[--bits in,w,out]", [&](const std::string& v) {
    const std::vector<int> bits = parse_int_list(v);
    if (bits.size() != 3) {
      throw std::invalid_argument("--bits expects in,w,out (3 values)");
    }
    request.params.input_bits = bits[0];
    request.params.weight_bits = bits[1];
    request.params.output_bits = bits[2];
  });
  flags.add_flag(
      "--arch",
      "[--arch T1,T2,...] (templates: tempo|lt|mzi|scatter|"
      "mrr|butterfly|pcm|wdm)",
      [&](const std::string& v) {
        if (arch_from_file) {
          throw std::invalid_argument(
              "give either a description file or --arch, not both");
        }
        request.arch = parse_arch_list(v);
        arch_from_flag = true;
      });
  flags.add_flag("--mapping", "[--mapping rules|greedy|beam|bnb]",
                 [&](const std::string& v) {
                   if (v != "rules" && v != "greedy" && v != "beam" &&
                       v != "bnb") {
                     throw std::invalid_argument(
                         "--mapping expects rules|greedy|beam|bnb, got '" +
                         v + "'");
                   }
                   request.mapping = v;
                 });
  flags.add_flag("--objective",
                 "[--objective SPEC] (canned latency|energy|edp, a metric "
                 "name, \"0.6*edp+0.4*area\", or \"latency,energy\"; see "
                 "--list-objectives)",
                 [&](const std::string& v) {
                   // Flag-time validation through the one shared grammar
                   // (core/metrics.h): unknown metrics report their
                   // offset, like util/flags diagnostics.
                   (void)core::ObjectiveSpec::parse(v);
                   request.objective = v;
                 });
  flags.add_switch("--list-objectives", "[--list-objectives]",
                   [&](const std::string&) { list_objectives = true; });
  flags.add_flag("--beam-width", "[--beam-width K]",
                 [&](const std::string& v) {
                   request.beam_width = parse_int(v);
                   if (request.beam_width < 1) {
                     throw std::invalid_argument(
                         "--beam-width expects a positive integer");
                   }
                 });
  flags.add_flag(
      "--sweep",
      "[--sweep AXIS=V1,V2,...] (axes: tiles|cores|size|width|"
      "wavelengths|bits|output)",
      [&](const std::string& v) {
        apply_sweep_axis(explore_request.space, v);
        sweeping = true;
      });
  flags.add_flag("--sample", "[--sample grid|random|lhs]",
                 [&](const std::string& v) {
                   if (v != "grid" && v != "random" && v != "lhs") {
                     throw std::invalid_argument(
                         "--sample expects grid|random|lhs, got '" + v +
                         "'");
                   }
                   explore_request.sample = v;
                   dse_flag_seen = "--sample";
                 });
  flags.add_flag("--samples", "[--samples N]", [&](const std::string& v) {
    explore_request.samples = parse_int(v);
    if (explore_request.samples < 1) {
      throw std::invalid_argument("--samples expects a positive integer");
    }
    dse_flag_seen = "--samples";
  });
  flags.add_flag("--seed", "[--seed S]", [&](const std::string& v) {
    explore_request.seed = parse_uint64(v);
    dse_flag_seen = "--seed";
  });
  flags.add_flag("--strategy", "[--strategy one-shot|halving|frontier]",
                 [&](const std::string& v) {
                   // Name and knob validation live in core::make_strategy
                   // (shared with simphonyd); it runs flag-time below.
                   explore_request.strategy = v;
                   dse_flag_seen = "--strategy";
                 });
  flags.add_flag("--eta", "[--eta N]", [&](const std::string& v) {
    explore_request.eta = parse_int(v);
    eta_seen = true;
    dse_flag_seen = "--eta";
  });
  flags.add_flag("--rungs", "[--rungs N]", [&](const std::string& v) {
    explore_request.rungs = parse_int(v);
    rungs_seen = true;
    dse_flag_seen = "--rungs";
  });
  flags.add_flag("--refine-rounds", "[--refine-rounds N]",
                 [&](const std::string& v) {
                   explore_request.refine_rounds = parse_int(v);
                   refine_rounds_seen = true;
                   dse_flag_seen = "--refine-rounds";
                 });
  flags.add_flag("--shard", "[--shard I/N]", [&](const std::string& v) {
    explore_request.shard = parse_shard(v);
    dse_flag_seen = "--shard";
  });
  flags.add_flag("--out", "[--out FILE]",
                 [&](const std::string& v) { out_path = v; });
  flags.add_switch("--resume", "[--resume]",
                   [&](const std::string&) { resume = true; });
  flags.add_flag("--cache-file", "[--cache-file FILE]",
                 [&](const std::string& v) { cache_file = v; });
  flags.add_flag("--threads", "[--threads N]", [&](const std::string& v) {
    request.num_threads = parse_int(v);
    if (request.num_threads < 0) {
      throw std::invalid_argument(
          "--threads expects a non-negative integer (0 = all hardware "
          "threads)");
    }
    // Tracked apart from the DSE-only flags: --threads also applies to
    // a non-sweep multi-model batch.
    threads_seen = true;
  });
  flags.add_switch("--no-dse-cache", "[--no-dse-cache]",
                   [&](const std::string&) {
                     explore_request.dse_cache = false;
                     dse_flag_seen = "--no-dse-cache";
                   });
  flags.add_switch("--no-cost-cache", "[--no-cost-cache]",
                   [&](const std::string&) {
                     request.cost_cache = false;
                     dse_flag_seen = "--no-cost-cache";
                   });
  flags.add_switch("--json", "[--json|--csv]",
                   [&](const std::string&) { as_json = true; });
  flags.add_switch("--csv", "",
                   [&](const std::string&) { as_csv = true; });
  flags.add_list_flag("--merge", "", [&](std::vector<std::string> files) {
    merge_files = std::move(files);
    if (merge_files.empty()) {
      throw std::invalid_argument("--merge expects one or more shard "
                                  "files");
    }
  });
  flags.set_positional([&](const std::string& arg) {
    if (arch_from_flag || arch_from_file) {
      throw std::invalid_argument(
          arch_from_flag
              ? "give either a description file or --arch, not both"
              : "only one description file is supported");
    }
    const std::string text = read_file(arg);
    // Validate now (flag-time diagnostics, like every other flag); the
    // request carries the TEXT so it is self-contained — exactly what a
    // remote simphonyd receives.
    (void)arch::parse_description(text);
    request.description = text;
    arch_from_file = true;
  });
  flags.add_help();
  if (!flags.parse(argc, argv)) {
    std::cout << flags.usage();
    return 0;
  }

  if (list_objectives) {
    std::cout << "objective metrics (core/metrics.h registry):\n";
    util::Table registry({"metric", "unit", "description"});
    for (const core::MetricInfo& info : core::metric_registry()) {
      registry.add_row({info.name, info.unit, info.description});
    }
    std::cout << registry.render();
    std::cout <<
        "objective spec grammar (--objective SPEC):\n"
        "  canned names   latency | energy | edp (score exactly as before)\n"
        "  single metric  any registry metric, e.g. p99_latency\n"
        "  weighted sum   non-negative weights over metrics, e.g. "
        "\"0.6*edp+0.4*area\"\n"
        "  lexicographic  comma-separated metric list, e.g. "
        "\"latency,energy\"\n"
        "see docs/metrics.md for the p99 model and mapper compatibility\n";
    return 0;
  }

  if (!merge_files.empty()) {
    if (sweeping || !dse_flag_seen.empty() || threads_seen ||
        !model_specs.empty() || !models_file.empty() || aggregate_seen ||
        resume || !cache_file.empty()) {
      // Silently ignoring a model or aggregate request would look like it
      // took effect; the merged document's metadata comes from the shard
      // files alone.
      throw std::invalid_argument(
          "--merge is a standalone mode; it does not combine with --sweep, "
          "--model/--models/--aggregate, or other DSE flags");
    }
    return run_merge(merge_files, out_path);
  }

  // Assemble the model requests: the --models file first, then every
  // --model flag (weight 1); neither given keeps the historical
  // single-GEMM default (the engine's own default — an empty model list).
  if (!models_file.empty()) {
    request.models = core::workload_specs_from_json(
        parse_json_file(models_file));
  }
  for (const std::string& spec : model_specs) {
    request.models.push_back(core::WorkloadSpec{spec, "", 1.0});
  }
  const bool batch = request.models.size() > 1;
  if (!batch && aggregate_seen) {
    throw std::invalid_argument(
        "--aggregate only applies to a multi-model batch (repeat --model "
        "or give --models)");
  }

  // The chosen strategy; null means the legacy fixed route-to-0 default.
  const std::unique_ptr<core::Mapper> mapper = core::make_mapper(request);

  // --cache-file persists the cost-matrix cache, so it needs a mapping
  // that consults costs — and conflicts with disabling the cache.
  if (!cache_file.empty()) {
    if (!request.cost_cache) {
      throw std::invalid_argument(
          "--cache-file conflicts with --no-cost-cache");
    }
    if (mapper == nullptr || !mapper->needs_costs()) {
      throw std::invalid_argument(
          "--cache-file needs a costed mapping strategy; add --mapping "
          "greedy|beam|bnb");
    }
  }
  if (resume) {
    if (!sweeping) {
      throw std::invalid_argument(
          "--resume only applies to DSE mode; add at least one --sweep "
          "axis");
    }
    if (out_path.empty()) {
      throw std::invalid_argument("--resume needs --out FILE");
    }
    if (explore_request.strategy == "frontier") {
      throw std::invalid_argument(
          "--strategy frontier does not support --resume: refined points "
          "fall outside the canonical point list, so a recovered file "
          "cannot be verified against the sweep");
    }
  }
  // The halving/frontier knobs silently defaulting on the wrong strategy
  // would look like they took effect.
  if ((eta_seen || rungs_seen) && explore_request.strategy != "halving") {
    throw std::invalid_argument(
        std::string(eta_seen ? "--eta" : "--rungs") +
        " only applies to --strategy halving");
  }
  if (refine_rounds_seen && explore_request.strategy != "frontier") {
    throw std::invalid_argument(
        "--refine-rounds only applies to --strategy frontier");
  }

  if (sweeping) {
    explore_request.base = request;
    // Sampler and strategy validation (e.g. "--sample random needs
    // --samples N", "--eta expects an integer >= 2") fires before the
    // engine loads the cache file, like the hand-rolled flow.
    (void)core::make_sampler(explore_request);
    (void)core::make_strategy(explore_request);
    core::Engine::Options engine_options;
    engine_options.num_threads = 1;  // the CLI evaluates synchronously
    engine_options.cache_file = cache_file;
    core::Engine engine(engine_options);
    return run_dse(engine, explore_request, out_path, cache_file, resume,
                   as_json, as_csv);
  }
  if (!dse_flag_seen.empty()) {
    throw std::invalid_argument(dse_flag_seen +
                                " only applies to DSE mode; add at least "
                                "one --sweep axis");
  }
  // --threads additionally applies to a non-sweep multi-model batch
  // (models simulated concurrently).
  if (threads_seen && !batch) {
    throw std::invalid_argument(
        "--threads only applies to DSE mode or a multi-model batch");
  }
  if (!out_path.empty()) {
    throw std::invalid_argument("--out only applies to DSE or merge mode");
  }
  // The single-model human header below needs the built model's name
  // (the engine's response carries the deduped entry name).
  const core::ResolvedModels resolved = core::resolve_models(request);

  // --cache-file outside a sweep: the same persistent warm start for a
  // one-shot costed-mapping simulation (e.g. re-running a batch after a
  // model edit only re-simulates the changed layers).  The engine loaded
  // it at construction; save it back after the run.
  core::Engine::Options engine_options;
  engine_options.num_threads = 1;
  engine_options.cache_file = cache_file;
  core::Engine engine(engine_options);
  if (!cache_file.empty() && !engine.cache_load_report().message.empty()) {
    std::cerr << "simphony_cli: " << cache_file << ": "
              << engine.cache_load_report().message << "\n";
  }

  const core::SimulateResponse response = engine.simulate(request);
  if (!cache_file.empty()) engine.save_cache();

  if (batch) {
    return run_batch(response, request.objective, as_json, as_csv);
  }
  const core::BatchReport::ModelResult& m = response.batch.models.front();
  const core::ModelReport& report = m.report;

  if (as_json) {
    std::cout << response.to_json().dump(2) << "\n";
    return 0;
  }
  if (as_csv) {
    std::cout << report.to_csv();
    return 0;
  }

  if (response.mapped) {
    std::cout << "== mapping: " << response.mapping_name << " (objective "
              << request.objective << ") ==\n";
    util::Table assignment({"layer", "sub-arch", "runtime (us)",
                            "energy (uJ)"});
    for (const auto& layer : report.layers) {
      assignment.add_row({layer.layer_name,
                          std::to_string(layer.subarch_index) + ":" +
                              layer.subarch_name,
                          util::Table::fmt(layer.runtime_ns() / 1e3, 2),
                          util::Table::fmt(layer.energy_pJ() / 1e6, 3)});
    }
    std::cout << assignment.render();
  }

  const arch::ArchParams& params = request.params;
  std::cout << "== " << resolved.workloads.at(0).model.name << " on "
            << response.arch_label << " (R=" << params.tiles
            << " C=" << params.cores_per_tile << " " << params.core_height
            << "x" << params.core_width << " L=" << params.wavelengths
            << " @ " << params.clock_GHz << " GHz) ==\n";
  util::Table summary({"metric", "value"});
  summary.add_row({"runtime",
                   util::Table::fmt(report.total_runtime_ns / 1e3, 2) +
                       " us"});
  summary.add_row({"energy",
                   util::Table::fmt(report.total_energy.total_pJ() / 1e6, 2) +
                       " uJ"});
  summary.add_row({"avg power",
                   util::Table::fmt(report.average_power_W(), 3) + " W"});
  summary.add_row({"area",
                   util::Table::fmt(report.total_area_mm2(), 3) + " mm^2"});
  summary.add_row({"throughput", util::Table::fmt(report.tops(), 2) +
                                     " TOPS"});
  summary.add_row({"efficiency", util::Table::fmt(report.tops_per_W(), 2) +
                                     " TOPS/W"});
  summary.add_row({"GLB", util::Table::fmt(report.memory.glb.capacity_kB, 0) +
                              " KB x " +
                              std::to_string(report.memory.glb.blocks) +
                              " blocks"});
  std::cout << summary.render();

  util::Table energy({"category", "uJ", "%"});
  const double total = report.total_energy.total_pJ();
  for (const auto& [k, v] : report.total_energy.entries()) {
    energy.add_row({k, util::Table::fmt(v / 1e6, 3),
                    util::Table::fmt(100.0 * v / total, 1)});
  }
  std::cout << energy.render();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "simphony_cli: " << e.what() << "\n";
    return 1;
  }
}
