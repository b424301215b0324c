#!/usr/bin/env python3
"""The repository benchmark: cold sweep, wide sweep and warm served
workloads of SimPhony, timed end to end, with a separate traced run that
splits the same work by layer.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The programs under test are built from
the checkout's sources into $CARGO_TARGET_DIR (default .bench_build).  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.
`--record` rewrites perfbench/expected.json (the expected output digests).
See perfbench/NOTES.md for the metric definitions.
"""

import argparse
import json
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import benchlib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
SETUP_SPAWNS = 9          # daemon start-ups per run; setup_s is their median
TIMEOUT_S = 120           # per program run or served reply
WIDE_SAMPLES = 3000

AXIS_1_16 = list(range(1, 17))
WIDE_SIZES = [4, 6, 8, 12, 16, 24, 32]

# --------------------------------------------------------------- inputs


def explore_request(workload, seed, threads):
    """The ExploreRequest JSON equal to the workload's CLI sweep."""
    if workload == "sweep_cold":
        return {"arch": ["scatter", "mzi"], "models": [{"spec": "vgg8"}],
                "mapping": "greedy", "num_threads": threads,
                "sweep": {"tiles": [1, 2, 4], "wavelengths": [1, 2, 4]}}
    return {"arch": ["tempo", "mzi", "mrr"],
            "models": [{"spec": "gemm:64x32x64"}],
            "mapping": "greedy", "num_threads": threads,
            "sweep": {"tiles": AXIS_1_16, "cores": AXIS_1_16,
                      "wavelengths": AXIS_1_16, "size": WIDE_SIZES},
            "sample": "random", "samples": WIDE_SAMPLES, "seed": seed}


def sweep_args(workload, seed, threads):
    """CLI flags of the workload's sweep."""
    def axis(name, values):
        return ["--sweep", name + "=" + ",".join(map(str, values))]
    if workload == "sweep_cold":
        args = ["--model", "vgg8", "--arch", "scatter,mzi"]
        args += axis("tiles", [1, 2, 4]) + axis("wavelengths", [1, 2, 4])
    else:
        args = ["--model", "gemm:64x32x64", "--arch", "tempo,mzi,mrr"]
        args += axis("tiles", AXIS_1_16) + axis("cores", AXIS_1_16)
        args += axis("wavelengths", AXIS_1_16) + axis("size", WIDE_SIZES)
        args += ["--sample", "random", "--samples", str(WIDE_SAMPLES),
                 "--seed", str(seed)]
    return args + ["--mapping", "greedy", "--threads", str(threads), "--json"]


# serve_warm's request mix; every request runs on one evaluation thread.
SERVE_MIX = {
    "S1": ("simulate", {"arch": ["scatter", "mzi"],
                        "models": [{"spec": "vgg8"}], "mapping": "greedy",
                        "objective": "edp", "num_threads": 1}),
    "S2": ("simulate", {"arch": ["scatter", "mzi"],
                        "models": [{"spec": "vgg8"}, {"spec": "resnet20"}],
                        "aggregate": "sum", "mapping": "bnb",
                        "objective": "p99_latency", "num_threads": 1}),
    "E1": ("explore", explore_request("sweep_cold", 0, 1)),
}
SERVE_POINTS = 9  # design points in E1's document

# The same requests as CLI flags (for --record: served == CLI --json).
SERVE_CLI = {
    "S1": ["--model", "vgg8", "--arch", "scatter,mzi", "--mapping", "greedy",
           "--objective", "edp", "--json"],
    "S2": ["--model", "vgg8", "--model", "resnet20", "--aggregate", "sum",
           "--arch", "scatter,mzi", "--mapping", "bnb", "--objective",
           "p99_latency", "--threads", "1", "--json"],
    "E1": sweep_args("sweep_cold", 0, 1),
}


def serve_blocks(seed):
    """The seeded request order: an endless stream of shuffled copies of
    the mix."""
    rng = random.Random(seed)
    while True:
        block = sorted(SERVE_MIX)
        rng.shuffle(block)
        yield block


def serve_order(seed, blocks):
    stream = serve_blocks(seed)
    return [name for _ in range(blocks) for name in next(stream)]


def envelope(name, request_id):
    op, request = SERVE_MIX[name]
    return json.dumps({"op": op, "id": request_id, "request": request},
                      separators=(",", ":"))


# ------------------------------------------------------------ programs


class Build:
    """Configures and builds the programs under test from the checkout."""

    TARGETS = ["example_simphony_cli", "example_simphonyd", "perfbench_trace"]

    def __init__(self):
        if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
            raise SystemExit("perfbench: no simphony sources at " + str(ROOT))
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.dir = build if build.is_absolute() else ROOT / build
        self.work = self.dir / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        log = self.work / "build.log"
        with open(log, "w") as out:
            steps = []
            if not (self.dir / "CMakeCache.txt").exists():
                steps.append(["cmake", "-S", str(BENCH_DIR), "-B",
                              str(self.dir), "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", str(self.dir), "-j",
                          str(min(4, os.cpu_count() or 1)), "--target"]
                         + self.TARGETS)
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=out).returncode:
                    sys.stderr.write(log.read_text()[-4000:])
                    raise SystemExit("perfbench: build failed")
        self.cli = str(self.dir / "simphony" / "example_simphony_cli")
        self.daemon = str(self.dir / "simphony" / "example_simphonyd")
        self.trace = str(self.dir / "perfbench_trace")

    def stamp(self):
        cache = {}
        for line in (self.dir / "CMakeCache.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
        compiler = cache.get("CMAKE_CXX_COMPILER", "")
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
        cpu = ""
        if Path("/proc/cpuinfo").exists():
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        commit = "none (not a git checkout)"
        if (ROOT / ".git").exists():
            result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True)
            commit = result.stdout.strip() or commit
        return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
                "compiler": version[0] if version else compiler,
                "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
                "git_commit": commit, "source_digest": source_digest(),
                "python": platform.python_version()}


def source_digest():
    """Digest of the sources the programs are built from, so a result from
    a checkout that is not a git repository still names its code."""
    digest = []
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.append(str(f.relative_to(ROOT)) + ":" +
                              benchlib.raw_digest(f.read_bytes()))
    return benchlib.raw_digest("\n".join(digest).encode())


def run_cli(build, args):
    """Runs the CLI: (wall seconds from spawn to exit with stdout drained,
    stdout bytes, exit code, the child's peak RSS in MiB via wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen([build.cli] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, out, proc.returncode, usage.ru_maxrss / 1024.0


class Daemon:
    """One simphonyd on a Unix socket in the run directory, and one client
    connection to it."""

    def __init__(self, build, workdir, cache_file=None):
        self.sock_path = "d.sock"  # relative: cwd is the run directory
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        args = [build.daemon, "--listen", "unix:" + self.sock_path,
                "--threads", "2"]
        if cache_file:
            args += ["--cache-file", cache_file]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=workdir,
                                     stderr=subprocess.DEVNULL)
        deadline = self.start + TIMEOUT_S
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(self.sock_path)
                break
            except OSError:
                self.sock.close()
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    raise RuntimeError("simphonyd did not start")
                time.sleep(0.0002)
        self.sock.settimeout(TIMEOUT_S)
        self.stream = self.sock.makefile("rwb")
        self.call('{"op":"ping","id":"ping"}')
        self.ready_s = time.perf_counter() - self.start

    def call(self, line):
        """Sends one request line; returns (terminal response, seconds)."""
        start = time.perf_counter()
        self.stream.write(line.encode() + b"\n")
        self.stream.flush()
        while True:
            reply = self.stream.readline()
            if not reply:
                raise RuntimeError("simphonyd closed the connection")
            response = json.loads(reply)
            if response.get("status") != "progress":
                return response, time.perf_counter() - start

    def kill(self):
        self.stream.close()
        self.sock.close()
        self.proc.kill()
        self.proc.wait()

    def peak_rss_mb(self):
        for line in Path("/proc/%d/status" % self.proc.pid).read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        """Graceful shutdown (persists the cache file); waits for exit and
        kills the daemon if it does not go."""
        try:
            self.call('{"op":"shutdown"}')
        except (OSError, RuntimeError, ValueError):
            pass
        self.stream.close()
        self.sock.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure_setup(build, workdir, cache_file, keep_last=False):
    """Spawn-to-first-ping times of SETUP_SPAWNS daemon starts.  The probes
    are killed once they answer (they hold no state to persist); with
    keep_last, the last one is returned running instead."""
    times = []
    for i in range(SETUP_SPAWNS):
        daemon = Daemon(build, workdir, cache_file)
        times.append(daemon.ready_s)
        if keep_last and i == SETUP_SPAWNS - 1:
            return times, daemon
        daemon.kill()
    return times, None


# ------------------------------------------------------------- checks


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def sweep_reference(build, workload, seed, expected):
    """The digest a sweep's document must have, and where it came from.
    Recorded seeds use perfbench/expected.json; other seeds use a
    one-thread run of the same sweep (documents are identical across
    thread counts)."""
    recorded = expected.get(workload, {})
    key = "any" if workload == "sweep_cold" else str(seed)
    if key in recorded:
        return recorded[key], "recorded"
    _, out, code, _ = run_cli(build, sweep_args(workload, seed, 1))
    if code != 0:
        raise RuntimeError("reference sweep failed with exit code %d" % code)
    return benchlib.raw_digest(out), "one-thread reference run"


def prime(build, workdir, cache_file):
    """Serves the request set once on a cold daemon, which saves the cost
    cache to `cache_file` on shutdown.  Untimed."""
    daemon = Daemon(build, workdir, cache_file)
    try:
        for name in sorted(SERVE_MIX):
            response, _ = daemon.call(envelope(name, "prime-" + name))
            if response.get("status") != "ok":
                raise RuntimeError("priming %s failed: %s" % (name, response))
    finally:
        daemon.stop()


# --------------------------------------------------------- workloads


def timed_sweep(build, workload, seed, seconds, workdir):
    expected = load_expected()
    setup, _ = measure_setup(build, workdir, None)
    digest, source = sweep_reference(build, workload, seed, expected)
    args = sweep_args(workload, seed, 2)
    walls, rss, outcomes, points = [], [], [], 0

    def sweep():
        nonlocal points
        wall, out, code, peak = run_cli(build, args)
        rss.append(peak)
        if code != 0:
            outcomes.append(benchlib.EXIT)
        elif benchlib.raw_digest(out) != digest:
            outcomes.append(benchlib.DIGEST)
        else:
            outcomes.append(benchlib.OK)
            points = points or len(json.loads(out)["points"])
        return wall if outcomes[-1] == benchlib.OK else None

    sweep()  # warm-up (binary in the page cache), checked but untimed
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        wall = sweep()
        if wall is not None:
            walls.append(wall)
    if not walls:
        raise RuntimeError("no sweep completed")
    sweep_s = statistics.median(walls)
    pct, tail = benchlib.tail_percentile(walls)
    samples = {
        "sweep_s": (sweep_s, "s", len(walls)),
        "points_per_s": (points / sweep_s, "points/s", len(walls)),
        "serve_p50_ms": (sweep_s * 1e3, "ms", len(walls)),
        "serve_p90_ms": (tail * 1e3, "ms", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (max(rss), "MiB", len(rss)),
    }
    notes = ["output check: %s digest %s" % (source, digest[:16]),
             "serve_p90_ms is the p%.0f of %d sweep processes"
             % (pct, len(walls)),
             "setup_s: simphonyd start-up with no cache file (the Engine the"
             " CLI builds), %d spawns" % len(setup)]
    return samples, outcomes, notes


def timed_serve(build, seed, seconds, workdir):
    expected = load_expected().get("serve_warm", {})
    cache_file = "primed.spcc"
    prime(build, workdir, cache_file)
    setup, daemon = measure_setup(build, workdir, cache_file, keep_last=True)
    try:
        latencies, explore_s, outcomes = [], [], []

        def serve(name):
            response, wall = daemon.call(envelope(name, len(outcomes)))
            outcomes.append(benchlib.served_outcome(response,
                                                    expected.get(name)))
            return wall if outcomes[-1] == benchlib.OK else None

        for name in sorted(SERVE_MIX):  # warm-up: checked but untimed
            serve(name)
        blocks = serve_blocks(seed)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for name in next(blocks):
                wall = serve(name)
                if wall is None:
                    continue
                latencies.append(wall)
                if name == "E1":
                    explore_s.append(wall)
        stats, _ = daemon.call('{"op":"stats","id":"stats"}')
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    if not latencies or not explore_s:
        raise RuntimeError("no request completed")
    pct, tail = benchlib.tail_percentile(latencies)
    sweep_s = statistics.median(explore_s)
    samples = {
        "sweep_s": (sweep_s, "s", len(explore_s)),
        "points_per_s": (SERVE_POINTS / sweep_s, "points/s", len(explore_s)),
        "serve_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "serve_p90_ms": (tail * 1e3, "ms", len(latencies)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss, "MiB", 1),
    }
    result = stats.get("result", {})
    notes = ["output check: recorded digests of the CLI --json documents",
             "serve_p90_ms is the p%.0f of %d requests (%d beyond it)"
             % (pct, len(latencies),
                sum(1 for x in latencies if x > tail)),
             "sweep_s / points_per_s: served E1 explore, %d samples"
             % len(explore_s),
             "daemon stats: rejected %s, coalesced %s, cache hit rate %s"
             % (result.get("rejected"), result.get("coalesced"),
                result.get("cost_cache", {}).get("hit_rate"))]
    return samples, outcomes, notes


# ---------------------------------------------------------- traced run

PER_LAYER = [
    # (metric, unit, span name, total time or call count)
    ("workload.build_ms", "ms", "workload.build", "total"),
    ("workload.builds", "count", "workload.build", "count"),
    ("workload.resolve_ms", "ms", "workload.resolve", "total"),
    ("arch.materialize_ms", "ms", "arch.materialize", "total"),
    ("arch.materializations", "count", "arch.materialize", "count"),
    ("memory.size_ms", "ms", "memory.size", "total"),
    ("core.mapper.cost_fill_ms", "ms", "core.mapper.cost_fill", "total"),
    ("dataflow.map_ms", "ms", "dataflow.map", "total"),
    ("arch.link_budget_ms", "ms", "arch.link_budget", "total"),
    ("memory.traffic_ms", "ms", "memory.traffic", "total"),
    ("energy.compute_ms", "ms", "energy.compute", "total"),
    ("core.mapper.search_ms", "ms", "core.mapper.search", "total"),
    ("core.mapper.searches", "count", "core.mapper.search", "count"),
    ("layout.area_ms", "ms", "layout.area", "total"),
    ("core.dse.pareto_ms", "ms", "core.dse.pareto", "total"),
    ("core.dse.explore_ms", "ms", "core.dse.explore", "total"),
    ("core.engine.simulate_ms", "ms", "core.engine.simulate", "total"),
    ("util.json.render_ms", "ms", "util.json.render", "total"),
    ("util.json.parse_ms", "ms", "util.json.parse", "total"),
    ("util.binio.cache_load_ms", "ms", "util.binio.cache_load", "total"),
]
FILL_CHILDREN = ("memory.size", "dataflow.map", "arch.link_budget",
                 "memory.traffic", "energy.compute")
PREDICTED_TOP = {"sweep_cold": ("energy.compute",),
                 "sweep_wide": ("energy.compute",),
                 "serve_warm": ("workload.build", "workload.resolve")}


def fill_coverage(spans):
    """(replayed cost-fill children) / (cost-fill time) over the cost fills
    whose per-pair calls were replayed, i.e. those whose lookups all
    missed the cache."""
    replayed, paired = {}, set()
    for name, start, end, parent, _, replay, _ in spans:
        if replay and name in FILL_CHILDREN:
            replayed[parent] = replayed.get(parent, 0) + end - start
            if name == "energy.compute":
                paired.add(parent)
    total = sum(spans[i][2] - spans[i][1] for i in paired)
    return sum(replayed[i] for i in paired) / total if total else 0.0


def traced_run(build, workload, seed, workdir):
    expected = load_expected()
    client_spans, served = [], {}
    daemon_stats = {}
    if workload == "serve_warm":
        cache_file = os.path.join(workdir, "primed.spcc")
        prime(build, workdir, "primed.spcc")
        shutil.copyfile(cache_file, os.path.join(workdir, "plan.spcc"))
        names = serve_order(seed, 2)
        ids = ["%s-%d" % (name, i) for i, name in enumerate(names)]
        ops = [{"id": op_id, "line": envelope(op_id.split("-")[0], op_id)}
               for op_id in ids]
        daemon = Daemon(build, workdir, "primed.spcc")
        try:
            for op in ops:
                start = time.monotonic_ns()
                response, wall = daemon.call(op["line"])
                client_spans.append(("core.server.request", start,
                                     time.monotonic_ns(), op["id"]))
                served[op["id"]] = (response, wall)
            stats, _ = daemon.call('{"op":"stats","id":"stats"}')
            daemon_stats = stats.get("result", {})
        finally:
            daemon.stop()
        plan = {"cache_file": os.path.join(workdir, "plan.spcc"), "ops": ops}
        recorded = expected.get("serve_warm", {})
        references = {op_id: recorded.get(op_id.split("-")[0])
                      for op_id in ids}
    else:
        digest, _ = sweep_reference(build, workload, seed, expected)
        request = explore_request(workload, seed, 1)
        line = json.dumps({"op": "explore", "id": workload, "request": request})
        plan = {"cache_file": "", "ops": [{"id": workload, "line": line}]}
        references = {workload: digest}

    plan_path = os.path.join(workdir, "plan.json")
    Path(plan_path).write_text(json.dumps(plan))
    code = subprocess.run([build.trace, plan_path, workdir],
                          timeout=TIMEOUT_S).returncode
    if not Path(workdir, "trace.json").exists():
        raise RuntimeError("perfbench_trace failed with exit code %d" % code)
    trace = json.loads(Path(workdir, "trace.json").read_text())
    outcomes = []
    for op in trace["ops"]:
        document = Path(workdir, op["id"] + ".engine.json").read_bytes()
        if workload == "serve_warm":
            response, _ = served[op["id"]]
            ok = (benchlib.served_outcome(response, references[op["id"]])
                  == benchlib.OK and benchlib.canonical_digest(document)
                  == references[op["id"]])
        else:
            ok = benchlib.raw_digest(document) == references[op["id"]]
        outcomes.append(benchlib.OK if ok and op["replica_equal"]
                        else benchlib.DIGEST)
    if code != 0 and all(o == benchlib.OK for o in outcomes):
        outcomes.append(benchlib.EXIT)

    spans = [tuple(s) for s in trace["spans"]]
    table = benchlib.layer_totals(spans)
    ms = lambda ns: ns / 1e6
    metrics = {}
    for metric, unit, name, what in PER_LAYER:
        count, total, _ = table.get(name, (0, 0, 0))
        metrics[metric] = (count if what == "count" else ms(total), unit)
    hits, misses = trace["cache_hits"], trace["cache_misses"]
    metrics["core.mapper.cost_fill_coverage"] = (fill_coverage(spans), "ratio")
    metrics["core.mapper.cache_hits"] = (hits, "count")
    metrics["core.mapper.cache_misses"] = (misses, "count")
    metrics["core.mapper.cache_hit_rate"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    overhead = sum(served[op["id"]][1] * 1e9 - op["engine_ns"]
                   for op in trace["ops"]) if served else 0
    metrics["core.server.overhead_ms"] = (ms(overhead), "ms")
    metrics["core.engine.rejected"] = (daemon_stats.get("rejected", 0), "count")
    metrics["core.engine.coalesced"] = (daemon_stats.get("coalesced", 0), "count")
    metrics["util.json.bytes"] = (trace["json_bytes"], "bytes")
    metrics["util.binio.cache_bytes"] = (trace["cache_bytes"], "bytes")
    untraced = sum(op["untraced_ns"] for op in trace["ops"])
    traced = sum(op["traced_ns"] - op["replay_ns"] for op in trace["ops"])
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")

    op_ids = [op["id"] for op in trace["ops"]]
    traces_dir = build.work / "traces"
    traces_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (workload, seed)
    with open(traces_dir / (stem + ".trace.json"), "w") as out:
        json.dump(benchlib.perfetto_events(spans, op_ids, client_spans), out)
    lines = layer_table(table)
    ranked = sorted(table.items(), key=lambda kv: -kv[1][2])
    top = ranked[0][0] if ranked else ""
    verdict = ("agrees" if top in PREDICTED_TOP[workload] else "disagrees")
    lines.append("largest self time: %s (%.1f ms); the ROADMAP profile predicts"
                 " %s: %s" % (top, ms(ranked[0][1][2]) if ranked else 0,
                              " or ".join(PREDICTED_TOP[workload]), verdict))
    lines.append("replica documents equal the Engine's: %s; miss-only cost fills"
                 " replayed: %d, mixed (not replayed): %d"
                 % (trace["replica_equal"], trace["miss_only_passes"],
                    trace["mixed_passes"]))
    lines.append("trace file: %s" % (traces_dir / (stem + ".trace.json")))
    (traces_dir / (stem + ".layers.txt")).write_text("\n".join(lines) + "\n")
    return metrics, outcomes, lines


def layer_table(table):
    rows = ["%-28s %7s %12s %12s" % ("span", "calls", "total ms", "self ms")]
    for name, (count, total, own) in sorted(table.items(),
                                            key=lambda kv: -kv[1][2]):
        rows.append("%-28s %7d %12.3f %12.3f" % (name, count, total / 1e6,
                                                  own / 1e6))
    return rows


# --------------------------------------------------------------- record


def record(build):
    """Writes perfbench/expected.json from CLI runs: the sweeps' documents
    at the default and the held-out seed, and the serve mix's documents
    (E1 against the primed cache, as a warm daemon serves it).  Refuses to
    record if a served document differs from the CLI's."""
    def cli_output(args):
        _, out, code, _ = run_cli(build, args)
        if code != 0:
            raise SystemExit("perfbench: %s exited %d" % (args, code))
        return out

    expected = {"sweep_cold": {}, "sweep_wide": {}, "serve_warm": {}}
    expected["sweep_cold"]["any"] = benchlib.raw_digest(
        cli_output(sweep_args("sweep_cold", 0, 2)))
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        expected["sweep_wide"][str(seed)] = benchlib.raw_digest(
            cli_output(sweep_args("sweep_wide", seed, 2)))
    workdir = tempfile.mkdtemp(dir=build.work)
    try:
        os.chdir(workdir)
        prime(build, workdir, "primed.spcc")
        for name, flags in SERVE_CLI.items():
            extra = ["--cache-file", "cli.spcc"] if name == "E1" else []
            if extra:
                shutil.copyfile("primed.spcc", "cli.spcc")
            expected["serve_warm"][name] = benchlib.canonical_digest(
                cli_output(flags + extra))
        daemon = Daemon(build, workdir, "primed.spcc")
        try:
            for name in sorted(SERVE_MIX):
                response, _ = daemon.call(envelope(name, name))
                served = benchlib.canonical_digest(response["result"])
                if served != expected["serve_warm"][name]:
                    raise SystemExit("served %s differs from the CLI" % name)
        finally:
            daemon.stop()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(json.dumps(expected, indent=2, sort_keys=True))


# ----------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["sweep_cold", "sweep_wide", "serve_warm"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build = Build()
    if args.record:
        record(build)
        return
    stamp = build.stamp()
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=build.work)
    try:
        os.chdir(workdir)
        if args.trace:
            values, outcomes, lines = traced_run(build, args.workload,
                                                 args.seed, workdir)
            samples = {k: (v, unit, 1) for k, (v, unit) in values.items()}
        elif args.workload == "serve_warm":
            samples, outcomes, lines = timed_serve(build, args.seed,
                                                   args.seconds, workdir)
        else:
            samples, outcomes, lines = timed_sweep(build, args.workload,
                                                   args.seed, args.seconds,
                                                   workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, ratio = benchlib.count_failures(outcomes)
    print("# host: " + json.dumps(stamp, sort_keys=True))
    print("# workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                               args.trace))
    for line in lines:
        print("# " + line)
    for name, (value, unit, count) in samples.items():
        print("%-34s %14.6g %-9s n=%d" % (name, value, unit, count))
    print("%-34s %14.6g %-9s n=%d" % ("failed_ratio", ratio, "ratio",
                                      attempted))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in samples.items()}}
    results_dir = build.work / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / ("%s-seed%d-trace%d.json"
                                 % (args.workload, args.seed, args.trace))
    record_path.write_text(json.dumps(
        dict(result, host=stamp, failed_ratio=ratio,
             samples={k: c for k, (_, _, c) in samples.items()}),
        indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
