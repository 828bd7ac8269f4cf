#!/usr/bin/env python3
"""Grazelle's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run builds the benchmark tools
and grazelle_serve into .bench_build/; every run works in its own
directory under .bench_work/ and removes it on exit, keeping only a
traced run's spans (.bench_work/spans-<workload>.jsonl). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics; with
--trace 1 the per-layer ones. The lines above it repeat each metric with
its sample count and, for per-layer metrics, the end-to-end metric it
should move. See perfbench/README.md for the workloads.

Exit codes: 0 = done and correct; 1 = an output check failed (the result
line says correct: false); 2 = the run could not be made (missing
sources, failed build, invalid measurement); the reason is on stderr.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
PERFBENCH = os.path.join(BUILD, "perfbench")
SERVE = os.path.join(BUILD, "grazelle", "tools", "grazelle_serve")

THREADS = 4            # batch jobs run grazelle_run's default thread count
SETUP_REPEATS = 3      # set-ups per run; setup_s is their median
WARMUP_S = 2.0         # discarded open-loop warm-up before the window
VALUES_SHARE = 0.02    # share of serve BFS/CC requests asking for values
# Open-loop rate, calibrated once with --calibrate on a 4-core host
# (capacity ~200 req/s on the serve mix at a 250 ms p99 limit) and then
# fixed: under a quarter of capacity. Higher fixed rates amplify host
# drift into run-to-run latency spreads beyond any usable bound
# (README.md).
LO_RPS = 45.0
INGEST_BATCHES = 2     # ingests after the serve window, one at a time
INGEST_INSERTS = 256   # edge inserts per ingest batch
INGEST_DELETES = 64    # edge deletes per ingest batch
# The generator fell behind (the run is invalid, not slow) when its p99
# or its worst send lateness exceeds these.
LATE_P99_LIMIT_MS = 20.0
LATE_MAX_LIMIT_MS = 100.0
SERVE_FLAGS = ["--workers", "2", "--session-threads", "2",
               "--batch-window-ms", "5", "--direction", "adaptive"]

WORKLOADS = {
    "batch-rmat19": {"scale": 19, "kind": "batch"},
    "serve-rmat18": {"scale": 18, "kind": "serve", "rate": LO_RPS},
}

# End-to-end metrics: every workload reports all of them. The per-op
# latencies are interquartile means (benchlib.interquartile_mean says
# why) and tail_ms a percentile. A median over all reads is left out:
# serve latencies are bimodal, and it jumped between the modes from
# run to run (README.md).
PER_OP = ("pr_ms", "cc_ms", "bfs_ms")
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pr_ms", "ms"),
    ("cc_ms", "ms"), ("bfs_ms", "ms"), ("tail_ms", "ms"),
]

# Per-layer metrics (traced runs): name, unit, the end-to-end metric and
# workload it should move. A layer a workload does not exercise reads 0.
PER_LAYER = [
    ("store.open_ms", "ms", "setup_s, all workloads"),
    ("graph.build_s", "s", "setup_s, all workloads"),
    ("store.pack_s", "s", "setup_s, all workloads"),
    ("server.ready_ms", "ms", "setup_s on serve"),
    ("core.pull_ns_per_edge", "ns", "pr_ms on batch; none on serve"),
    ("platform.gather_ns", "ns", "reference bound, no end-to-end metric"),
    ("core.pull_gather_frac", "ratio", "pr_ms on batch"),
    ("core.vertex_s", "s", "pr_ms and cc_ms on batch"),
    ("core.fold_s", "s", "pr_ms and cc_ms on batch"),
    ("threading.idle_frac", "ratio", "pr_ms and cc_ms on batch"),
    ("threading.speedup_1to4", "ratio", "pr_ms on batch"),
    ("core.push_s.bfs", "s", "bfs_ms on batch and serve"),
    ("core.push_s.cc", "s", "cc_ms on batch"),
    ("core.edges_touched.pr", "count", "pr_ms on batch"),
    ("core.edges_touched.cc", "count", "cc_ms on batch"),
    ("core.edges_touched.bfs", "count", "bfs_ms on batch and serve"),
    ("frontier.vectors_skipped_frac", "ratio", "bfs_ms and cc_ms on batch"),
    ("autotune.direction_switches", "count",
     "bfs_ms and cc_ms on batch, bfs_ms on serve"),
    ("autotune.pull_iters", "count", "bfs_ms and cc_ms on batch, bfs_ms on serve"),
    ("autotune.push_iters", "count", "bfs_ms and cc_ms on batch, bfs_ms on serve"),
    ("server.queue_wait_p50_ms", "ms", "tail_ms on serve"),
    ("server.queue_wait_p99_ms", "ms", "tail_ms on serve"),
    ("server.coalesce_wait_p50_ms", "ms", "bfs_ms on serve"),
    ("server.execute_p50_ms.bfs", "ms", "bfs_ms on serve"),
    ("server.execute_p50_ms.cc", "ms", "cc_ms on serve"),
    ("server.execute_p50_ms.pr", "ms", "pr_ms on serve"),
    ("server.execute_mean_ms.ingest", "ms", "server.ingest_mean_ms on serve"),
    ("server.serialize_p99_ms", "ms", "tail_ms on serve"),
    ("server.batch_size_mean", "count", "bfs_ms and tail_ms on serve"),
    ("apps.msbfs_edges_per_request", "count", "bfs_ms on serve"),
    ("server.overloaded", "count", "failed on serve"),
    ("server.ingest_mean_ms", "ms",
     "none: the ingests follow the serve window"),
    ("store.journal_append_ms", "ms", "server.ingest_mean_ms on serve"),
    ("graph.drain_ms", "ms", "server.ingest_mean_ms on serve"),
    ("graph.apply_delta_ms", "ms", "server.ingest_mean_ms on serve"),
    ("graph.rebuild_s", "s", "server.ingest_mean_ms on serve"),
    ("graph.replay_over_execute", "ratio", "cross-check of the four above"),
    ("loadgen.late_max_ms", "ms", "validity of serve runs"),
    ("trace_overhead_frac", "ratio", "all end-to-end latencies"),
]


class Invalid(Exception):
    """The run could not be measured; the message says why."""


def log(msg):
    print(msg, flush=True)


def run_tool(args, cwd, timeout=170):
    """Runs a perfbench tool and returns its last stdout line as JSON."""
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise Invalid("%s failed: %s" % (os.path.basename(args[0]) + " " +
                                         args[1], proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def build():
    """Configures and builds the tools; returns once they are current."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 os.path.join("tools", "grazelle_serve.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise Invalid("grazelle sources not found next to perfbench/ "
                          "(missing %s)" % need)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
        proc = subprocess.run(["cmake", "--build", BUILD, "-j",
                               str(os.cpu_count() or 4), "--target",
                               "perfbench", "grazelle_serve"],
                              stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        raise Invalid("build failed; see .bench_build/build.log")


def read_sources(path):
    with open(path) as f:
        return [int(line) for line in f]


def flush(path):
    """Writes a file's dirty pages back now, untimed, so the writeback
    does not overlap a measurement."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Invalid("no VmHWM for pid %d" % pid)


class Daemon:
    """One grazelle_serve process on a fresh copy of a container. Every
    live daemon is in LIVE until stopped, so any exit path can reap it."""

    LIVE = []

    def __init__(self, work, pristine):
        shutil.copyfile(pristine, os.path.join(work, "run.gzg"))
        flush(os.path.join(work, "run.gzg"))
        self.stderr = open(os.path.join(work, "serve.err"), "w")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [SERVE, "--socket", "s.sock", "--graph", "g=run.gzg"] +
            SERVE_FLAGS, cwd=work, stdout=subprocess.PIPE,
            stderr=self.stderr)
        Daemon.LIVE.append(self)
        # Ready once it prints "serving" (stdout is block-buffered, so
        # read raw bytes rather than lines).
        seen = b""
        deadline = start + 60
        while b"serving" not in seen:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                raise Invalid("grazelle_serve did not start; see serve.err")
            seen += chunk
        self.ready_s = time.monotonic() - start

    def stop(self):
        if self in Daemon.LIVE:
            Daemon.LIVE.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def median(values):
    return statistics.median(values) if values else 0.0


def require(values, q, what):
    """A reportable percentile of `values` (q = None: their interquartile
    mean) or an Invalid run."""
    if q is None:
        value = benchlib.interquartile_mean(values)
    else:
        value = benchlib.reportable(values, q)
    if value is None:
        raise Invalid("%s: %d samples are too few" % (what, len(values)))
    return value


def set_up(work, edges, serving):
    """SETUP_REPEATS set-ups of the program from the edge list. Returns
    (records, pristine container path, daemon or None): the last daemon
    stays up for the measurement."""
    records = []
    daemon = None
    for i in range(SETUP_REPEATS):
        gzg = os.path.join(work, "g%d.gzg" % i)
        rec = run_tool([PERFBENCH, "pack", "--edges", edges, "--out", gzg],
                       work)
        flush(gzg)
        if i > 0:
            os.remove(os.path.join(work, "g%d.gzg" % (i - 1)))
        if serving:
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(work, gzg)
            rec["ready_s"] = daemon.ready_s
        records.append(rec)
    return records, gzg, daemon


def gather_ns(gen, threads, seed):
    """The host's plain index-stream-and-gather rate over an array the
    size of the value array, at the thread count the engine ran."""
    return run_tool([PERFBENCH, "gather", "--values", str(gen["vertices"]),
                     "--indices", str(gen["edges"]), "--threads",
                     str(threads), "--seed", str(seed)], ROOT)["gather_ns"]


def setup_seconds(records):
    """Median set-up: read, build, pack and open the container, and for
    the daemon workloads start grazelle_serve until it serves."""
    return median([r["load_s"] + r["build_s"] + r["pack_s"] + r["open_s"] +
                   r.get("ready_s", 0.0) for r in records])


# -- batch -----------------------------------------------------------------

def run_batch(work, seed, seconds, trace, spec):
    edges = os.path.join(work, "edges.grzb")
    gen = run_tool([PERFBENCH, "gen-rmat", "--scale", str(spec["scale"]),
                    "--seed", str(seed), "--out", edges], work)
    flush(edges)
    roots = benchlib.pick_roots(seed, read_sources(edges + ".sources"), 8)
    records, gzg, _ = set_up(work, edges, serving=False)
    out = run_tool([PERFBENCH, "batch", "--gzg", gzg, "--edges", edges,
                    "--roots", ",".join(map(str, roots)),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--spans", os.path.join(work, "spans.jsonl")], work)
    jobs = out["jobs"]
    measured = [j for j in jobs if not j["traced"]] if trace else jobs
    ms = {app: [j["seconds"] * 1e3 for j in measured if j["app"] == app]
          for app in ("pr", "cc", "bfs")}
    every = [j["seconds"] * 1e3 for j in measured]
    counts = {"setup_s": len(records), "peak_rss_mb": 1,
              "pr_ms": len(ms["pr"]), "cc_ms": len(ms["cc"]),
              "bfs_ms": len(ms["bfs"]),
              "tail_ms": len(every)}
    e2e = {
        "setup_s": setup_seconds(records),
        "peak_rss_mb": out["peak_rss_mb"],
        "pr_ms": require(ms["pr"], None, "pr_ms"),
        "cc_ms": require(ms["cc"], None, "cc_ms"),
        "bfs_ms": require(ms["bfs"], None, "bfs_ms"),
        "tail_ms": require(every, 0.9, "tail_ms"),
    }
    result = {"e2e": e2e, "counts": counts, "tail_q": 0.9,
              "attempted": len(jobs) + out["checked"],
              "errors": out["errors"],
              "about": "rmat:%d, %d vertices, %d edges; closed loop of "
                       "one-shot jobs at %d threads"
                       % (spec["scale"], gen["vertices"], gen["edges"],
                          THREADS)}
    if trace:
        result["layers"] = batch_layers(out, records, gen["edges"])
        gather = gather_ns(gen, THREADS, seed)
        result["layers"]["platform.gather_ns"] = gather
        result["layers"]["core.pull_gather_frac"] = (
            gather / result["layers"]["core.pull_ns_per_edge"])
    return result


def batch_layers(out, records, num_edges):
    jobs = out["jobs"]

    def of(app, traced=None):
        return [j for j in jobs if j["app"] == app and
                (traced is None or j["traced"] == traced)]

    pr = of("pr")
    pull_ns = median([j["pull_s"] / (j["pull_iters"] * num_edges) * 1e9
                      for j in pr])
    frontier = of("bfs", True) + of("cc", True)
    visited = sum(j["vectors_visited"] + j["vectors_skipped"]
                  for j in frontier)
    untraced = sum(median([j["seconds"] for j in of(a, False)])
                   for a in ("pr", "cc", "bfs"))
    traced = sum(median([j["seconds"] for j in of(a, True)])
                 for a in ("pr", "cc", "bfs"))
    return {
        "store.open_ms": median([r["open_s"] for r in records]) * 1e3,
        "graph.build_s": median([r["build_s"] for r in records]),
        "store.pack_s": median([r["pack_s"] for r in records]),
        "core.pull_ns_per_edge": pull_ns,
        "core.vertex_s": median([j["vertex_s"] for j in pr]),
        "core.fold_s": median([j["fold_s"] for j in pr]),
        "threading.idle_frac": median([j["idle_s"] / (THREADS * j["pull_s"])
                                       for j in pr]),
        "threading.speedup_1to4": median(out["pr1_s"]) /
                                  median([j["seconds"] for j in pr]),
        "core.push_s.bfs": median([j["push_s"] for j in of("bfs")]),
        "core.push_s.cc": median([j["push_s"] for j in of("cc")]),
        "core.edges_touched.pr": median([j["edges_touched"]
                                         for j in of("pr", True)]),
        "core.edges_touched.cc": median([j["edges_touched"]
                                         for j in of("cc", True)]),
        "core.edges_touched.bfs": median([j["edges_touched"]
                                          for j in of("bfs", True)]),
        "frontier.vectors_skipped_frac":
            sum(j["vectors_skipped"] for j in frontier) / max(visited, 1),
        "autotune.direction_switches": statistics.mean(
            j["switches"] for j in of("bfs") + of("cc")),
        "autotune.pull_iters": statistics.mean(
            j["pull_iters"] for j in of("bfs") + of("cc")),
        "autotune.push_iters": statistics.mean(
            j["push_iters"] for j in of("bfs") + of("cc")),
        "trace_overhead_frac": traced / untraced - 1.0,
    }


# -- serve ------------------------------------------------------------------

def run_serving(work, seed, seconds, trace, spec):
    edges = os.path.join(work, "edges.grzb")
    gen = run_tool([PERFBENCH, "gen-rmat", "--scale", str(spec["scale"]),
                    "--seed", str(seed), "--out", edges], work)
    flush(edges)
    sources = read_sources(edges + ".sources")
    batches = os.path.join(work, "ingest.jsonl")
    run_tool([PERFBENCH, "gen-ingest", "--edges", edges, "--seed", str(seed),
              "--batches", str(INGEST_BATCHES),
              "--inserts", str(INGEST_INSERTS),
              "--deletes", str(INGEST_DELETES), "--out", batches], work)
    with open(batches) as f:
        ingest_lines = f.read().splitlines()
    schedule = benchlib.serving_schedule(seed, sources, spec["rate"],
                                         WARMUP_S, seconds, VALUES_SHARE,
                                         ingest_lines)
    sched_path = os.path.join(work, "schedule.txt")
    with open(sched_path, "w") as f:
        f.write("\n".join(schedule) + "\n")

    records, gzg, daemon = set_up(work, edges, serving=True)
    try:
        res_path = os.path.join(work, "loadgen.json")
        run_tool([PERFBENCH, "loadgen", "--socket", "s.sock",
                  "--schedule", sched_path, "--out", res_path,
                  "--edges", edges, "--trace", str(trace),
                  "--spans", os.path.join(work, "spans.jsonl"),
                  "--scrape-prefix", os.path.join(work, "scrape-")],
                 work, timeout=seconds + 120)
        rss = peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    with open(res_path) as f:
        res = json.load(f)

    reqs = res["requests"]
    late_max = max(res["late_ms"])
    late_p99, _ = benchlib.percentile(res["late_ms"], 0.99)
    if spec.get("strict", True) and (late_p99 > LATE_P99_LIMIT_MS or
                                     late_max > LATE_MAX_LIMIT_MS):
        raise Invalid("the load generator fell behind: requests left up to "
                      "%.1f ms (p99 %.1f ms) after they were due"
                      % (late_max, late_p99))

    def latency(r):  # a failed request misses every latency limit
        return r["latency_ms"] if r["ok"] else float("inf")

    reads = [r for r in reqs if r["phase"] == "m" and r["kind"] != "ingest"]
    every = [latency(r) for r in reads]
    by_kind = {k: [latency(r) for r in reads if r["kind"] == k]
               for k in ("pr", "cc", "bfs")}
    e2e = {
        "setup_s": setup_seconds(records),
        "peak_rss_mb": rss,
        "pr_ms": require(by_kind["pr"], None, "pr_ms"),
        "cc_ms": require(by_kind["cc"], None, "cc_ms"),
        "bfs_ms": require(by_kind["bfs"], None, "bfs_ms"),
        "tail_ms": require(every, 0.99, "tail_ms"),
    }
    counts = {"setup_s": len(records), "peak_rss_mb": 1,
              "pr_ms": len(by_kind["pr"]), "cc_ms": len(by_kind["cc"]),
              "bfs_ms": len(by_kind["bfs"]),
              "tail_ms": len(every)}
    sent = [r for r in reqs if r["phase"] != "w"]
    failed = sum(1 for r in sent if not r["ok"])
    writes = [latency(r) for r in reqs if r["kind"] == "ingest"]
    result = {"e2e": e2e, "counts": counts, "tail_q": 0.99,
              "attempted": len(sent), "failed_ops": failed,
              "errors": res["errors"], "late_ms": res["late_ms"],
              "writes": writes,
              "about": "rmat:%d, %d vertices, %d edges; open loop at %g "
                       "req/s, then %d ingests" % (
                           spec["scale"], gen["vertices"], gen["edges"],
                           spec["rate"], INGEST_BATCHES)}
    if trace:
        layers = serving_layers(work, res, records, gzg, gen["edges"],
                                sched_path)
        # The daemon's sessions run 2 threads each.
        layers["platform.gather_ns"] = gather_ns(gen, 2, seed)
        if layers["core.pull_ns_per_edge"]:
            layers["core.pull_gather_frac"] = (
                layers["platform.gather_ns"] / layers["core.pull_ns_per_edge"])
        result["layers"] = layers
    return result


def scrape(work, index):
    with open(os.path.join(work, "scrape-%d.txt" % index)) as f:
        return json.loads(f.read())


def serving_layers(work, res, records, gzg, num_edges, sched_path):
    # Scrapes: metrics and stats when the window opens, when its last
    # reply is in, and after the final phase (the ingests).
    name = "grazelle_request_stage_seconds"
    hists = [benchlib.parse_histograms(scrape(work, i)["exposition"], name)
             for i in (0, 2, 4)]
    before_s, after_s = scrape(work, 1), scrape(work, 3)

    def stage(stage_name, q, op=None, window=0):
        """Window q-quantile of one server stage in ms (q = None: the
        mean; window 1: the final phase); 0 when it saw too few samples."""
        def pick(h):
            return {k: v for k, v in h.items()
                    if ("stage=" + stage_name) in k and
                    (op is None or ("op=" + op + ",") in k)}
        h0, h1 = pick(hists[window]), pick(hists[window + 1])
        if q is None:
            v, _ = benchlib.window_mean(h0, h1)
        else:
            v, _ = benchlib.window_quantile(h0, h1, q)
        return v * 1e3 if v is not None else 0.0

    c0, c1 = before_s["counters"], after_s["counters"]
    batches = c1["batches"] - c0["batches"]
    batched = c1["batched_requests"] - c0["batched_requests"]
    reqs = [r for r in res["requests"] if r["phase"] == "m" and r["ok"]]

    def of(kind):
        return [r for r in reqs if r["kind"] == kind]

    writes = [r["latency_ms"] for r in res["requests"]
              if r["kind"] == "ingest" and r["ok"]]

    pr = of("pr")
    frontier = of("bfs") + of("cc")
    pull_ns = median([r["pull_s"] / (r["pull_iters"] * num_edges) * 1e9
                      for r in pr if r["pull_iters"]])
    layers = {
        "store.open_ms": median([r["open_s"] for r in records]) * 1e3,
        "graph.build_s": median([r["build_s"] for r in records]),
        "store.pack_s": median([r["pack_s"] for r in records]),
        "server.ready_ms": median([r["ready_s"] for r in records]) * 1e3,
        "core.pull_ns_per_edge": pull_ns,
        "core.vertex_s": median([r["vertex_s"] for r in pr]),
        "core.fold_s": median([r["fold_s"] for r in pr]),
        "threading.idle_frac": median([r["idle_s"] / (2 * r["pull_s"])
                                       for r in pr if r["pull_s"]]),
        "core.push_s.bfs": median([r["push_s"] for r in of("bfs")]),
        "core.push_s.cc": median([r["push_s"] for r in of("cc")]),
        "core.edges_touched.pr": median([r["edges"] for r in pr]),
        "core.edges_touched.cc": median([r["edges"] for r in of("cc")]),
        "core.edges_touched.bfs": median([r["edges"] / max(r["batched"], 1)
                                          for r in of("bfs")]),
        "autotune.direction_switches": statistics.mean(
            r["switches"] for r in frontier) if frontier else 0.0,
        "autotune.pull_iters": statistics.mean(
            r["pull_iters"] for r in frontier) if frontier else 0.0,
        "autotune.push_iters": statistics.mean(
            r["push_iters"] for r in frontier) if frontier else 0.0,
        "server.queue_wait_p50_ms": stage("queue_wait", 0.5),
        "server.queue_wait_p99_ms": stage("queue_wait", 0.99),
        "server.coalesce_wait_p50_ms": stage("coalesce_wait", 0.5, "bfs"),
        "server.execute_p50_ms.bfs": stage("execute", 0.5, "bfs"),
        "server.execute_p50_ms.cc": stage("execute", 0.5, "cc"),
        "server.execute_p50_ms.pr": stage("execute", 0.5, "pr"),
        "server.execute_mean_ms.ingest": stage("execute", None, "ingest", 1),
        "server.serialize_p99_ms": stage("reply_serialize", 0.99),
        "server.batch_size_mean": batched / batches if batches else 0.0,
        "apps.msbfs_edges_per_request":
            sum(r["edges"] / max(r["batched"], 1) for r in of("bfs")) /
            max(len(of("bfs")), 1),
        "server.overloaded": c1["rejected_overload"] - c0["rejected_overload"],
        "loadgen.late_max_ms": max(res["late_ms"]) if res["late_ms"] else 0.0,
    }
    if writes:
        layers["server.ingest_mean_ms"] = statistics.mean(writes)
        replay = run_tool([PERFBENCH, "replay-ingest", "--gzg", gzg,
                           "--work", os.path.join(work, "replay.gzg"),
                           "--schedule", sched_path], work)
        steps = {k: median(replay[k + "_s"])
                 for k in ("journal_append", "drain", "apply_delta",
                           "rebuild")}
        layers.update({
            "store.journal_append_ms": steps["journal_append"] * 1e3,
            "graph.drain_ms": steps["drain"] * 1e3,
            "graph.apply_delta_ms": steps["apply_delta"] * 1e3,
            "graph.rebuild_s": steps["rebuild"],
        })
        execute = layers["server.execute_mean_ms.ingest"]
        layers["graph.replay_over_execute"] = (
            sum(steps.values()) * 1e3 / execute if execute else 0.0)
    even = [r["latency_ms"] for i, r in enumerate(res["requests"])
            if r["phase"] == "m" and r["ok"] and i % 2 == 0]
    odd = [r["latency_ms"] for i, r in enumerate(res["requests"])
           if r["phase"] == "m" and r["ok"] and i % 2 == 1]
    layers["trace_overhead_frac"] = median(even) / median(odd) - 1.0
    return layers


# -- entry point ------------------------------------------------------------

def calibrate(work, seed, seconds):
    """Capacity probe behind LO_RPS: the serve mix on rmat:18 at
    a ladder of rates, one fresh daemon per rung. Prints one line per
    rung; the constants are fixed by hand from its output."""
    spec = dict(WORKLOADS["serve-rmat18"])
    for rate in (40, 60, 80, 100, 120, 140):
        spec["rate"] = rate
        spec["strict"] = False
        r = run_serving(work, seed, seconds, 0, spec)
        late = sorted(r["late_ms"])
        log("rate %4d req/s: bfs %7.1f ms  p99 %7.1f ms  failed %d of %d  "
            "late p99 %.2f max %.2f ms"
            % (rate, r["e2e"]["bfs_ms"], r["e2e"]["tail_ms"],
               r["failed_ops"], r["attempted"],
               late[int(0.99 * len(late))], late[-1]))
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))


def host_line():
    h = run_tool([PERFBENCH, "host"], ROOT)
    return ("host: %s, %d cores, LLC %.0f MiB, AVX2 %s, AVX-512F %s, "
            "pmu_available=%s%s" % (
                h["cpu_model"], h["logical_cores"], h["llc_bytes"] / 2**20,
                "yes" if h["avx2"] else "no",
                "yes" if h["avx512f"] else "no",
                str(h["pmu_available"]).lower(),
                "" if h["pmu_available"] else
                " (cycle figures are rdtsc estimates)"))


def report(workload, seed, trace, result):
    log("workload %s, seed %d: %s" % (workload, seed, result["about"]))
    tail_name = "p%g" % (result["tail_q"] * 100)
    if "late_ms" in result:
        late = result["late_ms"]
        log("  generator lateness: max %.3f ms, p99 %.3f ms (n=%d)"
            % (max(late), benchlib.percentile(late, 0.99)[0], len(late)))
    if result.get("writes"):
        log("  ingest latency: mean %.1f ms (n=%d)"
            % (statistics.mean(result["writes"]), len(result["writes"])))
    metrics = {}
    if not trace:
        for name, unit in END_TO_END:
            value = result["e2e"][name]
            note = "interquartile mean" if name in PER_OP else "median"
            if name == "setup_s":
                note = "median of %d set-ups" % result["counts"][name]
            elif name == "tail_ms":
                note = tail_name
            elif name == "peak_rss_mb":
                note = "one process"
            if name not in ("setup_s", "peak_rss_mb"):
                note += ", n=%d" % result["counts"][name]
            log("  %-14s %12.4f %-5s (%s)" % (name, value, unit, note))
            metrics[name] = {"value": value, "unit": unit}
    else:
        layers = result["layers"]
        for name, unit, moves in PER_LAYER:
            value = float(layers.get(name, 0.0))
            log("  %-30s %14.6g %-5s -> %s" % (name, value, unit, moves))
            metrics[name] = {"value": value, "unit": unit}
    for err in result["errors"]:
        log("  check failed: %s" % err)
    failed = len(result["errors"]) + result.get("failed_ops", 0)
    out = {"correct": not result["errors"],
           "attempted": result["attempted"], "failed": failed,
           "metrics": metrics}
    print(json.dumps(out), flush=True)
    return out["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["calibrate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Turn SIGTERM into an exception so the cleanup below always runs.
    def on_term(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)

    work = None
    try:
        build()
        log(host_line())
        os.makedirs(WORK, exist_ok=True)
        work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
        os.makedirs(work)
        if args.workload == "calibrate":
            calibrate(work, args.seed, args.seconds)
            return 0
        spec = WORKLOADS[args.workload]
        runner = run_batch if spec["kind"] == "batch" else run_serving
        result = runner(work, args.seed, args.seconds, args.trace, spec)
        return 0 if report(args.workload, args.seed, args.trace, result) else 1
    except (Invalid, subprocess.TimeoutExpired) as e:
        print("perfbench: run invalid: %s" % e, file=sys.stderr, flush=True)
        return 2
    finally:
        for daemon in list(Daemon.LIVE):
            daemon.stop()
        if work is not None:
            # A traced run's spans outlive its work directory.
            spans = os.path.join(work, "spans.jsonl")
            if args.trace and os.path.exists(spans):
                os.replace(spans, os.path.join(
                    WORK, "spans-%s.jsonl" % args.workload))
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
