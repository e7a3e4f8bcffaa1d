#!/usr/bin/env python3
"""The repository benchmark: dnscupd / dnscached under seeded load.

Run from the repository root:

    python3 cupbench/run.py --workload auth_query --seed 1 --seconds 20 --trace 0

It builds the shipped daemons and the benchmark's own binaries (Release)
into .bench_build/, starts the daemons as child processes on loopback,
drives them with cupbench_load (an open-loop generator that checks every
answer) and prints every metric by name and unit.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the daemons run a shorter fixed-rate phase (for the scraped
per-layer counters and the CPU cost the ledger is checked against) and
cupbench_trace replays the same seeded inputs through each module's public
functions, recording spans, to give the per-layer metrics.

Workloads (why each exists):

  auth_query    clients query a 2-worker dnscupd directly (workers pinned
                to two CPUs, the generator on the other two): 100k A names,
                Zipf(1.0), 20% lease-requesting EXT queries, 256 source
                ports.  No updates; planner, state dir and push plane off.
                Nearly all work is the per-query path net -> runtime ->
                dns -> server -> core grant.
  cache_read    clients query one dnscached (1 worker, mmap cache store,
                capacity 10000 below the 100k names, push plane on) in
                front of a 1-worker dnscupd; plain queries, Zipf(1.0).
                Exercises the cache hit path, the store's per-put/touch
                mirroring, and real refetches on misses and evictions.
                The warm-up puts the 6000 most popular names in the
                cache, so about 90% of the timed queries hit: the median
                is a hit's latency, not the boundary between hits and
                misses (with 1000 warm names about 60% hit, and the
                median moved by a quarter between runs).  The latency
                and serving phases stay below the capacity; the ladder
                fills the cache and so meets the eviction scan.
  update_churn  one dnscupd (1 worker, WAL state dir, storage-mode planner,
                push plane) serving two dnscached (1 worker each, push
                subscribers).  Reads of a 1000-name hot set through both
                caches beside RFC 2136 UPDATEs of Zipf-chosen hot names;
                each UPDATE is probed back-to-back at both caches until
                both serve the new address (one probe per cache every
                50 us for 5 ms, then every 1 ms, so a slow convergence
                does not flood the caches the reads are measured on).  The authority runs 1 worker: at
                --workers 2 an acked UPDATE changes only the zone copy
                of the shard that received it (a known defect), so this
                workload makes no claim about multi-worker update
                consistency.

Every run sets the deployment up seven times.  setup_s is the median over
the set-ups of the time from launching the daemons until they listen,
plus the closed-loop warm-up queries (the generator's own start-up is not
counted).  Five deployments each serve a fifth of the latency phase at
the workload's low fixed rate: query_p50_us is the median over them of
the per-window median; query_p99_us the 10th percentile, over every
window of the run (250 ms, so each holds 1250 answers or more), of the
per-window p99 (printed and traced, not gated; see
run()).  The sixth deployment serves a serving phase at about half the
capacity the ladder finds on a 4-vCPU host (cpu_rate):
server_cpu_us_per_query is the daemons' CPU per answer there, where
per-query work and not per-packet wake-ups dominates.  The seventh runs
the rate ladder for query_qps_at_slo.  The SLO (p99 under 20 ms, median over
the step's windows) sits above the daemons' periodic multi-ms stalls, so
the ladder finds where queueing collapses.  Where the ladder reaches its
cap or the generator's own ceiling, query_qps_at_slo is a lower bound and
the output says so.

Host speed.  On a shared 4-vCPU VM the speed of the CPUs changed by up
to 1.5x for minutes at a time, moving every timing together.  So each
run also times cupbench_calib, a fixed chain of work that is the
benchmark's own code, on the four CPUs (between deployments, median of
all probes), and reports every timing at the reference speed
CALIB_REF_NS: times are multiplied, and query_qps_at_slo divided, by
CALIB_REF_NS / measured.  Raw figures and the factor are printed too.

Findings this benchmark exposes at the time it was written, which shape
the workloads' rates: ResolverCache eviction looks for an unleased entry
from the LRU end and, when every entry holds a valid lease, walks the
whole list (O(capacity) per miss), so cache_read's latency and serving
phases stay below the capacity and its ladder collapses once the cache
is full; every RFC 2136 UPDATE copies and diffs the whole zone (~0.3 s
on 100k names), so update_churn sends 1 UPDATE/s.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build", "cupbench")
OUT = os.path.join(REPO, ".bench_out")
TARGETS = ["dnscupd", "dnscached", "cupbench_load", "cupbench_trace", "cupbench_calib"]

NAMES = 100_000  # workload.h kNames
ORIGIN = "bench.test"
TTL = 3600
SETUPS = 5
SERVE_S = 3.0  # serving phase for server_cpu_us_per_query
# cupbench_calib ns per step on the reference host (4-vCPU x86-64 VM).
CALIB_REF_NS = 11.0

# Per-workload deployment and traffic.  The latency rates sit far below
# each deployment's capacity, where the per-window latency tail is least
# disturbed by queueing, but give each serving thread at least 5000 q/s:
# at 2000-2500 q/s per thread the threads sleep deeply between queries
# and the median followed the shared host's wake-up latency, rising by
# half and spreading two to three times as wide.  Windows hold at least
# 1000 answers, so each p99 has ten samples beyond it.  cpu_rate is about half the ladder's result
# on a 4-vCPU host.  The ladder searches upward from ladder_start.
WORKLOADS = {
    "auth_query": dict(caches=0, auth_workers=2, threads=2, ext_fraction=0.2, hot=0,
                       warm=2000, rate=10000, window_s=0.25, cpu_rate=40000,
                       update_rate=0, ladder_start=40000, max_rate=400000),
    "cache_read": dict(caches=1, auth_workers=1, threads=2, ext_fraction=0.0, hot=0,
                       warm=6000, rate=5000, window_s=0.25, cpu_rate=4500,
                       update_rate=0, ladder_start=6000, max_rate=300000, capacity=10000),
    "update_churn": dict(caches=2, auth_workers=1, threads=1, ext_fraction=0.0, hot=1000,
                         warm=1000, rate=10000, window_s=0.25, cpu_rate=40000,
                         update_rate=1, ladder_start=40000, max_rate=100000),
}

def log(msg):
    print(msg, file=sys.stderr, flush=True)


LIVE = []  # daemons started and not yet stopped


def stop_all():
    while LIVE:
        LIVE[-1].stop()


def fail(msg, code=1):
    log(f"cupbench: {msg}")
    stop_all()
    sys.exit(code)


# ------------------------------------------------------------------ build

def build():
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))
            and os.path.isdir(os.path.join(REPO, "tools"))):
        fail("no repository sources next to the benchmark; nothing to build", 2)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(build_log, "w") as f:
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                with open(build_log) as g:
                    log(g.read()[-4000:])
                fail("build failed")
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail(f"refusing to measure a {build_type or 'default'} build; need Release")
    return build_type


def binary(name):
    for sub in ("", "repo/tools"):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path):
            return path
    fail(f"missing binary {name}")


# ------------------------------------------------------------------ inputs

def mix64(x):
    m = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & m
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m
    return x ^ (x >> 31)


def write_zone(path, seed):
    """Same naming and address rule as workload.h (zone_address)."""
    salt = mix64(seed ^ 0xA5A5) & 0xFFFFFF
    lines = [f"$ORIGIN {ORIGIN}.",
             f"@ IN SOA ns1.{ORIGIN}. admin.{ORIGIN}. 1 7200 900 604800 300",
             f"@ {TTL} IN NS ns1.{ORIGIN}.",
             f"ns1 {TTL} IN A 192.0.2.1"]
    for i in range(NAMES):
        v = (i * 2654435761 + salt) & 0xFFFFFF
        lines.append(f"n{i} {TTL} IN A 10.{v >> 16}.{(v >> 8) & 255}.{v & 255}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# ------------------------------------------------------------------ daemons

class Daemon:
    def __init__(self, name, argv, cpus, log_path, metrics_path):
        self.name = name
        self.log_path = log_path
        self.metrics_path = metrics_path
        self.log_file = open(log_path, "w")
        self.proc = subprocess.Popen(
            argv, stdout=self.log_file, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        LIVE.append(self)

    def output(self):
        with open(self.log_path) as f:
            return f.read()

    def wait_for(self, pattern, deadline):
        while time.monotonic() < deadline:
            m = re.search(pattern, self.output())
            if m:
                return m
            if self.proc.poll() is not None:
                break
            time.sleep(0.001)
        fail(f"{self.name} did not print /{pattern}/:\n{self.output()[-2000:]}")

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self in LIVE:
            LIVE.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log_file.close()

    def metrics(self):
        try:
            with open(self.metrics_path) as f:
                return json.load(f)["metrics"]
        except (OSError, ValueError, KeyError):
            return []


def counter(snapshot, name, **labels):
    total = 0.0
    for e in snapshot:
        if e.get("name") != name:
            continue
        if any(e.get("labels", {}).get(k) != v for k, v in labels.items()):
            continue
        total += float(e.get("value", 0))
    return total


def histogram(snapshot, name):
    count, total = 0, 0.0
    for e in snapshot:
        if e.get("name") == name and "count" in e:
            count += int(e.get("count", 0))
            total += float(e.get("sum", 0))
    return count, total


class Deployment:
    """One set of daemons for a workload, started and listening."""

    def __init__(self, workload, cfg, cpus, zone, run_dir, tag):
        self.daemons = []
        self.cache_dirs = []
        deadline = time.monotonic() + 60
        self.auth_port = free_port()
        metrics = os.path.join(run_dir, f"{tag}-auth-metrics.json")
        argv = [binary("dnscupd"), "--port", str(self.auth_port),
                "--zone", f"{ORIGIN}={zone}", "--workers", str(cfg["auth_workers"]),
                "--metrics-out", metrics, "--metrics-interval", "3600"]
        if len(cpus["auth"]) == cfg["auth_workers"] > 1:
            argv += ["--pin-cpus", ",".join(map(str, cpus["auth"]))]
        if cfg["caches"] > 0:
            argv += ["--push-listen", "0"]
        if workload == "update_churn":
            state = os.path.join(run_dir, f"{tag}-state")
            os.makedirs(state)
            argv += ["--state-dir", state, "--lease-storage-budget", "10000"]
        auth = Daemon("dnscupd", argv, set(cpus["auth"]),
                      os.path.join(run_dir, f"{tag}-auth.log"), metrics)
        self.daemons.append(auth)
        self.io = {"dnscupd": auth.wait_for(r"dnscupd listening on .*io=(\w+)",
                                            deadline).group(1)}
        if cfg["caches"] == 0:
            self.frontends = [f"127.0.0.1:{self.auth_port}"]
            return
        push = auth.wait_for(r"push plane listening on (\S+) \(TCP\)", deadline).group(1)
        self.frontends = []
        for c in range(cfg["caches"]):
            port = free_port()
            metrics = os.path.join(run_dir, f"{tag}-cache{c}-metrics.json")
            argv = [binary("dnscached"), "--port", str(port),
                    "--upstream", f"127.0.0.1:{self.auth_port}", "--workers", "1",
                    "--push-authority", push,
                    "--metrics-out", metrics, "--metrics-interval", "3600"]
            if workload == "cache_read":
                cache_dir = os.path.join(run_dir, f"{tag}-cache{c}")
                os.makedirs(cache_dir)
                self.cache_dirs.append(cache_dir)
                argv += ["--cache-dir", cache_dir, "--cache-capacity", str(cfg["capacity"])]
            self.daemons.append(Daemon(f"dnscached{c}", argv, set(cpus["caches"][c]),
                                       os.path.join(run_dir, f"{tag}-cache{c}.log"),
                                       metrics))
            self.frontends.append(f"127.0.0.1:{port}")
        for d in self.daemons[1:]:
            self.io[d.name] = d.wait_for(r"dnscached listening on .*io=(\w+)",
                                         deadline).group(1)

    def pids(self):
        return [d.proc.pid for d in self.daemons]

    def stop(self):
        for d in reversed(self.daemons):
            d.stop()
        for path in self.cache_dirs:  # the mmap store files are large
            shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------------ run

def cpu_layout(workload):
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        # Fewer CPUs than the layout wants: share them (recorded in the
        # fingerprint; numbers from such a host are not comparable).
        cpus = (cpus * 4)[:4]
    if workload == "auth_query":
        return {"auth": cpus[0:2], "caches": [], "gen": cpus[2:4]}
    if workload == "cache_read":
        return {"auth": cpus[1:2], "caches": [cpus[0:1]], "gen": cpus[2:4]}
    return {"auth": cpus[0:1], "caches": [cpus[1:2], cpus[2:3]], "gen": cpus[3:4]}


def load_args(cfg, seed, frontends, auth_port, cpus):
    return [binary("cupbench_load"), "--seed", str(seed),
            "--frontends", ",".join(frontends),
            "--authority", f"127.0.0.1:{auth_port}",
            "--hot", str(cfg["hot"]), "--ext-fraction", str(cfg["ext_fraction"]),
            "--threads", str(cfg["threads"]),
            "--cpus", ",".join(map(str, cpus["gen"])), "--warm", str(cfg["warm"]),
            "--max-rate", str(cfg["max_rate"]), "--ladder-start", str(cfg["ladder_start"])]


def run_load(argv, out_path, timeout):
    argv = argv + ["--out", out_path]
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        fail(f"load generator failed: {r.stderr[-2000:]}")
    with open(out_path) as f:
        return json.load(f)


def fingerprint(build_type, io, layout):
    sha = "unknown"
    try:
        r = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "cupbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(REPO, top))):
            dirnames.sort()
            for fn in sorted(filenames):
                with open(os.path.join(dirpath, fn), "rb") as f:
                    digest.update(fn.encode() + f.read())
    return {
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_layout": layout,
        "kernel": platform.release(),
        "io_backend": io,
        "build_type": build_type,
        "git_sha": sha,
        "source_digest": digest.hexdigest()[:16],
    }


def probe_speed(cpus):
    """cupbench_calib's ns per step on every CPU of the layout."""
    every = sorted({c for group in (cpus["auth"], cpus["gen"], *cpus["caches"]) for c in group})
    r = subprocess.run([binary("cupbench_calib"), "--cpus", ",".join(map(str, every))],
                       capture_output=True, text=True, timeout=60)
    if r.returncode != 0:
        fail(f"host speed probe failed: {r.stderr[-2000:]}")
    return float(r.stdout.split()[-1])


def run(args):
    build_type = build()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    selftest = subprocess.run([binary("cupbench_load"), "--self-test"],
                              capture_output=True, text=True)
    log(selftest.stdout.rstrip())
    if selftest.returncode != 0:
        fail("answer checker self-test failed")

    workload = args.workload
    cfg = WORKLOADS[workload]
    cpus = cpu_layout(workload)
    run_dir = os.path.join(OUT, f"{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    zone = os.path.join(run_dir, "zone.txt")
    write_zone(zone, args.seed)

    # Set-up is timed from launching the daemons until they listen, plus
    # the warm-up queries as the generator times them.  The host speed is
    # probed before each deployment, while nothing else runs.
    probes = []

    def deploy(tag):
        probes.append(probe_speed(cpus))
        t0 = time.monotonic()
        dep = Deployment(workload, cfg, cpus, zone, run_dir, tag)
        listen_s = time.monotonic() - t0
        warm = run_load(load_args(cfg, args.seed, dep.frontends, dep.auth_port, cpus)
                        + ["--warm-only"], os.path.join(run_dir, f"warm-{tag}.json"), 120)
        if warm["warm_failures"]:
            fail(f"{warm['warm_failures']} warm-up queries failed")
        return dep, listen_s + warm["warm_s"]

    def phase(dep, rate, fixed_s, ladder_s, tag):
        return run_load(load_args(cfg, args.seed, dep.frontends, dep.auth_port, cpus) + [
            "--warm", "0", "--rate", str(rate), "--window-seconds", str(cfg["window_s"]),
            "--fixed-seconds", f"{fixed_s:.3f}", "--ladder-seconds", str(ladder_s),
            "--update-rate", str(cfg["update_rate"]),
            "--pids", ",".join(map(str, dep.pids()))],
            os.path.join(run_dir, f"{tag}.json"), 150)

    def finish(dep, res):
        res["rss_kb"] = sum(d.peak_rss_kb() for d in dep.daemons)
        dep.stop()
        res["auth"] = dep.daemons[0].metrics()
        res["caches"] = [d.metrics() for d in dep.daemons[1:]]
        return res

    # The latency phase is spread over SETUPS deployments, as the latency
    # tail moves between deployments of the same code.  The serving phase
    # and the ladder get a deployment each: neither then depends on the
    # state another phase left (cache_read's cache fills up as it runs).
    # --trace 1 runs one shorter latency phase and the serving phase: they
    # feed the scraped per-layer counters and the ledger.
    n_lat = 1 if args.trace else SETUPS
    lat_s = max(1.0, args.seconds * (0.3 if args.trace else 0.4))
    ladder_s = 0 if args.trace else max(0, round(args.seconds - lat_s - SERVE_S))
    setups, phases = [], []
    for k in range(n_lat):
        dep, setup_s = deploy(f"s{k}")
        setups.append(setup_s)
        phases.append(finish(dep, phase(dep, cfg["rate"], lat_s / n_lat, 0, f"latency-s{k}")))
    dep, setup_s = deploy("serve")
    setups.append(setup_s)
    serve = finish(dep, phase(dep, cfg["cpu_rate"], SERVE_S, 0, "serve"))
    ladder = {"steps": [], "query_qps_at_slo": None, "generator_limited": False,
              "ladder_sent": 0, "wrong": 0, "stale": 0}
    if ladder_s > 0:
        lad_dep, setup_s = deploy("ladder")
        setups.append(setup_s)
        ladder = phase(lad_dep, cfg["rate"], 0, ladder_s, "ladder")
        lad_dep.stop()
    probes.append(probe_speed(cpus))

    def total(key):
        return sum(p[key] for p in phases) + serve[key]

    # The warm-up counts: each warm name is a cold miss at every cache.
    # Without it update_churn would read 0, as pushes leave its hot set
    # nothing to refetch.
    def upstream_per_kquery(p):
        if p["caches"]:
            client = sum(counter(c, "resolver_queries", side="client") for c in p["caches"])
            upstream = sum(counter(c, "resolver_queries", side="upstream") for c in p["caches"])
        else:
            client = p["answered"] + cfg["warm"]
            upstream = counter(p["auth"], "auth_server_requests", op="query")
        return 1000.0 * upstream / client if client else 0.0

    answered = total("answered")
    updates = sum(p["updates_sent"] for p in phases)
    converge = sorted(x for p in phases for x in p["converge_us"])
    cache_update_msgs = sum(counter(p["auth"], "cache_update_messages", result=r)
                            for p in phases for r in ("sent", "retransmit"))
    cache_update_msgs += sum(counter(p["auth"], "push_frames", dir="tx") for p in phases)
    wrong, stale = total("wrong") + ladder["wrong"], total("stale") + ladder["stale"]
    failed = (total("lost") + wrong + stale + total("updates_failed")
              + total("updates_unconverged"))
    attempted = total("sent") + ladder["ladder_sent"] + total("updates_sent")

    # p99 is taken per window, and the run's p99 is the 10th percentile
    # over all windows of all deployments.  Host interference and the
    # daemons' periodic whole-table walks land in a varying share of the
    # windows and only add latency, so this is the tail of the query path
    # itself.  It is printed by every run and reported by the traced run
    # but not gated: in minutes-long slow periods of a shared host it
    # rises many-fold (p50 far less), beyond any bound a gate may use.
    windows = sorted(w for p in phases for w in p["window_p99_us"])
    quiet_p99 = windows[len(windows) // 10] if windows else 0.0

    calib_ns = statistics.median(probes)
    slowdown = calib_ns / CALIB_REF_NS  # > 1: this host ran slower than the reference
    raw = {
        "setup_s": statistics.median(setups),
        "query_p50_us": statistics.median(p["query_p50_us"] for p in phases),
        "query_qps_at_slo": ladder["query_qps_at_slo"],
        "server_cpu_us_per_query": serve["server_cpu_us_per_query"],
        "server_peak_rss_mb": statistics.median(p["rss_kb"] for p in phases) / 1024.0,
        "upstream_per_kquery": statistics.median(upstream_per_kquery(p) for p in phases),
    }
    e2e = dict(raw)
    for k in ("setup_s", "query_p50_us", "server_cpu_us_per_query"):
        e2e[k] = raw[k] / slowdown
    if raw["query_qps_at_slo"] is not None:
        e2e["query_qps_at_slo"] = raw["query_qps_at_slo"] * slowdown

    def quantile(values, q):
        return values[min(len(values) - 1, int(q * len(values)))] if values else None

    extra = {
        "query_p99_us": quiet_p99 / slowdown,
        "query_tail_ratio": quiet_p99 / raw["query_p50_us"],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "update_converge_p50_us": quantile(converge, 0.5),
        "update_converge_p99_us": quantile(converge, 0.99),
        "update_msgs_per_change": cache_update_msgs / updates if updates else None,
    }
    for k in ("update_converge_p50_us", "update_converge_p99_us"):
        if extra[k] is not None:
            extra[k] /= slowdown

    fp = fingerprint(build_type, dep.io, cpus)
    print(f"host: {json.dumps(fp)}")
    print(f"workload {workload} seed {args.seed}: {cfg}")
    print(f"host speed: cupbench_calib {calib_ns:.3f} ns/step (probes "
          f"{[round(p, 3) for p in probes]}), reference {CALIB_REF_NS} ns/step; "
          f"timings below are raw, metric lines are at the reference speed")
    print(f"setups (s): {[round(s, 3) for s in setups]}")
    for k, p in enumerate(phases):
        print(f"latency phase on deployment {k}: {p['answered']}/{p['sent']} answered at "
              f"{cfg['rate']} q/s over {lat_s / n_lat:.2f}s, {p['windows']} windows; "
              f"lost {p['lost']} wrong {p['wrong']} stale {p['stale']}; "
              f"p50/p99 {p['query_p50_us']:.1f}/{p['query_p99_us']:.1f} us "
              f"(pooled p99.9 {p['pooled_p999_us']:.1f} us); generator lateness "
              f"p99 {p['late_p99_us']:.1f} us max {p['late_max_us']:.1f} us; "
              f"daemon CPU {p['server_cpu_us_per_query']:.1f} us/query")
    print(f"serving phase: {serve['answered']}/{serve['sent']} answered at "
          f"{cfg['cpu_rate']} q/s over {SERVE_S:.1f}s; lost {serve['lost']} "
          f"wrong {serve['wrong']} stale {serve['stale']}; p50 {serve['pooled_p50_us']:.1f} us; "
          f"generator lateness p99 {serve['late_p99_us']:.1f} us; "
          f"daemon CPU {serve['server_cpu_us_per_query']:.2f} us/query")
    steps = ladder["steps"]
    for s in steps:
        print(f"ladder step: offered {s['offered']:.0f} answered "
              f"{s['answered_rate']:.0f}/s p99 {s['p99_us']:.1f} us "
              f"late p99 {s['late_p99_us']:.1f} us loss {s['loss']:.5f} "
              f"{'pass' if s['pass'] else 'FAIL' if s['valid'] else 'INVALID'} {s['why']}")
    if ladder["generator_limited"] or (steps and steps[-1]["offered"] >= cfg["max_rate"]):
        print("ladder: reached the generator's ceiling or the rate cap; "
              "query_qps_at_slo is a lower bound")
    if updates:
        print(f"updates in the latency phase: {updates} sent, {len(converge)} converged at "
              f"every frontend, {sum(p['updates_failed'] for p in phases)} failed, "
              f"{sum(p['updates_unconverged'] for p in phases)} never converged; "
              f"{cache_update_msgs:.0f} CACHE-UPDATE datagrams + push frames + retransmits")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(query_p99_us="us", query_tail_ratio="ratio", fail_ratio="ratio",
                 update_converge_p50_us="us", update_converge_p99_us="us",
                 update_msgs_per_change="count")
    for k, v in {**e2e, **extra}.items():
        if v is None:
            print(f"metric {k} = n/a (no updates in this workload, or no ladder in a traced run)")
        else:
            print(f"metric {k} = {v:.6g} {units[k]}"
                  + (f" (raw {raw[k]:.6g})" if k in raw and raw[k] != v else ""))

    metrics = {}
    if args.trace:
        metrics = trace_metrics(args, cfg, serve, extra, run_dir, spec)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0 and answered > 0,
                      "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))


def trace_metrics(args, cfg, res, extra, run_dir, spec):
    """Per-layer metrics: the traced replay plus the daemons' scrape."""
    spans = os.path.join(run_dir, "spans.jsonl")
    argv = [binary("cupbench_trace"), "--workload", args.workload,
            "--seed", str(args.seed), "--hot", str(cfg["hot"]), "--ext-fraction", str(cfg["ext_fraction"]),
            "--capacity", str(cfg.get("capacity", 0)),
            "--work-dir", run_dir, "--spans-out", spans]
    r = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        fail(f"traced replay failed: {r.stderr[-2000:]}")
    layers = json.loads(r.stdout.strip().splitlines()[-1])
    log(r.stderr.rstrip())

    auth, caches = res["auth"], res["caches"]
    updates = res["updates_sent"]
    frontend = caches[0] if caches else auth  # the daemon clients talk to
    rx_n, rx_sum = histogram(frontend, "udp_rx_batch_size")
    tx_n, tx_sum = histogram(frontend, "udp_tx_batch_size")
    ack_n, ack_sum = histogram(auth, "cache_update_ack_latency_us")
    misses = sum(counter(c, "resolver_cache_lookups", result="miss") for c in caches)
    upstream = sum(counter(c, "resolver_queries", side="upstream") for c in caches)
    observed = counter(auth, "planner_observations")
    dropped = counter(auth, "planner_observations_dropped")
    frames = counter(auth, "push_frames", dir="tx")
    coalesced = counter(auth, "push_coalesced_total")
    scraped = {
        "net.rx_batch_size": rx_sum / rx_n if rx_n else 0.0,
        "net.tx_batch_size": tx_sum / tx_n if tx_n else 0.0,
        "runtime.inbox_dropped": counter(auth, "runtime_inbox_dropped"),
        "cachert.inbox_dropped": sum(counter(c, "cachert_inbox_dropped") for c in caches),
        "cachert.upstream_per_miss": upstream / misses if misses else 0.0,
        "core.retransmits_per_change":
            counter(auth, "cache_update_messages", result="retransmit") / updates if updates else 0.0,
        "core.ack_latency_us": ack_sum / ack_n if ack_n else 0.0,
        "push.frames_per_change": frames / updates if updates else 0.0,
        "push.coalesced_ratio": coalesced / (frames + coalesced) if frames + coalesced else 0.0,
        "planner.observations_dropped_ratio": dropped / observed if observed else 0.0,
        "e2e.fail_ratio": extra["fail_ratio"],
        "e2e.query_p99_us": extra["query_p99_us"],
        "e2e.query_tail_ratio": extra["query_tail_ratio"],
        "e2e.update_converge_p50_us": extra["update_converge_p50_us"] or 0.0,
        "e2e.update_converge_p99_us": extra["update_converge_p99_us"] or 0.0,
        "e2e.update_msgs_per_change": extra["update_msgs_per_change"] or 0.0,
    }
    values = {**layers, **scraped}
    # Ledger (auth_query): daemon CPU per answered query in the serving
    # phase (raw, as the replay's self times are) against the sum of the
    # per-query layer self times of the replay.
    cpu_ns = res["server_cpu_us_per_query"] * 1000.0
    rows = {k[len("ledger.self."):]: v for k, v in layers.items()
            if k.startswith("ledger.self.")}
    total = sum(rows.values())
    values["ledger.unaccounted_ns"] = cpu_ns - total if args.workload == "auth_query" else 0.0
    if args.workload == "auth_query":
        print("ledger (ns per query, replay self times vs daemon CPU):")
        for k, v in rows.items():
            print(f"  {k:<28} {v:10.1f}")
        print(f"  {'sum of layers':<28} {total:10.1f}")
        print(f"  {'server_cpu_us_per_query':<28} {cpu_ns:10.1f}")
        print(f"  {'ledger.unaccounted_ns':<28} {cpu_ns - total:10.1f}")
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name not in values:
            fail(f"per-layer metric {name} was not produced")
        metrics[name] = {"value": float(values[name]), "unit": m["unit"]}
        print(f"metric {name} = {float(values[name]):.6g} {m['unit']}")
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # A terminated run still stops its daemons (via the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        run(args)
    finally:
        stop_all()


if __name__ == "__main__":
    main()
