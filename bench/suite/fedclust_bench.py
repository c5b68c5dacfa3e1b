#!/usr/bin/env python3
"""The FedClust simulator's benchmark (standard library only).

Five federated-learning campaigns run as closed loops of the shipped,
unmodified binaries (fedclust_sim, or fedclust_server plus two
fedclust_worker processes). Every end-to-end metric is measured from
outside the processes, every campaign's outputs are checked, and a
separate traced run adds per-layer numbers from layer_probe. Metric names,
units, directions and regression bounds live in BENCHMARK.json at the
repository root; README.md in this directory explains each of them.

  fedclust_bench.py --workload W --seed S --seconds T --trace 0|1
      One run of one workload. --trace 0 repeats its campaign (at least
      twice) for about T seconds and reports the end-to-end metrics;
      --trace 1 runs the traced campaigns and layer_probe and reports the
      per-layer metrics. The last stdout line is one JSON object.
  fedclust_bench.py [--reps 5] [--seed 1] [--out FILE]
      One set: --reps runs of every workload, interleaved A B C D E,
      A B C D E, ...; writes a result JSON for --compare.
  fedclust_bench.py --traced        traced run of every workload
  fedclust_bench.py --smoke         one small campaign of every workload
                                    and one traced workload; asserts every
                                    BENCHMARK.json metric and check
  fedclust_bench.py --compare PARENT.json CHANGE.json

The binaries are built by the repository's own top-level CMakeLists.txt,
with this directory attached (attach.cmake), into <build>/bench_suite/cmake
(Release) unless --bin names a directory that already holds them. Campaign
outputs go under <build>/bench_suite/runs.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
from statistics import median
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Timed campaigns run the sequential path on one CPU at a time: in-process
# at one pool thread, the socket campaign as a one-thread server and two
# one-thread workers sharing that CPU. On this shared host a parallel round
# waits for whichever of its CPUs another tenant slows, so two-CPU
# campaigns varied 6-15% across seeds even at their fastest repeat
# (README.md, "Statistics").
THREADS = 1
SOCKET_WORKERS = 2
MIN_CAMPAIGNS = 2      # repeats in one run, whatever --seconds says
CAMPAIGN_TIMEOUT_S = 150.0
ROTATE_S = 0.5         # set-up seconds between two moves of a campaign
TRACE_ROUNDS = 5       # rounds of each traced campaign
TRACE_REPEATS = 2      # traced campaigns with observability off, and on
REPLAY_ROUNDS = 5      # rounds layer_probe replays
SMOKE_ROUNDS = 3
SMOKE_SCALE = 10       # --smoke divides every population by this
SMOKE_TRACED = "fedclust_paper"
BINARIES = ("fedclust_sim", "fedclust_server", "fedclust_worker",
            "layer_probe")
OBS_ENV = ("FEDCLUST_TRACE", "FEDCLUST_METRICS", "FEDCLUST_JOURNAL")

# Reported by the set mode and gated by --compare, but not in
# BENCHMARK.json, whose metrics must exist on every workload and vary
# little across seeds (README.md, "Metrics outside BENCHMARK.json").
ACC_TOLERANCE = 0.005  # final_acc: absolute
POOLED_BOUND = 0.10    # round_s_p50/p90: share of the parent's value
P90_MIN_SAMPLES = 100  # so that at least ten rounds lie beyond the p90

PAPER_FLAGS = ("--method=FedClust", "--dataset=cifar10", "--partition=skew",
               "--skew=0.2", "--clients=100", "--train=50", "--test=20",
               "--rounds=13", "--sample=0.1")

# name -> campaign definition. A 22 s run repeats a FedClust campaign
# (6-10 s, mostly set-up) two or three times and a FedAvg one (3-4 s)
# four to seven times; every workload gives a run 24-80 rounds, each
# under 0.4 s, to take the fastest of. `floor` is the final accuracy
# every seed must clear, set below every seed tried. `clusters` is the
# cluster count the campaign must end with. Why each workload exists is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fedclust_paper": {
        "flags": PAPER_FLAGS,
        "floor": 0.08,
    },
    "resnet9_fedavg": {
        "flags": ("--method=FedAvg", "--dataset=cifar100", "--clients=20",
                  "--train=50", "--test=20", "--rounds=10", "--sample=0.2"),
        "floor": 0.02,
    },
    "million_fedavg": {
        "flags": ("--method=FedAvg", "--clients=1000000", "--train=1",
                  "--test=1", "--virtual-clients=1", "--sample=0.0005",
                  "--eval-clients=100", "--rounds=8", "--codec=qint8",
                  "--fault-spec=crash=0.05,comm=0.1,retries=2"),
        "floor": 0.02,
    },
    "landmark_setup": {
        "flags": ("--method=FedClust", "--dataset=fmnist", "--clients=2700",
                  "--train=5", "--test=5", "--label-pool=4",
                  "--virtual-clients=1", "--client-cache=256",
                  "--landmarks=256", "--k=4", "--sample=0.01",
                  "--eval-clients=200", "--rounds=40"),
        "floor": 0.50, "clusters": 4,
    },
    "socket_fedclust": {
        "flags": PAPER_FLAGS,
        "socket": True, "twin": "fedclust_paper",
        "floor": 0.08,
    },
}

# `round r acc=…% clusters=… comm=…Mb Xs`, X = the round's own timing.
PROGRESS_RX = re.compile(r"\] round (\d+) acc=.* ([\d.]+)s\s*$")
WIRE_RX = re.compile(r"^wire codec \S+: payload \d+ B, wire (\d+) B")
ISA_RX = re.compile(r"^simd kernels: isa=(\S+)")
CRC_RX = re.compile(r"^state crc32c=([0-9A-F]{8})$")


class BenchError(Exception):
    """Set-up failure: the benchmark cannot run here at all."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- statistics -----------------------------------------------------------

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def p90(xs):
    return statistics.quantiles(xs, n=10)[8]


# ---- build and environment -----------------------------------------------

def load_benchmark():
    try:
        with open(BENCHMARK_JSON) as f:
            return json.load(f)
    except OSError as e:
        raise BenchError(f"cannot read {BENCHMARK_JSON}: {e}")


def cmake_cache(tree):
    out = {}
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    out[m.group(1)] = m.group(2)
    except OSError:
        pass
    return out


def build(build_root):
    """Configures the repository's top-level project, with this directory
    attached (attach.cmake), into the benchmark's own Release tree and
    builds the benchmark's binaries; returns the directory holding them."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    tree = os.path.join(build_root, "bench_suite", "cmake")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(build_root, "bench_suite", "build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", tree,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_PROJECT_fedclust_INCLUDE="
                          + os.path.join(HERE, "attach.cmake")])
        steps.append(["cmake", "--build", tree, "-j",
                      str(min(4, os.cpu_count() or 1)), "--target",
                      *BINARIES])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(log: {log_path})")
    return os.path.join(tree, "tools")


def environment(bins):
    tree = os.path.dirname(bins)
    cache = cmake_cache(tree)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError(f"refusing to time a non-Release build "
                         f"({tree}: CMAKE_BUILD_TYPE={build_type or '?'})")
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    if os.path.isfile(compiler):
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
        compiler = (r.stdout.splitlines() or [compiler])[0]
    describe = "unknown"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty", "--tags"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            describe = r.stdout.strip()
    return {
        "git_describe": describe,
        "build_type": build_type,
        "compiler": compiler,
        "threads": THREADS,
        "socket_workers": SOCKET_WORKERS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "isa": None,  # filled from the first campaign's stdout
        "loadavg_start": list(os.getloadavg()),
    }


# ---- running one campaign -------------------------------------------------

def workload_flags(name, smoke, rounds=None):
    """The workload's experiment flags; --smoke divides the populations
    and cuts the rounds, `rounds` caps the round count."""
    out = []
    for flag in WORKLOADS[name]["flags"]:
        key, _, value = flag.partition("=")
        if smoke and key in ("--clients", "--eval-clients", "--landmarks"):
            value = str(max(1, int(value) // SMOKE_SCALE))
        if key == "--rounds":
            if smoke:
                value = str(SMOKE_ROUNDS)
            if rounds is not None:
                value = str(min(int(value), rounds))
        out.append(f"{key}={value}")
    return out


def clean_env(threads):
    env = {k: v for k, v in os.environ.items() if k not in OBS_ENV}
    env["FEDCLUST_THREADS"] = str(threads)
    env["FEDCLUST_LOG_LEVEL"] = "info"
    return env


LIVE = []  # processes started and not yet reaped
ALL_CPUS = sorted(os.sched_getaffinity(0))


def spin_seconds():
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    return time.perf_counter() - start


def fastest_cpus(k):
    """The k CPUs that currently run a fixed loop fastest (best of three
    tries each). On a shared host a vCPU whose physical core is busy with
    another tenant runs ~1.5x slower, and which vCPUs are affected changes
    over seconds, so every campaign starts on the quickest CPUs."""
    if len(ALL_CPUS) <= k:
        return ALL_CPUS
    speed = {}
    try:
        for cpu in ALL_CPUS:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(spin_seconds() for _ in range(3))
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    return sorted(ALL_CPUS, key=speed.get)[:k]


def stay_off(cpus):
    """Moves this script itself off the campaign's CPUs (back onto every
    CPU when there is no other), so reading progress lines never preempts
    the campaign."""
    rest = set(ALL_CPUS) - set(cpus)
    os.sched_setaffinity(0, rest or set(ALL_CPUS))


class Proc:
    def __init__(self, argv, env, out_path, timed, cpus):
        self.out_path = out_path
        self.out = open(out_path, "w")
        # The child inherits this process's affinity. Setting it here rather
        # than in a preexec_fn keeps the spawn on the fast vfork path,
        # which is part of every set-up measured.
        os.sched_setaffinity(0, cpus)
        try:
            self.popen = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=self.out,
                stderr=subprocess.PIPE if timed else subprocess.STDOUT)
        finally:
            stay_off(cpus)
        LIVE.append(self)
        self.rc = None
        self.hwm_kib = 0
        self.exit_t = None

    def sample_hwm(self):
        """Reads the process's peak resident set so far (VmHWM). Unlike
        ru_maxrss, which Linux carries across exec, it counts only the
        program's own memory, not this script's at the time of the spawn."""
        try:
            with open(f"/proc/{self.popen.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self.hwm_kib = max(self.hwm_kib,
                                           int(line.split()[1]))
        except (OSError, ValueError):
            pass  # exiting: the last sample stands

    def reap(self, deadline):
        """Waits for exit (killing at the deadline); records the exit
        code and the exit time."""
        killed = False
        while True:
            pid, status = os.waitpid(self.popen.pid, os.WNOHANG)
            if pid:
                self.exit_t = time.perf_counter()
                self.rc = -1 if killed else os.waitstatus_to_exitcode(status)
                self.popen.returncode = self.rc
                break
            if not killed and time.perf_counter() > deadline:
                self.popen.kill()
                killed = True
            time.sleep(0.0005)
        LIVE.remove(self)
        if self.popen.stderr:
            self.popen.stderr.close()
        self.out.close()

    def stdout_text(self):
        with open(self.out_path, errors="replace") as f:
            return f.read()


class Rotation:
    """Moves a one-CPU campaign from CPU to CPU: every ROTATE_S seconds of
    its set-up, then at every round boundary. A vCPU whose physical core
    another tenant is using runs about 1.45x slower for seconds at a time,
    and not on every vCPU at once (README.md, "Statistics"). Pinned to one
    CPU, a campaign that starts on such a vCPU stays slow throughout;
    rotating, each round is a separate draw of a CPU and the fastest round
    of a run is one that ran undisturbed, and a set-up averages over the
    CPUs instead of taking one CPU's state."""

    def __init__(self, first_cpu, procs):
        i = ALL_CPUS.index(first_cpu)
        self.order = ALL_CPUS[i:] + ALL_CPUS[:i]
        self.k = 0
        self.procs = procs
        self.in_rounds = False
        self.last = time.perf_counter()

    def due(self):
        return math.inf if self.in_rounds else self.last + ROTATE_S

    def step(self):
        self.k += 1
        cpu = {self.order[self.k % len(self.order)]}
        for p in self.procs:
            try:
                tids = os.listdir(f"/proc/{p.popen.pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), cpu)
                except OSError:
                    pass  # the thread has exited
        stay_off(cpu)
        self.last = time.perf_counter()


def read_stderr(procs, deadline, on_line=None, rotation=None):
    """Collects (arrival time, line) pairs from the first process's stderr
    until EOF or the deadline, turning `rotation` as it prescribes and
    sampling every process's peak resident set whenever output arrives."""
    fd = procs[0].popen.stderr.fileno()
    buf = b""
    lines = []
    while True:
        now = time.perf_counter()
        left = deadline - now
        if left <= 0:
            return lines, False
        if rotation:
            left = max(0.0, min(left, rotation.due() - now))
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            if rotation and time.perf_counter() >= rotation.due():
                rotation.step()
            continue
        chunk = os.read(fd, 65536)
        now = time.perf_counter()
        for p in procs:
            p.sample_hwm()
        if not chunk:
            return lines, True
        buf += chunk
        while b"\n" in buf:
            raw, buf = buf.split(b"\n", 1)
            line = raw.decode(errors="replace")
            lines.append((now, line))
            if on_line:
                on_line(line)
            if rotation and PROGRESS_RX.search(line):
                rotation.in_rounds = True
                rotation.step()


def parse_metrics_summary(text):
    """name -> value from the '-- metrics summary --' table on stdout
    (counters and gauges; histogram rows are skipped)."""
    out = {}
    inside = False
    for line in text.splitlines():
        if line.startswith("-- metrics summary --"):
            inside = True
            continue
        if inside:
            parts = line.split()
            if len(parts) != 2:
                if "=" not in line:
                    inside = False
                continue
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                inside = False
    return out


def campaign(bins, name, seed, outdir, smoke, threads=THREADS, obs=False,
             rounds=None, tag="run"):
    """Runs one campaign of workload `name` on `threads` CPUs and measures
    it from outside. Returns a dict of measurements plus `errors` (empty
    when every per-campaign check passed)."""
    w = WORKLOADS[name]
    socket_mode = w.get("socket", False)
    exp = workload_flags(name, smoke, rounds) + [f"--seed={seed}"]
    n_rounds = int(next(f.partition("=")[2] for f in exp
                        if f.startswith("--rounds=")))
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{name}.{tag}")
    csv_path = stem + ".csv"
    for path in (csv_path, stem + ".metrics.jsonl", stem + ".journal.jsonl"):
        if os.path.exists(path):
            os.remove(path)
    main_flags = exp + ["--progress=1", f"--out={csv_path}"]
    if obs:
        main_flags += [f"--metrics-out={stem}.metrics.jsonl",
                       f"--journal-out={stem}.journal.jsonl"]
    errors = []
    procs = []  # the main process, then the socket campaign's workers
    # In-process campaigns get one pool thread per CPU. The socket
    # campaign's one-thread server and workers share the CPUs: on one CPU
    # they do fedclust_paper's sequential work plus the transport's.
    cpus = fastest_cpus(threads)
    rotation = Rotation(cpus[0], procs) if threads == 1 else None
    start = time.perf_counter()
    deadline = start + CAMPAIGN_TIMEOUT_S
    if socket_mode:
        sock = os.path.relpath(stem + ".sock", ROOT)
        if os.path.exists(stem + ".sock"):
            os.remove(stem + ".sock")
        env = clean_env(1)
        main = Proc([os.path.join(bins, "fedclust_server"), *main_flags,
                     f"--listen=unix:{sock}", f"--workers={SOCKET_WORKERS}"],
                    env, stem + ".server.out", timed=True, cpus=cpus)

        procs.append(main)

        def start_workers(line):
            # Workers connect once the server listens, so no connect
            # attempt backs off. They start on the server's current CPU.
            if "server: listening on" in line and len(procs) == 1:
                here = sorted(os.sched_getaffinity(main.popen.pid))
                for i in range(SOCKET_WORKERS):
                    wflags = list(exp)
                    if obs:
                        wflags.append(
                            f"--metrics-out={stem}.worker{i}.metrics.jsonl")
                    procs.append(Proc(
                        [os.path.join(bins, "fedclust_worker"), *wflags,
                         f"--connect=unix:{sock}"],
                        env, f"{stem}.worker{i}.out", timed=False,
                        cpus=here))
    else:
        main = Proc([os.path.join(bins, "fedclust_sim"), *main_flags],
                    clean_env(threads), stem + ".out", timed=True, cpus=cpus)
        procs.append(main)
        start_workers = None
    lines, eof = read_stderr(procs, deadline, start_workers, rotation)
    if not eof:
        errors.append("timed out")
    main.reap(deadline)
    worker_procs = procs[1:]
    for p in worker_procs:
        p.reap(time.perf_counter() + 10.0)
    os.sched_setaffinity(0, ALL_CPUS)
    for p in procs:
        if p.rc != 0:
            errors.append(f"{os.path.basename(p.out_path)} exited {p.rc}")
    if socket_mode and len(worker_procs) != SOCKET_WORKERS:
        errors.append("server never listened")

    res = {"workload": name, "seed": seed, "rounds": n_rounds,
           "cpus": cpus, "run_s": main.exit_t - start,
           "rss_kib": sum(p.hwm_kib for p in procs), "errors": errors,
           "stderr_tail": [l for _, l in lines[-5:]]}
    progress = []
    for t, line in lines:
        m = PROGRESS_RX.search(line)
        if m:
            progress.append((t, int(m.group(1)), float(m.group(2))))
    if [p[1] for p in progress] != list(range(n_rounds)):
        errors.append(f"progress lines for rounds "
                      f"{[p[1] for p in progress]}, want 0..{n_rounds - 1}")
        return res
    # Round 0 starts X seconds before its progress line arrives, X being
    # the time the line reports (to the millisecond); every later round's
    # time is the gap between the arrivals of its progress line and the
    # previous one's.
    res.update({
        "setup_s": progress[0][0] - progress[0][2] - start,
        "round_s": [b[0] - a[0] for a, b in zip(progress, progress[1:])],
    })
    text = main.stdout_text()
    for line in text.splitlines():
        if (m := WIRE_RX.match(line)):
            res["wire_bytes"] = int(m.group(1))
        elif (m := ISA_RX.match(line)):
            res["isa"] = m.group(1)
        elif (m := CRC_RX.match(line)):
            res["crc"] = m.group(1)
    for key in ("wire_bytes", "isa", "crc"):
        if key not in res:
            errors.append(f"stdout lacks {key}")
    try:
        with open(csv_path) as f:
            res["csv"] = f.read()
        rows = [r.split(",") for r in res["csv"].strip().splitlines()[1:]]
        if len(rows) != n_rounds:
            errors.append(f"trace CSV has {len(rows)} rows")
        else:
            res["final_acc"] = float(rows[-1][3])
            res["final_clusters"] = int(rows[-1][6])
    except (OSError, ValueError, IndexError) as e:
        errors.append(f"trace CSV unreadable: {e}")
    if obs:
        res["summary"] = parse_metrics_summary(text)
        res["worker_summaries"] = [parse_metrics_summary(p.stdout_text())
                                   for p in worker_procs]
        res["metrics_rows"] = read_jsonl(stem + ".metrics.jsonl")
        res["journal_rows"] = read_jsonl(stem + ".journal.jsonl")
    return res


def read_jsonl(path):
    try:
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        return []


# ---- per-run metrics and checks -------------------------------------------

def fastest_rounds(camps):
    """The times of rounds 1..R-1 in a run, each its fastest repeat. The
    campaigns of a run have identical inputs and do identical work, and
    interference from other tenants only ever adds time."""
    return [min(ts) for ts in zip(*(c["round_s"] for c in camps))]


def run_metrics(camps):
    """The end-to-end metrics of one run (repeats of one campaign).
    setup_s is the median of the repeats' set-ups. round_s_min is the
    fastest round (r >= 1) of any repeat: the rounds of a workload do about
    the same work, the host's other tenants only ever add time, and each
    round runs on another CPU (Rotation), so the fastest round is one that
    ran undisturbed (README.md, "Statistics")."""
    return {
        "setup_s": median(c["setup_s"] for c in camps),
        "round_s_min": min(t for c in camps for t in c["round_s"]),
        "wire_mb_per_round":
            camps[0]["wire_bytes"] / 1e6 / camps[0]["rounds"],
        "peak_rss_mib": median(c["rss_kib"] for c in camps) / 1024.0,
    }


def reference_path(build_root, name, seed, smoke, bins):
    """Cache file for the in-process twin's digest and trace CSV, keyed by
    flags, seed and the fedclust_sim binary it came from."""
    st = os.stat(os.path.join(bins, "fedclust_sim"))
    key = json.dumps([workload_flags(name, smoke), seed, st.st_size,
                      st.st_mtime_ns])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(build_root, "bench_suite", "ref",
                        f"{name}.{seed}.{digest}.json")


def store_reference(build_root, c, smoke, bins):
    path = reference_path(build_root, c["workload"], c["seed"], smoke, bins)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"crc": c["crc"], "csv": c["csv"]}, f)


def twin_reference(build_root, bins, twin, seed, outdir, smoke):
    """The in-process twin's digest and CSV for this seed, from the cache
    or from one untimed campaign on every CPU (trajectories do not depend
    on the thread count)."""
    path = reference_path(build_root, twin, seed, smoke, bins)
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    c = campaign(bins, twin, seed, outdir, smoke,
                 threads=min(4, os.cpu_count() or 1), tag="reference")
    if c["errors"]:
        return None
    store_reference(build_root, c, smoke, bins)
    return {"crc": c["crc"], "csv": c["csv"]}


def check_run(name, camps, floors, reference):
    """Cross-campaign checks (accuracy floors only when `floors`; they hold
    for the workload's full round count). Appends to each campaign's
    `errors`; returns the number of failed campaigns."""
    w = WORKLOADS[name]
    first = next((c for c in camps if not c["errors"]), None)
    for c in camps:
        e = c["errors"]
        if e:
            continue
        if c["crc"] != first["crc"] or c["csv"] != first["csv"]:
            e.append("digest or trace CSV differs between repetitions")
        if reference is not None and (c["crc"] != reference["crc"] or
                                      c["csv"] != reference["csv"]):
            e.append(f"digest or trace CSV differs from {w['twin']}")
        if "clusters" in w and c["final_clusters"] != w["clusters"]:
            e.append(f"ended with {c['final_clusters']} clusters, "
                     f"want {w['clusters']}")
        if floors and c["final_acc"] < w["floor"]:
            e.append(f"final accuracy {c['final_acc']:.4f} below the "
                     f"{w['floor']} floor")
    return sum(1 for c in camps if c["errors"])


def describe_errors(camps):
    for i, c in enumerate(camps):
        for e in c["errors"]:
            log(f"  FAILED {c['workload']} campaign {i}: {e}")
            for line in c.get("stderr_tail", []):
                log(f"    | {line}")


def run_workload(bins, build_root, name, seed, seconds, smoke, tag="run"):
    """One run: campaigns of one workload, at least MIN_CAMPAIGNS (one with
    --smoke) and more while the next one fits into `seconds`. Returns
    (campaigns, failed campaigns)."""
    outdir = os.path.join(build_root, "bench_suite", "runs", name)
    w = WORKLOADS[name]
    reference = None
    if "twin" in w:
        reference = twin_reference(build_root, bins, w["twin"], seed,
                                   outdir, smoke)
        if reference is None:
            raise BenchError(f"{w['twin']} reference campaign failed")
    camps = []
    start = time.perf_counter()
    while True:
        camps.append(campaign(bins, name, seed, outdir, smoke,
                              tag=f"{tag}{len(camps)}"))
        if smoke:
            break
        longest = max(c["run_s"] for c in camps)
        if (len(camps) >= MIN_CAMPAIGNS
                and time.perf_counter() - start + longest > seconds):
            break
    failed = check_run(name, camps, not smoke, reference)
    if failed == 0 and any(v.get("twin") == name for v in WORKLOADS.values()):
        store_reference(build_root, camps[0], smoke, bins)
    return camps, failed


def run_record(name, camps, failed):
    """What a result JSON keeps of one run."""
    ok = [c for c in camps if not c["errors"]]
    rec = {"workload": name, "attempted": len(camps), "failed": failed,
           "errors": [e for c in camps for e in c["errors"]]}
    if ok:
        rec["metrics"] = run_metrics(ok)
        rec["final_acc"] = ok[0]["final_acc"]
        rec["round_s"] = [c["round_s"] for c in ok]
        rec["isa"] = ok[0]["isa"]
    return rec


# ---- traced run -------------------------------------------------------------

def counter_delta_per_round(rows, key):
    """(last - first) / (rounds - 1) of a cumulative counter in the
    per-round metrics JSONL; rounds 1..n-1, so setup is excluded."""
    if len(rows) < 2:
        return 0.0
    return (rows[-1].get(key, 0.0) - rows[0].get(key, 0.0)) / (len(rows) - 1)


def traced_run(bins, build_root, name, seed, smoke):
    """--trace 1: five campaigns and layer_probe; returns (per-layer
    metrics, report, runs attempted, runs failed)."""
    outdir = os.path.join(build_root, "bench_suite", "runs", name)
    rounds = SMOKE_ROUNDS if smoke else TRACE_ROUNDS
    # U: the timed configuration (one CPU) untraced, T: the same with
    # metrics and journal on, TRACE_REPEATS of each, interleaved; R: the
    # same on two CPUs.
    camps = []
    for i in range(TRACE_REPEATS):
        camps.append(campaign(bins, name, seed, outdir, smoke, rounds=rounds,
                              tag=f"traceU{i}"))
        camps.append(campaign(bins, name, seed, outdir, smoke, obs=True,
                              rounds=rounds, tag=f"traceT{i}"))
    camps.append(campaign(bins, name, seed, outdir, smoke, threads=2,
                          rounds=rounds, tag="traceR"))
    failed = check_run(name, camps, False, None)
    probe_flags = workload_flags(name, smoke, rounds) + [f"--seed={seed}"]
    trace_path = os.path.join(outdir, f"{name}.probe.trace.json")
    cpus = fastest_cpus(1)
    os.sched_setaffinity(0, cpus)
    try:
        r = subprocess.run(
            [os.path.join(bins, "layer_probe"), *probe_flags,
             f"--replay-rounds={min(REPLAY_ROUNDS, rounds)}",
             f"--chrome-trace={trace_path}"],
            cwd=ROOT, env=clean_env(1), capture_output=True, text=True,
            timeout=CAMPAIGN_TIMEOUT_S)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    probe = None
    if r.returncode == 0:
        try:
            probe = json.loads(r.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
    if probe is None:
        log(f"layer_probe failed ({r.returncode}): {r.stderr.strip()}")
        return None, None, len(camps) + 1, failed + 1
    if failed:
        describe_errors(camps)
        return None, None, len(camps) + 1, failed
    k = 2 * TRACE_REPEATS
    u_runs, t_runs, two = camps[0:k:2], camps[1:k:2], camps[k]
    u_rounds = fastest_rounds(u_runs)
    t_rounds = fastest_rounds(t_runs)
    b = t_runs[0]
    if probe["setup_clusters"] != b["final_clusters"]:
        log(f"layer_probe set up {probe['setup_clusters']} clusters, the "
            f"campaign {b['final_clusters']}")
        return None, None, len(camps) + 1, 1

    rows = b["metrics_rows"]
    journal = b["journal_rows"]
    train = [j for j in journal if j.get("ev") == "train"]
    delivered = sum(1 for j in journal if j.get("ev") == "delivered")
    retries = sum(j.get("retries", 0) for j in journal
                  if j.get("ev") == "retry")
    busy_s = sum(r_.get("round_seconds", 0.0) + r_.get("eval_seconds", 0.0)
                 for r_ in rows)
    eval_s = sum(r_.get("eval_seconds", 0.0) for r_ in rows)
    hits = counter_delta_per_round(rows, "store.cache_hits")
    misses = counter_delta_per_round(rows, "store.cache_misses")
    madds = counter_delta_per_round(rows, "gemm.madds")
    madds += sum(s.get("gemm.madds", 0.0) for s in b["worker_summaries"]) / \
        b["rounds"]
    u_round_s = median(u_rounds)
    u_setup_s = min(x["setup_s"] for x in u_runs)
    layers = {
        "data.population_build_s": probe["data.population_build_s"],
        "data.materialize_us": probe["data.materialize_us"],
        "store.acquire_us": probe["store.acquire_us"],
        # A materialized store resolves every acquire from memory.
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "store.misses_per_round": misses,
        "round.sample_ms": probe["round.sample_ms"],
        "round.deliver_us": probe["round.deliver_us"],
        "round.retries_per_update": retries / len(train),
        "round.lost_update_frac": (len(train) - delivered) / len(train),
        "round.parallel_efficiency":
            sum(u_rounds) / (2.0 * sum(two["round_s"])),
        "round.coverage": probe["replay_round_attributed_s"] / u_round_s,
        "nn.train_ms": probe["nn.train_ms"],
        "nn.forward_ms": probe["nn.forward_ms"],
        "nn.backward_ms": probe["nn.backward_ms"],
        "nn.optim_ms": probe["nn.optim_ms"],
        "nn.eval_ms": probe["nn.eval_ms"],
        "nn.eval_share": eval_s / busy_s,
        "tensor.gemm_madds_per_round": madds,
        "wire.encode_mb_s": probe["wire.encode_mb_s"],
        "wire.decode_mb_s": probe["wire.decode_mb_s"],
        "wire.bytes_per_round":
            counter_delta_per_round(rows, "comm.wire_bytes"),
        "agg.submit_us": probe["agg.submit_us"],
        "agg.finish_ms": probe["agg.finish_ms"],
        "cluster.warmup_ms": probe["cluster.warmup_ms"],
        "cluster.proximity_ms": probe["cluster.proximity_ms"],
        "cluster.dendrogram_ms": probe["cluster.dendrogram_ms"],
        "landmark.assign_us": probe["landmark.assign_us"],
        "cluster.setup_coverage":
            probe["replay_setup_attributed_s"] / u_setup_s,
        "net.call_us": probe["net.call_us"],
        # Socket workers share the campaign's CPU, so each call's train_us
        # also counts the other worker's turn; dividing by the number of
        # training executors gives the share of round time spent training.
        "net.worker_busy_share":
            sum(j.get("train_us", 0) for j in train) / 1e6 / busy_s /
            (SOCKET_WORKERS if WORKLOADS[name].get("socket") else THREADS),
        "obs.traced_overhead_pct":
            (sum(t_rounds) / sum(u_rounds) - 1.0) * 100.0,
    }
    server = b["summary"]
    report = {
        "workload": name, "seed": seed, "rounds": rounds, "isa": b["isa"],
        "chrome_trace": os.path.relpath(trace_path, ROOT),
        "probe": probe,
        "campaign_round_s": {"untraced": u_round_s,
                             "traced": median(t_rounds),
                             "two_cpus": median(two["round_s"])},
        "campaign_setup_s": {"untraced": u_setup_s,
                             "traced": min(x["setup_s"] for x in t_runs),
                             "two_cpus": two["setup_s"]},
        "net": {
            "calls_served": sum(s.get("net.calls_served", 0.0)
                                for s in b["worker_summaries"]),
            "reconnects": server.get("net.reconnects", 0.0),
            "frame_rejects": server.get("net.frame_rejects", 0.0),
        },
    }
    if WORKLOADS[name].get("socket"):
        if report["net"]["calls_served"] != len(train):
            log(f"workers served {report['net']['calls_served']} calls, "
                f"the journal has {len(train)} train rows")
            failed += 1
        if report["net"]["reconnects"] or report["net"]["frame_rejects"]:
            log(f"socket campaign reconnected or rejected frames: "
                f"{report['net']}")
            failed += 1
    return layers, report, len(camps) + 1, failed


# ---- output -----------------------------------------------------------------

def result_line(spec, kind, values, attempted, failed):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def print_metrics(spec, kind, name, values, note=""):
    print(f"== {name}{note}")
    for m in spec[kind]:
        arrow = {"lower": "lower is better",
                 "higher": "higher is better"}.get(m.get("better"), "")
        print(f"  {m['name']:<28} {values[m['name']]:>16.6g} "
              f"{m['unit']:<9} {arrow}")


def write_json(path, obj):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
    print(f"result written to {path}")


def set_summary(runs):
    """The set-level numbers of one workload that BENCHMARK.json does not
    hold: failed-run fraction, final accuracy, and the median and p90 of
    every round of every campaign (the p90 None below P90_MIN_SAMPLES
    rounds)."""
    ok = [r for r in runs if "metrics" in r]
    pool = [t for r in ok for ts in r["round_s"] for t in ts]
    return {
        "failed_run_frac":
            sum(1 for r in runs if r["failed"]) / len(runs),
        "final_acc": median(r["final_acc"] for r in ok) if ok else None,
        "round_s_p50": median(pool) if pool else None,
        "round_s_p90": p90(pool) if len(pool) >= P90_MIN_SAMPLES else None,
        "round_samples": len(pool),
    }


def suite(bins, build_root, args, spec, env):
    """One set: interleaved runs of every workload."""
    names = list(WORKLOADS)
    reps = 1 if args.smoke else args.reps
    runs = {n: [] for n in names}
    for rep in range(reps):
        for n in names:
            camps, failed = run_workload(bins, build_root, n, args.seed,
                                         args.seconds, args.smoke,
                                         tag=f"set{rep}.")
            describe_errors(camps)
            rec = run_record(n, camps, failed)
            env["isa"] = env["isa"] or rec.get("isa")
            runs[n].append(rec)
            log(f"rep {rep + 1}/{reps} {n}: {len(camps)} campaigns"
                + (f", FAILED {failed}" if failed else ""))
    results = {}
    total_failed = 0
    for n in names:
        total_failed += sum(r["failed"] for r in runs[n])
        summary = set_summary(runs[n])
        ok = [r for r in runs[n] if "metrics" in r]
        if ok:
            values = {m["name"]: median(r["metrics"][m["name"]] for r in ok)
                      for m in spec["end_to_end"]}
            print_metrics(spec, "end_to_end", n, values,
                          f" (median of {len(ok)} runs)")
            p90_text = (f"{summary['round_s_p90']:.6g} s"
                        if summary["round_s_p90"] is not None else "n/a")
            print(f"  final_acc {summary['final_acc']:.4f}, "
                  f"round_s_p50 {summary['round_s_p50']:.6g} s, "
                  f"round_s_p90 {p90_text} over "
                  f"{summary['round_samples']} rounds, failed_run_frac "
                  f"{summary['failed_run_frac']:.3g}")
        results[n] = {"runs": runs[n], "summary": summary}
    return results, total_failed


def traced_all(bins, build_root, args, spec, names, env):
    results = {}
    failed_total = 0
    for n in names:
        layers, report, _, failed = traced_run(bins, build_root, n,
                                               args.seed, args.smoke)
        failed_total += failed
        if layers is None:
            results[n] = {"failed": failed}
            continue
        print_metrics(spec, "per_layer", n, layers,
                      f" (traced; Chrome trace {report['chrome_trace']})")
        results[n] = {"failed": failed, "layers": layers, "report": report}
        env["isa"] = env["isa"] or report["isa"]
    return results, failed_total


# ---- compare ----------------------------------------------------------------

def verdict(ps, cs, lower, bound):
    """choosing-metrics §8 on per-run values of one (workload, metric)
    pair; pairs are runs of the same repetition index."""
    def better(x, y):
        return x < y if lower else x > y
    pm, cm = median(ps), median(cs)
    pq = quartiles(ps)
    pairs = list(zip(cs, ps))
    win_rate = sum(1 for x, y in pairs if better(x, y)) / len(pairs)
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm)
    if win_rate >= 0.9 and better(cm, pm) and abs(cm - pm) > pq[1] - pq[0]:
        return win_rate, "improved"
    if worse_by > bound:
        return win_rate, "WORSE beyond bound"
    if (pq[1] - pq[0]) / abs(pm) > bound and not all(
            better(x, y) for x in cs for y in ps):
        return win_rate, "unresolved (spread > bound)"
    return win_rate, "unchanged"


def compare(parent_path, change_path, spec):
    """Every (workload, end-to-end metric) pair, then the set-level numbers;
    returns the exit code (2 on any regression)."""
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    for key in ("isa", "nproc", "threads", "compiler"):
        a, b = parent["env"].get(key), change["env"].get(key)
        if a != b:
            print(f"warning: environments differ in {key}: {a} vs {b}")
    regressions = 0
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>5}  verdict")
    for w in parent["results"]:
        if w not in change["results"]:
            continue
        pr = [r["metrics"] for r in parent["results"][w]["runs"]
              if "metrics" in r]
        cr = [r["metrics"] for r in change["results"][w]["runs"]
              if "metrics" in r]
        if not pr or not cr:
            print(f"{w:<16} no successful runs on one side")
            regressions += 1
            continue
        for m in spec["end_to_end"]:
            ps = [r[m["name"]] for r in pr]
            cs = [r[m["name"]] for r in cr]
            win_rate, v = verdict(ps, cs, m["better"] == "lower", m["bound"])
            regressions += v.startswith("WORSE")
            pq, cq = quartiles(ps), quartiles(cs)
            ps_ = f"{median(ps):.5g} [{pq[0]:.5g}, {pq[1]:.5g}]"
            cs_ = f"{median(cs):.5g} [{cq[0]:.5g}, {cq[1]:.5g}]"
            print(f"{w:<16} {m['name']:<18} {ps_:>36} {cs_:>36} "
                  f"{win_rate:>5.2f}  {v}")
        p = parent["results"][w]["summary"]
        c = change["results"][w]["summary"]
        checks = [("failed_run_frac", c["failed_run_frac"] >
                   p["failed_run_frac"])]
        if p["final_acc"] is not None and c["final_acc"] is not None:
            checks.append(("final_acc", c["final_acc"] <
                           p["final_acc"] - ACC_TOLERANCE))
        for name in ("round_s_p50", "round_s_p90"):
            if p[name] is not None and c[name] is not None:
                checks.append((name, c[name] > p[name] * (1.0 + POOLED_BOUND)))
        for name, worse in checks:
            regressions += worse
            print(f"{w:<16} {name:<18} {p[name]:>36.5g} {c[name]:>36.5g} "
                  f"{'':>5}  {'WORSE beyond bound' if worse else 'ok'}")
    return 2 if regressions else 0


# ---- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="how long one run measures (default: run_seconds "
                         "in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5,
                    help="runs of every workload in one set")
    ap.add_argument("--traced", action="store_true",
                    help="traced run of every workload")
    ap.add_argument("--smoke", action="store_true",
                    help=f"1 campaign, {SMOKE_ROUNDS} rounds, populations "
                         f"/{SMOKE_SCALE}, plus a traced {SMOKE_TRACED}")
    ap.add_argument("--build", default="build",
                    help="build root; the benchmark builds into and writes "
                         "under <build>/bench_suite (default: build)")
    ap.add_argument("--bin", help="use prebuilt binaries from this "
                                  "directory instead of building")
    ap.add_argument("--out", help="result JSON path (set and traced modes)")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()

    try:
        spec = load_benchmark()
        if args.compare:
            return compare(*args.compare, spec)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        build_root = os.path.abspath(args.build)
        bins = os.path.abspath(args.bin) if args.bin else build(build_root)
        for b in BINARIES:
            if not os.path.isfile(os.path.join(bins, b)):
                raise BenchError(f"{b} not found in {bins}")
        env = environment(bins)

        if args.workload:
            if args.trace:
                layers, report, attempted, failed = traced_run(
                    bins, build_root, args.workload, args.seed, args.smoke)
                if layers is None:
                    raise BenchError(f"traced run of {args.workload} failed")
                env["isa"] = report["isa"]
                env["loadavg_end"] = list(os.getloadavg())
                print(f"env: {json.dumps(env)}")
                print_metrics(spec, "per_layer", args.workload, layers)
                print(f"chrome trace: {report['chrome_trace']}")
                print(result_line(spec, "per_layer", layers, attempted,
                                  failed))
                return 0 if failed == 0 else 1
            camps, failed = run_workload(bins, build_root, args.workload,
                                         args.seed, args.seconds, args.smoke)
            describe_errors(camps)
            rec = run_record(args.workload, camps, failed)
            if "metrics" not in rec:
                raise BenchError(f"every {args.workload} campaign failed")
            env["isa"] = rec["isa"]
            env["loadavg_end"] = list(os.getloadavg())
            print(f"env: {json.dumps(env)}")
            print_metrics(spec, "end_to_end", args.workload, rec["metrics"],
                          f" ({len(camps)} campaigns, seed {args.seed})")
            print(f"  final_acc {rec['final_acc']:.4f}")
            print(result_line(spec, "end_to_end", rec["metrics"],
                              len(camps), failed))
            return 0 if failed == 0 else 1

        stamp = time.strftime("%Y%m%d-%H%M%S")
        if args.traced and not args.smoke:
            results, failed = traced_all(bins, build_root, args, spec,
                                         list(WORKLOADS), env)
            env["loadavg_end"] = list(os.getloadavg())
            write_json(args.out or os.path.join(
                build_root, "bench_suite", "results", f"traced-{stamp}.json"),
                {"env": env, "seed": args.seed, "results": results})
            return 0 if failed == 0 else 1

        results, failed = suite(bins, build_root, args, spec, env)
        if args.smoke:
            traced, t_failed = traced_all(bins, build_root, args, spec,
                                          [SMOKE_TRACED], env)
            failed += t_failed
            missing = [f"{w}:{m['name']}" for w in WORKLOADS
                       for m in spec["end_to_end"]
                       if m["name"] not in
                       results[w]["runs"][0].get("metrics", {})]
            missing += [f"{SMOKE_TRACED}:{m['name']}"
                        for m in spec["per_layer"]
                        if m["name"] not in
                        traced[SMOKE_TRACED].get("layers", {})]
            if missing:
                log(f"smoke: metrics not produced: {', '.join(missing)}")
                failed += 1
            print(f"smoke: {'ok' if failed == 0 else 'FAILED'}")
            return 0 if failed == 0 else 1
        env["loadavg_end"] = list(os.getloadavg())
        write_json(args.out or os.path.join(
            build_root, "bench_suite", "results", f"set-{stamp}.json"),
            {"env": env, "seed": args.seed, "reps": args.reps,
             "seconds": args.seconds, "results": results})
        return 0 if failed == 0 else 1
    except (BenchError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    finally:
        for p in list(LIVE):
            p.popen.kill()
            p.reap(time.perf_counter())


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    sys.exit(main())
