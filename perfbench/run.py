#!/usr/bin/env python3
"""Host-time benchmark of the tmk simulator and the real-thread DSM service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py suite [--repeats 10] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py compare OLD.json NEW.json

A run builds `perfbench/` (a package of its own) in release mode, then runs
its program once per workload call, so every call starts cold as a suite
job does: at least three calls, and more while the next one is expected to
end within `--seconds` of the run's start.
Each call's simulated outputs are checked against a golden record: the
committed `results/*.json` entry for a simulated workload, the fault-free
tenant checksums pinned in `perfbench/golden.json` for the service. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Every run also writes a
fingerprinted record, and a traced run its spans (Chrome trace-event JSON,
opens in Perfetto), under `perfbench/out/`.

`suite` runs every workload of BENCHMARK.json `--repeats` times for its
`run_seconds`, one run at a time with seeds 1..N, prints every metric by
name with its unit as median and quartiles, and writes the runs to `--out`.
`compare` reads two such files and prints, per workload and end-to-end
metric, both medians and quartiles, the delta, the pairs the newer side
won, and a verdict.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Fewest untraced calls per run, so every median has three samples.
MIN_CALLS = 3
# The reference kernel's time on the host the bounds were set on (a 2-core
# x86-64 container). End-to-end host times are reported in reference
# seconds: measured seconds x REFERENCE_S / the kernel's mean time just
# before and just after the call.
REFERENCE_S = 0.22
# No single call may run longer than this (seconds).
CALL_TIMEOUT = 150

COUNT_UNITS = ("count", "cycles", "bytes")


class BenchError(Exception):
    """A run that cannot produce a result."""


def fail(msg):
    raise BenchError(msg)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def manifest():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def spread(xs):
    """Distance between the quartiles as a share of the median."""
    m = median(xs)
    q1, q3 = quartiles(xs)
    return (q3 - q1) / m if m else 0.0


# ---------------------------------------------------------------- fingerprint


def capture(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "vendor", "perfbench", "results"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x not in ("out", "target"))
            paths += [os.path.join(d, f) for f in files]
    paths += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def fingerprint():
    return {
        "git_rev": capture(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": source_digest(),
        "rustc": capture(["rustc", "-V"]),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "engine": os.environ.get("TMK_ENGINE", "coop"),
    }


def parent_pid(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return 0
    return int(stat[stat.rfind(")") + 1:].split()[1])


def other_runs():
    """The other benchmark runs on this host, each named by the pid of its
    `perfbench/run.py`: such a process, or the parent of a `tmk-perfbench`
    process, other than this one and its ancestors. It reads /proc only,
    so it sees a run of any checkout. Called only while this run has no
    child alive."""
    mine, pid = set(), os.getpid()
    while pid > 0:
        mine.add(pid)
        pid = parent_pid(pid)
    runs = set()
    for p in os.listdir("/proc"):
        if not p.isdigit() or int(p) in mine:
            continue
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if any(a.endswith(b"perfbench/run.py") for a in argv):
            runs.add(int(p))
        elif os.path.basename(argv[0]) == b"tmk-perfbench":
            runs.add(parent_pid(p))
    return runs


def refuse_concurrent_runs():
    others = other_runs()
    if others:
        fail(f"another benchmark run is measuring (pid {', '.join(map(str, sorted(others)))}); "
             "refusing to run workloads at the same time")


# ---------------------------------------------------------------- building


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the benchmark program; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no crates/ under {ROOT}: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if r.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target_dir(), "release", "tmk-perfbench")


# ---------------------------------------------------------------- golden gate


def golden_for(workload):
    """The expected outputs of one workload's calls."""
    g = load_json(os.path.join(HERE, "golden.json")).get(workload)
    if g is None:
        fail(f"no golden entry for {workload}")
    if "record" not in g:
        return g
    path = os.path.join(ROOT, g["record"])
    if not os.path.isfile(path):
        fail(f"golden record {g['record']} is missing")
    for run in load_json(path)["runs"]:
        if run["key"] == g["key"]:
            return {
                "key": run["key"],
                "cycles": run["report"]["cycles"],
                "proc_cycles": run["report"]["proc_cycles"],
                "checksum": run["checksum"],
            }
    fail(f"{g['record']} has no run {g['key']}")


def check(golden, call, key=None):
    """Why a call's outputs differ from the golden record (empty if they
    match). A panicked or crashed call fails too."""
    if not call.get("ok"):
        return [f"call failed: {call.get('error', 'no output')}"]
    if "key" in golden:
        wrong = [] if key == golden["key"] else [f"ran {key}, golden is {golden['key']}"]
        fields = ("cycles", "proc_cycles", "checksum")
    else:
        wrong = []
        fields = ("tenant_checksums", "completed", "crashes", "rollbacks", "shed")
    for f in fields:
        if call.get(f) != golden[f]:
            wrong.append(f"{f}: got {call.get(f)!r}, golden {golden[f]!r}")
    return wrong


# ---------------------------------------------------------------- one run


class Runner:
    """Spawns the benchmark program, keeps every process's spans, and
    notes every other benchmark run it sees before a process starts."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.origin = time.monotonic()
        self.processes = []
        self.others = set()

    def child(self, mode, *extra):
        self.others |= other_runs()
        cmd = [self.binary, "--workload", self.workload, "--seed", str(self.seed), "--mode", mode, *extra]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CALL_TIMEOUT)
            lines = r.stdout.strip().splitlines()
            out = json.loads(lines[-1]) if r.returncode == 0 and lines else None
            error = f"exit code {r.returncode}"
        except subprocess.TimeoutExpired:
            out, error = None, f"timed out after {CALL_TIMEOUT} s"
        wall = time.monotonic() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.processes.append((mode, start - self.origin, wall, out))
        if out is None:
            return {"call": {"ok": False, "error": error}}
        # The whole process's CPU time (all threads) and minor faults.
        out.update(user_s=after.ru_utime - before.ru_utime,
                   sys_s=after.ru_stime - before.ru_stime,
                   minor_faults=after.ru_minflt - before.ru_minflt)
        if "call" in out:
            out["call"].update({k: out[k] for k in ("peak_rss_mb", "user_s", "sys_s", "minor_faults")})
        return out

    def reference(self):
        """The reference kernel's time, in a process of its own."""
        t = self.child("reference").get("reference_s")
        if not t:
            fail("the reference kernel failed")
        return t

    def chrome_trace(self):
        """Every process's spans on one timeline: a process row per child,
        a thread row per layer."""
        events = []
        for pid, (mode, start, wall, out) in enumerate(self.processes):
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": f"{self.workload} {mode} #{pid}"}})
            events.append({"name": f"{mode} process", "cat": "process", "ph": "X",
                           "ts": start * 1e6, "dur": wall * 1e6, "pid": pid, "tid": 0})
            layers = ["process"]
            for s in (out or {}).get("spans", []):
                if s["layer"] not in layers:
                    layers.append(s["layer"])
                events.append({"name": s["name"], "cat": s["layer"], "ph": "X",
                               "ts": start * 1e6 + s["start_us"], "dur": s["dur_us"], "pid": pid,
                               "tid": layers.index(s["layer"])})
            for tid, layer in enumerate(layers):
                events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                               "args": {"name": layer}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def measure(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the record of the run."""
    golden = golden_for(workload)
    is_service = "key" not in golden
    fp = fingerprint()
    r = Runner(binary, workload, seed)
    checked = []  # (call, mismatches)

    def gate(out):
        checked.append((out["call"], check(golden, out["call"], out.get("key"))))
        return out

    # The reference kernel runs before the first measured process and after
    # each one; a process's scale factor turns its host seconds into
    # reference seconds using the kernel runs on either side of it.
    refs = [r.reference()]

    def scaled(run):
        out = run()
        refs.append(r.reference())
        return REFERENCE_S / ((refs[-2] + refs[-1]) / 2), out

    setups, traced, probes = [], None, None  # setups: (raw seconds, scale)
    if is_service and not trace:
        scale, out = scaled(lambda: r.child("startup"))
        if not out.get("startup_s"):
            fail("the service start-up process failed")
        setups = [(cpu_s(out) / len(out["startup_s"]), scale)]
    if trace:
        traced = gate(r.child("traced"))
        if not traced["call"].get("ok"):
            fail(f"the traced call failed: {traced['call'].get('error')}")
        probes = r.child("probes", "--msg-bytes", str(traced["msg_bytes"]),
                         "--diff-density", repr(traced["diff_density"]))
        if "probes" not in probes:
            fail("the probe process failed")
    # Calls repeat while the next one, at the mean call's length so far,
    # still ends within the run's time; never fewer than MIN_CALLS.
    calls, spent, deadline = [], 0.0, r.origin + seconds
    while len(calls) < MIN_CALLS or time.monotonic() + spent / len(calls) <= deadline:
        t = time.monotonic()
        scale, out = scaled(lambda: gate(r.child("call")))
        out["call"]["scale"] = scale
        calls.append(out)
        spent += time.monotonic() - t

    ok = [c for c in calls if c["call"].get("ok")]
    if not ok:
        fail("every workload call failed")
    oks = [c["call"] for c in ok]
    if not is_service:
        setups = [(c["setup_s"], c["scale"]) for c in oks]
    r.others |= other_runs()
    load_end = list(os.getloadavg())
    fp.update(
        loadavg_at_end=load_end,
        other_runs_seen=sorted(r.others),
        jobs=1 + len(r.others),
        # Another benchmark run measured at the same time, or more work
        # was runnable than there are cores.
        oversubscribed=bool(r.others) or max(fp["loadavg_at_start"][0], load_end[0]) > fp["nproc"],
    )
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fp,
        "calls": [dict(c, mismatches=why) for c, why in checked],
        "attempted": len(checked),
        "failed": sum(1 for _, why in checked if why),
    }
    if not trace:
        record["metrics"] = {
            "run_s": median([c["run_s"] * c["scale"] for c in oks]),
            "setup_s": median([s * scale for s, scale in setups]),
            "peak_rss_mb": median([c["peak_rss_mb"] for c in oks]),
        }
        # The measured seconds behind the reference seconds, kept so the
        # scaling can be checked against them.
        record["raw"] = {
            "run_s": median([c["run_s"] for c in oks]),
            "setup_s": median([s for s, _ in setups]),
            "scale": statistics.fmean([c["scale"] for c in oks]),
        }
    else:
        record["metrics"] = layer_metrics(traced, probes, oks, is_service)
        record["spans"] = r.chrome_trace()
    return record


def cpu_s(out):
    """CPU seconds of a process, all threads. The service's host times are
    CPU time rather than wall time: on the host the bounds were set on, its
    wall time swung from 6 to 14 s between runs while its CPU time held
    within a few percent. The difference is waiting on thread wake-ups and
    host timers, which other tenants of the machine stretch; it is reported
    per layer as runtime.wait_s. A call's `run_s` is the same kind of time,
    taken inside the process around the call."""
    return out["user_s"] + out["sys_s"]


def layer_metrics(traced, probes, calls, is_service):
    """Per-layer values: the traced process's counts, the probe process's
    times, and what they add up to against the untraced calls' `run_s`,
    in measured seconds of the same kind as the end-to-end `run_s` (the
    service's are CPU seconds)."""
    m = dict(traced["layers"])
    m.update(probes["probes"])
    run_s = median([c["run_s"] for c in calls])
    wall_s = median([c["wall_s"] for c in calls])
    # Each layer's estimated host seconds (its count times its probe's time
    # per operation), reported as a share of the untraced run_s.
    est = {
        "sim": m["sim.syncs"] * m["sim.sync_ns"] / 1e9,
        "net": m["core.msgs"] * m["net.transfer_ns"] / 1e9,
        "mem": ((m["mem.cache_hits"] + m["mem.cache_misses"]) * m["mem.probe_ns"]
                + m["mem.dir_accesses"] * m["mem.dir_access_ns"]) / 1e9,
    }
    for layer, secs in est.items():
        m[f"{layer}.est_pct"] = 100 * secs / run_s
    m["machines.unattributed_s"] = run_s - sum(est.values()) - m["apps.dec_s"]
    m["machines.engine_s"] = run_s
    m["trace.overhead_s"] = traced["traced_run_s"] - run_s
    m["runtime.wait_s"] = median([c["wall_s"] - c["user_s"] - c["sys_s"] for c in calls])
    half = traced.get("half_wall_s")
    m["runtime.half_horizon_ratio"] = wall_s / half if half else 0.0
    m["runtime.req_per_s"] = calls[0]["completed"] / wall_s if is_service else 0.0
    m["process.user_s"] = median([c["user_s"] for c in calls])
    m["process.sys_s"] = median([c["sys_s"] for c in calls])
    m["process.minor_faults"] = median([c["minor_faults"] for c in calls])
    return m


def result_line(record, spec):
    """The contract's last line: every metric of the run's kind, with its unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for d in spec[kind]:
        if d["name"] not in record["metrics"]:
            fail(f"the run measured no {d['name']}")
        metrics[d["name"]] = {"value": record["metrics"][d["name"]], "unit": d["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Measures one run, writes its record (and spans) under perfbench/out,
    prints its summary as comment lines, and returns its result line and
    its record."""
    record = measure(binary, workload, seed, seconds, trace)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT, f"{stem}-spans.json"), "w") as f:
            json.dump(spans, f)
    with open(os.path.join(OUT, f"{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
    fp = record["fingerprint"]
    print(f"# {workload} seed {seed}: {record['attempted']} calls checked, "
          f"{record['failed']} failed; rev {fp['git_rev'] or fp['source_sha256'][:12]}, "
          f"{fp['rustc']}, nproc {fp['nproc']}, load {fp['loadavg_at_start'][0]:.2f} to "
          f"{fp['loadavg_at_end'][0]:.2f}, jobs {fp['jobs']}"
          f"{' OVERSUBSCRIBED' if fp['oversubscribed'] else ''}")
    for c in record["calls"]:
        for why in c["mismatches"]:
            print(f"# golden mismatch: {why}")
    line = result_line(record, spec)
    return line, record


def run_one(args):
    spec = manifest()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")
    refuse_concurrent_runs()
    line, _ = run_workload(build(), spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line))


# ---------------------------------------------------------------- suite


def run_suite(args):
    """Every workload of the manifest, `--repeats` runs each at the
    manifest's `run_seconds`, in this one process so that no other run can
    start between them unseen."""
    spec = manifest()
    kind = "per_layer" if args.trace else "end_to_end"
    seconds = spec["run_seconds"]
    refuse_concurrent_runs()
    binary = build()
    fp = fingerprint()
    runs = {w["name"]: [] for w in spec["workloads"]}
    for seed in range(1, args.repeats + 1):
        for w in runs:
            try:
                line, record = run_workload(binary, spec, w, seed, seconds, args.trace)
            except BenchError as e:
                runs[w].append(None)
                print(f"{w} seed {seed}: run failed: {e}", file=sys.stderr)
                continue
            line["oversubscribed"] = record["fingerprint"]["oversubscribed"]
            if "raw" in record:
                line["raw"] = record["raw"]
            runs[w].append(line)
            print(f"{w} seed {seed}: done", file=sys.stderr)
    record = {"fingerprint": fp, "seconds": seconds, "trace": int(args.trace),
              "kind": kind, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print_table(record, spec)


def print_table(record, spec):
    defs = spec[record["kind"]]
    print(f"{'workload':<12} {'metric':<30} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'n':>3}  note")
    for w, runs in record["runs"].items():
        done = [r for r in runs if r]
        attempted = sum(r["attempted"] for r in done) + runs.count(None)
        failed = sum(r["failed"] for r in done) + runs.count(None)
        for d in defs:
            xs = [r["metrics"][d["name"]]["value"] for r in done]
            q1, q3 = quartiles(xs)
            note = ""
            if "bound" in d:
                s = spread(xs)
                note = f"bound {d['bound']:.2f}" + ("" if s < d["bound"] / 3 else "  SPREAD > bound/3")
            elif d["unit"] in COUNT_UNITS:
                note = "repeats exactly" if len(set(xs)) == 1 else "varies"
            print(f"{w:<12} {d['name']:<30} {d['unit']:<6} {median(xs):>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread(xs):>7.2%} {len(xs):>3}  {note}")
        for name, unit in (("run_s", "s"), ("setup_s", "s"), ("scale", "1")):
            xs = [r["raw"][name] for r in done if "raw" in r]
            if xs:
                q1, q3 = quartiles(xs)
                print(f"{w:<12} {'raw ' + name:<30} {unit:<6} {median(xs):>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread(xs):>7.2%} {len(xs):>3}  measured, unscaled")
        print(f"{w:<12} {'fail_rate':<30} {'1':<6} {failed / max(attempted, 1):>14.6g} "
              f"{'':>14} {'':>14} {'':>7} {attempted:>3}  failed/attempted calls")
        over = sum(1 for r in done if r.get("oversubscribed"))
        if over:
            print(f"{w:<12} OVERSUBSCRIBED in {over} of {len(done)} runs")


# ---------------------------------------------------------------- compare


def verdict(old, new, d):
    """The choosing-metrics rules: a gain needs >= 9/10 pairs won and a
    median difference beyond the old side's quartile spread; a spread wider
    than the bound leaves the metric unresolved unless every new run beats
    every old run; otherwise a change worse than the bound is a regression."""
    lower = d["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if better(n, o))
    losses = sum(1 for o, n in pairs if better(o, n))
    mo, mn = median(old), median(new)
    q1, q3 = quartiles(old)
    worse_by = ((mn - mo) if lower else (mo - mn)) / mo if mo else 0.0
    if max(spread(old), spread(new)) > d["bound"]:
        if all(better(n, o) for n in new for o in old):
            return wins, len(pairs), "better (every run)"
        return wins, len(pairs), "unresolved (spread > bound)"
    if pairs and abs(mn - mo) > q3 - q1:
        if wins >= 0.9 * len(pairs):
            return wins, len(pairs), "better"
        if losses >= 0.9 * len(pairs) and worse_by > d["bound"]:
            return wins, len(pairs), "REGRESSION"
    if worse_by > d["bound"]:
        return wins, len(pairs), "REGRESSION (median)"
    return wins, len(pairs), "no change beyond bound"


def run_compare(args):
    spec = manifest()
    a, b = load_json(args.old), load_json(args.new)
    for side, rec in (("old", a), ("new", b)):
        fp = rec["fingerprint"]
        runs = [r for rs in rec["runs"].values() for r in rs if r]
        over = sum(1 for r in runs if r.get("oversubscribed"))
        print(f"# {side}: rev {fp['git_rev'] or fp['source_sha256'][:12]}, {fp['rustc']}, "
              f"nproc {fp['nproc']}" + (f", OVERSUBSCRIBED in {over} of {len(runs)} runs" if over else ""))
    print(f"{'workload':<12} {'metric':<12} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'delta':>8} {'pairs':>6}  verdict")
    for w in a["runs"]:
        if w not in b["runs"]:
            continue
        for d in spec["end_to_end"]:
            old = [r["metrics"][d["name"]]["value"] for r in a["runs"][w] if r]
            new = [r["metrics"][d["name"]]["value"] for r in b["runs"][w] if r]
            if not old or not new:
                continue
            wins, n, v = verdict(old, new, d)
            (o1, o3), (n1, n3) = quartiles(old), quartiles(new)
            mo, mn = median(old), median(new)
            print(f"{w:<12} {d['name']:<12} {mo:>12.5g} [{o1:>8.5g}, {o3:>8.5g}] "
                  f"{mn:>12.5g} [{n1:>8.5g}, {n3:>8.5g}] {(mn - mo) / mo:>+8.2%} {wins:>3}/{n:<2}  {v}")
        for side, rec in (("old", a), ("new", b)):
            runs = rec["runs"][w]
            att = sum(r["attempted"] for r in runs if r) + runs.count(None)
            bad = sum(r["failed"] for r in runs if r) + runs.count(None)
            print(f"{w:<12} fail_rate {side}: {bad}/{att}")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "suite":
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--repeats", type=int, default=10)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", default=None)
        run, args = run_suite, p.parse_args(argv[1:])
    elif argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        run, args = run_compare, p.parse_args(argv[1:])
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=int, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        run, args = run_one, p.parse_args(argv)
        if args.seconds < 1:
            p.error("--seconds must be at least 1")
    try:
        run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
