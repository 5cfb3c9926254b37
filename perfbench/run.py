#!/usr/bin/env python3
"""The repo benchmark: end-to-end `ipg` runs plus an outside-in per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the release `ipg` binary and the `ipg-layers` probe from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the workload's
`ipg` command as a child process, one at a time (closed loop, one
client, IPG_THREADS=1), until `--seconds` is used up. Every run's output
is checked against stored references.

--trace 0 reports the end-to-end metrics (medians over the run's
commands). --trace 1 runs the command once untraced and then the
`ipg-layers` probe, which rebuilds the workload in-process and times
calls into each layer's public functions; it reports the per-layer
metrics. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# `ipg simulate` runs a fixed schedule: 500 warmup + 2000 measure + 4000 drain.
SIM_CYCLES = 6500
# Each simulate/compare child gets at most this long before it is killed.
COMMAND_TIMEOUT_S = 120
# Full commands per --trace 0 run, at least.
MIN_SAMPLES = 2
# Before each full command a --trace 0 run makes up to this many
# set-up-only probes (spawn, wait for the set-up line, kill), so set-up
# is sampled across the whole run; all probes together may use at most
# SETUP_PROBE_SHARE of --seconds.
PROBES_PER_COMMAND = 4
SETUP_PROBE_SHARE = 0.1
PR_SET_CHILD_SUBREAPER = 36

COMPARE_SPECS = [
    "hypercube:12", "torus:64", "star:7", "ccc:9", "debruijn:12",
    "hsn:l=3,nucleus=Q4", "ring-cn:l=3,nucleus=Q4", "cn:l=3,nucleus=Q4",
    "superflip:l=3,nucleus=Q4", "cn:l=2,nucleus=Q6",
]

# Exact values today's code prints (see README.md, "Output gate").
CODEC_DENSE_EXPECT = {"injected": 327367, "delivered": 327367, "in_flight": 0,
                      "unmeasured": 736274, "avg_latency": "7.59", "max_latency": 16}
SPARSE_BIG_EXPECT = {"injected": 104899, "delivered": 104899, "in_flight": 0,
                     "unmeasured": 235263, "avg_latency": "9.43", "max_latency": 17}

WORKLOADS = {
    "codec-dense": {
        "argv": ["simulate", "ring-cn:l=2,nucleus=Q6,symmetric", "0.02"],
        "reference": "sim-codec-dense.stdout",
        "expect": CODEC_DENSE_EXPECT,
        "post_units": SIM_CYCLES,
    },
    "sparse-big": {
        "argv": ["simulate", "cn:l=3,nucleus=Q6", "0.0002"],
        "reference": "sim-sparse-big.stdout",
        "expect": SPARSE_BIG_EXPECT,
        "post_units": SIM_CYCLES,
    },
    # The distributed run must print exactly what the in-process run prints.
    "sparse-big-dist2": {
        "argv": ["simulate", "cn:l=3,nucleus=Q6", "0.0002", "--workers", "2"],
        "reference": "sim-sparse-big.stdout",
        "expect": SPARSE_BIG_EXPECT,
        "post_units": SIM_CYCLES,
    },
    "paper-costs": {
        "argv": ["compare"] + COMPARE_SPECS,
        "reference": "compare-paper-costs.stdout",
        "expect": None,
        # No simulator: the post-set-up work is the table rows after the first.
        "post_units": len(COMPARE_SPECS) - 1,
    },
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("sim_cycles_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]

# (layer, its metrics, the end-to-end metric they should move, on which workload)
LAYERS = [
    ("ipg-networks / ipg-core::superip", ["networks.build_s", "superip.build_s"],
     "setup_s, peak_rss_mb", "sparse-big, sparse-big-dist2"),
    ("ipg-core::tuple_routing",
     ["tuple_routing.build_s", "tuple_routing.next_hop_calls", "tuple_routing.next_hop_ns",
      "tuple_routing.share", "tuple_routing.calls_per_packet"],
     "sim_cycles_per_s", "codec-dense (about no move on sparse-big)"),
    ("ipg-sim::rng", ["rng.draws", "rng.refill_s", "rng.share"],
     "sim_cycles_per_s", "sparse-big (not codec-dense)"),
    ("ipg-sim::engine",
     ["engine.run_s", "engine.packets", "engine.self_s", "engine.ns_per_node_cycle"],
     "sim_cycles_per_s", "sparse-big"),
    ("ipg-sim::dist",
     ["dist.run_s", "dist.frames", "dist.frame_bytes", "dist.worker_rss_mb", "dist.speedup"],
     "wall_s, setup_s, peak_rss_mb", "sparse-big-dist2 only"),
    ("ipg-core::algo / ipg-cluster::imetrics",
     ["algo.diameter_s", "algo.avg_distance_s", "imetrics.exact_s"],
     "wall_s", "paper-costs only"),
    ("tracing", ["trace.overhead_pct"], "none (cost of the traced run itself)", "all"),
]

LAYER_UNITS = {
    "networks.build_s": "s", "superip.build_s": "s", "tuple_routing.build_s": "s",
    "tuple_routing.next_hop_calls": "count", "tuple_routing.next_hop_ns": "ns",
    "tuple_routing.share": "ratio", "tuple_routing.calls_per_packet": "calls/packet",
    "rng.draws": "count", "rng.refill_s": "s", "rng.share": "ratio",
    "engine.run_s": "s", "engine.packets": "count", "engine.self_s": "s",
    "engine.ns_per_node_cycle": "ns", "dist.run_s": "s", "dist.frames": "count",
    "dist.frame_bytes": "bytes", "dist.worker_rss_mb": "MB", "dist.speedup": "ratio",
    "algo.diameter_s": "s", "algo.avg_distance_s": "s", "imetrics.exact_s": "s",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- running

class Sample:
    """One child process: timings, resource use and captured output."""

    def __init__(self, wall, setup, cpu, rss_mb, status, stdout, stderr):
        self.wall = wall
        self.setup = setup
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.status = status
        self.stdout = stdout
        self.stderr = stderr


def run_command(cmd, env=None, is_setup_line=None, stop_at_setup=False,
                timeout=COMMAND_TIMEOUT_S):
    """Run `cmd` to completion and measure it from the outside.

    Stdout is read line by line as the child writes it; the time at which
    the first line satisfying `is_setup_line(index, line)` arrives is the
    set-up time (the whole wall time if none does). With `stop_at_setup`
    the child is killed right there. CPU time and peak RSS come from
    `wait4` on this child alone, so they cover the child and the worker
    processes it reaped, and never an earlier child. Whatever is left of
    the child's process group afterwards is killed and reaped.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    killer = threading.Timer(timeout, lambda: _kill_group(proc.pid))
    killer.start()
    setup = None
    lines = []
    try:
        for line in iter(proc.stdout.readline, b""):
            if setup is None and is_setup_line and is_setup_line(len(lines), line):
                setup = time.perf_counter() - t0
                if stop_at_setup:
                    _kill_group(proc.pid)
                    break
            lines.append(line)
        err = b"" if stop_at_setup else proc.stderr.read()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
        _kill_group(proc.pid)
        _reap_descendants()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall=wall, setup=wall if setup is None else setup,
                  cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0,
                  status=proc.returncode, stdout=b"".join(lines), stderr=err)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_descendants():
    """Wait for every orphaned descendant; this process is their
    subreaper (see `become_subreaper`). Returns at once when there are none."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def become_subreaper():
    """Orphaned grandchildren (`ipg worker` processes of a killed
    coordinator) are re-parented here instead of to init, so they can be
    waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def setup_line_for(argv):
    """Set-up ends at `rate:` for simulate (printed after graph, packing
    and router build, before the first cycle) and at the first table row
    for compare (process start plus the first network)."""
    if argv[0] == "simulate":
        return lambda i, line: line.startswith(b"rate:")
    return lambda i, line: i == 1


# ------------------------------------------------------------------ gates

def parse_sim_stdout(text):
    """Pull the counters out of `ipg simulate` output; missing ones are absent."""
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        words = rest.split()
        try:
            if key == "injected":
                out["injected"] = int(words[0])
            elif key == "delivered":
                out["delivered"] = int(words[0])
            elif key == "in flight":
                # "in flight:  0 at end; 736274 drained unmeasured"
                out["in_flight"] = int(words[0])
                out["unmeasured"] = int(words[3])
            elif key == "latency":
                # "latency:    avg 7.59, max 16"
                out["avg_latency"] = words[1].rstrip(",")
                out["max_latency"] = int(words[3])
        except (IndexError, ValueError):
            pass
    return out


def check_sim_values(values, expect):
    """Conservation plus the exact reference counters; returns failure reasons."""
    reasons = []
    need = ("injected", "delivered", "in_flight")
    if any(k not in values for k in need):
        return ["simulate output lacks injected/delivered/in flight"]
    if values["injected"] != values["delivered"] + values["in_flight"]:
        reasons.append("conservation: injected %d != delivered %d + in flight %d"
                       % (values["injected"], values["delivered"], values["in_flight"]))
    for key, want in sorted(expect.items()):
        if values.get(key) != want:
            reasons.append("%s: got %r, want %r" % (key, values.get(key), want))
    return reasons


FIG2_FAMILY = {  # compare row name -> (fig2 family, param)
    "Q12": ("hypercube", "n=12"),
    "torus 64x64": ("2D-torus", "k=64"),
    "S7": ("star", "n=7"),
    "CCC(9)": ("CCC", "n=9"),
    "DB(2,12)": ("deBruijn", "n=12"),
    "HSN(3,Q4)": ("HSN(l,Q4)", "l=3"),
    "ring-CN(3,Q4)": ("ring-CN(l,Q4)", "l=3"),
    "complete-CN(3,Q4)": ("CN(l,Q4)", "l=3"),
    "superflip(3,Q4)": ("superflip(l,Q4)", "l=3"),
}


def check_fig2(table, fig2_rows):
    """Diameter and DD columns of the compare table against Fig. 2 rows of
    the same family and size; returns (failure reasons, rows matched)."""
    index = {(r["family"], r["param"], r["nodes"]): r for r in fig2_rows}
    reasons = []
    matched = 0
    for line in table.splitlines()[1:]:
        name = line[:24].strip()
        cols = line[24:].split()
        if name not in FIG2_FAMILY or len(cols) < 4:
            continue
        family, param = FIG2_FAMILY[name]
        row = index.get((family, param, int(cols[0])))
        if row is None:
            continue
        matched += 1
        if int(cols[2]) != row["diameter"] or float(cols[3]) != row["dd_cost"]:
            reasons.append("%s: diameter/DD %s/%s disagree with fig2 %s/%s"
                           % (name, cols[2], cols[3], row["diameter"], row["dd_cost"]))
    return reasons, matched


def load_fig2():
    with open(os.path.join(ROOT, "results", "fig2_dd_cost.json")) as f:
        return json.load(f)


def read_reference(name):
    with open(os.path.join(REFERENCE_DIR, name), "rb") as f:
        return f.read()


def gate(workload, sample, reference, fig2_rows=None):
    """Every check one workload command must pass; returns failure reasons."""
    spec = WORKLOADS[workload]
    reasons = []
    if sample.status != 0:
        reasons.append("exit status %d: %s" % (sample.status,
                                                sample.stderr.decode(errors="replace").strip()))
    if sample.stdout != reference:
        reasons.append("stdout differs from reference/%s" % spec["reference"])
    text = sample.stdout.decode(errors="replace")
    if spec["expect"] is not None:
        reasons += check_sim_values(parse_sim_stdout(text), spec["expect"])
    else:
        bad, matched = check_fig2(text, fig2_rows if fig2_rows is not None else load_fig2())
        reasons += bad
        if matched == 0:
            reasons.append("no compare row matched results/fig2_dd_cost.json")
    return reasons


# ------------------------------------------------------------- provenance

def _capture(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the sources `ipg` is built from (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(workload, argv, env, seed, seconds, trace):
    return {
        "workload": workload,
        "command": "IPG_THREADS=%s %s" % (env["IPG_THREADS"], shlex.join(["ipg"] + argv)),
        "git_describe": _capture(["git", "describe", "--always", "--dirty", "--tags"])
        or "unavailable (not a git checkout)",
        "source_sha256": source_digest(),
        "rustc": _capture(["rustc", "-V"]) or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "ipg_threads": env["IPG_THREADS"],
        "workers": int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 0,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ------------------------------------------------------------------ build

def build(env):
    """Build `ipg` and `ipg-layers` (release); returns their paths."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "ipg-cli"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(BENCH_DIR, "layers", "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("error: `%s` failed (exit %d)" % (" ".join(cmd), r.returncode))
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    return (os.path.join(target, "release", "ipg"),
            os.path.join(target, "release", "ipg-layers"))


# ---------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs)


def end_to_end_metrics(samples, setups, post_units):
    """Medians over the run's full commands; set-up also over the probes."""
    values = {
        "wall_s": median([s.wall for s in samples]),
        "setup_s": median(setups),
        # Simulated cycles per second after set-up (for compare: cost-table
        # rows per second after the first row; see README.md).
        "sim_cycles_per_s": median([post_units / max(s.wall - s.setup, 1e-9) for s in samples]),
        "cpu_s": median([s.cpu for s in samples]),
        "peak_rss_mb": median([s.rss_mb for s in samples]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_warnings(layers):
    warns = []
    if layers.get("engine.self_s", 0) < 0:
        warns.append("engine.self_s = %.4f s < 0: a replay estimate exceeds the engine run"
                     % layers["engine.self_s"])
    for name in ("tuple_routing.share", "rng.share"):
        if layers.get(name, 0) > 1:
            warns.append("%s = %.3f > 1: a replay estimate exceeds the engine run"
                         % (name, layers[name]))
    return warns


def print_layer_report(workload, layers):
    print("per-layer split (%s); 0 = layer not exercised by this workload" % workload)
    for label, names, e2e, where in LAYERS:
        print("  %s -> %s on %s" % (label, e2e, where))
        for name in names:
            v = layers.get(name, 0)
            shown = "not exercised" if v == 0 else "%.6g %s" % (v, LAYER_UNITS[name])
            print("    %-32s %s" % (name, shown))


def traced_pass(workload, ipg, layers_bin, env, seed, fig2_rows):
    """One untraced command (the reference for the overhead) plus one
    `ipg-layers` pass. Returns (layers, attempted, failed)."""
    argv = WORKLOADS[workload]["argv"]
    dist = "--workers" in argv
    # The in-process run is the untraced counterpart of the traced engine
    # run; for the dist workload that is the same command without workers.
    ref_workload = "sparse-big" if dist else workload
    plain = WORKLOADS[ref_workload]["argv"]
    cli = run_command([ipg] + plain, env=env, is_setup_line=setup_line_for(plain))
    failed = 0
    reasons = gate(ref_workload, cli, read_reference(WORKLOADS[ref_workload]["reference"]), fig2_rows)
    if reasons:
        failed += 1
        print("gate FAILED (untraced %s): %s" % (ref_workload, "; ".join(reasons)))

    cmd = [layers_bin] + argv + ["--seed", str(seed)]
    if dist:
        cmd += ["--ipg", ipg]
    probe = run_command(cmd, env=env)
    reasons = []
    layers = {}
    if probe.status != 0:
        reasons.append("ipg-layers exit %d: %s" % (probe.status, probe.stderr.decode(errors="replace").strip()))
    else:
        out = json.loads(probe.stdout.decode().strip().splitlines()[-1])
        layers = out["layers"]
        expect = WORKLOADS[workload]["expect"]
        if expect is not None:
            reasons += check_sim_values(out["sim"] or {}, expect)
        else:
            ref = read_reference(WORKLOADS[workload]["reference"]).decode().splitlines()[1:]
            if out["rows"] != ref:
                reasons.append("traced cost rows differ from the reference table")
        if dist and out["dist_matches"] is not True:
            reasons.append("run_dist result differs from the in-process result")
        if expect is not None:
            untraced = cli.wall - cli.setup
            layers["trace.overhead_pct"] = 100.0 * (layers["engine.run_s"] / untraced - 1.0)
        else:
            traced = (layers["networks.build_s"] + layers["algo.diameter_s"]
                      + layers["algo.avg_distance_s"] + layers["imetrics.exact_s"])
            layers["trace.overhead_pct"] = 100.0 * (traced / cli.wall - 1.0)
    if reasons:
        failed += 1
        print("gate FAILED (traced %s): %s" % (workload, "; ".join(reasons)))
    return layers, 2, failed


# ------------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    for need in ("Cargo.toml", os.path.join("crates", "ipg-cli"),
                 os.path.join("results", "fig2_dd_cost.json")):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("error: %s not found: run from a full checkout of the repository" % need)
            return 2

    become_subreaper()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["IPG_THREADS"] = "1"
    ipg, layers_bin = build(env)

    spec = WORKLOADS[args.workload]
    argv_ = spec["argv"]
    print("provenance: " + json.dumps(provenance(args.workload, argv_, env, args.seed,
                                                  args.seconds, args.trace), sort_keys=True))
    fig2_rows = load_fig2()
    reference = read_reference(spec["reference"])

    t_start = time.perf_counter()
    attempted = failed = 0
    if args.trace == 0:
        samples = []
        setups = []
        probe_s = 0.0
        while True:
            for _ in range(PROBES_PER_COMMAND):
                if setups and probe_s + median(setups) > SETUP_PROBE_SHARE * args.seconds:
                    break
                t_probe = time.perf_counter()
                s = run_command([ipg] + argv_, env=env, is_setup_line=setup_line_for(argv_),
                                stop_at_setup=True)
                probe_s += time.perf_counter() - t_probe
                setups.append(s.setup)
            s = run_command([ipg] + argv_, env=env, is_setup_line=setup_line_for(argv_))
            samples.append(s)
            setups.append(s.setup)
            attempted += 1
            reasons = gate(args.workload, s, reference, fig2_rows)
            if reasons:
                failed += 1
            print("command %d: wall %.4f s, setup %.4f s, cpu %.4f s, rss %.1f MB, gate %s"
                  % (attempted, s.wall, s.setup, s.cpu, s.rss_mb,
                     "FAILED: " + "; ".join(reasons) if reasons else "ok"))
            elapsed = time.perf_counter() - t_start
            typical = median([x.wall for x in samples])
            if len(samples) >= MIN_SAMPLES and elapsed + typical > args.seconds:
                break
        print("set-up samples: %d (%d full commands + %d set-up-only probes)"
              % (len(setups), len(samples), len(setups) - len(samples)))
        metrics = end_to_end_metrics(samples, setups, spec["post_units"])
    else:
        passes = []
        while True:
            t_pass = time.perf_counter()
            layers, n, bad = traced_pass(args.workload, ipg, layers_bin, env, args.seed, fig2_rows)
            attempted += n
            failed += bad
            if layers:
                passes.append(layers)
            elapsed = time.perf_counter() - t_start
            if elapsed + (time.perf_counter() - t_pass) > args.seconds:
                break
        names = [n for _, group, _, _ in LAYERS for n in group]
        metrics = {n: {"value": median([p.get(n, 0.0) for p in passes]) if passes else 0.0,
                       "unit": LAYER_UNITS[n]} for n in names}
        flat = {n: m["value"] for n, m in metrics.items()}
        print_layer_report(args.workload, flat)
        for w in layer_warnings(flat):
            print("WARNING: " + w)
            log("WARNING: " + w)

    print("failed_frac: %.4f (%d of %d runs failed the output gate)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
