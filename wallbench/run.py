#!/usr/bin/env python3
"""wallbench: wall-clock cost of the ulnet simulator, end to end and per layer.

Builds the simulator from ../src (CMake, into .bench_build/ at the repo
root), then runs one workload -- or all four -- as repeated fresh-process
repetitions of the `wallbench` driver until --seconds have passed, checks
every repetition's outputs, and prints each metric with its unit.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from the untraced binary.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced binary (medians), plus trace.overhead_frac
(traced wall_s / untraced wall_s - 1).

The run fails (nonzero exit, "correct": false) when a repetition's checks
fail, when repetitions of the same seed disagree on the simulated-outcome
digest, when traced and untraced digests differ, or when the two fabric
executors (fabric_serial, fabric_par) disagree on the same seed; each fabric
run makes one untimed repetition on the other executor. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")

WORKLOADS = ["bulk_eth", "rr_small", "fabric_serial", "fabric_par"]
CROSS_CHECK = {"fabric_serial": "fabric_par", "fabric_par": "fabric_serial"}
MIN_REPS = 3
REP_TIMEOUT_S = 150

# name -> unit, for the end-to-end metrics (untraced binary).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "wall_ns_per_pkt": "ns",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit, for the per-layer metrics (traced binary).
PER_LAYER = {}
for _layer in ["harness", "api", "core.lib", "core.registry", "core.netio",
               "proto", "timer", "buf", "filter", "os", "os.exec", "hw",
               "net", "sim", "baseline"]:
    PER_LAYER[_layer + ".calls"] = "count"
    PER_LAYER[_layer + ".self_ms"] = "ms"
PER_LAYER.update({
    "timer.ops": "count",
    "timer.ns_per_op": "ns",
    "timer.live_peak": "count",
    "timer.cancel_frac": "ratio",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.cancel_frac": "ratio",
    "buf.pool_acquires_per_pkt": "count/pkt",
    "buf.pool_hit_frac": "ratio",
    "buf.bytes_copied_per_pkt": "B/pkt",
    "buf.payload_copy_frac": "ratio",
    "proto.segments": "count",
    "proto.ns_per_segment": "ns",
    "proto.rtx_frac": "ratio",
    "core.netio.demux_hash_hit_frac": "ratio",
    "core.netio.ring_drops": "count",
    "core.registry.handshakes": "count",
    "core.registry.sweeps": "count",
    "os.ipc_messages": "count",
    "os.context_switches": "count",
    "os.semaphore_wakeups": "count",
    "os.exec.windows": "count",
    "os.exec.busy_ms": "ms",
    "os.exec.stall_ms": "ms",
    "os.exec.stall_frac": "ratio",
    "os.exec.mailbox_entries": "count",
    "os.exec.mailbox_depth_hw": "count",
    "net.frames": "count",
    "net.ns_per_frame": "ns",
    "net.frames_lost": "count",
    "hw.interrupts": "count",
    "hw.rx_dropped": "count",
    "trace.spans": "count",
    "trace.self_ms": "ms",
    "trace.span_cost_ns": "ns",
    "trace.overhead_frac": "ratio",
})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds both binaries; False if that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("wallbench: no src/CMakeLists.txt next to %s" % HERE)
        return False
    if shutil.which("cmake") is None:
        log("wallbench: cmake not found")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "wallbench",
           "wallbench_traced"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def rep(traced, workload, seed, size, spans=None):
    """One fresh-process repetition; its JSON report, or None on a crash."""
    exe = os.path.join(BUILD, "wallbench_traced" if traced else "wallbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--size", size]
    if spans:
        cmd += ["--spans", spans]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("wallbench: %s timed out" % " ".join(cmd))
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        log("wallbench: %s exited %d" % (" ".join(cmd), p.returncode))
        return None
    return json.loads(lines[-1])


# Interference from other tenants of a shared host only ever adds time, and
# it comes and goes within milliseconds. Each repetition times every slice
# of one simulated second, and a seed fixes the work of each slice, so the
# fastest time of each slice over the repetitions estimates its uncontended
# cost; their sum is the run's time (README.md, "End-to-end metrics").
def best_slices(reps, key):
    return sum(min(column) for column in zip(*(r[key] for r in reps)))


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def run_workload(workload, args, deadline):
    """Repeats until the deadline; returns (summary dict, problems list)."""
    problems = []
    plain, traced = [], []
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_build", "spans"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_build", "spans", "%s-%s-seed%d.csv"
                             % (workload, args.size, args.seed))
    # The two fabric executors must reach the same outcome; an untimed
    # repetition on the other one checks that.
    other = CROSS_CHECK.get(workload)
    reference = None
    if other:
        reference = rep(False, other, args.seed, args.size)
        if reference is None:
            problems.append("%s cross-check run failed" % other)
    while True:
        r = rep(False, workload, args.seed, args.size)
        if r is None:
            problems.append("a repetition crashed")
            break
        plain.append(r)
        if args.trace:
            t = rep(True, workload, args.seed, args.size, spans)
            spans = None  # keep the spans of the first traced repetition
            if t is None:
                problems.append("a traced repetition crashed")
                break
            traced.append(t)
        if len(plain) >= MIN_REPS and time.monotonic() >= deadline:
            break

    everything = plain + traced
    save_reps(workload, args, everything)
    if any(not r["ok"] for r in everything):
        problems.append("output checks failed")
    digests = {r["digest"] for r in everything}
    if len(digests) > 1:
        problems.append("digests disagree: %s" % sorted(digests))
    if len({len(r["slice_wall_s"]) for r in everything}) > 1:
        problems.append("repetitions ran different numbers of slices")
    if reference is not None and plain and \
            reference["digest"] != plain[0]["digest"]:
        problems.append("%s digest %s != %s digest %s" %
                        (workload, plain[0]["digest"], other,
                         reference["digest"]))
    return {"plain": plain, "traced": traced}, problems


def save_reps(workload, args, reps):
    """Keeps every repetition's report under .bench_build/reps/."""
    d = os.path.join(ROOT, ".bench_build", "reps")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%s-seed%d-trace%d.json" %
                        (workload, args.size, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(reps, f)


def summarize(runs, trace):
    """Metric name -> (value, unit) for the chosen mode: wall and CPU times
    are sums of per-slice minima, everything else a median."""
    plain, traced = runs["plain"], runs["traced"]
    out = {}
    if not trace:
        wall_s = best_slices(plain, "slice_wall_s")
        values = {
            "wall_s": wall_s,
            "setup_s": median(plain, "setup_s"),
            "wall_ns_per_pkt": wall_s * 1e9 / plain[0]["packets"],
            "cpu_s": best_slices(plain, "slice_cpu_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
        }
        return {name: (values[name], unit)
                for name, unit in END_TO_END.items()}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = (best_slices(traced, "slice_wall_s") /
                     best_slices(plain, "slice_wall_s") - 1.0)
        else:
            value = statistics.median(t["layers"][name] for t in traced)
        out[name] = (value, unit)
    return out


def clocksource():
    try:
        with open("/sys/devices/system/clocksource/clocksource0/"
                  "current_clocksource") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=["full", "short"],
                    help="short: small inputs, for the benchmark's own tests")
    args = ap.parse_args()

    if not build():
        log("wallbench: build failed")
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results, problems, host = {}, [], None
    attempted = failed = 0
    for w in workloads:
        deadline = time.monotonic() + args.seconds
        runs, probs = run_workload(w, args, deadline)
        problems += ["%s: %s" % (w, p) for p in probs]
        reps = runs["plain"] + runs["traced"]
        attempted += sum(r["attempted"] for r in reps)
        failed += sum(r["failed"] for r in reps)
        if not runs["plain"] or (args.trace and not runs["traced"]):
            continue
        host = host or runs["plain"][0]["host"]
        results[w] = (summarize(runs, args.trace), runs)

    if host:
        host = dict(host, clocksource=clocksource())
        print("host: " + json.dumps(host, sort_keys=True))
    for w, (metrics, runs) in results.items():
        plain = runs["plain"]
        reps = plain + runs["traced"]
        att = sum(r["attempted"] for r in reps)
        err = sum(r["failed"] for r in reps) / att if att else 1.0
        print("%s: seed %d, %d untraced + %d traced repetitions, "
              "error_rate %.6g, digest %s" %
              (w, args.seed, len(plain), len(runs["traced"]), err,
               plain[0]["digest"]))
        for k, v in sorted(plain[0]["sim"].items()):
            print("  %-32s %14.6g  (simulated)" % (k, v))
        for name, (value, unit) in metrics.items():
            spread = ""
            if name in END_TO_END and len(plain) >= 2:
                q = statistics.quantiles([r[name] for r in plain], n=4)
                spread = "  (per repetition: median %.6g, q1 %.6g, q3 %.6g, n %d)" % (
                    q[1], q[0], q[2], len(plain))
            print("  %-32s %14.6g  %s%s" % (name, value, unit, spread))
    for p in problems:
        print("FAILED " + p)

    flat = {}
    for w, (metrics, _) in results.items():
        prefix = "" if len(workloads) == 1 else w + "."
        for name, (value, unit) in metrics.items():
            flat[prefix + name] = {"value": value, "unit": unit}
    correct = not problems and len(results) == len(workloads)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
