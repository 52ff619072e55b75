#!/usr/bin/env python3
"""Same-host benchmark for meshpram (see README.md in this directory).

Builds the driver binary from source on first use, runs one workload in one
process, checks its oracles, prints every metric by name with its unit, and
prints as its last line one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer ones. Exits non-zero on any failed request or oracle mismatch.

  python3 perfbench/run.py --workload pram-step --seed 1 --seconds 30 --trace 0
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "meshpram_perfbench")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170

WORKLOADS = ["pram-step", "dist-ranks", "algo-cc", "serve-tcp"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    """Metric names and units, from BENCHMARK.json at the repository root."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))
    return ({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# name -> (unit, better) and name -> unit, in the order they are printed.
END_TO_END, PER_LAYER = load_spec()

# The layers each workload loads; a per-layer metric of another layer reads
# 0 there and is listed as not loaded.
LOADED = {
    "pram-step": ("hmos.", "mesh.", "routing.", "protocol.", "dist.",
                  "telemetry.", "trace."),
    "dist-ranks": ("mesh.drain", "routing.", "protocol.", "dist.",
                   "telemetry.", "trace."),
    "algo-cc": ("mesh.", "routing.", "protocol.", "algo.", "telemetry.",
                "trace."),
    "serve-tcp": ("mesh.region", "mesh.drain", "routing.", "protocol.",
                  "serve.", "loadgen.", "telemetry.", "trace."),
}

# The issue's name for each unified metric, per workload kind.
ALIASES = {
    "steps": {"latency_ms_p50": "step_ms_p50", "latency_ms_tail": "step_ms_tail",
              "throughput_per_s": "pram_steps_per_s",
              "mesh_steps_per_op": "mesh_steps_per_pram_step"},
    "algo-cc": {"latency_ms_p50": "solve_ms_p50", "latency_ms_tail": "solve_ms_tail",
                "throughput_per_s": "solves_per_s",
                "mesh_steps_per_op": "mesh_steps_per_pram_step"},
    "serve-tcp": {"latency_ms_p50": "req_ms_p50", "latency_ms_tail": "req_ms_p99",
                  "throughput_per_s": "capacity_rps",
                  "mesh_steps_per_op": "mesh_steps_per_req"},
}


def run_quiet(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("meshpram sources not found next to perfbench/ (expected %s)"
            % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            die("cmake configure failed, see " + log, 3)
    if run_quiet(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
                  "--target", "meshpram_perfbench"], log) != 0:
        die("build failed, see " + log, 3)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_driver(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    if proc.returncode != 0:
        die("%s exited with code %d" % (workload, proc.returncode), 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("%s printed no measurements" % workload, 1)
    raw = json.loads(lines[-1])
    after = cpu_times()
    if before and after and after[1] > before[1]:
        # Time the hypervisor ran something else while this guest wanted to
        # run: a virtual machine's noisy neighbours show here.
        raw["stamps"]["host_steal_pct"] = "%.1f" % (
            100.0 * (after[0] - before[0]) / (after[1] - before[1]))
    return raw


def tail_rule(raw):
    """The latency tail: on serve-tcp the median over the reference segments
    of their p99, elsewhere the highest percentile with at least ten samples
    beyond it. Returns (value, description)."""
    if raw["workload"] == "serve-tcp":
        segments = [r["latency_ms"] for r in raw["reference"]]
        return metrics.segment_median(
            segments, lambda s: metrics.percentile(s, 99)), (
            "median p99 of %d segments, %d samples"
            % (len(segments), sum(len(s) for s in segments)))
    found = metrics.tail(raw["unit_ms"])
    if found is None:
        return None, "too few samples (%d) for a tail" % len(raw["unit_ms"])
    value, pct, count = found
    return value, "p%g of %d samples" % (pct, count)


def serve_p50(raw):
    """Median over the valid reference segments (all, if none is valid) of
    their median latency."""
    valid = [r for r in raw["reference"] if metrics.rung_verdict(r)["valid"]]
    return metrics.segment_median(
        [r["latency_ms"] for r in valid or raw["reference"]], metrics.median)


def end_to_end(raw):
    """Every end-to-end value the run measured, the issue's tail included,
    and a note on how the tail was taken."""
    tail, tail_note = tail_rule(raw)
    units = raw["mesh_units"]
    serve = raw["workload"] == "serve-tcp"
    out = {
        "setup_s": metrics.median(raw["setup_s"]),
        "latency_ms_p50": serve_p50(raw) if serve else
        metrics.median(raw["unit_ms"]),
        "latency_ms_tail": tail,
        "throughput_per_s": raw["throughput_per_s"],
        "mesh_steps_per_op": raw["mesh_steps"] / units if units else None,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return out, tail_note


def per_layer(raw):
    layers = dict(raw["layers"])
    notes = dict(raw["absent"])
    if raw["workload"] == "serve-tcp":
        layers["serve.slo_rps"] = metrics.slo_rps(raw["ladder"])
        layers["loadgen.lag_ms_p99"] = metrics.percentile(
            [x for r in raw["reference"] for x in r["lag_ms"]], 99)
    loaded = LOADED[raw["workload"]]
    out = {}
    for name in PER_LAYER:
        if name in layers and layers[name] is not None:
            out[name] = layers[name]
            continue
        out[name] = 0
        if name not in notes:
            notes[name] = ("not measured" if name.startswith(loaded)
                           else "layer not loaded by this workload")
    return out, notes


def print_ladder(raw):
    print("  serve-tcp ladder (p99 limit %g ms, lag limit %g ms, backlog "
          "limit %d):" % (metrics.SLO_P99_MS, metrics.LAG_LIMIT_MS,
                          metrics.BACKLOG_LIMIT))
    print("    %8s %6s %9s %9s %9s %8s  %s" % ("rate", "sent", "p50_ms",
                                             "p99_ms", "lag_p99", "backlog",
                                             "verdict"))
    rungs = [("reference %d" % i, r) for i, r in enumerate(raw["reference"])]
    rungs += [(None, r) for r in raw["ladder"]]
    for label, rung in rungs:
        v = metrics.rung_verdict(rung)
        p50 = metrics.median(rung["latency_ms"])
        tag = label or ("meets" if v["meets"] else v["reason"])
        if not v["valid"]:
            tag = "INVALID: " + v["reason"]
        print("    %8g %6d %9s %9s %9s %+8d  %s" % (
            rung["rate"], rung["sent"], metrics._fmt(p50),
            metrics._fmt(v["p99_ms"]), metrics._fmt(v["lag_p99_ms"]),
            rung["backlog_end"] - rung["backlog_start"], tag))


def report(raw, args, nproc, sha):
    workload = raw["workload"]
    stamps = dict(raw["stamps"])
    stamps.update({"nproc": str(nproc), "git_sha": sha, "seed": str(args.seed),
                   "seconds": str(args.seconds), "trace": str(args.trace)})
    print("== %s  %s" % (workload, "  ".join(
        "%s=%s" % kv for kv in sorted(stamps.items()))))
    for key, value in sorted(raw["notes"].items()):
        print("  note: %s = %s" % (key, value))
    exact_bad = metrics.exact_failures(raw["exact"])
    for check in raw["exact"]:
        print("  exact: %-52s %s (%d values)" % (
            check["name"], "FAIL" if check["name"] in exact_bad else "ok",
            len(check["a"])))
    for err in raw["errors"]:
        print("  FAILED: " + err)
    failed = raw["failed"] + len(exact_bad)
    share = metrics.failed_share(failed, raw["attempted"])
    print("  failed_share: %.6g (%d failed of %d attempted)"
          % (share, failed, raw["attempted"]))

    e2e, tail_note = end_to_end(raw)
    kind = "steps" if workload in ("pram-step", "dist-ranks") else workload
    if workload == "serve-tcp":
        print_ladder(raw)
        print("  slo_rps: %g req/s" % metrics.slo_rps(raw["ladder"]))
    for name, value in e2e.items():
        if args.trace:
            break  # the untraced runs measure the end-to-end metrics
        alias = ALIASES[kind].get(name, name)
        unit, better = END_TO_END.get(name, ("ms", "lower"))
        extra = " (%s)" % tail_note if name == "latency_ms_tail" else ""
        if name not in END_TO_END:
            extra += " [printed, not gated]"
        print("  %-18s %-26s %14s %-6s %s is better%s" % (
            name, "[" + alias + "]" if alias != name else "",
            metrics._fmt(value), unit, better, extra))

    if args.trace:
        layers, notes = per_layer(raw)
        for name, unit in PER_LAYER.items():
            print("  %-30s %14s %-6s %s" % (name, metrics._fmt(layers[name]),
                                            unit, notes.get(name, "")))
        values, units = layers, PER_LAYER
    else:
        values = {k: e2e[k] for k in END_TO_END}
        units = {k: u for k, (u, _) in END_TO_END.items()}
    missing = [k for k, v in values.items() if v is None]
    for name in missing:
        print("  FAILED: %s could not be measured" % name)
    correct = failed == 0 and raw["attempted"] > 0 and not missing
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": failed + len(missing),
        "metrics": {k: {"value": v if v is not None else 0, "unit": units[k]}
                    for k, v in values.items()},
    }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    nproc = len(os.sched_getaffinity(0))
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        raw = run_driver(workload, args.seed, args.seconds, args.trace)
        results[workload] = report(raw, args, nproc, sha)
        sys.stdout.flush()

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
