#!/usr/bin/env python3
"""Host-time benchmark of the simulator: builds it, runs one workload and
prints every metric by name with its unit, then one JSON result line.

    python3 hostbench/run.py --workload <serving|s3_iops|s3_stream> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/hostbench
(default .bench_build/hostbench). --trace 0 reports the end-to-end metrics of
an untraced run; --trace 1 reports the per-layer metrics of a traced run. See
hostbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The seed whose simulated-output digests are committed in digests.json.
DEFAULT_SEED = 1
# Never used while the benchmark was tuned; a claimed gain must also hold
# here, and its printed digest must match between parent and change.
HELD_OUT_SEED = 7919
PROCESS_TIMEOUT_S = 120

# Layer self times that, with unattributed_ms, make up trace.wall_ms.
SELF_TIMES = ["storage.call_ms", "storage.retry_ms", "faas.call_ms",
              "engine.handler_ms", "engine.callback_ms",
              "serving.callback_ms", "client.ms", "unattributed_ms"]


def fail_setup(message):
    """Exits without a result: the benchmark cannot run here."""
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup("no simulator sources at %s/src" % ROOT)
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "hostbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail_setup("build failed: " + " ".join(step))
    return build_dir


def run_process(build_dir, args):
    """Runs the benchmark binary once and returns its JSON line, or None."""
    command = [str(build_dir / "hostbench")] + [str(a) for a in args]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("FAIL %s timed out" % " ".join(command))
        return None
    if done.returncode != 0:
        print("FAIL %s exited %d: %s" % (" ".join(command), done.returncode,
                                        done.stderr.strip()[-2000:]))
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_for(build_dir, configs, seconds):
    """Runs the configurations round-robin, one repetition per process,
    until another round would pass `seconds`. Returns {name: [results]} and
    the names of configurations whose process failed."""
    results = {name: [] for name in configs}
    start = time.monotonic()
    longest_round = 0.0
    while True:
        round_start = time.monotonic()
        for name, args in configs.items():
            result = run_process(build_dir, args)
            if result is None:
                return results, [name]
            results[name].append(result)
        now = time.monotonic()
        longest_round = max(longest_round, now - round_start)
        if now - start + longest_round > seconds:
            return results, []


def med(results, key):
    """Median of one field over a configuration's processes."""
    return statistics.median([r[key] for r in results])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    # The metric names and units are the ones BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = build()
    selftest = subprocess.run([str(build_dir / "hostbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    sys.stdout.write(selftest.stdout)
    checks = [] if selftest.returncode == 0 else [
        "instrumentation self-test failed"]

    base = ["--workload", args.workload, "--seed", args.seed]
    configs = {"untraced": base + ["--trace", 0]}
    spans = None
    if args.trace == 1:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        spans = traces / ("%s-seed%d.csv" % (args.workload, args.seed))
        configs["traced"] = base + ["--trace", 1, "--spans", spans]
        if args.workload == "serving":
            configs["detached"] = base + ["--trace", 1, "--obs", 0]
    runs, lost = run_for(build_dir, configs, args.seconds)
    checks += ["the %s run did not finish" % name for name in lost]

    # Every process of a configuration ran the same seed, so they must agree
    # on the simulated outputs; process errors are counted in "failed".
    failures = []
    attempted = 1
    failed = 0
    for name, results in runs.items():
        for r in results[:1]:
            failures += ["%s: %s" % (name, error) for error in r["errors"]]
            attempted = max(attempted, r["attempted"])
            failed = max(failed, r["failed"])
        if len({(r["digest"], r["events"]) for r in results}) > 1:
            checks.append("%s repetitions of one seed differ in simulated "
                          "output" % name)

    untraced = runs["untraced"]
    traced = runs.get("traced", [])
    detached = runs.get("detached", [])
    if untraced and args.seed == DEFAULT_SEED:
        committed = json.loads((HERE / "digests.json").read_text())
        if committed.get(args.workload) != untraced[0]["digest"]:
            checks.append("digest %s differs from the committed %s" % (
                untraced[0]["digest"], committed.get(args.workload)))
    if untraced and traced and traced[0]["digest"] != untraced[0]["digest"]:
        checks.append("traced and untraced runs differ in simulated output")
    if traced and detached and (
            detached[0]["events"] != traced[0]["events"] or
            detached[0]["latency_digest"] != traced[0]["latency_digest"]):
        checks.append("detaching obs changed events or per-query simulated "
                      "latencies")

    print("workload %s, seed %d (default seed %d, held-out seed %d)" % (
        args.workload, args.seed, DEFAULT_SEED, HELD_OUT_SEED))
    metrics = {}
    if untraced:
        first = untraced[0]
        print("simulated-output digest %s (%d events, %.3f simulated s, "
              "%d repetitions)" % (first["digest"], first["events"],
                                   first["sim_s"], len(untraced)))
    if args.trace == 0 and untraced:
        # Percentiles are taken per process, over its own slices, and then
        # the median over processes is reported like every other figure.
        p50s = [percentile(r["slices"], 0.50) for r in untraced]
        p99s = [percentile(r["slices"], 0.99) for r in untraced]
        beyond = min(sum(v > p99 for v in r["slices"])
                     for r, p99 in zip(untraced, p99s))
        values = {
            "wall_s": med(untraced, "wall_s"),
            "host_ms_per_sim_s_p50": statistics.median(p50s),
            "host_ms_per_sim_s_p99": statistics.median(p99s),
            "peak_rss_mib": med(untraced, "peak_rss_mib"),
            "setup_s": med(untraced, "setup_s"),
        }
        for name, unit in end_to_end:
            metrics[name] = metric(values[name], unit)
        print("slices: %d of %g simulated s per repetition, at least %d "
              "beyond p99" % (len(first["slices"]), first["slice_s"], beyond))
    elif traced and untraced:
        # Per-layer figures come from the traced repetition with the median
        # traced wall time, so its self times still add up exactly.
        ordered = sorted(traced, key=lambda r: r["counts"]["trace.wall_ms"])
        pick = ordered[(len(ordered) - 1) // 2]
        counts = dict(pick["counts"])
        # Kernel counters and the allocation total come from the untraced
        # runs: the wrappers allocate, and their larger callbacks would
        # overstate heap_callbacks and events/s.
        for name in untraced[0]["counts"]:
            if name.startswith("sim.") or name == "alloc.count":
                counts[name] = statistics.median(
                    [r["counts"][name] for r in untraced])
        counts["trace.overhead"] = (med(traced, "wall_s") -
                                    med(untraced, "wall_s"))
        if detached:
            counts["obs.wall_share"] = (
                (med(traced, "wall_s") - med(detached, "wall_s")) /
                med(traced, "wall_s"))
            counts["obs.rss_mib"] = (med(traced, "peak_rss_mib") -
                                     med(detached, "peak_rss_mib"))
            counts["obs.allocs"] = (med(traced, "allocs") -
                                    med(detached, "allocs"))
        for name, unit in per_layer:
            metrics[name] = metric(counts.get(name, 0), unit)
        parts = sum(counts.get(name, 0) for name in SELF_TIMES)
        wall = counts["trace.wall_ms"]
        print("layer self times sum to %.6f ms of %.6f ms traced wall time "
              "(%d traced repetitions)" % (parts, wall, len(traced)))
        if abs(parts - wall) > 1e-6 * max(1.0, wall):
            checks.append("layer self times do not sum to the traced wall "
                          "time")
        print("spans of the last traced repetition: %d written to %s, %d more "
              "in per-layer totals only" % (traced[-1]["spans_kept"], spans,
                                            traced[-1]["dropped_spans"]))
    failed += len(checks)
    for name, entry in metrics.items():
        print("%-26s %20.6f %s" % (name, entry["value"], entry["unit"]))
    # Not a BENCHMARK.json metric: it is 0 on every passing run. The JSON
    # line carries it as failed / attempted.
    print("%-26s %20.6f ratio (%d failed of %d attempted)" % (
        "failed_fraction", failed / attempted, failed, attempted))
    failures += checks
    for failure in failures:
        print("FAIL " + failure)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
