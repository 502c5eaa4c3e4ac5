#!/usr/bin/env python3
"""End-to-end benchmark runner for the SDR-RDMA simulator (stdlib only).

Builds the `sdr_e2e` program from this directory's CMake project into
.bench_build/e2e at the repository root, then runs it one single-threaded
process at a time, pinned to one CPU with OMP_NUM_THREADS=1.

Two ways to run it, both from the repository root:

  python3 bench/e2e/run.py [--seed S] [--seconds T] [--out results.json]
      Every workload untraced, then the layer probes, then one traced pass
      per workload. Prints every metric with its unit, median, quartiles and
      sample count, and writes (or with --append, extends) results.json.

  python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
      One workload. The last stdout line is one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics of
      BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

--binary PATH runs an sdr_e2e built elsewhere (the smoke test passes the
one CMake built) instead of building one. Exit status is 0 only when every
output check passed.
"""

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = None  # the sdr_e2e in use, set once by main()
CHILD_TIMEOUT_S = 170
# Typical times of the two host-speed reference kernels (host_speed.cpp) on
# the 4-vCPU x86 VM the bounds were sized on. Wall-clock metrics are scaled
# by measured / nominal reference time, averaged over the two kernels, so a
# host slowed by other tenants reports about what it would at nominal speed.
HOST_HEAP_NOMINAL_S = 0.004
HOST_ALU_NOMINAL_S = 0.0043
PROF_CATEGORIES = ("sim", "channel", "sdr", "sr", "ec", "rc")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values, unit):
    """Median, quartiles and count of a list of numbers, with their unit."""
    values = [float(v) for v in values]
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit}


# ---------------------------------------------------------------------------
# Build and child processes
# ---------------------------------------------------------------------------

def build():
    """Builds sdr_e2e with the repository's own CMake project (see
    CMakeLists.txt here) and returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources (src/) not found next to "
                         "bench/e2e; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout build one at a time.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "sdr_e2e",
                      "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "sdr_e2e")


def pin_cpu():
    """Pins this process (and so every child) to one CPU; returns it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(args):
    """Runs sdr_e2e with `args`; returns its JSON line, raising on a crash.
    A run whose output checks failed returns normally with its errors."""
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("sdr_e2e %s timed out" % " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError("sdr_e2e %s exited with %d"
                         % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def host_slowdown(unit):
    """How much slower than nominal the host ran next to `unit`."""
    return (unit["host_heap_s"] / HOST_HEAP_NOMINAL_S
            + unit["host_alu_s"] / HOST_ALU_NOMINAL_S) / 2.0


def workload_metrics(res):
    """End-to-end metrics of one untraced workload run."""
    units = res["units"]
    run_slowdown = statistics.median(host_slowdown(u) for u in units)
    return {
        "msgs_per_s": summarize((u["msgs"] / u["wall_s"] * host_slowdown(u)
                                 for u in units), "1/s"),
        "setup_s": summarize((s / run_slowdown for s in res["setup_s"]),
                             "s"),
        "peak_rss_mib": summarize([res["max_rss_kib"] / 1024.0], "MiB"),
        "allocs_per_msg": summarize([res["allocs"] / res["completed"]],
                                    "count"),
        "sim_goodput_gbps": summarize((u["sim_goodput_gbps"] for u in units),
                                      "Gbit/s"),
        "sim_p99_ms": summarize((u["sim_p99_ms"] for u in units), "ms"),
    }


def probe_metrics(res):
    return {name: summarize(p["windows"], p["unit"])
            for name, p in res["probes"].items()}


def traced_metrics(res):
    """Per-layer metrics of one traced pass: profiler firings and self-time
    shares per category, the tracing overhead, and counts from the untraced
    unit's public results."""
    unit = res["units"][0]
    msgs = unit["msgs"]
    total_ns = sum(c["self_ns"] for c in res["prof"].values())
    out = {}
    for cat in PROF_CATEGORIES:
        entry = res["prof"][cat]
        out["prof.%s.firings_per_msg" % cat] = (entry["calls"] / msgs,
                                                "count")
        out["prof.%s.self_pct" % cat] = (100.0 * entry["self_ns"] / total_ns,
                                         "%")
    out["prof.self_ns_per_msg"] = (total_ns / msgs, "ns")
    out["prof.overhead_ratio"] = (res["traced_wall_s"] / unit["wall_s"],
                                  "ratio")
    out["reliability.retx_per_msg"] = (unit["retransmissions"] / msgs,
                                       "count")
    out["fleet.peak_concurrent"] = (unit["peak_concurrent"], "count")
    return {k: summarize([v], u) for k, (v, u) in out.items()}


def probe_window_s(seconds):
    """Probe window length: 0.2 s at the default run length, shorter for
    short smoke runs (13 timed probes x 5 windows)."""
    return min(0.2, seconds / 50.0)


def run_workload(name, seed, seconds):
    res = run_child(["--workload=" + name, "--seed=%d" % seed,
                     "--seconds=%s" % seconds])
    return res, workload_metrics(res)


def run_layers(name, seed, seconds, probes=None):
    """Per-layer metrics for one workload: the probes (run here unless
    already given) plus the workload's traced pass."""
    if probes is None:
        probes = run_child(["--probe=all",
                            "--window=%s" % probe_window_s(seconds)])
    traced = run_child(["--workload=" + name, "--seed=%d" % seed,
                        "--seconds=%s" % seconds, "--traced"])
    metrics = probe_metrics(probes)
    metrics.update(traced_metrics(traced))
    return probes, traced, metrics


def errors_of(*results):
    return [e for r in results for e in r["errors"]]


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def single(args, spec):
    """One workload, one JSON result line (the benchmark contract)."""
    if args.trace:
        probes, traced, metrics = run_layers(args.workload, args.seed,
                                             args.seconds)
        counted = traced
        wanted = spec["per_layer"]
        errors = errors_of(probes, traced)
    else:
        counted, metrics = run_workload(args.workload, args.seed,
                                        args.seconds)
        wanted = spec["end_to_end"]
        errors = errors_of(counted)
    for e in errors:
        sys.stderr.write("check failed: %s\n" % e)
    check_names(wanted, metrics)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": counted["posted"],
        "failed": counted["posted"] - counted["completed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(cpu, isa):
    commit = git("rev-parse", "--short", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "ec_isa": isa,
        "pinned_cpu": cpu,
        "omp_threads": 1,
        "python": platform.python_version(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def check_names(wanted, metrics):
    """The metrics produced are exactly `wanted`, in its units."""
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in metrics]
    extra = [n for n in metrics if n not in names]
    wrong = ["%s in %s, not %s" % (m["name"], metrics[m["name"]]["unit"],
                                   m["unit"])
             for m in wanted if m["name"] in metrics
             and metrics[m["name"]]["unit"] != m["unit"]]
    for what, items in (("not produced", missing), ("not in BENCHMARK.json",
                                                    extra), ("unit", wrong)):
        if items:
            raise BenchError("metrics %s: %s" % (what, ", ".join(items)))


def print_metric(workload, name, summary):
    print("%-16s %-32s %14.6g %-7s [q1 %.6g, q3 %.6g, n=%d]"
          % (workload, name, summary["value"], summary["unit"],
             summary["q1"], summary["q3"], summary["n"]))


def full(args, spec, cpu):
    """Every workload untraced, the probes, then every traced pass."""
    names = [w["name"] for w in spec["workloads"]]
    run = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    isa = None
    for name in names:
        res, metrics = run_workload(name, args.seed, args.seconds)
        check_names(spec["end_to_end"], metrics)
        isa = res["isa"]
        errors = errors_of(res)
        ok = ok and not errors
        run["workloads"][name] = {
            "correct": not errors,
            "errors": errors,
            "attempted": res["posted"],
            "failed": res["posted"] - res["completed"],
            "metrics": metrics,
            "digests": {str(u["seed"]): u["digest"] for u in res["units"]
                        if u["digest"] != "0000000000000000"},
        }
        for m in spec["end_to_end"]:
            print_metric(name, m["name"], metrics[m["name"]])
    probes = run_child(["--probe=all",
                        "--window=%s" % probe_window_s(args.seconds)])
    ok = ok and not probes["errors"]
    for name in names:
        _, traced, metrics = run_layers(name, args.seed, args.seconds,
                                        probes)
        check_names(spec["per_layer"], metrics)
        entry = run["workloads"][name]
        entry["per_layer"] = metrics
        errors = errors_of(traced) + probes["errors"]
        entry["errors"] += errors
        entry["correct"] = entry["correct"] and not errors
        ok = ok and not errors
        for m in spec["per_layer"]:
            print_metric(name, m["name"], metrics[m["name"]])
    for name in names:
        for e in run["workloads"][name]["errors"]:
            print("check failed: %s: %s" % (name, e))

    results = {"runs": []}
    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            results = json.load(f)
    run["provenance"] = provenance(cpu, isa)
    results["runs"].append(run)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    print("wrote %s (%d run%s)" % (args.out, len(results["runs"]),
                                   "" if len(results["runs"]) == 1 else "s"))
    return 0 if ok else 1


def main():
    global BINARY
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (see "
                        "BENCHMARK.json) and print one JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="work per workload run, in seconds of this "
                        "host's time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer "
                        "metrics instead of the end-to-end ones")
    parser.add_argument("--out", default="results.json",
                        help="results file of the full run")
    parser.add_argument("--append", action="store_true",
                        help="add this run to an existing results file")
    parser.add_argument("--binary", help="an sdr_e2e to run instead of "
                        "building one")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        if args.workload is not None and args.workload not in [
                w["name"] for w in spec["workloads"]]:
            raise BenchError("unknown workload %r" % args.workload)
        BINARY = os.path.abspath(args.binary) if args.binary else build()
        cpu = pin_cpu()
        if args.workload is not None:
            return single(args, spec)
        return full(args, spec, cpu)
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
