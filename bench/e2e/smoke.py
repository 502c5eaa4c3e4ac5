#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (stdlib only).

  python3 bench/e2e/smoke.py [--binary PATH] [--work-dir DIR]

Runs the whole benchmark (every workload, the probes and every traced pass)
at smoke scale twice with the same seed, on two CPUs at once when it may,
and checks that
  * both runs pass their output checks;
  * every workload reports exactly the metrics of BENCHMARK.json, in its
    units;
  * the deterministic metrics (allocs_per_msg, sim_*,
    prof.*.firings_per_msg) and the fleet digests repeat exactly;
  * compare.py, given the two runs, finds nothing regressed;
  * compare.py's verdict rule decides a few fixed cases as documented.
Without --binary, run.py builds sdr_e2e. Exit status 0 when all hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
import compare  # noqa: E402

# Work per workload run: a seed or two of each fleet, the shortest stream
# windows.
SECONDS = 0.2
TIMEOUT_S = 300


def run_benchmark(binary, out, cpu):
    """Starts one full run.py, pinned to `cpu` when given."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "1",
           "--seconds", str(SECONDS), "--out", out]
    if binary:
        cmd += ["--binary", binary]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            preexec_fn=pin, cwd=ROOT)


def finish(proc, label, problems):
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        problems.append("%s: run.py timed out" % label)
        return
    if proc.returncode != 0:
        sys.stdout.write(output)
        problems.append("%s: run.py exited with %d" % (label, proc.returncode))


def check_names(spec, run, label, problems):
    sections = (("metrics", spec["end_to_end"]),
                ("per_layer", spec["per_layer"]))
    want_workloads = [w["name"] for w in spec["workloads"]]
    if sorted(run["workloads"]) != sorted(want_workloads):
        problems.append("%s: workloads %s, not %s"
                        % (label, sorted(run["workloads"]),
                           sorted(want_workloads)))
        return
    for w, entry in sorted(run["workloads"].items()):
        for section, wanted in sections:
            got = {k: v["unit"] for k, v in entry.get(section, {}).items()}
            want = {m["name"]: m["unit"] for m in wanted}
            if got != want:
                problems.append("%s %s: %s names or units differ from "
                                "BENCHMARK.json" % (label, w, section))


def check_repeat(run_a, run_b, problems):
    for w, a in sorted(run_a["workloads"].items()):
        b = run_b["workloads"][w]
        if a["digests"] != b["digests"]:
            problems.append("%s: fleet digests differ" % w)
        for section in ("metrics", "per_layer"):
            for name, s in sorted(a[section].items()):
                other = b[section][name]["value"]
                if compare.exact(name) and s["value"] != other:
                    problems.append("%s %s: %.17g then %.17g"
                                    % (w, name, s["value"], other))


def check_verdict_rule(problems):
    """compare.verdict on fixed cases: (base, change, better, bound, exact,
    expected verdict)."""
    ten = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.2, 99.8]
    cases = [
        (ten, [v * 1.05 for v in ten], "higher", 0.1, False, "better"),
        (ten, [v * 0.85 for v in ten], "higher", 0.1, False, "regressed"),
        (ten, [v * 0.97 for v in ten], "higher", 0.1, False, "same"),
        (ten, [v * 1.05 for v in ten], "lower", 0.1, False, "same"),
        (ten[:3], [v * 1.5 for v in ten[:3]], "higher", 0.1, False,
         "unresolved"),
        ([5.0, 6.0], [5.0, 6.0], "lower", 0.1, True, "same"),
        ([5.0, 6.0], [5.0, 5.5], "lower", 0.1, True, "better"),
        ([5.0, 6.0], [4.0, 6.001], "lower", 0.1, True, "regressed"),
    ]
    for i, (base, change, better, bound, exact, want) in enumerate(cases):
        got, _ = compare.verdict(base, change, better, bound, exact)
        if got != want:
            problems.append("compare.verdict case %d: %s, not %s"
                            % (i, got, want))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", help="the sdr_e2e to run (default: let "
                        "run.py build one)")
    parser.add_argument("--work-dir",
                        default=os.path.join(ROOT, ".bench_build", "smoke"),
                        help="where the two results files go")
    args = parser.parse_args()
    os.makedirs(args.work_dir, exist_ok=True)
    outs = [os.path.join(args.work_dir, "run%d.json" % i) for i in (1, 2)]
    for out in outs:
        if os.path.exists(out):
            os.remove(out)

    problems = []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        procs = [run_benchmark(args.binary, out, cpu)
                 for out, cpu in zip(outs, cpus[-2:])]
        for i, proc in enumerate(procs):
            finish(proc, "run %d" % (i + 1), problems)
    else:
        for i, out in enumerate(outs):
            finish(run_benchmark(args.binary, out, None), "run %d" % (i + 1),
                   problems)

    if not problems:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        runs = []
        for i, out in enumerate(outs):
            with open(out) as f:
                runs.append(json.load(f)["runs"][0])
            check_names(spec, runs[-1], "run %d" % (i + 1), problems)
        if not problems:
            check_repeat(runs[0], runs[1], problems)
        proc = subprocess.run([sys.executable,
                               os.path.join(HERE, "compare.py")] + outs,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            problems.append("compare.py exited with %d" % proc.returncode)
    check_verdict_rule(problems)

    for p in problems:
        print("FAIL: %s" % p)
    if not problems:
        print("bench_e2e_smoke: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
