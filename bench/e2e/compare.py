#!/usr/bin/env python3
"""Compare two results files of bench/e2e/run.py (stdlib only).

  python3 bench/e2e/compare.py PARENT.json CHANGE.json

Run i of one file is paired with run i of the other, and both must have
used the same seed and run length; make them by alternating the two commits
(see README.md). For every workload and end-to-end metric of BENCHMARK.json
the verdict is, for the wall-clock metrics:

  better      the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's own
              spread (its interquartile range);
  regressed   the change's median is worse than the parent's by more than the
              metric's bound;
  unresolved  fewer than 10 pairs were run, or the parent's spread exceeds
              the bound and not every change run beats every parent run;
  same        otherwise;

and for the deterministic ones (allocs_per_msg, sim_*), which repeat exactly
for a seed, so that any difference is a change in what the program does:

  regressed   worse in any pair;
  better      better in some pair and worse in none;
  same        identical in every pair.

It also checks the failed share, flags runs whose output checks failed,
warns when a fleet completion digest differs for the same seed, and notes
per-layer counts (prof.*.firings_per_msg) that differ. Per-layer medians are
printed side by side without a verdict. Exit status 1 when anything
regressed, failed more often or failed its checks; 2 on unusable input.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GAIN_WIN_SHARE = 0.9
MIN_PAIRS = 10


def exact(name):
    """Metrics that repeat exactly for one seed and one run length."""
    return (name == "allocs_per_msg" or name.startswith("sim_")
            or name.endswith(".firings_per_msg"))


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base, change, better, bound, exact_metric):
    """Verdict and pair wins of `change` against `base` (paired lists)."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - b) for b, c in zip(base, change)]
    wins = sum(1 for d in diffs if d > 0)
    if exact_metric:
        if any(d < 0 for d in diffs):
            return "regressed", wins
        return ("better" if wins else "same"), wins
    if len(base) < MIN_PAIRS:
        return "unresolved", wins
    mb, mc = statistics.median(base), statistics.median(change)
    gain = sign * (mc - mb)
    scale = abs(mb) or 1.0
    if wins >= GAIN_WIN_SHARE * len(base) and gain > iqr(base):
        return "better", wins
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if iqr(base) / scale > bound and not all_better:
        return "unresolved", wins
    if -gain / scale > bound:
        return "regressed", wins
    return "same", wins


def values(runs, workload, section, metric):
    return [r["workloads"][workload][section][metric]["value"] for r in runs]


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(sys.argv[1]) as f:
        base_runs = json.load(f)["runs"]
    with open(sys.argv[2]) as f:
        change_runs = json.load(f)["runs"]
    n = min(len(base_runs), len(change_runs))
    if n == 0:
        sys.stderr.write("compare.py: a results file holds no runs\n")
        return 2
    if len(base_runs) != len(change_runs):
        print("warning: %d vs %d runs; comparing the first %d pairs"
              % (len(base_runs), len(change_runs), n))
    base_runs, change_runs = base_runs[:n], change_runs[:n]
    unpaired = [i for i in range(n)
                if (base_runs[i]["seed"], base_runs[i]["seconds"])
                != (change_runs[i]["seed"], change_runs[i]["seconds"])]
    if unpaired:
        sys.stderr.write("compare.py: run %d differs in seed or run length "
                         "between the files\n" % unpaired[0])
        return 2

    bad = False
    print("%-16s %-18s %14s %14s %8s %6s %5s  %s"
          % ("workload", "metric", "parent", "change", "delta", "bound",
             "wins", "verdict"))
    for w in (x["name"] for x in spec["workloads"]):
        if not all(w in r["workloads"] for r in base_runs + change_runs):
            continue
        for m in spec["end_to_end"]:
            b = values(base_runs, w, "metrics", m["name"])
            c = values(change_runs, w, "metrics", m["name"])
            v, wins = verdict(b, c, m["better"], m["bound"], exact(m["name"]))
            mb, mc = statistics.median(b), statistics.median(c)
            delta = (mc - mb) / abs(mb) * 100 if mb else 0.0
            print("%-16s %-18s %14.6g %14.6g %+7.2f%% %5.0f%% %2d/%-2d  %s"
                  % (w, m["name"], mb, mc, delta, m["bound"] * 100, wins, n,
                     v))
            bad = bad or v == "regressed"

        shares = []
        for runs in (base_runs, change_runs):
            attempted = sum(r["workloads"][w]["attempted"] for r in runs)
            failed = sum(r["workloads"][w]["failed"] for r in runs)
            shares.append(failed / attempted if attempted else 0.0)
        if shares[1] > shares[0]:
            print("%-16s failed share rose: %.3g -> %.3g"
                  % (w, shares[0], shares[1]))
            bad = True
        for label, runs in (("parent", base_runs), ("change", change_runs)):
            for r in runs:
                if not r["workloads"][w]["correct"]:
                    print("%-16s %s run (seed %d) failed its output checks"
                          % (w, label, r["seed"]))
                    bad = True

        for pb, pc, seed in ((b["workloads"][w], c["workloads"][w], b["seed"])
                             for b, c in zip(base_runs, change_runs)):
            for fleet_seed, digest in sorted(pb["digests"].items()):
                other = pc["digests"].get(fleet_seed)
                if other is not None and other != digest:
                    print("warning: %s fleet seed %s digest %s -> %s: "
                          "protocol behaviour changed"
                          % (w, fleet_seed, digest, other))
            for name, s in pb.get("per_layer", {}).items():
                other = pc.get("per_layer", {}).get(name)
                if exact(name) and other and other["value"] != s["value"]:
                    print("note: %s %s differs for seed %d: %.17g -> %.17g"
                          % (w, name, seed, s["value"], other["value"]))

    print("\nper-layer medians (no verdict; they show where a change acts)")
    for w in (x["name"] for x in spec["workloads"]):
        if not all("per_layer" in r["workloads"].get(w, {})
                   for r in base_runs + change_runs):
            continue
        for m in spec["per_layer"]:
            mb = statistics.median(values(base_runs, w, "per_layer",
                                          m["name"]))
            mc = statistics.median(values(change_runs, w, "per_layer",
                                          m["name"]))
            delta = ("%+7.2f%%" % ((mc - mb) / abs(mb) * 100) if mb
                     else "      -")
            print("%-16s %-32s %14.6g %14.6g %s %s"
                  % (w, m["name"], mb, mc, delta, m["unit"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
