#!/usr/bin/env python3
"""Line and function coverage of src/: what tier-1 reaches, what the programs reach.

Usage (from anywhere; needs cmake, a C++20 compiler with gcov, python3):

    python3 tools/coverage.py

Builds an instrumented tree in build-coverage/ (Debug, --coverage -O0),
then measures two phases over the same binaries:

  tests     `ctest -L tier1` (unit tests, example smoke tests, the
            trace_explorer golden and the bench/e2e smoke test);
  programs  sdrcheck (1000-seed batch and a traced seed-1 replay), every
            bench with its CI arguments and again with its documented
            telemetry/sweep flags, every example with its tier-1
            arguments, sdr_cpuinfo, and bench/e2e/run.py at 0.2 s per run,
            one program per core at a time.

After each phase it runs `gcov --json-format --stdout` over every object
file, keeps the raw output (build-coverage/coverage/gcov-<phase>.json.gz)
and deletes the counters. It then writes docs/COVERAGE.md: executable
src/ lines and functions per module that no phase reaches and that only
tier-1 reaches, and the sorted `path:line function` lists of both classes.
The report carries no hit counts or timings, so a rerun diffs cleanly
except where a threaded path moves a line between runs.

Exit status is nonzero only when the build, the tier-1 suite or sdrcheck
fails; bench and example exit codes are recorded in the report.
"""

import argparse
import concurrent.futures
import gzip
import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-coverage")
WORK = os.path.join(BUILD, "coverage")
REPORT = os.path.join(ROOT, "docs", "COVERAGE.md")
JOBS = os.cpu_count() or 1

# Arguments CI's smoke step gives a bench; every other bench runs with its
# built-in defaults.
CI_BENCH_ARGS = {
    "bench_simcore": ["0.05"],
    "bench_datapath": ["0.05"],
    "bench_fleet": ["0.25"],
    "bench_fig11_ec_encode": ["--benchmark_min_time=0.01"],
}


class Failure(Exception):
    pass


def log(msg):
    print("[coverage] " + msg, flush=True)


def run(cmd, cwd=ROOT, out=None):
    """Runs cmd; returns its exit code. Output goes to the file `out` if set."""
    log(" ".join(cmd))
    start = time.monotonic()
    if out is None:
        code = subprocess.call(cmd, cwd=cwd)
    else:
        with open(out, "w") as f:
            code = subprocess.call(cmd, cwd=cwd, stdout=f,
                                   stderr=subprocess.STDOUT)
    log("  exit %d after %.0f s" % (code, time.monotonic() - start))
    return code


def must(cmd, what, cwd=ROOT):
    if run(cmd, cwd=cwd) != 0:
        raise Failure(what + " failed: " + " ".join(cmd))


def build():
    must(["cmake", "-B", BUILD, "-S", ROOT, "-DCMAKE_BUILD_TYPE=Debug",
          "-DCMAKE_CXX_FLAGS=--coverage -O0",
          "-DCMAKE_EXE_LINKER_FLAGS=--coverage"], "configure")
    must(["cmake", "--build", BUILD, "-j", str(JOBS)], "build")


def counter_files(suffix):
    for dirpath, _, names in os.walk(BUILD):
        for name in names:
            if name.endswith(suffix):
                yield dirpath, name


def delete_counters():
    for dirpath, name in counter_files(".gcda"):
        os.remove(os.path.join(dirpath, name))


def collect(phase):
    """Runs gcov over every object file, then deletes the counters.

    Returns, per src/ file, {line: reached} and {(line, column): (names,
    reached)}. Template instantiations share a start position and count as
    one function, reached if any instantiation is.
    """
    by_dir = defaultdict(list)
    for dirpath, name in counter_files(".gcno"):
        by_dir[dirpath].append(name)
    lines = defaultdict(dict)
    funcs = defaultdict(dict)
    raw = os.path.join(WORK, "gcov-%s.json.gz" % phase)
    with gzip.open(raw, "wt") as sink:
        for objdir in sorted(by_dir):
            # Objects without a .gcda were never executed; gcov reports
            # them with zero counts (and a warning on stderr).
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout"] + sorted(by_dir[objdir]),
                cwd=objdir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=False).stdout
            for doc in out.splitlines():
                if not doc.startswith("{"):
                    continue
                sink.write(doc + "\n")
                doc = json.loads(doc)
                for f in doc["files"]:
                    path = src_path(doc, f["file"])
                    if path is None:
                        continue
                    hits = lines[path]
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        hits[n] = hits.get(n, False) or ln["count"] > 0
                    for fn in f["functions"]:
                        key = (fn["start_line"], fn["start_column"])
                        names, hit = funcs[path].get(key, (set(), False))
                        names.add(fn["demangled_name"])
                        funcs[path][key] = (names,
                                            hit or fn["execution_count"] > 0)
    delete_counters()
    log("%s: gcov output in %s" % (phase, os.path.relpath(raw, ROOT)))
    return lines, funcs


def src_path(doc, name):
    """Repository-relative path of a src/ file, else None. A file deleted
    since an earlier build still has stale notes in build-coverage/; it is
    skipped too."""
    path = os.path.realpath(
        os.path.join(doc["current_working_directory"], name))
    rel = os.path.relpath(path, ROOT)
    if not rel.startswith("src" + os.sep) or not os.path.exists(path):
        return None
    return rel


def tool(name):
    return os.path.join(BUILD, "tools", name)


def programs():
    """Runs every program, JOBS at a time (gcov merges the counters of
    concurrent processes); returns [(command line, exit code)] in list
    order."""
    logs = os.path.join(WORK, "logs")
    os.makedirs(logs, exist_ok=True)
    jobs = []  # (label, argv, required)
    jobs.append(("sdrcheck_batch",
                 [tool("sdrcheck"), "--seeds=1000", "--jobs=4"], True))
    jobs.append(("sdrcheck_seed1",
                 [tool("sdrcheck"), "--seed=1", "--trace-perfetto=" +
                  os.path.join(WORK, "sdrcheck.json")], True))

    for source in sorted(os.listdir(os.path.join(ROOT, "bench"))):
        m = re.fullmatch(r"(bench_\w+)\.cpp", source)
        if not m:
            continue
        name = m.group(1)
        argv = [os.path.join(BUILD, "bench", name)]
        argv += CI_BENCH_ARGS.get(name, [])
        out = os.path.join(WORK, name)
        flags = ["--telemetry-out=" + out,
                 "--trace-perfetto=" + os.path.join(out, "trace.json"),
                 "--profile"]
        with open(os.path.join(ROOT, "bench", source)) as f:
            if "SweepCli" in f.read():
                flags += ["--jobs=4", "--sweep-out=" + out]
        jobs.append((name, argv, False))
        jobs.append((name + "_flags", argv + flags, False))

    with open(os.path.join(ROOT, "tests", "CMakeLists.txt")) as f:
        examples = re.findall(
            r"add_test\(NAME example_\w+ COMMAND (\w+)((?: [^\s)]+)*)\)",
            f.read())
    for name, args in examples:
        jobs.append((name, [os.path.join(BUILD, "examples", name)] +
                     args.split(), False))
    jobs.append(("sdr_cpuinfo", [tool("sdr_cpuinfo")], False))
    jobs.append(("e2e", [sys.executable,
                         os.path.join(ROOT, "bench", "e2e", "run.py"),
                         "--binary",
                         os.path.join(BUILD, "bench", "e2e", "sdr_e2e"),
                         "--seconds", "0.2",
                         "--out", os.path.join(WORK, "e2e.json")], False))

    def go(job):
        label, argv, _ = job
        return run(argv, cwd=WORK, out=os.path.join(logs, label + ".log"))

    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        codes = list(pool.map(go, jobs))
    results = []
    for (label, argv, required), code in zip(jobs, codes):
        results.append((shown(argv), code))
        if required and code != 0:
            raise Failure("%s exited %d (log: %s)" % (
                shown(argv), code, os.path.join(logs, label + ".log")))
    return results


def shown(argv):
    """argv as the report prints it: paths relative to build-coverage/, its
    coverage/ directory, or the repository, in that order of preference."""
    words = []
    for a in argv:
        if a == sys.executable:
            a = "python3"
        for base in (WORK, BUILD, ROOT):
            a = a.replace(base + os.sep, "")
        words.append(a)
    return " ".join(words)


def module_of(path):
    parts = path.split(os.sep)
    return parts[1] if len(parts) > 2 else "(top)"


# Spelled-out library types that make demangled names unreadable.
SHORTER = (
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    ("[abi:cxx11]", ""),
)


def short_name(names):
    name = min(names, key=lambda n: (len(n), n))
    for spelled, short in SHORTER:
        name = name.replace(spelled, short)
    return name


def report(tests, progs, results, ctest_count):
    t_lines, t_funcs = tests
    p_lines, p_funcs = progs
    table = defaultdict(lambda: [0] * 6)
    never, tests_only = [], []
    for path in sorted(set(t_lines) | set(p_lines)):
        row = table[module_of(path)]
        for n in set(t_lines[path]) | set(p_lines[path]):
            by_test = t_lines[path].get(n, False)
            by_prog = p_lines[path].get(n, False)
            row[0] += 1
            row[1] += not by_test and not by_prog
            row[2] += by_test and not by_prog
    for path in sorted(set(t_funcs) | set(p_funcs)):
        row = table[module_of(path)]
        for key in set(t_funcs[path]) | set(p_funcs[path]):
            t_names, by_test = t_funcs[path].get(key, (set(), False))
            p_names, by_prog = p_funcs[path].get(key, (set(), False))
            entry = (path, key[0], short_name(t_names | p_names))
            row[3] += 1
            if not by_test and not by_prog:
                row[4] += 1
                never.append(entry)
            elif not by_prog:
                row[5] += 1
                tests_only.append(entry)

    total = [sum(r[i] for r in table.values()) for i in range(6)]
    out = []
    w = out.append
    w("# Coverage of `src/`\n")
    w("Generated by `python3 tools/coverage.py`; do not edit by hand. "
      "The script builds `build-coverage/` (Debug, `--coverage -O0`) and "
      "measures two phases with gcov:\n")
    w("- **tests**: `ctest -L tier1` (%d tests: unit tests, example smoke "
      "runs, the trace_explorer golden and the bench/e2e smoke test);"
      % ctest_count)
    w("- **programs**: the commands listed under *Programs* below.\n")
    w("A line or function is *never reached* when neither phase executes "
      "it, and *tests only* when tier-1 executes it but no program does. "
      "Functions are counted by source position, so all instantiations of "
      "a template are one function, reached if any instantiation is.\n")
    w("Limitation: gcov only sees code that some translation unit emits. "
      "A header inline function or template that nothing calls is not "
      "instantiated and appears in neither the totals nor the lists; find "
      "those with a caller grep. (`-fkeep-inline-functions` would emit "
      "them, but breaks linking against gtest.)\n")
    w("## Per module\n")
    w("| module | lines | never reached | tests only "
      "| functions | never reached | tests only |")
    w("|---|--:|--:|--:|--:|--:|--:|")
    for module in sorted(table):
        w("| %s | %s |" % (module, " | ".join(str(v) for v in table[module])))
    w("| **total** | %s |\n" % " | ".join("**%d**" % v for v in total))

    for title, entries in (("Functions never reached", never),
                           ("Functions reached only by tests", tests_only)):
        w("## %s (%d)\n" % (title, len(entries)))
        w("```")
        for path, line, name in sorted(entries):
            w("%s:%d %s" % (path, line, name))
        w("```\n")

    w("## Programs\n")
    w("Run concurrently from `build-coverage/coverage/`, one per core; "
      "paths are relative to `build-coverage/` or to that directory. A "
      "nonzero bench or example exit is recorded, not fatal: at `-O0` under "
      "load a bench's wall-clock shape check can miss its bound.\n")
    w("| command | exit |")
    w("|---|--:|")
    for cmd, code in results:
        w("| `%s` | %d |" % (cmd, code))
    with open(REPORT, "w") as f:
        f.write("\n".join(out) + "\n")
    log("wrote %s: %d/%d lines never reached, %d tests only; "
        "%d/%d functions never reached, %d tests only"
        % (os.path.relpath(REPORT, ROOT), total[1], total[0], total[2],
           total[4], total[3], total[5]))


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    try:
        build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        delete_counters()
        must(["ctest", "-L", "tier1", "--output-on-failure", "-j", str(JOBS)],
             "tier-1 suite", cwd=BUILD)
        listed = subprocess.run(["ctest", "-N", "-L", "tier1"], cwd=BUILD,
                                stdout=subprocess.PIPE, text=True).stdout
        ctest_count = int(re.search(r"Total Tests: (\d+)", listed).group(1))
        tests = collect("tests")
        results = programs()
        progs = collect("programs")
        report(tests, progs, results, ctest_count)
    except Failure as e:
        sys.stderr.write("coverage.py: %s\n" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
