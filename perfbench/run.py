#!/usr/bin/env python3
"""The repository benchmark: four workloads over the scheduler, the explore
engine and the serving daemon.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first run builds the perfbench binary (perfbench/CMakeLists.txt: the
libraries under src/ plus perfbench/cpp/) into .bench_build/perfbench; later
runs only check that the build is current. Workload data (designs, modes,
rates, limits, cell lists) lives in perfbench/workloads.json and reaches the
binary as flags; the metric contract lives in BENCHMARK.json. Each workload
runs in a process of its own, so peak_rss_mb is that workload's.

Output: a per-workload table (every metric by name, unit and sample count),
an info line (nproc, compiler, build type, source digest), and as the last
line one JSON object {correct, attempted, failed, metrics}. With --trace 0
the metrics are the end-to-end metrics, with --trace 1 the per-layer ones;
a traced run also writes <workload>.trace.json (Chrome trace-event format,
opens in Perfetto) and <workload>.layers.txt to .bench_build/perfbench-out.

--smoke runs every workload briefly, traced and untraced, and checks that
every metric BENCHMARK.json names is printed with its unit and that the
correctness gate ran. It asserts no timing.

The exit code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_layout():
    needed = ["BENCHMARK.json", "perfbench/workloads.json",
              "perfbench/CMakeLists.txt", "src/CMakeLists.txt",
              "examples/designs/gcd.beh"]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        fail("run from the repository root; missing: " + ", ".join(missing))


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def source_digest():
    """A content digest of the benchmarked sources (the checkout need not
    be a git repository)."""
    h = hashlib.sha256()
    for root in ("src", "perfbench", "examples/designs"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], stderr=subprocess.DEVNULL,
            timeout=10).decode().strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_perfbench(workloads, name, seed, seconds, trace):
    """Runs one workload in its own perfbench process; returns its result."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", OUT_DIR]
    for key, value in workloads["workloads"][name]["config"].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        cmd += ["--" + key, str(value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out after %d s" % RUN_TIMEOUT_S, 1)
    lines = [l for l in proc.stdout.decode().splitlines()
             if l.strip().startswith("{")]
    if not lines:
        fail("perfbench printed no result (exit %d)" % proc.returncode, 1)
    return json.loads(lines[-1])


def contract_problems(result, contract, trace):
    """Names or units the result is missing against BENCHMARK.json."""
    section, declared = (("layers", contract["per_layer"]) if trace else
                         ("end_to_end", contract["end_to_end"]))
    got = result[section]
    problems = []
    for metric in declared:
        m = got.get(metric["name"])
        if m is None:
            problems.append("%s: metric %s not printed"
                            % (result["workload"], metric["name"]))
        elif m["unit"] != metric["unit"]:
            problems.append("%s: metric %s has unit %s, BENCHMARK.json says %s"
                            % (result["workload"], metric["name"], m["unit"],
                               metric["unit"]))
    extra = sorted(set(got) - {m["name"] for m in declared})
    if extra:
        problems.append("%s: metrics not in BENCHMARK.json: %s"
                        % (result["workload"], ", ".join(extra)))
    return problems


def fmt(value):
    if value is None:
        return "null"
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return ("%.4f" % value).rstrip("0").rstrip(".")
    return "%.4g" % value


def print_result(result, trace):
    print("== %s: correct=%s attempted=%d failed=%d"
          % (result["workload"], str(result["correct"]).lower(),
             result["attempted"], result["failed"]))
    for check in result["gate"]:
        print("   gate: " + check)
    for error in result["errors"]:
        print("   ERROR: " + error)
    sections = [("end_to_end", "contract"), ("table", "detail")]
    if trace:
        sections = [("layers", "per-layer")]
    for key, label in sections:
        for name in sorted(result[key]):
            m = result[key][name]
            note = ("  [" + m["note"] + "]") if m.get("note") else ""
            print("   %-9s %-30s %14s %-9s n=%-7d%s"
                  % (label, name, fmt(m["value"]), m["unit"], m["n"], note))
    if trace and result.get("layer_table"):
        print("   self time by layer (traced half):")
        for row in result["layer_table"].splitlines():
            print("     " + row)


def print_rows(results):
    """One row per workload: each per-workload table metric with unit and n."""
    print("== summary, one row per workload")
    for r in results:
        cells = ["%s=%s %s (n=%d)" % (name, fmt(m["value"]), m["unit"], m["n"])
                 for name, m in sorted(r["table"].items())]
        print("%-10s %s" % (r["workload"], "  ".join(cells)))


def smoke(contract, workloads):
    """Every workload, briefly, untraced and traced: metrics and gate only."""
    problems = []
    for trace in (False, True):
        for name in workloads["workloads"]:
            r = run_perfbench(workloads, name, 1, 1, trace)
            print_result(r, trace)
            problems += contract_problems(r, contract, trace)
            if not r["gate"]:
                problems.append("%s: the correctness gate did not run"
                                % r["workload"])
            if not r["correct"]:
                problems.append("%s: gate failed: %s"
                                % (r["workload"], r["errors"]))
    for p in problems:
        print("SMOKE FAIL: " + p)
    print(json.dumps({"smoke": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    check_layout()
    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    with open("perfbench/workloads.json") as f:
        workloads = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    build()

    if args.smoke:
        return smoke(contract, workloads)
    if args.workload is None:
        fail("--workload is required (or --smoke)")
    names = list(workloads["workloads"])
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %s (one of %s, or all)"
             % (args.workload, ", ".join(names)))
    seconds = args.seconds if args.seconds else contract["run_seconds"]
    trace = bool(args.trace)
    results = [run_perfbench(workloads, name, args.seed, seconds, trace)
               for name in (names if args.workload == "all"
                            else [args.workload])]

    problems = []
    for r in results:
        print_result(r, trace)
        problems += contract_problems(r, contract, trace)
    print_rows(results)
    info = dict(results[0]["info"])
    info.update({"nproc": os.cpu_count(), "git_commit": git_commit(),
                 "source_digest": source_digest(), "seed": args.seed,
                 "seconds": seconds, "trace": args.trace})
    print("info: " + json.dumps(info, sort_keys=True))
    for p in problems:
        print("CONTRACT: " + p)

    correct = all(r["correct"] for r in results) and not problems
    section = "layers" if trace else "end_to_end"
    if len(results) == 1:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in results[0][section].items()}
    else:
        metrics = {"%s.%s" % (r["workload"], name):
                   {"value": m["value"], "unit": m["unit"]}
                   for r in results for name, m in r[section].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
