#!/usr/bin/env python3
"""Build and run the repository benchmark, or summarize its results log.

Run from the repository root:

    python3 abcdbench/run.py --workload cli-lj --seed 1 --seconds 25 --trace 0
    python3 abcdbench/run.py all --seed 1 --seconds 25 --trace 0
    python3 abcdbench/run.py summarize [results.jsonl]

The first form builds the Go benchmark (abcdbench/, its own module, which
imports the repository through a replace directive) into the build
directory — $CARGO_TARGET_DIR if set, else .bench_build — with the Go
build cache kept there too, so nothing is written outside the checkout.
It then runs the binary with the given flags. The binary prints a
human-readable report and, as its last line, one JSON result object.

The second form runs every workload of BENCHMARK.json in turn.

The third form prints, per workload and metric, the min, quartiles,
median and max over every run appended to the results log.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 175  # seconds; a run must end well inside 180


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def go_env(out):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    return env


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("abcdbench: no go.mod at %s; run from a repository checkout\n" % ROOT)
        return 2
    out = build_dir()
    env = go_env(out)
    for d in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "abcdbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.stderr.write("abcdbench: build failed\n")
        return 2
    cmd = [binary, "-out", out, "-commit", commit()] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("abcdbench: run exceeded %ds, killed\n" % RUN_TIMEOUT)
        return 3


def summarize(path):
    by = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            env, res = rec["env"], rec["result"]
            key = (env["workload"], "trace" if env["trace"] else "e2e")
            runs = by.setdefault(key, {"runs": 0, "wrong": 0, "metrics": {}, "env": env})
            runs["runs"] += 1
            runs["wrong"] += 0 if res["correct"] else 1
            for name, m in res["metrics"].items():
                runs["metrics"].setdefault(name, ([], m["unit"]))[0].append(m["value"])
    for (wl, kind), runs in sorted(by.items()):
        env = runs["env"]
        print("== %s (%s): %d runs, %d not correct; go %s, GOMAXPROCS %s, nproc %s, %s" % (
            wl, kind, runs["runs"], runs["wrong"], env["go"], env["gomaxprocs"], env["nproc"], env["cpu"]))
        print("   %-38s %12s %12s %12s %12s %12s %8s" % ("metric", "min", "q1", "median", "q3", "max", "iqr/med"))
        for name, (vals, unit) in sorted(runs["metrics"].items()):
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            print("   %-38s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s" % (
                name, min(vals), q1, med, q3, max(vals), spread, unit))


def run_all(args):
    """Run every workload of BENCHMARK.json once with the given flags."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for name in names:
        print("== %s" % name, flush=True)
        worst = max(worst, run(["--workload", name] + args))
    return worst


def main(argv):
    if argv[:1] == ["summarize"]:
        path = argv[1] if len(argv) > 1 else os.path.join(build_dir(), "results.jsonl")
        summarize(path)
        return 0
    if argv[:1] == ["all"]:
        return run_all(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
