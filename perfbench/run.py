#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two results.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare A.json B.json

The run form configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench, runs one workload, and passes the
output of dacbench through: the last stdout line is the result object.
The full result, with its host fingerprint, is also written to
.bench_build/results/<workload>-seed<N>-trace<T>.json.

The compare form prints both results side by side and refuses, saying
why, when their fingerprints differ in anything but the git commit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170

# Fingerprint fields two comparable results must share. The commit is
# what a comparison is about, so it may differ.
MATCH_FIELDS = ["cpu_model", "nproc", "compiler", "build_type", "workload",
                "seed"]


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "--target", "dacbench", "-j",
             str(os.cpu_count() or 1)],
        ]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "dacbench")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def run(args):
    binary = build()
    work = os.path.join(RESULTS, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("dacbench printed no result (exit %d)" % proc.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result,
                   "log": lines[:-1]}, f, indent=1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return proc.returncode


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    fa, fb = a.get("fingerprint") or {}, b.get("fingerprint") or {}
    diffs = [k for k in MATCH_FIELDS if fa.get(k) != fb.get(k)]
    if diffs:
        for k in diffs:
            print("refusing to compare: %s differs: %r vs %r"
                  % (k, fa.get(k), fb.get(k)))
        return 3
    print("commits: %s -> %s" % (fa.get("git_commit"), fb.get("git_commit")))
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        change = (vb - va) / va * 100.0 if va else float("nan")
        print("  %-28s %14.6g %14.6g %8.2f%% %s"
              % (name, va, vb, change, ma[name]["unit"]))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.json B.json")
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["tune_cold", "tune_cold_large", "hot_search",
                            "hot_repeat"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    sys.exit(run(p.parse_args()))


if __name__ == "__main__":
    main()
