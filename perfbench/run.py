#!/usr/bin/env python3
"""Runs one workload of the compsynth end-to-end benchmark.

    python3 perfbench/run.py --workload grid_fine --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The script builds the benchmark package
(perfbench/CMakeLists.txt, which compiles ../src) into .bench_build/, runs a
fixed memory-latency probe in a process of its own, then runs the workload in
a fresh process and checks its results. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. Earlier lines are the human-readable report: the host record, the
sample count behind every timing, and any problem found.

Determinism: the first run of a (workload, seed, seconds) of a given code
records its question-sequence digests and counts under
.bench_build/perfbench/; every later run of the same arguments and the same
code, traced or not, must reproduce them exactly or it reports
correct = false. The code is identified by a hash of every file under src/
and perfbench/, so a change that legitimately alters the questions starts a
fresh record instead of failing against the old one.

Exit status: 0 when a result line was printed, non-zero (and no result) when
the benchmark could not be built or the workload crashed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
STATE_DIR = BUILD / "perfbench"
BINARY = CMAKE_DIR / "perfbench"
WORKLOADS = ("grid_fine", "z3_homenet", "serve_swan", "dist_swan")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; returns False on failure.

    Configuring every time costs about a second and keeps a build tree left
    by an older perfbench/CMakeLists.txt in step with the current one.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(CMAKE_DIR), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed:", e)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return BINARY.exists()


def run_binary(args):
    """Runs the benchmark binary; returns its last stdout line parsed, or None."""
    try:
        done = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(args))
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: failed with status", done.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: no JSON result")
        return None


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def code_identity(root=ROOT):
    """Short hash of every file under root/src and root/perfbench: the code
    the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in (root / "src", root / "perfbench"):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_determinism(report, key):
    """Compares the run's digests and counts with the first run's record.

    Returns the list of mismatches (empty when the record was just written).
    """
    record = {"digests": report["digests"], "counts": report["counts"]}
    path = STATE_DIR / "determinism" / (key + ".json")
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return []
    first = json.loads(path.read_text())
    problems = []
    if first["digests"] != record["digests"]:
        problems.append("question-sequence digests differ from the first run "
                        "of these arguments (" + path.name + ")")
    for name, value in sorted(first["counts"].items()):
        if record["counts"].get(name) != value:
            problems.append("count %s is %s, the first run had %s"
                            % (name, record["counts"].get(name), value))
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny work sizes, for the benchmark's own tests")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    STATE_DIR.mkdir(parents=True, exist_ok=True)

    probe = run_binary(["--probe"])
    if probe is None:
        return 1
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--sketch-dir", str(HERE / "sketches"),
            "--state-dir", str(STATE_DIR)]
    if a.smoke:
        args.append("--smoke")
    before = cpu_ticks()
    report = run_binary(args)
    after = cpu_ticks()
    if report is None:
        return 1

    key = "%s-seed%d-s%d%s-%s" % (a.workload, a.seed, a.seconds,
                                  "-smoke" if a.smoke else "",
                                  code_identity())
    problems = report["problems"] + check_determinism(report, key)
    correct = report["correct"] and not problems

    host = dict(report["host"], memory_probe_ns=probe["memory_probe_ns"])
    if before and after and after[1] > before[1]:
        # Share of the host's CPU time the hypervisor took from this VM
        # while the workload ran.
        host["steal_share"] = round((after[0] - before[0])
                                    / (after[1] - before[1]), 4)
    print("perfbench %s seed=%d seconds=%d trace=%d" %
          (a.workload, a.seed, a.seconds, a.trace))
    print("host " + json.dumps(host, sort_keys=True))
    print("samples " + json.dumps(report["samples"]))
    print("counts " + json.dumps(report["counts"]))
    print("phases_s " + json.dumps({k: float("%.4g" % v) for k, v
                                    in report["phases_s"].items()}))
    for name, m in report["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    if a.trace:
        for name, m in report["layers"].items():
            print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
        print("spans " + report["span_file"])
    for problem in problems:
        print("PROBLEM " + problem)

    metrics = report["layers"] if a.trace else report["metrics"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
