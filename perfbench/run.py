#!/usr/bin/env python3
"""Build and run the ulpeak end-to-end benchmark (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test      # a perturbed digest must fail
  python3 perfbench/run.py --make-golden    # regenerate golden.txt

The first call configures and builds perfbench (the library from src/
plus the perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only re-check the build. The last
line of stdout is the result object. Exits non-zero without a result
when the sources are missing, the build fails or any run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite-cold", "suite-warm", "fork-wide", "fault-campaign"]
GOLDEN = os.path.join(HERE, "golden.txt")
GOLDEN_SEEDS = (1, 2)  # the default seed and one held-out seed
RUN_BUDGET_S = 170  # one measured run, after the build


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base)


def build():
    """Configure (once) and build; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "peak", "batch.hh")):
        fail("no ulpeak sources under " + os.path.join(ROOT, "src"))
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(out, "perfbench")


def provenance_args():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return ["--commit", commit or "none",
            "--source-digest", digest.hexdigest()[:16]]


def run(cmd, deadline):
    """Run one child to completion (killed at the deadline)."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("time budget exhausted", 1)
    try:
        return subprocess.run(cmd, timeout=left, text=True,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 1)


def measure(binary, args):
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(build_dir(), "work",
                        "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--work-dir", work]
        # Expected digests (and the suite-warm cache) come from a
        # separate process: its reference runs stay out of the
        # measured process's time, set-up and memory. A traced run
        # also checks the fault ledger's campaigns.
        expected = os.path.join(work, "expected.txt")
        prepared = [args.workload]
        if args.trace and args.workload != "fault-campaign":
            prepared.append("fault-campaign")
        lines = []
        for workload in prepared:
            out = os.path.join(work, "expected-%s.txt" % workload)
            prep = run([binary, "--prepare", "--golden", GOLDEN,
                        "--expected-out", out, "--workload", workload,
                        "--seed", str(args.seed), "--work-dir", work],
                       deadline)
            if prep.returncode != 0:
                fail("prepare failed with exit code %d" % prep.returncode, 1)
            with open(out) as f:
                lines += f.readlines()
        with open(expected, "w") as f:
            f.writelines(lines)
        cmd = [binary, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--golden", expected]
        cmd += common + provenance_args()
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                build_dir(), "traces",
                "%s-seed%d.json" % (args.workload, args.seed))]
        res = run(cmd, deadline)
        if res.returncode != 0:
            fail("run failed with exit code %d" % res.returncode, 1)
        sys.stdout.write(res.stdout)
        sys.stdout.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def make_golden(binary):
    work = os.path.join(build_dir(), "work", "golden-%d" % os.getpid())
    lines = []
    try:
        for workload in ("suite-cold", "fork-wide", "fault-campaign"):
            for seed in GOLDEN_SEEDS:
                res = subprocess.run(
                    [binary, "--make-golden", "--workload", workload,
                     "--seed", str(seed), "--work-dir", work],
                    stdout=subprocess.PIPE, text=True)
                if res.returncode != 0:
                    fail("golden generation failed for %s seed %d"
                         % (workload, seed), 1)
                for line in res.stdout.splitlines():
                    if line.startswith("golden ") and line[7:] not in lines:
                        lines.append(line[7:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDEN, "w") as f:
        f.write("# Expected result digests (FNV-1a 64), generated by\n"
                "# `python3 perfbench/run.py --make-golden` after checking\n"
                "# each default configuration against its reference\n"
                "# (full-sweep kernel + full snapshots; scalar fault runner).\n"
                "# <workload> <key> <digest>\n")
        f.write("\n".join(lines) + "\n")
    print("wrote %s (%d digests)" % (GOLDEN, len(lines)))


def main():
    # A terminated run still stops (and waits for) its child processes:
    # subprocess.run kills its child when the SystemExit unwinds it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--make-golden", action="store_true")
    args = p.parse_args()
    if not (args.self_test or args.make_golden or args.workload):
        p.error("--workload is required")

    binary = build()
    if args.make_golden:
        make_golden(binary)
    elif args.self_test:
        work = os.path.join(build_dir(), "work", "selftest-%d" % os.getpid())
        try:
            res = subprocess.run([binary, "--self-test", "--golden", GOLDEN,
                                  "--work-dir", work])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        sys.exit(res.returncode)
    else:
        measure(binary, args)


if __name__ == "__main__":
    main()
