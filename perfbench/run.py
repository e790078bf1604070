#!/usr/bin/env python3
"""Builds the iGQ engine with the benchmark program and runs one workload.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload aids-hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and compiles the sources under src/ unchanged. The last line of standard
output is the JSON result of the run; the exit code is non-zero when the
build fails or any answer was wrong.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["aids-hot", "pdbs-cold", "aids-super", "aids-churn"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, else a hash of the source files."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("src/*/*")) + sorted(HERE.rglob("*.*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src").is_dir():
        log("perfbench: no src/ directory next to perfbench/; nothing to build")
        return None
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for command in (configure, ["cmake", "--build", str(out), "-j", jobs]):
        step = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if step.returncode != 0:
            log(step.stdout)
            log("perfbench: build failed: " + " ".join(command))
            return None
    return out


def run_workload(out, workload, seed, seconds, trace, commit, spans_out):
    scratch = out / ("scratch-%d" % os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(out / "igq_perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scratch", str(scratch),
               "--commit", commit]
    if spans_out:
        command += ["--spans-out", "%s.%s.tsv" % (spans_out, workload)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", metavar="PREFIX",
                        help="traced runs write their spans to PREFIX.<workload>.tsv")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not (args.workload or args.all or args.self_test):
        parser.error("give --workload, --all or --self-test")

    out = build()
    if out is None:
        return 2
    if args.self_test:
        return subprocess.run(["ctest", "--output-on-failure"], cwd=out).returncode
    commit = source_id()
    status = 0
    for workload in WORKLOADS if args.all else [args.workload]:
        status = max(status, run_workload(out, workload, args.seed, args.seconds,
                                          args.trace, commit, args.spans_out))
    return status


if __name__ == "__main__":
    sys.exit(main())
