#!/usr/bin/env python3
"""Build the gencache benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of methodology, tournament, fleet, live (see
perfbench/LAYERS.md). The script configures and builds perfbench/ (which
pulls the library in from the repository root) under .bench_build/,
then runs the benchmark binary with GENCACHE_* variables removed from its
environment. Traced runs write their spans to .bench_out/. The last
line of standard output is the result object the binary prints.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("methodology", "tournament", "fleet", "live")
ROOT = os.path.abspath(os.getcwd())
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def is_decimal(text):
    return text.isascii() and text.isdigit()


def seed_arg(text):
    if not is_decimal(text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"wants an unsigned decimal integer below 2^64, got {text!r}")
    return int(text)


def seconds_arg(text):
    if not is_decimal(text) or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(
            f"wants an integer in [1, 3600], got {text!r}")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny is the smoke-test size")
    parser.add_argument("--goldens",
                        default=os.path.join(BENCH_DIR, "goldens.txt"),
                        help="golden digests file")
    parser.add_argument("--digests-out",
                        help="write the first pass's digests here")
    return parser.parse_args(argv)


def quiet_env():
    """The binary's environment: no GENCACHE_* knob reaches it."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("GENCACHE_")}


def build():
    """Configure (once) and build the binary; build output -> stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a gencache source tree (no CMakeLists.txt "
             "and src/); run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    env = quiet_env()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                       "perfbench", "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        fail("building the benchmark failed")
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git work tree. The
    search for .git stops at the checkout root."""
    env = quiet_env()
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def main(argv):
    args = parse_args(argv)
    binary = build()
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--size", args.size,
               "--goldens", args.goldens, "--git-sha", git_sha()]
    if args.trace == "1":
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.size}-{args.seed}.json")]
    if args.digests_out:
        command += ["--digests-out", args.digests_out]
    sys.stdout.flush()
    return subprocess.run(command, env=quiet_env()).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
