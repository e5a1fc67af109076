#!/usr/bin/env python3
"""Smoke test of the benchmark, at the tiny size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs the benchmark twice untraced and once
traced and checks that

  * both untraced runs give identical per-operation digests,
  * every run ends with a result line that reports every metric named
    in BENCHMARK.json (end-to-end untraced, per-layer traced) with its
    unit, and no failed check,
  * the digests of the first run, used as goldens, pass, and the same
    goldens with one digest corrupted drive the error rate above 0 and
    name the corrupted operation.

Working files go to .bench_out/smoke/. Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.getcwd())
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
OUT = os.path.join(ROOT, ".bench_out", "smoke")


def run(workload, trace, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny",
               *extra]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"FAIL {' '.join(command)} exited {done.returncode}:\n"
                 f"{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def expect(ok, message, failures):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_metrics(result, specs, label, failures):
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in specs},
           f"{label}: reports exactly the BENCHMARK.json metrics", failures)
    for spec in specs:
        got = metrics.get(spec["name"], {})
        expect(got.get("unit") == spec["unit"]
               and isinstance(got.get("value"), (int, float)),
               f"{label}: {spec['name']} printed in {spec['unit']}",
               failures)
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1,
           f"{label}: {result['attempted']} checks, none failed", failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = [os.path.join(OUT, f"{workload}-{i}.txt") for i in (1, 2)]
        for path in digests:
            result, _ = run(workload, 0, "--digests-out", path)
            check_metrics(result, spec["end_to_end"], f"{workload} untraced",
                          failures)
        with open(digests[0]) as a, open(digests[1]) as b:
            first, second = a.read(), b.read()
        expect(first == second and first,
               f"{workload}: two runs give identical digests", failures)

        result, _ = run(workload, 1)
        check_metrics(result, spec["per_layer"], f"{workload} traced",
                      failures)

        result, _ = run(workload, 0, "--goldens", digests[0])
        expect(result["failed"] == 0,
               f"{workload}: its own digests pass as goldens", failures)

        lines = first.splitlines()
        fields = lines[0].split()
        flipped = "0" if fields[4][-1] != "0" else "1"
        fields[4] = fields[4][:-1] + flipped
        corrupt = os.path.join(OUT, f"{workload}-corrupt.txt")
        with open(corrupt, "w") as f:
            f.write("\n".join([" ".join(fields)] + lines[1:]) + "\n")
        result, stderr = run(workload, 0, "--goldens", corrupt)
        expect(result["failed"] > 0 and not result["correct"]
               and f"FAILED {fields[3]}:" in stderr,
               f"{workload}: a corrupted golden fails {fields[3]} "
               f"(error_rate {result['failed']}/{result['attempted']})",
               failures)
    print(f"\n{len(failures)} failed" if failures else "\nall passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
