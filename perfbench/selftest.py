"""Fast self-test of the benchmark on shrunken instances.

    python3 perfbench/selftest.py

Runs every workload, shrunk to a few milliseconds per solve, through the same
entry point as a real run, untraced and traced, and checks:

* the last output line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* every metric named in BENCHMARK.json is present, finite and carries its unit;
* the correctness gates pass, and a second traced run passes the benchmark's
  own check that the per-layer counts repeat across runs;
* without the prsqp sources beside it, the benchmark exits non-zero and
  prints no result.

Exits with status 1 on the first failed check.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import run  # pins the BLAS threads before numpy loads

run.import_program()
import harness  # noqa: E402

TINY = {
    "lasso_desk": dict(problem={**harness.WORKLOADS["lasso_desk"].problem, "m": 8, "n": 16}),
    "classification": dict(problem={"type": "classification", "n": 6, "T": 6}, instances=2),
    "sweep_regimes": dict(problem={"type": "classification", "n": 6, "T": 6}, params={"max_iter": 50, "tol_step": 0.0}),
}


def check(ok, message):
    if not ok:
        print(f"FAIL {message}")
        sys.exit(1)


def run_tiny(name, trace):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    lines = stdout.getvalue().splitlines()
    check(code == 0, f"{name} trace={trace} exited {code}:\n" + "\n".join(lines[-8:]))
    return json.loads(lines[-1])


def check_result(name, trace, result, units):
    where = f"{name} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    check(result["correct"] is True, f"{where}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    check(result["failed"] == 0, f"{where}: {result['failed']} operations failed")
    check(set(result["metrics"]) == set(units), f"{where}: metrics {sorted(result['metrics'])}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {metric} = {value!r}")
        check(entry["unit"] == units[metric], f"{where}: {metric} unit {entry['unit']!r}")


def check_missing_program():
    # a copy holding only BENCHMARK.json and this directory, inside the checkout
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "lasso_desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0, "bare copy exited 0")
    check("correct" not in proc.stdout, "bare copy printed a result")


def main():
    for name, changes in TINY.items():
        harness.WORKLOADS[name] = replace(harness.WORKLOADS[name], **changes)
    units = run.load_spec()
    for name in TINY:
        check_result(name, 0, run_tiny(name, 0), units[False])
        first = run_tiny(name, 1)
        check_result(name, 1, first, units[True])
        run_tiny(name, 1)  # compares its counts with the first traced run's and exits 1 on drift
        print(f"ok {name}")
    check_missing_program()
    print("ok bare copy fails")


if __name__ == "__main__":
    main()
