"""prsqp benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload lasso_desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports prsqp from
``src/`` beside this directory and exits with status 2 when it is missing.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from an instrumented run. Human-readable lines come first; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The full record (environment, sample counts, failures, row statuses) goes to
``.bench_out/<workload>-trace<0|1>.json`` and the spans of a traced run to
``.bench_out/<workload>-spans.csv``. A traced run compares its counts with
those of earlier runs of the same code, workload and seed, kept under
``.bench_out/counts/``. Exit status 1 means a correctness or determinism check
failed.
"""

import argparse
import gc
import hashlib
import json
import os
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads: with its default
# threads per process, a 2-worker sweep on 2 cores oversubscribes them and
# sweep times swing several-fold between identical runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT_DIR = CHECKOUT / ".bench_out"


def load_spec():
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def import_program():
    src = CHECKOUT / "src"
    if not (src / "prsqp" / "__init__.py").is_file():
        print(f"error: no prsqp sources under {src}; run from a prsqp checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import prsqp

    if Path(prsqp.__file__).resolve().parent != (src / "prsqp").resolve():
        print(f"error: imported prsqp from {prsqp.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def counts_path(wl, seed):
    """Where a traced run keeps its counts, keyed by the code and the workload.

    Runs of the same program and benchmark sources on the same workload and
    seed share the file, so a count that drifts between them fails the run.
    """
    digest = hashlib.sha256(repr(wl).encode())
    for path in sorted((CHECKOUT / "src" / "prsqp").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return OUT_DIR / "counts" / f"{wl.name}-seed{seed}-{digest.hexdigest()[:16]}.json"


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,name,start_s,end_s,parent,op,raised\n")
        for sid, name, t0, t1, parent, op, raised in spans:
            fh.write(f"{sid},{name},{t0!r},{t1!r},{parent},{op},{int(raised)}\n")


def stop_resource_tracker():
    """Stop multiprocessing's resource tracker, if a pool started it, and wait for it.

    A spawned worker pool starts the tracker as a child process. Left alone it
    ends only after this process has exited, unwaited, so it outlives the run.
    Pools that are gone unregister their semaphores when collected, so none is
    reported as leaked and the tracker is not restarted after it stops.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv=None):
    try:
        return run_workload(argv)
    finally:
        stop_resource_tracker()


def run_workload(argv):
    import_program()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    units = load_spec()[bool(args.trace)]
    env = harness.environment(args.seed)
    print("# env " + json.dumps(env), flush=True)
    wl = harness.WORKLOADS[args.workload]
    record = harness.measure(wl, args.seed, args.seconds, bool(args.trace), counts_path(wl, args.seed))

    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        record["correct"] = False
        record["failures"].append(f"metrics not measured: {missing}")
    metrics = {name: {"value": record["metrics"].get(name), "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']!r} {entry['unit']}")
    for name, value in record["detail"].items():
        print(f"# {name}: {json.dumps(value)}")
    print(f"# failed_share {record['failed']}/{record['attempted']} = {record['failed'] / record['attempted']!r}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-trace{args.trace}"
    kept = {key: record[key] for key in ("correct", "attempted", "failed", "failures", "detail")}
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "env": env, "metrics": metrics, **kept}, fh, indent=1)
    if record["spans"]:
        write_spans(OUT_DIR / f"{args.workload}-spans.csv", record["spans"])

    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
