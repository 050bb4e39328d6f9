"""dtparser benchmark: one command, three workloads, checked outputs.

    python3 benchmarks/run.py --workload WORKLOAD --seed N --seconds S \
        --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  WORKLOAD is one of:

* `train`           -- the `dtparser train` path, treebank file to saved
                       model, then loading the model and parsing a
                       held-out sample with it;
* `parse-ambiguous` -- one sentence at a time with a deliberately flat
                       model of the ambiguous grammar (large frontiers);
* `parse-toy`       -- one sentence at a time with a model of the
                       near-deterministic toy grammar (per-decision cost).

Each run is a closed loop with one client.  It repeats whole rounds of
the same operations until S seconds have passed (every round trains,
saves and loads the workload's model, then parses its sentences one at
a time), checks every output
outside the timed region, and prints as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones, measured with no wrapper installed.
With `--trace 1` the first half of the run is untraced, the second half
runs with `tracing.Tracer` wrappers around every layer's public
functions, and the metrics are the per-layer ones plus the tracing
overhead.  The line before it is a run record (revision, versions, CPU
count, settings), also written with the metrics to
`.bench_out/BENCH_<workload>_seed<N>_trace<T>.json`.

See benchmarks/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


# --- run record ---

def _revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest():
    """SHA-256 over the package sources, which identifies the code measured
    even in a checkout without git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "dtparser")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_record(args, spec):
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "revision": _revision(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "config": spec.config.as_dict(),
    }


# --- entry point ---

def _import_package():
    """Import dtparser from this checkout's `src/`, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        import dtparser
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import dtparser from {SRC}: {exc}")
    if not os.path.abspath(dtparser.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: dtparser imported from {dtparser.__file__}, "
                 f"not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "parse-ambiguous", "parse-toy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    import workloads
    spec = workloads.specs()[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.Workload(spec, args.seed, workdir)
        workload.setup()
        if args.trace:
            metrics = workloads.traced_run(workload, args.seconds)
        else:
            metrics = workloads.plain_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run = workload.run
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = run_record(args, spec)
    record["rounds"] = run.rounds
    with open(os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}"
                           f"_trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
