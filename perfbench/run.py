"""densedistill benchmark: one workload, in this one process.

    python3 perfbench/run.py --workload desk_ablate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It writes the workload's inputs from
``--seed`` under ``.perfbench_work/``, runs the workload through the
package's public entry points, checks the outputs against references
recorded at the commit that defined the benchmark, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured without tracing; with ``--trace 1`` they are the per-layer ones
from a traced run (spans are written to ``.perfbench_work/spans/``).

``--size tiny`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP threads before numpy loads; the same value on every commit.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="densedistill benchmark")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"threads": THREADS, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def load_reference(size, workload, key):
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)[size][workload][str(key)]


def _untraced_wall(args, run_workload):
    """Untraced wall_s of this workload from the last untraced run in this
    checkout; measured here first when there is none."""
    path = os.path.join(WORK, "untraced_wall.json")
    key = f"{args.workload}/{args.size}/{args.seconds}"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)[key]
    except (OSError, ValueError, KeyError):
        pass
    root = os.path.join(WORK, f"run-{os.getpid()}-untraced")
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.size, root,
                            None, measure_setup=False).wall_s
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _store_untraced_wall(args, wall_s):
    path = os.path.join(WORK, "untraced_wall.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except (OSError, ValueError):
        table = {}
    table[f"{args.workload}/{args.size}/{args.seconds}"] = wall_s
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "densedistill", "__init__.py")):
        print(f"error: no densedistill sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from inputs import bank_seed
    from tracer import Tracer
    from workloads import WORKLOADS, run_workload

    args = parse_args(sys.argv[1:] if argv is None else argv, WORKLOADS)
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    reference = load_reference(args.size, args.workload, bank_seed(args.seed))
    os.makedirs(WORK, exist_ok=True)
    root = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        if args.trace:
            untraced = _untraced_wall(args, run_workload)
            tracer = Tracer()
            outcome = run_workload(args.workload, args.seed, args.seconds, args.size, root,
                                   reference, measure_setup=False, tracer=tracer)
            tracer.write_spans(os.path.join(WORK, "spans", f"{args.workload}-{args.size}"))
            metrics = tracer.metrics(outcome.wall_s, untraced)
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds, args.size, root,
                                   reference, measure_setup=True)
            metrics = outcome.end_to_end()
            _store_untraced_wall(args, outcome.wall_s)
    except (ZeroDivisionError, statistics.StatisticsError, IndexError):
        traceback.print_exc()
        print("error: the workload completed no measured operation", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    attempted, failed = outcome.totals()
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} input_set={bank_seed(args.seed)} "
          f"size={args.size} trace={args.trace} samples={len(outcome.request_s)} "
          f"fail_rate={failed / attempted:.6f}")
    for note in outcome.notes:
        print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
