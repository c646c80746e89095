"""Record the outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py [--size full|tiny] [--workload NAME]

Runs every workload on every input set (``inputs.BANK`` of them) without
checks and writes the outputs into ``perfbench/reference.json``: the eight
ablation summary values, the per-step losses of ``MAX_TRAIN_STEPS`` training
steps, and the printed mIoU and mAcc. Run it only at the commit whose
outputs are the reference; a later commit is checked against them.
"""

from __future__ import annotations

import os
import sys

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def _record(task):
    size, workload, seed = task
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import MAX_TRAIN_STEPS, PAPER_STEP_S, run_workload

    # enough seconds for every referenced training step; one eval pass
    seconds = int(MAX_TRAIN_STEPS * PAPER_STEP_S) if workload == "paper_train" else 1
    root = os.path.join(ROOT, ".perfbench_work", f"record-{os.getpid()}")
    try:
        outcome = run_workload(workload, seed, seconds, size, root, None, measure_setup=False)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if outcome.failed or not all(ok for _, ok in outcome.checks):
        raise RuntimeError(f"{task}: {outcome.notes}")
    return task, outcome.observed


def main(argv=None):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from inputs import BANK
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)

    tasks = [(size, workload, seed) for size in args.size or ("tiny", "full")
             for workload in args.workload or WORKLOADS for seed in range(BANK)]
    try:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except OSError:
        table = {}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for (size, workload, seed), observed in pool.imap_unordered(_record, tasks):
            table.setdefault(size, {}).setdefault(workload, {})[str(seed)] = observed
            print(size, workload, seed, observed, flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
