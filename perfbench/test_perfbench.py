"""The benchmark's own tests, on tiny workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracer as tracing  # noqa: E402
from inputs import bank_seed  # noqa: E402
from workloads import END_TO_END_UNITS, WORKLOADS, run_workload  # noqa: E402

SEED = 5


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _reference(workload):
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["tiny"][workload][str(bank_seed(SEED))]


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert units == END_TO_END_UNITS == _declared("end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert units == {name: unit for name, (unit, _) in tracing.METRICS.items()}
        assert units == _declared("per_layer")
    assert "env " in proc.stdout and "fail_rate=0.000000" in proc.stdout


def _perturbed(workload):
    ref = _reference(workload)
    if workload == "desk_ablate":
        return {**ref, "decoupled_miou": ref["decoupled_miou"] + 1e-3}
    if workload == "paper_train":
        return [[v * (1 + 1e-4) for v in step] for step in ref]
    return {**ref, "miou": ref["miou"] + 1e-3}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_the_output_check(workload, tmp_path):
    good = run_workload(workload, SEED, 1, "tiny", str(tmp_path / "good"),
                        _reference(workload), measure_setup=False)
    assert good.totals()[1] == 0, good.notes
    bad = run_workload(workload, SEED, 1, "tiny", str(tmp_path / "bad"),
                       _perturbed(workload), measure_setup=False)
    attempted, failed = bad.totals()
    assert failed >= 1 and attempted == good.totals()[0]
    assert any("reference" in note or "summary decoupled_miou" in note for note in bad.notes)


# bindings a module made with ``from .x import f``: each must be wrapped on
# its own, or the work reached through it goes unseen
BINDINGS = {
    "desk_ablate": ("trainer.encode_cls", "trainer.encode_dense", "trainer.roi_align",
                    "trainer.crop_resize", "trainer.sample_grid", "evalsuite.encode_cls",
                    "evalsuite.encode_dense", "evalsuite.synth_sd_attention",
                    "evalsuite.roi_align", "regions.from_op", "tensor.from_op"),
    "paper_train": ("trainer.encode_cls", "trainer.encode_dense", "trainer.roi_align",
                    "trainer.crop_resize", "trainer.synth_sd_attention", "trainer.read_tensor",
                    "trainer.write_tensor", "regions.from_op", "tensor.from_op"),
    "paper_eval": ("vit.encode_dense", "cli.read_tensor", "trainer.read_tensor",
                   "evalsuite.read_tensor", "evalsuite.roi_align", "regions.from_op"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_wrapper_fires_where_its_layer_works(workload, tmp_path):
    tracer = tracing.Tracer()
    outcome = run_workload(workload, SEED, 1, "tiny", str(tmp_path), _reference(workload),
                           measure_setup=False, tracer=tracer)
    assert outcome.totals()[1] == 0, outcome.notes
    metrics = tracer.metrics(outcome.wall_s, outcome.wall_s)
    silent = [name for name in tracing.EXPECTED_NONZERO[workload]
              if metrics[name]["value"] <= 0]
    assert not silent
    unused = [b for b in BINDINGS[workload] if tracer.binding_calls[b] == 0]
    assert not unused
    assert len(tracer.starts) == metrics["trace.spans"]["value"] > 0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unbound_targets() == []
        import densedistill.trainer as trainer

        assert hasattr(trainer.encode_cls, "__wrapped__")
        assert hasattr(trainer.Distiller.step_batch, "__wrapped__")
    finally:
        tracer.uninstall()
    import densedistill.trainer as trainer

    assert not hasattr(trainer.encode_cls, "__wrapped__")
    assert not hasattr(trainer.Distiller.step_batch, "__wrapped__")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "desk_ablate", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
