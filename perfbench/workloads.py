"""The three workloads, run through the package's public entry points, with
coarse timers (set-up, ``step_batch``, per-image scoring) and output checks.

- ``desk_ablate``: ``ablation_coupled_vs_decoupled`` on the shipped ablation
  config, over a suite read back from its DTEN files.
- ``paper_train``: ``distill_run`` on a manifest of 560-px images with the
  default (paper-recipe) model shapes, batch 1.
- ``paper_eval``: ``eval-seg`` then ``eval-region`` through ``cli.run_cli``
  on paper-shape images, an untrained checkpoint and a class file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from densedistill import cli, evalsuite, trainer
from densedistill.config import parse_config
from densedistill.container import read_tensor
from densedistill.evalsuite import ablation_coupled_vs_decoupled, load_class_embeddings
from densedistill.regions import sample_grid
from densedistill.trainer import Distiller, distill_run, load_student, read_manifest, save_checkpoint

import inputs as gen

WORKLOADS = ("desk_ablate", "paper_train", "paper_eval")

# Work per run is fixed by --seconds through these nominal costs (measured
# once on the reference box, 1 BLAS thread), never by the clock, so both
# sides of a comparison do the same work.
PAPER_STEP_S = 9.0      # mean paper_train step over the pinned crop-grid sequence
EVAL_PASS_S = 4.2       # one eval-seg + eval-region pass over EVAL_IMAGES images
MAX_TRAIN_STEPS = 4     # steps with recorded reference losses
SETUP_REPEATS = {"desk_ablate": 9, "paper_train": 3, "paper_eval": 31}

LOSS_RTOL = 1e-6        # per-step losses after training steps (float roundoff)
SUMMARY_RTOL = 1e-9     # ablation summary values (ratios of counts)
PRINTED_ATOL = 1.5e-6   # values the CLI prints with 6 decimals
END_TO_END_UNITS = {"img_per_s": "img/s", "step_s_p50": "s", "step_s_p90": "s",
                    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

_METRICS_LINE = re.compile(
    r"^step=(\d+) l_context=(\S+) l_content=(\S+) l_rcc=(\S+) l_total=(\S+)$")


def train_steps(seconds, size):
    return 2 if size == "tiny" else min(MAX_TRAIN_STEPS, max(1, round(seconds / PAPER_STEP_S)))


def eval_passes(seconds, size):
    return 1 if size == "tiny" else max(1, round(seconds / EVAL_PASS_S))


@dataclass
class Outcome:
    """What one workload run measured and checked."""
    wall_s: float = 0.0
    setup_s: list = field(default_factory=list)
    request_s: list = field(default_factory=list)   # per step or per scored image
    images: int = 0
    busy_s: float = 0.0        # time the images/s figure divides by
    checks: list = field(default_factory=list)      # (name, ok)
    attempted: int = 0
    failed: int = 0
    observed: object = None
    notes: list = field(default_factory=list)

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))
        if not ok:
            self.notes.append(f"check failed: {name}")

    def end_to_end(self):
        reqs = self.request_s
        values = {
            "img_per_s": self.images / self.busy_s,
            "step_s_p50": statistics.median(reqs),
            "step_s_p90": float(np.percentile(reqs, 90)),
            "wall_s": self.wall_s,
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}

    def totals(self):
        ok_checks = sum(ok for _, ok in self.checks)
        return self.attempted + len(self.checks), self.failed + len(self.checks) - ok_checks


class Timers:
    """Coarse timers patched around ``Distiller.step_batch`` and the CLI's
    image reads; they also open a request on the tracer when one runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.steps = []          # (seconds, images)
        self.image_marks = []    # perf_counter at each image read
        self._patched = []

    def install(self, image_paths=()):
        timers, tracer = self, self.tracer
        step_batch = trainer.Distiller.step_batch

        def timed_step_batch(distiller, prepared_list, *args, **kwargs):
            if tracer is not None:
                tracer.begin_request()
                tracer.counters["steps"] += 1
            t0 = perf_counter()
            try:
                out = step_batch(distiller, prepared_list, *args, **kwargs)
            finally:
                if tracer is not None:
                    tracer.end_request()
            timers.steps.append((perf_counter() - t0, len(prepared_list)))
            return out

        self._patch(trainer.Distiller, "step_batch", timed_step_batch)
        if image_paths:
            paths = set(image_paths)
            read = cli.read_tensor

            def marked_read(path):
                if path in paths:
                    timers.image_marks.append(perf_counter())
                    if tracer is not None:
                        tracer.begin_request()
                return read(path)

            self._patch(cli, "read_tensor", marked_read)
        return self

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


@contextlib.contextmanager
def measuring(tracer, image_paths=()):
    """Tracer (traced runs only) and coarse timers around the measured part;
    input generation and output checks stay outside it."""
    if tracer is not None:
        tracer.install()
    timers = Timers(tracer).install(image_paths)
    try:
        yield timers
    finally:
        timers.uninstall()
        if tracer is not None:
            tracer.uninstall()


def _close(a, b, rel=0.0, abs_=0.0):
    return math.isfinite(a) and math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------- desk_ablate


def run_desk(seed, size, root, reference, measure_setup, tracer=None):
    out = Outcome()
    files = gen.write_desk(seed, size, root)
    cfg = parse_config(files.config)
    suite = gen.load_desk_suite(files)
    if measure_setup:
        for _ in range(SETUP_REPEATS["desk_ablate"]):
            t0 = perf_counter()
            distiller = Distiller(cfg)
            evalsuite.prepare_suite(suite, distiller, cfg)
            out.setup_s.append(perf_counter() - t0)
    batches = -(-len(suite.samples) // cfg.batch_size)
    expected_steps = 3 * cfg.epochs * batches
    out.attempted = expected_steps + 4 * len(suite.samples)
    with measuring(tracer) as timers:
        t0 = perf_counter()
        try:
            report = ablation_coupled_vs_decoupled(cfg, suite)
        except Exception as exc:  # a failed run still reports what it did
            out.failed = out.attempted - len(timers.steps)
            out.notes.append(f"ablation raised {type(exc).__name__}: {exc}")
            report = None
        out.wall_s = perf_counter() - t0
    out.request_s = [s for s, _ in timers.steps]
    out.images = sum(n for _, n in timers.steps)
    out.busy_s = sum(out.request_s)
    if report is None:
        return out
    out.check("ablation step count", len(timers.steps) == expected_steps)
    out.observed = report.summary()
    if reference is not None:
        for key, want in reference.items():
            out.check(f"summary {key}", _close(out.observed[key], want, SUMMARY_RTOL, 1e-12))
    out.notes.append("summary " + " ".join(f"{k}={v:.6f}" for k, v in out.observed.items()))
    return out


# ---------------------------------------------------------------- paper_train


def _check_metrics_log(out, path, cfg, steps, reference):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out.check("metrics.log line count", len(lines) == steps)
    observed = []
    for i, line in enumerate(lines):
        match = _METRICS_LINE.match(line)
        values = [float(v) for v in match.groups()[1:]] if match else []
        ok = bool(match) and int(match.group(1)) == i and all(map(math.isfinite, values))
        out.check(f"metrics.log line {i} parses with finite components", ok)
        if not ok:
            continue
        ctx, content, rcc, total = values
        out.check(f"step {i} l_total = l_content + l_rcc + lambda*l_context",
                  _close(total, content + rcc + cfg.lam * ctx, 1e-12, 1e-15))
        observed.append(values)
        if reference is not None:
            want = reference[i]
            out.check(f"step {i} losses match the reference",
                      all(_close(v, w, LOSS_RTOL, 1e-15) for v, w in zip(values, want)))
    return observed


def _check_checkpoint(out, path, cfg, steps, root):
    student, sections = load_student(path)
    out.check("checkpoint step counter", int(sections["step"][0]) == steps)
    out.check("checkpoint architecture matches the config",
              (student.patch_size, student.depth, student.width, student.heads, student.input_res)
              == (cfg.student_patch, cfg.student_depth, cfg.student_width, cfg.student_heads,
                  cfg.student_res))
    again = os.path.join(root, "roundtrip.dten")
    save_checkpoint(again, student, None, steps)
    copy = read_tensor(again)
    same = all(np.array_equal(copy[name], sections[name])
               for name in copy if name.startswith("param.") or name in ("meta", "pixel"))
    out.check("checkpoint round-trips through load_student", same)


def run_paper_train(seed, size, root, reference, measure_setup, seconds, tracer=None):
    out = Outcome()
    steps = train_steps(seconds, size)
    files = gen.write_paper_train(seed, size, root, n_images=steps)
    cfg = parse_config(files.config)
    if measure_setup:
        records = read_manifest(files.manifest)
        for _ in range(SETUP_REPEATS["paper_train"]):
            t0 = perf_counter()
            distiller = Distiller(cfg)
            for i, rec in enumerate(records):
                trainer.prepare_record(rec, distiller.vfm, cfg, i)
            out.setup_s.append(perf_counter() - t0)
    out.attempted = steps
    with measuring(tracer) as timers:
        t0 = perf_counter()
        try:
            result = distill_run(cfg)
        except Exception as exc:
            out.failed = steps - len(timers.steps)
            out.notes.append(f"distill_run raised {type(exc).__name__}: {exc}")
            result = None
        out.wall_s = perf_counter() - t0
    out.request_s = [s for s, _ in timers.steps]
    out.images = sum(n for _, n in timers.steps)
    out.busy_s = sum(out.request_s)
    if result is None:
        return out
    ref = None if reference is None else reference[:steps]
    out.observed = _check_metrics_log(out, result.metrics_path, cfg, steps, ref)
    _check_checkpoint(out, result.checkpoint_path, cfg, steps, root)
    out.notes.append("step_s " + " ".join(f"{s:.3f}" for s in out.request_s))
    out.notes.append("crops per step " + " ".join(
        str(len(sample_grid(np.random.default_rng([cfg.seed, 3, i]), cfg.grid_lo,
                                    cfg.grid_hi))) for i in range(steps)))
    return out


# ----------------------------------------------------------------- paper_eval


def run_paper_eval(seed, size, root, reference, measure_setup, seconds, tracer=None):
    out = Outcome()
    files = gen.write_paper_eval(seed, size, root)
    records = read_manifest(files.manifest)
    if measure_setup:
        for _ in range(SETUP_REPEATS["paper_eval"]):
            t0 = perf_counter()
            load_student(files.checkpoint)
            read_manifest(files.manifest)
            load_class_embeddings(files.classes)
            out.setup_s.append(perf_counter() - t0)
    passes = eval_passes(seconds, size)
    common = ["--checkpoint", files.checkpoint, "--manifest", files.manifest,
              "--classes", files.classes]
    commands = (("eval-seg", "miou"), ("eval-region", "macc"))
    pass_walls = []
    observed = {}
    with measuring(tracer, [rec.image_path for rec in records]) as timers:
        for _ in range(passes):
            pass_start = perf_counter()
            for command, key in commands:
                out.attempted += len(records)
                timers.image_marks.clear()
                buffer = io.StringIO()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(buffer):
                        code = cli.run_cli([command] + common)
                finally:
                    t1 = perf_counter()
                    if tracer is not None:
                        tracer.end_request()
                        tracer.counters["eval_command_s"] += t1 - t0
                marks = timers.image_marks + [t1]
                out.request_s += [b - a for a, b in zip(marks, marks[1:])]
                out.busy_s += t1 - t0
                out.check(f"{command} exits 0", code == 0)
                if code != 0:
                    out.failed += len(records)
                    continue
                out.images += len(records)
                found = re.search(rf"^{key}=(\S+)$", buffer.getvalue(), re.MULTILINE)
                value = float(found.group(1)) if found else math.nan
                observed[key] = value
                if reference is not None:
                    out.check(f"{command} {key} matches the reference",
                              _close(value, reference[key], 0.0, PRINTED_ATOL))
            pass_walls.append(perf_counter() - pass_start)
    out.wall_s = statistics.median(pass_walls)
    out.observed = observed
    out.notes.append(f"passes={passes} images/pass/command={len(records)} "
                     + " ".join(f"{k}={v:.6f}" for k, v in observed.items()))
    return out


def run_workload(name, seed, seconds, size, root, reference, measure_setup, tracer=None):
    os.makedirs(root, exist_ok=True)
    if name == "desk_ablate":
        return run_desk(seed, size, root, reference, measure_setup, tracer)
    if name == "paper_train":
        return run_paper_train(seed, size, root, reference, measure_setup, seconds, tracer)
    return run_paper_eval(seed, size, root, reference, measure_setup, seconds, tracer)
