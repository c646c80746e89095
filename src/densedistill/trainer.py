"""End-to-end distillation: frozen teacher twin and feature provider wired
to the trainable student, AdamW with decoupled weight decay, checkpointing,
and the manifest-driven training loop.

Determinism contract: data order follows the manifest, per-step randomness
comes from ``default_rng([seed, STREAM_STEP, step])``, and resuming needs
only the step counter, so same-seed runs (resumed or not) are bitwise
reproducible. ``train`` is the one training loop; every caller goes
through it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .affinity import SdAttentionStack, complete_affinity, fuse_sd_attention, synth_sd_attention, vfm_affinity
from .config import echo_config
from .container import atomic_write_text, read_tensor, write_tensor
from .errors import ConfigError, ParameterError, ShapeError
from .losses import (DistillBatchInputs, LossReport, batch_losses, content_cos_loss,
                     context_loss, total_loss)
from .regions import FULL_BOX, crop_resize, roi_align, sample_grid
from . import tensor as T
from .tensor import Tensor
from .vit import VitParams, encode_cls, encode_dense

# seed-stream tags (second entry of the rng seed sequence)
STREAM_STUDENT = 0
STREAM_PROVIDER = 1
STREAM_SD = 2
STREAM_STEP = 3

CHECKPOINT_NAME = "checkpoint.dten"
METRICS_NAME = "metrics.log"
CONFIG_ECHO_NAME = "effective_config.txt"


def resolution_pair(student_patch, vfm_patch, target_side_tokens):
    """Input resolutions giving both models target_side_tokens^2 tokens."""
    if min(student_patch, vfm_patch, target_side_tokens) < 1:
        raise ParameterError("patch sizes and token side must be positive")
    return target_side_tokens * student_patch, target_side_tokens * vfm_patch


def adamw_step(param, grad, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One decoupled-weight-decay update; pure arrays in, arrays out."""
    if param.shape != grad.shape or param.shape != m.shape or param.shape != v.shape:
        raise ShapeError("parameter/gradient/moment shapes disagree")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    param = param - lr * weight_decay * param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


class AdamW:
    """Optimizer over named parameters; moments mirror parameter shapes."""

    def __init__(self, named_params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [(name, p) for name, p in named_params if p.requires_grad]
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        for name, p in self.params:
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.data, self.m[name], self.v[name] = adamw_step(
                p.data, grad, self.m[name], self.v[name], self.t,
                lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps,
                weight_decay=self.weight_decay)


def build_models(cfg):
    """Student, frozen teacher twin (initial weights), frozen provider."""
    dtype = np.float32 if cfg.dtype == "f32" else np.float64
    student = VitParams(
        patch_size=cfg.student_patch, depth=cfg.student_depth, width=cfg.student_width,
        heads=cfg.student_heads, input_res=cfg.student_res,
        embed_dim=cfg.embed_dim or None, pixel_mean=cfg.student_pixel_mean,
        pixel_std=cfg.student_pixel_std, seed=[cfg.seed, STREAM_STUDENT], dtype=dtype)
    teacher = student.clone().freeze()
    if cfg.trainable_layers != -1:
        student.set_trainable_layers(cfg.trainable_layers)
    vfm = VitParams(
        patch_size=cfg.vfm_patch, depth=cfg.vfm_depth, width=cfg.vfm_width,
        heads=cfg.vfm_heads, input_res=cfg.vfm_res, embed_dim=None,
        pixel_mean=cfg.vfm_pixel_mean, pixel_std=cfg.vfm_pixel_std,
        seed=[cfg.seed, STREAM_PROVIDER], dtype=dtype).freeze()
    return student, teacher, vfm


def provider_tokens(vfm, image, cfg):
    """Provider dense tokens (HW, D) for a student-resolution image."""
    resized = crop_resize(image, FULL_BOX, cfg.vfm_res)
    return encode_dense(resized, vfm, "standard").tokens.data


def context_teacher(vfm_tokens, sd_stack, cfg):
    """The context-distillation target: provider affinity, completed by the
    fused attention stack unless completion is disabled."""
    grid = sd_stack.grid if sd_stack is not None else None
    s_vfm = vfm_affinity(vfm_tokens, grid=grid)
    if cfg.use_sd_completion and sd_stack is not None:
        return complete_affinity(fuse_sd_attention(sd_stack), s_vfm).values
    return s_vfm.values


def distill_forward(student, teacher, vfm_tokens, sd_stack, image, cfg, rng,
                    variant="decoupled"):
    """Losses of one image. Variants share the pipeline shape:

    - "decoupled": context on the context stream, content+RCC on content
    - "coupled":   content and context applied jointly to the standard-mode
                   dense feature (no RCC)
    - "content":   content alone on the decoupled content stream
    """
    if variant not in ("decoupled", "coupled", "content"):
        raise ParameterError(f"unknown variant {variant!r}")
    if vfm_tokens.shape[0] != student.grid_side ** 2:
        raise ConfigError(
            f"provider grid {vfm_tokens.shape[0]} does not match student "
            f"grid {student.grid_side ** 2}")
    mode = "standard" if variant == "coupled" else "decoupled"
    enc = encode_dense(image, student, mode)
    ctx_stream = enc.tokens if variant == "coupled" else enc.decoupled.x_context
    s_hat = context_teacher(vfm_tokens, sd_stack, cfg)

    boxes = sample_grid(rng, cfg.grid_lo, cfg.grid_hi)
    content_map = enc.dense()
    side = student.grid_side
    d = vfm_tokens.shape[1]
    vfm_map = Tensor(np.ascontiguousarray(vfm_tokens.T.reshape(d, side, side)),
                     dtype=enc.tokens.data.dtype)
    region_students, region_teacher, region_vfm = [], [], []
    for box in boxes:
        region_students.append(roi_align(content_map, box, cfg.roi_n))
        region_vfm.append(roi_align(vfm_map, box, cfg.roi_n))
        crop = crop_resize(image, box, teacher.input_res)
        region_teacher.append(encode_cls(crop, teacher))

    inputs = DistillBatchInputs(
        x_context=ctx_stream, s_hat_vfm=s_hat, region_students=region_students,
        region_teacher_cls=region_teacher, region_vfm=region_vfm)
    lam = 0.0 if variant == "content" else cfg.lam
    if variant == "decoupled":
        return batch_losses(inputs, lam=lam, tau=cfg.tau)
    # no RCC outside the full pipeline
    l_ctx = context_loss(ctx_stream, s_hat, cfg.tau)
    l_cos = content_cos_loss(region_students, region_teacher)
    zero = Tensor(np.zeros((), dtype=enc.tokens.data.dtype))
    return total_loss(l_cos, zero, l_ctx, lam, cfg.tau)


@dataclass
class ManifestRecord:
    image_path: str
    segments_path: str
    vfm_path: str | None = None
    sd_path: str | None = None


def read_manifest(path):
    """Line format: ``image=<p> segments=<p> [vfm=<p>] [sd=<p>]``; relative
    paths resolve against the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kv = {}
            for token in line.split():
                if "=" not in token:
                    raise ConfigError(f"{path}:{lineno}: bad manifest token {token!r}")
                key, value = token.split("=", 1)
                if key not in ("image", "segments", "vfm", "sd") or key in kv:
                    raise ConfigError(f"{path}:{lineno}: bad or repeated key {key!r}")
                kv[key] = value if os.path.isabs(value) else os.path.join(base, value)
            if "image" not in kv or "segments" not in kv:
                raise ConfigError(f"{path}:{lineno}: image= and segments= are required")
            records.append(ManifestRecord(kv["image"], kv["segments"],
                                          kv.get("vfm"), kv.get("sd")))
    if not records:
        raise ConfigError(f"{path}: empty manifest")
    return records


@dataclass
class PreparedRecord:
    image: np.ndarray
    segments: np.ndarray
    vfm_tokens: np.ndarray
    sd_stack: SdAttentionStack


def prepare_record(rec, vfm, cfg, index):
    image = read_tensor(rec.image_path)["image"]
    segments = read_tensor(rec.segments_path)["labels"]
    if rec.vfm_path:
        vfm_tokens = read_tensor(rec.vfm_path)["tokens"].astype(np.float64)
    else:
        vfm_tokens = provider_tokens(vfm, image, cfg)
    if rec.sd_path:
        sections = read_tensor(rec.sd_path)
        maps = sections["maps"].astype(np.float64)
        ts = int(sections["timestep"].reshape(-1)[0]) if "timestep" in sections else None
        side = int(math.isqrt(maps.shape[1]))
        sd_stack = SdAttentionStack(maps=maps, source="ingested", grid=(side, side),
                                    timestep=ts)
    else:
        sd_stack = synth_sd_attention(
            segments, cfg.sd_sharpness,
            np.random.default_rng([cfg.seed, STREAM_SD, index]),
            num_maps=cfg.sd_maps, noise_std=cfg.sd_noise)
    return PreparedRecord(image=image, segments=segments, vfm_tokens=vfm_tokens,
                          sd_stack=sd_stack)


class Distiller:
    """Student + frozen twins + optimizer; one instance per training run."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.student, self.teacher, self.vfm = build_models(cfg)
        self.optimizer = AdamW(self.student.named_parameters(), lr=cfg.lr,
                               weight_decay=cfg.weight_decay, beta1=cfg.beta1,
                               beta2=cfg.beta2, eps=cfg.eps)
        self.step_count = 0

    def loss_for(self, prepared, rng, variant="decoupled"):
        return distill_forward(self.student, self.teacher, prepared.vfm_tokens,
                               prepared.sd_stack, prepared.image, self.cfg, rng,
                               variant=variant)

    def step_batch(self, prepared_list, rng, variant="decoupled"):
        """Gradient accumulation over a batch, then one optimizer step;
        reports the mean loss components."""
        self.optimizer.zero_grad()
        reports = []
        for prepared in prepared_list:
            total, report = self.loss_for(prepared, rng, variant)
            T.backward(T.mul_scalar(total, 1.0 / len(prepared_list)))
            reports.append(report)
        self.optimizer.step()
        self.step_count += 1
        n = len(reports)
        return LossReport(
            l_context=sum(r.l_context for r in reports) / n,
            l_content_cos=sum(r.l_content_cos for r in reports) / n,
            l_rcc=sum(r.l_rcc for r in reports) / n,
            l_total=sum(r.l_total for r in reports) / n,
            lam=self.cfg.lam, tau=self.cfg.tau)


_META_FIELDS = ("depth", "width", "heads", "patch_size", "input_res")


def save_checkpoint(path, student, optimizer=None, step=0):
    sections = [("meta", np.array(
        [getattr(student, f) for f in _META_FIELDS]
        + [student.embed_dim or 0, 0 if student.dtype == np.float32 else 1],
        dtype=np.int32))]
    sections.append(("pixel", np.array([student.pixel_mean, student.pixel_std])))
    sections.append(("step", np.array([step], dtype=np.int32)))
    for name, p in student.named_parameters():
        sections.append((f"param.{name}", p.data))
    if optimizer is not None:
        for name, _ in optimizer.params:
            sections.append((f"adam.m.{name}", optimizer.m[name]))
        for name, _ in optimizer.params:
            sections.append((f"adam.v.{name}", optimizer.v[name]))
    write_tensor(path, sections)


def _check_finite(path, sections):
    """Refuse a checkpoint whose parameter or moment sections hold NaN or Inf."""
    for key, data in sections.items():
        if key.startswith(("param.", "adam.")) and not np.isfinite(data).all():
            raise ConfigError(f"{path}: section {key!r} holds non-finite values")


def load_student(path):
    """Rebuild the student encoder from a checkpoint alone, for inference:
    its parameters do not require grad, so its forwards build no graph."""
    sections = read_tensor(path)
    _check_finite(path, sections)
    meta = sections["meta"]
    pixel = sections["pixel"]
    dtype = np.float32 if meta[6] == 0 else np.float64
    student = VitParams(patch_size=int(meta[3]), depth=int(meta[0]), width=int(meta[1]),
                        heads=int(meta[2]), input_res=int(meta[4]),
                        embed_dim=int(meta[5]) or None, pixel_mean=float(pixel[0]),
                        pixel_std=float(pixel[1]), seed=0, dtype=dtype)
    for name, p in student.named_parameters():
        data = sections[f"param.{name}"].astype(dtype)
        if data.shape != p.data.shape:
            raise ShapeError(f"checkpoint section param.{name} has shape {data.shape}")
        p.data = data
        p.requires_grad = False
    return student, sections


def restore_into(distiller, path):
    """Load a checkpoint's parameters, optimizer moments and step counter into
    a distiller; parameters are matched by name and must agree in shape."""
    sections = read_tensor(path)
    params = dict(distiller.student.named_parameters())
    stored = {key[len("param."):] for key in sections if key.startswith("param.")}
    unmatched = sorted(stored ^ params.keys())
    if unmatched:
        name = unmatched[0]
        where = "the model" if name in stored else "the checkpoint"
        raise ConfigError(f"{path}: parameter {name!r} is missing from {where}")
    for name, p in params.items():
        shape = sections[f"param.{name}"].shape
        if shape != p.data.shape:
            raise ConfigError(f"{path}: parameter {name!r} has shape {shape} in the "
                              f"checkpoint, {p.data.shape} in the model")
    _check_finite(path, sections)
    for name, p in params.items():
        p.data = sections[f"param.{name}"].astype(p.data.dtype)
    opt = distiller.optimizer
    for name, p in opt.params:
        if f"adam.m.{name}" in sections:
            opt.m[name] = sections[f"adam.m.{name}"].astype(p.data.dtype)
            opt.v[name] = sections[f"adam.v.{name}"].astype(p.data.dtype)
    distiller.step_count = int(sections["step"][0])
    opt.t = distiller.step_count
    return distiller


def train(distiller, prepared, epochs, variant="decoupled"):
    """The training loop: ``epochs`` passes over ``prepared`` in record order,
    one optimizer step per ``cfg.batch_size`` records. Steps before
    ``distiller.step_count`` are skipped, so resuming is ``restore_into``
    then ``train``. Returns the reports of the steps run."""
    cfg = distiller.cfg
    per_epoch = -(-len(prepared) // cfg.batch_size)
    reports = []
    for idx in range(distiller.step_count, epochs * per_epoch):
        lo = idx % per_epoch * cfg.batch_size
        rng = np.random.default_rng([cfg.seed, STREAM_STEP, idx])
        reports.append(distiller.step_batch(prepared[lo:lo + cfg.batch_size], rng,
                                            variant=variant))
    return reports


@dataclass
class RunResult:
    reports: list
    metrics_path: str
    checkpoint_path: str


def distill_run(cfg, manifest_path=None):
    """Train for cfg.epochs passes over the manifest, one optimizer step per
    batch, writing the metrics log, config echo, and a final checkpoint."""
    records = read_manifest(manifest_path or cfg.manifest)
    distiller = Distiller(cfg)
    prepared = [prepare_record(rec, distiller.vfm, cfg, i)
                for i, rec in enumerate(records)]
    if cfg.resume:
        restore_into(distiller, cfg.resume)
    start_step = distiller.step_count
    reports = train(distiller, prepared, cfg.epochs)
    lines = [report.line(idx) for idx, report in enumerate(reports, start=start_step)]
    os.makedirs(cfg.report_dir, exist_ok=True)
    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.report_dir, METRICS_NAME)
    atomic_write_text(metrics_path, "".join(line + "\n" for line in lines))
    atomic_write_text(os.path.join(cfg.report_dir, CONFIG_ECHO_NAME), echo_config(cfg))
    checkpoint_path = os.path.join(cfg.checkpoint_dir, CHECKPOINT_NAME)
    save_checkpoint(checkpoint_path, distiller.student, distiller.optimizer,
                    distiller.step_count)
    return RunResult(reports=reports, metrics_path=metrics_path,
                     checkpoint_path=checkpoint_path)
