"""End-to-end distillation: frozen teacher twin and feature provider wired
to the trainable student, AdamW with decoupled weight decay, checkpointing,
and the manifest-driven training loop.

Determinism contract: data order follows the manifest, per-step randomness
comes from ``default_rng([seed, STREAM_STEP, step])``, and resuming needs
the step counter and the seed (the checkpoint holds both; the frozen twins
are rebuilt from the seed), so same-seed runs (resumed or not) are bitwise
reproducible, metrics log included. A teacher crop target depends only on
the image, the box and the frozen teacher, so each record keeps the ones it
has computed, keyed by (teacher fingerprint, box), and a step encodes only
the boxes its record has not seen under that teacher. Those are encoded one
crop at a time, on pool threads beside the student's forward or on the
calling thread (``vit._beside``, sized by ``_pool_threads``, as is a
record's provider forward beside its SD synthesis), and every target is read
back in box order, so neither the memo nor the pool size changes a bit.
``train`` is the one training loop; every caller goes through it.

``distill_run`` checks every record's files before step 0 and keeps nothing
of them; each step prepares its own records and drops them after it, so a
run holds one batch of prepared records at a time, and only the crop-target
memos, keyed by record index, outlive their step. A record's first step
replaces its SD stack by the context target. A revisit prepares the record
again, bitwise as before: its image comes from a file and its SD rng from
its index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .affinity import SdAttentionStack, complete_affinity, fuse_sd_attention, synth_sd_attention, vfm_affinity
from .config import echo_config, validate
from .container import atomic_write_text, read_tensor, write_tensor
from .errors import ConfigError, DistributionError, ParameterError, ShapeError
from .losses import LossReport, content_cos_loss, context_loss, rcc_loss, total_loss
from .regions import FULL_BOX, _roi_align, crop_resize, roi_align, sample_grid
from . import tensor as T
from . import vit
from .tensor import Tensor
from .vit import _META, VitParams, _beside, encode_cls, encode_dense, field_range, param_shapes

# seed-stream tags (second entry of the rng seed sequence)
STREAM_STUDENT = 0
STREAM_PROVIDER = 1
STREAM_SD = 2
STREAM_STEP = 3

CHECKPOINT_NAME = "checkpoint.dten"
METRICS_NAME = "metrics.log"
CONFIG_ECHO_NAME = "effective_config.txt"

# pixel normalisation (mean, std) of the student and of the provider; the
# paper takes each fixed from its pretrained model
STUDENT_PIXEL = (0.5, 0.5)
PROVIDER_PIXEL = (0.45, 0.27)

# Grids from this many tokens run their work on a thread pool: a step's
# teacher crops, and a record's provider forward beside its SD synthesis. A
# forward releases the GIL only inside numpy calls on large enough operands:
# on a 2-core host two threads ran 16 width-48 crops 0.85-1.16x as fast as
# one at 64-256 tokens, and 1.5-1.9x from 400 tokens up.
POOL_MIN_TOKENS = 512


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

    def __init__(self, named_params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
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
        embed_dim=cfg.embed_dim or None, pixel_mean=STUDENT_PIXEL[0],
        pixel_std=STUDENT_PIXEL[1], seed=[cfg.seed, STREAM_STUDENT], dtype=dtype)
    teacher = student.clone().freeze()
    vfm = VitParams(
        patch_size=cfg.vfm_patch, depth=cfg.vfm_depth, width=cfg.vfm_width,
        heads=cfg.vfm_heads, input_res=cfg.vfm_res, embed_dim=None,
        pixel_mean=PROVIDER_PIXEL[0], pixel_std=PROVIDER_PIXEL[1],
        seed=[cfg.seed, STREAM_PROVIDER], dtype=dtype).freeze()
    return student, teacher, vfm


def provider_tokens(vfm, image):
    """Provider dense tokens (HW, D) for a student-resolution image."""
    resized = crop_resize(image, FULL_BOX, vfm.input_res)
    return encode_dense(resized, vfm, "standard").tokens.data


def context_teacher(vfm_tokens, sd_stack, cfg):
    """The context-distillation target: provider affinity, completed by the
    fused attention stack unless completion is disabled."""
    s_vfm = vfm_affinity(vfm_tokens)
    if cfg.use_sd_completion:
        return complete_affinity(fuse_sd_attention(sd_stack), s_vfm)
    return s_vfm


def _pool_threads(tasks, params):
    """Pool threads for independent tasks that each run a forward of
    ``params``: min(tasks, CPUs this process may use), or 0 (the calling
    thread runs them) when that is under two or below POOL_MIN_TOKENS tokens."""
    threads = 0 if params.grid_side ** 2 < POOL_MIN_TOKENS else min(tasks, vit.usable_cpus())
    return threads if threads > 1 else 0


# the training variants, in the order the ablation trains them, and the
# student mode each trains and is scored in:
# - "content":   content alone on the decoupled content stream
# - "coupled":   content and context applied jointly to the standard-mode
#                dense feature (no RCC)
# - "decoupled": context on the context stream, content+RCC on content
VARIANTS = {"content": "decoupled", "coupled": "standard", "decoupled": "decoupled"}


def distill_forward(distiller, prepared, rng):
    """Losses of one prepared record under the distiller's variant."""
    student, teacher, cfg, variant = (distiller.student, distiller.teacher, distiller.cfg,
                                      distiller.variant)
    image, vfm_tokens = prepared.image, prepared.vfm_tokens
    boxes = sample_grid(rng, cfg.grid_lo, cfg.grid_hi)
    key = teacher.fingerprint()
    memo = prepared.crop_targets
    misses = [box for box in boxes if (key, box) not in memo]

    def teacher_cls(box):
        return encode_cls(crop_resize(image, box, teacher.input_res), teacher)

    # the crops are independent of each other and of the student, so on a
    # pool they run while the student side runs here, read back in box order
    with _beside(teacher_cls, misses, _pool_threads(len(misses), teacher)) as crops:
        if prepared.context_target is None:
            # the target depends on the record alone; the stack is not read
            # again, so it is dropped before the student's graph is built
            prepared.context_target = context_teacher(vfm_tokens, prepared.sd_stack, cfg)
            prepared.sd_stack = None
        enc = encode_dense(image, student, VARIANTS[variant])
        ctx_stream = enc.tokens if variant == "coupled" else enc.context
        content_map = T.tokens_to_chw(enc.tokens, *enc.grid)
        region_students = [roi_align(content_map, box, cfg.roi_n) for box in boxes]
        l_ctx = context_loss(ctx_stream, prepared.context_target, cfg.tau)
        memo.update(((key, box), cls) for box, cls in zip(misses, crops))
    region_teacher = [memo[key, box] for box in boxes]

    l_cos = content_cos_loss(region_students, region_teacher)
    dtype = enc.tokens.data.dtype
    if variant == "decoupled":
        side, d = student.grid_side, vfm_tokens.shape[1]
        vfm_map = np.ascontiguousarray(vfm_tokens.T.reshape(d, side, side), dtype=dtype)
        l_rcc = rcc_loss(region_students,
                         [_roi_align(vfm_map, box, cfg.roi_n)[0] for box in boxes], cfg.tau)
    else:
        # no RCC outside the full pipeline
        l_rcc = Tensor(np.zeros((), dtype=dtype))
    lam = 0.0 if variant == "content" else cfg.lam
    return total_loss(l_cos, l_rcc, l_ctx, lam)


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
    vfm_tokens: np.ndarray
    # None once its first step has stored context_target
    sd_stack: SdAttentionStack | None
    # frozen-teacher crop embeddings, (teacher fingerprint, CropBox) -> (E,)
    # CLS array; at most (sum of n over [grid_lo, grid_hi])^2 boxes per teacher
    crop_targets: dict = field(default_factory=dict)
    # context_teacher(vfm_tokens, sd_stack, cfg), stored by the first step
    context_target: np.ndarray | None = None


def read_record(rec, vfm, cfg):
    """A manifest record's files in the order they are checked against the
    student or the provider: the image, the provider tokens and SD stack when
    the record names their files (else None), then the labels by
    ``labels_section``, on the provider's grid or, with ``sd=``, the image's."""
    image = image_section(rec.image_path, read_tensor(rec.image_path), cfg.student_res)
    n, grid = vfm.grid_side ** 2, (vfm.grid_side,) * 2
    vfm_tokens = sd_stack = None
    if rec.vfm_path:
        vfm_tokens = np.asarray(section(rec.vfm_path, read_tensor(rec.vfm_path), "tokens"),
                                dtype=np.float64)
        if vfm_tokens.ndim != 2 or vfm_tokens.shape[0] != n or vfm_tokens.shape[1] < 1:
            raise ConfigError(f"{rec.vfm_path}: section 'tokens' has shape {vfm_tokens.shape}, "
                              f"expected ({n}, D) for the provider's {n}-token grid, D >= 1")
        if not np.isfinite(vfm_tokens).all():
            raise ConfigError(f"{rec.vfm_path}: section 'tokens' holds non-finite values")
        if not vfm_tokens.any(axis=1).all():
            raise ConfigError(f"{rec.vfm_path}: section 'tokens' holds an all-zero row")
    if rec.sd_path:
        maps = np.asarray(section(rec.sd_path, read_tensor(rec.sd_path), "maps"), dtype=np.float64)
        if maps.ndim != 3 or maps.shape[1:] != (n, n) or maps.shape[0] < 1:
            raise ConfigError(f"{rec.sd_path}: section 'maps' has shape {maps.shape}, "
                              f"expected (maps, {n}, {n}) for {n} provider tokens, maps >= 1")
        # min and max propagate NaN and reach +-inf without a (maps,) mask
        if not (np.isfinite(maps.min()) and np.isfinite(maps.max())):
            raise ConfigError(f"{rec.sd_path}: section 'maps' holds non-finite values")
        try:
            sd_stack = SdAttentionStack(maps=maps)
        except DistributionError:
            raise ConfigError(f"{rec.sd_path}: section 'maps' holds a map that is not "
                              f"row-stochastic") from None
    segments = labels_section(rec.segments_path, read_tensor(rec.segments_path),
                              [grid] if sd_stack is None else [grid, image.shape[1:]])
    return image, segments, vfm_tokens, sd_stack


def prepare_record(rec, vfm, cfg, index):
    """A manifest record's arrays, read and checked by ``read_record``; the
    provider tokens and the SD stack its files do not give are computed."""
    image, segments, vfm_tokens, sd_stack = read_record(rec, vfm, cfg)
    # the two read disjoint inputs, so when both are computed the provider
    # forward may run on a pool thread while the stack is synthesised here
    both = vfm_tokens is None and sd_stack is None
    with _beside(lambda im: provider_tokens(vfm, im), [image] if vfm_tokens is None else [],
                 min(1, _pool_threads(2, vfm)) if both else 0) as provider:
        if sd_stack is None:
            sd_stack = synth_sd_attention(
                segments, cfg.sd_sharpness,
                np.random.default_rng([cfg.seed, STREAM_SD, index]),
                num_maps=cfg.sd_maps, noise_std=cfg.sd_noise)
        vfm_tokens = next(provider, vfm_tokens)
    return PreparedRecord(image=image, vfm_tokens=vfm_tokens, sd_stack=sd_stack)


class ManifestRecords:
    """The records of a manifest as ``train`` reads them: a slice prepares
    its records when it is taken, and the caller drops it after its step.
    Only each record's crop-target memo is kept, keyed by record index."""

    def __init__(self, records, vfm, cfg):
        self.records, self.vfm, self.cfg = records, vfm, cfg
        self.crop_targets = {}

    def __len__(self):
        return len(self.records)

    def __getitem__(self, span):
        batch = []
        for i in range(*span.indices(len(self.records))):
            prepared = prepare_record(self.records[i], self.vfm, self.cfg, i)
            prepared.crop_targets = self.crop_targets.setdefault(i, prepared.crop_targets)
            batch.append(prepared)
        return batch


class Distiller:
    """Student + frozen twins + optimizer; one instance per training run, of
    a validated config and one of ``VARIANTS``."""

    def __init__(self, cfg, variant="decoupled"):
        if variant not in VARIANTS:
            raise ParameterError(f"unknown variant {variant!r}, expected one of {list(VARIANTS)}")
        self.cfg, self.variant = validate(cfg), variant
        self.student, self.teacher, self.vfm = build_models(cfg)
        self.optimizer = AdamW(self.student.named_parameters(), lr=cfg.lr,
                               weight_decay=cfg.weight_decay)

    @property
    def step_count(self):
        """Optimizer steps taken, the one counter ``train`` resumes from."""
        return self.optimizer.t

    def loss_for(self, prepared, rng):
        return distill_forward(self, prepared, rng)

    def step_batch(self, prepared_list, rng):
        """Gradient accumulation over a batch, then one optimizer step;
        reports the mean loss components."""
        self.optimizer.zero_grad()
        reports = []
        for prepared in prepared_list:
            total, report = self.loss_for(prepared, rng)
            T.backward(T.mul_scalar(total, 1.0 / len(prepared_list)))
            reports.append(report)
        self.optimizer.step()
        n = len(reports)
        return LossReport(
            l_context=sum(r.l_context for r in reports) / n,
            l_content_cos=sum(r.l_content_cos for r in reports) / n,
            l_rcc=sum(r.l_rcc for r in reports) / n,
            l_total=sum(r.l_total for r in reports) / n)


# the sections a checkpoint holds ahead of its parameters, in file order, each
# with its fields and dtype: meta holds vit._META's integers (embed_dim 0 = no
# projection, dtype the index into tensor._DTYPES), pixel its last two, optim
# the optimizer's settings, then the batch size
_HEADER = {"meta": (_META[:-2], np.int32), "pixel": (_META[-2:], np.float64),
           "step": (("step",), np.int32), "seed": (("seed",), np.int32),
           "optim": (("lr", "beta1", "beta2", "eps", "weight_decay", "batch_size"), np.float64)}
_META_FIELDS, _PIXEL_FIELDS = _HEADER["meta"][0], _HEADER["pixel"][0]
# a stored dtype is an index into tensor._DTYPES; vit.field_range gives the
# values of every other stored field a student can be built from
_DTYPE_RANGE = ("0 (f32) or 1 (f64)", lambda v: v in (0, 1))


def _header(student, optimizer, step, seed, batch_size):
    """The header sections, by name, of a checkpoint of these values: each
    section of _HEADER whose fields are all given."""
    held = {**_student_fields(student), "step": step, "seed": seed, "batch_size": batch_size}
    if optimizer is not None:
        held.update((name, getattr(optimizer, name)) for name in _HEADER["optim"][0][:-1])
    return {key: np.array([held[name] for name in names], dtype)
            for key, (names, dtype) in _HEADER.items()
            if all(held.get(name) is not None for name in names)}


def save_checkpoint(path, student, optimizer=None, step=0, seed=None, batch_size=None):
    """Write the student (and optimizer moments, when given) with the step
    counter. With ``seed``, also the run seed; with the optimizer and
    ``batch_size``, also the optim section. ``restore_into`` requires both."""
    sections = list(_header(student, optimizer, step, seed, batch_size).items())
    for name, p in student.named_parameters():
        sections.append((f"param.{name}", p.data))
    if optimizer is not None:
        for name, _ in optimizer.params:
            sections.append((f"adam.m.{name}", optimizer.m[name]))
        for name, _ in optimizer.params:
            sections.append((f"adam.v.{name}", optimizer.v[name]))
    write_tensor(path, sections)


def section(path, sections, key, size=None):
    """Section ``key`` of the file read from ``path``, which must exist; with
    ``size``, flattened and required to hold that many entries."""
    if key not in sections:
        raise ConfigError(f"{path}: section {key!r} is missing")
    if size is None:
        return sections[key]
    data = sections[key].reshape(-1)
    if data.size != size:
        raise ConfigError(f"{path}: section {key!r} has {data.size} entries, expected {size}")
    return data


def image_section(path, sections, res):
    """Section 'image' of the file read from ``path``, refused naming the file
    unless it is finite and (3, res, res), the student's input."""
    image = section(path, sections, "image")
    if image.shape != (3, res, res):
        raise ConfigError(f"{path}: section 'image' has shape {image.shape}, "
                          f"expected (3, {res}, {res}) for the student's {res}-px input")
    if not np.isfinite(image).all():
        raise ConfigError(f"{path}: section 'image' holds non-finite values")
    return image


def labels_section(path, sections, shapes, classes=None):
    """Section 'labels' of the file read from ``path``, refused naming the file
    unless its shape is one of ``shapes`` and every label is a whole number in
    [0, classes), in [0, inf) without a class file; NaN and +-inf fail."""
    labels = section(path, sections, "labels")
    if labels.shape not in shapes:
        raise ConfigError(f"{path}: section 'labels' has shape {labels.shape}, "
                          f"expected {' or '.join(map(str, shapes))}")
    top = np.inf if classes is None else classes
    bad = labels[~((labels >= 0) & (labels < top) & (np.floor(labels) == labels))]
    if bad.size:
        what = "outside" if np.floor(bad[0]) == bad[0] else "expected a whole number in"
        span = "[0, inf)" if classes is None else f"the class file's [0, {classes})"
        raise ConfigError(f"{path}: section 'labels' holds label {bad[0]}, {what} {span}")
    return labels


def _student_fields(student):
    """The student's meta and pixel fields by name, as a checkpoint holds them."""
    held = student._meta()
    held["embed_dim"] = held["embed_dim"] or 0
    held["dtype"] = T._DTYPES.index(held["dtype"])
    return held


def _integer(path, key, name, value):
    """Field ``name`` of section ``key`` as an int, if it is a whole number."""
    if not float(value).is_integer():
        raise ConfigError(f"{path}: section {key!r} holds {name} = {float(value)!r}, "
                          f"expected an integer")
    return int(value)


def _stored_fields(path, sections):
    """The meta and pixel fields of the checkpoint read from ``path`` by name;
    a field no student can be built from is refused."""
    held = {name: _integer(path, "meta", name, value) for name, value
            in zip(_META_FIELDS, section(path, sections, "meta", len(_META_FIELDS)))}
    held.update(zip(_PIXEL_FIELDS,
                    map(float, section(path, sections, "pixel", len(_PIXEL_FIELDS)))))
    for name, value in held.items():
        want, ok = _DTYPE_RANGE if name == "dtype" else field_range(name)
        if not ok(value):
            where = "meta" if name in _META_FIELDS else "pixel"
            raise ConfigError(f"{path}: section {where!r} holds {name} = {value!r}, "
                              f"expected {want}")
    return held


def _check_params(path, sections, shapes):
    """Refuse a checkpoint whose parameters differ from ``shapes`` (name ->
    shape) in name or shape, whose moment sections lack their m/v pair or
    their parameter's shape, or whose parameter or moment sections hold NaN
    or Inf."""
    stored = {key[len("param."):] for key in sections if key.startswith("param.")}
    unmatched = sorted(stored ^ shapes.keys())
    if unmatched:
        name = unmatched[0]
        where = "the model" if name in stored else "the checkpoint"
        raise ConfigError(f"{path}: parameter {name!r} (section 'param.{name}') "
                          f"is missing from {where}")
    for name, want in shapes.items():
        shape = sections[f"param.{name}"].shape
        if shape != want:
            raise ConfigError(f"{path}: parameter {name!r} (section 'param.{name}') has shape "
                              f"{shape} in the checkpoint, {want} in the model")
    for key, data in sections.items():
        if key.startswith("adam."):
            name = key[len("adam.m."):]
            pair = ("adam.v." if key.startswith("adam.m.") else "adam.m.") + name
            if pair not in sections or name not in shapes or data.shape != shapes[name]:
                raise ConfigError(f"{path}: section {key!r} lacks its moment pair or "
                                  f"does not match parameter {name!r}")
        if key.startswith(("param.", "adam.")) and not np.isfinite(data).all():
            raise ConfigError(f"{path}: section {key!r} holds non-finite values")


def load_student(path):
    """Rebuild the student encoder from a checkpoint alone, for inference:
    its parameters do not require grad, so its forwards build no graph. The
    parameter sections are checked against the meta fields' shapes before
    the student is built."""
    sections = read_tensor(path)
    held = _stored_fields(path, sections)
    dtype = T._DTYPES[held.pop("dtype")]
    held["embed_dim"] = held["embed_dim"] or None
    try:
        shapes = param_shapes(**{name: value for name, value in held.items()
                                 if name not in _PIXEL_FIELDS})
    except ParameterError as exc:
        raise ConfigError(f"{path}: section 'meta' holds {exc}") from None
    _check_params(path, sections, shapes)
    arrays = {name: sections[f"param.{name}"] for name in shapes}
    return VitParams._of_arrays(arrays, **held, dtype=dtype), sections


def restore_into(distiller, path):
    """Load a checkpoint's parameters, optimizer moments and step counter into
    a distiller. The file is read and checked by ``load_student``; then its
    meta, pixel, seed and optim sections must hold what this run would write
    (the frozen twins and the step randomness are built from the seed), and
    it must hold moments for every parameter the run trains."""
    loaded, sections = load_student(path)
    opt = distiller.optimizer
    run = _header(distiller.student, opt, None, distiller.cfg.seed, distiller.cfg.batch_size)
    for key, want in run.items():
        names = _HEADER[key][0]
        stored = section(path, sections, key, len(names)).tolist()
        for name, held, value in zip(names, stored, want.tolist()):
            if held != value:
                raise ConfigError(f"{path}: section {key!r} holds {name} = {held!r}, "
                                  f"but the run has {name} = {value!r}")
    step = _integer(path, "step", "step", section(path, sections, "step", 1)[0])
    if step < 0:
        raise ConfigError(f"{path}: section 'step' holds {step}, expected >= 0")
    # load_student refused a moment section without its pair
    moments = {name: (section(path, sections, f"adam.m.{name}"), sections[f"adam.v.{name}"])
               for name in opt.m}
    for (_, p), (_, held) in zip(distiller.student.named_parameters(), loaded.named_parameters()):
        p.data = held.data
    for name, p in opt.params:
        opt.m[name], opt.v[name] = (moment.astype(p.data.dtype) for moment in moments[name])
    opt.t = step
    return distiller


def train(distiller, prepared, epochs):
    """The training loop: ``epochs`` passes over ``prepared`` in record order,
    one optimizer step per ``cfg.batch_size`` records. ``prepared`` is a list
    of prepared records or a ``ManifestRecords``; a step takes one slice of
    it and keeps no reference to the slice after it. Steps before
    ``distiller.step_count`` are skipped, so resuming is ``restore_into``
    then ``train``. Returns the reports of the steps run."""
    cfg = distiller.cfg
    per_epoch = -(-len(prepared) // cfg.batch_size)
    reports = []
    for idx in range(distiller.step_count, epochs * per_epoch):
        lo = idx % per_epoch * cfg.batch_size
        rng = np.random.default_rng([cfg.seed, STREAM_STEP, idx])
        reports.append(distiller.step_batch(prepared[lo:lo + cfg.batch_size], rng))
    return reports


@dataclass
class RunResult:
    reports: list
    metrics_path: str
    checkpoint_path: str


def _metrics_history(path, start_step):
    """The first ``start_step`` lines of the metrics log at ``path``, which a
    run resumed at that step keeps; none when there is no log yet."""
    if start_step == 0 or not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < start_step:
        raise ConfigError(f"{path}: holds {len(lines)} metrics lines, but the run "
                          f"resumes at step {start_step}")
    return lines[:start_step]


def distill_run(cfg):
    """Train for cfg.epochs passes over the manifest, one optimizer step per
    batch, writing the metrics log, config echo, and a final checkpoint.
    Every record's files are checked before step 0; each step prepares its
    own records. A resumed run keeps the log's lines of the steps before it."""
    distiller = Distiller(cfg)
    records = read_manifest(cfg.manifest)
    if cfg.resume:
        restore_into(distiller, cfg.resume)
    for rec in records:
        read_record(rec, distiller.vfm, cfg)
    start_step = distiller.step_count
    metrics_path = os.path.join(cfg.report_dir, METRICS_NAME)
    lines = _metrics_history(metrics_path, start_step)
    reports = train(distiller, ManifestRecords(records, distiller.vfm, cfg), cfg.epochs)
    lines += [report.line(idx) for idx, report in enumerate(reports, start=start_step)]
    os.makedirs(cfg.report_dir, exist_ok=True)
    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    atomic_write_text(metrics_path, "".join(line + "\n" for line in lines))
    atomic_write_text(os.path.join(cfg.report_dir, CONFIG_ECHO_NAME), echo_config(cfg))
    checkpoint_path = os.path.join(cfg.checkpoint_dir, CHECKPOINT_NAME)
    save_checkpoint(checkpoint_path, distiller.student, distiller.optimizer,
                    distiller.step_count, cfg.seed, cfg.batch_size)
    return RunResult(reports=reports, metrics_path=metrics_path,
                     checkpoint_path=checkpoint_path)
