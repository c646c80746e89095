"""Training-free evaluation protocols: per-pixel open-vocabulary
segmentation scored by mIoU, region classification scored by Top-1 mean
accuracy, and the coupled-vs-decoupled ablation harness.

Class embeddings at desk scale are either ingested vectors or the frozen
teacher's summary embeddings of single-class canvases (the teacher's
summary space stands in for the text-embedding space)."""

from __future__ import annotations

from dataclasses import dataclass, fields, make_dataclass

import numpy as np

from .container import read_tensor, write_tensor
from .errors import DegenerateInputError, ParameterError, ShapeError
from .regions import FULL_BOX, CropBox, crop_resize, roi_align
from .affinity import synth_sd_attention
from .synthdata import make_suite, pure_canvas
from .tensor import Tensor, _unit_rows
from .trainer import (SD_MAPS, STREAM_SD, VARIANTS, Distiller, PreparedRecord,
                      provider_tokens, train)
from .config import RunConfig
from .vit import encode_cls, encode_dense


@dataclass
class ClassEmbeddings:
    names: list
    vectors: np.ndarray   # (K, E) unit rows

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if len(self.names) != self.vectors.shape[0] or self.vectors.shape[0] < 2:
            raise ParameterError("need >= 2 named class vectors")
        if not np.isfinite(self.vectors).all():
            raise ParameterError("class vectors must be finite")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.abs(norms - 1.0).max() > 1e-6:
            raise ParameterError("class vectors must be unit-normalized")


def save_class_embeddings(path, embeddings):
    write_tensor(path, [(f"class.{name}", vec)
                        for name, vec in zip(embeddings.names, embeddings.vectors)])


def load_class_embeddings(path):
    sections = read_tensor(path)
    names, rows = [], []
    for name, arr in sections.items():
        if not name.startswith("class."):
            raise ParameterError(f"{path}: unexpected section {name!r}")
        names.append(name[len("class."):])
        rows.append(np.asarray(arr, dtype=np.float64).reshape(-1))
    if not rows:
        raise ParameterError(f"{path}: no class.<name> section")
    widths = sorted({row.size for row in rows})
    if len(widths) > 1:
        raise ParameterError(f"{path}: class vectors have unequal widths {widths}")
    try:
        return ClassEmbeddings(names=names, vectors=np.stack(rows))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def class_prototypes(teacher, colors):
    """Teacher summary embeddings of noise-free single-class canvases."""
    k = colors.shape[0]
    names = [f"class{i}" for i in range(k)]
    rows = []
    for label in range(k):
        canvas = pure_canvas(colors, label, teacher.input_res)
        rows.append(encode_cls(canvas, teacher).astype(np.float64))
    return ClassEmbeddings(names=names, vectors=_unit_rows(np.stack(rows), "class prototypes")[0])


@dataclass
class SegResult:
    labels: np.ndarray     # (h, w) argmax at feature resolution
    scores: np.ndarray     # (K, h, w) cosine scores
    upsampled: np.ndarray  # (out, out) argmax after bilinear score upsampling


def segment_training_free(dense, classes, out_res):
    """Zero-shot per-pixel classification: cosine between each dense feature
    pixel and every class vector; scores upsampled, then argmax. No
    post-processing."""
    h, w = dense.grid
    if out_res < max(h, w):
        raise ParameterError(f"out_res {out_res} below feature grid {dense.grid}")
    unit, _ = _unit_rows(dense.tokens.data.astype(np.float64), "dense features")
    scores = (classes.vectors @ unit.T).reshape(classes.vectors.shape[0], h, w)
    up = crop_resize(scores, FULL_BOX, out_res)
    return SegResult(labels=scores.argmax(axis=0).astype(np.int32),
                     scores=scores,
                     upsampled=up.argmax(axis=0).astype(np.int32))


def confusion_matrix(pred, gt, num_classes):
    """(K, K) counts, ground truth on rows; every label must lie in [0, K)."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    gt, pred = gt.reshape(-1).astype(np.int64), pred.reshape(-1).astype(np.int64)
    for name, lab in (("ground-truth", gt), ("predicted", pred)):
        bad = lab[(lab < 0) | (lab >= num_classes)]
        if bad.size:
            raise ParameterError(f"{name} label {bad[0]} outside [0, {num_classes})")
    return np.bincount(gt * num_classes + pred,
                       minlength=num_classes * num_classes).reshape(num_classes, num_classes)


def miou_from_confusion(cm):
    """Mean IoU over classes with nonzero union; also the per-class table."""
    inter = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - inter
    table = {c: float(inter[c]) / float(union[c])
             for c in range(cm.shape[0]) if union[c] > 0}
    if not table:
        raise ParameterError("no class has nonzero union")
    return sum(table.values()) / len(table), table


def miou(pred, gt, num_classes):
    return miou_from_confusion(confusion_matrix(pred, gt, num_classes))


def macc_from_confusion(cm):
    """Mean over classes present in the ground truth (nonzero rows) of
    per-class accuracy, diagonal / row sum."""
    rows = cm.sum(axis=1)
    present = rows > 0
    if not present.any():
        raise ParameterError("no class is present in the ground truth")
    return float(np.mean(np.diag(cm)[present] / rows[present]))


def region_classify(dense, regions, classes, n=4):
    """Label regions (boxes or binary masks) by cosine against the class
    vectors, scored as segment_training_free scores pixels; boxes pool via
    RoI-align means, masks via masked token means."""
    feats = dense.tokens.data.astype(np.float64)
    h, w = dense.grid
    fmap = Tensor(np.ascontiguousarray(feats.T.reshape(-1, h, w)))
    vecs = np.empty((len(regions), feats.shape[1]))
    for i, region in enumerate(regions):
        if isinstance(region, CropBox):
            vecs[i] = roi_align(fmap, region, n).data.mean(axis=0)
        else:
            mask = np.asarray(region, dtype=bool)
            if mask.shape != (h, w):
                raise ShapeError(f"mask {mask.shape} does not match grid {(h, w)}")
            if not mask.any():
                raise DegenerateInputError("empty region mask")
            vecs[i] = feats[mask.reshape(-1)].mean(axis=0)
    unit, _ = _unit_rows(vecs, "region vectors")
    return (classes.vectors @ unit.T).argmax(axis=0).astype(np.int32)


def regions_from_labels(labels):
    """Connected components (4-neighbor) of a label map, the dataset-annotation
    stand-in: (normalized bounding box, label, pixel mask) per component, in
    raster order of each component's first pixel.

    A raster scan starts a component at each pixel no component holds yet;
    a stack of its pixels grows it over their 4-neighbours of equal value."""
    labels = np.asarray(labels)
    h, w = labels.shape
    values, comp, found = labels.tolist(), [[-1] * w for _ in range(h)], []
    for y in range(h):
        for x in range(w):
            if comp[y][x] >= 0:
                continue
            i, value, stack, rows, cols = len(found), values[y][x], [(y, x)], [], []
            comp[y][x] = i
            while stack:
                r, c = stack.pop()
                rows.append(r)
                cols.append(c)
                for rn, cn in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if (0 <= rn < h and 0 <= cn < w and comp[rn][cn] < 0
                            and values[rn][cn] == value):
                        comp[rn][cn] = i
                        stack.append((rn, cn))
            found.append((CropBox(min(cols) / w, y / h, (max(cols) + 1) / w, (max(rows) + 1) / h),
                          int(value)))
    comp = np.array(comp)
    return [(box, value, comp == i) for i, (box, value) in enumerate(found)]


def top1_macc(pred, gt):
    """Mean over classes present in the ground truth of per-class accuracy."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.size == 0 or pred.shape != gt.shape:
        raise ParameterError("need equal-length, nonempty label lists")
    k = int(max(pred.max(), gt.max())) + 1
    return macc_from_confusion(confusion_matrix(pred, gt, k))


def _expanded_labels(segments, grid, out_res):
    if segments.shape != grid:
        return segments
    return np.kron(segments, np.ones((out_res // grid[0], out_res // grid[1]),
                                     dtype=segments.dtype))


def add_confusion(cm, dense, classes, segments, out_res):
    """``cm`` plus one image's segmentation confusion counts: predictions
    upsampled to out_res, ground truth given at token-grid or image
    resolution."""
    seg = segment_training_free(dense, classes, out_res=out_res)
    gt = _expanded_labels(np.asarray(segments), dense.grid, out_res)
    return cm + confusion_matrix(seg.upsampled, gt, cm.shape[0])


def add_region_confusion(cm, dense, classes, regions, labels):
    """``cm`` plus one image's region-classification confusion counts."""
    pred = region_classify(dense, regions, classes)
    return cm + confusion_matrix(pred, np.asarray(labels, dtype=np.int64), cm.shape[0])


# ---------------------------------------------------------------------------
# suite evaluation and the ablation harness
# ---------------------------------------------------------------------------


@dataclass
class VariantMetrics:
    macc: float
    miou: float


class _AblationRows:
    """The ablation table and its flat summary, one row per field."""
    LABELS = {"baseline": "baseline(untrained)", "content": "content-only",
              "coupled": "coupled(single-feature)", "decoupled": "decoupled(full)"}

    def text(self):
        lines = ["variant                  mAcc    mIoU"]
        for f in fields(self):
            m = getattr(self, f.name)
            lines.append(f"{self.LABELS[f.name]:<24} {m.macc:.4f}  {m.miou:.4f}")
        return "\n".join(lines)

    def summary(self):
        return {f"{f.name}_{metric}": getattr(getattr(self, f.name), metric)
                for f in fields(self) for metric in ("macc", "miou")}


# the untrained student's metrics, then each of trainer.VARIANTS'
AblationReport = make_dataclass(
    "AblationReport", [(name, VariantMetrics) for name in ("baseline", *VARIANTS)],
    bases=(_AblationRows,), namespace={"__module__": __name__})


def prepare_suite(suite, distiller, cfg):
    records = []
    for i, sample in enumerate(suite.samples):
        vfm_tokens = provider_tokens(distiller.vfm, sample.image)
        sd = synth_sd_attention(sample.segments, cfg.sd_sharpness,
                                np.random.default_rng([cfg.seed, STREAM_SD, i]),
                                num_maps=SD_MAPS, noise_std=cfg.sd_noise)
        records.append(PreparedRecord(image=sample.image, vfm_tokens=vfm_tokens, sd_stack=sd))
    return records


def evaluate_on_suite(distiller, suite, classes):
    """Aggregate mIoU (segmentation confusion merged across images, scored at
    image resolution on the upsampled predictions) and region mAcc (region
    confusion merged across images) of the distiller's student, in its
    variant's mode."""
    k = classes.vectors.shape[0]
    seg_cm = np.zeros((k, k), dtype=np.int64)
    region_cm = np.zeros((k, k), dtype=np.int64)
    for sample in suite.samples:
        enc = encode_dense(sample.image, distiller.student, VARIANTS[distiller.variant])
        seg_cm = add_confusion(seg_cm, enc, classes, sample.segments, suite.res)
        region_cm = add_region_confusion(region_cm, enc, classes, [b for b, _ in sample.boxes],
                                         [lab for _, lab in sample.boxes])
    return VariantMetrics(macc=macc_from_confusion(region_cm),
                          miou=miou_from_confusion(seg_cm)[0])


def shipped_ablation_config():
    """The pinned, pilot-calibrated configuration of the shipped seeded
    ablation suite: thresholds in the acceptance suite refer to this world."""
    cfg = RunConfig(student_patch=8, student_res=64, student_depth=3, student_width=48,
                    student_heads=4, embed_dim=24, vfm_patch=4, vfm_res=32, vfm_depth=2,
                    vfm_width=12, vfm_heads=2, grid_lo=1, grid_hi=6, epochs=25,
                    batch_size=2, seed=0, lr=3e-3, weight_decay=0.0, lam=0.5, tau=0.25)
    suite = make_suite(seed=cfg.seed, n_images=8, side=8, patch=8, num_classes=6,
                       noise=0.08, gray_rate=0.04, flip_rate=0.06, rects=6)
    return cfg, suite


def ablation_coupled_vs_decoupled(cfg, suite=None):
    """Train each of trainer.VARIANTS from one shared initialization; report
    region mAcc and segmentation mIoU for each plus the untrained baseline."""
    probe = Distiller(cfg)
    if suite is None:
        suite = make_suite(seed=cfg.seed, n_images=8,
                           side=cfg.student_res // cfg.student_patch,
                           patch=cfg.student_patch)
    classes = class_prototypes(probe.teacher, suite.colors)
    baseline = evaluate_on_suite(probe, suite, classes)
    # each variant trains on records of its own, so it reuses its crop
    # targets across epochs only: sharing records would share those targets
    # across variants too, leaving the ablation no repeated crop forward,
    # and the benchmark's own desk_ablate check still requires one
    scored = {}
    for variant in VARIANTS:
        distiller = Distiller(cfg, variant)
        train(distiller, prepare_suite(suite, probe, cfg), cfg.epochs)
        scored[variant] = evaluate_on_suite(distiller, suite, classes)
    return AblationReport(baseline, **scored)
