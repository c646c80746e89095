"""Seeded synthetic training/eval worlds.

An image is a token-grid-aligned partition of the canvas into rectangles,
one class each; every token cell carries its class color plus pixel noise.
Two kinds of degraded cells keep their ground-truth label but lose their
appearance: "gray" cells (neutral color, weak signal) and "flipped" cells
(another class's color, misleading signal). Degraded cells are what make
context aggregation and affinity completion earn their keep: they are
unrecoverable from their own appearance but trivial from their segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import atomic_write_text, write_tensor
from .errors import ParameterError
from .regions import CropBox


@dataclass
class SynthSample:
    image: np.ndarray        # (3, R, R) float in [0, 1]
    segments: np.ndarray     # (side, side) int32 token-grid labels
    boxes: list              # [(CropBox, label)] rectangle annotations


@dataclass
class SynthSuite:
    samples: list
    colors: np.ndarray       # (K, 3) class colors
    side: int
    patch: int

    @property
    def res(self):
        return self.side * self.patch


def _split_rects(rng, side, target):
    """Guillotine partition of a side x side grid into ~target rectangles."""
    rects = [(0, 0, side, side)]
    while len(rects) < target:
        areas = [(y1 - y0) * (x1 - x0) for y0, x0, y1, x1 in rects]
        idx = int(np.argmax(areas))
        y0, x0, y1, x1 = rects[idx]
        h, w = y1 - y0, x1 - x0
        if max(h, w) < 2:
            break
        rects.pop(idx)
        if h >= w:
            cut = int(rng.integers(y0 + 1, y1))
            rects += [(y0, x0, cut, x1), (cut, x0, y1, x1)]
        else:
            cut = int(rng.integers(x0 + 1, x1))
            rects += [(y0, x0, y1, cut), (y0, cut, y1, x1)]
    return sorted(rects)


def make_classes(rng, num_classes):
    """Well-separated class colors in [0.1, 0.9]^3."""
    best, best_gap = None, -1.0
    for _ in range(64):
        cand = rng.uniform(0.1, 0.9, size=(num_classes, 3))
        gaps = [np.linalg.norm(cand[i] - cand[j])
                for i in range(num_classes) for j in range(i + 1, num_classes)]
        if min(gaps) > best_gap:
            best, best_gap = cand, min(gaps)
    return best


def make_sample(rng, side, patch, colors, noise, gray_rate, flip_rate, rects):
    """One image with its token-grid labels and rectangle annotations, from
    (K, 3) class colors with K >= 2."""
    num_classes = colors.shape[0]
    parts = _split_rects(rng, side, rects)
    labels = rng.integers(0, num_classes, size=len(parts))
    while len(set(labels.tolist())) < 2:
        labels = rng.integers(0, num_classes, size=len(parts))
    segments = np.zeros((side, side), dtype=np.int32)
    boxes = []
    for (y0, x0, y1, x1), lab in zip(parts, labels):
        segments[y0:y1, x0:x1] = lab
        boxes.append((CropBox(x0 / side, y0 / side, x1 / side, y1 / side), int(lab)))
    draw = rng.random((side, side))
    grays = draw < gray_rate
    flips = (draw >= gray_rate) & (draw < gray_rate + flip_rate)
    offsets = rng.integers(1, num_classes, size=(side, side))
    cells = colors[np.where(flips, (segments + offsets) % num_classes, segments)]
    cells[grays] = 0.5
    image = np.repeat(np.repeat(cells.transpose(2, 0, 1), patch, axis=1), patch, axis=2)
    image += noise * rng.standard_normal(image.shape)
    return SynthSample(image=np.clip(image, 0.0, 1.0), segments=segments, boxes=boxes)


def make_suite(seed, n_images=8, side=8, patch=8, num_classes=6,
               noise=0.08, gray_rate=0.04, flip_rate=0.06, rects=6):
    if n_images < 1:
        raise ParameterError("n_images must be >= 1")
    if num_classes < 2:
        raise ParameterError(f"num_classes must be >= 2, got {num_classes}")
    rng = np.random.default_rng([seed, 100])
    colors = make_classes(rng, num_classes)
    samples = [make_sample(np.random.default_rng([seed, 101, i]), side, patch,
                           colors, noise, gray_rate, flip_rate, rects)
               for i in range(n_images)]
    return SynthSuite(samples=samples, colors=colors, side=side, patch=patch)


def pure_canvas(colors, label, res):
    """Noise-free single-class image, the prototype appearance of a class."""
    return np.broadcast_to(colors[label][:, None, None], (3, res, res)).copy()


def write_suite(out_dir, suite):
    """Serialize a suite as container files plus a manifest; returns the
    manifest path. Paths in the manifest are relative to its directory."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, sample in enumerate(suite.samples):
        img = f"img{i:03d}.dten"
        seg = f"seg{i:03d}.dten"
        write_tensor(os.path.join(out_dir, img), {"image": sample.image})
        write_tensor(os.path.join(out_dir, seg), {"labels": sample.segments})
        lines.append(f"image={img} segments={seg}")
    manifest = os.path.join(out_dir, "manifest.txt")
    atomic_write_text(manifest, "\n".join(lines) + "\n")
    return manifest
