"""Semantic affinity machinery for the context-distillation teacher signal:
token-pairwise cosine affinity of a feature provider, chain fusion of
self-attention stacks, completion of the affinity by the fused attention,
plus attention diagnostics dumps.

Everything here is teacher-side and gradient-free: plain float64 arrays.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .container import write_pgm, write_tensor
from .errors import (
    DegenerateInputError,
    DistributionError,
    EvaluationError,
    ParameterError,
    ShapeError,
)
from .regions import FULL_BOX, crop_resize
from .tensor import Tensor
from .vit import capture_attention

_KINDS = ("cosine", "stochastic", "raw")


@dataclass
class AffinityMatrix:
    """(HW, HW) pairwise token-relation matrix over an (h, w) token grid."""
    values: np.ndarray
    kind: str
    grid: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        h, w = self.grid
        if self.values.shape != (h * w, h * w):
            raise ShapeError(f"affinity {self.values.shape} does not match grid {self.grid}")
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown affinity kind {self.kind!r}")
        if self.kind == "cosine":
            if np.abs(self.values - self.values.T).max() > 1e-6:
                raise ShapeError("cosine affinity must be symmetric")
            if np.abs(np.diag(self.values) - 1.0).max() > 1e-6:
                raise ShapeError("cosine affinity must have unit diagonal")
            if self.values.min() < -1.0 - 1e-9 or self.values.max() > 1.0 + 1e-9:
                raise EvaluationError("cosine affinity entries outside [-1, 1]")
        elif self.kind == "stochastic":
            if self.values.min() < 0.0:
                raise DistributionError("stochastic affinity has negative entries")
            if np.abs(self.values.sum(axis=1) - 1.0).max() > 1e-6:
                raise DistributionError("stochastic affinity rows do not sum to 1")


@dataclass
class SdAttentionStack:
    """L self-attention maps over one token grid, ingested or synthesized."""
    maps: np.ndarray           # (L, HW, HW)
    source: str                # "ingested" | "synthetic"
    grid: tuple

    def __post_init__(self):
        self.maps = np.asarray(self.maps, dtype=np.float64)
        h, w = self.grid
        if self.maps.ndim != 3 or self.maps.shape[0] < 1 or self.maps.shape[1:] != (h * w, h * w):
            raise ShapeError(f"stack {self.maps.shape} does not match grid {self.grid}")
        if self.maps.min() < 0.0 or np.abs(self.maps.sum(axis=2) - 1.0).max() > 1e-6:
            raise DistributionError("every stack slice must be row-stochastic")


def _square_grid(hw):
    side = math.isqrt(hw)
    if side * side != hw:
        raise ParameterError(f"token count {hw} is not a square grid; pass grid explicitly")
    return side, side


def vfm_affinity(tokens, grid=None):
    """Cosine affinity S[i][j] = cos(x_i, x_j) between provider tokens (HW, D).

    Symmetrized and clipped against float roundoff; diagonal pinned at 1."""
    arr = tokens.data if isinstance(tokens, Tensor) else np.asarray(tokens, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected (HW, D) tokens, got {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    if (norms == 0.0).any():
        raise DegenerateInputError("zero-norm token in provider features")
    unit = arr / norms[:, None]
    sim = unit @ unit.T
    sim = np.clip((sim + sim.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    return AffinityMatrix(values=sim, kind="cosine",
                          grid=grid if grid is not None else _square_grid(arr.shape[0]))


def fuse_sd_attention(stack):
    """Chain product of the stack slices in index order, 64-bit accumulation.

    A product of row-stochastic matrices is row-stochastic; exactly
    normalized inputs keep row sums within 1e-9 for chains of length <= 8."""
    fused = stack.maps[0]
    for i in range(1, stack.maps.shape[0]):
        fused = fused @ stack.maps[i]
    return AffinityMatrix(values=fused, kind="stochastic", grid=stack.grid)


def complete_affinity(a_hat, s_vfm):
    """Left-multiply the provider affinity by the fused attention: each output
    row is a convex combination of affinity rows, so entries stay in [-1, 1]."""
    if a_hat.grid != s_vfm.grid:
        raise ShapeError(f"grid mismatch {a_hat.grid} vs {s_vfm.grid}")
    if a_hat.kind != "stochastic":
        raise ParameterError(f"completion needs a stochastic left factor, got {a_hat.kind!r}")
    if s_vfm.kind != "cosine":
        raise ParameterError(f"completion needs a cosine affinity, got {s_vfm.kind!r}")
    completed = a_hat.values @ s_vfm.values
    if completed.min() < -1.0 - 1e-9 or completed.max() > 1.0 + 1e-9:
        raise EvaluationError("completed affinity escaped [-1, 1]")
    return AffinityMatrix(values=completed, kind="raw", grid=s_vfm.grid)


def synth_sd_attention(segmentation, sharpness, rng, num_maps=3, noise_std=0.25):
    """Synthetic stand-in for an ingested self-attention stack: row-stochastic
    maps concentrated inside ground-truth segments.

    Same-label pairs get logit ``sharpness`` (others 0) plus optional
    Gaussian logit noise; sharpness -> inf gives block-uniform maps,
    sharpness 0 with no noise gives uniform rows."""
    labels = np.asarray(segmentation)
    if labels.size == 0:
        raise ParameterError("empty segment map")
    if labels.ndim != 2:
        raise ShapeError(f"segment map must be 2-D, got {labels.shape}")
    if num_maps < 1:
        raise ParameterError("num_maps must be >= 1")
    flat = labels.reshape(-1)
    same = (flat[:, None] == flat[None, :]).astype(np.float64)
    hw = flat.size
    maps = np.empty((num_maps, hw, hw))
    for i in range(num_maps):
        logits = sharpness * same
        if noise_std:
            logits = logits + noise_std * rng.standard_normal((hw, hw))
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        maps[i] = e / e.sum(axis=1, keepdims=True)
    return SdAttentionStack(maps=maps, source="synthetic", grid=labels.shape)


def dump_attention_analysis(params, image, layers, query_index, out_dir):
    """Per-layer attention diagnostics: the mean-over-heads map and the query
    row upsampled to input resolution, as P5 grey maps plus a numeric sidecar.

    ``query_index`` is an image-token index or the string "cls"."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    res = arr.shape[-1]
    side = params.grid_side
    hw = side * side
    if isinstance(query_index, str):
        if query_index.lower() != "cls":
            raise ParameterError(f"query must be a token index or 'cls', got {query_index!r}")
        row_idx = 0
    else:
        if not 0 <= int(query_index) < hw:
            raise ParameterError(f"query index {query_index} outside [0, {hw})")
        row_idx = 1 + int(query_index)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    sidecar = []
    for layer in layers:
        maps = capture_attention(arr, params, layer)
        mean = maps.mean(axis=2)
        row = mean[row_idx]
        grid_row = row[1:].reshape(side, side)
        upsampled = crop_resize(grid_row[None], FULL_BOX, res)[0]
        full_path = os.path.join(out_dir, f"layer{layer}_full.pgm")
        query_path = os.path.join(out_dir, f"layer{layer}_query.pgm")
        write_pgm(full_path, mean)
        write_pgm(query_path, upsampled)
        written.extend([full_path, query_path])
        sidecar.extend([
            (f"layer{layer}.mean", mean),
            (f"layer{layer}.query_row", row),
            (f"layer{layer}.query_upsampled", upsampled),
        ])
    sidecar_path = os.path.join(out_dir, "attention_analysis.dten")
    write_tensor(sidecar_path, sidecar)
    written.append(sidecar_path)
    return written
