"""Semantic affinity machinery for the context-distillation teacher signal:
token-pairwise cosine affinity of a feature provider, chain fusion of
self-attention stacks, completion of the affinity by the fused attention,
plus attention diagnostics dumps.

Everything here is teacher-side and gradient-free: plain float64 arrays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .container import write_pgm, write_tensor
from .errors import DistributionError, EvaluationError, ParameterError, ShapeError
from .regions import FULL_BOX, crop_resize
from .tensor import ROW_SUM_TOL, _softmax, _unit_rows
from .vit import capture_attention


@dataclass
class SdAttentionStack:
    """L row-stochastic self-attention maps over one N-token sequence."""
    maps: np.ndarray           # (L, N, N)

    def __post_init__(self):
        self.maps = np.asarray(self.maps, dtype=np.float64)
        shape = self.maps.shape
        if len(shape) != 3 or shape[0] < 1 or shape[1] != shape[2]:
            raise ShapeError(f"stack {shape} is not (L, N, N)")
        # stated as what must hold, so that a NaN, which fails every
        # comparison, fails it too
        if not (self.maps.min() >= 0.0
                and np.abs(self.maps.sum(axis=2) - 1.0).max() <= ROW_SUM_TOL):
            raise DistributionError("every stack slice must be finite and row-stochastic")


def vfm_affinity(tokens):
    """Cosine affinity S[i][j] = cos(x_i, x_j) between provider tokens (N, D).

    Symmetrized and clipped against float roundoff; diagonal pinned at 1."""
    arr = np.asarray(tokens, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected (N, D) tokens, got {arr.shape}")
    unit, _ = _unit_rows(arr, "provider tokens")
    sim = unit @ unit.T
    sym = sim + sim.T
    sym /= 2.0
    np.clip(sym, -1.0, 1.0, out=sym)
    np.fill_diagonal(sym, 1.0)
    return sym


def fuse_sd_attention(stack):
    """Chain product of the stack slices in index order, 64-bit accumulation.

    A product of row-stochastic matrices is row-stochastic, but each slice
    is only checked to ROW_SUM_TOL, so the product's row sums are checked again."""
    fused = stack.maps[0]
    for i in range(1, stack.maps.shape[0]):
        fused = fused @ stack.maps[i]
    if np.abs(fused.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise DistributionError("fused attention rows do not sum to 1")
    return fused


def complete_affinity(fused, s_vfm):
    """Left-multiply the provider affinity by the fused attention: each output
    row is a convex combination of affinity rows, so entries stay in [-1, 1]."""
    if fused.shape != s_vfm.shape:
        raise ShapeError(f"fused attention {fused.shape} does not match affinity {s_vfm.shape}")
    completed = fused @ s_vfm
    # stated as what must hold, so that a NaN, which fails every comparison, fails it
    if not (completed.min() >= -1.0 - 1e-9 and completed.max() <= 1.0 + 1e-9):
        raise EvaluationError("completed affinity escaped [-1, 1]")
    return completed


def synth_sd_attention(segmentation, sharpness, rng, num_maps, noise_std):
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
    hw = flat.size
    same = sharpness * (flat[:, None] == flat[None, :]).astype(np.float64)
    maps = np.empty((num_maps, hw, hw))
    logits = np.empty((hw, hw)) if noise_std else same
    for i in range(num_maps):
        if noise_std:
            rng.standard_normal(out=logits)
            logits *= noise_std
            logits += same
        _softmax(logits, logits.max(axis=1, keepdims=True), maps[i])
    return SdAttentionStack(maps=maps)


def dump_attention_analysis(params, image, layers, query_index, out_dir):
    """Per-layer attention diagnostics: the mean-over-heads map and the query
    row upsampled to input resolution, as P5 grey maps plus a numeric sidecar.

    ``query_index`` is an image-token index or the string "cls"."""
    arr = np.asarray(image, dtype=np.float64)
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
    maps = capture_attention(arr, params, layers)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    sidecar = []
    for layer, attn in zip(layers, maps):
        mean = attn.mean(axis=2)
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
