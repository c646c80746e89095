"""Region machinery: grid crop sampling, RoI pooling by bilinear
interpolation, similarity-weighted pooling, and bilinear crop/resize of
images and score maps.

All coordinates are normalized to the unit square; sampling uses
half-pixel centers (pixel i of an axis of length s covers
[i/s, (i+1)/s) with its center at (i+0.5)/s) and clamps at the borders.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError
from . import tensor as T
from .tensor import Tensor, from_op


@dataclass(frozen=True)
class CropBox:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (0.0 <= self.x0 < self.x1 <= 1.0 and 0.0 <= self.y0 < self.y1 <= 1.0):
            raise ParameterError(f"box {self} must sit inside the unit square with positive area")


FULL_BOX = CropBox(0.0, 0.0, 1.0, 1.0)


def sample_grid(rng, range_lo, range_hi):
    """Draw m, n uniformly in [lo, hi] and return the m x n partition of the
    unit square: k = m*n disjoint covering boxes, row-major."""
    if not (isinstance(range_lo, int) and isinstance(range_hi, int) and 1 <= range_lo <= range_hi):
        raise ParameterError(f"invalid grid range [{range_lo}, {range_hi}]")
    m = int(rng.integers(range_lo, range_hi + 1))
    n = int(rng.integers(range_lo, range_hi + 1))
    return [CropBox(j / n, i / m, (j + 1) / n, (i + 1) / m)
            for i in range(m) for j in range(n)]


def _axis_weights(lo, hi, n_out, size):
    """(n_out, size) bilinear sampling matrix for n_out centers spread over
    [lo, hi] of an axis with ``size`` pixels."""
    centers = lo + (np.arange(n_out) + 0.5) / n_out * (hi - lo)
    p = np.clip(centers * size - 0.5, 0.0, size - 1.0)
    i0 = np.minimum(np.floor(p).astype(np.int64), size - 1)
    i1 = np.minimum(i0 + 1, size - 1)
    frac = p - i0
    w = np.zeros((n_out, size))
    rows = np.arange(n_out)
    w[rows, i0] = 1.0 - frac
    w[rows, i1] += frac  # each row once, so clamped i0 == i1 rows sum to 1
    return w


@functools.lru_cache(maxsize=1024)
def _roi_axis_weights(lo, hi, n_out, size):
    """Read-only _axis_weights of a roi_align axis, built once per key: a
    step pools each box from the student and the provider maps on the same
    grid, and the grids repeat across steps. crop_resize's long axes are
    built per call, since keeping them would cost more memory than time."""
    w = _axis_weights(lo, hi, n_out, size)
    w.flags.writeable = False
    return w


def _roi_align(features, box, n):
    """Array kernel of roi_align: the (n*n, C) rows and the (n*n, H*W) sampling matrix."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"pool grid side must be a positive int, got {n}")
    if features.ndim != 3:
        raise ShapeError("roi_align needs a (C, H, W) feature tensor")
    c, h, w = features.shape
    if (box.x1 - box.x0) * w <= 0.0 or (box.y1 - box.y0) * h <= 0.0:
        raise DegenerateInputError(f"box {box} degenerate on the {h}x{w} grid")
    wy = _roi_axis_weights(box.y0, box.y1, n, h)
    wx = _roi_axis_weights(box.x0, box.x1, n, w)
    # sampling matrix over flattened pixels: bin (v,u) -> row v*n+u
    m = (wy[:, None, :, None] * wx[None, :, None, :]).reshape(n * n, h * w)
    m = m.astype(features.dtype, copy=False)
    flat = features.reshape(c, h * w)
    return np.ascontiguousarray(np.ascontiguousarray(flat @ m.T).T), m


def roi_align(features, box, n):
    """Pool an N x N grid of bilinear samples (one per bin center) from a
    (C, H, W) feature tensor inside ``box``; rows are bins, row-major."""
    if not isinstance(features, Tensor):
        raise ShapeError("roi_align needs a (C, H, W) feature tensor")
    (rows, m), shape = _roi_align(features.data, box, n), features.shape
    return from_op(rows, (features,), lambda g: ((g.T @ m).reshape(shape),))


def weighted_region_pool(f_s, f_t):
    """The (1, C) softmax-weighted sum of (k, C) region rows, weighted by
    cosine similarity to the (1, C) teacher summary row."""
    if f_s.data.ndim != 2 or f_t.shape != (1, f_s.shape[1]):
        raise ShapeError(f"expected (k,C) rows and a (1,C) teacher row, got {f_s.shape} vs {f_t.shape}")
    cos = T.cosine_matrix(f_s, f_t)          # (k, 1); raises on zero norms
    weights = T.softmax_rows(T.transpose(cos))
    return T.matmul(weights, f_s)


def crop_resize(image, box, out_res):
    """Bilinear resample of the boxed region of (C, h, w) planes (an image or
    score maps) to (C, out_res, out_res). Plain arrays in, plain arrays out."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected (C, h, w) planes, got {arr.shape}")
    if not isinstance(out_res, int) or out_res < 1:
        raise ParameterError(f"out_res must be a positive int, got {out_res}")
    _, h, w = arr.shape
    if (box.x1 - box.x0) * w <= 0.0 or (box.y1 - box.y0) * h <= 0.0:
        raise DegenerateInputError(f"box {box} degenerate on {h}x{w} planes")
    wy = _axis_weights(box.y0, box.y1, out_res, h)
    wx = _axis_weights(box.x0, box.x1, out_res, w)
    # the weights vanish outside the box's pixels (+-1), so contract only those
    ys = np.flatnonzero(wy.any(axis=0))
    xs = np.flatnonzero(wx.any(axis=0))
    operands = (wy[:, ys], arr[:, ys][:, :, xs], wx[:, xs])
    return np.einsum("ih,chw,jw->cij", *operands,
                     optimize=_resize_path(*(op.shape for op in operands)))


@functools.lru_cache(maxsize=256)
def _resize_path(*shapes):
    """crop_resize's einsum contraction order for these operand shapes, the
    one ``optimize=True`` would search for on every call."""
    return tuple(np.einsum_path("ih,chw,jw->cij", *(np.broadcast_to(0.0, s) for s in shapes),
                                optimize=True)[0])
