"""Region machinery: grid crop sampling, RoI pooling by bilinear
interpolation, similarity-weighted pooling, and image crop/resize.

All coordinates are normalized to the unit square; sampling uses
half-pixel centers (pixel i of an axis of length s covers
[i/s, (i+1)/s) with its center at (i+0.5)/s) and clamps at the borders.
"""

from __future__ import annotations

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

    @property
    def area(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)


FULL_BOX = CropBox(0.0, 0.0, 1.0, 1.0)


def sample_grid(rng, range_lo=1, range_hi=6):
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
    np.add.at(w, (rows, i0), 1.0 - frac)
    np.add.at(w, (rows, i1), frac)
    return w


def roi_align(features, box, n):
    """Pool an N x N grid of bilinear samples (one per bin center) from a
    (C, H, W) feature map inside ``box``; rows are bins, row-major."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"pool grid side must be a positive int, got {n}")
    if not isinstance(features, Tensor) or features.data.ndim != 3:
        raise ShapeError("roi_align needs a (C, H, W) feature tensor")
    c, h, w = features.shape
    if (box.x1 - box.x0) * w <= 0.0 or (box.y1 - box.y0) * h <= 0.0:
        raise DegenerateInputError(f"box {box} degenerate on the {h}x{w} grid")
    wy = _axis_weights(box.y0, box.y1, n, h)
    wx = _axis_weights(box.x0, box.x1, n, w)
    # sampling matrix over flattened pixels: bin (v,u) -> row v*n+u
    m = (wy[:, None, :, None] * wx[None, :, None, :]).reshape(n * n, h * w)
    m = m.astype(features.data.dtype, copy=False)
    flat = features.data.reshape(c, h * w)
    out = np.ascontiguousarray(flat @ m.T).T  # (n*n, c)

    def back(g):
        return ((g.T @ m).reshape(c, h, w),)

    return from_op(np.ascontiguousarray(out), (features,), back)


def weighted_region_pool(f_s, f_t):
    """Softmax-weighted sum of region rows, weighted by cosine similarity to
    the teacher summary vector."""
    if f_t.data.ndim == 1:
        f_t = T.reshape(f_t, (1, f_t.shape[0]))
    if f_s.data.ndim != 2 or f_t.shape != (1, f_s.shape[1]):
        raise ShapeError(f"expected (k,C) rows and a C teacher vector, got {f_s.shape} vs {f_t.shape}")
    cos = T.cosine_matrix(f_s, f_t)          # (k, 1); raises on zero norms
    weights = T.softmax_rows(T.transpose(cos))
    pooled = T.matmul(weights, f_s)
    return T.reshape(pooled, (f_s.shape[1],))


def crop_resize(image, box, out_res):
    """Bilinear resample of the boxed region of a (3, R, R) image to
    (3, out_res, out_res). Plain arrays in, plain arrays out."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected a (3, R, R) image, got {arr.shape}")
    if not isinstance(out_res, int) or out_res < 1:
        raise ParameterError(f"out_res must be a positive int, got {out_res}")
    _, h, w = arr.shape
    if (box.x1 - box.x0) * w <= 0.0 or (box.y1 - box.y0) * h <= 0.0:
        raise DegenerateInputError(f"box {box} degenerate on a {h}x{w} image")
    wy = _axis_weights(box.y0, box.y1, out_res, h)
    wx = _axis_weights(box.x0, box.x1, out_res, w)
    # the weights vanish outside the box's pixels (+-1), so contract only those
    ys = np.flatnonzero(wy.any(axis=0))
    xs = np.flatnonzero(wx.any(axis=0))
    return np.einsum("ih,chw,jw->cij", wy[:, ys], arr[:, ys][:, :, xs], wx[:, xs],
                     optimize=True)


def resize_bilinear(planes, out_h, out_w):
    """Resample a (K, h, w) stack to (K, out_h, out_w) over the full extent."""
    planes = np.asarray(planes, dtype=np.float64)
    if planes.ndim != 3:
        raise ShapeError(f"expected a (K, h, w) stack, got {planes.shape}")
    _, h, w = planes.shape
    wy = _axis_weights(0.0, 1.0, out_h, h)
    wx = _axis_weights(0.0, 1.0, out_w, w)
    return np.einsum("ih,khw,jw->kij", wy, planes, wx, optimize=True)
