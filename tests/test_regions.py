"""Region ops against scalar bilinear/pooling oracles."""

import math

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill.errors import DegenerateInputError, ParameterError
from densedistill.gradcheck import finite_diff_check
from densedistill.regions import (
    FULL_BOX,
    CropBox,
    _axis_weights,
    crop_resize,
    resize_bilinear,
    roi_align,
    sample_grid,
    weighted_region_pool,
)


# --- scalar oracles -----------------------------------------------------------

def bilinear_point_oracle(plane, y, x):
    """One clamped half-pixel-center bilinear sample from a (h, w) plane."""
    h, w = plane.shape
    py = min(max(y * h - 0.5, 0.0), h - 1.0)
    px = min(max(x * w - 0.5, 0.0), w - 1.0)
    y0, x0 = int(math.floor(py)), int(math.floor(px))
    y0, x0 = min(y0, h - 1), min(x0, w - 1)
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    fy, fx = py - y0, px - x0
    return ((1 - fy) * (1 - fx) * plane[y0, x0] + (1 - fy) * fx * plane[y0, x1]
            + fy * (1 - fx) * plane[y1, x0] + fy * fx * plane[y1, x1])


def roi_oracle(features, box, n):
    c = features.shape[0]
    out = np.zeros((n * n, c))
    for v in range(n):
        for u in range(n):
            y = box.y0 + (v + 0.5) / n * (box.y1 - box.y0)
            x = box.x0 + (u + 0.5) / n * (box.x1 - box.x0)
            for ch in range(c):
                out[v * n + u, ch] = bilinear_point_oracle(features[ch], y, x)
    return out


def pool_oracle(f_s, f_t):
    k = f_s.shape[0]
    cos = []
    for i in range(k):
        num = sum(f_s[i, j] * f_t[j] for j in range(f_s.shape[1]))
        cos.append(num / (math.sqrt(sum(v * v for v in f_s[i])) * math.sqrt(sum(v * v for v in f_t))))
    m = max(cos)
    e = [math.exp(v - m) for v in cos]
    w = [v / sum(e) for v in e]
    return sum(w[i] * f_s[i] for i in range(k))


# --- CropBox / sample_grid ------------------------------------------------------

def test_box_validation():
    with pytest.raises(ParameterError):
        CropBox(0.5, 0.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        CropBox(-0.1, 0.0, 0.5, 1.0)


def test_sample_grid_single():
    boxes = sample_grid(np.random.default_rng(0), 1, 1)
    assert boxes == [FULL_BOX]


def test_sample_grid_partition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        boxes = sample_grid(rng, 2, 3)
        assert abs(sum(b.area for b in boxes) - 1.0) < 1e-12
        # disjoint: pairwise overlap area is zero
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                ox = max(0.0, min(a.x1, b.x1) - max(a.x0, b.x0))
                oy = max(0.0, min(a.y1, b.y1) - max(a.y0, b.y0))
                assert ox * oy == 0.0


def test_sample_grid_range_validation():
    with pytest.raises(ParameterError):
        sample_grid(np.random.default_rng(0), 3, 2)
    with pytest.raises(ParameterError):
        sample_grid(np.random.default_rng(0), 0, 2)


def test_sample_grid_uniformity_chi_square():
    rng = np.random.default_rng(2024)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        boxes = sample_grid(rng, 1, 6)
        # recover (m, n) from the box layout
        n = sum(1 for b in boxes if b.y0 == 0.0)
        m = len(boxes) // n
        counts[(m, n)] = counts.get((m, n), 0) + 1
    expect = draws / 36
    sigma = math.sqrt(draws * (1 / 36) * (35 / 36))
    for pair in [(m, n) for m in range(1, 7) for n in range(1, 7)]:
        assert abs(counts.get(pair, 0) - expect) < 3 * sigma, pair


# --- roi_align --------------------------------------------------------------------

def test_roi_constant_map():
    feats = T.Tensor(np.full((2, 4, 4), 7.5))
    out = roi_align(feats, CropBox(0.1, 0.2, 0.8, 0.9), 3)
    np.testing.assert_allclose(out.data, 7.5)


def test_roi_center_of_2x2():
    feats = T.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = roi_align(feats, FULL_BOX, 1)
    np.testing.assert_allclose(out.data, [[2.5]], atol=1e-12)


def test_roi_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        c, h, w = rng.integers(1, 4), rng.integers(2, 7), rng.integers(2, 7)
        feats = rng.standard_normal((c, h, w))
        x0, y0 = rng.uniform(0, 0.5, 2)
        box = CropBox(float(x0), float(y0), float(x0 + rng.uniform(0.1, 0.5)),
                      float(y0 + rng.uniform(0.1, 0.5)))
        n = int(rng.integers(1, 5))
        got = roi_align(T.Tensor(feats), box, n).data
        assert np.abs(got - roi_oracle(feats, box, n)).max() < 1e-6


def test_roi_linearity():
    rng = np.random.default_rng(6)
    f = rng.standard_normal((3, 5, 5))
    g = rng.standard_normal((3, 5, 5))
    box = CropBox(0.2, 0.1, 0.9, 0.7)
    lhs = roi_align(T.Tensor(2.5 * f + 1.5 * g), box, 3).data
    rhs = 2.5 * roi_align(T.Tensor(f), box, 3).data + 1.5 * roi_align(T.Tensor(g), box, 3).data
    assert np.abs(lhs - rhs).max() < 1e-6


def test_roi_gradient_finite_differences():
    feats = T.Tensor(np.random.default_rng(7).standard_normal((2, 4, 4)))
    box = CropBox(0.05, 0.15, 0.85, 0.95)

    def f(t):
        pooled = roi_align(t, box, 3)
        return T.sum_all(T.mul(pooled, pooled))

    assert finite_diff_check(f, [feats], name="roi_align").passed


def test_roi_validation():
    with pytest.raises(ParameterError):
        roi_align(T.Tensor(np.ones((1, 2, 2))), FULL_BOX, 0)


# --- weighted_region_pool -----------------------------------------------------------

def test_pool_single_row():
    f_s = T.Tensor([[1.0, 2.0, 3.0]])
    out = weighted_region_pool(f_s, T.Tensor([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])


def test_pool_identical_rows_fixed_point():
    row = np.array([0.3, -0.7, 1.1])
    f_s = T.Tensor(np.tile(row, (4, 1)))
    out = weighted_region_pool(f_s, T.Tensor(np.array([1.0, 0.0, 0.5])))
    np.testing.assert_allclose(out.data, row, atol=1e-12)


def test_pool_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    f_s = rng.standard_normal((4, 3))
    f_t = rng.standard_normal(3)
    got = weighted_region_pool(T.Tensor(f_s), T.Tensor(f_t)).data
    assert np.abs(got - pool_oracle(f_s, f_t)).max() < 1e-6


def test_pool_output_in_convex_hull():
    rng = np.random.default_rng(9)
    f_s = rng.standard_normal((6, 4))
    out = weighted_region_pool(T.Tensor(f_s), T.Tensor(rng.standard_normal(4))).data
    assert (out >= f_s.min(axis=0) - 1e-9).all()
    assert (out <= f_s.max(axis=0) + 1e-9).all()


def test_pool_zero_norm_rejected():
    with pytest.raises(DegenerateInputError):
        weighted_region_pool(T.Tensor([[0.0, 0.0]]), T.Tensor([1.0, 0.0]))


def test_pool_gradient_finite_differences():
    rng = np.random.default_rng(10)
    f_s = T.Tensor(rng.standard_normal((4, 3)))
    f_t = T.Tensor(rng.standard_normal(3))

    def f(s, t):
        pooled = weighted_region_pool(s, t)
        return T.sum_all(T.mul(pooled, pooled))

    assert finite_diff_check(f, [f_s, f_t], name="weighted_region_pool").passed


# --- crop_resize / resize_bilinear ----------------------------------------------------

def test_crop_resize_identity():
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 1, (3, 6, 6))
    out = crop_resize(img, FULL_BOX, 6)
    assert np.abs(out - img).max() < 1e-6


def test_crop_resize_constant():
    out = crop_resize(np.full((3, 8, 8), 0.25), CropBox(0.1, 0.3, 0.7, 0.8), 5)
    np.testing.assert_allclose(out, 0.25)


def test_crop_resize_matches_hand_bilinear():
    ramp = np.arange(16, dtype=np.float64).reshape(1, 4, 4).repeat(3, axis=0)
    got = crop_resize(ramp, FULL_BOX, 2)
    want = np.zeros((3, 2, 2))
    for v in range(2):
        for u in range(2):
            want[:, v, u] = bilinear_point_oracle(ramp[0], (v + 0.5) / 2, (u + 0.5) / 2)
    assert np.abs(got - want).max() < 1e-6


def full_image_crop_oracle(img, box, out_res):
    """The bilinear crop contracted over every pixel of the image."""
    _, h, w = img.shape
    wy = _axis_weights(box.y0, box.y1, out_res, h)
    wx = _axis_weights(box.x0, box.x1, out_res, w)
    return np.einsum("ih,chw,jw->cij", wy, img, wx)


def test_crop_resize_matches_full_image_contraction():
    rng = np.random.default_rng(13)
    img = rng.uniform(0, 1, (3, 40, 40))
    boxes = [FULL_BOX, CropBox(0.0, 0.0, 0.05, 0.05), CropBox(0.95, 0.95, 1.0, 1.0),
             CropBox(0.0, 0.9, 1.0, 1.0), CropBox(0.9, 0.0, 1.0, 1.0),
             CropBox(0.3, 0.4, 0.3125, 0.45)]
    for _ in range(4):
        boxes += sample_grid(rng)
    for box in boxes:
        for out_res in (1, 7, 16):
            got = crop_resize(img, box, out_res)
            assert got.shape == (3, out_res, out_res)
            assert np.abs(got - full_image_crop_oracle(img, box, out_res)).max() < 1e-12, box


def test_resize_bilinear_matches_crop_resize_full_box():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((4, 3, 5))
    got = resize_bilinear(stack, 7, 9)
    for k in range(4):
        for i in range(7):
            for j in range(9):
                want = bilinear_point_oracle(stack[k], (i + 0.5) / 7, (j + 0.5) / 9)
                assert abs(got[k, i, j] - want) < 1e-9
