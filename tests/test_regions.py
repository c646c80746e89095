"""Region ops against scalar bilinear/pooling oracles."""

import math

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill.errors import DegenerateInputError, ParameterError, ShapeError
from densedistill.gradcheck import finite_diff_check
from densedistill.regions import (
    FULL_BOX,
    CropBox,
    _axis_weights,
    _roi_align,
    _roi_axis_weights,
    crop_resize,
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
        assert abs(sum((b.x1 - b.x0) * (b.y1 - b.y0) for b in boxes) - 1.0) < 1e-12
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


def test_roi_kernel_rows_equal_the_op():
    rng = np.random.default_rng(12)
    for dtype in (np.float64, np.float32):
        feats = rng.standard_normal((3, 5, 7)).astype(dtype)
        for box, n in ((FULL_BOX, 1), (CropBox(0.1, 0.2, 0.8, 0.9), 3),
                       (CropBox(0.5, 0.0, 1.0, 0.4), 4)):
            rows, m = _roi_align(feats, box, n)
            want = roi_align(T.Tensor(feats), box, n).data
            assert rows.dtype == m.dtype == want.dtype == dtype
            assert rows.tobytes() == want.tobytes()
            assert m.shape == (n * n, 5 * 7)


def test_roi_axis_weights_are_cached_read_only_and_equal_a_fresh_build():
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((3, 5, 7))
    g = rng.standard_normal((9, 3))
    box, n = CropBox(0.1, 0.2, 0.8, 0.9), 3
    wy, wx = _axis_weights(0.2, 0.9, n, 5), _axis_weights(0.1, 0.8, n, 7)
    m = (wy[:, None, :, None] * wx[None, :, None, :]).reshape(n * n, 5 * 7)
    want_rows = np.ascontiguousarray(np.ascontiguousarray(feats.reshape(3, 35) @ m.T).T)
    for _ in range(2):  # the first call may build the weights, the second reads the cache
        x = T.Tensor(feats, requires_grad=True)
        rows = roi_align(x, box, n)
        T.backward(T.sum_all(T.mul(rows, T.Tensor(g))))
        assert rows.data.tobytes() == want_rows.tobytes()
        assert x.grad.tobytes() == (g.T @ m).reshape(3, 5, 7).tobytes()
    for cached, fresh in ((_roi_axis_weights(0.2, 0.9, n, 5), wy),
                          (_roi_axis_weights(0.1, 0.8, n, 7), wx)):
        assert not cached.flags.writeable
        assert cached.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0


def test_roi_validation():
    with pytest.raises(ParameterError):
        roi_align(T.Tensor(np.ones((1, 2, 2))), FULL_BOX, 0)
    for features in (np.ones((1, 2, 2)), T.Tensor(np.ones((2, 2)))):
        with pytest.raises(ShapeError, match="feature tensor"):
            roi_align(features, FULL_BOX, 2)
    for shape in ((1, 0, 2), (1, 2, 0)):
        with pytest.raises(DegenerateInputError, match="degenerate"):
            roi_align(T.Tensor(np.ones(shape)), FULL_BOX, 2)


# --- weighted_region_pool -----------------------------------------------------------

def test_pool_single_row():
    f_s = T.Tensor([[1.0, 2.0, 3.0]])
    out = weighted_region_pool(f_s, T.Tensor([[0.0, 1.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]])


def test_pool_identical_rows_fixed_point():
    row = np.array([0.3, -0.7, 1.1])
    f_s = T.Tensor(np.tile(row, (4, 1)))
    out = weighted_region_pool(f_s, T.Tensor(np.array([[1.0, 0.0, 0.5]])))
    np.testing.assert_allclose(out.data, row[None], atol=1e-12)


def test_pool_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    f_s = rng.standard_normal((4, 3))
    f_t = rng.standard_normal((1, 3))
    got = weighted_region_pool(T.Tensor(f_s), T.Tensor(f_t)).data
    assert got.shape == (1, 3)
    assert np.abs(got[0] - pool_oracle(f_s, f_t[0])).max() < 1e-6


def test_pool_output_in_convex_hull():
    rng = np.random.default_rng(9)
    f_s = rng.standard_normal((6, 4))
    out = weighted_region_pool(T.Tensor(f_s), T.Tensor(rng.standard_normal((1, 4)))).data
    assert (out >= f_s.min(axis=0) - 1e-9).all()
    assert (out <= f_s.max(axis=0) + 1e-9).all()


def test_pool_zero_norm_rejected():
    with pytest.raises(DegenerateInputError):
        weighted_region_pool(T.Tensor([[0.0, 0.0]]), T.Tensor([[1.0, 0.0]]))


@pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 4)])
def test_pool_takes_one_teacher_row(shape):
    with pytest.raises(ShapeError, match=r"\(1,C\) teacher row"):
        weighted_region_pool(T.Tensor(np.ones((4, 3))), T.Tensor(np.ones(shape)))


def test_pool_gradient_finite_differences():
    rng = np.random.default_rng(10)
    f_s = T.Tensor(rng.standard_normal((4, 3)))
    f_t = T.Tensor(rng.standard_normal((1, 3)))

    def f(s, t):
        pooled = weighted_region_pool(s, t)
        return T.sum_all(T.mul(pooled, pooled))

    assert finite_diff_check(f, [f_s, f_t], name="weighted_region_pool").passed


# --- crop_resize ----------------------------------------------------------------------

def test_crop_resize_identity():
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 1, (3, 6, 6))
    out = crop_resize(img, FULL_BOX, 6)
    assert np.abs(out - img).max() < 1e-6


def test_crop_resize_validation():
    with pytest.raises(ShapeError, match="planes"):
        crop_resize(np.ones((4, 4)), FULL_BOX, 2)
    for out_res in (0, 2.0):
        with pytest.raises(ParameterError, match="out_res"):
            crop_resize(np.ones((1, 4, 4)), FULL_BOX, out_res)
    for shape in ((1, 0, 4), (1, 4, 0)):
        with pytest.raises(DegenerateInputError, match="degenerate"):
            crop_resize(np.ones(shape), FULL_BOX, 2)


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
        boxes += sample_grid(rng, 1, 6)
    for box in boxes:
        for out_res in (1, 7, 16):
            got = crop_resize(img, box, out_res)
            assert got.shape == (3, out_res, out_res)
            assert np.abs(got - full_image_crop_oracle(img, box, out_res)).max() < 1e-12, box


def axis_weights_oracle(lo, hi, n_out, size):
    w = np.zeros((n_out, size))
    for i in range(n_out):
        p = min(max((lo + (i + 0.5) / n_out * (hi - lo)) * size - 0.5, 0.0), size - 1.0)
        i0 = min(math.floor(p), size - 1)
        i1 = min(i0 + 1, size - 1)
        w[i, i0] += 1.0 - (p - i0)
        w[i, i1] += p - i0
    return w


def test_axis_weights_match_scalar_oracle():
    cases = [(0.0, 1.0, 7, 5), (0.0, 1.0, 16, 8), (0.3, 0.3125, 3, 40),
             (0.0, 0.05, 4, 40), (0.95, 1.0, 4, 40), (0.0, 1.0, 3, 1), (0.5, 1.0, 560, 64)]
    clamped = 0
    for lo, hi, n_out, size in cases:
        got = _axis_weights(lo, hi, n_out, size)
        want = axis_weights_oracle(lo, hi, n_out, size)
        assert got.tobytes() == want.tobytes(), (lo, hi, n_out, size)
        assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-12
        clamped += int(((got == 1.0).sum(axis=1) == 1).sum())
    assert clamped > 0  # rows clamped onto the last pixel, where i0 == i1


@pytest.mark.parametrize("res", [64, 560])
def test_crop_resize_equals_the_searched_contraction_bitwise(res):
    rng = np.random.default_rng(res)
    img = rng.uniform(0, 1, (3, res, res))
    sides = range(1, 7) if res == 64 else (1, 2, 5)
    for m in sides:
        for n in sides:
            boxes = [CropBox(j / n, i / m, (j + 1) / n, (i + 1) / m)
                     for i in range(m) for j in range(n)]
            for box in boxes:
                wy = _axis_weights(box.y0, box.y1, res, res)
                wx = _axis_weights(box.x0, box.x1, res, res)
                ys, xs = np.flatnonzero(wy.any(axis=0)), np.flatnonzero(wx.any(axis=0))
                want = np.einsum("ih,chw,jw->cij", wy[:, ys], img[:, ys][:, :, xs], wx[:, xs],
                                 optimize=True)
                assert crop_resize(img, box, res).tobytes() == want.tobytes(), box


def test_crop_resize_full_box_upsamples_score_planes():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((4, 5, 5))
    got = crop_resize(stack, FULL_BOX, 7)
    assert got.shape == (4, 7, 7)
    for k in range(4):
        for i in range(7):
            for j in range(7):
                want = bilinear_point_oracle(stack[k], (i + 0.5) / 7, (j + 0.5) / 7)
                assert abs(got[k, i, j] - want) < 1e-9
