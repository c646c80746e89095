"""Encoder tests: block semantics vs loop oracles, decoupling identity."""

import math

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill import vit
from densedistill.errors import ModeError, ParameterError, ShapeError
from densedistill.gradcheck import finite_diff_check
from densedistill.vit import VitParams


def tiny_params(depth=1, width=8, heads=1, res=8, patch=4, embed=None, seed=0):
    return VitParams(patch_size=patch, depth=depth, width=width, heads=heads,
                     input_res=res, embed_dim=embed, seed=seed)


def rand_image(rng, res):
    return rng.uniform(0.0, 1.0, size=(3, res, res))


# --- independent single-head loop oracle ------------------------------------

def ln_oracle(m, s, o, eps=1e-5):
    n, c = m.shape
    out = np.zeros_like(m)
    for i in range(n):
        mu = sum(m[i]) / c
        var = sum((v - mu) ** 2 for v in m[i]) / c
        for j in range(c):
            out[i, j] = (m[i, j] - mu) / math.sqrt(var + eps) * s[0, j] + o[0, j]
    return out


def mm_oracle(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(a[i, t] * b[t, j] for t in range(a.shape[1]))
    return out


def softmax_oracle(rows):
    out = np.zeros_like(rows)
    for i in range(rows.shape[0]):
        m = max(rows[i])
        e = [math.exp(v - m) for v in rows[i]]
        out[i] = [v / sum(e) for v in e]
    return out


def gelu_oracle(m):
    return np.array([[0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in row] for row in m])


def block_oracle(x, b, heads=1):
    """Block output and the per-head attention maps, one head at a time."""
    d = x.shape[1] // heads
    h = ln_oracle(x, b.ln1_s.data, b.ln1_o.data)
    q = mm_oracle(h, b.wq.data) + b.bq.data
    k = mm_oracle(h, b.wk.data) + b.bk.data
    v = mm_oracle(h, b.wv.data) + b.bv.data
    mixed = np.zeros_like(x)
    attns = []
    for i in range(heads):
        cols = slice(i * d, (i + 1) * d)
        attn = softmax_oracle(mm_oracle(q[:, cols], k[:, cols].T) / math.sqrt(d))
        mixed[:, cols] = mm_oracle(attn, v[:, cols])
        attns.append(attn)
    y = x + mm_oracle(mixed, b.wo.data) + b.bo.data
    h2 = ln_oracle(y, b.ln2_s.data, b.ln2_o.data)
    ffn = mm_oracle(gelu_oracle(mm_oracle(h2, b.w1.data) + b.b1.data), b.w2.data) + b.b2.data
    return y + ffn, attns


# --- patch_embed --------------------------------------------------------------

@pytest.mark.parametrize("res,patch,expected", [(32, 16, 5), (560, 16, 1226), (490, 14, 1226)])
def test_patch_embed_token_counts(res, patch, expected):
    p = VitParams(patch_size=patch, depth=1, width=4, heads=1, input_res=res, seed=1)
    seq = vit.patch_embed(rand_image(np.random.default_rng(0), res), p)
    assert seq.shape == (expected, 4)


def test_patch_embed_indivisible_resolution():
    p = tiny_params(res=8, patch=4)
    with pytest.raises(ShapeError):
        vit.patch_embed(np.zeros((3, 10, 10)), p)


def test_params_validation():
    with pytest.raises(ParameterError):
        VitParams(patch_size=4, depth=1, width=6, heads=4, input_res=8)
    with pytest.raises(ParameterError):
        VitParams(patch_size=3, depth=1, width=4, heads=1, input_res=8)


# --- attention_block ----------------------------------------------------------

def test_zero_weights_block_is_identity():
    p = tiny_params(width=6)
    b = p.blocks[0]
    for f in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "w1", "b1", "w2", "b2"):
        getattr(b, f).data[...] = 0.0
    x = T.Tensor(np.random.default_rng(0).standard_normal((5, 6)))
    out = vit.attention_block(x, p, 0)
    np.testing.assert_array_equal(out.data, x.data)


def test_single_token_attends_to_itself():
    p = tiny_params(width=4)
    capture = []
    vit.attention_block(T.Tensor(np.random.default_rng(1).standard_normal((1, 4))),
                        p, 0, capture=capture)
    np.testing.assert_allclose(capture[0], [[1.0]], atol=0)


@pytest.mark.parametrize("heads,width", [(1, 5), (2, 6), (4, 8)])
def test_block_matches_loop_oracle(heads, width):
    p = tiny_params(width=width, heads=heads)
    x = np.random.default_rng(2).standard_normal((4, width))
    got = vit.attention_block(T.Tensor(x), p, 0)
    want, attns = block_oracle(x, p.blocks[0], heads)
    assert np.abs(got.data - want).max() < 1e-5
    cap = []
    vit.attention_block(T.Tensor(x), p, 0, capture=cap)
    assert len(cap) == heads
    for got_map, want_map in zip(cap, attns):
        assert np.abs(got_map - want_map).max() < 1e-6


# --- decoupled_block ----------------------------------------------------------

def test_decoupled_equals_standard_attention_when_q_is_k():
    p = tiny_params(depth=1, width=6, heads=1, res=8, patch=4)
    b = p.blocks[0]
    b.wk.data[...] = b.wq.data
    b.bk.data[...] = b.bq.data
    img = rand_image(np.random.default_rng(3), 8)
    std_attn = vit.capture_attention(img, p, 0)[:, :, 0]
    dec = vit.decoupled_block(vit.patch_embed(img, p), p)
    assert np.abs(dec.attn_full - std_attn).max() < 1e-6


def test_decoupled_one_token():
    p = tiny_params(width=4)
    b = p.blocks[0]
    x = T.Tensor(np.random.default_rng(4).standard_normal((1, 4)))
    dec = vit.decoupled_block(x, p, has_cls=False)
    np.testing.assert_allclose(dec.attn_context, [[1.0]], atol=0)
    h = vit.layer_norm_rows(x, b.ln1_s, b.ln1_o)
    v = T.add(T.matmul(h, b.wv), b.bv)
    want = T.add(T.matmul(v, b.wo), b.bo)
    np.testing.assert_allclose(dec.x_content.data, want.data, atol=1e-12)


def test_decoupled_matches_hand_composition():
    p = tiny_params(width=6, heads=2)
    x = np.random.default_rng(5).standard_normal((4, 6))
    dec = vit.decoupled_block(T.Tensor(x), p, has_cls=False)
    b = p.blocks[0]
    h = vit.layer_norm_rows(T.Tensor(x), b.ln1_s, b.ln1_o)
    xc = T.add(T.matmul(h, b.wq), b.bq)
    v = T.add(T.matmul(h, b.wv), b.bv)
    outs, maps = [], []
    d = 3
    for i in range(2):
        cols = slice(i * d, (i + 1) * d)
        ci = xc.data[:, cols]
        attn = softmax_oracle(mm_oracle(ci, ci.T) / math.sqrt(d))
        maps.append(attn)
        outs.append(mm_oracle(attn, v.data[:, cols]))
    want = mm_oracle(np.concatenate(outs, axis=1), b.wo.data) + b.bo.data
    assert np.abs(dec.x_content.data - want).max() < 1e-5
    assert np.abs(dec.x_context.data - xc.data).max() < 1e-12
    assert np.abs(dec.attn_full - np.mean(maps, axis=0)).max() < 1e-12


def test_decoupled_rejects_frozen():
    p = tiny_params().freeze()
    with pytest.raises(ModeError):
        vit.decoupled_block(T.Tensor(np.zeros((2, 8))), p)


def test_decoupled_attn_context_row_stochastic():
    p = tiny_params(depth=2, width=8, heads=2, res=12, patch=4)
    dec = vit.encode_dense(rand_image(np.random.default_rng(6), 12), p, "decoupled").decoupled
    assert np.abs(dec.attn_context.sum(axis=1) - 1.0).max() < 1e-6
    assert np.abs(dec.attn_full.sum(axis=1) - 1.0).max() < 1e-6


# --- encode_dense / encode_cls -------------------------------------------------

def test_encode_depth1_decoupled_composition():
    p = tiny_params(depth=1, width=8, heads=2, res=8, patch=4, embed=5)
    img = rand_image(np.random.default_rng(7), 8)
    enc = vit.encode_dense(img, p, "decoupled")
    dec = vit.decoupled_block(vit.patch_embed(img, p), p)
    np.testing.assert_array_equal(enc.tokens.data, T.matmul(dec.x_content, p.w_vl).data)


def test_encode_deterministic():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=4, seed=9)
    img = rand_image(np.random.default_rng(8), 8)
    a = vit.encode_dense(img, p, "decoupled")
    b = vit.encode_dense(img, p, "decoupled")
    assert a.tokens.data.tobytes() == b.tokens.data.tobytes()
    assert a.decoupled.attn_context.tobytes() == b.decoupled.attn_context.tobytes()


def test_modes_differ_only_in_final_block():
    p = tiny_params(depth=3, width=8, heads=2, res=8, patch=4)
    img = rand_image(np.random.default_rng(9), 8)
    acts_s, acts_d = {}, {}
    s = vit.encode_dense(img, p, "standard", activations=acts_s)
    d = vit.encode_dense(img, p, "decoupled", activations=acts_d)
    for key in ("embed", "block0", "block1"):
        assert acts_s[key].tobytes() == acts_d[key].tobytes()
    assert not np.array_equal(s.tokens.data, d.tokens.data)


def test_dense_reshape_roundtrips():
    p = tiny_params(depth=1, width=8, heads=2, res=12, patch=4)
    enc = vit.encode_dense(rand_image(np.random.default_rng(10), 12), p, "standard")
    assert enc.tokens.shape == (9, 8)
    chw = enc.dense_array()
    back = chw.reshape(8, 9).T
    np.testing.assert_array_equal(back, enc.tokens.data)
    np.testing.assert_array_equal(enc.dense().data, chw)


def test_encode_cls_matches_standard_dense():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=6)
    img = rand_image(np.random.default_rng(11), 8)
    cls = vit.encode_cls(img, p)
    enc = vit.encode_dense(img, p, "standard")
    np.testing.assert_array_equal(cls.data, enc.cls.data)
    assert cls.shape == (6,)


def test_encode_cls_purity_and_separation():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=6, seed=3)
    rng = np.random.default_rng(12)
    img1, img2 = rand_image(rng, 8), rand_image(rng, 8)
    a1 = vit.encode_cls(img1, p)
    a2 = vit.encode_cls(img1, p)
    np.testing.assert_array_equal(a1.data, a2.data)
    b = vit.encode_cls(img2, p)
    cos = float(a1.data @ b.data / (np.linalg.norm(a1.data) * np.linalg.norm(b.data)))
    assert cos < 1.0 - 1e-6


# --- capture_attention ----------------------------------------------------------

def test_capture_rows_stochastic_and_range():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4)
    img = rand_image(np.random.default_rng(13), 8)
    maps = vit.capture_attention(img, p, 1)
    assert maps.shape == (5, 5, 2)
    assert np.abs(maps.sum(axis=1) - 1.0).max() < 1e-6
    with pytest.raises(ParameterError):
        vit.capture_attention(img, p, 2)


def test_capture_matches_qk_recomputation():
    p = tiny_params(depth=1, width=8, heads=2, res=8, patch=4)
    img = rand_image(np.random.default_rng(14), 8)
    maps = vit.capture_attention(img, p, 0)
    seq = vit.patch_embed(img, p)
    b = p.blocks[0]
    h = vit.layer_norm_rows(seq, b.ln1_s, b.ln1_o).data
    q = h @ b.wq.data + b.bq.data
    k = h @ b.wk.data + b.bk.data
    d = 4
    mean = np.zeros((5, 5))
    for i in range(2):
        s = q[:, i * d:(i + 1) * d] @ k[:, i * d:(i + 1) * d].T / math.sqrt(d)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        mean += e / e.sum(axis=1, keepdims=True)
    mean /= 2
    assert np.abs(maps.mean(axis=2) - mean).max() < 1e-6


# --- freezing and gradient reach ------------------------------------------------

def test_frozen_params_reject_writes():
    p = tiny_params().freeze()
    with pytest.raises(ValueError):
        p.blocks[0].wq.data[0, 0] = 1.0
    assert all(not t.requires_grad for _, t in p.named_parameters())


def test_gradients_reach_every_decoupled_parameter():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=4, seed=5)
    img = rand_image(np.random.default_rng(15), 8)
    enc = vit.encode_dense(img, p, "decoupled")
    loss = T.add(T.mean_all(T.mul(enc.tokens, enc.tokens)),
                 T.mean_all(T.cosine_matrix(enc.decoupled.x_context, enc.decoupled.x_context)))
    T.backward(loss)
    last = p.depth - 1
    unused = {f"block{last}.{f}" for f in ("wk", "bk", "w1", "b1", "w2", "b2", "ln2_s", "ln2_o")}
    for name, param in p.named_parameters():
        if name in unused:
            assert param.grad is None, name
        else:
            assert param.grad is not None and np.abs(param.grad).max() > 0, name


def test_block_gradients_pass_finite_differences():
    p = tiny_params(depth=1, width=4, heads=2, res=8, patch=4, seed=6)
    x = T.Tensor(np.random.default_rng(16).standard_normal((3, 4)))

    def f_std(t):
        return T.mean_all(T.mul(vit.attention_block(t, p, 0), vit.attention_block(t, p, 0)))

    def f_dec(t):
        dec = vit.decoupled_block(t, p, has_cls=False)
        return T.add(T.mean_all(T.mul(dec.x_content, dec.x_content)),
                     T.mean_all(T.mul(dec.x_context, dec.x_context)))

    assert finite_diff_check(f_std, [x], name="attention-block").passed
    assert finite_diff_check(f_dec, [x], name="decoupled-block").passed
