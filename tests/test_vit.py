"""Encoder tests: block semantics vs loop oracles, decoupling identity."""

import gc
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill import vit
from densedistill.config import RunConfig
from densedistill.errors import EvaluationError, ModeError, ParameterError, ShapeError
from densedistill.evalsuite import shipped_ablation_config
from densedistill.gradcheck import finite_diff_check
from densedistill.vit import VitParams


def tiny_params(depth=1, width=8, heads=1, res=8, patch=4, embed=0, seed=0):
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


@pytest.mark.parametrize("name,value,want", [
    ("heads", 0, ">= 1"), ("patch_size", 0, ">= 1"), ("depth", 0, ">= 1"), ("width", 0, ">= 1"),
    ("input_res", -8, ">= 1"), ("embed_dim", -1, ">= 0"), ("embed_dim", None, ">= 0"),
    ("depth", None, ">= 1"), ("depth", "4", ">= 1"), ("depth", 2.5, ">= 1"),
    ("depth", True, ">= 1"), ("heads", 2.0, ">= 1"), ("embed_dim", False, ">= 0"),
    ("pixel_std", 0.0, "finite and > 0"),
    ("pixel_std", float("nan"), "finite and > 0"), ("pixel_mean", float("inf"), "finite")])
def test_params_refuse_a_field_no_encoder_can_be_built_from(name, value, want):
    fields = dict(patch_size=4, depth=1, width=8, heads=2, input_res=8)
    fields[name] = value
    with pytest.raises(ParameterError, match=rf"^{name} = {re.escape(repr(value))}, "
                                             rf"expected {re.escape(want)}$"):
        VitParams(**fields)


@pytest.mark.parametrize("name,least", [("heads", 1), ("embed_dim", 0)])
def test_field_range_refuses_a_bool_count(name, least):
    # what load_student checks a checkpoint's integer fields with
    _, ok = vit.field_range(name)
    assert ok(least) and not ok(True) and not ok(False)


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
    b = p.blocks[0]
    h = vit.layer_norm_rows(T.Tensor(np.random.default_rng(1).standard_normal((1, 4))),
                            b.ln1_s, b.ln1_o)
    q, k = T.add(T.matmul(h, b.wq), b.bq), T.add(T.matmul(h, b.wk), b.bk)
    np.testing.assert_allclose(T.softmax_rows(T.head_scores(q, k, p.heads)).data, [[1.0]],
                               atol=0)


@pytest.mark.parametrize("heads,width", [(1, 5), (2, 6), (4, 8)])
def test_block_matches_loop_oracle(heads, width):
    p = tiny_params(width=width, heads=heads)
    img = rand_image(np.random.default_rng(2), 8)
    x = vit.patch_embed(img, p)
    got = vit.attention_block(x, p, 0)
    want, attns = block_oracle(x.data, p.blocks[0], heads)
    assert np.abs(got.data - want).max() < 1e-5
    [maps] = vit.capture_attention(img, p, [0])
    assert maps.shape[-1] == heads
    for head, want_map in enumerate(attns):
        assert np.abs(maps[:, :, head] - want_map).max() < 1e-6


# --- decoupled_block ----------------------------------------------------------

def test_decoupled_equals_standard_attention_when_q_is_k():
    p = tiny_params(depth=1, width=6, heads=1, res=8, patch=4)
    b = p.blocks[0]
    b.wk.data[...] = b.wq.data
    b.bk.data[...] = b.bq.data
    img = rand_image(np.random.default_rng(3), 8)
    std_attn = vit.capture_attention(img, p, [0])[0][:, :, 0]
    ctx, _ = vit.decoupled_block(vit.patch_embed(img, p), p)
    dec_attn = T.softmax_rows(T.head_scores(ctx, ctx, p.heads)).data
    assert np.abs(dec_attn - std_attn).max() < 1e-6


def test_decoupled_one_token():
    p = tiny_params(width=4)
    b = p.blocks[0]
    x = T.Tensor(np.random.default_rng(4).standard_normal((1, 4)))
    ctx, content = vit.decoupled_block(x, p)
    np.testing.assert_allclose(T.softmax_rows(T.head_scores(ctx, ctx, p.heads)).data,
                               [[1.0]], atol=0)
    h = vit.layer_norm_rows(x, b.ln1_s, b.ln1_o)
    v = T.add(T.matmul(h, b.wv), b.bv)
    want = T.add(T.matmul(v, b.wo), b.bo)
    np.testing.assert_allclose(content.data, want.data, atol=1e-12)


def test_decoupled_matches_hand_composition():
    p = tiny_params(width=6, heads=2)
    x = np.random.default_rng(5).standard_normal((4, 6))
    ctx, content = vit.decoupled_block(T.Tensor(x), p)
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
    assert np.abs(content.data - want).max() < 1e-5
    assert np.abs(ctx.data - xc.data).max() < 1e-12
    attn = T.softmax_rows(T.head_scores(ctx, ctx, 2)).data.reshape(2, 4, 4)
    assert np.abs(attn - np.array(maps)).max() < 1e-12


def test_decoupled_rejects_frozen():
    p = tiny_params().freeze()
    with pytest.raises(ModeError):
        vit.decoupled_block(T.Tensor(np.zeros((2, 8))), p)


def test_frozen_decoupled_encode_runs_no_block(monkeypatch):
    p = tiny_params(depth=3, width=8, heads=2, res=8, patch=4).freeze()
    calls = []
    for name in ("patch_embed", "attention_block", "decoupled_block", "_encode_array"):
        monkeypatch.setattr(vit, name, lambda *a, name=name, run=getattr(vit, name):
                            calls.append(name) or run(*a))
    with pytest.raises(ModeError):
        vit.encode_dense(rand_image(np.random.default_rng(7), 8), p, "decoupled")
    assert calls == []


def test_decoupled_attn_context_row_stochastic():
    # the encoder's context stream is the image-token rows of the block's,
    # whose per-head self-attention maps are row-stochastic
    p = tiny_params(depth=2, width=8, heads=2, res=12, patch=4)
    img = rand_image(np.random.default_rng(6), 12)
    enc = vit.encode_dense(img, p, "decoupled")
    ctx, _ = vit.decoupled_block(vit.attention_block(vit.patch_embed(img, p), p, 0), p)
    np.testing.assert_array_equal(enc.context.data, ctx.data[1:])
    attn = T.softmax_rows(T.head_scores(ctx, ctx, p.heads)).data
    assert attn.shape == (2 * 10, 10)
    assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-6


# --- encode_dense / encode_cls -------------------------------------------------

def test_encode_depth1_decoupled_composition():
    p = tiny_params(depth=1, width=8, heads=2, res=8, patch=4, embed=5)
    img = rand_image(np.random.default_rng(7), 8)
    enc = vit.encode_dense(img, p, "decoupled")
    _, content = vit.decoupled_block(vit.patch_embed(img, p), p)
    image_rows = T.slice_rows(content, 1, content.shape[0])
    np.testing.assert_array_equal(enc.tokens.data, T.matmul(image_rows, p.w_vl).data)


def test_encode_deterministic():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=4, seed=9)
    img = rand_image(np.random.default_rng(8), 8)
    a = vit.encode_dense(img, p, "decoupled")
    b = vit.encode_dense(img, p, "decoupled")
    assert a.tokens.data.tobytes() == b.tokens.data.tobytes()
    assert a.context.data.tobytes() == b.context.data.tobytes()


def test_modes_differ_only_in_final_block():
    p = tiny_params(depth=3, width=8, heads=2, res=8, patch=4)
    img = rand_image(np.random.default_rng(9), 8)
    s = vit.encode_dense(img, p, "standard")
    d = vit.encode_dense(img, p, "decoupled")
    seq = vit.patch_embed(img, p)
    for layer in range(2):
        seq = vit.attention_block(seq, p, layer)
    np.testing.assert_array_equal(s.tokens.data, vit.attention_block(seq, p, 2).data[1:])
    _, content = vit.decoupled_block(seq, p)
    np.testing.assert_array_equal(d.tokens.data, content.data[1:])
    assert not np.array_equal(s.tokens.data, d.tokens.data)


def test_dense_reshape_roundtrips():
    p = tiny_params(depth=1, width=8, heads=2, res=12, patch=4)
    enc = vit.encode_dense(rand_image(np.random.default_rng(10), 12), p, "standard")
    assert enc.tokens.shape == (9, 8)
    chw = T.tokens_to_chw(enc.tokens, *enc.grid).data
    assert chw.shape == (8, 3, 3)
    back = chw.reshape(8, 9).T
    np.testing.assert_array_equal(back, enc.tokens.data)


def test_encode_cls_matches_standard_dense():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=6)
    img = rand_image(np.random.default_rng(11), 8)
    cls = vit.encode_cls(img, p.clone().freeze())
    # reference: CLS row of the full final standard block, projected
    seq = vit.attention_block(vit.patch_embed(img, p), p, 0)
    full = vit.attention_block(seq, p, 1).data
    assert isinstance(cls, np.ndarray)
    np.testing.assert_array_equal(cls, (full[:1] @ p.w_vl.data)[0])
    assert cls.shape == (6,)


def test_encode_cls_purity_and_separation():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=6, seed=3)
    rng = np.random.default_rng(12)
    img1, img2 = rand_image(rng, 8), rand_image(rng, 8)
    frozen = p.freeze()
    a1 = vit.encode_cls(img1, frozen)
    a2 = vit.encode_cls(img1, frozen)
    np.testing.assert_array_equal(a1, a2)
    b = vit.encode_cls(img2, frozen)
    cos = float(a1 @ b / (np.linalg.norm(a1) * np.linalg.norm(b)))
    assert cos < 1.0 - 1e-6


# --- capture_attention ----------------------------------------------------------

def test_capture_rows_stochastic_and_range():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4)
    img = rand_image(np.random.default_rng(13), 8)
    [maps] = vit.capture_attention(img, p, [1])
    assert maps.shape == (5, 5, 2)
    assert np.abs(maps.sum(axis=1) - 1.0).max() < 1e-6
    with pytest.raises(ParameterError):
        vit.capture_attention(img, p, [2])


def test_capture_runs_each_block_below_the_deepest_layer_once(monkeypatch):
    p = tiny_params(depth=4, width=8, heads=2, res=8, patch=4)
    img = rand_image(np.random.default_rng(15), 8)
    one_by_one = [vit.capture_attention(img, p, [layer])[0] for layer in (2, 0, 3)]
    block, ran = vit.attention_block, []

    def counted(x, params, layer):
        ran.append(layer)
        return block(x, params, layer)

    monkeypatch.setattr(vit, "attention_block", counted)
    maps = vit.capture_attention(img, p, [2, 0, 3])
    assert ran == [0, 1, 2]
    assert [m.tobytes() for m in maps] == [m.tobytes() for m in one_by_one]


@pytest.mark.parametrize("layers", [[0, 4], [-1], [1, 0, 1]])
def test_capture_refuses_an_absent_or_repeated_layer(layers):
    p = tiny_params(depth=4, width=8, heads=2, res=8, patch=4)
    with pytest.raises(ParameterError):
        vit.capture_attention(rand_image(np.random.default_rng(16), 8), p, layers)


@pytest.mark.parametrize("layers,named", [([True], "True"), ([1.0], "1.0"), ([1, True], "True")])
def test_capture_refuses_a_layer_that_is_not_an_int(layers, named):
    # a bool is no layer index, also beside the layer it equals
    p = tiny_params(depth=4, width=8, heads=2, res=8, patch=4)
    with pytest.raises(ParameterError, match=f"layer must be an int, got {named}"):
        vit.capture_attention(rand_image(np.random.default_rng(16), 8), p, layers)


def test_capture_matches_qk_recomputation():
    p = tiny_params(depth=1, width=8, heads=2, res=8, patch=4)
    img = rand_image(np.random.default_rng(14), 8)
    [maps] = vit.capture_attention(img, p, [0])
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("res,patch,width,heads,group", [(32, 8, 16, 2, 2), (560, 16, 64, 4, 1)],
                         ids=["desk", "paper"])
def test_capture_equals_the_all_heads_map_bitwise(monkeypatch, res, patch, width, heads, group,
                                                  dtype):
    # the maps come a head group at a time (one head per map at paper shape)
    # and equal, bit for bit, the all-heads softmax_rows(head_scores) map
    p = VitParams(patch_size=patch, depth=1, width=width, heads=heads, input_res=res, seed=31,
                  dtype=dtype)
    img = rand_image(np.random.default_rng(32), res)
    n = (res // patch) ** 2 + 1
    assert vit._tiles(heads, n, n, np.dtype(dtype).itemsize)[0] == group
    groups = _spy_groups(monkeypatch)
    for op in ("head_scores", "softmax_rows"):
        monkeypatch.setattr(T, op, lambda *args, op=op: pytest.fail(f"capture called {op}"))
    [maps] = vit.capture_attention(img, p, [0])
    assert groups == [group] * (heads // group)
    monkeypatch.undo()
    b = p.blocks[0]
    h = vit.layer_norm_rows(vit.patch_embed(img, p), b.ln1_s, b.ln1_o)
    q, k = T.add(T.matmul(h, b.wq), b.bq), T.add(T.matmul(h, b.wk), b.bk)
    want = np.stack(np.split(T.softmax_rows(T.head_scores(q, k, heads)).data, heads), axis=-1)
    assert maps.dtype == dtype and maps.shape == want.shape == (n, n, heads)
    assert maps.tobytes() == want.tobytes()


def test_paper_shape_capture_holds_one_head_group_map_at_a_time():
    # layers 1 and 3 of a depth-4 encoder at 1226 tokens: the two returned
    # (1226, 1226, 4) f64 maps are 91.7 MiB. Built one head group at a time
    # the capture peaks at 118.2 MiB; the all-heads score, probability and
    # stacked maps of a layer peaked at 191.6 MiB
    p = VitParams(patch_size=16, depth=4, width=64, heads=4, input_res=560, seed=33).freeze()
    img = rand_image(np.random.default_rng(34), 560)
    gc.collect()
    tracemalloc.start()
    try:
        maps = vit.capture_attention(img, p, [1, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(m.nbytes for m in maps) == 2 * 1226 * 1226 * 4 * 8
    assert peak < 150 * 2 ** 20, peak / 2 ** 20


# --- freezing and gradient reach ------------------------------------------------

def test_frozen_params_reject_writes():
    p = tiny_params().freeze()
    with pytest.raises(ValueError):
        p.blocks[0].wq.data[0, 0] = 1.0
    assert all(not t.requires_grad for _, t in p.named_parameters())


def test_fingerprint_identifies_frozen_weights_and_normalisation():
    p = tiny_params(seed=1).freeze()
    assert p.fingerprint() == tiny_params(seed=1).freeze().fingerprint()
    assert p.fingerprint() != tiny_params(seed=2).freeze().fingerprint()
    shifted = tiny_params(seed=1)
    shifted.pixel_std = 0.25
    assert shifted.freeze().fingerprint() != p.fingerprint()
    # a clone of a fingerprinted teacher is trainable again and keeps no digest
    twin = p.clone()
    with pytest.raises(ModeError):
        twin.fingerprint()
    twin.cls_token.data += 1.0
    assert twin.freeze().fingerprint() != p.fingerprint()


def test_clone_is_a_trainable_copy_sharing_no_array():
    p = VitParams(patch_size=4, depth=2, width=8, heads=2, input_res=8, embed_dim=4,
                  pixel_std=0.25, seed=3, dtype=np.float32)
    p.freeze()
    twin = p.clone()
    assert not twin.frozen and twin.state_bytes() == p.state_bytes()
    assert twin._meta() == p._meta()
    source = dict(p.named_parameters())
    assert [name for name, _ in twin.named_parameters()] == list(source)
    for name, t in twin.named_parameters():
        assert t.requires_grad and t.data.flags.writeable, name
        assert not np.shares_memory(t.data, source[name].data), name


def test_gradients_reach_every_decoupled_parameter():
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=4, seed=5)
    img = rand_image(np.random.default_rng(15), 8)
    enc = vit.encode_dense(img, p, "decoupled")
    loss = T.add(T.sum_all(T.mul(enc.tokens, enc.tokens)),
                 T.sum_all(T.cosine_matrix(enc.context, enc.context)))
    T.backward(loss)
    last = p.depth - 1
    unused = {f"block{last}.{f}" for f in ("wk", "bk", "w1", "b1", "w2", "b2", "ln2_s", "ln2_o")}
    for name, param in p.named_parameters():
        if name in unused:
            assert param.grad is None, name
        else:
            assert param.grad is not None and np.abs(param.grad).max() > 0, name


def _decoupled_graph(monkeypatch):
    """A 24x24-token, depth-2 trainable student's decoupled forward and a
    loss over both streams, with weakrefs to every score map and every
    probability map it built, by op name, and the bytes held once only the
    loss is alive."""
    p = tiny_params(depth=2, width=32, heads=4, res=96, patch=4, seed=7)
    img = rand_image(np.random.default_rng(20), 96)
    maps = {"head_scores": [], "softmax_rows": []}

    def spy(name):
        op = getattr(T, name)

        def spied(*args, **kwargs):
            out = op(*args, **kwargs)
            maps[name].append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, name, spied)

    spy("head_scores")
    spy("softmax_rows")
    gc.collect()
    tracemalloc.start()
    try:
        enc = vit.encode_dense(img, p, "decoupled")
        loss = T.add(T.sum_all(T.mul(enc.tokens, enc.tokens)),
                     T.sum_all(T.mul(enc.context, enc.context)))
        del enc
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return p, loss, maps, held


def _blocks_per_attention(p):
    """Score maps one attention of p's encoder builds: its row blocks per head
    group, times its groups."""
    n = p.grid_side ** 2 + 1
    group, blocks = vit._tiles(p.heads, n, n, p.dtype.itemsize)
    return p.heads // group * len(blocks)


def test_graph_holds_no_score_map(monkeypatch):
    # 577 tokens: one head per map, each built in one row block
    p, loss, maps, _ = _decoupled_graph(monkeypatch)
    scores = maps["head_scores"]
    assert _blocks_per_attention(p) == 4
    assert loss.requires_grad and len(scores) == p.depth * _blocks_per_attention(p)
    assert [m() for m in scores if m() is not None] == []  # no backward rule reads them


def test_graph_holds_no_probability_map(monkeypatch):
    # each attention is one record over (q, k, v) whose backward recomputes
    # its probabilities, so no row block's softmax_rows output outlives the
    # forward
    p, loss, maps, _ = _decoupled_graph(monkeypatch)
    probs = maps["softmax_rows"]
    assert loss.requires_grad and len(probs) == p.depth * _blocks_per_attention(p)
    assert [m() for m in probs if m() is not None] == []


def test_graph_bytes_stay_within_what_backward_reads(monkeypatch):
    p, loss, _, held = _decoupled_graph(monkeypatch)
    assert loss.requires_grad
    n = p.grid_side ** 2 + 1
    token_rows = n * p.width * 8
    # per block: a few dozen (n, width) activations (layer norms,
    # projections, the 4x-wide MLP); a kept score or probability map alone
    # would add a (heads*n, n) map per block, over twice this budget here
    assert held <= p.depth * 32 * token_rows, held


def test_block_gradients_pass_finite_differences():
    p = tiny_params(depth=1, width=4, heads=2, res=8, patch=4, seed=6)
    x = T.Tensor(np.random.default_rng(16).standard_normal((3, 4)))

    def f_std(t):
        return T.sum_all(T.mul(vit.attention_block(t, p, 0), vit.attention_block(t, p, 0)))

    def f_dec(t):
        context, content = vit.decoupled_block(t, p)
        return T.add(T.sum_all(T.mul(content, content)),
                     T.sum_all(T.mul(context, context)))

    assert finite_diff_check(f_std, [x], name="attention-block").passed
    assert finite_diff_check(f_dec, [x], name="decoupled-block").passed


# --- head groups ---------------------------------------------------------------

def _block_outputs_and_grads(p, x0, block):
    """Outputs of one block on a fresh copy of x0, and the gradients of a
    quadratic loss on them, by parameter name (input gradient under "x")."""
    for _, q in p.named_parameters():
        q.grad = None
    x = T.Tensor(x0.copy(), requires_grad=True)
    outs = (vit.attention_block(x, p, 0),) if block == "standard" else vit.decoupled_block(x, p)
    loss = T.sum_all(T.mul(outs[0], outs[0]))
    for out in outs[1:]:
        loss = T.add(loss, T.sum_all(T.mul(out, out)))
    T.backward(loss)
    grads = {name: q.grad for name, q in p.named_parameters() if q.grad is not None}
    grads["x"] = x.grad
    return [out.data for out in outs], grads


def _spy_groups(monkeypatch):
    """Heads per score map of every score-map kernel call, Tensor op or array."""
    groups = []
    kernel = T._head_scores

    def spy(qs, k, heads, out=None):
        groups.append(heads)
        return kernel(qs, k, heads, out=out)

    monkeypatch.setattr(T, "_head_scores", spy)
    return groups


@pytest.mark.parametrize("block", ["standard", "decoupled"])
def test_head_groups_match_the_all_heads_map(monkeypatch, block):
    # a byte budget of 0 puts a desk-sized block on one head per map; the
    # decoupled block's q is its k, so both slices' gradients meet in q
    p = tiny_params(width=8, heads=4, seed=23)
    x0 = np.random.default_rng(24).standard_normal((5, 8))
    groups = _spy_groups(monkeypatch)
    ref_outs, ref_grads = _block_outputs_and_grads(p, x0, block)
    assert groups == [4, 4]  # the forward's map, then backward's recompute
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    outs, grads = _block_outputs_and_grads(p, x0, block)
    assert groups == [4, 4, 1, 1, 1, 1, 1, 1, 1, 1]
    assert [o.tobytes() for o in outs] == [o.tobytes() for o in ref_outs]
    assert grads.keys() == ref_grads.keys()
    largest = max(np.abs(g).max() for g in ref_grads.values())
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=1e-12, atol=1e-12 * largest,
                                   err_msg=name)


def test_head_groups_pass_finite_differences(monkeypatch):
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    p = tiny_params(width=4, heads=2, seed=25)
    x = T.Tensor(np.random.default_rng(26).standard_normal((3, 4)))

    def f_std(t):
        return T.sum_all(T.mul(vit.attention_block(t, p, 0), vit.attention_block(t, p, 0)))

    def f_dec(t):
        context, content = vit.decoupled_block(t, p)
        return T.add(T.sum_all(T.mul(content, content)),
                     T.sum_all(T.mul(context, context)))

    groups = _spy_groups(monkeypatch)
    assert finite_diff_check(f_std, [x], name="grouped-attention-block").passed
    assert finite_diff_check(f_dec, [x], name="grouped-decoupled-block").passed
    assert set(groups) == {1}


@pytest.mark.parametrize("block", ["standard", "decoupled"])
def test_each_head_group_frees_its_probability_map_before_the_next(monkeypatch, block):
    # a grad call runs every group on one lane: each group's scores and
    # probabilities overwrite the one workspace of the call, which no graph
    # record keeps, so no map outlives the call
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    p = tiny_params(width=8, heads=4, seed=23)
    x = T.Tensor(np.random.default_rng(24).standard_normal((5, 8)), requires_grad=True)
    maps, works, shared = [], [], []

    def spy(op):
        def spied(*args, **kwargs):
            out = op(*args, **kwargs)
            # a map is a row block's view of its lane's workspace
            work = out.data if out.data.base is None else out.data.base
            maps.append(weakref.ref(out.data))
            works.append(weakref.ref(work))
            shared.append(work is works[0]())
            return out
        return spied

    monkeypatch.setattr(T, "head_scores", spy(T.head_scores))
    monkeypatch.setattr(T, "softmax_rows", spy(T.softmax_rows))
    outs = (vit.attention_block(x, p, 0),) if block == "standard" else vit.decoupled_block(x, p)
    assert all(out.requires_grad for out in outs)
    assert len(shared) == 2 * p.heads and all(shared)
    assert [m() for m in maps + works if m() is not None] == []


def _composed_attention(q, k, v, heads, group, weights):
    """The ops' composition that _multi_head runs forward and records under
    one rule: head_scores -> softmax_rows -> head_mix per head group, on the
    group's column blocks when it holds fewer than all heads. Returns the
    groups' outputs joined as arrays and the loss sum(output * weights), one
    term per group."""
    d = q.shape[1] // heads
    parts, loss = [], None
    for h in range(0, heads, group):
        start, stop = h * d, (h + group) * d
        qh, kh, vh = q, k, v
        if group < heads:
            qh, kh, vh = (T.slice_cols(a, start, stop) for a in (q, k, v))
        part = T.head_mix(T.softmax_rows(T.head_scores(qh, kh, group)), vh, group)
        term = T.sum_all(T.mul(part, T.Tensor(weights[:, start:stop])))
        loss = term if loss is None else T.add(loss, term)
        parts.append(part.data)
    return np.concatenate(parts, axis=1), loss


def _multi_head_loss(q, k, v, heads, weights):
    out = vit._multi_head(q, k, v, heads)
    return out.data, T.sum_all(T.mul(out, T.Tensor(weights)))


def _attention_grads(attend, arrays, shared):
    """Output and leaf gradients of attend(q, k, v)'s (output, loss) on
    fresh leaves; with ``shared`` the queries are the keys, one leaf."""
    q, k, v = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
    leaves = (q, v) if shared else (q, k, v)
    out, loss = attend(q, q if shared else k, v)
    T.backward(loss)
    return out, [t.grad for t in leaves]


@pytest.mark.parametrize("m,group,shared,dtype", [
    (9, 4, False, np.float64), (9, 1, False, np.float64), (9, 4, True, np.float64),
    (1, 4, False, np.float64), (1, 1, False, np.float64), (9, 1, True, np.float32)],
    ids=["all-heads", "one-head", "q-is-k", "cls-only", "cls-only-one-head", "f32"])
def test_recomputing_attention_rule_matches_the_composed_ops_bitwise(monkeypatch, m, group,
                                                                     shared, dtype):
    # m = 1 is the CLS-only query row; with shared keys the two gradients
    # meet in q in the same order as at the composition's head_scores
    heads, n, width = 4, 9, 8
    if group == 1:
        monkeypatch.setattr(vit, "TILE_BYTES", 0)
    assert vit._tiles(heads, m, n, np.dtype(dtype).itemsize)[0] == group
    rng = np.random.default_rng(32)
    arrays = [rng.standard_normal((rows, width)).astype(dtype) for rows in (n if shared else m,
                                                                            n, n)]
    weights = rng.standard_normal((n if shared else m, width)).astype(dtype)
    out, grads = _attention_grads(lambda q, k, v: _multi_head_loss(q, k, v, heads, weights),
                                  arrays, shared)
    ref_out, ref_grads = _attention_grads(
        lambda q, k, v: _composed_attention(q, k, v, heads, group, weights), arrays, shared)
    assert out.dtype == ref_out.dtype == dtype and out.tobytes() == ref_out.tobytes()
    assert len(grads) == len(ref_grads) == (2 if shared else 3)
    for name, g, ref in zip("qv" if shared else "qkv", grads, ref_grads):
        assert g.dtype == dtype and g.tobytes() == ref.tobytes(), name


# the row blocks of one head's map at 232 tokens under a byte budget of 0
_TWO_BLOCKS = (1, [(0, 96), (96, 232)])


@pytest.mark.parametrize("shared,dtype", [
    (False, np.float64), (True, np.float64), (False, np.float32), (True, np.float32)],
    ids=["f64", "f64-q-is-k", "f32", "f32-q-is-k"])
def test_row_blocked_attention_rule_matches_the_composed_ops(monkeypatch, shared, dtype):
    # one head per map in two row blocks, forward and backward: each block
    # gives its rows of dq the whole map's bits, while dk and dv sum over the
    # blocks in another order than the whole map's gemm. That moved them by
    # at most 1.1e-15 (f64) and 4e-7 (f32) of their scale here; the bounds
    # are 1e-12 and 32 f32 eps. With shared keys q's gradient is dq + dk
    heads, n, width = 2, 232, 8
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    assert vit._tiles(heads, n, n, np.dtype(dtype).itemsize) == _TWO_BLOCKS
    rng = np.random.default_rng(33)
    arrays = [rng.standard_normal((n, width)).astype(dtype) for _ in range(3)]
    weights = rng.standard_normal((n, width)).astype(dtype)
    blocks = _spy_blocks(monkeypatch)
    out, grads = _attention_grads(lambda q, k, v: _multi_head_loss(q, k, v, heads, weights),
                                  arrays, shared)
    # the forward's blocks, then the backward's recompute of the same cut (its
    # lanes may interleave them)
    assert blocks[:2 * heads] == [(1, 96), (1, 136)] * heads
    assert sorted(blocks[2 * heads:]) == sorted(blocks[:2 * heads])
    ref_out, ref_grads = _attention_grads(
        lambda q, k, v: _composed_attention(q, k, v, heads, 1, weights), arrays, shared)
    assert out.dtype == ref_out.dtype == dtype and out.tobytes() == ref_out.tobytes()
    tol = 1e-12 if dtype == np.float64 else 32 * np.finfo(np.float32).eps
    for name, g, ref in zip("qv" if shared else "qkv", grads, ref_grads):
        assert g.dtype == dtype, name
        if name == "q" and not shared:
            assert g.tobytes() == ref.tobytes()
        assert np.abs(g - ref).max() <= tol * np.abs(ref).max(), name


def test_row_blocked_attention_passes_finite_differences(monkeypatch):
    # the decoupled block's q is its k: both halves of its gradient sum over
    # the two row blocks of each head
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    assert vit._tiles(2, 232, 232, 8) == _TWO_BLOCKS
    p = tiny_params(width=4, heads=2, seed=34)
    x = T.Tensor(np.random.default_rng(35).standard_normal((232, 4)))

    def f_dec(t):
        context, content = vit.decoupled_block(t, p)
        return T.add(T.sum_all(T.mul(content, content)),
                     T.sum_all(T.mul(context, context)))

    assert finite_diff_check(f_dec, [x], name="row-blocked-decoupled-block").passed


def _spy_blocks(monkeypatch):
    """(heads per score map, query rows) of every score-map kernel call."""
    blocks = []
    kernel = T._head_scores

    def spy(qs, k, heads, out=None):
        blocks.append((heads, qs.shape[0]))
        return kernel(qs, k, heads, out=out)

    monkeypatch.setattr(T, "_head_scores", spy)
    return blocks


@pytest.mark.parametrize("n,width,heads,group,rows", [
    (65, 48, 4, 4, [65]), (1226, 64, 4, 1, [192] * 5 + [266])], ids=["desk", "paper"])
def test_array_and_tensor_attention_pick_the_same_groups(monkeypatch, n, width, heads, group,
                                                         rows):
    # the same head groups and, in each, the same row blocks (the student's
    # lanes may interleave them)
    q, k, v = np.random.default_rng(27).standard_normal((3, n, width))
    blocks = _spy_blocks(monkeypatch)
    frozen = vit._attention_array(q, k, v, heads)
    assert blocks == [(group, r) for _ in range(heads // group) for r in rows]
    student = vit._multi_head(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads).data
    assert sorted(blocks[len(blocks) // 2:]) == sorted(blocks[:len(blocks) // 2])
    assert student.tobytes() == frozen.tobytes()


# --- row blocks ------------------------------------------------------------------

@pytest.mark.parametrize("heads,m,n,itemsize", [
    (4, 65, 65, 8), (4, 65, 65, 4), (1, 1, 1226, 8), (4, 1, 1226, 4)],
    ids=["desk-f64", "desk-f32", "paper-cls-only", "paper-cls-only-all-heads-f32"])
def test_a_map_that_fits_the_tile_budget_is_one_row_block(heads, m, n, itemsize):
    # every desk attention, and the CLS-only query of the final block: all
    # heads in one map of one block
    assert heads * m * n * itemsize <= vit.TILE_BYTES
    assert vit._tiles(heads, m, n, itemsize) == (heads, [(0, m)])


@pytest.mark.parametrize("itemsize,r", [(8, 192), (4, 384)], ids=["f64", "f32"])
def test_paper_shape_row_blocks_start_on_aligned_multiples_and_hold_r_rows(itemsize, r):
    # r is the largest multiple of TILE_ALIGN whose block fits TILE_BYTES;
    # the short remainder joins the last block
    row = 1226 * itemsize
    assert r % vit.TILE_ALIGN == 0 and r * row <= vit.TILE_BYTES < (r + vit.TILE_ALIGN) * row
    group, blocks = vit._tiles(4, 1226, 1226, itemsize)
    assert group == 1 and blocks[0][0] == 0 and blocks[-1][1] == 1226
    assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
    assert all(start % r == 0 for start, _ in blocks)
    assert [stop - start for start, stop in blocks[:-1]] == [r] * (len(blocks) - 1)
    assert r <= blocks[-1][1] - blocks[-1][0] < 2 * r


def _tokens_and_heads(cfg):
    """(tokens, heads) of a config's student (and teacher) and provider."""
    return [((res // patch) ** 2 + 1, heads) for res, patch, heads in (
        (cfg.student_res, cfg.student_patch, cfg.student_heads),
        (cfg.vfm_res, cfg.vfm_patch, cfg.vfm_heads))]


def test_the_tiled_shapes_are_the_shipped_ones():
    # the shapes of the next test: the shipped ablation's desk encoders and
    # the default config's paper encoders (560/16 and 490/14)
    desk, _ = shipped_ablation_config()
    assert _tokens_and_heads(desk) == [(65, 4), (65, 2)]
    assert _tokens_and_heads(RunConfig()) == [(1226, 4), (1226, 4)]


# (heads per map, row blocks) in f64 and in f32 that each benchmark and
# shipped attention got from the two budgets _tiles replaced: all heads in one
# map while it fit 16 MiB, that map cut into blocks above 2 MiB. The shapes
# are the desk student, teacher and provider (65 tokens), the paper ones
# (1,226), the teachers' CLS-only final query, and the tiny benchmark
# encoders (17 tokens, 2 heads); the tests' 577-token grid is the one shape
# whose cut changed (all heads in 6 blocks to one head per map)
@pytest.mark.parametrize("heads,m,n,f64,f32", [
    (4, 65, 65, (4, 1), (4, 1)), (2, 65, 65, (2, 1), (2, 1)), (4, 1, 65, (4, 1), (4, 1)),
    (4, 1226, 1226, (1, 6), (1, 3)), (4, 1, 1226, (4, 1), (4, 1)),
    (2, 17, 17, (2, 1), (2, 1)), (2, 1, 17, (2, 1), (2, 1))],
    ids=["desk", "desk-provider", "desk-cls-only", "paper", "paper-cls-only", "tiny",
         "tiny-cls-only"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tiles_keep_the_cut_of_every_shipped_and_benchmark_shape(heads, m, n, f64, f32, dtype):
    group, blocks = vit._tiles(heads, m, n, np.dtype(dtype).itemsize)
    assert (group, len(blocks)) == (f64 if dtype == np.float64 else f32)
    assert blocks[0][0] == 0 and blocks[-1][1] == m


def _attend_tiled_and_whole(monkeypatch, path, dtype):
    """A 1226-token, 4-head attention on ``path``: the frozen path, the
    student's no-grad lanes or its grad forward (q is k in the decoupled
    block), its maps built as _tiles cuts them (one head per map, in row
    blocks) and as one all-heads map. Returns both outputs and the (heads
    per map, rows) of each one's score-map calls."""
    q, k, v = np.random.default_rng(47).standard_normal((3, 1226, 64)).astype(dtype)
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)

    def attend():
        if path == "frozen":
            return vit._attention_array(q, k, v, 4)
        qt, kt, vt = (T.Tensor(a, requires_grad=path != "lanes") for a in (q, k, v))
        return vit._multi_head(qt, qt if path == "q-is-k" else kt, vt, 4).data

    blocks = _spy_blocks(monkeypatch)
    tiled, tiled_blocks = attend(), list(blocks)
    monkeypatch.setattr(vit, "TILE_BYTES", 2 ** 40)
    blocks.clear()
    return tiled, attend(), tiled_blocks, blocks


# runs _attend_tiled_and_whole in a fresh process: argv is this directory,
# the path, the dtype and the .npz file to write
_ATTEND_IN_CHILD = """
import sys
import numpy as np
import pytest
sys.path.insert(0, sys.argv[1])
from test_vit import _attend_tiled_and_whole
with pytest.MonkeyPatch.context() as mp:
    tiled, whole, tiled_blocks, whole_blocks = _attend_tiled_and_whole(mp, sys.argv[2], sys.argv[3])
np.savez(sys.argv[4], tiled=tiled, whole=whole, tiled_blocks=tiled_blocks, whole_blocks=whole_blocks)
"""


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("path", ["frozen", "lanes", "grad", "q-is-k"])
def test_row_blocks_give_the_whole_map_output_bitwise_at_paper_shape(tmp_path, path, dtype):
    # at one BLAS thread, as the benchmark runs, so in a child process that
    # sets it before numpy loads. With two, a few f64 entries in the map's
    # last columns differ by under an eps (next test): OpenBLAS splits a
    # gemm's rows among its threads by that gemm's row count, so a block and
    # the whole map need not give a row the same kernel
    src = os.path.dirname(os.path.dirname(vit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    npz = tmp_path / "attend.npz"
    proc = subprocess.run([sys.executable, "-c", _ATTEND_IN_CHILD, os.path.dirname(__file__),
                           path, np.dtype(dtype).name, str(npz)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = np.load(npz)
    tiled, whole = got["tiled"], got["whole"]
    assert len(got["tiled_blocks"]) == 4 * len(vit._tiles(4, 1226, 1226, tiled.itemsize)[1]) > 4
    assert got["whole_blocks"].tolist() == [[4, 1226]]
    assert tiled.dtype == whole.dtype == dtype and tiled.tobytes() == whole.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("path", ["frozen", "lanes", "grad", "q-is-k"])
def test_row_blocks_stay_within_an_eps_of_the_whole_map_at_any_blas_thread_count(
        monkeypatch, path, dtype):
    # at this process's BLAS threads, whatever they are; at two, 6 of the
    # f64 output's 78,464 entries differ here, by 0.04 eps of its scale
    tiled, whole, _, whole_blocks = _attend_tiled_and_whole(monkeypatch, path, dtype)
    assert whole_blocks == [(4, 1226)]
    assert tiled.dtype == whole.dtype == dtype
    assert np.abs(tiled - whole).max() <= np.finfo(dtype).eps * np.abs(whole).max()


def test_paper_shape_blocks_stay_within_their_memory_bound():
    # one attention block and the decoupled block at 1226 tokens, forward and
    # backward: one (1226, 1226) f64 map is 11.5 MiB. One head per map in
    # row blocks, forward and backward, peaks at 29.4 MiB on two lanes (a
    # backward on whole-group maps read 42.5); a forward that holds every
    # group's probability map until the join peaks at 74.3 MiB, and a graph
    # that keeps them near 134 MiB
    p = VitParams(patch_size=16, depth=2, width=64, heads=4, input_res=560, seed=28)
    x0 = np.random.default_rng(29).standard_normal((1226, 64))
    gc.collect()
    tracemalloc.start()
    try:
        x = T.Tensor(x0, requires_grad=True)
        context, content = vit.decoupled_block(vit.attention_block(x, p, 0), p)
        T.backward(T.add(T.sum_all(T.mul(content, content)),
                         T.sum_all(T.mul(context, context))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak < 60 * 2 ** 20, peak / 2 ** 20


def _tile_bytes(heads, m, n, itemsize):
    """Bytes of the largest row block of a heads-head attention's score maps."""
    group, blocks = vit._tiles(heads, m, n, itemsize)
    return group * max(stop - start for start, stop in blocks) * n * itemsize


def test_frozen_attention_holds_one_score_map_at_paper_shape():
    # one (1226, 1226) f64 map is 11.5 MiB; one head per map at this shape,
    # built in row blocks in one 2.5 MiB workspace for the call. Beside it
    # the output and a group's column blocks come to about 2.3 (1226, 64)
    # token arrays, so the peak reads 0.33 maps; a second block-sized buffer
    # would reach 0.55, and a whole map 1.2
    q, k, v = np.random.default_rng(30).standard_normal((3, 1226, 64))
    score_map, tokens = 1226 * 1226 * 8, q.nbytes
    assert vit._tiles(4, 1226, 1226, 8)[0] == 1
    gc.collect()
    tracemalloc.start()
    try:
        vit._attention_array(q, k, v, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _tile_bytes(4, 1226, 1226, 8) + 5 * tokens, peak / score_map


# --- work beside the calling thread ------------------------------------------------

class Planted(Exception):
    pass


def _recorded(started, hold):
    """An item function that records each item as it starts, then sleeps
    ``hold`` seconds and returns item^2."""

    def fn(i):
        started.append(i)
        time.sleep(hold)
        return i * i

    return fn


@pytest.mark.parametrize("threads", [0, 1, 2])
def test_beside_reads_the_results_in_item_order(threads):
    before = threading.active_count()

    def late_first(i):
        time.sleep(0.01 * (4 - i))  # on a pool the later items finish first
        return i * i

    with vit._beside(late_first, range(5), threads) as results:
        assert list(results) == [0, 1, 4, 9, 16]
    assert threading.active_count() == before


def test_beside_with_no_thread_runs_each_item_here_when_it_is_read():
    before, here = threading.active_count(), threading.get_ident()
    started = []
    with vit._beside(lambda i: started.append((i, threading.get_ident())) or i, range(3),
                     0) as results:
        assert started == []
        for i in range(3):
            assert next(results) == i
            assert started == [(j, here) for j in range(i + 1)]
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [0, 1, 2])
def test_beside_surfaces_an_item_raise_and_never_starts_the_items_queued_behind_it(threads):
    # item 0 raises at once on a helper, which then takes the next queued item
    # and holds it. The calling thread may find item 0 not yet done and take
    # the last item, 7, but that item returns only once item 0's helper has
    # moved on, so item 0 is done and the caller starts no other item. The
    # items queued behind those are dropped
    before, here, started = threading.active_count(), threading.get_ident(), []
    first, freed = [], threading.Event()

    def fn(i):
        me = threading.get_ident()
        started.append((i, me))
        if i == 0:
            first.append(me)
            raise Planted("planted failure of item 0")
        if me == here:
            assert freed.wait(10)
        else:
            if first == [me]:
                freed.set()
            time.sleep(0.2)
        return i * i

    with pytest.raises(Planted, match="item 0"):
        with vit._beside(fn, range(8), threads) as results:
            list(results)
    assert threading.active_count() == before
    items = {i for i, _ in started}
    assert 0 in items and items <= set(range(threads + 1)) | {7}
    assert {i for i, me in started if me == here} <= ({7} if threads else {0})


def test_beside_runs_the_unstarted_items_on_the_calling_thread_from_the_back():
    # the one helper holds item 0 until the calling thread has run item 1:
    # reading item 0, the caller takes the last unstarted item, 4, then 3, 2
    # and 1, and waits for item 0; the block reads every result in item order
    before, here = threading.active_count(), threading.get_ident()
    ran, held, taken = [], threading.Event(), threading.Event()

    def fn(i):
        ran.append((i, threading.get_ident() == here))
        if i == 0:
            held.set()
            assert taken.wait(10)
        elif i == 1:
            taken.set()
        return i * i

    with vit._beside(fn, range(5), 1) as results:
        assert held.wait(10)
        assert list(results) == [0, 1, 4, 9, 16]
    assert threading.active_count() == before
    assert ran == [(0, False), (4, True), (3, True), (2, True), (1, True)]


def test_beside_surfaces_the_raise_of_an_item_the_calling_thread_ran_at_its_read():
    # the caller runs items 3, 2 (which raises) and 1 while the helper holds
    # item 0; the raise waits for item 2's read, after items 0 and 1
    before, here = threading.active_count(), threading.get_ident()
    ran, held, taken, got = [], threading.Event(), threading.Event(), []

    def fn(i):
        ran.append((i, threading.get_ident() == here))
        if i == 0:
            held.set()
            assert taken.wait(10)
        elif i == 1:
            taken.set()
        elif i == 2:
            raise Planted("planted failure of item 2")
        return i * i

    with pytest.raises(Planted, match="item 2"):
        with vit._beside(fn, range(4), 1) as results:
            assert held.wait(10)
            for result in results:
                got.append(result)
    assert threading.active_count() == before
    assert got == [0, 1]
    assert ran == [(0, False), (3, True), (2, True), (1, True)]


@pytest.mark.parametrize("threads", [0, 1, 2])
def test_beside_drops_the_queued_items_on_a_raise_in_the_block(threads):
    # each thread holds one item while the block raises; the rest never start
    before, started = threading.active_count(), []
    with pytest.raises(Planted):
        with vit._beside(_recorded(started, hold=0.2), range(8), threads):
            deadline = time.monotonic() + 10
            while len(started) < threads and time.monotonic() < deadline:
                time.sleep(0.001)
            raise Planted("planted failure of the block")
    assert threading.active_count() == before
    assert sorted(started) == list(range(threads))


# --- head-group lanes ----------------------------------------------------------

def _no_grad(p):
    """A copy of trainable params whose parameters need no gradient, as a
    loaded student's."""
    return VitParams._of_arrays({name: t.data for name, t in p.named_parameters()}, **p._meta())


def _counted_pools(monkeypatch):
    """Sizes of the pools vit constructs from here on, in order."""
    sizes = []
    pool = vit.ThreadPoolExecutor

    def counted(workers):
        sizes.append(workers)
        return pool(workers)

    monkeypatch.setattr(vit, "ThreadPoolExecutor", counted)
    return sizes


def test_head_group_lanes_leave_no_grad_outputs_bitwise_unchanged(monkeypatch):
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    p = _no_grad(tiny_params(depth=2, width=16, heads=4, res=16, patch=4, embed=8, seed=40))
    img = rand_image(np.random.default_rng(41), 16)
    pools = _counted_pools(monkeypatch)

    def features(cpus):
        monkeypatch.setattr(vit, "usable_cpus", lambda: cpus)
        out = {}
        for mode in ("standard", "decoupled"):
            enc = vit.encode_dense(img, p, mode)
            assert not enc.tokens.requires_grad
            out[mode] = [enc.tokens.data.tobytes()]
            if enc.context is not None:
                out[mode].append(enc.context.data.tobytes())
        return out

    one = features(1)
    assert pools == []
    assert features(2) == one
    assert pools == [1] * 2 * p.depth  # one helper thread per attention call


def test_grad_forward_runs_one_lane(monkeypatch):
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    monkeypatch.setattr(vit, "ThreadPoolExecutor",
                        lambda workers: pytest.fail("a grad forward built a pool"))
    p = tiny_params(depth=2, width=16, heads=4, res=16, patch=4, seed=42)
    img = rand_image(np.random.default_rng(43), 16)
    for mode in ("standard", "decoupled"):
        assert vit.encode_dense(img, p, mode).tokens.requires_grad


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("bad_head", [0, 1], ids=["lane-0", "lane-1"])
def test_a_lane_error_reaches_the_caller_and_no_thread_outlives_the_call(monkeypatch,
                                                                          bad_head):
    # on 2 lanes, lane 0 runs heads 0 and 2 and lane 1 heads 1 and 3; scores
    # of 1e200 * 1e200 overflow in the bad head alone
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    q, k, v = np.random.default_rng(44).standard_normal((3, 6, 8))
    q[:, 2 * bad_head:2 * bad_head + 2] = k[:, 2 * bad_head:2 * bad_head + 2] = 1e200
    threads = threading.active_count()
    with pytest.raises(EvaluationError):
        vit._multi_head(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4)
    assert threading.active_count() == threads


def test_no_grad_lanes_hold_one_workspace_each_at_paper_shape(monkeypatch):
    # 2 lanes of one head per map at 1226 tokens hold two caller-allocated
    # workspaces of one row block each (0.22 map each). Beside them: the block's
    # q, k, v, layer norm and MLP and, per lane, its column blocks and a
    # block's finiteness mask, about 7.7 (1226, 64) token arrays, so the
    # peak reads 0.82-0.84 maps. A third block-sized buffer (a workspace per
    # group, or fresh score and probability blocks per lane) reaches 1.04
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    pools = _counted_pools(monkeypatch)
    p = _no_grad(VitParams(patch_size=16, depth=1, width=64, heads=4, input_res=560, seed=45))
    x = T.Tensor(np.random.default_rng(46).standard_normal((1226, 64)))
    score_map = 1226 * 1226 * 8
    gc.collect()
    tracemalloc.start()
    try:
        vit.attention_block(x, p, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pools == [1]
    assert peak < 2 * _tile_bytes(4, 1226, 1226, 8) + 10 * x.data.nbytes, peak / score_map


def test_paper_shape_gradients_are_bitwise_the_same_on_one_and_two_lanes(monkeypatch):
    # every group writes only its own columns of dq, dk and dv, in the same
    # blocks on whichever lane runs it; the grad forwards run one lane, so
    # the two pools are the two attentions' backward
    p = VitParams(patch_size=16, depth=2, width=64, heads=4, input_res=560, seed=48)
    x0 = np.random.default_rng(49).standard_normal((1226, 64))
    pools = _counted_pools(monkeypatch)

    def grads(cpus):
        monkeypatch.setattr(vit, "usable_cpus", lambda: cpus)
        for _, t in p.named_parameters():
            t.grad = None
        x = T.Tensor(x0.copy(), requires_grad=True)
        context, content = vit.decoupled_block(vit.attention_block(x, p, 0), p)
        T.backward(T.add(T.sum_all(T.mul(content, content)),
                         T.sum_all(T.mul(context, context))))
        held = {name: t.grad.tobytes() for name, t in p.named_parameters() if t.grad is not None}
        return {**held, "x": x.grad.tobytes()}

    one = grads(1)
    assert pools == []
    assert grads(2) == one
    assert pools == [1, 1]


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("bad_head", [0, 1], ids=["lane-0", "lane-1"])
def test_a_backward_lane_error_reaches_the_caller_and_no_thread_outlives_back(monkeypatch,
                                                                              bad_head):
    # the rule recomputes its maps from q and k alone: planted scores of
    # 1e200 * 1e200 overflow in the bad head's recompute, on its lane
    monkeypatch.setattr(vit, "TILE_BYTES", 0)
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    pools = _counted_pools(monkeypatch)
    q, k, v, g = np.random.default_rng(50).standard_normal((4, 6, 8))
    q[:, 2 * bad_head:2 * bad_head + 2] = k[:, 2 * bad_head:2 * bad_head + 2] = 1e200
    back = vit._attention_back(q, k, v, 4)
    threads = threading.active_count()
    with pytest.raises(EvaluationError):
        back(g)
    assert pools == [1]
    assert threading.active_count() == threads


def test_a_paper_shape_backward_holds_one_block_pair_per_lane(monkeypatch):
    # one head per map in row blocks: each of 2 lanes holds its recomputed
    # probabilities and its dP block, two workspaces of one block each (0.22
    # map each). Beside them: dq, dk and dv and, per lane, the group's
    # column blocks of q, k, v and g and the block's partial products,
    # about 7.1 (1226, 64) token arrays. A third block-sized buffer per lane
    # adds 8.3, and the whole-group maps of one lane read 27.1 MiB
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    pools = _counted_pools(monkeypatch)
    q, k, v, g = np.random.default_rng(51).standard_normal((4, 1226, 64))
    back = vit._attention_back(q, k, v, 4)
    gc.collect()
    tracemalloc.start()
    try:
        back(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pools == [1]
    assert peak < 2 * 2 * _tile_bytes(4, 1226, 1226, 8) + 10 * q.nbytes, peak / q.nbytes


def test_a_desk_shape_backward_starts_no_thread(monkeypatch):
    # 65 tokens: all heads in one map of one block, so one group on one lane
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    monkeypatch.setattr(vit, "ThreadPoolExecutor",
                        lambda workers: pytest.fail("a desk-shape backward built a pool"))
    p = tiny_params(width=48, heads=4, seed=52)
    assert vit._tiles(4, 65, 65, 8) == (4, [(0, 65)])
    x0 = np.random.default_rng(53).standard_normal((65, 48))
    threads = threading.active_count()
    for block in ("standard", "decoupled"):
        _, grads = _block_outputs_and_grads(p, x0, block)
        assert grads["x"] is not None
    assert threading.active_count() == threads


def test_a_desk_shape_attention_never_asks_for_the_cpu_count(monkeypatch):
    # 65 tokens: one group of all heads in one block leaves nothing to put on
    # lanes, so neither the backward nor the no-grad forward reads the
    # affinity mask
    monkeypatch.setattr(vit, "usable_cpus",
                        lambda: pytest.fail("a desk-shape attention asked for the CPU count"))
    p = tiny_params(width=48, heads=4, seed=52)
    x0 = np.random.default_rng(54).standard_normal((65, 48))
    for block in ("standard", "decoupled"):
        _, grads = _block_outputs_and_grads(p, x0, block)
        assert grads["x"] is not None
    loaded = _no_grad(p)
    assert not vit.attention_block(T.Tensor(x0), loaded, 0).requires_grad
    assert not vit.decoupled_block(T.Tensor(x0), loaded)[1].requires_grad


def test_a_frozen_paper_shape_attention_starts_no_thread(monkeypatch):
    # four one-head groups, which a no-grad student forward puts on two
    # lanes; the frozen forward runs beside the crop helpers, where lanes of
    # its own would oversubscribe the CPUs
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    monkeypatch.setattr(vit, "ThreadPoolExecutor",
                        lambda workers: pytest.fail("a frozen attention built a pool"))
    q, k, v = np.random.default_rng(55).standard_normal((3, 1226, 64))
    assert vit._tiles(4, 1226, 1226, 8)[0] == 1
    threads = threading.active_count()
    assert np.isfinite(vit._attention_array(q, k, v, 4)).all()
    assert threading.active_count() == threads


# --- frozen forward on plain arrays ---------------------------------------------

def cls_block(x, p, layer):
    """attention_block's Tensor ops for the CLS row alone: its query,
    residual and FFN, with keys and values over every row."""
    b = p.blocks[layer]
    h = vit.layer_norm_rows(x, b.ln1_s, b.ln1_o)
    x, hq = T.slice_rows(x, 0, 1), T.slice_rows(h, 0, 1)
    q = T.add(T.matmul(hq, b.wq), b.bq)
    k = T.add(T.matmul(h, b.wk), b.bk)
    v = T.add(T.matmul(h, b.wv), b.bv)
    y = T.add(x, T.add(T.matmul(vit._multi_head(q, k, v, p.heads), b.wo), b.bo))
    h2 = vit.layer_norm_rows(y, b.ln2_s, b.ln2_o)
    return T.add(y, T.add(T.matmul(T.gelu(T.add(T.matmul(h2, b.w1), b.b1)), b.w2), b.b2))


def tensor_path(img, p, cls=False):
    """The Tensor-op forward of encode_cls (cls=True) or the standard
    encode_dense tokens, on unfrozen params. The CLS row of the full final
    block is not bitwise the CLS-only row, so encode_cls's reference runs
    cls_block."""
    seq = vit.patch_embed(img, p)
    for layer in range(p.depth - 1):
        seq = vit.attention_block(seq, p, layer)
    if cls:
        out = cls_block(seq, p, p.depth - 1)
    else:
        out = T.slice_rows(vit.attention_block(seq, p, p.depth - 1), 1, seq.shape[0])
    return (T.matmul(out, p.w_vl) if p.w_vl is not None else out).data


FROZEN_SHAPES = {
    "desk-teacher": dict(patch=8, res=64, depth=3, width=48, heads=4, embed=24),
    "desk-provider": dict(patch=4, res=32, depth=2, width=12, heads=2),
    "paper-teacher": dict(patch=16, res=560, depth=4, width=64, heads=4, embed=32),
    "paper-provider": dict(patch=14, res=490, depth=3, width=48, heads=4),
    "depth1": dict(patch=4, res=12, depth=1, width=8, heads=2, embed=5),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("shape", list(FROZEN_SHAPES))
def test_frozen_forward_matches_tensor_path_bitwise(shape, dtype):
    kw = FROZEN_SHAPES[shape]
    p = VitParams(patch_size=kw["patch"], depth=kw["depth"], width=kw["width"],
                  heads=kw["heads"], input_res=kw["res"], embed_dim=kw.get("embed", 0),
                  seed=17, dtype=dtype)
    frozen = p.clone().freeze()
    img = rand_image(np.random.default_rng(18), kw["res"])
    cls = vit.encode_cls(img, frozen)
    ref_cls = tensor_path(img, p, cls=True)[0]
    assert cls.dtype == ref_cls.dtype and cls.tobytes() == ref_cls.tobytes()
    tokens = vit.encode_dense(img, frozen, "standard").tokens.data
    ref_tokens = tensor_path(img, p)
    assert tokens.shape == ref_tokens.shape and tokens.dtype == ref_tokens.dtype
    assert tokens.tobytes() == ref_tokens.tobytes()


def test_frozen_forward_makes_no_graph_records(monkeypatch):
    p = tiny_params(depth=2, width=8, heads=2, res=8, patch=4, embed=4)
    frozen = p.clone().freeze()
    img = rand_image(np.random.default_rng(19), 8)
    records = []
    from_op = T.from_op
    monkeypatch.setattr(T, "from_op", lambda *a: records.append(1) or from_op(*a))
    vit.encode_cls(img, frozen)
    vit.encode_dense(img, frozen, "standard")
    assert records == []
    vit.encode_dense(img, p, "standard")
    assert records
    # the summary vector is a frozen-teacher path: student params are refused
    with pytest.raises(ModeError):
        vit.encode_cls(img, p)


def _first_head_scores(img, p):
    """Head-0 score map of block 0, in plain numpy (the ops would refuse it)."""
    b = p.blocks[0]
    h = vit.layer_norm_rows(vit.patch_embed(img, p), b.ln1_s, b.ln1_o).data
    d = p.width // p.heads
    q = (h @ b.wq.data + b.bq.data)[:, :d] / math.sqrt(d)
    return q @ (h @ b.wk.data + b.bk.data)[:, :d].T


def _nonfinite_case(case):
    p = tiny_params(depth=1, width=8, heads=2, res=12, patch=4, embed=4, seed=20)
    img = rand_image(np.random.default_rng(21), 12)
    b = p.blocks[0]
    if case == "nan-pixel":
        img[1, 5, 7] = np.nan
    elif case == "ln-variance-overflow":
        img *= 1e160  # finite tokens whose squared deviations overflow
    elif case == "scores-plus-inf":
        b.bq.data[...] = 1e155
        b.bk.data[...] = 1e155
    else:
        # query column 0 is 1e155 and key column 0 is 1e155 * (h0 - max h0):
        # the top token scores 0, so each row max is finite, the rest is -inf
        h0 = vit.layer_norm_rows(vit.patch_embed(img, p), b.ln1_s, b.ln1_o).data[:, 0]
        b.bq.data[0, 0] = 1e155
        b.wq.data[...] = 0.0
        b.wk.data[...] = 0.0
        b.wk.data[0, 0] = 1e155
        b.bk.data[0, 0] = -(h0.max() * 1e155)
    return p, img


@pytest.mark.parametrize("case", ["nan-pixel", "ln-variance-overflow", "scores-plus-inf",
                                  "scores-minus-inf"])
def test_frozen_forward_raises_where_tensor_path_raises(case):
    p, img = _nonfinite_case(case)
    frozen = p.clone().freeze()
    with np.errstate(all="ignore"):
        if case.startswith("scores"):
            s = _first_head_scores(img, p)
            if case == "scores-plus-inf":
                assert np.isposinf(s).all()
            else:
                assert np.isfinite(s.max(axis=1)).all() and np.isneginf(s).any()
        for cls in (False, True):
            with pytest.raises(EvaluationError):
                tensor_path(img, p, cls)
        with pytest.raises(EvaluationError):
            vit.encode_cls(img, frozen)
        with pytest.raises(EvaluationError):
            vit.encode_dense(img, frozen, "standard")
    with pytest.raises(ModeError):
        vit.encode_dense(rand_image(np.random.default_rng(22), 12), frozen, "decoupled")
