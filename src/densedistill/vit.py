"""Minimal ViT encoder: standard pre-norm attention blocks plus a decoupled
final block that splits the last attention into context (query projection)
and content (attention-aggregated values) streams.

The same parameter container serves three roles: trainable student, frozen
teacher twin, and frozen feature provider. Frozen instances refuse the
decoupled path, have read-only parameter arrays and run their standard
forward on plain arrays, without the graph.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ModeError, ParameterError, ShapeError
from . import tensor as T
from .tensor import Tensor

LN_EPS = 1e-5
INIT_STD = 0.02
MLP_RATIO = 2
# an attention's score map is built in query-row blocks of about this many
# bytes, near a core's 2 MiB L2 (_tiles): all heads in one map while it fits,
# else one head per map. A block's scores are written and softmaxed in place
# in its lane's workspace, which the next block overwrites; _lanes allocates
# one per lane, and a second for the backward's dP (_attention_back)
TILE_BYTES = 2 * 2 ** 20
# a split map's blocks start at multiples of r rows, r a multiple of
# TILE_ALIGN, and hold at least r: at one BLAS thread gemm then gives each row
# the bits the whole map does (OpenBLAS fills rows in groups of 24, and
# products of under about 10^6 multiply-adds take another kernel); at more,
# a few f64 entries may move by under an eps
TILE_ALIGN = 96
# VitParams' constructor arguments but the seed, in the order a checkpoint
# stores them and the fingerprint digests them
_META = ("depth", "width", "heads", "patch_size", "input_res", "embed_dim", "dtype",
         "pixel_mean", "pixel_std")


# what a constructor field must hold for an encoder to be built from it; the
# fields not named here are ints >= 1 (embed_dim 0: no projection)
_FIELD_RANGES = {
    "embed_dim": (">= 0", lambda v: T._int(v) and v >= 0),
    "pixel_mean": ("finite", math.isfinite),
    "pixel_std": ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
}


def field_range(name):
    """(what constructor field ``name`` must hold, the test of a value)."""
    return _FIELD_RANGES.get(name, (">= 1", lambda v: T._int(v) and v >= 1))


def check_fields(**held):
    """Refuse the first constructor field, by name, outside its range."""
    for name, value in held.items():
        want, ok = field_range(name)
        if not ok(value):
            raise ParameterError(f"{name} = {value!r}, expected {want}")


def param_shapes(patch_size, depth, width, heads, input_res, embed_dim):
    """The name -> shape table of an encoder's parameters, in the order
    ``VitParams`` draws, keeps and lists them; the one place a parameter is
    named. Building it allocates no parameter; fields no encoder can be
    built from are refused."""
    check_fields(patch_size=patch_size, depth=depth, width=width, heads=heads,
                 input_res=input_res, embed_dim=embed_dim)
    if width % heads != 0:
        raise ParameterError(f"width {width} not divisible by heads {heads}")
    if input_res % patch_size != 0:
        raise ParameterError(f"resolution {input_res} not divisible by patch {patch_size}")
    c, hidden, side = width, MLP_RATIO * width, input_res // patch_size
    shapes = {"patch.w": (3 * patch_size * patch_size, c), "patch.b": (1, c),
              "cls": (1, c), "pos": (1 + side * side, c)}
    block = dict(wq=(c, c), bq=(1, c), wk=(c, c), bk=(1, c), wv=(c, c), bv=(1, c),
                 wo=(c, c), bo=(1, c), w1=(c, hidden), b1=(1, hidden), w2=(hidden, c),
                 b2=(1, c), ln1_s=(1, c), ln1_o=(1, c), ln2_s=(1, c), ln2_o=(1, c))
    for i in range(depth):
        shapes.update((f"block{i}.{name}", shape) for name, shape in block.items())
    if embed_dim:
        shapes["proj"] = (c, embed_dim)
    return shapes


def _initial(name, shape, rng, dtype):
    """A parameter's initial array: layer-norm scales are ones, biases and
    layer-norm offsets zeros, every other array drawn from N(0, INIT_STD^2)."""
    field = name.rsplit(".", 1)[-1]
    if field.startswith("ln"):
        return (np.ones if field.endswith("_s") else np.zeros)(shape, dtype)
    if field.startswith("b"):
        return np.zeros(shape, dtype)
    return rng.normal(0.0, INIT_STD, size=shape).astype(dtype, copy=False)


class VitParams:
    """Full parameter set of one encoder, tied to a fixed input resolution:
    one name -> Tensor table in ``param_shapes`` order. ``blocks[i]`` and the
    embedding attributes are views holding the table's own Tensors."""

    def __init__(self, patch_size, depth, width, heads, input_res, embed_dim=0,
                 pixel_mean=0.5, pixel_std=0.5, seed=0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        self._build(lambda name, shape, dt: _initial(name, shape, rng, dt), True, patch_size,
                    depth, width, heads, input_res, embed_dim, pixel_mean, pixel_std, dtype)

    @classmethod
    def _of_arrays(cls, arrays, requires_grad=False, **meta):
        """Params of the constructor arguments ``meta`` (no seed) holding
        copies of ``arrays`` (name -> array, cast to the dtype); nothing is
        drawn."""
        params = cls.__new__(cls)
        params._build(lambda name, shape, dt: arrays[name].astype(dt), requires_grad, **meta)
        return params

    def _meta(self):
        """The constructor arguments but the seed, by name."""
        return {name: getattr(self, name) for name in _META}

    def _build(self, initial, requires_grad, patch_size, depth, width, heads, input_res,
               embed_dim, pixel_mean, pixel_std, dtype):
        shapes = param_shapes(patch_size, depth, width, heads, input_res, embed_dim)
        check_fields(pixel_mean=pixel_mean, pixel_std=pixel_std)
        self.patch_size = patch_size
        self.depth = depth
        self.width = width
        self.heads = heads
        self.input_res = input_res
        self.embed_dim = embed_dim
        self.pixel_mean = float(pixel_mean)
        self.pixel_std = float(pixel_std)
        self.dtype = np.dtype(dtype)
        self.frozen = False
        self._fingerprint = None
        self.grid_side = input_res // patch_size

        self._table = held = {name: Tensor(initial(name, shape, self.dtype), requires_grad)
                              for name, shape in shapes.items()}
        self.w_patch, self.b_patch, self.cls_token, self.pos_embed = (
            held[name] for name in ("patch.w", "patch.b", "cls", "pos"))
        self.w_vl = held.get("proj")
        # "block<i>.<field>" entries, one namespace of fields per block
        self.blocks = [SimpleNamespace() for _ in range(depth)]
        for name, p in held.items():
            prefix, _, field = name.partition(".")
            if prefix.startswith("block"):
                setattr(self.blocks[int(prefix[len("block"):])], field, p)

    def named_parameters(self):
        return list(self._table.items())

    def clone(self):
        """A trainable copy: every parameter requires grad, no array is shared."""
        arrays = {name: p.data for name, p in self.named_parameters()}
        return VitParams._of_arrays(arrays, requires_grad=True, **self._meta())

    def freeze(self):
        """Read-only role: gradients off, parameter arrays immutable."""
        self.frozen = True
        for _, p in self.named_parameters():
            p.requires_grad = False
            p.grad = None
            p.data.flags.writeable = False
        return self

    def state_bytes(self):
        return b"".join(p.data.tobytes() for _, p in self.named_parameters())

    def fingerprint(self):
        """Digest of a frozen encoder's architecture, pixel normalisation and
        weights, computed at first use: frozen arrays are read-only, so it
        cannot go stale."""
        if not self.frozen:
            raise ModeError("only frozen params have a fixed fingerprint")
        if self._fingerprint is None:
            meta = {**self._meta(), "dtype": self.dtype.str}
            digest = hashlib.blake2b(repr(tuple(meta.values())).encode(), digest_size=16)
            digest.update(self.state_bytes())
            self._fingerprint = digest.digest()
        return self._fingerprint


@dataclass
class DenseFeatures:
    tokens: Tensor             # (HW, C') per-image dense features, projected when configured
    grid: tuple
    context: Tensor | None = None  # (HW, C) decoupled context stream, unprojected


def layer_norm_rows(x, scale, offset):
    c = x.shape[1]
    mu = T.mul_scalar(T.sum_rows(x), 1.0 / c)
    centered = T.sub(x, mu)
    var = T.mul_scalar(T.sum_rows(T.mul(centered, centered)), 1.0 / c)
    normed = T.div(centered, T.sqrt(T.add_scalar(var, LN_EPS)))
    return T.add(T.mul(normed, scale), offset)


def _patch_matrix(image, params):
    """Normalized (3,R,R) image -> (h*w, 3*p*p) patch matrix in the params'
    dtype, patches row-major, channel-major within."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"expected a 3xRxR image, got {arr.shape}")
    patch = params.patch_size
    if arr.shape[1] % patch != 0:
        raise ShapeError(f"resolution {arr.shape[1]} not divisible by patch {patch}")
    side = arr.shape[1] // patch
    if side * side + 1 != params.pos_embed.shape[0]:
        raise ShapeError(f"image yields {side * side} tokens but positional table has "
                         f"{params.pos_embed.shape[0] - 1}")
    blocks = ((arr - params.pixel_mean) / params.pixel_std).reshape(3, side, patch, side, patch)
    return np.ascontiguousarray(blocks.transpose(1, 3, 0, 2, 4).reshape(side * side, -1),
                                dtype=params.dtype)


def patch_embed(image, params):
    """Tokenize: normalize pixels, embed patches, prepend CLS, add positions."""
    patches = Tensor(_patch_matrix(image, params))
    tokens = T.add(T.matmul(patches, params.w_patch), params.b_patch)
    seq = T.concat_rows([params.cls_token, tokens])
    return T.add(seq, params.pos_embed)


def _tiles(heads, m, n, itemsize):
    """The cut of an attention's (heads*m, n) score maps: (heads per map,
    its query-row blocks (start, stop)). All heads and all m rows while the
    whole map fits TILE_BYTES; else one head per map, in blocks starting at
    multiples of r, the largest multiple of TILE_ALIGN whose block fits (at
    least TILE_ALIGN), the short remainder joining the last block."""
    if heads * m * n * itemsize <= TILE_BYTES:
        return heads, [(0, m)]
    r = max(TILE_BYTES // (n * itemsize) // TILE_ALIGN, 1) * TILE_ALIGN
    edges = [*range(0, r * max(m // r, 1), r), m]
    return 1, list(zip(edges[:-1], edges[1:]))


def usable_cpus():
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _beside(fn, items, threads):
    """Map ``fn`` over ``items`` on ``threads`` helper threads and the calling
    thread, which is one of the workers: the ``with`` block reads the results
    in item order, and while the item it reads is not done the calling thread
    takes the last item no helper has started and runs it, keeping its result
    or raise for that item's read. With 0 threads each item runs on the
    calling thread when it is read. Leaving the block, also by a raise, drops
    the items not yet started and joins every thread."""
    if not threads:
        yield map(fn, items)
        return
    pool = ThreadPoolExecutor(threads)
    try:
        items = list(items)
        yield _shared(fn, items, [pool.submit(fn, item) for item in items])
    finally:
        pool.shutdown(cancel_futures=True)


def _shared(fn, items, futures):
    """``_beside``'s results in item order, the calling thread taking the
    unstarted items from the back while the one it reads is not done."""
    tail = len(futures)
    for i, future in enumerate(futures):
        while i < tail and not future.done():
            tail -= 1
            if futures[tail].cancel():  # no helper has started it
                futures[tail] = Future()
                try:
                    futures[tail].set_result(fn(items[tail]))
                except Exception as exc:
                    futures[tail].set_exception(exc)
        yield futures[i].result()


def _lanes(run, q, k, heads, lanes, planes):
    """Run _tiles' cut of the score maps of arrays ``q`` and ``k`` as
    ``run(cut, work)`` per lane: ``cut`` the lane's (heads per map, column
    slice, row slice) entries, a head group's row blocks in order, and
    ``work`` its (planes, group*rows, n) workspace of the largest block,
    allocated here before any lane starts. When ``lanes`` is true and the
    cut has more than one head group, min(groups, usable_cpus()) lanes run
    as _beside's items on lanes - 1 helpers and the calling thread, lane j
    taking groups j, j+lanes, ...; else the calling thread runs them all."""
    m, n = q.shape[0], k.shape[0]
    group, blocks = _tiles(heads, m, n, q.itemsize)
    groups = heads // group
    lanes = min(groups, usable_cpus()) if lanes and groups > 1 else 1
    w = q.shape[1] // groups  # a group's columns
    cuts = [[(group, slice(i * w, (i + 1) * w), slice(*block))
             for i in range(j, groups, lanes) for block in blocks] for j in range(lanes)]
    rows = max(stop - start for start, stop in blocks)
    work = [np.empty((planes, group * rows, n), q.dtype) for _ in range(lanes)]
    with _beside(lambda j: run(cuts[j], work[j]), range(lanes), lanes - 1) as done:
        list(done)  # a lane's raise surfaces here


def _multi_head(q, k, v, heads):
    """Multi-head attention over _lanes' cut, each block's scores written
    and softmaxed in place in its lane's workspace; on lanes when no
    operand needs a gradient, else on one (in training the crop helpers
    hold the other CPUs). Only each block's output array is kept, written
    into the output: one graph record over (q, k, v), whose rule
    recomputes the probabilities."""
    m = q.shape[0]
    grad = q.requires_grad or k.requires_grad or v.requires_grad
    out = np.empty((m, v.shape[1]), v.data.dtype)

    def lane(cut, work):
        for group, cols, rows in cut:
            if rows.start == 0:  # a head group's first block
                qh, kh, vh = q, k, v
                if group < heads:
                    qh, kh, vh = (T.slice_cols(a, cols.start, cols.stop) for a in (q, k, v))
            qb = qh if rows.stop - rows.start == m else T.slice_rows(qh, rows.start, rows.stop)
            w = work[0][:group * (rows.stop - rows.start)]
            p = T.softmax_rows(T.head_scores(qb, kh, group, out=w), out=w)
            out[rows, cols] = T.head_mix(p, vh, group).data

    _lanes(lane, q.data, k.data, heads, not grad, 1)
    return T.from_op(out, (q, k, v), _attention_back(q.data, k.data, v.data, heads))


def _head_maps(q, k, heads, cut, work):
    """Per entry (heads per map, column slice, row slice) of ``cut``: the
    entry, its group's contiguous scaled-query and key blocks (the
    student's slice_cols operands, taken at the group's block at row 0)
    and the block's probabilities, softmaxed in place in ``work``, which
    the next block overwrites. A map is checked through its minimum (-inf)
    and row maxima (NaN, +inf); a finite row's softmax is finite."""
    scale = T._head_scale(q, heads)
    for group, cols, rows in cut:
        if rows.start == 0:  # a head group's first block
            qh, kh = q[:, cols] * scale, np.ascontiguousarray(k[:, cols])
        p = T._head_scores(qh[rows], kh, group, out=work[:group * (rows.stop - rows.start)])
        T._finite(p.min())
        yield group, cols, rows, qh, kh, T._softmax(p, T._finite(p.max(axis=1, keepdims=True)), p)


def _attention_back(q, k, v, heads):
    """Gradient rule of _multi_head, over _lanes' cut on lanes: per block,
    _head_maps recomputes P_b in the lane's first workspace, head_mix's
    backward forms dP_b = g_b V_h^T in its second and softmax_rows' runs
    there in place; the block writes its rows of dq and adds dS_b^T Qs_b
    to dk and P_b^T g_b to dv, in its group's own columns."""

    def back(g):
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)

        def lane(cut, work):
            for group, cols, rows, qh, kh, p in _head_maps(q, k, heads, cut, work[0]):
                if rows.start == 0:  # a head group's first block
                    vh, gh = np.ascontiguousarray(v[:, cols]), np.ascontiguousarray(g[:, cols])
                w, dvb = T._head_mix_back(gh[rows], p, vh, group, out=work[1][:len(p)])
                dq[rows, cols], dkb = T._head_scores_back(T._softmax_back(w, p, out=w),
                                                          qh[rows], kh, group)
                if rows.start == 0:
                    dk[:, cols], dv[:, cols] = dkb, dvb
                else:
                    dk[:, cols] += dkb
                    dv[:, cols] += dvb

        _lanes(lane, q, k, heads, True, 2)
        return [dq, dk, dv]

    return back


def attention_block(x, params, layer):
    """Standard block: pre-norm attention with residual, pre-norm FFN with residual."""
    b = params.blocks[layer]
    h = layer_norm_rows(x, b.ln1_s, b.ln1_o)
    q = T.add(T.matmul(h, b.wq), b.bq)
    k = T.add(T.matmul(h, b.wk), b.bk)
    v = T.add(T.matmul(h, b.wv), b.bv)
    y = T.add(x, T.add(T.matmul(_multi_head(q, k, v, params.heads), b.wo), b.bo))
    h2 = layer_norm_rows(y, b.ln2_s, b.ln2_o)
    ffn = T.add(T.matmul(T.gelu(T.add(T.matmul(h2, b.w1), b.b1)), b.w2), b.b2)
    return T.add(y, ffn)


def decoupled_block(x, params):
    """Final-block decoupling over the whole sequence: returns the context
    stream (query projection) and the content stream (values aggregated by
    the context self-attention, then the output projection). No residual,
    no FFN."""
    if params.frozen:
        raise ModeError("decoupled forward is a student-only path; teacher stays standard")
    b = params.blocks[-1]
    h = layer_norm_rows(x, b.ln1_s, b.ln1_o)
    context = T.add(T.matmul(h, b.wq), b.bq)
    v = T.add(T.matmul(h, b.wv), b.bv)
    agg = _multi_head(context, context, v, params.heads)
    return context, T.add(T.matmul(agg, b.wo), b.bo)


def _layer_norm_array(x, scale, offset):
    inv_c = x.dtype.type(1.0 / x.shape[1])
    centered = x - x.sum(axis=1, keepdims=True) * inv_c
    var = T._finite((centered * centered).sum(axis=1, keepdims=True) * inv_c)
    return T._finite(centered / np.sqrt(var + x.dtype.type(LN_EPS)) * scale.data + offset.data)


def _attention_array(q, k, v, heads):
    """_multi_head on plain arrays, on one lane of _lanes' cut: the frozen
    forward runs beside the crop helpers and starts no lane."""
    out = np.empty_like(q)

    def lane(cut, work):
        for group, cols, rows, _, _, p in _head_maps(q, k, heads, cut, work[0]):
            if rows.start == 0:  # a head group's first block
                vh = np.ascontiguousarray(v[:, cols])
            out[rows, cols] = T._head_mix(p, vh, group)

    _lanes(lane, q, k, heads, False, 1)
    return T._finite(out)


def _block_array(x, b, heads, queries=None):
    h = _layer_norm_array(x, b.ln1_s, b.ln1_o)
    hq, x = (h[:queries], x[:queries]) if queries else (h, x)
    q = T._finite(hq @ b.wq.data + b.bq.data)
    k = T._finite(h @ b.wk.data + b.bk.data)
    v = T._finite(h @ b.wv.data + b.bv.data)
    y = T._finite(x + (_attention_array(q, k, v, heads) @ b.wo.data + b.bo.data))
    u = T._finite(_layer_norm_array(y, b.ln2_s, b.ln2_o) @ b.w1.data + b.b1.data)
    return T._finite(y + ((u * T._gelu_cdf(u)) @ b.w2.data + b.b2.data))


def _encode_array(image, params, queries=None):
    """The standard forward of frozen params on plain arrays, no graph: the
    arithmetic of patch_embed and attention_block (bitwise equal), with
    ``queries`` on the final block. Returns the projected CLS row (queries=1)
    or image rows. Non-finite values pass through adding, subtracting,
    multiplying or dividing by finite values and through GELU (which keeps
    finite values finite), so checking the ends of such chains, the other
    matmul inputs and the LN variance (an infinite one would zero its row)
    raises wherever the Tensor ops raise."""
    tokens = T._finite(_patch_matrix(image, params)) @ params.w_patch.data + params.b_patch.data
    x = T._finite(np.concatenate([params.cls_token.data, tokens]) + params.pos_embed.data)
    for layer, b in enumerate(params.blocks):
        x = _block_array(x, b, params.heads, queries if layer == params.depth - 1 else None)
    x = x[:1] if queries else x[1:]
    return x @ params.w_vl.data if params.w_vl is not None else x


def encode_dense(image, params, mode):
    """Dense per-image features: depth-1 standard blocks then the final block
    per mode. Tokens pass through the V-L projection when configured; in
    decoupled mode the projected stream is the content one, and the raw
    image-token context stream rides along on ``context``. The summary
    vector is ``encode_cls``'s."""
    if mode not in ("standard", "decoupled"):
        raise ParameterError(f"unknown mode {mode!r}")
    if params.frozen:
        if mode == "decoupled":
            raise ModeError("decoupled forward is a student-only path; teacher stays standard")
        return DenseFeatures(Tensor(_encode_array(image, params)), (params.grid_side,) * 2)
    seq = patch_embed(image, params)
    for layer in range(params.depth - 1):
        seq = attention_block(seq, params, layer)
    side = params.grid_side
    n = seq.shape[0]
    if mode == "standard":
        tokens = T.slice_rows(attention_block(seq, params, params.depth - 1), 1, n)
        context = None
    else:
        full_context, content = decoupled_block(seq, params)
        context = T.slice_rows(full_context, 1, n)
        tokens = T.slice_rows(content, 1, n)
    if params.w_vl is not None:
        tokens = T.matmul(tokens, params.w_vl)
    return DenseFeatures(tokens=tokens, grid=(side, side), context=context)


def encode_cls(image, params):
    """Summary vector of frozen params, a finite (E,) array: the CLS row
    after the final standard block, projected. No other row of the final
    block is read or computed."""
    if not params.frozen:
        raise ModeError("the summary vector is a frozen-teacher path; these params are not frozen")
    return T._finite(_encode_array(image, params, queries=1)[0])


def capture_attention(image, params, layers):
    """Per-head attention maps, (1+HW, 1+HW, heads) each, of the blocks
    ``layers`` in the order given, from one forward holding one head group's
    map at a time. A map comes from its block's queries and keys alone; no
    block above the deepest requested one runs, nor its values, projection or FFN."""
    for layer in layers:
        if not T._int(layer):
            raise ParameterError(f"layer must be an int, got {layer!r}")
    for layer in layers:
        if not 0 <= layer < params.depth:
            raise ParameterError(f"layer {layer} outside [0, {params.depth})")
        if layers.count(layer) > 1:
            raise ParameterError(f"layer {layer} requested more than once")
    seq = patch_embed(image, params)
    deepest = max(layers, default=-1)
    maps = {}
    for i in range(deepest + 1):
        if i in layers:
            b = params.blocks[i]
            h = layer_norm_rows(seq, b.ln1_s, b.ln1_o)
            q = T.add(T.matmul(h, b.wq), b.bq).data
            k = T.add(T.matmul(h, b.wk), b.bk).data
            m, n = len(q), len(k)
            maps[i] = np.empty((m, n, params.heads), q.dtype)
            group = _tiles(params.heads, m, n, q.itemsize)[0]
            w = q.shape[1] * group // params.heads  # a group's columns
            cut = [(group, slice(c, c + w), slice(0, m)) for c in range(0, q.shape[1], w)]
            whole = _head_maps(q, k, params.heads, cut, np.empty((group * m, n), q.dtype))
            for j, (*_, p) in enumerate(whole):
                maps[i][:, :, j * group:(j + 1) * group] = p.reshape(group, m, n).transpose(1, 2, 0)
        if i < deepest:
            seq = attention_block(seq, params, i)
    return [maps[layer] for layer in layers]
