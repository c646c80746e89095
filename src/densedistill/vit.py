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
# largest (heads*m, n) score map whose heads share one map (_head_group)
HEAD_GROUP_BYTES = 16 * 2 ** 20
# a forward builds a head group's map in query-row blocks of about this many
# bytes, near a core's 2 MiB L2 (_row_blocks). Both sides write a block's
# scores and softmax them in place in one workspace that the next block
# overwrites: one per call on the array side (_head_maps), one per lane on the
# student's Tensor side (_multi_head)
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


def _int(v):
    """Whether v is an int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


# what a constructor field must hold for an encoder to be built from it; the
# fields not named here are ints >= 1 (embed_dim 0: no projection)
_FIELD_RANGES = {
    "embed_dim": (">= 0", lambda v: _int(v) and v >= 0),
    "pixel_mean": ("finite", math.isfinite),
    "pixel_std": ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
}


def field_range(name):
    """(what constructor field ``name`` must hold, the test of a value)."""
    return _FIELD_RANGES.get(name, (">= 1", lambda v: _int(v) and v >= 1))


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


def _head_group(heads, m, n, itemsize):
    """Heads per score map: all of them when their (heads*m, n) map fits
    HEAD_GROUP_BYTES, else one."""
    return heads if heads * m * n * itemsize <= HEAD_GROUP_BYTES else 1


def _row_blocks(group, m, n, itemsize):
    """Query-row blocks (start, stop) of a head group's (group*m, n) score
    map: all m rows while the map fits TILE_BYTES, else blocks starting at
    multiples of r, the largest multiple of TILE_ALIGN whose block fits (at
    least TILE_ALIGN), the short remainder joining the last block."""
    row = group * n * itemsize
    if m * row <= TILE_BYTES:
        return [(0, m)]
    r = max(TILE_BYTES // row // TILE_ALIGN, 1) * TILE_ALIGN
    edges = [*range(0, r * max(m // r, 1), r), m]
    return list(zip(edges[:-1], edges[1:]))


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


def _multi_head(q, k, v, heads):
    """Multi-head attention over head groups of _head_group's size, each
    group on its column block of q, k and v and in _row_blocks' query-row
    blocks, a block's scores written and softmaxed in place in its lane's
    workspace of the largest block. When no operand needs a gradient the
    groups run on min(groups, usable_cpus()) lanes: lane j takes groups j,
    j+lanes, ..., and the lanes are _beside's items on lanes - 1 helpers and
    the calling thread, every workspace allocated here before any lane
    starts. With a gradient one lane runs every group (in training the crop
    helpers hold the other CPUs). Only each block's output array is kept,
    written into the output, which is one graph record over (q, k, v) whose
    rule recomputes the probabilities."""
    m, n = q.shape[0], k.shape[0]
    group = _head_group(heads, m, n, q.data.itemsize)
    blocks = _row_blocks(group, m, n, q.data.itemsize)
    d = q.shape[1] // heads
    groups = heads // group
    grad = q.requires_grad or k.requires_grad or v.requires_grad
    lanes = 1 if grad else min(groups, usable_cpus())
    rows = max(stop - start for start, stop in blocks)
    work = [np.empty((group * rows, n), q.data.dtype) for _ in range(lanes)]
    out = np.empty((m, v.shape[1]), v.data.dtype)

    def lane(j):
        for i in range(j, groups, lanes):
            cols = slice(i * group * d, (i + 1) * group * d)
            qh, kh, vh = q, k, v
            if group < heads:
                qh, kh, vh = (T.slice_cols(a, cols.start, cols.stop) for a in (q, k, v))
            for start, stop in blocks:
                qb = qh if len(blocks) == 1 else T.slice_rows(qh, start, stop)
                w = work[j][:group * (stop - start)]
                p = T.softmax_rows(T.head_scores(qb, kh, group, out=w), out=w)
                out[start:stop, cols] = T.head_mix(p, vh, group).data

    with _beside(lane, range(lanes), lanes - 1) as done:
        list(done)  # a lane's raise surfaces here
    return T.from_op(out, (q, k, v), _attention_back(q.data, k.data, v.data, heads))


def _head_maps(q, k, heads, tiled=False):
    """Per head group of _head_group's size and, when ``tiled``, per query-row
    block of _row_blocks (else all rows): its head count, column slice, row
    slice, the group's contiguous scaled-query and key blocks (the student's
    slice_cols operands) and the block's (group*rows, n) probabilities,
    softmaxed in place in one workspace that the next block overwrites. A map
    is checked through its minimum (-inf) and row maxima (NaN, +inf); a
    finite row's softmax is finite."""
    m, n = q.shape[0], k.shape[0]
    d = q.shape[1] // heads
    group = _head_group(heads, m, n, q.itemsize)
    blocks = _row_blocks(group, m, n, q.itemsize) if tiled else [(0, m)]
    qs = q * T._head_scale(q, heads)
    work = np.empty((group * max(stop - start for start, stop in blocks), n), q.dtype)
    for h in range(0, heads, group):
        cols = slice(h * d, (h + group) * d)
        qh, kh = np.ascontiguousarray(qs[:, cols]), np.ascontiguousarray(k[:, cols])
        for start, stop in blocks:
            p = T._head_scores(qh[start:stop], kh, group, out=work[:group * (stop - start)])
            T._finite(p.min())
            yield (group, cols, slice(start, stop), qh, kh,
                   T._softmax(p, T._finite(p.max(axis=1, keepdims=True)), p))


def _attention_back(q, k, v, heads):
    """Gradient rule of _multi_head: each head group's probabilities are
    recomputed by _head_maps, and the backward of head_mix, softmax_rows and
    head_scores runs in place in a second workspace."""

    def back(g):
        grads, w = [], None  # the first group's _head_mix_back allocates w
        for group, cols, _, qh, kh, p in _head_maps(q, k, heads):
            vh, gh = np.ascontiguousarray(v[:, cols]), np.ascontiguousarray(g[:, cols])
            w, dv = T._head_mix_back(gh, p, vh, group, out=w)
            grads.append((*T._head_scores_back(T._softmax_back(w, p, out=w), qh, kh, group), dv))
        return [np.concatenate(blocks, axis=1) for blocks in zip(*grads)]

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
    """_multi_head on plain arrays, over _head_maps' groups and row blocks."""
    out = np.empty_like(q)
    for group, cols, rows, _, _, p in _head_maps(q, k, heads, tiled=True):
        if rows.start == 0:  # a head group's first block
            vh = np.ascontiguousarray(v[:, cols])
        out[rows, cols] = T._head_mix(p, vh, group)
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
            maps[i] = np.empty((len(q), len(k), params.heads), q.dtype)
            d = q.shape[1] // params.heads
            for group, cols, _, _, _, p in _head_maps(q, k, params.heads):
                maps[i][:, :, cols.start // d:cols.stop // d] = (
                    p.reshape(group, len(q), len(k)).transpose(1, 2, 0))
        if i < deepest:
            seq = attention_block(seq, params, i)
    return [maps[layer] for layer in layers]
