"""Minimal ViT encoder: standard pre-norm attention blocks plus a decoupled
final block that splits the last attention into context (query projection)
and content (attention-aggregated values) streams.

The same parameter container serves three roles: trainable student, frozen
teacher twin, and frozen feature provider. Frozen instances refuse the
decoupled path and have read-only parameter arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModeError, ParameterError, ShapeError
from . import tensor as T
from .tensor import Tensor

LN_EPS = 1e-5
INIT_STD = 0.02
MLP_RATIO = 2


@dataclass
class BlockParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln1_s: Tensor
    ln1_o: Tensor
    ln2_s: Tensor
    ln2_o: Tensor

    def named(self, prefix):
        return [(f"{prefix}.{f}", getattr(self, f)) for f in (
            "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
            "w1", "b1", "w2", "b2", "ln1_s", "ln1_o", "ln2_s", "ln2_o")]


class VitParams:
    """Full parameter set of one encoder, tied to a fixed input resolution."""

    def __init__(self, patch_size, depth, width, heads, input_res, embed_dim=None,
                 pixel_mean=0.5, pixel_std=0.5, seed=0, dtype=np.float64):
        if width % heads != 0:
            raise ParameterError(f"width {width} not divisible by heads {heads}")
        if input_res % patch_size != 0:
            raise ParameterError(f"resolution {input_res} not divisible by patch {patch_size}")
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

        rng = np.random.default_rng(seed)

        def w(*shape):
            return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True, dtype=dtype)

        def zeros(*shape):
            return Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)

        def ones(*shape):
            return Tensor(np.ones(shape), requires_grad=True, dtype=dtype)

        c = width
        side = input_res // patch_size
        self.grid_side = side
        self.w_patch = w(3 * patch_size * patch_size, c)
        self.b_patch = zeros(1, c)
        self.cls_token = w(1, c)
        self.pos_embed = w(1 + side * side, c)
        hidden = MLP_RATIO * c
        self.blocks = [
            BlockParams(
                wq=w(c, c), bq=zeros(1, c), wk=w(c, c), bk=zeros(1, c),
                wv=w(c, c), bv=zeros(1, c), wo=w(c, c), bo=zeros(1, c),
                w1=w(c, hidden), b1=zeros(1, hidden), w2=w(hidden, c), b2=zeros(1, c),
                ln1_s=ones(1, c), ln1_o=zeros(1, c), ln2_s=ones(1, c), ln2_o=zeros(1, c),
            )
            for _ in range(depth)
        ]
        self.w_vl = w(c, embed_dim) if embed_dim else None

    def named_parameters(self):
        out = [("patch.w", self.w_patch), ("patch.b", self.b_patch),
               ("cls", self.cls_token), ("pos", self.pos_embed)]
        for i, b in enumerate(self.blocks):
            out.extend(b.named(f"block{i}"))
        if self.w_vl is not None:
            out.append(("proj", self.w_vl))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def clone(self):
        twin = VitParams.__new__(VitParams)
        twin.__dict__.update({k: v for k, v in self.__dict__.items()
                              if k not in ("blocks",) and not isinstance(v, Tensor)})
        twin.frozen = False
        for name in ("w_patch", "b_patch", "cls_token", "pos_embed"):
            twin.__dict__[name] = Tensor(getattr(self, name).data.copy(), requires_grad=True)
        twin.blocks = [
            BlockParams(**{f: Tensor(getattr(b, f).data.copy(), requires_grad=True)
                           for f in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                                     "w1", "b1", "w2", "b2", "ln1_s", "ln1_o", "ln2_s", "ln2_o")})
            for b in self.blocks
        ]
        twin.w_vl = Tensor(self.w_vl.data.copy(), requires_grad=True) if self.w_vl is not None else None
        return twin

    def freeze(self):
        """Read-only role: gradients off, parameter arrays immutable."""
        self.frozen = True
        for _, p in self.named_parameters():
            p.requires_grad = False
            p.grad = None
            p.data.flags.writeable = False
        return self

    def set_trainable_layers(self, n):
        """Restrict updates to the last n blocks (-1 = all). Embeddings and
        the V-L projection stay trainable; they are not encoder layers."""
        if n == -1:
            n = self.depth
        if not 0 <= n <= self.depth:
            raise ParameterError(f"trainable_layers {n} outside [0, {self.depth}]")
        for i, b in enumerate(self.blocks):
            flag = i >= self.depth - n
            for _, p in b.named(""):
                p.requires_grad = flag
        return self

    def state_bytes(self):
        return b"".join(p.data.tobytes() for _, p in self.named_parameters())


@dataclass
class DecoupledOutput:
    """Raw (pre V-L projection) outputs of the decoupled final block."""
    x_context: Tensor          # (HW, C) query-projected tokens
    x_content: Tensor          # (HW, C) attention-aggregated values
    attn_context: np.ndarray   # (HW, HW) mean over heads, renormalized row-stochastic
    attn_full: np.ndarray      # (n, n) mean over heads on the full sequence
    cls_content: Tensor | None = None  # (1, C) content row of the CLS position


@dataclass
class DenseFeatures:
    tokens: Tensor             # (HW, C') per-image dense features, projected when configured
    cls: Tensor                # (C',) summary vector
    grid: tuple
    decoupled: DecoupledOutput | None = None

    def dense(self):
        """(C', H, W) view of tokens as a graph-tracked feature map."""
        return T.tokens_to_chw(self.tokens, *self.grid)

    def dense_array(self):
        h, w = self.grid
        return np.ascontiguousarray(self.tokens.data.T.reshape(-1, h, w))


def layer_norm_rows(x, scale, offset, eps=LN_EPS):
    c = x.shape[1]
    mu = T.mul_scalar(T.sum_rows(x), 1.0 / c)
    centered = T.sub(x, mu)
    var = T.mul_scalar(T.sum_rows(T.mul(centered, centered)), 1.0 / c)
    normed = T.div(centered, T.sqrt(T.add_scalar(var, eps)))
    return T.add(T.mul(normed, scale), offset)


def _as_image(image):
    arr = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"expected a 3xRxR image, got {arr.shape}")
    return arr


def patchify(image, patch):
    """(3,R,R) -> (h*w, 3*p*p), patches row-major, channel-major within."""
    c, r, _ = image.shape
    side = r // patch
    blocks = image.reshape(c, side, patch, side, patch)
    return np.ascontiguousarray(blocks.transpose(1, 3, 0, 2, 4).reshape(side * side, c * patch * patch))


def patch_embed(image, params):
    """Tokenize: normalize pixels, embed patches, prepend CLS, add positions."""
    arr = _as_image(image)
    if arr.shape[1] % params.patch_size != 0:
        raise ShapeError(
            f"resolution {arr.shape[1]} not divisible by patch {params.patch_size}")
    arr = (arr - params.pixel_mean) / params.pixel_std
    patches = Tensor(patchify(arr, params.patch_size), dtype=params.dtype)
    if patches.shape[0] + 1 != params.pos_embed.shape[0]:
        raise ShapeError(
            f"image yields {patches.shape[0]} tokens but positional table has "
            f"{params.pos_embed.shape[0] - 1}")
    tokens = T.add(T.matmul(patches, params.w_patch), params.b_patch)
    seq = T.concat_rows([params.cls_token, tokens])
    return T.add(seq, params.pos_embed)


def _multi_head(q, k, v, heads, capture=None):
    attn = T.softmax_rows(T.head_scores(q, k, heads))
    if capture is not None:
        capture.extend(attn.data.reshape(heads, q.shape[0], k.shape[0]))
    return T.head_mix(attn, v, heads)


def attention_block(x, params, layer, capture=None, queries=None):
    """Standard block: pre-norm attention with residual, pre-norm FFN with residual.

    With ``queries`` set, only the first ``queries`` rows are computed (their
    queries, residual and FFN) while keys and values span every row."""
    b = params.blocks[layer]
    h = layer_norm_rows(x, b.ln1_s, b.ln1_o)
    if queries is not None:
        x, hq = T.slice_rows(x, 0, queries), T.slice_rows(h, 0, queries)
    else:
        hq = h
    q = T.add(T.matmul(hq, b.wq), b.bq)
    k = T.add(T.matmul(h, b.wk), b.bk)
    v = T.add(T.matmul(h, b.wv), b.bv)
    y = T.add(x, T.add(T.matmul(_multi_head(q, k, v, params.heads, capture), b.wo), b.bo))
    h2 = layer_norm_rows(y, b.ln2_s, b.ln2_o)
    ffn = T.add(T.matmul(T.gelu(T.add(T.matmul(h2, b.w1), b.b1)), b.w2), b.b2)
    return T.add(y, ffn)


def decoupled_block(x, params, has_cls=True):
    """Final-block decoupling: context = query projection, content = values
    aggregated by the context self-attention. No residual, no FFN.

    The full sequence (CLS included when present) attends; CLS is dropped
    from the exported streams, and the exported attn_context is the
    image-token block renormalized to row-stochastic.
    """
    if params.frozen:
        raise ModeError("decoupled forward is a student-only path; teacher stays standard")
    b = params.blocks[-1]
    h = layer_norm_rows(x, b.ln1_s, b.ln1_o)
    xc = T.add(T.matmul(h, b.wq), b.bq)
    v = T.add(T.matmul(h, b.wv), b.bv)
    heads_attn = []
    agg = _multi_head(xc, xc, v, params.heads, capture=heads_attn)
    content = T.add(T.matmul(agg, b.wo), b.bo)
    attn_full = np.mean(heads_attn, axis=0)
    if has_cls:
        if x.shape[0] < 2:
            raise ShapeError("sequence with CLS needs at least 2 rows")
        x_context = T.slice_rows(xc, 1, xc.shape[0])
        x_content = T.slice_rows(content, 1, content.shape[0])
        cls_content = T.slice_rows(content, 0, 1)
        block = attn_full[1:, 1:]
        attn_context = block / block.sum(axis=1, keepdims=True)
    else:
        x_context, x_content, cls_content = xc, content, None
        attn_context = attn_full
    return DecoupledOutput(x_context=x_context, x_content=x_content,
                           attn_context=attn_context, attn_full=attn_full,
                           cls_content=cls_content)


def encode_dense(image, params, mode="standard", activations=None):
    """Dense per-image features: depth-1 standard blocks then the final block
    per mode. Tokens pass through the V-L projection when configured; in
    decoupled mode the projected stream is the content one, while the raw
    context/content block outputs ride along on ``decoupled``.

    ``activations``, when a dict, captures each stage's output array."""
    if mode not in ("standard", "decoupled"):
        raise ParameterError(f"unknown mode {mode!r}")
    seq = patch_embed(image, params)
    if activations is not None:
        activations["embed"] = seq.data
    for layer in range(params.depth - 1):
        seq = attention_block(seq, params, layer)
        if activations is not None:
            activations[f"block{layer}"] = seq.data
    side = params.grid_side
    if mode == "standard":
        z = attention_block(seq, params, params.depth - 1)
        tokens = T.slice_rows(z, 1, z.shape[0])
        cls = T.slice_rows(z, 0, 1)
        dec = None
        if activations is not None:
            activations["final"] = z.data
    else:
        dec = decoupled_block(seq, params)
        tokens = dec.x_content
        cls = dec.cls_content
        if activations is not None:
            activations["final"] = dec.x_content.data
    if params.w_vl is not None:
        tokens = T.matmul(tokens, params.w_vl)
        cls = T.matmul(cls, params.w_vl)
    return DenseFeatures(tokens=tokens, cls=T.reshape(cls, (cls.shape[1],)),
                         grid=(side, side), decoupled=dec)


def encode_cls(image, params):
    """Summary vector: CLS row after the final standard block, projected.
    No other row of the final block is read, so it computes the CLS row only."""
    seq = patch_embed(image, params)
    for layer in range(params.depth - 1):
        seq = attention_block(seq, params, layer)
    cls = attention_block(seq, params, params.depth - 1, queries=1)
    if params.w_vl is not None:
        cls = T.matmul(cls, params.w_vl)
    return T.reshape(cls, (cls.shape[1],))


def capture_attention(image, params, layer):
    """Per-head attention map of one block: (1+HW, 1+HW, heads)."""
    if not 0 <= layer < params.depth:
        raise ParameterError(f"layer {layer} outside [0, {params.depth})")
    seq = patch_embed(image, params)
    for i in range(layer):
        seq = attention_block(seq, params, i)
    capture = []
    attention_block(seq, params, layer, capture=capture)
    return np.ascontiguousarray(np.stack(capture, axis=-1))
