"""Dense tensors with reverse-mode differentiation.

Values are numpy arrays (float32 or float64, row-major). Every operation
records its parents and a gradient rule on the output tensor, so the
computation graph is the set of parent links; ``backward`` topologically
sorts the graph reachable from a scalar root and accumulates gradients
into the leaves that require them.

Broadcasting is deliberately restricted: elementwise binary ops accept
equal shapes, or a 2-D operand against a matching (r,1) row-scalar /
(1,c) column-vector. Anything else is a ShapeError. Any operation whose
result contains NaN/Inf raises EvaluationError instead of returning it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import (
    DegenerateInputError,
    DistributionError,
    EvaluationError,
    ParameterError,
    ShapeError,
)

_DTYPES = (np.float32, np.float64)

KL_EPS = 1e-8  # lower clamp on the second KL argument before the log


class Tensor:
    """A dense n-d array with an optional gradient slot.

    ``grad`` is populated by ``backward`` only for leaf tensors (no
    parents) with ``requires_grad`` set; repeated backward calls
    accumulate, matching gradient-accumulation training semantics.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            if np.dtype(dtype) not in _DTYPES:
                raise ParameterError(f"tensor dtype must be float32 or float64, got {dtype}")
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _DTYPES:
            arr = arr.astype(np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.all(np.isfinite(arr)):
            raise EvaluationError("tensor created with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self):
        return transpose(self)

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _fail_scalar(self)

    def detach(self):
        """A leaf view of the same values, cut off from the graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
        return out

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars go through the *_scalar ops
    def __add__(self, other):
        return add_scalar(self, other) if _is_number(other) else add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add_scalar(self, -other) if _is_number(other) else sub(self, other)

    def __rsub__(self, other):
        return add_scalar(neg(self), other)

    def __mul__(self, other):
        return mul_scalar(self, other) if _is_number(other) else mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul_scalar(self, 1.0 / other) if _is_number(other) else div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _fail_scalar(t):
    raise ShapeError(f"item() needs a single-element tensor, got shape {t.shape}")


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def from_op(data, parents, backward):
    """Wrap an op result, keeping the graph only when a parent needs grad.

    ``backward`` maps the output gradient to a list of parent gradients
    aligned with ``parents`` (None for no contribution). It is dropped
    entirely when no parent requires grad, so teacher-side forwards stay
    graph-free.
    """
    if not np.all(np.isfinite(data)):
        raise EvaluationError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _check_same_dtype(a, b):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"mixed dtypes {a.data.dtype} vs {b.data.dtype}")


# ---------------------------------------------------------------------------
# graph traversal and backward
# ---------------------------------------------------------------------------


def trace(root):
    """Deterministic topological order of the graph below ``root``.

    Parents appear before consumers; every reachable node exactly once.
    """
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in reversed(node._parents):
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root):
    """Reverse-mode sweep from a scalar root.

    Accumulates into ``grad`` of every requires_grad leaf reachable from
    ``root``. Deterministic: same graph, same gradients, bit for bit.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
    order = trace(root)
    # needs[n]: some requires_grad leaf sits in n's ancestry (or n is one)
    needs = {}
    for node in order:
        if node._parents:
            needs[id(node)] = any(needs[id(p)] for p in node._parents)
        else:
            needs[id(node)] = node.requires_grad
    if not needs[id(root)]:
        return
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None or not needs[id(node)]:
            continue
        if not node._parents:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not needs[id(parent)]:
                continue
            held = grads.get(id(parent))
            grads[id(parent)] = pg if held is None else held + pg


# ---------------------------------------------------------------------------
# elementwise ops with restricted row/column broadcasting
# ---------------------------------------------------------------------------


def _broadcast_ok(sa, sb):
    # one operand must already have the result shape; the other may have
    # singleton axes (row scalars / column vectors), never an outer product
    if sa == sb:
        return True
    if len(sa) == 2 and len(sb) == 2:
        b_into_a = all(y == x or y == 1 for x, y in zip(sa, sb))
        a_into_b = all(x == y or x == 1 for x, y in zip(sa, sb))
        return b_into_a or a_into_b
    return False


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _binary(a, b, fwd, bwd_a, bwd_b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_dtype(a, b)
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")
    data = fwd(a.data, b.data)

    def back(g):
        return (
            _unbroadcast(bwd_a(g, a.data, b.data), a.shape),
            _unbroadcast(bwd_b(g, a.data, b.data), b.shape),
        )

    return from_op(data, (a, b), back)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    def fwd(x, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return x / y

    return _binary(a, b, fwd, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def neg(a):
    return from_op(-a.data, (a,), lambda g: (-g,))


def add_scalar(a, s):
    s = a.data.dtype.type(s)
    return from_op(a.data + s, (a,), lambda g: (g,))


def mul_scalar(a, s):
    s = a.data.dtype.type(s)
    return from_op(a.data * s, (a,), lambda g: (g * s,))


def exp(a):
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return from_op(out, (a,), lambda g: (g * out,))


def log(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return from_op(out, (a,), lambda g: (g / a.data,))


def sqrt(a):
    out = np.sqrt(a.data)
    return from_op(out, (a,), lambda g: (g * (0.5 / out),))


def gelu(a):
    """Exact (erf-form) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    out = x * cdf

    def back(g):
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return (g * (cdf + x * pdf),)

    return from_op(out, (a,), back)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} x {b.shape}")
    _check_same_dtype(a, b)

    def back(g):
        return (g @ b.data.T, a.data.T @ g)

    return from_op(a.data @ b.data, (a, b), back)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return from_op(np.ascontiguousarray(a.data.T), (a,), lambda g: (np.ascontiguousarray(g.T),))


def reshape(a, shape):
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    return from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def sum_all(a):
    return from_op(
        np.asarray(a.data.sum(), dtype=a.data.dtype),
        (a,),
        lambda g: (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True),),
    )


def mean_all(a):
    n = a.data.size
    return from_op(
        np.asarray(a.data.mean(), dtype=a.data.dtype),
        (a,),
        lambda g: ((np.broadcast_to(g, a.shape) / n).astype(a.data.dtype, copy=False),),
    )


def sum_rows(a):
    """Row sums of a 2-D tensor as an (r,1) column."""
    if a.data.ndim != 2:
        raise ShapeError("sum_rows needs a 2-D tensor")
    return from_op(
        a.data.sum(axis=1, keepdims=True),
        (a,),
        lambda g: (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True),),
    )


def sum_cols(a):
    """Column sums of a 2-D tensor as a (1,c) row."""
    if a.data.ndim != 2:
        raise ShapeError("sum_cols needs a 2-D tensor")
    return from_op(
        a.data.sum(axis=0, keepdims=True),
        (a,),
        lambda g: (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True),),
    )


def concat_rows(parts):
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    cols = parts[0].shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.shape[1] != cols:
            raise ShapeError("concat_rows parts must be 2-D with equal column counts")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return from_op(np.concatenate([p.data for p in parts], axis=0), tuple(parts), back)


def slice_rows(a, start, stop):
    if a.data.ndim != 2:
        raise ShapeError("slice_rows needs a 2-D tensor")
    if not (0 <= start < stop <= a.shape[0]):
        raise ShapeError(f"row slice [{start}:{stop}] out of range for {a.shape}")

    def back(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return from_op(a.data[start:stop].copy(), (a,), back)


def tokens_to_chw(a, h, w):
    """(h*w, c) token matrix -> (c, h, w) feature map; pure data movement."""
    if a.data.ndim != 2 or a.shape[0] != h * w:
        raise ShapeError(f"expected ({h * w}, c) tokens, got {a.shape}")
    c = a.shape[1]

    def back(g):
        return (np.ascontiguousarray(g.reshape(c, h * w).T),)

    return from_op(np.ascontiguousarray(a.data.T.reshape(c, h, w)), (a,), back)


# ---------------------------------------------------------------------------
# normalized-similarity ops
# ---------------------------------------------------------------------------


def softmax_rows(x, temperature=1.0):
    """Row softmax at the given temperature, with per-row max subtraction."""
    if not _is_number(temperature) or temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows needs a 2-D tensor")
    tau = x.data.dtype.type(temperature)
    if tau == 1:
        out = x.data - x.data.max(axis=1, keepdims=True)
    else:
        out = x.data / tau
        out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)

    def back(g):
        # P * (g - rowsum(g * P)) / tau, built in one buffer
        dx = g - np.einsum("ij,ij->i", g, out)[:, None]
        dx *= out
        if tau != 1:
            dx /= tau
        return (dx,)

    return from_op(out, (x,), back)


def _split_heads(a, heads):
    """(r, heads*d) -> (heads, r, d) strided view, one matrix per head."""
    r, c = a.shape
    return a.reshape(r, heads, c // heads).transpose(1, 0, 2)


def _merge_heads(a):
    """(heads, r, d) -> (r, heads*d), heads side by side in column blocks."""
    h, r, d = a.shape
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(r, h * d)


def _check_heads(a, b, heads, name):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{name} needs 2-D operands, got {a.shape} and {b.shape}")
    if not isinstance(heads, int) or heads < 1:
        raise ParameterError(f"heads must be a positive int, got {heads}")
    _check_same_dtype(a, b)


def head_scores(q, k, heads):
    """Scaled per-head scores q_h k_h^T / sqrt(d) of (m, c) queries against
    (n, c) keys, each split into ``heads`` column blocks of width d. Head h
    fills rows [h*m, (h+1)*m) of the (heads*m, n) result, so one row
    softmax normalizes every head. The scale is applied to the queries,
    not to the score map."""
    _check_heads(q, k, heads, "head_scores")
    m, c = q.shape
    if k.shape[1] != c or c % heads != 0:
        raise ShapeError(f"head_scores needs equal widths divisible by {heads} heads, "
                         f"got {q.shape} and {k.shape}")
    scale = q.data.dtype.type(1.0 / math.sqrt(c // heads))
    qs = q.data * scale
    qh, kh = _split_heads(qs, heads), _split_heads(k.data, heads)
    n = k.shape[0]

    def back(g):
        gh = g.reshape(heads, m, n)
        dq = _merge_heads(gh @ kh)
        dq *= scale
        # (q_h^T g_h)^T: BLAS is slower with the (m, n) map as the transposed left operand
        return (dq, _merge_heads((qh.transpose(0, 2, 1) @ gh).transpose(0, 2, 1)))

    return from_op((qh @ kh.transpose(0, 2, 1)).reshape(heads * m, n), (q, k), back)


def head_mix(p, v, heads):
    """Per-head mixing P_h V_h of a (heads*m, n) row-block stack of maps
    with (n, c) values split into ``heads`` column blocks; head h's result
    fills column block h of the (m, c) output."""
    _check_heads(p, v, heads, "head_mix")
    hm, n = p.shape
    if v.shape[0] != n or hm % heads != 0 or v.shape[1] % heads != 0:
        raise ShapeError(f"head_mix needs ({heads}*m, n) maps and (n, c) values with c "
                         f"divisible by {heads}, got {p.shape} and {v.shape}")
    ph, vh = p.data.reshape(heads, hm // heads, n), _split_heads(v.data, heads)

    def back(g):
        gh = _split_heads(g, heads)
        return ((gh @ vh.transpose(0, 2, 1)).reshape(hm, n),
                _merge_heads((gh.transpose(0, 2, 1) @ ph).transpose(0, 2, 1)))

    return from_op(_merge_heads(ph @ vh), (p, v), back)


def cosine_matrix(a, b):
    """Pairwise cosines between the rows of two matrices sharing a feature dim."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_matrix needs (p,d) and (q,d), got {a.shape} and {b.shape}")
    for t, side in ((a, "first"), (b, "second")):
        if (np.einsum("ij,ij->i", t.data, t.data) == 0.0).any():
            raise DegenerateInputError(f"zero-norm row in {side} argument")
    na = div(a, sqrt(sum_rows(mul(a, a))))
    nb = div(b, sqrt(sum_rows(mul(b, b))))
    return matmul(na, transpose(nb))


def kl_rows(p, q):
    """Mean-over-rows KL divergence between row-stochastic matrices.

    (1/r) * sum_ij p_ij * (log p_ij - log max(q_ij, KL_EPS)), with
    0*log 0 := 0. Both inputs must be row-stochastic within 1e-6.
    """
    p, q = _as_tensor(p), _as_tensor(q)
    if p.shape != q.shape or p.data.ndim != 2:
        raise ShapeError(f"kl_rows needs equal 2-D shapes, got {p.shape} and {q.shape}")
    _check_same_dtype(p, q)
    for t, side in ((p, "first"), (q, "second")):
        if (t.data < 0).any():
            raise DistributionError(f"negative entries in {side} argument")
        if np.abs(t.data.sum(axis=1) - 1.0).max() > 1e-6:
            raise DistributionError(f"rows of {side} argument do not sum to 1")
    r = p.shape[0]
    qc = np.maximum(q.data, KL_EPS)
    pos = p.data > 0
    terms = np.zeros_like(p.data)
    np.log(p.data, out=terms, where=pos)
    terms -= np.log(qc)
    terms *= p.data
    terms[~pos] = 0.0
    out = np.asarray(terms.sum() / r, dtype=p.data.dtype)

    def back(g):
        gs = g / r
        dp = np.zeros_like(p.data)
        np.log(p.data, out=dp, where=pos)
        dp += 1.0 - np.log(qc)
        dp[~pos] = 0.0
        dq = np.where(q.data > KL_EPS, -p.data / qc, 0.0)
        return (gs * dp, gs * dq)

    return from_op(out, (p, q), back)
