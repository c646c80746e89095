"""Dense tensors with reverse-mode differentiation.

Values are numpy arrays (float32 or float64, row-major). The computation
graph is a graph of records kept apart from the values: an op result that
needs a gradient gets a record holding its parents' records and its
gradient rule, never its own array, and a requires-grad leaf is its own
record. A rule captures only the arrays and shapes it reads, never a
``Tensor``, so an intermediate value is freed as soon as nothing outside
the graph holds it. ``backward`` topologically sorts the records reachable
from a scalar root and accumulates gradients into the leaves that require
them.

Broadcasting is deliberately restricted: elementwise binary ops accept
equal shapes, or a 2-D operand against a matching (r,1) row-scalar /
(1,c) column-vector. Anything else is a ShapeError. Any operation whose
result contains NaN/Inf raises EvaluationError instead of returning it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateInputError,
    DistributionError,
    EvaluationError,
    ParameterError,
    ShapeError,
)

_DTYPES = (np.float32, np.float64)

KL_EPS = 1e-8  # lower clamp on the second KL argument before the log
ROW_SUM_TOL = 1e-6  # how far a row-stochastic input's row sums may stray from 1


class Tensor:
    """A dense n-d array with an optional gradient slot.

    ``grad`` is populated by ``backward`` only for leaf tensors (no
    parents) with ``requires_grad`` set; repeated backward calls
    accumulate, matching gradient-accumulation training semantics.
    An op result that needs a gradient holds its graph record in ``_node``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _DTYPES:
            arr = arr.astype(np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise EvaluationError("tensor created with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def _parents(self):
        """The parent records of this tensor's graph record; () for a leaf."""
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        """The gradient rule of this tensor's graph record; None when
        ``from_op`` kept no record."""
        return None if self._node is None else self._node._backward

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _int(v):
    """Whether v is an int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _finite(data):
    # the array method skips np.all's Python-level dispatch, which dominates
    # on the small arrays of most calls
    if not np.isfinite(data).all():
        raise EvaluationError("operation produced non-finite values")
    return data


class _Record:
    """The graph record of an op result: its parents' records, aligned with
    the op's operands, and its gradient rule. It holds no value."""

    __slots__ = ("_parents", "_backward")
    requires_grad = True

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


class _NoGrad:
    """Stands in for every operand that needed no gradient when its op ran,
    so such an operand is not held by the graph."""

    __slots__ = ()
    requires_grad = False
    _parents = ()
    _backward = None


_NO_GRAD = _NoGrad()


def _record_of(t):
    """The graph node of a tensor: its record, or the tensor itself when it
    is a leaf."""
    return t if t._node is None else t._node


def from_op(data, parents, backward):
    """Wrap an op result, keeping a graph record only when a parent needs grad.

    ``backward`` maps the output gradient to a list of parent gradients
    aligned with ``parents`` (None for no contribution); it must capture
    arrays and shapes, never a ``Tensor``. No record is kept when no parent
    requires grad, so teacher-side forwards stay graph-free.
    """
    out = Tensor.__new__(Tensor)
    out.data = _finite(data)
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Record(tuple([_record_of(p) if p.requires_grad else _NO_GRAD
                                   for p in parents]), backward)
    else:
        out.requires_grad = False
        out._node = None
    return out


def _check_same_dtype(a, b):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"mixed dtypes {a.data.dtype} vs {b.data.dtype}")


# ---------------------------------------------------------------------------
# graph traversal and backward
# ---------------------------------------------------------------------------


def trace(root):
    """Deterministic topological order of the graph below the tensor ``root``.

    Parents appear before consumers; every reachable node exactly once. A
    node is a graph record, or a leaf tensor standing as its own record.
    """
    order = []
    visited = set()
    stack = [(_record_of(root), False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in reversed(node._parents):
            if p not in visited:
                stack.append((p, False))
    return order


def backward(root):
    """Reverse-mode sweep from a scalar root over the graph of records.

    Accumulates into ``grad`` of every leaf reachable from ``root`` whose
    ``requires_grad`` is set when backward runs. Records are keyed by
    identity; operands that needed no gradient when their op ran were never
    recorded. The graph is left intact, so a second call accumulates again.
    Deterministic: same graph, same gradients, bit for bit.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        return
    grads = {_record_of(root): np.ones_like(root.data)}
    for node in reversed(trace(root)):
        g = grads.pop(node, None)
        if g is None:
            continue
        if not node._parents:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            held = grads.get(parent)
            grads[parent] = pg if held is None else held + pg


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


def _binary(a, b, fwd, rule):
    """Record an elementwise op. ``rule(x, y)`` builds the gradient rule
    g -> (ga, gb) from the operand arrays, before unbroadcasting; it
    closes over only the arrays it reads."""
    _check_same_dtype(a, b)
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")
    x, y = a.data, b.data
    grads, sa, sb = rule(x, y), a.shape, b.shape

    def back(g):
        ga, gb = grads(g)
        return _unbroadcast(ga, sa), _unbroadcast(gb, sb)

    return from_op(fwd(x, y), (a, b), back)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda x, y: lambda g: (g, g))


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda x, y: lambda g: (g, -g))


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda x, y: lambda g: (g * y, g * x))


def div(a, b):
    def fwd(x, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return x / y

    return _binary(a, b, fwd, lambda x, y: lambda g: (g / y, -g * x / (y * y)))


def add_scalar(a, s):
    s = a.data.dtype.type(s)
    return from_op(a.data + s, (a,), lambda g: (g,))


def mul_scalar(a, s):
    s = a.data.dtype.type(s)
    return from_op(a.data * s, (a,), lambda g: (g * s,))


def sqrt(a):
    out = np.sqrt(a.data)
    return from_op(out, (a,), lambda g: (g * (0.5 / out),))


# Cephes ndtr.c erf/erfc, the algorithm scipy.special.erf runs. The |x| <= 1
# coefficients are 0-d arrays: numpy adds one to an array sooner than a float.
_ERF_T = tuple(np.array(c) for c in (
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4))
_ERF_U = tuple(np.array(c) for c in (   # leading coefficient 1 left implicit
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4))
# erfc's exp(-a^2) P(a)/Q(a) below 8 and R(a)/S(a) from 8, one (numerator,
# denominator) column per Horner step. Leading zeros pad R and S to 9 steps
# and Q and S carry their implicit leading 1; 0*a + c and 1*a + c round as c
# and a + c, so each column evaluates as Cephes' polevl/p1evl does.
_ERFC_PQ = np.array([
    (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
    (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2)]).T
_ERFC_RS = np.array([
    (0.0, 0.0, 0.0, 5.64189583547755073984E-1, 1.27536670759978104416E0,
     5.01905042251180477414E0, 6.16021097993053585195E0, 7.40974269950448939160E0,
     2.97886665372100240670E0),
    (0.0, 0.0, 1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
     1.20489539808096656605E1, 1.70814450747565897222E1, 9.60896809063285878198E0,
     3.36907645100081516050E0)]).T
_MAXLOG = 7.09782712893383996843E2   # erfc(a) is 0 once a^2 exceeds it
_ERF_BLOCK = 16384   # elements per block, so its polynomial buffers stay in cache


def _horner(acc, z, coefs):
    """Cephes' Horner steps in place: acc = acc * z + c for each c in turn."""
    for c in coefs:
        acc *= z
        acc += c
    return acc


def _erfc_tail(a):
    """erfc of a float64 array of values > 1, as Cephes computes it.

    exp(-a^2) is the C library's (``math.exp``), the one Cephes calls;
    numpy's vectorised exp rounds some of these inputs differently."""
    with np.errstate(over="ignore"):
        z = a * a
    under = z > _MAXLOG
    e = np.array([math.exp(-v) for v in z.tolist()])
    a = np.where(under, 1.0, a)  # finite, so no inf * 0 where the result is 0 anyway
    coefs = np.where(a < 8.0, _ERFC_PQ[:, :, None], _ERFC_RS[:, :, None])
    pq = _horner(coefs[0].copy(), a, coefs[1:])
    y = e * pq[0]
    y /= pq[1]
    y[under] = 0.0
    return y


def _erf(x, out=None):
    """Error function of a float32 or float64 array, bitwise equal to
    ``scipy.special.erf``: a port of Cephes ``ndtr.c``, computed in float64
    and written to the C- or F-contiguous array ``out`` (None allocates;
    ``x``'s own array works in place).

    |x| <= 1 takes x * T(x^2) / U(x^2) and |x| > 1 takes +-(1 - erfc(|x|)),
    each Horner step in Cephes' order, so every rounding matches the C code.
    x^2 <= 1 exactly when |x| <= 1, so one max per block finds the rare
    |x| > 1 elements, which erfc then overwrites. A NaN fails that test as
    well and comes out as a positive quiet NaN, as Cephes returns it."""
    x = np.asarray(x)
    if out is None:
        out = np.empty_like(x)
    # both in memory order, so flat[i] and dest[i] are one element
    flat, dest = x.ravel(order="K"), out.ravel(order="K")
    n = flat.size
    z, t, u = np.empty((3, min(n, _ERF_BLOCK)))
    for lo in range(0, n, _ERF_BLOCK):
        xb = flat[lo:lo + _ERF_BLOCK]
        m = xb.size
        zb, tb, ub = z[:m], t[:m], u[:m]
        np.multiply(xb, xb, out=zb, dtype=np.float64)
        big = None
        if not np.maximum.reduce(zb) <= 1.0:
            big = np.flatnonzero(zb > 1.0)
            xs = xb[big].astype(np.float64)
            np.minimum(zb, 1.0, out=zb)  # keeps the values erfc overwrites finite
        np.multiply(zb, _ERF_T[0], out=tb)
        tb += _ERF_T[1]
        _horner(tb, zb, _ERF_T[2:])
        np.add(zb, _ERF_U[0], out=ub)
        _horner(ub, zb, _ERF_U[1:])
        np.multiply(xb, tb, out=tb)
        ob = dest[lo:lo + m]
        np.divide(tb, ub, out=ob)
        if big is not None:
            ob[big] = np.copysign(1.0 - _erfc_tail(np.abs(xs)), xs)
            ob[np.isnan(ob)] = np.nan
    return out


def _gelu_cdf(x):
    """Standard normal CDF, the gate of the exact GELU x * cdf(x)."""
    cdf = x / math.sqrt(2.0)
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(a):
    """Exact (erf-form) GELU."""
    x = a.data
    cdf = _gelu_cdf(x)
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

    x, y = a.data, b.data

    def back(g):
        return (g @ y.T, x.T @ g)

    return from_op(x @ y, (a, b), back)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return from_op(np.ascontiguousarray(a.data.T), (a,), lambda g: (np.ascontiguousarray(g.T),))


def sum_all(a):
    shape, dtype = a.shape, a.data.dtype
    return from_op(
        np.asarray(a.data.sum(), dtype=dtype),
        (a,),
        lambda g: (np.broadcast_to(g, shape).astype(dtype, copy=True),),
    )


def sum_rows(a):
    """Row sums of a 2-D tensor as an (r,1) column."""
    if a.data.ndim != 2:
        raise ShapeError("sum_rows needs a 2-D tensor")
    shape, dtype = a.shape, a.data.dtype
    return from_op(
        a.data.sum(axis=1, keepdims=True),
        (a,),
        lambda g: (np.broadcast_to(g, shape).astype(dtype, copy=True),),
    )


def concat_rows(parts):
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    cols = parts[0].shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.shape[1] != cols:
            raise ShapeError("concat_rows parts must be 2-D with equal column counts")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        return tuple(g[start:stop] for start, stop in zip(offsets[:-1], offsets[1:]))

    return from_op(np.concatenate([p.data for p in parts], axis=0), tuple(parts), back)


def slice_rows(a, start, stop):
    if a.data.ndim != 2:
        raise ShapeError("slice_rows needs a 2-D tensor")
    if not (0 <= start < stop <= a.shape[0]):
        raise ShapeError(f"row slice [{start}:{stop}] out of range for {a.shape}")

    shape, dtype = a.shape, a.data.dtype

    def back(g):
        full = np.zeros(shape, dtype)
        full[start:stop] = g
        return (full,)

    return from_op(a.data[start:stop].copy(), (a,), back)


def slice_cols(a, start, stop):
    """Columns [start, stop) of a 2-D tensor, as a contiguous copy."""
    if a.data.ndim != 2:
        raise ShapeError("slice_cols needs a 2-D tensor")
    if not (0 <= start < stop <= a.shape[1]):
        raise ShapeError(f"column slice [{start}:{stop}] out of range for {a.shape}")

    shape, dtype = a.shape, a.data.dtype

    def back(g):
        full = np.zeros(shape, dtype)
        full[:, start:stop] = g
        return (full,)

    return from_op(np.ascontiguousarray(a.data[:, start:stop]), (a,), back)


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


def _softmax(x, row_max, out):
    """exp(x - row_max) normalised per row, written to ``out`` (None
    allocates; ``x`` itself works in place)."""
    out = np.subtract(x, row_max, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _softmax_rows(x, temperature, out=None):
    """Array kernel of softmax_rows: the row softmax of the 2-D array x /
    temperature, written to ``out`` (None allocates; ``x`` itself works in
    place). At any temperature but 1, x / temperature is written to
    ``out`` first."""
    if not _is_number(temperature) or not temperature > 0:  # NaN fails > too
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if x.ndim != 2:
        raise ShapeError("softmax_rows needs a 2-D tensor")
    tau = x.dtype.type(temperature)
    if tau != 1:
        x = out = np.divide(x, tau, out=out)
    return _softmax(x, x.max(axis=1, keepdims=True), out)


def _softmax_back(g, p, out=None):
    """Gradient wrt the logits of the row softmax p, given the gradient g
    wrt p: p * (g - rowsum(g * p)), written to ``out`` (None allocates;
    ``g`` itself works in place)."""
    dx = np.subtract(g, np.einsum("ij,ij->i", g, p)[:, None], out=out)
    dx *= p
    return dx


def softmax_rows(x, temperature=1.0, out=None):
    """Row softmax at the given temperature, with per-row max subtraction,
    written to the array ``out`` (None allocates; ``x``'s own array works in
    place when nothing else reads it)."""
    out = _softmax_rows(x.data, temperature, out)
    tau = x.data.dtype.type(temperature)

    def back(g):
        dx = _softmax_back(g, out)
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
    if not _int(heads) or heads < 1:
        raise ParameterError(f"heads must be a positive int, got {heads}")
    _check_same_dtype(a, b)


def _head_scale(q, heads):
    """The 1/sqrt(d) score scale of ``heads`` heads over q's width, in q's dtype."""
    return q.dtype.type(1.0 / math.sqrt(q.shape[1] // heads))


def _head_scores(qs, k, heads, out=None):
    """Array kernel of head_scores: the (heads*m, n) maps of already scaled
    (m, c) queries against (n, c) keys, written to ``out`` (None allocates)."""
    m, n = qs.shape[0], k.shape[0]
    if out is None:
        out = np.empty((heads * m, n), qs.dtype)
    np.matmul(_split_heads(qs, heads), _split_heads(k, heads).transpose(0, 2, 1),
              out=out.reshape(heads, m, n))
    return out


def head_scores(q, k, heads, out=None):
    """Scaled per-head scores q_h k_h^T / sqrt(d) of (m, c) queries against
    (n, c) keys, each split into ``heads`` column blocks of width d. Head h
    fills rows [h*m, (h+1)*m) of the (heads*m, n) result, so one row
    softmax normalizes every head. The scale is applied to the queries,
    not to the score map. The result is written to the array ``out`` (None
    allocates)."""
    _check_heads(q, k, heads, "head_scores")
    c = q.shape[1]
    if k.shape[1] != c or c % heads != 0:
        raise ShapeError(f"head_scores needs equal widths divisible by {heads} heads, "
                         f"got {q.shape} and {k.shape}")
    qs, kd = q.data * _head_scale(q.data, heads), k.data
    return from_op(_head_scores(qs, kd, heads, out), (q, k),
                   lambda g: _head_scores_back(g, qs, kd, heads))


def _head_scores_back(g, qs, k, heads):
    """Gradients of head_scores wrt its (m, c) queries and (n, c) keys,
    given the gradient g wrt its (heads*m, n) maps and the scaled queries."""
    gh = g.reshape(heads, qs.shape[0], k.shape[0])
    dq = _merge_heads(gh @ _split_heads(k, heads))
    dq *= _head_scale(qs, heads)
    # (q_h^T g_h)^T: BLAS is slower with the (m, n) map as the transposed left operand
    return dq, _merge_heads((_split_heads(qs, heads).transpose(0, 2, 1) @ gh).transpose(0, 2, 1))


def _head_mix(p, v, heads):
    """Array kernel of head_mix: (heads*m, n) maps times (n, c) values, per head."""
    hm, n = p.shape
    return _merge_heads(p.reshape(heads, hm // heads, n) @ _split_heads(v, heads))


def head_mix(p, v, heads):
    """Per-head mixing P_h V_h of a (heads*m, n) row-block stack of maps
    with (n, c) values split into ``heads`` column blocks; head h's result
    fills column block h of the (m, c) output."""
    _check_heads(p, v, heads, "head_mix")
    hm, n = p.shape
    if v.shape[0] != n or hm % heads != 0 or v.shape[1] % heads != 0:
        raise ShapeError(f"head_mix needs ({heads}*m, n) maps and (n, c) values with c "
                         f"divisible by {heads}, got {p.shape} and {v.shape}")
    pd, vd = p.data, v.data
    return from_op(_head_mix(pd, vd, heads), (p, v), lambda g: _head_mix_back(g, pd, vd, heads))


def _head_mix_back(g, p, v, heads, out=None):
    """Gradients of head_mix wrt its (heads*m, n) maps, written to ``out``
    (None allocates), and wrt its (n, c) values, given the (m, c) output
    gradient g."""
    hm, n = p.shape
    if out is None:
        out = np.empty((hm, n), g.dtype)
    gh = _split_heads(g, heads)
    np.matmul(gh, _split_heads(v, heads).transpose(0, 2, 1), out=out.reshape(heads, hm // heads, n))
    return out, _merge_heads((gh.transpose(0, 2, 1) @ p.reshape(heads, hm // heads, n))
                             .transpose(0, 2, 1))


def _unit_rows_back(gn, n, norm):
    """Gradient wrt x of the rows n = x / |x|, given the gradient gn wrt n:
    (gn - n * rowsum(gn * n)) / |x|."""
    return (gn - n * np.einsum("ij,ij->i", gn, n)[:, None]) / norm


def _unit_rows(x, what):
    """Array kernel of cosine_matrix: x's rows scaled to unit length, and their
    norms; a zero row of ``what`` raises, and so does a squared norm that is
    not finite (a NaN, or an overflow: an infinite norm, a zero cosine)."""
    with np.errstate(over="ignore"):
        sq = (x * x).sum(axis=1, keepdims=True)
    if (sq == 0.0).any():
        raise DegenerateInputError(f"zero-norm row in {what}")
    if not np.isfinite(sq).all():
        raise EvaluationError(f"non-finite squared row norm in {what}")
    norm = np.sqrt(sq)
    return x / norm, norm


def cosine_matrix(a, b):
    """Pairwise cosines between the rows of two matrices sharing a feature dim.

    One op: rows are scaled to unit length, then multiplied, with the
    arithmetic of div(x, sqrt(sum_rows(mul(x, x)))) and matmul(na,
    transpose(nb)); ``a is b`` (a self-similarity) sums both sides'
    gradients before the shared norm backward."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_matrix needs (p,d) and (q,d), got {a.shape} and {b.shape}")
    _check_same_dtype(a, b)
    sides = (a,) if a is b else (a, b)
    units = [_unit_rows(t.data, f"{side} argument") for t, side in zip(sides, ("first", "second"))]
    (na, norm_a), (nb, norm_b) = units[0], units[-1]
    shared = a is b

    def back(g):
        ga, gb = g @ nb, g.T @ na
        if shared:
            return (_unit_rows_back(ga + gb, na, norm_a),)
        return (_unit_rows_back(ga, na, norm_a), _unit_rows_back(gb, nb, norm_b))

    return from_op(na @ np.ascontiguousarray(nb.T), sides, back)


def kl_rows(p, q):
    """Mean-over-rows KL divergence of a row-stochastic target array ``p``
    from a row-stochastic tensor ``q``; only ``q`` is differentiated.

    (1/r) * sum_ij p_ij * (log p_ij - log max(q_ij, KL_EPS)), with
    0*log 0 := 0. Both inputs must be row-stochastic within ROW_SUM_TOL.
    """
    qd = q.data
    if p.shape != qd.shape or p.ndim != 2:
        raise ShapeError(f"kl_rows needs equal 2-D shapes, got {p.shape} and {qd.shape}")
    if p.dtype != qd.dtype:
        raise ShapeError(f"mixed dtypes {p.dtype} vs {qd.dtype}")
    # stated as what must hold, so that a NaN, which fails every comparison,
    # fails them too
    for x, side in ((p, "first"), (qd, "second")):
        if not (x >= 0).all():
            raise DistributionError(f"negative or NaN entries in {side} argument")
        if not np.abs(x.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL:
            raise DistributionError(f"rows of {side} argument do not sum to 1")
    r = p.shape[0]
    pos = p > 0
    # log max(q, eps), then log p minus it, then times p; backward keeps neither
    terms = np.maximum(qd, KL_EPS)
    np.log(terms, out=terms)
    np.subtract(np.log(p, where=pos, out=np.zeros_like(p)), terms, out=terms)
    terms *= p
    terms[~pos] = 0.0
    out = np.asarray(terms.sum() / r, dtype=p.dtype)

    def back(g):
        gs = g / r
        # one (r, c) working array, updated in place
        dq = np.negative(p)
        dq /= np.maximum(qd, KL_EPS)
        dq[~(qd > KL_EPS)] = 0.0
        dq *= gs
        return (dq,)

    return from_op(out, (q,), back)
