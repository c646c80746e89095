"""Core engine tests: op semantics against scalar-loop oracles, backward."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedistill import gradcheck, vit
from densedistill import tensor as T
from densedistill.errors import (
    DegenerateInputError,
    DistributionError,
    EvaluationError,
    ParameterError,
    ShapeError,
)
from densedistill.regions import CropBox, roi_align


# --- independent scalar oracles -------------------------------------------

def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def cosine_oracle(a, b):
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            dot = sum(float(a[i, t]) * float(b[j, t]) for t in range(a.shape[1]))
            na = math.sqrt(sum(float(x) ** 2 for x in a[i]))
            nb = math.sqrt(sum(float(x) ** 2 for x in b[j]))
            out[i, j] = dot / (na * nb)
    return out


def kl_oracle(p, q):
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0:
                total += p[i, j] * (math.log(p[i, j]) - math.log(max(q[i, j], 1e-8)))
    return total / p.shape[0]


def stochastic(rng, r, c):
    m = rng.uniform(0.05, 1.0, size=(r, c))
    return m / m.sum(axis=1, keepdims=True)


# --- matmul ----------------------------------------------------------------

def test_matmul_identity():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(T.Tensor(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_permutation():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    p = T.Tensor([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(T.matmul(a, p).data, p.data)


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.abs(got - matmul_oracle(a, b)).max() < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


# --- softmax ----------------------------------------------------------------

def test_softmax_symmetry():
    out = T.softmax_rows(T.Tensor([[0.0, 0.0, 0.0]]), temperature=1.0)
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_closed_form():
    out = T.softmax_rows(T.Tensor([[math.log(2.0), 0.0]]), temperature=1.0)
    np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    out = T.softmax_rows(T.Tensor(rng.standard_normal((5, 7)) * 5.0))
    sums = [sum(float(v) for v in row) for row in out.data]
    assert max(abs(s - 1.0) for s in sums) < 1e-9


def test_softmax_bad_temperature():
    with pytest.raises(ParameterError):
        T.softmax_rows(T.Tensor([[1.0, 2.0]]), temperature=0.0)


def test_softmax_refuses_a_nan_temperature():
    with pytest.raises(ParameterError, match="temperature must be > 0"):
        T.softmax_rows(T.Tensor([[1.0, 2.0]]), temperature=float("nan"))
    with pytest.raises(ParameterError, match="temperature must be > 0"):
        T._softmax_rows(np.array([[1.0, 2.0]]), float("nan"))


@settings(deadline=None, max_examples=50, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 9))
def test_softmax_rows_stochastic_property(seed, r, c):
    rng = np.random.default_rng(seed)
    out = T.softmax_rows(T.Tensor(rng.standard_normal((r, c)) * 20.0))
    assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-9
    assert (out.data >= 0).all()


# --- head-batched attention ops ---------------------------------------------

def test_head_ops_match_per_head_loop():
    rng = np.random.default_rng(3)
    heads, d, m, n = 3, 2, 2, 4
    q, k, v = (rng.standard_normal(s) for s in ((m, heads * d), (n, heads * d), (n, heads * d)))
    p = rng.standard_normal((heads * m, n))
    scores = T.head_scores(T.Tensor(q), T.Tensor(k), heads).data
    mixed = T.head_mix(T.Tensor(p), T.Tensor(v), heads).data
    assert scores.shape == (heads * m, n) and mixed.shape == (m, heads * d)
    for h in range(heads):
        rows, cols = slice(h * m, (h + 1) * m), slice(h * d, (h + 1) * d)
        want = matmul_oracle(q[:, cols], k[:, cols].T) / math.sqrt(d)
        assert np.abs(scores[rows] - want).max() < 1e-12
        assert np.abs(mixed[:, cols] - matmul_oracle(p[rows], v[:, cols])).max() < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("m", [7, 1], ids=["m=n", "cls-only"])
@pytest.mark.parametrize("heads", [1, 4], ids=["one-head", "all-heads"])
def test_head_scores_kernel_writes_its_workspace_bitwise(dtype, m, heads):
    # m = 1 is the CLS-only query row of the final frozen block
    rng = np.random.default_rng(31)
    n, width = 7, 8
    k = rng.standard_normal((n, width)).astype(dtype)
    qs = k[:m] * T._head_scale(k, heads)
    want = T._head_scores(qs, k, heads)
    buf = np.full((heads * m, n), np.nan, dtype)
    got = T._head_scores(qs, k, heads, out=buf)
    assert np.shares_memory(got, buf)
    assert got.shape == want.shape and got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    # and to the batched product that allocates its own result
    stacked = T._split_heads(qs, heads) @ T._split_heads(k, heads).transpose(0, 2, 1)
    assert want.tobytes() == stacked.reshape(heads * m, n).tobytes()


def test_head_ops_reject_bad_shapes():
    a = T.Tensor(np.ones((2, 6)))
    with pytest.raises(ShapeError):
        T.head_scores(a, T.Tensor(np.ones((3, 4))), 2)
    with pytest.raises(ShapeError):
        T.head_scores(a, a, 4)
    with pytest.raises(ParameterError):
        T.head_scores(a, a, 0)
    with pytest.raises(ShapeError):
        T.head_mix(T.Tensor(np.ones((3, 2))), a, 2)
    with pytest.raises(ShapeError):
        T.head_mix(T.Tensor(np.ones((4, 3))), a, 2)


# --- cosine_matrix -----------------------------------------------------------

def test_cosine_self():
    out = T.cosine_matrix(T.Tensor([[1.0, 0.0]]), T.Tensor([[1.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1.0]], atol=1e-15)


def test_cosine_orthogonal():
    out = T.cosine_matrix(T.Tensor([[1.0, 0.0]]), T.Tensor([[0.0, 1.0]]))
    np.testing.assert_allclose(out.data, [[0.0]], atol=1e-15)


def test_cosine_matches_pair_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 3))
    b = rng.standard_normal((8, 3))
    got = T.cosine_matrix(T.Tensor(a), T.Tensor(b)).data
    assert np.abs(got - cosine_oracle(a, b)).max() < 1e-6


def test_cosine_bounds_and_diagonal():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 5))
    out = T.cosine_matrix(T.Tensor(a), T.Tensor(a)).data
    assert out.min() >= -1 - 1e-9 and out.max() <= 1 + 1e-9
    assert np.abs(np.diag(out) - 1.0).max() < 1e-9


def test_cosine_zero_norm_rejected():
    with pytest.raises(DegenerateInputError):
        T.cosine_matrix(T.Tensor([[0.0, 0.0]]), T.Tensor([[1.0, 0.0]]))


def composed_cosine(a, b):
    """cosine_matrix built from the ops it fuses: row norms, division and a
    matmul against the transposed unit rows."""
    na = T.div(a, T.sqrt(T.sum_rows(T.mul(a, a))))
    nb = T.div(b, T.sqrt(T.sum_rows(T.mul(b, b))))
    return T.matmul(na, T.transpose(nb))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("same", [False, True], ids=["distinct", "self"])
def test_cosine_matches_the_composed_ops(same, dtype):
    rng = np.random.default_rng(21)
    # (a single row of cos(a, a) is constant, its gradient roundoff against zero)
    for p, q, d in [(2, 1, 3), (5, 7, 4), (16, 1, 24), (36, 36, 24), (64, 64, 48)]:
        a = T.Tensor((rng.standard_normal((p, d)) * 3.0).astype(dtype), requires_grad=True)
        b = a if same else T.Tensor(rng.standard_normal((q, d)).astype(dtype), requires_grad=True)
        w = T.Tensor(rng.standard_normal((p, b.shape[0])).astype(dtype))
        values, grads = [], []
        for f in (T.cosine_matrix, composed_cosine):
            a.grad = b.grad = None
            out = f(a, b)
            T.backward(T.sum_all(T.mul(out, w)))
            values.append(out.data)
            grads.append((a.grad, b.grad))
        assert values[0].dtype == values[1].dtype
        assert values[0].tobytes() == values[1].tobytes()
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for got, want in zip(*grads):
            assert np.abs(got - want).max() <= tol * np.abs(want).max(), (p, q, d)


@pytest.mark.parametrize("which", ["first", "second", "both"])
def test_cosine_overflowing_square_raises(which):
    big = T.Tensor([[1.0, 2.0], [1e200, 1.0]])
    small = T.Tensor([[1.0, 1.0], [2.0, -1.0]])
    a, b = {"first": (big, small), "second": (small, big), "both": (big, big)}[which]
    for f in (T.cosine_matrix, composed_cosine):
        with pytest.raises(EvaluationError), np.errstate(over="ignore"):
            f(a, b)


# --- kl_rows -----------------------------------------------------------------

def test_kl_self_is_zero():
    p = stochastic(np.random.default_rng(1), 4, 5)
    out = T.kl_rows(p, T.Tensor(p))
    assert abs(out.item()) <= 1e-9


def test_kl_closed_form():
    out = T.kl_rows(np.array([[1.0, 0.0]]), T.Tensor([[0.5, 0.5]]))
    assert abs(out.item() - math.log(2.0)) < 1e-12


def test_kl_matches_elementwise_oracle():
    rng = np.random.default_rng(5)
    p, q = stochastic(rng, 4, 4), stochastic(rng, 4, 4)
    got = T.kl_rows(p, T.Tensor(q)).item()
    assert abs(got - kl_oracle(p, q)) < 1e-9


def test_kl_rejects_non_stochastic():
    ok = np.array([[0.5, 0.5]])
    with pytest.raises(DistributionError):
        T.kl_rows(ok * 2.0, T.Tensor(ok))
    with pytest.raises(DistributionError):
        T.kl_rows(np.array([[1.5, -0.5]]), T.Tensor(ok))


def test_kl_refuses_a_nan_target():
    # a NaN fails every comparison, and its term would be zeroed like a 0's,
    # scoring the KL of a target with a 0 there
    q = T.Tensor([[0.3, 0.7], [0.6, 0.4]])
    p = np.array([[0.5, 0.5], [np.nan, 1.0]])
    with pytest.raises(DistributionError, match="NaN entries in first argument"):
        T.kl_rows(p, q)


def test_kl_f32_rows_at_the_paper_width():
    # 35 x 35 tokens: 1225-wide f32 softmax rows sum to 1 within the 1e-6
    # the check allows, as the target and as the student
    rng = np.random.default_rng(35)
    logits = [(rng.standard_normal((1225, 1225)) * 4.0).astype(np.float32) for _ in range(2)]
    p = T._softmax_rows(logits[0], 0.25)
    q = T.softmax_rows(T.Tensor(logits[1], requires_grad=True), 0.25)
    for rows in (p, q.data):
        assert rows.dtype == np.float32
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-6
    assert T.kl_rows(p, q).item() > 0.0
    assert abs(T.kl_rows(q.data, q).item()) <= 1e-6
    with pytest.raises(ShapeError, match="mixed dtypes"):
        T.kl_rows(p.astype(np.float64), q)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 9))
def test_kl_nonnegative_property(seed, r, c):
    rng = np.random.default_rng(seed)
    p, q = stochastic(rng, r, c), stochastic(rng, r, c)
    assert T.kl_rows(p, T.Tensor(q)).item() >= -1e-9
    assert abs(T.kl_rows(p, T.Tensor(p)).item()) <= 1e-9


# --- backward ----------------------------------------------------------------

def test_backward_linear():
    x = T.Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    T.backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0]])


def test_backward_quadratic():
    for value in ([[1.0, 2.0]], [1.0, 2.0]):
        x = T.Tensor(value, requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_array_equal(x.grad, 2.0 * np.asarray(value))


def test_backward_requires_scalar():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.mul(x, x))


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))

    def run():
        x = T.Tensor(a, requires_grad=True)
        y = T.Tensor(b, requires_grad=True)
        z = T.softmax_rows(T.matmul(x, T.transpose(y)))
        T.backward(T.sum_all(T.mul(z, T.cosine_matrix(x, y))))
        return x.grad.tobytes(), y.grad.tobytes()

    assert run() == run()


def test_backward_visits_each_node_once():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    y = T.mul(x, x)
    z = T.add(y, y)  # diamond: y consumed twice
    loss = T.sum_all(z)
    order = T.trace(loss)
    assert len(order) == len({id(n) for n in order})
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, [[4.0, 8.0]])  # d/dx sum(2x^2)


def _mixed_graph(x, y, z):
    """A scalar over three leaves through most op kinds, two of them shared."""
    s = T.softmax_rows(T.matmul(x, T.transpose(y)))
    c = T.cosine_matrix(x, z)
    return T.sum_all(T.add(T.mul(s, c), T.mul_scalar(T.matmul(s, z), 0.5)))


def test_every_node_with_parents_requires_grad():
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal((3, 3)) for _ in range(3)]
    for flags in [(True, False, False), (False, True, True), (True, True, True)]:
        leaves = [T.Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
        order = T.trace(_mixed_graph(*leaves))
        assert any(n._parents for n in order)
        assert all(n.requires_grad for n in order if n._parents)
    root, = T.trace(_mixed_graph(*[T.Tensor(a) for a in arrays]))
    assert not root.requires_grad


def test_backward_on_a_root_without_grad_runs_no_closure():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    loss = T.sum_all(T.mul(x, x))
    calls = []
    for node in T.trace(loss):
        if node._backward is not None:
            node._backward = (lambda f: lambda g: calls.append(f) or f(g))(node._backward)
    loss.requires_grad = False
    T.backward(loss)
    assert calls == [] and x.grad is None


def test_leaf_switched_off_after_the_forward_gets_no_grad():
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal((3, 3)) for _ in range(3)]

    def grads(switched_off_late):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        leaves[1].requires_grad = switched_off_late
        loss = _mixed_graph(*leaves)
        leaves[1].requires_grad = False
        T.backward(loss)
        return leaves

    late, early = grads(True), grads(False)
    assert late[1].grad is None and early[1].grad is None
    for a, b in ((late[0], early[0]), (late[2], early[2])):
        assert a.grad.tobytes() == b.grad.tobytes()


def test_backward_accumulates_across_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.sum_all(x))
    T.backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


# every op that records a gradient rule, by the function that defines it
_RULE_OPS = {"add", "sub", "mul", "div", "add_scalar", "mul_scalar", "sqrt", "gelu",
             "matmul", "transpose", "sum_all", "sum_rows",
             "concat_rows", "slice_rows", "slice_cols", "tokens_to_chw", "softmax_rows", "head_scores",
             "head_mix", "cosine_matrix", "kl_rows", "roi_align"}


def _tensors_held(obj, defining, seen):
    """Tensors reachable from a gradient rule through closure cells, default
    arguments, tuples and lists, nested closures included; records the
    defining function of every closure walked."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, T.Tensor):
        return [obj]
    if isinstance(obj, types.FunctionType):
        defining.add(obj.__qualname__.split(".")[0])
        inner = [cell.cell_contents for cell in obj.__closure__ or ()]
        inner += obj.__defaults__ or ()
    elif isinstance(obj, (tuple, list)):
        inner = obj
    else:
        return []
    return [t for item in inner for t in _tensors_held(item, defining, seen)]


def test_no_backward_rule_holds_a_tensor(monkeypatch):
    """A rule captures arrays and shapes only, so the graph keeps no op's
    value alive through a Tensor."""
    defining, held = set(), []

    def audit(root):
        for node in T.trace(root):
            if node._backward is not None:
                held.extend(_tensors_held(node._backward, defining, set()))

    def audited_backward(root):
        audit(root)
        T.backward(root)

    monkeypatch.setattr(gradcheck, "backward", audited_backward)
    assert all(report.passed for report in gradcheck.run_gradcheck_suite(seed=0))
    # the sweep passes no tensor through patch_embed, the stream slices or the dense map
    p = vit.VitParams(patch_size=4, depth=1, width=8, heads=2, input_res=8, embed_dim=4)
    enc = vit.encode_dense(np.random.default_rng(3).uniform(0, 1, (3, 8, 8)), p, "decoupled")
    dense = T.tokens_to_chw(enc.tokens, *enc.grid)
    audit(T.sum_all(roi_align(dense, CropBox(0.1, 0.2, 0.8, 0.9), 2)))
    assert held == []
    assert _RULE_OPS <= defining, _RULE_OPS - defining


# --- shape and finiteness discipline ----------------------------------------

def test_no_general_broadcasting():
    a = T.Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.add(a, T.Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        T.add(a, T.Tensor(np.ones(3)))  # 1-D never broadcasts
    with pytest.raises(ShapeError):
        T.add(T.Tensor(np.ones((1, 3))), T.Tensor(np.ones((2, 1))))  # no outer products


def test_row_col_broadcast_allowed():
    a = T.Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    col = T.Tensor([[1.0], [2.0]], requires_grad=True)
    row = T.Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    out = T.add(T.mul(a, col), row)
    np.testing.assert_array_equal(out.data, a.data * [[1.0], [2.0]] + [[1, 2, 3]])
    T.backward(T.sum_all(out))
    np.testing.assert_array_equal(col.grad, [[3.0], [12.0]])
    np.testing.assert_array_equal(row.grad, [[2.0, 2.0, 2.0]])


def test_nonfinite_raises():
    with pytest.raises(EvaluationError):
        T.Tensor([np.inf])


def test_mixed_dtype_rejected():
    with pytest.raises(ShapeError):
        T.add(T.Tensor(np.array([1.0], dtype=np.float32)), T.Tensor(np.array([1.0])))


def test_structural_ops_roundtrip():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    rows = T.concat_rows([T.slice_rows(x, 0, 1), T.slice_rows(x, 1, 4)])
    np.testing.assert_array_equal(rows.data, x.data)
    chw = T.tokens_to_chw(x, 2, 2)
    assert chw.shape == (6, 2, 2)
    np.testing.assert_array_equal(chw.data[:, 0, 1], x.data[1])
    T.backward(T.sum_all(T.mul(rows, rows)))
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_column_ops_match_numpy_and_route_gradients_to_their_blocks():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    middle = T.slice_cols(x, 2, 5)
    assert middle.data.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(middle.data, x.data[:, 2:5])
    w = rng.standard_normal((3, 6))
    T.backward(T.add(T.sum_all(T.mul(middle, T.Tensor(w[:, :3]))),
                     T.sum_all(T.mul(middle, T.Tensor(w[:, 3:])))))
    # the slice's two appearances meet in x's columns 2..4; the rest get 0
    want = np.zeros((3, 6))
    want[:, 2:5] = w[:, :3] + w[:, 3:]
    np.testing.assert_array_equal(x.grad, want)


def test_column_ops_reject_bad_shapes():
    a = T.Tensor(np.ones((3, 4)))
    for start, stop in ((2, 2), (3, 1), (-1, 2), (0, 5)):
        with pytest.raises(ShapeError):
            T.slice_cols(a, start, stop)
    with pytest.raises(ShapeError):
        T.slice_cols(T.Tensor(np.ones(4)), 0, 2)
