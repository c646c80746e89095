"""Core engine tests: op semantics against scalar-loop oracles, backward."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedistill import tensor as T
from densedistill.errors import (
    DegenerateInputError,
    DistributionError,
    EvaluationError,
    ParameterError,
    ShapeError,
)


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


# --- kl_rows -----------------------------------------------------------------

def test_kl_self_is_zero():
    p = stochastic(np.random.default_rng(1), 4, 5)
    out = T.kl_rows(T.Tensor(p), T.Tensor(p))
    assert abs(out.item()) <= 1e-9


def test_kl_closed_form():
    out = T.kl_rows(T.Tensor([[1.0, 0.0]]), T.Tensor([[0.5, 0.5]]))
    assert abs(out.item() - math.log(2.0)) < 1e-12


def test_kl_matches_elementwise_oracle():
    rng = np.random.default_rng(5)
    p, q = stochastic(rng, 4, 4), stochastic(rng, 4, 4)
    got = T.kl_rows(T.Tensor(p), T.Tensor(q)).item()
    assert abs(got - kl_oracle(p, q)) < 1e-9


def test_kl_rejects_non_stochastic():
    ok = np.array([[0.5, 0.5]])
    with pytest.raises(DistributionError):
        T.kl_rows(T.Tensor(ok * 2.0), T.Tensor(ok))
    with pytest.raises(DistributionError):
        T.kl_rows(T.Tensor([[1.5, -0.5]]), T.Tensor(ok))


@settings(deadline=None, max_examples=50, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 9))
def test_kl_nonnegative_property(seed, r, c):
    rng = np.random.default_rng(seed)
    p, q = stochastic(rng, r, c), stochastic(rng, r, c)
    assert T.kl_rows(T.Tensor(p), T.Tensor(q)).item() >= -1e-9
    assert abs(T.kl_rows(T.Tensor(p), T.Tensor(p)).item()) <= 1e-9


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
        T.backward(T.mean_all(T.mul(z, T.cosine_matrix(x, y))))
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


def test_backward_accumulates_across_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.sum_all(x))
    T.backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_detach_blocks_gradient():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    T.backward(T.sum_all(T.mul(x.detach(), x)))
    np.testing.assert_array_equal(x.grad, [[1.0, 2.0]])


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
        T.log(T.Tensor([[0.0]]))
    with pytest.raises(EvaluationError):
        T.Tensor([np.inf])


def test_mixed_dtype_rejected():
    with pytest.raises(ShapeError):
        T.add(T.Tensor([1.0], dtype=np.float32), T.Tensor([1.0], dtype=np.float64))


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
