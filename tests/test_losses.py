"""Objective tests: closed forms, explicit-loop oracles, invariances."""

import math

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill.errors import DegenerateInputError, EvaluationError, ParameterError, ShapeError
from densedistill.gradcheck import finite_diff_check
from densedistill.losses import (
    content_cos_loss,
    context_loss,
    rcc_loss,
    total_loss,
)


def softmax_list(vals, tau=1.0):
    m = max(v / tau for v in vals)
    e = [math.exp(v / tau - m) for v in vals]
    return [v / sum(e) for v in e]


def kl_list(p, q):
    return sum(pi * (math.log(pi) - math.log(max(qi, 1e-8))) for pi, qi in zip(p, q) if pi > 0)


def cos_list(a, b):
    num = sum(x * y for x, y in zip(a, b))
    return num / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))


# --- context_loss ---------------------------------------------------------------

def test_context_zero_when_distributions_match():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((4, 3)))
    s_clip = T.cosine_matrix(x, x).data
    assert abs(context_loss(x, s_clip, tau=1.0).item()) <= 1e-9


def test_context_two_token_closed_form():
    x = T.Tensor([[1.0, 0.0], [0.0, 1.0]])  # cosine matrix [[1,0],[0,1]]
    teacher = np.array([[1.0, -1.0], [-1.0, 1.0]])
    got = context_loss(x, teacher, tau=1.0).item()
    p = softmax_list([1.0, -1.0])
    q = softmax_list([1.0, 0.0])
    assert abs(got - kl_list(p, q)) < 1e-9


def test_context_gradient_finite_differences():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((3, 4)))
    teacher = np.clip(rng.uniform(-1, 1, (3, 3)), -1, 1)

    def f(t):
        return context_loss(t, teacher, tau=0.7)

    assert finite_diff_check(f, [x], name="context_loss").passed


def test_context_teacher_detached():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    teacher = np.clip(rng.uniform(-1, 1, (3, 3)), -1, 1)
    before = teacher.copy()
    loss = context_loss(x, teacher, tau=1.0)
    assert [p.requires_grad for p in loss._parents] == [True]
    T.backward(loss)
    assert x.grad is not None
    np.testing.assert_array_equal(teacher, before)


def test_context_loss_matches_the_composed_ops_bitwise():
    # the student softmax overwrites the cosine matrix in place
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((6, 5))
    teacher = np.clip(rng.uniform(-1, 1, (6, 6)), -1, 1)

    def run(in_place):
        x = T.Tensor(x0.copy(), requires_grad=True)
        if in_place:
            loss = context_loss(x, teacher, tau=0.5)
        else:
            q = T.softmax_rows(T.cosine_matrix(x, x), 0.5)
            loss = T.kl_rows(T._softmax_rows(teacher, 0.5), q)
        T.backward(loss)
        return loss.item(), x.grad

    (loss, grad), (want, want_grad) = run(True), run(False)
    assert loss == want
    np.testing.assert_array_equal(grad, want_grad)


# --- content_cos_loss ------------------------------------------------------------

def test_content_zero_when_aligned():
    rng = np.random.default_rng(3)
    f_t = rng.standard_normal(4)
    regions = [T.Tensor(np.outer(rng.uniform(0.5, 2.0, 3), f_t)) for _ in range(2)]
    teachers = [f_t for _ in range(2)]
    assert abs(content_cos_loss(regions, teachers).item()) <= 1e-9


def test_content_orthogonal_gives_one():
    f_t = np.array([1.0, 0.0, 0.0])
    rows = np.array([[0.0, 1.0, 2.0], [0.0, -3.0, 0.5]])
    loss = content_cos_loss([T.Tensor(rows)], [f_t])
    assert abs(loss.item() - 1.0) < 1e-12


def test_content_matches_explicit_oracle():
    rng = np.random.default_rng(4)
    k, n2, c = 3, 4, 5
    regions = [rng.standard_normal((n2, c)) for _ in range(k)]
    teachers = [rng.standard_normal(c) for _ in range(k)]
    got = content_cos_loss([T.Tensor(r) for r in regions], teachers).item()
    want = 0.0
    for r, t in zip(regions, teachers):
        cs = [cos_list(r[i], t) for i in range(n2)]
        w = softmax_list(cs)
        pooled = [sum(w[i] * r[i, j] for i in range(n2)) for j in range(c)]
        want += 1.0 - cos_list(pooled, t)
    want /= k
    assert abs(got - want) < 1e-6


def test_content_scale_invariance():
    rng = np.random.default_rng(5)
    regions = [rng.standard_normal((4, 3)) for _ in range(3)]
    teachers = [rng.standard_normal(3) for _ in range(3)]
    base = content_cos_loss([T.Tensor(r) for r in regions], teachers).item()
    scaled = content_cos_loss([T.Tensor(r * s) for r, s in zip(regions, (2.0, 0.3, 11.0))],
                              teachers).item()
    assert abs(base - scaled) < 1e-9


def test_content_gradient_and_detachment():
    rng = np.random.default_rng(6)
    f_s = T.Tensor(rng.standard_normal((4, 3)))
    f_t = rng.standard_normal(3)
    before = f_t.copy()

    def f(s):
        return content_cos_loss([s], [f_t])

    assert finite_diff_check(f, [f_s], name="content_cos_loss").passed
    np.testing.assert_array_equal(f_t, before)  # the teacher side is a plain array


# --- rcc_loss ---------------------------------------------------------------------

def test_rcc_zero_for_proportional_rows():
    rng = np.random.default_rng(7)
    f_v = rng.standard_normal((4, 3))
    scale = rng.uniform(0.5, 3.0, (4, 1))
    loss = rcc_loss([T.Tensor(f_v * scale)], [f_v], tau=1.0)
    assert abs(loss.item()) <= 1e-9


def test_rcc_singleton_region_is_zero():
    rng = np.random.default_rng(8)
    loss = rcc_loss([T.Tensor(rng.standard_normal((1, 3)))],
                    [rng.standard_normal((1, 5))], tau=1.0)
    assert abs(loss.item()) <= 1e-12


def test_rcc_matches_explicit_oracle():
    rng = np.random.default_rng(9)
    k, n2, c = 2, 4, 3
    students = [rng.standard_normal((n2, c)) for _ in range(k)]
    providers = [rng.standard_normal((n2, c)) for _ in range(k)]
    tau = 0.8
    got = rcc_loss([T.Tensor(s) for s in students], providers, tau=tau).item()
    want = 0.0
    for s, v in zip(students, providers):
        region = 0.0
        for i in range(n2):
            p = softmax_list([cos_list(v[i], v[j]) for j in range(n2)], tau)
            q = softmax_list([cos_list(s[i], s[j]) for j in range(n2)], tau)
            region += kl_list(p, q)
        want += region / n2
    want /= k
    assert abs(got - want) < 1e-6


def test_rcc_orthogonal_invariance():
    rng = np.random.default_rng(10)
    f_s = rng.standard_normal((5, 4))
    f_v = rng.standard_normal((5, 4))
    quad, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = rcc_loss([T.Tensor(f_s)], [f_v], tau=1.0).item()
    rotated = rcc_loss([T.Tensor(f_s @ quad)], [f_v], tau=1.0).item()
    assert abs(base - rotated) < 1e-6


def test_rcc_gradient_finite_differences():
    rng = np.random.default_rng(11)
    f_s = T.Tensor(rng.standard_normal((3, 4)))
    f_v = rng.standard_normal((3, 4))

    def f(s):
        return rcc_loss([s], [f_v], tau=1.0)

    assert finite_diff_check(f, [f_s], name="rcc_loss").passed


# --- total_loss ----------------------------------------------------------------------

def scalar(v):
    return T.Tensor(np.asarray(v))


def test_total_arithmetic():
    total, report = total_loss(scalar(0.7), scalar(0.1), scalar(0.4), lam=0.25)
    assert abs(total.item() - 0.9) < 1e-12
    assert abs(report.l_total - (report.l_content_cos + report.l_rcc + 0.25 * report.l_context)) < 1e-9


def test_total_lambda_zero():
    total, _ = total_loss(scalar(0.3), scalar(0.2), scalar(9.9), lam=0.0)
    assert abs(total.item() - 0.5) < 1e-12


def test_total_all_zero():
    total, _ = total_loss(scalar(0.0), scalar(0.0), scalar(0.0), lam=0.25)
    assert total.item() == 0.0


def test_total_rejects_negative_lambda():
    with pytest.raises(ParameterError):
        total_loss(scalar(0.1), scalar(0.1), scalar(0.1), lam=-1.0)


def test_total_rejects_nan_lambda():
    with pytest.raises(ParameterError, match="context weight must be >= 0"):
        total_loss(scalar(0.1), scalar(0.1), scalar(0.1), lam=float("nan"))


def test_total_rejects_nonscalar():
    with pytest.raises(EvaluationError):
        total_loss(T.Tensor([[0.1, 0.2]]), scalar(0.1), scalar(0.1), lam=0.25)


# --- operand checks -----------------------------------------------------------------

@pytest.mark.parametrize("loss,message", [("content", "teacher summaries"),
                                          ("rcc", "provider regions"),
                                          ("context", "teacher affinity")])
def test_mismatched_operands_raise_shape_error(loss, message):
    rng = np.random.default_rng(16)
    students = [T.Tensor(rng.standard_normal((4, 3))) for _ in range(2)]
    with pytest.raises(ShapeError, match=message):
        if loss == "content":
            content_cos_loss(students, [rng.standard_normal(3)])
        elif loss == "rcc":
            rcc_loss(students, [rng.standard_normal((4, 3)) for _ in range(3)], 1.0)
        else:
            context_loss(T.Tensor(rng.standard_normal((4, 3))), np.eye(3), 1.0)


def test_teacher_operands_keep_their_error_classes():
    rng = np.random.default_rng(17)
    student = T.Tensor(rng.standard_normal((4, 3)))
    rows = rng.standard_normal((4, 5))
    zero, inf, huge = rows.copy(), rows.copy(), rows.copy()
    zero[1] = 0.0
    inf[2, 0] = np.inf
    huge[0, 0] = 1e200  # its square overflows
    for bad, error in ((zero, DegenerateInputError), (inf, EvaluationError),
                       (huge, EvaluationError), (rows.astype(np.float32), ShapeError),
                       (rows[:3], ShapeError), (rows[0], ShapeError)):
        with pytest.raises(error):
            rcc_loss([student], [bad], 1.0)
    with pytest.raises(DegenerateInputError, match="zero-norm row in provider region rows"):
        rcc_loss([student], [zero], 1.0)
    for tau in (0.0, -1.0):
        with pytest.raises(ParameterError):
            rcc_loss([student], [rows], tau)
        with pytest.raises(ParameterError):
            context_loss(student, np.eye(4), tau)
    affinity = np.eye(4)
    affinity[0, 1] = np.nan
    with pytest.raises(EvaluationError):
        context_loss(student, affinity, 1.0)


# --- composed step objective ------------------------------------------------------------

def make_batch(rng, hw=4, c=3, k=2, n2=4, d=3):
    """One step's operands: the student context stream, the teacher affinity,
    and per region the student rows, teacher summary and provider rows."""
    x_ctx = T.Tensor(rng.standard_normal((hw, c)), requires_grad=True)
    s_hat = np.clip(rng.uniform(-1, 1, (hw, hw)), -1, 1)
    students = [T.Tensor(rng.standard_normal((n2, c)), requires_grad=True) for _ in range(k)]
    teachers = [rng.standard_normal(c) for _ in range(k)]
    providers = [rng.standard_normal((n2, d)) for _ in range(k)]
    return x_ctx, s_hat, students, teachers, providers


def step_objective(batch, lam, tau):
    """content + rcc + lam * context, the components computed in training order."""
    x_ctx, s_hat, students, teachers, providers = batch
    l_ctx = context_loss(x_ctx, s_hat, tau)
    l_cos = content_cos_loss(students, teachers)
    l_rcc = rcc_loss(students, providers, tau)
    return total_loss(l_cos, l_rcc, l_ctx, lam)


def test_batch_losses_report_consistency():
    batch = make_batch(np.random.default_rng(12))
    total, report = step_objective(batch, lam=0.25, tau=1.0)
    assert abs(report.l_total - (report.l_content_cos + report.l_rcc + 0.25 * report.l_context)) < 1e-9
    assert min(report.l_context, report.l_content_cos, report.l_rcc) >= -1e-9


def test_batch_no_gradient_into_teacher_side():
    batch = make_batch(np.random.default_rng(13))
    x_ctx, _, students, teachers, providers = batch
    before = [a.copy() for a in teachers + providers]
    total, _ = step_objective(batch, lam=0.25, tau=1.0)
    T.backward(total)
    assert x_ctx.grad is not None
    for t in students:
        assert t.grad is not None
    for a, b in zip(teachers + providers, before):  # the teacher side is plain arrays
        np.testing.assert_array_equal(a, b)


def test_gradient_descent_smoke_non_increasing():
    rng = np.random.default_rng(14)
    batch = make_batch(rng)
    x_ctx, _, students, _, _ = batch
    step = 1e-3
    values = []
    for _ in range(20):
        x_ctx.grad = None
        for t in students:
            t.grad = None
        total, _ = step_objective(batch, lam=0.25, tau=1.0)
        values.append(total.item())
        T.backward(total)
        x_ctx.data -= step * x_ctx.grad
        for t in students:
            t.data -= step * t.grad
    smoothed = [sum(values[i:i + 5]) / 5 for i in range(len(values) - 4)]
    assert all(b <= a + 1e-12 for a, b in zip(smoothed, smoothed[1:]))


def test_total_on_two_token_toy_matches_finite_differences():
    rng = np.random.default_rng(15)
    x_ctx = T.Tensor(rng.standard_normal((2, 3)))
    s_hat = np.clip(rng.uniform(-1, 1, (2, 2)), -1, 1)
    f_s = T.Tensor(rng.standard_normal((2, 3)))
    f_t = rng.standard_normal(3)
    f_v = rng.standard_normal((2, 3))

    def f(ctx, s):
        total, _ = step_objective((ctx, s_hat, [s], [f_t], [f_v]),
                                  lam=0.25, tau=1.0)
        return total

    assert finite_diff_check(f, [x_ctx, f_s], name="l_total-toy").passed
