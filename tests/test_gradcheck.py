"""Finite-difference oracle: on itself, and on every engine primitive."""

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill.errors import ParameterError
from densedistill.gradcheck import finite_diff_check


def test_square_closed_form():
    x = T.Tensor([3.0])
    rep = finite_diff_check(lambda t: T.sum_all(T.mul(t, t)), [x], name="square")
    assert rep.passed
    assert abs(x.grad[0] - 6.0) < 1e-9


def test_cosine_loss_of_random_vectors():
    rng = np.random.default_rng(0)
    a = T.Tensor(rng.standard_normal((1, 4)))
    b = T.Tensor(rng.standard_normal((1, 4)))

    def f(u, v):
        return T.sum_all(T.add_scalar(T.neg(T.cosine_matrix(u, v)), 1.0))

    assert finite_diff_check(f, [a, b], name="cosine-loss").passed


def test_kl_of_softmaxed_logits():
    rng = np.random.default_rng(1)
    lp = T.Tensor(rng.standard_normal((3, 5)))
    lq = T.Tensor(rng.standard_normal((3, 5)))

    def f(u, v):
        return T.kl_rows(T.softmax_rows(u), T.softmax_rows(v))

    assert finite_diff_check(f, [lp, lq], name="kl-softmax").passed


def test_requires_float64():
    x = T.Tensor([1.0], dtype=np.float32)
    with pytest.raises(ParameterError):
        finite_diff_check(lambda t: T.sum_all(t), [x])


@pytest.mark.parametrize(
    "name,builder",
    [
        ("add", lambda r: (lambda a, b: T.sum_all(T.mul(T.add(a, b), T.add(a, b))),
                           [T.Tensor(r.standard_normal((3, 4))), T.Tensor(r.standard_normal((3, 4)))])),
        ("sub", lambda r: (lambda a, b: T.sum_all(T.mul(T.sub(a, b), a)),
                           [T.Tensor(r.standard_normal((3, 4))), T.Tensor(r.standard_normal((3, 4)))])),
        ("mul-div", lambda r: (lambda a, b: T.sum_all(T.div(T.mul(a, a), b)),
                               [T.Tensor(r.standard_normal((3, 4))),
                                T.Tensor(r.uniform(0.5, 2.0, (3, 4)))])),
        ("row-col-broadcast", lambda r: (lambda a, c, w: T.sum_all(T.add(T.mul(a, c), w)),
                                         [T.Tensor(r.standard_normal((3, 4))),
                                          T.Tensor(r.uniform(0.5, 2.0, (3, 1))),
                                          T.Tensor(r.standard_normal((1, 4)))])),
        ("matmul", lambda r: (lambda a, b: T.mean_all(T.matmul(a, b)),
                              [T.Tensor(r.standard_normal((3, 4))), T.Tensor(r.standard_normal((4, 2)))])),
        ("transpose-reshape", lambda r: (lambda a: T.sum_all(T.mul(T.reshape(T.transpose(a), (2, 6)),
                                                                   T.reshape(T.transpose(a), (2, 6)))),
                                         [T.Tensor(r.standard_normal((3, 4)))])),
        ("exp-log-sqrt", lambda r: (lambda a: T.sum_all(T.log(T.sqrt(T.exp(a)))),
                                    [T.Tensor(r.standard_normal((2, 3)))])),
        ("gelu", lambda r: (lambda a: T.sum_all(T.gelu(a)),
                            [T.Tensor(r.standard_normal((3, 3)) * 2.0)])),
        ("softmax", lambda r: (lambda a: T.sum_all(T.mul(T.softmax_rows(a, 0.7), T.softmax_rows(a, 0.7))),
                               [T.Tensor(r.standard_normal((3, 5)))])),
        ("sum-rows-cols", lambda r: (lambda a: T.sum_all(T.mul(T.sum_rows(a), T.sum_rows(a)))
                                     + T.sum_all(T.mul(T.sum_cols(a), T.sum_cols(a))),
                                     [T.Tensor(r.standard_normal((3, 4)))])),
        ("concat-slice", lambda r: (lambda a, b: T.sum_all(T.mul(T.concat_rows([a, b]),
                                                                 T.concat_rows([a, b]))),
                                    [T.Tensor(r.standard_normal((2, 3))),
                                     T.Tensor(r.standard_normal((1, 3)))])),
        ("tokens-chw", lambda r: (lambda a: T.sum_all(T.mul(T.tokens_to_chw(a, 2, 2),
                                                            T.tokens_to_chw(a, 2, 2))),
                                  [T.Tensor(r.standard_normal((4, 3)))])),
        ("cosine-matrix", lambda r: (lambda a, b: T.mean_all(T.cosine_matrix(a, b)),
                                     [T.Tensor(r.standard_normal((4, 3))),
                                      T.Tensor(r.standard_normal((5, 3)))])),
    ],
)
def test_primitive_gradients(name, builder):
    f, inputs = builder(np.random.default_rng(hash(name) % 2**32))
    rep = finite_diff_check(f, inputs, name=name)
    assert rep.passed, rep.line()
