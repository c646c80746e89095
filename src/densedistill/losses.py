"""The four training objectives: context KL against the softmaxed completed
affinity, similarity-weighted content cosine alignment, the
region-correlation constraint, and their weighted combination.

Teacher-side operands (completed affinity, teacher summary vectors,
provider region features) are plain arrays, and the context and RCC
targets are built from them on the tensor module's array kernels, so
gradients only flow into the student streams and teacher work keeps no graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParameterError, ShapeError
from .regions import weighted_region_pool
from . import tensor as T
from .tensor import Tensor


@dataclass
class LossReport:
    """Per-step scalar summary; total = content_cos + rcc + lam * context."""
    l_context: float
    l_content_cos: float
    l_rcc: float
    l_total: float

    def line(self, step):
        return (f"step={step} l_context={self.l_context:.17g} "
                f"l_content={self.l_content_cos:.17g} l_rcc={self.l_rcc:.17g} "
                f"l_total={self.l_total:.17g}")


def context_target(s_hat_vfm, tau, dtype):
    """The context KL target, a plain array: the row softmax at tau of the
    (N, N) completed affinity, cast to the student's dtype."""
    teacher = T._finite(np.ascontiguousarray(s_hat_vfm, dtype=dtype))
    return T._finite(T._softmax_rows(teacher, tau))


def context_loss(x_context, target, tau):
    """KL(target || student): the student side is the row softmax at tau of
    the pairwise cosine matrix of the context stream; the target is
    context_target's row-stochastic (N, N) array."""
    hw = x_context.shape[0]
    if target.shape != (hw, hw):
        raise ShapeError(f"softmaxed teacher affinity {target.shape} vs {hw} tokens")
    s_clip = T.cosine_matrix(x_context, x_context)
    # the cosine op's record keeps only the unit rows, so its array is free
    return T.kl_rows(target, T.softmax_rows(s_clip, tau, out=s_clip.data))


def content_cos_loss(region_students, teacher_vectors):
    """Mean over regions of 1 - cos(pooled student region, teacher summary);
    each summary is a (C,) array."""
    k = len(region_students)
    if k < 1:
        raise ParameterError("need at least one region")
    if len(teacher_vectors) != k:
        raise ShapeError("teacher summaries do not match region count")
    one = Tensor(np.ones((1, 1), region_students[0].data.dtype))
    total = None
    for f_s, f_t in zip(region_students, teacher_vectors):
        target = Tensor(f_t.reshape(1, -1))
        pooled = weighted_region_pool(f_s, target)
        term = T.sub(one, T.cosine_matrix(pooled, target))
        total = term if total is None else T.add(total, term)
    return T.sum_all(T.mul_scalar(total, 1.0 / k))


def rcc_loss(region_students, provider_rows, tau):
    """Mean over regions of row-mean KL between the provider's and the
    student's within-region pairwise cosine structure; each provider region
    is a (rows, D) array."""
    k = len(region_students)
    if k < 1:
        raise ParameterError("need at least one region")
    if len(provider_rows) != k:
        raise ShapeError("provider regions do not match region count")
    total = None
    for f_s, rows in zip(region_students, provider_rows):
        if rows.ndim != 2 or rows.shape[0] != f_s.shape[0]:
            raise ShapeError(f"region row counts differ: {f_s.shape} vs {rows.shape}")
        unit, _ = T._unit_rows(rows, "provider region rows")
        r_clip = T.cosine_matrix(f_s, f_s)
        p = T._finite(T._softmax_rows(unit @ np.ascontiguousarray(unit.T), tau))
        term = T.kl_rows(p, T.softmax_rows(r_clip, tau))
        total = term if total is None else T.add(total, term)
    return T.mul_scalar(total, 1.0 / k)


def total_loss(l_content_cos, l_rcc, l_context, lam):
    """Combine the components; returns the backward-ready scalar plus the
    numeric report."""
    if not lam >= 0:  # NaN fails >= too
        raise ParameterError(f"context weight must be >= 0, got {lam}")
    for t in (l_content_cos, l_rcc, l_context):
        if t.shape != () or not np.isfinite(t.data).all():
            raise EvaluationError("loss components must be finite scalars")
    total = T.add(T.add(l_content_cos, l_rcc), T.mul_scalar(l_context, lam))
    report = LossReport(
        l_context=l_context.item(),
        l_content_cos=l_content_cos.item(),
        l_rcc=l_rcc.item(),
        l_total=total.item(),
    )
    return total, report
