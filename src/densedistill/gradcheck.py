"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .tensor import Tensor, backward

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class GradCheckReport:
    name: str
    h: float
    tol: float
    max_rel_errors: list = field(default_factory=list)  # one per checked input
    passed: bool = True

    @property
    def worst(self):
        return max(self.max_rel_errors) if self.max_rel_errors else 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: max_rel_err={self.worst:.3e} (tol={self.tol:.0e})"


def finite_diff_check(f, inputs, h=DEFAULT_H, tol=DEFAULT_TOL, name="f"):
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must be a pure, deterministic scalar function of the given
    tensors, evaluated in 64-bit. Every element of every input is
    perturbed by ±h; the relative error per input is
    max |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).
    """
    inputs = list(inputs)
    for t in inputs:
        if not isinstance(t, Tensor) or t.data.dtype != np.float64:
            raise ParameterError("finite_diff_check requires float64 Tensor inputs")
    if h <= 0 or tol <= 0:
        raise ParameterError("h and tol must be positive")

    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = f(*inputs)
    if out.data.size != 1:
        raise ParameterError("finite_diff_check requires a scalar-valued function")
    backward(out)
    g_ad = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs]

    # graph-free probes: the op layer drops backward records for no-grad inputs
    for t in inputs:
        t.requires_grad = False
    report = GradCheckReport(name=name, h=h, tol=tol)
    try:
        for t, ga in zip(inputs, g_ad):
            flat = t.data.reshape(-1)
            gf = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(f(*inputs).data)
                flat[i] = orig - h
                down = float(f(*inputs).data)
                flat[i] = orig
                gf[i] = (up - down) / (2.0 * h)
            ga_flat = ga.reshape(-1)
            denom = np.maximum(1e-8, np.abs(ga_flat) + np.abs(gf))
            rel = float(np.max(np.abs(ga_flat - gf) / denom)) if flat.size else 0.0
            report.max_rel_errors.append(rel)
            if rel > tol:
                report.passed = False
    finally:
        for t in inputs:
            t.requires_grad = True
    return report


def run_gradcheck_suite(seed=0):
    """Finite-difference checks over every differentiable operation, on
    seeded random instances small enough (<= 9 tokens, width <= 8) to keep
    the whole sweep under a minute."""
    from . import tensor as T
    from .losses import DistillBatchInputs, batch_losses, content_cos_loss, context_loss, rcc_loss
    from .regions import CropBox, roi_align, weighted_region_pool
    from .vit import VitParams, attention_block, decoupled_block, layer_norm_rows

    rng = np.random.default_rng(seed)
    reports = []

    def check(name, f, inputs):
        reports.append(finite_diff_check(f, inputs, name=name))

    def t(*shape, scale=1.0):
        return Tensor(rng.standard_normal(shape) * scale)

    check("matmul", lambda a, b: T.mean_all(T.matmul(a, b)), [t(3, 4), t(4, 2)])
    check("elementwise", lambda a, b: T.sum_all(T.div(T.mul(a, b), T.add_scalar(T.mul(b, b), 1.0))),
          [t(3, 4), t(3, 4)])
    check("row-col-broadcast", lambda a, c, r: T.sum_all(T.add(T.mul(a, c), r)),
          [t(3, 4), Tensor(rng.uniform(0.5, 2.0, (3, 1))), t(1, 4)])
    check("exp-log-sqrt", lambda a: T.sum_all(T.log(T.sqrt(T.add_scalar(T.exp(a), 1.0)))), [t(2, 3)])
    check("gelu", lambda a: T.sum_all(T.gelu(a)), [t(3, 3, scale=2.0)])
    check("softmax_rows", lambda a: T.sum_all(T.mul(T.softmax_rows(a, 0.5), T.softmax_rows(a, 0.5))),
          [t(3, 5)])
    check("cosine_matrix", lambda a, b: T.mean_all(T.cosine_matrix(a, b)), [t(4, 3), t(5, 3)])
    check("kl_rows", lambda a, b: T.kl_rows(T.softmax_rows(a), T.softmax_rows(b)),
          [t(3, 4), t(3, 4)])
    check("layer_norm", lambda x, s, o: T.sum_all(T.mul(layer_norm_rows(x, s, o),
                                                        layer_norm_rows(x, s, o))),
          [t(4, 6), Tensor(rng.uniform(0.5, 2.0, (1, 6))), t(1, 6)])

    params = VitParams(patch_size=4, depth=1, width=8, heads=2, input_res=8,
                       seed=int(rng.integers(2**31)))
    block = params.blocks[0]

    def block_loss(x, wq, wv):
        block.wq, block.wv = wq, wv
        out = attention_block(x, params, 0)
        return T.mean_all(T.mul(out, out))

    check("attention_block", block_loss, [t(5, 8), Tensor(block.wq.data.copy()),
                                          Tensor(block.wv.data.copy())])

    def dec_loss(x, wq, wv):
        block.wq, block.wv = wq, wv
        dec = decoupled_block(x, params, has_cls=False)
        return T.add(T.mean_all(T.mul(dec.x_content, dec.x_content)),
                     T.mean_all(T.mul(dec.x_context, dec.x_context)))

    check("decoupled_block", dec_loss, [t(5, 8), Tensor(block.wq.data.copy()),
                                        Tensor(block.wv.data.copy())])

    box = CropBox(0.1, 0.2, 0.8, 0.9)
    check("roi_align", lambda f: T.sum_all(T.mul(roi_align(f, box, 3), roi_align(f, box, 3))),
          [t(2, 4, 4)])
    pool_t = t(3)
    check("weighted_region_pool",
          lambda s: T.sum_all(T.mul(weighted_region_pool(s, pool_t),
                                    weighted_region_pool(s, pool_t))),
          [t(4, 3)])

    s_hat = np.clip(rng.uniform(-1, 1, (4, 4)), -1, 1)
    check("context_loss", lambda x: context_loss(x, s_hat, 0.7), [t(4, 5)])
    cls_t = t(5)
    check("content_cos_loss", lambda s: content_cos_loss([s], [cls_t]), [t(4, 5)])
    vfm_t = t(4, 6)
    check("rcc_loss", lambda s: rcc_loss([s], [vfm_t], 0.7), [t(4, 5)])

    toy_hat = np.clip(rng.uniform(-1, 1, (2, 2)), -1, 1)
    toy_cls, toy_vfm = t(5), t(2, 5)

    def toy_total(ctx, s):
        batch = DistillBatchInputs(x_context=ctx, s_hat_vfm=toy_hat, region_students=[s],
                                   region_teacher_cls=[toy_cls], region_vfm=[toy_vfm])
        total, _ = batch_losses(batch, lam=0.25, tau=0.7)
        return total

    check("l_total_two_token_toy", toy_total, [t(2, 5), t(2, 5)])

    check("softmax_rows_tau1", lambda a: T.sum_all(T.mul(T.softmax_rows(a), T.softmax_rows(a))),
          [t(3, 5)])
    # heads = 2 over width 4; m = n (self-attention) and m = 1 (a CLS-only query)
    for m in (3, 1):
        mix_w = t(m, 4)
        check(f"head_scores_m{m}",
              lambda q, k: T.sum_all(T.mul(T.head_scores(q, k, 2), T.head_scores(q, k, 2))),
              [t(m, 4), t(3, 4)])
        check(f"head_mix_m{m}", lambda p, v, w=mix_w: T.sum_all(T.mul(T.head_mix(p, v, 2), w)),
              [t(2 * m, 3), t(3, 4)])
    return reports
