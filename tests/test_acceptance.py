"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line at its stated tolerance. Oracles here are independent scalar-loop
implementations, self-contained in this module."""

import math
import time

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill.affinity import SdAttentionStack, complete_affinity, fuse_sd_attention
from densedistill.config import RunConfig
from densedistill.container import read_tensor, write_tensor
from densedistill.evalsuite import (ablation_coupled_vs_decoupled, class_prototypes,
                                    evaluate_on_suite, miou, prepare_suite,
                                    shipped_ablation_config, top1_macc)
from densedistill.gradcheck import run_gradcheck_suite
from densedistill.regions import CropBox, roi_align, weighted_region_pool
from densedistill.synthdata import make_suite, write_suite
from densedistill.tensor import Tensor
from densedistill.trainer import (Distiller, distill_run, resolution_pair, restore_into,
                                  save_checkpoint, train)
from densedistill.vit import VitParams, capture_attention, decoupled_block, patch_embed


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- 1. gradient suite ---------------------------------------------------------

def test_criterion_1_gradient_suite():
    start = time.time()
    reports = run_gradcheck_suite(seed=0)
    elapsed = time.time() - start
    ok = all(r.passed for r in reports) and elapsed < 60.0
    worst = max(r.worst for r in reports)
    report(1, "gradient-suite", ok,
           f"({len(reports)} ops, worst rel err {worst:.2e}, {elapsed:.1f}s)")


# --- 2. oracle equivalence ------------------------------------------------------

def _cos_pair(a, b):
    num = sum(x * y for x, y in zip(a, b))
    return num / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))


def _bilinear(plane, y, x):
    h, w = plane.shape
    py = min(max(y * h - 0.5, 0.0), h - 1.0)
    px = min(max(x * w - 0.5, 0.0), w - 1.0)
    y0, x0 = min(int(py), h - 1), min(int(px), w - 1)
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    fy, fx = py - y0, px - x0
    return ((1 - fy) * (1 - fx) * plane[y0, x0] + (1 - fy) * fx * plane[y0, x1]
            + fy * (1 - fx) * plane[y1, x0] + fy * fx * plane[y1, x1])


def _mm_loops(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(a[i, t] * b[t, j] for t in range(a.shape[1]))
    return out


def test_criterion_2_oracle_equivalence():
    start = time.time()
    n = 100
    worst = {}

    rng = np.random.default_rng(20)
    err = 0.0
    for _ in range(n):
        a = rng.standard_normal((rng.integers(1, 9), 4))
        b = rng.standard_normal((rng.integers(1, 9), 4))
        got = T.cosine_matrix(Tensor(a), Tensor(b)).data
        want = [[_cos_pair(a[i], b[j]) for j in range(b.shape[0])] for i in range(a.shape[0])]
        err = max(err, np.abs(got - np.asarray(want)).max())
    worst["cosine_matrix"] = (err, 1e-6)

    err = 0.0
    for _ in range(n):
        hw = int(rng.integers(2, 7))
        ln = int(rng.integers(1, 4))
        logits = rng.standard_normal((ln, hw, hw))
        maps = np.exp(logits - logits.max(axis=2, keepdims=True))
        maps /= maps.sum(axis=2, keepdims=True)
        got = fuse_sd_attention(SdAttentionStack(maps=maps))
        want = maps[0]
        for k in range(1, ln):
            want = _mm_loops(want, maps[k])
        err = max(err, np.abs(got - want).max(), np.abs(got.sum(axis=1) - 1.0).max())
    worst["fuse_sd_attention"] = (err, 1e-12)

    err = 0.0
    for _ in range(n):
        hw = int(rng.integers(2, 7))
        toks = rng.standard_normal((hw, 3))
        unit = toks / np.linalg.norm(toks, axis=1, keepdims=True)
        s = np.clip((unit @ unit.T + (unit @ unit.T).T) / 2, -1, 1)
        logits = rng.standard_normal((hw, hw))
        a = np.exp(logits - logits.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        got = complete_affinity(a, s)
        err = max(err, np.abs(got - _mm_loops(a, s)).max())
    worst["complete_affinity"] = (err, 1e-9)

    err = 0.0
    for _ in range(n):
        c, h, w = (int(rng.integers(1, 4)) for _ in range(3))
        h, w = h + 1, w + 1
        feats = rng.standard_normal((c, h, w))
        x0, y0 = rng.uniform(0, 0.4, 2)
        box = CropBox(float(x0), float(y0), float(x0 + rng.uniform(0.2, 0.6)),
                      float(y0 + rng.uniform(0.2, 0.6)))
        k = int(rng.integers(1, 4))
        got = roi_align(Tensor(feats), box, k).data
        for v in range(k):
            for u in range(k):
                y = box.y0 + (v + 0.5) / k * (box.y1 - box.y0)
                x = box.x0 + (u + 0.5) / k * (box.x1 - box.x0)
                for ch in range(c):
                    err = max(err, abs(got[v * k + u, ch] - _bilinear(feats[ch], y, x)))
    worst["roi_align"] = (err, 1e-6)

    err = 0.0
    for _ in range(n):
        k2, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        f_s = rng.standard_normal((k2, c))
        f_t = rng.standard_normal((1, c))
        got = weighted_region_pool(Tensor(f_s), Tensor(f_t)).data[0]
        cos = [_cos_pair(f_s[i], f_t[0]) for i in range(k2)]
        m = max(cos)
        e = [math.exp(v - m) for v in cos]
        wts = [v / sum(e) for v in e]
        want = sum(wts[i] * f_s[i] for i in range(k2))
        err = max(err, np.abs(got - want).max())
    worst["weighted_region_pool"] = (err, 1e-6)

    err = 0.0
    for _ in range(n):
        k = int(rng.integers(2, 5))
        gt = rng.integers(0, k, (5, 5))
        pred = rng.integers(0, k, (5, 5))
        got, _ = miou(pred, gt, k)
        ious = []
        for c in range(k):
            inter = int(((pred == c) & (gt == c)).sum())
            union = int(((pred == c) | (gt == c)).sum())
            if union:
                ious.append(inter / union)
        err = max(err, abs(got - sum(ious) / len(ious)))
    worst["miou"] = (err, 1e-12)

    err = 0.0
    for _ in range(n):
        k = int(rng.integers(2, 6))
        gt = rng.integers(0, k, 40)
        pred = rng.integers(0, k, 40)
        got = top1_macc(pred, gt)
        accs = []
        for c in sorted(set(gt.tolist())):
            hits = sum(1 for p, g in zip(pred, gt) if g == c and p == c)
            total = sum(1 for g in gt if g == c)
            accs.append(hits / total)
        err = max(err, abs(got - sum(accs) / len(accs)))
    worst["top1_macc"] = (err, 1e-12)

    elapsed = time.time() - start
    ok = elapsed < 30.0 and all(err <= tol for err, tol in worst.values())
    detail = ", ".join(f"{name} {err:.1e}<={tol:.0e}" for name, (err, tol) in worst.items())
    report(2, "oracle-equivalence", ok, f"({n} instances/op, {detail}, {elapsed:.1f}s)")


# --- 3. decoupling identity ------------------------------------------------------

def test_criterion_3_decoupling_identity():
    p = VitParams(patch_size=4, depth=2, width=8, heads=1, input_res=12, seed=31)
    last = p.blocks[-1]
    last.wk.data[...] = last.wq.data
    last.bk.data[...] = last.bq.data
    img = np.random.default_rng(31).uniform(0, 1, (3, 12, 12))
    std_attn = capture_attention(img, p, [1])[0][:, :, 0]
    seq = patch_embed(img, p)
    from densedistill.vit import attention_block

    seq = attention_block(seq, p, 0)
    ctx, _ = decoupled_block(seq, p)
    dec_attn = T.softmax_rows(T.head_scores(ctx, ctx, p.heads)).data
    gap = np.abs(dec_attn - std_attn).max()
    report(3, "decoupling-identity", gap < 1e-6, f"(max gap {gap:.2e})")


# --- 4. stochastic closure --------------------------------------------------------

def test_criterion_4_stochastic_closure():
    rng = np.random.default_rng(40)
    worst_row = 0.0
    worst_bound = 0.0
    for _ in range(100):
        hw = int(rng.choice([4, 16, 36, 64]))
        ln = int(rng.integers(1, 9))
        logits = rng.standard_normal((ln, hw, hw)) * 3.0
        maps = np.exp(logits - logits.max(axis=2, keepdims=True))
        maps /= maps.sum(axis=2, keepdims=True)
        fused = fuse_sd_attention(SdAttentionStack(maps=maps))
        worst_row = max(worst_row, np.abs(fused.sum(axis=1) - 1.0).max())
        toks = rng.standard_normal((hw, 5))
        unit = toks / np.linalg.norm(toks, axis=1, keepdims=True)
        sim = unit @ unit.T
        sim = np.clip((sim + sim.T) / 2, -1, 1)
        np.fill_diagonal(sim, 1.0)
        completed = complete_affinity(fused, sim)
        worst_bound = max(worst_bound, completed.max() - 1.0, -1.0 - completed.min())
    ok = worst_row < 1e-9 and worst_bound < 1e-9
    report(4, "stochastic-closure", ok,
           f"(row-sum dev {worst_row:.2e}, bound escape {worst_bound:.2e})")


# --- 5. overfit convergence ---------------------------------------------------------

def overfit_config():
    return RunConfig(student_patch=8, student_res=64, student_depth=2, student_width=16,
                     student_heads=2, embed_dim=8, vfm_patch=4, vfm_res=32, vfm_depth=2,
                     vfm_width=16, vfm_heads=2, grid_lo=2, grid_hi=2, epochs=1,
                     batch_size=8, seed=0, lr=3e-3, weight_decay=0.0, tau=1.0)


def test_criterion_5_overfit_convergence():
    start = time.time()
    cfg = overfit_config()
    suite = make_suite(seed=0, n_images=8, side=8, patch=8)
    distiller = Distiller(cfg)
    reports = train(distiller, prepare_suite(suite, distiller, cfg), 200)
    totals = [r.l_total for r in reports]
    last = reports[-1]
    elapsed = time.time() - start
    smoothed = np.convolve(totals, np.ones(10) / 10, mode="valid")
    worst_rise = max(float(b - a) for a, b in zip(smoothed, smoothed[1:]))
    cos = 1.0 - last.l_content_cos
    ok = (last.l_context < 0.05 and cos > 0.99 and worst_rise <= 1e-9
          and elapsed < 300.0)
    report(5, "overfit-convergence", ok,
           f"(l_context {last.l_context:.4f} < 0.05, region cos {cos:.4f} > 0.99, "
           f"smoothed worst rise {worst_rise:.2e}, {elapsed:.0f}s < 300s)")


# --- 6/7. directional ablation and completion benefit -------------------------------

@pytest.fixture(scope="module")
def shipped_results():
    cfg, suite = shipped_ablation_config()
    ablation = ablation_coupled_vs_decoupled(cfg, suite)
    from dataclasses import replace

    raw_cfg = replace(cfg, use_sd_completion=False)
    probe = Distiller(cfg)
    classes = class_prototypes(probe.teacher, suite.colors)
    raw_variant = Distiller(raw_cfg)
    train(raw_variant, prepare_suite(suite, probe, raw_cfg), raw_cfg.epochs)
    raw = evaluate_on_suite(raw_variant, suite, classes)
    return ablation, raw


def test_criterion_6_directional_ablation(shipped_results):
    ablation, _ = shipped_results
    a = ablation
    ok = (a.decoupled.macc > a.coupled.macc
          and a.decoupled.miou > a.coupled.miou
          and a.content.macc > a.baseline.macc
          and a.content.miou >= a.baseline.miou - 0.02)
    report(6, "directional-ablation", ok,
           f"(decoupled {a.decoupled.macc:.3f}/{a.decoupled.miou:.3f} > "
           f"coupled {a.coupled.macc:.3f}/{a.coupled.miou:.3f}; "
           f"content mAcc {a.content.macc:.3f} > baseline {a.baseline.macc:.3f}, "
           f"content mIoU {a.content.miou:.3f} >= {a.baseline.miou:.3f}-0.02)")


def test_criterion_7_completion_benefit(shipped_results):
    ablation, raw = shipped_results
    completed_miou = ablation.decoupled.miou
    ok = completed_miou >= raw.miou - 0.005
    report(7, "completion-benefit", ok,
           f"(completed {completed_miou:.4f} >= raw {raw.miou:.4f} - 0.005)")


# --- 8. determinism and round-trips ---------------------------------------------------

def test_criterion_8_determinism_roundtrips(tmp_path):
    cfg = RunConfig(student_patch=8, student_res=32, student_depth=2, student_width=16,
                    student_heads=2, embed_dim=8, vfm_patch=8, vfm_res=32, vfm_depth=1,
                    vfm_width=8, vfm_heads=1, grid_lo=1, grid_hi=2, epochs=2,
                    batch_size=2, seed=0, lr=3e-3, weight_decay=0.0,
                    manifest=str(tmp_path / "data" / "manifest.txt"))
    suite = make_suite(seed=0, n_images=4, side=4, patch=8, num_classes=3)
    write_suite(str(tmp_path / "data"), suite)

    from dataclasses import replace

    run_a = distill_run(replace(cfg, checkpoint_dir=str(tmp_path / "c1"),
                                report_dir=str(tmp_path / "r1")))
    run_b = distill_run(replace(cfg, checkpoint_dir=str(tmp_path / "c2"),
                                report_dir=str(tmp_path / "r2")))
    logs_equal = open(run_a.metrics_path, "rb").read() == open(run_b.metrics_path, "rb").read()
    checkpoints_equal = (open(run_a.checkpoint_path, "rb").read()
                         == open(run_b.checkpoint_path, "rb").read())

    arrays = {"a": np.random.default_rng(8).standard_normal((3, 4)),
              "b": np.arange(5, dtype=np.int32),
              "c": np.float32(np.random.default_rng(9).standard_normal(7))}
    p1, p2 = str(tmp_path / "t1.dten"), str(tmp_path / "t2.dten")
    write_tensor(p1, arrays)
    write_tensor(p2, read_tensor(p1))
    container_bitwise = open(p1, "rb").read() == open(p2, "rb").read()

    resave = str(tmp_path / "resave.dten")
    rebuilt = restore_into(Distiller(cfg), run_a.checkpoint_path)
    save_checkpoint(resave, rebuilt.student, rebuilt.optimizer, rebuilt.step_count, cfg.seed,
                    cfg.batch_size)
    checkpoint_roundtrip = (open(run_a.checkpoint_path, "rb").read()
                            == open(resave, "rb").read())

    pair_ok = resolution_pair(16, 14, 35) == (560, 490)
    ok = logs_equal and checkpoints_equal and container_bitwise \
        and checkpoint_roundtrip and pair_ok
    report(8, "determinism-roundtrips", ok,
           f"(logs {logs_equal}, runs {checkpoints_equal}, container {container_bitwise}, "
           f"checkpoint {checkpoint_roundtrip}, resolution_pair {pair_ok})")


# --- 9. frozen-teacher integrity ---------------------------------------------------------

def test_criterion_9_frozen_integrity():
    cfg = RunConfig(student_patch=8, student_res=32, student_depth=2, student_width=16,
                    student_heads=2, embed_dim=8, vfm_patch=8, vfm_res=32, vfm_depth=1,
                    vfm_width=8, vfm_heads=1, grid_lo=1, grid_hi=2, epochs=1,
                    batch_size=2, seed=0, lr=3e-3, weight_decay=0.0)
    suite = make_suite(seed=0, n_images=4, side=4, patch=8, num_classes=3)
    distiller = Distiller(cfg)
    teacher_before = distiller.teacher.state_bytes()
    vfm_before = distiller.vfm.state_bytes()
    train(distiller, prepare_suite(suite, distiller, cfg)[:2], 6)
    ok = (distiller.teacher.state_bytes() == teacher_before
          and distiller.vfm.state_bytes() == vfm_before)
    report(9, "frozen-integrity", ok, "(teacher and provider bytes identical)")
