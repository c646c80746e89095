"""Trainer: optimizer closed forms, pipeline wiring, determinism, round-trips."""

import itertools
import os
import re
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill import regions, trainer, vit
from densedistill.cli import run_cli
from densedistill.config import RunConfig, echo_config
from densedistill.container import read_tensor, write_tensor
from densedistill.errors import ConfigError, EvaluationError, ParameterError
from densedistill.evalsuite import (ablation_coupled_vs_decoupled, class_prototypes,
                                    prepare_suite, save_class_embeddings,
                                    shipped_ablation_config)
from densedistill.losses import (content_cos_loss, context_loss, context_target, rcc_loss,
                                 total_loss)
from densedistill.regions import FULL_BOX, crop_resize, roi_align, sample_grid
from densedistill.tensor import Tensor
from densedistill.trainer import (
    AdamW,
    Distiller,
    adamw_step,
    context_teacher,
    distill_run,
    load_student,
    prepare_record,
    read_manifest,
    read_record,
    resolution_pair,
    restore_into,
    save_checkpoint,
    train,
)
from densedistill.synthdata import make_suite, write_suite
from densedistill.vit import encode_cls, encode_dense


def desk_cfg(tmp_path=None, **over):
    base = dict(
        student_patch=8, student_res=32, student_depth=2, student_width=16,
        student_heads=2, embed_dim=8, vfm_patch=4, vfm_res=16, vfm_depth=2,
        vfm_width=12, vfm_heads=2, grid_lo=1, grid_hi=2, epochs=1,
        batch_size=2, seed=0, lr=1e-3, weight_decay=0.0)
    base.update(over)
    if tmp_path is not None:
        base.setdefault("checkpoint_dir", str(tmp_path / "ckpt"))
        base.setdefault("report_dir", str(tmp_path / "rep"))
    return RunConfig(**base)


def desk_suite(tmp_path, cfg, n_images=4, seed=0):
    suite = make_suite(seed=seed, n_images=n_images, side=cfg.student_res // cfg.student_patch,
                       patch=cfg.student_patch, num_classes=3)
    manifest = write_suite(str(tmp_path / "data"), suite)
    return suite, manifest


# --- resolution_pair ---------------------------------------------------------------

def test_resolution_pair_reference_values():
    assert resolution_pair(16, 14, 35) == (560, 490)


def test_resolution_pair_equal_patches():
    assert resolution_pair(16, 16, 4) == (64, 64)


def test_resolution_pair_token_match():
    s_res, v_res = resolution_pair(8, 4, 6)
    assert (s_res, v_res) == (48, 24)
    assert (s_res // 8) ** 2 == (v_res // 4) ** 2 == 36


# --- adamw ----------------------------------------------------------------------------

def test_adamw_zero_grad_zero_decay_is_identity():
    p = np.array([1.0, -2.0])
    out, m, v = adamw_step(p, np.zeros(2), np.zeros(2), np.zeros(2), t=1,
                           lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
    np.testing.assert_array_equal(out, p)
    np.testing.assert_array_equal(m, 0.0)


def test_adamw_single_scalar_closed_form():
    lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 0.01
    p, g = np.array([0.5]), np.array([0.3])
    out, m, v = adamw_step(p, g, np.zeros(1), np.zeros(1), t=1,
                           lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    m_want = (1 - b1) * 0.3
    v_want = (1 - b2) * 0.09
    m_hat = m_want / (1 - b1)
    v_hat = v_want / (1 - b2)
    want = 0.5 - lr * wd * 0.5 - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert abs(out[0] - want) < 1e-12
    assert abs(m[0] - m_want) < 1e-15 and abs(v[0] - v_want) < 1e-15


def test_adamw_pure_decay_shrinks():
    p = np.array([2.0])
    out, _, _ = adamw_step(p, np.zeros(1), np.zeros(1), np.zeros(1), t=3,
                           lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.5)
    assert abs(out[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-12


def test_adamw_vanishing_lr_is_identity():
    p = np.array([1.5, -0.5])
    g = np.array([0.3, 0.7])
    out, _, _ = adamw_step(p, g, np.zeros(2), np.zeros(2), t=1,
                           lr=1e-300, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.1)
    np.testing.assert_allclose(out, p, atol=1e-290)


def test_adamw_class_skips_frozen_and_decays():
    p1 = Tensor(np.ones(3), requires_grad=True)
    p2 = Tensor(np.ones(3), requires_grad=False)
    opt = AdamW([("a", p1), ("b", p2)], lr=0.1, weight_decay=0.5)
    opt.step()
    np.testing.assert_allclose(p1.data, 0.95)
    np.testing.assert_array_equal(p2.data, 1.0)
    assert opt.t == 1


# --- pipeline wiring ----------------------------------------------------------------------

def test_unknown_variant_refused_before_any_model_is_built(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(trainer, "build_models", lambda cfg: built.append(cfg))
    with pytest.raises(ParameterError, match="unknown variant 'decupled'"):
        Distiller(desk_cfg(tmp_path), "decupled")
    assert built == []


def test_lambda_zero_matches_content_plus_rcc_gradient(tmp_path):
    cfg = desk_cfg(tmp_path, lam=0.0, grid_lo=1, grid_hi=1)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)

    total, _ = distiller.loss_for(prepared, np.random.default_rng(99))
    T.backward(total)
    grads_a = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}

    # independent composition: content + RCC only, same single full-image crop
    distiller.optimizer.zero_grad()
    enc = encode_dense(prepared.image, distiller.student, "decoupled")
    boxes = sample_grid(np.random.default_rng(99), 1, 1)
    assert boxes == [FULL_BOX]
    content_map = T.tokens_to_chw(enc.tokens, *enc.grid)
    side = distiller.student.grid_side
    vfm_map = Tensor(prepared.vfm_tokens.T.reshape(-1, side, side).copy())
    f_s = [roi_align(content_map, boxes[0], trainer.ROI_N)]
    f_v = [roi_align(vfm_map, boxes[0], trainer.ROI_N).data]
    f_t = [encode_cls(crop_resize(prepared.image, boxes[0], cfg.student_res),
                      distiller.teacher)]
    manual, _ = total_loss(content_cos_loss(f_s, f_t), rcc_loss(f_s, f_v, cfg.tau),
                           Tensor(np.zeros(())), lam=0.0)
    T.backward(manual)
    grads_b = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}

    assert set(grads_a) == set(grads_b)
    for name in grads_a:
        np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant", ["coupled", "content"])
def test_single_stream_variants_match_hand_composition(tmp_path, variant):
    cfg = desk_cfg(tmp_path, lam=0.5, grid_lo=1, grid_hi=2)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg, variant)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    stack = prepared.sd_stack  # the step replaces it by the target it completes

    total, report_a = distiller.loss_for(prepared, np.random.default_rng(7))
    T.backward(total)
    grads_a = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}

    # coupled: both objectives on the standard-mode tokens; content: the
    # context term on the decoupled context stream at weight 0; neither has RCC
    distiller.optimizer.zero_grad()
    enc = encode_dense(prepared.image, distiller.student,
                       "standard" if variant == "coupled" else "decoupled")
    ctx = enc.tokens if variant == "coupled" else enc.context
    boxes = sample_grid(np.random.default_rng(7), cfg.grid_lo, cfg.grid_hi)
    content_map = T.tokens_to_chw(enc.tokens, *enc.grid)
    f_s = [roi_align(content_map, box, trainer.ROI_N) for box in boxes]
    f_t = [encode_cls(crop_resize(prepared.image, box, cfg.student_res), distiller.teacher)
           for box in boxes]
    target = context_target(context_teacher(prepared.vfm_tokens, stack, cfg), cfg.tau,
                            ctx.data.dtype)
    manual, report_b = total_loss(content_cos_loss(f_s, f_t), Tensor(np.zeros(())),
                                  context_loss(ctx, target, cfg.tau),
                                  lam=cfg.lam if variant == "coupled" else 0.0)
    T.backward(manual)
    grads_b = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}

    assert report_a == report_b
    assert set(grads_a) == set(grads_b)
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)


# --- teacher crops on a thread pool -----------------------------------------------------

def pool_cfg(tmp_path, **over):
    """A 24x24 grid (576 teacher tokens, above POOL_MIN_TOKENS) and 9 crops."""
    return desk_cfg(tmp_path, student_res=192, vfm_res=96, grid_lo=3, grid_hi=3, **over)


def record_crop_threads(monkeypatch, share=False):
    """The thread of each crop encoding, in call order. With ``share`` a
    helper's first crop waits until the calling thread has taken one."""
    threads, here, took = [], threading.get_ident(), threading.Event()
    real = trainer.encode_cls

    def recording(crop, params):
        me = threading.get_ident()
        threads.append(me)
        if me == here:
            took.set()
        elif share and threads.count(me) == 1:
            assert took.wait(10)
        return real(crop, params)

    monkeypatch.setattr(trainer, "encode_cls", recording)
    return threads


@pytest.mark.parametrize("variant", ["decoupled", "coupled", "content"])
def test_pooled_crops_match_sequential_loop_bitwise(tmp_path, monkeypatch, variant):
    cfg = pool_cfg(tmp_path, lam=0.5)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg, variant)
    assert distiller.teacher.grid_side ** 2 >= trainer.POOL_MIN_TOKENS
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    stack = prepared.sd_stack  # the step replaces it by the target it completes
    # one helper, held on its first crop until the calling thread takes one
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    threads = record_crop_threads(monkeypatch, share=True)

    total, report_a = distiller.loss_for(prepared, np.random.default_rng(5))
    T.backward(total)
    grads_a = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}
    assert len(threads) == 9 and len(set(threads)) == 2 and threading.get_ident() in threads

    # one crop after another on this thread
    monkeypatch.undo()
    distiller.optimizer.zero_grad()
    enc = encode_dense(prepared.image, distiller.student,
                       "standard" if variant == "coupled" else "decoupled")
    ctx = enc.tokens if variant == "coupled" else enc.context
    boxes = sample_grid(np.random.default_rng(5), cfg.grid_lo, cfg.grid_hi)
    f_t = []
    for box in boxes:
        f_t.append(encode_cls(crop_resize(prepared.image, box, cfg.student_res),
                              distiller.teacher))
    content_map = T.tokens_to_chw(enc.tokens, *enc.grid)
    f_s = [roi_align(content_map, box, trainer.ROI_N) for box in boxes]
    if variant == "decoupled":
        side = distiller.student.grid_side
        vfm_map = Tensor(prepared.vfm_tokens.T.reshape(-1, side, side).copy())
        l_rcc = rcc_loss(f_s, [roi_align(vfm_map, box, trainer.ROI_N).data for box in boxes],
                         cfg.tau)
    else:
        l_rcc = Tensor(np.zeros(()))
    target = context_target(context_teacher(prepared.vfm_tokens, stack, cfg), cfg.tau,
                            ctx.data.dtype)
    manual, report_b = total_loss(content_cos_loss(f_s, f_t), l_rcc,
                                  context_loss(ctx, target, cfg.tau),
                                  lam=0.0 if variant == "content" else cfg.lam)
    T.backward(manual)
    grads_b = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}

    assert report_a == report_b
    assert set(grads_a) == set(grads_b)
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)


def test_small_teacher_grid_encodes_crops_on_the_calling_thread(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path, grid_lo=2, grid_hi=2)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    assert distiller.teacher.grid_side ** 2 < trainer.POOL_MIN_TOKENS
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    threads = record_crop_threads(monkeypatch)
    before = threading.active_count()
    distiller.loss_for(prepared, np.random.default_rng(5))
    assert threads == [threading.get_ident()] * 4
    assert threading.active_count() == before


def counted_pools(monkeypatch):
    """Sizes of the pools vit constructs from here on, in order."""
    sizes = []
    pool = vit.ThreadPoolExecutor

    def counted(workers):
        sizes.append(workers)
        return pool(workers)

    monkeypatch.setattr(vit, "ThreadPoolExecutor", counted)
    return sizes


def test_a_step_at_two_cpus_encodes_its_crops_on_one_helper_and_the_caller(tmp_path,
                                                                           monkeypatch):
    cfg = pool_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    pools = counted_pools(monkeypatch)
    threads = record_crop_threads(monkeypatch)
    before = threading.active_count()
    distiller.loss_for(prepared, np.random.default_rng(5))
    assert pools == [1]
    assert len(threads) == 9 and len(set(threads)) <= 2
    assert threading.active_count() == before


class StudentFailure(Exception):
    pass


def test_pool_errors_surface_with_their_class_and_leave_no_thread(tmp_path, monkeypatch):
    cfg = pool_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    real_cls = trainer.encode_cls
    before = threading.active_count()

    # one crop forward fails
    calls = itertools.count()

    def failing_crop(crop, params):
        if next(calls) == 4:
            raise EvaluationError("planted non-finite crop")
        return real_cls(crop, params)

    monkeypatch.setattr(trainer, "encode_cls", failing_crop)
    with pytest.raises(EvaluationError, match="planted non-finite crop"):
        distiller.loss_for(prepared, np.random.default_rng(5))
    assert threading.active_count() == before

    # the student forward fails while crops are in flight (with two CPUs)
    pooled = len(os.sched_getaffinity(0)) >= 2
    started = threading.Event()

    ran = itertools.count()

    def slow_crop(crop, params):
        next(ran)
        started.set()
        time.sleep(0.05)
        return real_cls(crop, params)

    def failing_student(image, params, mode="standard"):
        assert started.wait(10) if pooled else not started.is_set()
        raise StudentFailure("planted student failure")

    monkeypatch.setattr(trainer, "encode_cls", slow_crop)
    monkeypatch.setattr(trainer, "encode_dense", failing_student)
    prepared.crop_targets.clear()  # the crops before the planted failure were kept
    with pytest.raises(StudentFailure, match="planted student failure"):
        distiller.loss_for(prepared, np.random.default_rng(5))
    assert threading.active_count() == before
    # the crops still queued when the student failed were dropped, not run
    # (without a pool, the lazy map has run none)
    assert next(ran) < len(sample_grid(np.random.default_rng(5), cfg.grid_lo, cfg.grid_hi))


def test_student_failure_cancels_the_queued_crops(tmp_path, monkeypatch):
    # two pool threads over 9 crops: the student side fails while each
    # thread holds one crop, and the 7 crops still queued never start
    cfg = pool_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    workers, real_cls = 2, trainer.encode_cls
    started, began, failed = [], threading.Semaphore(0), threading.Event()

    def held_crop(crop, params):
        started.append(crop)
        began.release()
        failed.wait(10)
        time.sleep(0.05)  # the failure reaches the cancel before this thread is free
        return real_cls(crop, params)

    def failing_student(image, params, mode="standard"):
        assert all(began.acquire(timeout=10) for _ in range(workers))
        failed.set()
        raise StudentFailure("planted student failure")

    monkeypatch.setattr(trainer, "_pool_threads", lambda tasks, params: workers)
    monkeypatch.setattr(trainer, "encode_cls", held_crop)
    monkeypatch.setattr(trainer, "encode_dense", failing_student)
    with pytest.raises(StudentFailure, match="planted student failure"):
        distiller.loss_for(prepared, np.random.default_rng(5))
    assert prepared.crop_targets == {}
    assert len(started) <= workers


# --- teacher crop targets kept per record -------------------------------------------------

def test_warm_records_train_like_fresh_ones(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path, epochs=2, grid_lo=1, grid_hi=3)
    _, manifest = desk_suite(tmp_path, cfg)
    records = read_manifest(manifest)

    def run(prepared=None):
        distiller = Distiller(cfg)
        prepared = prepared or [prepare_record(r, distiller.vfm, cfg, i)
                                for i, r in enumerate(records)]
        return train(distiller, prepared, cfg.epochs), distiller.student.state_bytes(), prepared

    fresh_reports, fresh_bytes, warm = run()
    assert all(rec.crop_targets for rec in warm)
    threads = record_crop_threads(monkeypatch)
    warm_reports, warm_bytes, _ = run(warm)
    assert threads == []
    assert warm_reports == fresh_reports and warm_bytes == fresh_bytes


def test_targets_of_another_teacher_are_never_served(tmp_path):
    cfg = desk_cfg(tmp_path, grid_lo=2, grid_hi=2)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    record = read_manifest(manifest)[0]
    fresh = prepare_record(record, distiller.vfm, cfg, 0)
    filled = prepare_record(record, distiller.vfm, cfg, 0)
    other = Distiller(desk_cfg(tmp_path, grid_lo=2, grid_hi=2, seed=3))
    other.loss_for(filled, np.random.default_rng(5))

    _, want = distiller.loss_for(fresh, np.random.default_rng(5))
    _, got = distiller.loss_for(filled, np.random.default_rng(5))
    assert got == want
    assert {key for key, _ in filled.crop_targets} == {other.teacher.fingerprint(),
                                                       distiller.teacher.fingerprint()}


def test_step_whose_boxes_all_hit_starts_no_pool(tmp_path, monkeypatch):
    cfg = pool_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    _, first = distiller.loss_for(prepared, np.random.default_rng(5))
    assert len(prepared.crop_targets) == 9

    def no_pool(*args, **kwargs):
        raise AssertionError("a crop pool was started")

    monkeypatch.setattr(vit, "ThreadPoolExecutor", no_pool)
    threads = record_crop_threads(monkeypatch)
    _, again = distiller.loss_for(prepared, np.random.default_rng(5))
    assert again == first and threads == []


# --- a record's provider forward beside its SD synthesis -------------------------------------

def record_provider_threads(monkeypatch, fail=False, hold_synthesis=False):
    """The thread of each provider forward, in call order. With
    ``hold_synthesis`` and two CPUs the SD synthesis waits until the provider
    forward has started, so that the helper, not the calling thread, runs it."""
    threads, began = [], threading.Event()
    real, real_synth = trainer.provider_tokens, trainer.synth_sd_attention

    def recording(vfm, image):
        threads.append(threading.get_ident())
        began.set()
        if fail:
            raise EvaluationError("planted provider failure")
        return real(vfm, image)

    def synthesis(*args, **kwargs):
        if hold_synthesis and vit.usable_cpus() > 1:
            assert began.wait(10)
        return real_synth(*args, **kwargs)

    monkeypatch.setattr(trainer, "provider_tokens", recording)
    monkeypatch.setattr(trainer, "synth_sd_attention", synthesis)
    return threads


def test_provider_beside_the_synthesis_prepares_the_same_bytes(tmp_path, monkeypatch):
    cfg = pool_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    vfm = trainer.build_models(cfg)[2]
    assert vfm.grid_side ** 2 >= trainer.POOL_MIN_TOKENS
    record = read_manifest(manifest)[0]
    threads = record_provider_threads(monkeypatch, hold_synthesis=True)
    pools = counted_pools(monkeypatch)
    prepared = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(vit, "usable_cpus", lambda cpus=cpus: cpus)
        prepared.append(prepare_record(record, vfm, cfg, 0))
    # one CPU: on the calling thread; two and four: on one helper
    here = threading.get_ident()
    assert threads[0] == here and here not in threads[1:]
    assert pools == [1, 1]
    one = prepared[0]
    for other in prepared[1:]:
        for a, b in [(one.image, other.image), (one.vfm_tokens, other.vfm_tokens),
                     (one.sd_stack.maps, other.sd_stack.maps)]:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_provider_failure_beside_the_synthesis_surfaces_and_leaves_no_thread(tmp_path,
                                                                             monkeypatch):
    cfg = pool_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    vfm = trainer.build_models(cfg)[2]
    record = read_manifest(manifest)[0]
    monkeypatch.setattr(vit, "usable_cpus", lambda: 2)
    threads = record_provider_threads(monkeypatch, fail=True, hold_synthesis=True)
    before = threading.active_count()
    with pytest.raises(EvaluationError, match="planted provider failure"):
        prepare_record(record, vfm, cfg, 0)
    assert threading.active_count() == before
    assert len(threads) == 1 and threads[0] != threading.get_ident()


@pytest.mark.parametrize("case", ["desk", "vfm-and-sd-files", "sd-file", "one-cpu"])
def test_record_prepared_without_a_pool(tmp_path, monkeypatch, case):
    cfg = desk_cfg(tmp_path) if case == "desk" else pool_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    vfm = trainer.build_models(cfg)[2]
    record = read_manifest(manifest)[0]
    monkeypatch.setattr(vit, "usable_cpus", lambda: 1)
    want = prepare_record(record, vfm, cfg, 0)
    if case in ("vfm-and-sd-files", "sd-file"):
        vfm_path, sd_path = str(tmp_path / "vfm0.dten"), str(tmp_path / "sd0.dten")
        write_tensor(vfm_path, {"tokens": want.vfm_tokens})
        write_tensor(sd_path, {"maps": want.sd_stack.maps})
        files = f" sd={sd_path}" + (f" vfm={vfm_path}" if case == "vfm-and-sd-files" else "")
        (tmp_path / "man.txt").write_text(
            f"image={record.image_path} segments={record.segments_path}{files}\n")
        record = read_manifest(str(tmp_path / "man.txt"))[0]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(vit, "usable_cpus", lambda: 1 if case == "one-cpu" else 2)
    monkeypatch.setattr(vit, "ThreadPoolExecutor", no_pool)
    threads = record_provider_threads(monkeypatch)
    got = prepare_record(record, vfm, cfg, 0)
    assert threads == ([] if case == "vfm-and-sd-files" else [threading.get_ident()])
    np.testing.assert_array_equal(got.vfm_tokens, want.vfm_tokens)
    np.testing.assert_array_equal(got.sd_stack.maps, want.sd_stack.maps)


# --- the context target stored per record ---------------------------------------------------

def test_first_step_stores_the_context_target_in_place_of_the_stack(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    stack = prepared.sd_stack
    _, first = distiller.loss_for(prepared, np.random.default_rng(5))
    assert prepared.sd_stack is None
    want = context_target(context_teacher(prepared.vfm_tokens, stack, cfg), cfg.tau,
                          distiller.student.dtype)
    assert prepared.context_target.dtype == want.dtype
    assert prepared.context_target.tobytes() == want.tobytes()

    calls = []
    monkeypatch.setattr(trainer, "context_teacher", lambda *args: calls.append(args))
    _, again = distiller.loss_for(prepared, np.random.default_rng(5))
    assert calls == [] and again == first


def test_the_stack_is_dropped_before_the_student_forward(tmp_path, monkeypatch):
    # the (layers, N, N) stack and the student's graph are never alive together
    cfg = desk_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg, n_images=1)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    seen = []

    def encode(*args):
        seen.append((prepared.sd_stack, prepared.context_target is not None))
        return encode_dense(*args)

    monkeypatch.setattr(trainer, "encode_dense", encode)
    distiller.loss_for(prepared, np.random.default_rng(5))
    assert seen == [(None, True)]


def test_same_seed_runs_bitwise_identical(tmp_path):
    cfg = desk_cfg(tmp_path, batch_size=1)
    suite, manifest = desk_suite(tmp_path, cfg)
    records = read_manifest(manifest)

    def run():
        distiller = Distiller(cfg)
        prepared = [prepare_record(r, distiller.vfm, cfg, i) for i, r in enumerate(records)]
        reports = train(distiller, prepared, 1)
        assert len(reports) == 4
        return reports, distiller.student.state_bytes()

    r1, bytes1 = run()
    r2, bytes2 = run()
    assert bytes1 == bytes2
    for a, b in zip(r1, r2):
        assert a == b


def test_provider_and_teacher_frozen_through_training(tmp_path):
    cfg = desk_cfg(tmp_path, batch_size=1)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    teacher_before = distiller.teacher.state_bytes()
    vfm_before = distiller.vfm.state_bytes()
    student_before = distiller.student.state_bytes()
    prepared = [prepare_record(r, distiller.vfm, cfg, i)
                for i, r in enumerate(read_manifest(manifest))]
    train(distiller, prepared[:3], 1)
    assert distiller.teacher.state_bytes() == teacher_before
    assert distiller.vfm.state_bytes() == vfm_before
    assert distiller.student.state_bytes() != student_before


def test_losses_finite_and_consistent(tmp_path):
    cfg = desk_cfg(tmp_path)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    report, = train(distiller, [prepared], 1)
    assert np.isfinite([report.l_context, report.l_content_cos, report.l_rcc, report.l_total]).all()
    assert abs(report.l_total - (report.l_content_cos + report.l_rcc + cfg.lam * report.l_context)) < 1e-9


# --- distill_run / checkpoints ----------------------------------------------------------------

def test_epochs_zero_checkpoint_equals_init(tmp_path):
    cfg = desk_cfg(tmp_path, epochs=0)
    suite, manifest = desk_suite(tmp_path, cfg)
    result = distill_run(replace(cfg, manifest=manifest))
    student, _ = load_student(result.checkpoint_path)
    assert student.state_bytes() == Distiller(cfg).student.state_bytes()
    assert open(result.metrics_path).read() == ""


def test_distill_run_writes_outputs_and_is_deterministic(tmp_path):
    cfg = desk_cfg(tmp_path, epochs=1)
    suite, manifest = desk_suite(tmp_path, cfg)
    result = distill_run(replace(cfg, manifest=manifest))
    metrics1 = open(result.metrics_path).read()
    assert len(result.reports) == 2  # 4 images / batch 2
    assert os.path.exists(os.path.join(cfg.report_dir, "effective_config.txt"))
    result2 = distill_run(replace(cfg, manifest=manifest))
    assert open(result2.metrics_path).read() == metrics1


def test_resume_reproduces_next_step_bitwise(tmp_path):
    cfg_full = desk_cfg(tmp_path, epochs=2)
    suite, manifest = desk_suite(tmp_path, cfg_full)
    full = distill_run(replace(cfg_full, manifest=manifest))

    half_dir = tmp_path / "half"
    cfg_half = desk_cfg(tmp_path, epochs=1,
                        checkpoint_dir=str(half_dir / "ckpt"),
                        report_dir=str(half_dir / "rep"))
    half = distill_run(replace(cfg_half, manifest=manifest))

    resumed_dir = tmp_path / "resumed"
    cfg_resume = desk_cfg(tmp_path, epochs=2, resume=half.checkpoint_path,
                          checkpoint_dir=str(resumed_dir / "ckpt"),
                          report_dir=str(resumed_dir / "rep"))
    resumed = distill_run(replace(cfg_resume, manifest=manifest))

    steps_per_epoch = len(full.reports) // 2
    assert resumed.reports[0] == full.reports[steps_per_epoch]
    assert resumed.reports == full.reports[steps_per_epoch:]


def test_resume_into_the_same_report_dir_keeps_earlier_metrics(tmp_path):
    cfg_full = desk_cfg(tmp_path / "full", epochs=2)
    _, manifest = desk_suite(tmp_path, cfg_full)
    full = distill_run(replace(cfg_full, manifest=manifest))
    half = distill_run(desk_cfg(tmp_path, epochs=1, manifest=manifest))
    resumed = distill_run(desk_cfg(tmp_path, epochs=2, resume=half.checkpoint_path,
                                   manifest=manifest))
    assert resumed.metrics_path == half.metrics_path
    assert open(resumed.metrics_path).read() == open(full.metrics_path).read()


def test_resume_refuses_a_metrics_log_shorter_than_its_step(tmp_path):
    _, manifest = desk_suite(tmp_path, desk_cfg(tmp_path))
    half = distill_run(desk_cfg(tmp_path, epochs=1, manifest=manifest))
    first_line = open(half.metrics_path).readline()
    with open(half.metrics_path, "w") as fh:
        fh.write(first_line)
    checkpoint = open(half.checkpoint_path, "rb").read()
    with pytest.raises(ConfigError, match=re.escape(half.metrics_path)):
        distill_run(desk_cfg(tmp_path, epochs=2, resume=half.checkpoint_path,
                             manifest=manifest))
    assert open(half.metrics_path).read() == first_line
    assert open(half.checkpoint_path, "rb").read() == checkpoint


# --- records prepared when their step comes ---------------------------------------------------

def test_a_resumed_run_prepares_only_the_records_of_its_steps(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path, batch_size=1)
    _, manifest = desk_suite(tmp_path, cfg)
    records = read_manifest(manifest)
    full = distill_run(desk_cfg(tmp_path / "full", batch_size=1, manifest=manifest))
    # the first two records alone: a checkpoint at step 2 of the full manifest
    head = tmp_path / "head.txt"
    head.write_text("".join(f"image={r.image_path} segments={r.segments_path}\n"
                            for r in records[:2]))
    half = distill_run(replace(cfg, manifest=str(head)))
    indices = []

    def spied(rec, vfm, cfg, index):
        indices.append(index)
        return prepare_record(rec, vfm, cfg, index)

    monkeypatch.setattr(trainer, "prepare_record", spied)
    resumed = distill_run(replace(cfg, manifest=manifest, resume=half.checkpoint_path))
    assert indices == [2, 3]
    assert open(resumed.metrics_path).read() == open(full.metrics_path).read()


def test_a_step_starts_after_the_records_of_the_step_before_are_freed(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path, batch_size=1, epochs=2)
    _, manifest = desk_suite(tmp_path, cfg, n_images=3)
    real = Distiller.step_batch
    held, dead = [], []

    def step_batch(distiller, prepared_list, rng):
        dead.append([ref() is None for ref in held])
        held[:] = [weakref.ref(prepared) for prepared in prepared_list]
        return real(distiller, prepared_list, rng)

    monkeypatch.setattr(Distiller, "step_batch", step_batch)
    distill_run(replace(cfg, manifest=manifest))
    assert dead == [[]] + [[True]] * 5


def test_distill_run_trains_like_a_resident_record_list(tmp_path):
    cfg = desk_cfg(tmp_path, epochs=2, grid_lo=1, grid_hi=3)
    _, manifest = desk_suite(tmp_path, cfg)
    result = distill_run(replace(cfg, manifest=manifest))
    distiller = Distiller(cfg)
    resident = [prepare_record(r, distiller.vfm, cfg, i)
                for i, r in enumerate(read_manifest(manifest))]
    reports = train(distiller, resident, cfg.epochs)
    assert open(result.metrics_path).read() == "".join(
        report.line(i) + "\n" for i, report in enumerate(reports))
    assert load_student(result.checkpoint_path)[0].state_bytes() == distiller.student.state_bytes()


def test_run_memory_does_not_grow_with_the_manifest(tmp_path):
    # a fixed crop grid, so that every step works on the same shapes
    cfg = desk_cfg(tmp_path, student_res=64, vfm_res=32, grid_lo=2, grid_hi=2)
    _, manifest = desk_suite(tmp_path, cfg, n_images=6)
    records = read_manifest(manifest)
    prepared = prepare_record(records[0], Distiller(cfg).vfm, cfg, 0)
    record_bytes = (prepared.image.nbytes + prepared.vfm_tokens.nbytes
                    + prepared.sd_stack.maps.nbytes)

    def peak(n):
        path = tmp_path / f"man{n}.txt"
        path.write_text("".join(f"image={r.image_path} segments={r.segments_path}\n"
                                for r in records[:n]))
        run_cfg = replace(cfg, manifest=str(path), report_dir=str(tmp_path / f"rep{n}"))
        tracemalloc.start()
        try:
            distill_run(run_cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # lazy set-up outside the measured runs
    two, six = peak(2), peak(6)
    assert six - two < record_bytes, (two, six, record_bytes)


def _refused_resume(tmp_path, capsys, resume, manifest, named, **over):
    """Resuming from ``resume`` with the desk config (``over`` applied) is
    refused with ``named`` by restore_into, which leaves the run's student
    and step as they were, by distill_run and on the CLI; the file is kept."""
    checkpoint = open(resume, "rb").read()
    other = desk_cfg(tmp_path, epochs=2, resume=resume, manifest=manifest, **over)
    target = Distiller(other)
    before = target.student.state_bytes()
    with pytest.raises(ConfigError, match=named):
        restore_into(target, resume)
    assert target.student.state_bytes() == before
    assert target.step_count == 0
    with pytest.raises(ConfigError, match=named):
        distill_run(other)
    config = tmp_path / "other.cfg"
    config.write_text(echo_config(other))
    assert run_cli(["distill", "--config", str(config)]) == 1
    assert re.search(named, capsys.readouterr().err)
    assert open(resume, "rb").read() == checkpoint


def test_resume_refuses_a_checkpoint_of_another_seed(tmp_path, capsys):
    _, manifest = desk_suite(tmp_path, desk_cfg(tmp_path))
    half = distill_run(desk_cfg(tmp_path, epochs=1, manifest=manifest))
    named = r"checkpoint\.dten: section 'seed' holds seed = 0, but the run has seed = 5$"
    _refused_resume(tmp_path, capsys, half.checkpoint_path, manifest, named, seed=5)


def test_a_rejected_resume_fails_before_any_record_is_prepared(tmp_path, monkeypatch):
    _, manifest = desk_suite(tmp_path, desk_cfg(tmp_path))
    half = distill_run(desk_cfg(tmp_path, epochs=1, manifest=manifest))
    prepared = []

    def spied(*args):
        prepared.append(args)
        return prepare_record(*args)

    monkeypatch.setattr(trainer, "prepare_record", spied)
    other = desk_cfg(tmp_path, epochs=2, seed=5, resume=half.checkpoint_path, manifest=manifest)
    with pytest.raises(ConfigError, match="section 'seed'"):
        distill_run(other)
    assert prepared == []


def _header_edited(tmp_path, path, where, name, value):
    """A copy of the checkpoint at ``path`` whose field ``name`` of section
    ``where`` holds ``value``: what a run of other settings would have written."""
    sections = read_tensor(path)
    sections[where][trainer._HEADER[where][0].index(name)] = value
    copy = str(tmp_path / "edited" / "checkpoint.dten")
    os.makedirs(os.path.dirname(copy), exist_ok=True)
    write_tensor(copy, sections)
    return copy


@pytest.mark.parametrize("field,value", [("lr", 2e-3), ("beta1", 0.8), ("beta2", 0.99),
                                         ("eps", 1e-6), ("weight_decay", 0.05),
                                         ("batch_size", 1)])
def test_resume_refuses_a_checkpoint_of_other_optimizer_settings(tmp_path, capsys, field, value):
    _, manifest = desk_suite(tmp_path, desk_cfg(tmp_path))
    half = distill_run(desk_cfg(tmp_path, epochs=1, manifest=manifest))
    # the run's own value is the one its first half wrote
    held = read_tensor(half.checkpoint_path)["optim"][trainer._HEADER["optim"][0].index(field)]
    resume = _header_edited(tmp_path, half.checkpoint_path, "optim", field, value)
    named = (rf"checkpoint\.dten: section 'optim' holds {field} = {re.escape(repr(float(value)))}, "
             rf"but the run has {field} = {re.escape(repr(float(held)))}$")
    _refused_resume(tmp_path, capsys, resume, manifest, named)


@pytest.mark.parametrize("over,where,name", [
    (dict(student_heads=4), "meta", "heads"), (dict(dtype="f32"), "meta", "dtype"),
    (dict(pixel_mean=0.3), "pixel", "pixel_mean"), (dict(pixel_std=0.9), "pixel", "pixel_std")])
def test_resume_refuses_a_checkpoint_of_another_student(tmp_path, capsys, over, where, name):
    # meta fields differ through the run's config; the pixel normalisation is
    # fixed, so the checkpoint's is written into a copy
    _, manifest = desk_suite(tmp_path, desk_cfg(tmp_path))
    half = distill_run(desk_cfg(tmp_path, epochs=1, manifest=manifest))
    resume = half.checkpoint_path
    if where == "pixel":
        resume, over = _header_edited(tmp_path, resume, where, name, over[name]), {}
    named = rf"checkpoint\.dten: section '{where}' holds {name} = .*, but the run has {name} = "
    _refused_resume(tmp_path, capsys, resume, manifest, named, **over)


def test_distill_run_validates_a_config_built_in_code(tmp_path):
    cfg = desk_cfg(tmp_path, seed=2 ** 31)
    _, manifest = desk_suite(tmp_path, cfg)
    with pytest.raises(ConfigError, match="seed"):
        distill_run(replace(cfg, manifest=manifest))
    assert not os.path.exists(cfg.report_dir)


@pytest.mark.parametrize("over", [dict(seed=2 ** 31), dict(epochs=-1), dict(dtype="f16"),
                                  dict(student_heads=3)], ids=["seed", "epochs", "dtype", "heads"])
def test_the_ablation_refuses_what_distill_run_refuses(tmp_path, over):
    cfg = desk_cfg(tmp_path, **over)
    suite, manifest = desk_suite(tmp_path, desk_cfg())
    with pytest.raises(ConfigError) as refused:
        distill_run(replace(cfg, manifest=manifest))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(refused.value))}$"):
        ablation_coupled_vs_decoupled(cfg, suite)
    assert not os.path.exists(cfg.report_dir)


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    cfg = desk_cfg(tmp_path)
    distiller = Distiller(cfg)
    p1 = str(tmp_path / "a.dten")
    p2 = str(tmp_path / "b.dten")
    save_checkpoint(p1, distiller.student, distiller.optimizer, 5, cfg.seed, cfg.batch_size)
    rebuilt = restore_into(Distiller(cfg), p1)
    assert rebuilt.step_count == 5
    save_checkpoint(p2, rebuilt.student, rebuilt.optimizer, rebuilt.step_count, cfg.seed,
                    cfg.batch_size)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("over,name", [(dict(student_depth=3), "depth"),
                                       (dict(student_width=32), "width")])
def test_restore_rejects_checkpoint_of_other_architecture(tmp_path, over, name):
    path = str(tmp_path / "ckpt.dten")
    source = Distiller(desk_cfg(tmp_path))
    save_checkpoint(path, source.student, source.optimizer, 3)
    target = Distiller(desk_cfg(tmp_path, **over))
    before = target.student.state_bytes()
    named = rf"ckpt\.dten: section 'meta' holds {name} = \d+, but the run has {name} = \d+$"
    with pytest.raises(ConfigError, match=named):
        restore_into(target, path)
    assert target.student.state_bytes() == before
    assert target.step_count == 0


def test_restore_rejects_extra_checkpoint_parameter(tmp_path):
    path = str(tmp_path / "ckpt.dten")
    save_checkpoint(path, Distiller(desk_cfg(tmp_path)).student)
    with pytest.raises(ConfigError, match="section 'meta' holds embed_dim = 8, but the run has"):
        restore_into(Distiller(desk_cfg(tmp_path, embed_dim=0)), path)


@pytest.mark.parametrize("section,value,named", [
    ("adam.v.cls", None, r"adam\.m\.cls"), ("adam.v.cls", np.zeros((3, 3)), r"adam\.v\.cls"),
    ("step", None, "'step'"), ("step", np.zeros(2, dtype=np.int32), "'step'"),
    ("seed", None, "'seed'"), ("seed", np.zeros(2, dtype=np.int32), "'seed'"),
    ("optim", None, "'optim'"), ("optim", np.zeros(5), "'optim'"),
    ("step", np.array([-2], dtype=np.int32), "'step' holds -2"),
    # a step of 1.5 would resume at step 1; a seed of 0.5 is not the run's 0
    ("step", np.array([1.5]), r"ckpt\.dten: section 'step' holds step = 1\.5, expected an integer"),
    ("seed", np.array([0.5]), r"ckpt\.dten: section 'seed' holds seed = 0\.5, but the run has seed = 0$"),
    ("step", np.array([np.inf]), r"ckpt\.dten: section 'step' holds step = inf, expected an")])
def test_restore_rejects_bad_moment_or_step_section(tmp_path, section, value, named):
    path = str(tmp_path / "ckpt.dten")
    source = Distiller(desk_cfg(tmp_path))
    save_checkpoint(path, source.student, source.optimizer, 3, 0, source.cfg.batch_size)
    sections = read_tensor(path)
    if value is None:
        del sections[section]
    else:
        sections[section] = value
    write_tensor(path, sections)
    target = Distiller(desk_cfg(tmp_path))
    before = target.student.state_bytes()
    with pytest.raises(ConfigError, match=named):
        restore_into(target, path)
    assert target.student.state_bytes() == before
    assert target.step_count == 0


def test_loaded_student_builds_no_graph(tmp_path):
    cfg = desk_cfg(tmp_path)
    source = Distiller(cfg).student
    path = str(tmp_path / "ckpt.dten")
    save_checkpoint(path, source)
    student, sections = load_student(path)
    assert student.state_bytes() == b"".join(
        sections[f"param.{name}"].tobytes() for name, _ in student.named_parameters())
    assert student.state_bytes() == source.state_bytes()
    image = np.random.default_rng(0).uniform(0, 1, (3, cfg.student_res, cfg.student_res))
    enc = encode_dense(image, student, "decoupled")
    for t in (enc.tokens, enc.context):
        assert t._parents == () and not t.requires_grad


def test_load_student_draws_nothing(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path)
    source = Distiller(cfg).student
    path = str(tmp_path / "ckpt.dten")
    save_checkpoint(path, source)

    def draw(*args, **kwargs):
        raise AssertionError("load_student drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", draw)
    student, _ = load_student(path)
    assert student.state_bytes() == source.state_bytes()
    assert not any(p.requires_grad for _, p in student.named_parameters())
    for name in ("patch_size", "depth", "width", "heads", "input_res", "embed_dim",
                 "pixel_mean", "pixel_std", "dtype", "grid_side", "frozen"):
        assert getattr(student, name) == getattr(source, name), name


def _poisoned_checkpoint(tmp_path, section):
    """A checkpoint whose ``section`` holds a NaN."""
    distiller = Distiller(desk_cfg(tmp_path))
    kind, _, name = section.partition(".")
    if kind == "param":
        arrays = {n: p.data for n, p in distiller.student.named_parameters()}
    else:
        moment, _, name = name.partition(".")
        arrays = getattr(distiller.optimizer, moment)
    arrays[name][0, 0] = np.nan
    path = str(tmp_path / "poisoned.dten")
    save_checkpoint(path, distiller.student, distiller.optimizer, 1)
    return path


@pytest.mark.parametrize("section", ["param.block1.wq", "adam.m.block1.wq", "adam.v.block0.w1"])
@pytest.mark.parametrize("loader", ["load_student", "restore_into"])
def test_checkpoint_with_non_finite_values_rejected(tmp_path, loader, section):
    path = _poisoned_checkpoint(tmp_path, section)
    target = Distiller(desk_cfg(tmp_path))
    before = target.student.state_bytes()
    with pytest.raises(ConfigError, match=rf"poisoned\.dten.*{section}"):
        if loader == "load_student":
            load_student(path)
        else:
            restore_into(target, path)
    assert target.student.state_bytes() == before
    assert target.step_count == 0


# restore_into reads the file through load_student, so both refuse what it
# refuses; each case runs both (a loop, not a parameter, so a case keeps one id)
_LOADERS = (lambda cfg, path: load_student(path),
            lambda cfg, path: restore_into(Distiller(cfg), path))


@pytest.mark.parametrize("section,edit", [
    ("param.cls", None), ("meta", None), ("pixel", None),
    ("meta", lambda data: data[:5]), ("pixel", lambda data: data[:1])])
def test_checkpoint_with_missing_or_short_section_rejected(tmp_path, capsys, section, edit):
    cfg = desk_cfg(tmp_path)
    suite, manifest = desk_suite(tmp_path, cfg)
    source = Distiller(cfg)
    path = str(tmp_path / "broken.dten")
    save_checkpoint(path, source.student)
    sections = read_tensor(path)
    if edit is None:
        del sections[section]
    else:
        sections[section] = edit(sections[section])
    write_tensor(path, sections)
    for load in _LOADERS:
        with pytest.raises(ConfigError, match=rf"broken\.dten.*'{section}'"):
            load(cfg, path)
    classes = str(tmp_path / "classes.dten")
    save_class_embeddings(classes, class_prototypes(source.teacher, suite.colors))
    assert run_cli(["eval-seg", "--checkpoint", path, "--manifest", manifest,
                    "--classes", classes]) == 1
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


def test_checkpoint_sections_name_every_constructor_field_once():
    # the sections' field order is a file format of its own, vit._META's; a
    # VitParams field missing from it would not round-trip through a checkpoint
    held = trainer._META_FIELDS + trainer._PIXEL_FIELDS
    assert held == vit._META == ("depth", "width", "heads", "patch_size", "input_res",
                                 "embed_dim", "dtype", "pixel_mean", "pixel_std")
    assert len(set(held)) == len(held)


_DEPTH_2_NAMES = [
    "patch.w", "patch.b", "cls", "pos",
    "block0.wq", "block0.bq", "block0.wk", "block0.bk", "block0.wv", "block0.bv",
    "block0.wo", "block0.bo", "block0.w1", "block0.b1", "block0.w2", "block0.b2",
    "block0.ln1_s", "block0.ln1_o", "block0.ln2_s", "block0.ln2_o",
    "block1.wq", "block1.bq", "block1.wk", "block1.bk", "block1.wv", "block1.bv",
    "block1.wo", "block1.bo", "block1.w1", "block1.b1", "block1.w2", "block1.b2",
    "block1.ln1_s", "block1.ln1_o", "block1.ln2_s", "block1.ln2_o",
    "proj"]


def test_checkpoint_parameters_follow_the_one_parameter_table(tmp_path):
    # a depth-2 student with projection: its parameter table, the file's
    # parameter sections and the blocks the forwards read are one thing
    cfg = desk_cfg(tmp_path)
    assert (cfg.student_depth, cfg.embed_dim) == (2, 8)
    source = Distiller(cfg)
    student = source.student
    table = dict(student.named_parameters())
    assert list(table) == list(vit.param_shapes(8, 2, 16, 2, 32, 8)) == _DEPTH_2_NAMES
    aliases = {"patch.w": student.w_patch, "patch.b": student.b_patch,
               "cls": student.cls_token, "pos": student.pos_embed, "proj": student.w_vl}
    for name, held in aliases.items():
        assert held is table[name], name
    for i, block in enumerate(student.blocks):
        assert list(vars(block)) == [name.split(".")[1] for name in _DEPTH_2_NAMES
                                     if name.startswith(f"block{i}.")]
        for field, held in vars(block).items():
            assert held is table[f"block{i}.{field}"], (i, field)

    for _, p in student.named_parameters():
        p.data = p.data + 0.01
    path = str(tmp_path / "ckpt.dten")
    save_checkpoint(path, student, source.optimizer, 1, cfg.seed, cfg.batch_size)
    assert [key[len("param."):] for key in read_tensor(path)
            if key.startswith("param.")] == _DEPTH_2_NAMES

    # restore_into writes through named_parameters; the forward reads blocks
    image = np.random.default_rng(3).uniform(0, 1, (3, 32, 32))
    target = Distiller(cfg)
    before = encode_dense(image, target.student, "decoupled").tokens.data
    restore_into(target, path)
    after = encode_dense(image, target.student, "decoupled").tokens.data
    want = encode_dense(image, student, "decoupled").tokens.data
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, want)


@pytest.mark.parametrize("name,value", [("depth", 2.5), ("width", np.inf), ("heads", np.nan)])
def test_load_student_refuses_a_meta_field_that_is_not_an_integer(tmp_path, name, value):
    # a float meta section whose field truncates to a valid integer (depth
    # 2.5 -> 2, the student's) must not load as that integer
    cfg = desk_cfg(tmp_path)
    path = str(tmp_path / "odd.dten")
    save_checkpoint(path, Distiller(cfg).student)
    sections = read_tensor(path)
    sections["meta"] = sections["meta"].astype(np.float64)
    sections["meta"][trainer._META_FIELDS.index(name)] = value
    write_tensor(path, sections)
    named = (rf"^{re.escape(path)}: section 'meta' holds {name} = {re.escape(repr(value))}, "
             r"expected an integer")
    for load in _LOADERS:
        with pytest.raises(ConfigError, match=named):
            load(cfg, path)


def test_load_student_refuses_meta_fields_that_build_no_encoder(tmp_path):
    # each field in range, but the width (16) is not divisible by the heads
    cfg = desk_cfg(tmp_path)
    path = str(tmp_path / "odd.dten")
    save_checkpoint(path, Distiller(cfg).student)
    sections = read_tensor(path)
    sections["meta"][trainer._META_FIELDS.index("heads")] = 3
    write_tensor(path, sections)
    named = rf"^{re.escape(path)}: section 'meta' holds width 16 not divisible by heads 3$"
    for load in _LOADERS:
        with pytest.raises(ConfigError, match=named):
            load(cfg, path)


@pytest.mark.parametrize("where,name,value", [
    ("meta", "heads", 0), ("meta", "patch_size", 0), ("meta", "dtype", 2),
    ("meta", "embed_dim", -1), ("pixel", "pixel_std", 0.0)])
def test_load_student_refuses_a_field_out_of_range(tmp_path, capsys, where, name, value):
    cfg = desk_cfg(tmp_path)
    path = str(tmp_path / "odd.dten")
    save_checkpoint(path, Distiller(cfg).student)
    sections = read_tensor(path)
    names = trainer._META_FIELDS if where == "meta" else trainer._PIXEL_FIELDS
    sections[where][names.index(name)] = value
    write_tensor(path, sections)
    named = rf"^{re.escape(path)}: section '{where}' holds {name} = "
    for load in _LOADERS:
        with pytest.raises(ConfigError, match=named):
            load(cfg, path)
    image = str(tmp_path / "img.dten")
    write_tensor(image, {"image": np.zeros((3, cfg.student_res, cfg.student_res))})
    assert run_cli(["dump-attn", "--checkpoint", path, "--image", image, "--layers", "0",
                    "--query", "cls", "--out", str(tmp_path / "dumps")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: section '{where}' holds {name} = ")


def test_load_student_checks_the_parameter_shapes_before_building(tmp_path, capsys):
    # a huge but in-range width must be refused before anything of its size
    # is allocated
    cfg = desk_cfg(tmp_path)
    path = str(tmp_path / "wide.dten")
    save_checkpoint(path, Distiller(cfg).student)
    sections = read_tensor(path)
    sections["meta"][trainer._META_FIELDS.index("width")] = 2**30
    sections["meta"][trainer._META_FIELDS.index("heads")] = 4
    write_tensor(path, sections)
    named = rf"^{re.escape(path)}: parameter 'patch.w' \(section 'param.patch.w'\) has shape "
    with pytest.raises(ConfigError, match=named):
        load_student(path)
    image = str(tmp_path / "img.dten")
    write_tensor(image, {"image": np.zeros((3, cfg.student_res, cfg.student_res))})
    assert run_cli(["dump-attn", "--checkpoint", path, "--image", image, "--layers", "0",
                    "--query", "cls", "--out", str(tmp_path / "dumps")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: parameter 'patch.w' ")


def test_step_count_is_the_optimizer_step(tmp_path):
    cfg = desk_cfg(tmp_path)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    prepared = [prepare_record(r, distiller.vfm, cfg, i)
                for i, r in enumerate(read_manifest(manifest))]
    train(distiller, prepared, 1)
    assert distiller.step_count == distiller.optimizer.t == 2
    path = str(tmp_path / "ckpt.dten")
    save_checkpoint(path, distiller.student, distiller.optimizer, 5, cfg.seed, cfg.batch_size)
    rebuilt = restore_into(Distiller(cfg), path)
    assert rebuilt.step_count == rebuilt.optimizer.t == 5
    with pytest.raises(AttributeError):
        rebuilt.step_count = 0


def test_restore_rejects_a_checkpoint_lacking_moments(tmp_path):
    # every block trains, so a checkpoint without a parameter's moment pair
    # cannot continue its optimisation
    path = str(tmp_path / "ckpt.dten")
    source = Distiller(desk_cfg(tmp_path))
    save_checkpoint(path, source.student, source.optimizer, 2, 0, source.cfg.batch_size)
    sections = read_tensor(path)
    del sections["adam.m.block0.wq"], sections["adam.v.block0.wq"]
    write_tensor(path, sections)
    target = Distiller(desk_cfg(tmp_path))
    before = target.student.state_bytes()
    with pytest.raises(ConfigError, match=r"ckpt\.dten: section 'adam\.m\.block0\.wq' is missing$"):
        restore_into(target, path)
    assert target.student.state_bytes() == before
    assert target.step_count == 0


def test_train_continues_from_step_count(tmp_path):
    cfg = desk_cfg(tmp_path, epochs=2)
    suite, manifest = desk_suite(tmp_path, cfg)
    records = read_manifest(manifest)

    def fresh():
        distiller = Distiller(cfg)
        return distiller, [prepare_record(r, distiller.vfm, cfg, i)
                           for i, r in enumerate(records)]

    full, prepared = fresh()
    all_reports = train(full, prepared, 2)
    split, prepared = fresh()
    first = train(split, prepared, 1)
    rest = train(split, prepared, 2)
    assert first + rest == all_reports
    assert train(split, prepared, 2) == []
    assert split.student.state_bytes() == full.student.state_bytes()


def test_manifest_and_in_memory_suites_train_identically(tmp_path):
    cfg = desk_cfg(tmp_path, epochs=2)
    suite, manifest = desk_suite(tmp_path, cfg)
    from_manifest, _ = load_student(distill_run(replace(cfg, manifest=manifest)).checkpoint_path)
    in_memory = Distiller(cfg)
    train(in_memory, prepare_suite(suite, in_memory, cfg), cfg.epochs)
    assert from_manifest.state_bytes() == in_memory.student.state_bytes()


def test_float32_training_path(tmp_path):
    cfg = desk_cfg(tmp_path, dtype="f32")
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    assert distiller.student.dtype == np.float32
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    report, = train(distiller, [prepared], 1)
    assert np.isfinite([report.l_context, report.l_content_cos, report.l_total]).all()


def test_no_projection_path(tmp_path):
    cfg = desk_cfg(tmp_path, embed_dim=0)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    assert distiller.student.w_vl is None
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    report, = train(distiller, [prepared], 1)
    assert np.isfinite(report.l_total)


def test_manifest_parsing_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("image=a.dten\n")
    from densedistill.errors import ConfigError

    with pytest.raises(ConfigError):
        read_manifest(str(bad))
    for line, message in (("image=a.dten segments", "bad manifest token 'segments'"),
                          ("image=a.dten segments=b.dten image=c.dten", "repeated key 'image'"),
                          ("image=a.dten segments=b.dten depth=c", "repeated key 'depth'")):
        bad.write_text(f"# header\n{line}\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(bad))}:2: .*{message}"):
            read_manifest(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ConfigError):
        read_manifest(str(empty))


def test_ingested_provider_and_sd_files(tmp_path):
    cfg = desk_cfg(tmp_path)
    suite, manifest = desk_suite(tmp_path, cfg)
    records = read_manifest(manifest)
    distiller = Distiller(cfg)
    base = prepare_record(records[0], distiller.vfm, cfg, 0)

    from densedistill.container import write_tensor

    vfm_path = str(tmp_path / "vfm0.dten")
    sd_path = str(tmp_path / "sd0.dten")
    write_tensor(vfm_path, {"tokens": base.vfm_tokens})
    write_tensor(sd_path, {"maps": base.sd_stack.maps,
                           "timestep": np.array([45], dtype=np.int32)})
    line = (f"image={records[0].image_path} segments={records[0].segments_path} "
            f"vfm={vfm_path} sd={sd_path}")
    man2 = tmp_path / "man2.txt"
    man2.write_text(line + "\n")
    rec2 = read_manifest(str(man2))[0]
    prepared2 = prepare_record(rec2, distiller.vfm, cfg, 0)
    np.testing.assert_array_equal(prepared2.vfm_tokens, base.vfm_tokens)
    np.testing.assert_array_equal(prepared2.sd_stack.maps, base.sd_stack.maps)


def test_sd_file_with_maps_not_3d_rejected(tmp_path):
    cfg = desk_cfg(tmp_path, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    rec = read_manifest(manifest)[0]
    sd_path = str(tmp_path / "sd0.dten")
    write_tensor(sd_path, {"maps": np.full(16, 1.0 / 16)})
    (tmp_path / "man.txt").write_text(
        f"image={rec.image_path} segments={rec.segments_path} sd={sd_path}\n")
    with pytest.raises(ConfigError, match=f"{re.escape(sd_path)}: section 'maps' has shape"):
        prepare_record(read_manifest(cfg.manifest)[0], Distiller(cfg).vfm, cfg, 0)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    assert run_cli(["distill", "--config", str(cfg_path)]) == 1


def test_sd_file_sized_for_another_token_count_rejected(tmp_path):
    # a valid 16-token stack beside a 64-token student and provider
    cfg = desk_cfg(tmp_path, student_res=64, vfm_res=32, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    rec = read_manifest(manifest)[0]
    sd_path = str(tmp_path / "sd0.dten")
    write_tensor(sd_path, {"maps": np.full((3, 16, 16), 1.0 / 16)})
    (tmp_path / "man.txt").write_text(
        f"image={rec.image_path} segments={rec.segments_path} sd={sd_path}\n")
    with pytest.raises(ConfigError, match=f"{re.escape(sd_path)}: .*"
                                          r"expected \(maps, 64, 64\) for 64 provider tokens"):
        prepare_record(read_manifest(cfg.manifest)[0], Distiller(cfg).vfm, cfg, 0)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    assert run_cli(["distill", "--config", str(cfg_path)]) == 1


def test_sd_file_with_non_finite_maps_rejected(tmp_path, capsys):
    # NaN fails both of the stack's comparisons, so it must be refused apart
    cfg = desk_cfg(tmp_path, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    rec = read_manifest(manifest)[0]
    maps = np.full((3, 16, 16), 1.0 / 16)
    maps[1, 2, 3] = np.nan
    sd_path = str(tmp_path / "sd0.dten")
    write_tensor(sd_path, {"maps": maps})
    (tmp_path / "man.txt").write_text(
        f"image={rec.image_path} segments={rec.segments_path} sd={sd_path}\n")
    named = f"{re.escape(sd_path)}: section 'maps' holds non-finite values"
    with pytest.raises(ConfigError, match=named):
        prepare_record(read_manifest(cfg.manifest)[0], Distiller(cfg).vfm, cfg, 0)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    capsys.readouterr()
    assert run_cli(["distill", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {sd_path}: section 'maps'")


def test_sd_file_with_zero_maps_rejected(tmp_path, capsys):
    cfg = desk_cfg(tmp_path, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    rec = read_manifest(manifest)[0]
    sd_path = str(tmp_path / "sd0.dten")
    write_tensor(sd_path, {"maps": np.zeros((0, 16, 16))})
    (tmp_path / "man.txt").write_text(
        f"image={rec.image_path} segments={rec.segments_path} sd={sd_path}\n")
    named = rf"{re.escape(sd_path)}: section 'maps' has shape \(0, 16, 16\), .*maps >= 1"
    with pytest.raises(ConfigError, match=named):
        prepare_record(read_manifest(cfg.manifest)[0], Distiller(cfg).vfm, cfg, 0)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    capsys.readouterr()
    assert run_cli(["distill", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {sd_path}: section 'maps'")


def test_image_at_another_resolution_rejected_before_any_step(tmp_path, capsys, monkeypatch):
    # a 24-px image beside a 32-px student: the provider resizes it, so
    # only the student's first forward on it would fail
    cfg = desk_cfg(tmp_path, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    recs = read_manifest(manifest)
    image_path = str(tmp_path / "small.dten")
    write_tensor(image_path, {"image": np.full((3, 24, 24), 0.5)})
    (tmp_path / "man.txt").write_text(
        f"image={recs[0].image_path} segments={recs[0].segments_path}\n"
        f"image={image_path} segments={recs[1].segments_path}\n")
    named = rf"{re.escape(image_path)}: section 'image' has shape \(3, 24, 24\), expected"
    with pytest.raises(ConfigError, match=named):
        prepare_record(read_manifest(cfg.manifest)[1], Distiller(cfg).vfm, cfg, 1)

    def step_batch(*args, **kwargs):
        raise AssertionError("a step ran before every record was checked")

    monkeypatch.setattr(Distiller, "step_batch", step_batch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    capsys.readouterr()
    assert run_cli(["distill", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {image_path}: section 'image'")


def _refused_before_any_step(tmp_path, capsys, monkeypatch, cfg, named):
    """distill_run of ``cfg`` on the CLI exits 1 naming ``named`` before any step."""
    def step_batch(*args, **kwargs):
        raise AssertionError("a step ran before every record was checked")

    monkeypatch.setattr(Distiller, "step_batch", step_batch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    capsys.readouterr()
    assert run_cli(["distill", "--config", str(cfg_path)]) == 1
    assert re.match(f"error: {named}", capsys.readouterr().err)


@pytest.mark.parametrize("with_vfm", [False, True], ids=["provider-forward", "vfm-file"])
def test_non_finite_image_rejected_before_any_step(tmp_path, capsys, monkeypatch, with_vfm):
    # batch 1: the good first record's step would run before the second is prepared
    cfg = desk_cfg(tmp_path, batch_size=1, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    recs = read_manifest(manifest)
    image = read_tensor(recs[1].image_path)["image"]
    image[1, 5, 7] = np.nan
    image_path = str(tmp_path / "nan.dten")
    write_tensor(image_path, {"image": image})
    vfm = ""
    if with_vfm:
        vfm = f" vfm={tmp_path / 'vfm1.dten'}"
        write_tensor(str(tmp_path / "vfm1.dten"), {"tokens": np.ones((16, 12))})
    (tmp_path / "man.txt").write_text(
        f"image={recs[0].image_path} segments={recs[0].segments_path}\n"
        f"image={image_path} segments={recs[1].segments_path}{vfm}\n")
    named = f"{re.escape(image_path)}: section 'image' holds non-finite values"
    with pytest.raises(ConfigError, match=named):
        prepare_record(read_manifest(cfg.manifest)[1], Distiller(cfg).vfm, cfg, 1)
    _refused_before_any_step(tmp_path, capsys, monkeypatch, cfg, named)


def test_sd_file_whose_rows_do_not_sum_to_one_rejected_before_any_step(tmp_path, capsys,
                                                                         monkeypatch):
    cfg = desk_cfg(tmp_path, batch_size=1, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    recs = read_manifest(manifest)
    sd_path = str(tmp_path / "sd1.dten")
    write_tensor(sd_path, {"maps": np.full((3, 16, 16), 1.0 / 15)})
    (tmp_path / "man.txt").write_text(
        f"image={recs[0].image_path} segments={recs[0].segments_path}\n"
        f"image={recs[1].image_path} segments={recs[1].segments_path} sd={sd_path}\n")
    named = f"{re.escape(sd_path)}: section 'maps' holds a map that is not row-stochastic"
    with pytest.raises(ConfigError, match=named):
        prepare_record(read_manifest(cfg.manifest)[1], Distiller(cfg).vfm, cfg, 1)
    _refused_before_any_step(tmp_path, capsys, monkeypatch, cfg, named)


def test_segments_file_sized_for_another_token_count_rejected(tmp_path):
    cfg = desk_cfg(tmp_path, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    rec = read_manifest(manifest)[0]
    seg_path = str(tmp_path / "seg0.dten")
    write_tensor(seg_path, {"labels": np.zeros((3, 3), dtype=np.int32)})
    (tmp_path / "man.txt").write_text(f"image={rec.image_path} segments={seg_path}\n")
    with pytest.raises(ConfigError, match=(rf"{re.escape(seg_path)}: section 'labels' has "
                                           rf"shape \(3, 3\), expected \(4, 4\)$")):
        prepare_record(read_manifest(cfg.manifest)[0], Distiller(cfg).vfm, cfg, 0)


def test_segments_file_of_the_right_size_but_not_the_grid_rejected_before_any_step(
        tmp_path, capsys, monkeypatch):
    # 16 labels for a 4 x 4 provider grid, as a (16,) map: the SD stack is
    # synthesised from a 2-D map, so only the last record's step would fail
    cfg = desk_cfg(tmp_path, batch_size=1, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    recs = read_manifest(manifest)
    seg_path = str(tmp_path / "flat.dten")
    write_tensor(seg_path, {"labels": read_tensor(recs[1].segments_path)["labels"].reshape(-1)})
    (tmp_path / "man.txt").write_text(
        f"image={recs[0].image_path} segments={recs[0].segments_path}\n"
        f"image={recs[1].image_path} segments={seg_path}\n")
    named = rf"{re.escape(seg_path)}: section 'labels' has shape \(16,\), expected \(4, 4\)$"
    with pytest.raises(ConfigError, match=named):
        prepare_record(read_manifest(cfg.manifest)[1], Distiller(cfg).vfm, cfg, 1)
    _refused_before_any_step(tmp_path, capsys, monkeypatch, cfg, named)


def _second_record_with_labels(tmp_path, labels, sd=False):
    """A batch-1 desk config whose manifest's second record reads ``labels``
    from its own file, with a uniform ``sd=`` stack if ``sd``; returns the
    config and that file's path."""
    cfg = desk_cfg(tmp_path, batch_size=1, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    recs = read_manifest(manifest)
    seg_path = str(tmp_path / "labels1.dten")
    write_tensor(seg_path, {"labels": labels})
    extra = ""
    if sd:
        extra = f" sd={tmp_path / 'sd1.dten'}"
        write_tensor(str(tmp_path / "sd1.dten"), {"maps": np.full((3, 16, 16), 1.0 / 16)})
    (tmp_path / "man.txt").write_text(
        f"image={recs[0].image_path} segments={recs[0].segments_path}\n"
        f"image={recs[1].image_path} segments={seg_path}{extra}\n")
    return cfg, seg_path


@pytest.mark.parametrize("sd", [False, True], ids=["synthesised", "sd-file"])
@pytest.mark.parametrize("bad,held", [
    (np.nan, "nan, expected a whole number in"), (1.5, "1.5, expected a whole number in"),
    (-1, "-1.0, outside"), (np.inf, "inf, outside"),
], ids=["nan", "half", "negative", "inf"])
def test_segments_file_holding_a_label_eval_refuses_rejected_before_any_step(
        tmp_path, capsys, monkeypatch, bad, held, sd):
    # distill refuses what eval-seg and eval-region refuse; with no class
    # file, a label is a whole number in [0, inf)
    labels = np.zeros((4, 4))
    labels[1, 2] = bad
    cfg, seg_path = _second_record_with_labels(tmp_path, labels, sd)
    named = re.escape(f"{seg_path}: section 'labels' holds label {held} [0, inf)")
    _refused_before_any_step(tmp_path, capsys, monkeypatch, cfg, named + "$")


def test_sd_record_with_a_flat_labels_map_rejected_before_any_step(tmp_path, capsys,
                                                                   monkeypatch):
    # an sd= record takes its labels on the provider's grid or at the image's
    # resolution, the two shapes eval-seg scores
    cfg, seg_path = _second_record_with_labels(tmp_path, np.zeros(16, dtype=np.int32), sd=True)
    named = re.escape(f"{seg_path}: section 'labels' has shape (16,), "
                      "expected (4, 4) or (32, 32)")
    _refused_before_any_step(tmp_path, capsys, monkeypatch, cfg, named + "$")


def test_sd_record_with_labels_at_image_resolution_trains(tmp_path, capsys):
    cfg, _ = _second_record_with_labels(tmp_path, np.ones((32, 32), dtype=np.int32), sd=True)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    assert run_cli(["distill", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    _, sections = load_student(os.path.join(cfg.checkpoint_dir, trainer.CHECKPOINT_NAME))
    assert int(sections["step"][0]) == 2


def _nan_tokens():
    tokens = np.ones((16, 12))
    tokens[3, 4] = np.nan
    return tokens


@pytest.mark.parametrize("tokens,message", [
    (np.ones((9, 12)), r"has shape \(9, 12\), expected \(16, D\)"),
    (_nan_tokens(), "holds non-finite values"),
    (np.ones(16), r"has shape \(16,\), expected \(16, D\)"),
    (np.ones((16, 0)), r"has shape \(16, 0\), expected \(16, D\) .*, D >= 1"),
    (np.where(np.arange(16)[:, None] == 3, 0.0, np.ones((16, 12))), "holds an all-zero row"),
], ids=["nine-tokens", "non-finite", "one-d", "zero-width", "zero-row"])
def test_malformed_vfm_tokens_rejected_naming_the_file(tmp_path, capsys, tokens, message):
    # 16-token student and provider grids; the vfm file is checked before the
    # segments file, which is sized for 16 tokens
    cfg = desk_cfg(tmp_path, manifest=str(tmp_path / "man.txt"))
    _, manifest = desk_suite(tmp_path, cfg)
    rec = read_manifest(manifest)[0]
    vfm_path = str(tmp_path / "vfm0.dten")
    write_tensor(vfm_path, {"tokens": tokens})
    (tmp_path / "man.txt").write_text(
        f"image={rec.image_path} segments={rec.segments_path} vfm={vfm_path}\n")
    with pytest.raises(ConfigError, match=f"{re.escape(vfm_path)}: section 'tokens' {message}"):
        prepare_record(read_manifest(cfg.manifest)[0], Distiller(cfg).vfm, cfg, 0)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    capsys.readouterr()
    assert run_cli(["distill", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {vfm_path}: section 'tokens'")


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_sd_file_with_infinite_maps_rejected_as_non_finite(tmp_path, value):
    cfg = desk_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg)
    maps = np.full((3, 16, 16), 1.0 / 16)
    maps[2, 0, 5] = value
    sd_path = str(tmp_path / "sd0.dten")
    write_tensor(sd_path, {"maps": maps})
    rec = replace(read_manifest(manifest)[0], sd_path=sd_path)
    with pytest.raises(ConfigError, match=f"{re.escape(sd_path)}: section 'maps' holds non-finite"):
        read_record(rec, Distiller(cfg).vfm, cfg)


def test_read_record_keeps_no_copy_beside_the_arrays_it_returns(tmp_path):
    # an 8 MiB SD stack and the provider tokens are read into the very
    # arrays read_record returns; neither is copied on the way
    cfg = desk_cfg(tmp_path, student_res=128, vfm_res=64)  # 256 tokens
    _, manifest = desk_suite(tmp_path, cfg)
    vfm_path, sd_path = str(tmp_path / "vfm0.dten"), str(tmp_path / "sd0.dten")
    write_tensor(vfm_path, {"tokens": np.random.default_rng(0).standard_normal((256, 12))})
    write_tensor(sd_path, {"maps": np.full((16, 256, 256), 1.0 / 256)})
    rec = replace(read_manifest(manifest)[0], vfm_path=vfm_path, sd_path=sd_path)
    vfm = Distiller(cfg).vfm
    tracemalloc.start()
    try:
        image, segments, tokens, stack = read_record(rec, vfm, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = image.nbytes + segments.nbytes + tokens.nbytes + stack.maps.nbytes
    assert stack.maps.nbytes >= 8 * 2**20
    assert peak <= returned + 2**20, (peak, returned)


@pytest.mark.parametrize("key,name", [("image", "image"), ("segments", "labels"),
                                      ("vfm", "tokens"), ("sd", "maps")])
def test_manifest_file_without_its_section_rejected(tmp_path, key, name):
    cfg = desk_cfg(tmp_path)
    _, manifest = desk_suite(tmp_path, cfg)
    rec = read_manifest(manifest)[0]
    distiller = Distiller(cfg)
    base = prepare_record(rec, distiller.vfm, cfg, 0)
    paths = {"image": rec.image_path, "segments": rec.segments_path,
             "vfm": str(tmp_path / "vfm0.dten"), "sd": str(tmp_path / "sd0.dten")}
    write_tensor(paths["vfm"], {"tokens": base.vfm_tokens})
    write_tensor(paths["sd"], {"maps": base.sd_stack.maps})
    write_tensor(paths[key], {"other": np.zeros(3)})
    man = tmp_path / "man.txt"
    man.write_text(" ".join(f"{k}={v}" for k, v in paths.items()) + "\n")
    with pytest.raises(ConfigError, match=f"{re.escape(paths[key])}: section '{name}' is missing"):
        prepare_record(read_manifest(str(man))[0], distiller.vfm, cfg, 0)


# --- teacher work stays out of the graph ----------------------------------------------

@pytest.mark.parametrize("variant", ["decoupled", "coupled", "content"])
def test_a_training_step_dispatches_no_graph_free_op(monkeypatch, variant):
    """Teacher targets and provider rows are arrays, so each op a training
    step dispatches records a gradient rule."""
    cfg, suite = shipped_ablation_config()
    distiller = Distiller(cfg, variant)
    prepared = prepare_suite(replace(suite, samples=suite.samples[:1]), distiller, cfg)[0]
    dispatch, calls, graph_free = T.from_op, [], []

    def audited(data, parents, backward):
        out = dispatch(data, parents, backward)
        calls.append(backward)
        if out._node is None:
            graph_free.append(backward.__qualname__)
        return out

    monkeypatch.setattr(T, "from_op", audited)
    monkeypatch.setattr(regions, "from_op", audited)
    rng = np.random.default_rng([cfg.seed, trainer.STREAM_STEP, 0])
    distiller.loss_for(prepared, rng)
    assert len(calls) > 300
    assert graph_free == []
