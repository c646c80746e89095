"""Trainer: optimizer closed forms, pipeline wiring, determinism, round-trips."""

import os

import numpy as np
import pytest

from densedistill import tensor as T
from densedistill.config import RunConfig
from densedistill.errors import ConfigError
from densedistill.evalsuite import train_variant
from densedistill.losses import content_cos_loss, rcc_loss, total_loss
from densedistill.regions import FULL_BOX, crop_resize, roi_align, sample_grid
from densedistill.tensor import Tensor
from densedistill.trainer import (
    AdamW,
    Distiller,
    adamw_step,
    distill_run,
    load_student,
    prepare_record,
    read_manifest,
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

def test_lambda_zero_matches_content_plus_rcc_gradient(tmp_path):
    cfg = desk_cfg(tmp_path, lam=0.0, grid_lo=1, grid_hi=1)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)

    total, _ = distiller.loss_for(prepared, np.random.default_rng(99), "decoupled")
    T.backward(total)
    grads_a = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}

    # independent composition: content + RCC only, same single full-image crop
    distiller.optimizer.zero_grad()
    enc = encode_dense(prepared.image, distiller.student, "decoupled")
    boxes = sample_grid(np.random.default_rng(99), 1, 1)
    assert boxes == [FULL_BOX]
    content_map = enc.dense()
    side = distiller.student.grid_side
    vfm_map = Tensor(prepared.vfm_tokens.T.reshape(-1, side, side).copy())
    f_s = [roi_align(content_map, boxes[0], cfg.roi_n)]
    f_v = [roi_align(vfm_map, boxes[0], cfg.roi_n)]
    f_t = [encode_cls(crop_resize(prepared.image, boxes[0], cfg.student_res),
                      distiller.teacher)]
    manual, _ = total_loss(content_cos_loss(f_s, f_t), rcc_loss(f_s, f_v, cfg.tau),
                           Tensor(np.zeros(())), lam=0.0, tau=cfg.tau)
    T.backward(manual)
    grads_b = {name: p.grad.copy() for name, p in distiller.student.named_parameters()
               if p.grad is not None}

    assert set(grads_a) == set(grads_b)
    for name in grads_a:
        np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-12, err_msg=name)


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
    result = distill_run(cfg, manifest)
    student, _ = load_student(result.checkpoint_path)
    assert student.state_bytes() == Distiller(cfg).student.state_bytes()
    assert open(result.metrics_path).read() == ""


def test_distill_run_writes_outputs_and_is_deterministic(tmp_path):
    cfg = desk_cfg(tmp_path, epochs=1)
    suite, manifest = desk_suite(tmp_path, cfg)
    result = distill_run(cfg, manifest)
    metrics1 = open(result.metrics_path).read()
    assert len(result.reports) == 2  # 4 images / batch 2
    assert os.path.exists(os.path.join(cfg.report_dir, "effective_config.txt"))
    result2 = distill_run(cfg, manifest)
    assert open(result2.metrics_path).read() == metrics1


def test_resume_reproduces_next_step_bitwise(tmp_path):
    cfg_full = desk_cfg(tmp_path, epochs=2)
    suite, manifest = desk_suite(tmp_path, cfg_full)
    full = distill_run(cfg_full, manifest)

    half_dir = tmp_path / "half"
    cfg_half = desk_cfg(tmp_path, epochs=1,
                        checkpoint_dir=str(half_dir / "ckpt"),
                        report_dir=str(half_dir / "rep"))
    half = distill_run(cfg_half, manifest)

    resumed_dir = tmp_path / "resumed"
    cfg_resume = desk_cfg(tmp_path, epochs=2, resume=half.checkpoint_path,
                          checkpoint_dir=str(resumed_dir / "ckpt"),
                          report_dir=str(resumed_dir / "rep"))
    resumed = distill_run(cfg_resume, manifest)

    steps_per_epoch = len(full.reports) // 2
    assert resumed.reports[0] == full.reports[steps_per_epoch]
    assert resumed.reports == full.reports[steps_per_epoch:]


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    cfg = desk_cfg(tmp_path)
    distiller = Distiller(cfg)
    p1 = str(tmp_path / "a.dten")
    p2 = str(tmp_path / "b.dten")
    save_checkpoint(p1, distiller.student, distiller.optimizer, 5)
    rebuilt = restore_into(Distiller(cfg), p1)
    assert rebuilt.step_count == 5
    save_checkpoint(p2, rebuilt.student, rebuilt.optimizer, rebuilt.step_count)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("over,name", [(dict(student_depth=3), "'block2."),
                                       (dict(student_width=32), "'patch.w'")])
def test_restore_rejects_checkpoint_of_other_architecture(tmp_path, over, name):
    path = str(tmp_path / "ckpt.dten")
    source = Distiller(desk_cfg(tmp_path))
    save_checkpoint(path, source.student, source.optimizer, 3)
    target = Distiller(desk_cfg(tmp_path, **over))
    before = target.student.state_bytes()
    with pytest.raises(ConfigError, match=name):
        restore_into(target, path)
    assert target.student.state_bytes() == before
    assert target.step_count == 0


def test_restore_rejects_extra_checkpoint_parameter(tmp_path):
    path = str(tmp_path / "ckpt.dten")
    save_checkpoint(path, Distiller(desk_cfg(tmp_path)).student)
    with pytest.raises(ConfigError, match="'proj'"):
        restore_into(Distiller(desk_cfg(tmp_path, embed_dim=0)), path)


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
    for t in (enc.tokens, enc.cls, enc.decoupled.x_context, enc.decoupled.x_content):
        assert t._parents == () and not t.requires_grad


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
    from_manifest, _ = load_student(distill_run(cfg, manifest).checkpoint_path)
    in_memory = train_variant(cfg, suite, "decoupled").student
    assert from_manifest.state_bytes() == in_memory.state_bytes()


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


def test_trainable_layers_restricts_updates(tmp_path):
    cfg = desk_cfg(tmp_path, trainable_layers=1)
    suite, manifest = desk_suite(tmp_path, cfg)
    distiller = Distiller(cfg)
    prepared = prepare_record(read_manifest(manifest)[0], distiller.vfm, cfg, 0)
    total, _ = distiller.loss_for(prepared, np.random.default_rng(0))
    T.backward(total)
    for name, p in distiller.student.named_parameters():
        if name.startswith("block0."):
            assert p.grad is None, name
    assert distiller.student.blocks[1].wq.grad is not None
    assert distiller.student.w_patch.grad is not None  # embeddings stay trainable


def test_manifest_parsing_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("image=a.dten\n")
    from densedistill.errors import ConfigError

    with pytest.raises(ConfigError):
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
    assert prepared2.sd_stack.source == "ingested"
    assert prepared2.sd_stack.timestep == 45
