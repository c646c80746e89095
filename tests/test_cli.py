"""CLI surface: subcommands, exit codes, output stability."""

import pytest

from densedistill.cli import run_cli
from densedistill.config import RunConfig, echo_config
from densedistill.container import write_tensor
from densedistill.evalsuite import class_prototypes, save_class_embeddings
from densedistill.synthdata import make_suite, write_suite
from densedistill.trainer import Distiller, distill_run, load_student


def mini_cfg(tmp_path, **over):
    base = dict(student_patch=8, student_res=32, student_depth=2, student_width=16,
                student_heads=2, embed_dim=8, vfm_patch=8, vfm_res=32, vfm_depth=1,
                vfm_width=8, vfm_heads=1, grid_lo=1, grid_hi=2, epochs=1, batch_size=2,
                seed=0, lr=3e-3, weight_decay=0.0,
                manifest=str(tmp_path / "data" / "manifest.txt"),
                checkpoint_dir=str(tmp_path / "ckpt"),
                report_dir=str(tmp_path / "rep"))
    base.update(over)
    return RunConfig(**base)


@pytest.fixture()
def trained(tmp_path):
    cfg = mini_cfg(tmp_path)
    suite = make_suite(seed=0, n_images=4, side=4, patch=8, num_classes=3)
    write_suite(str(tmp_path / "data"), suite)
    result = distill_run(cfg)
    classes_path = str(tmp_path / "classes.dten")
    save_class_embeddings(classes_path, class_prototypes(Distiller(cfg).teacher, suite.colors))
    return cfg, suite, result, classes_path


def test_gradcheck_deterministic(capsys):
    assert run_cli(["gradcheck", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["gradcheck", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "gradcheck: 22/22 passed" in first


def test_unknown_subcommand_exit_one(capsys):
    assert run_cli(["frobnicate"]) == 1


def test_distill_epochs_zero_checkpoint_equals_init(tmp_path, capsys):
    cfg = mini_cfg(tmp_path, epochs=0)
    suite = make_suite(seed=0, n_images=4, side=4, patch=8, num_classes=3)
    write_suite(str(tmp_path / "data"), suite)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(echo_config(cfg))
    assert run_cli(["distill", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "steps=0" in out
    student, _ = load_student(str(tmp_path / "ckpt" / "checkpoint.dten"))
    assert student.state_bytes() == Distiller(cfg).student.state_bytes()


def test_distill_and_eval_subcommands(tmp_path, trained, capsys):
    cfg, suite, result, classes_path = trained
    code = run_cli(["eval-seg", "--checkpoint", result.checkpoint_path,
                    "--manifest", cfg.manifest, "--classes", classes_path])
    out = capsys.readouterr().out
    assert code == 0
    miou_line = [l for l in out.splitlines() if l.startswith("miou=")]
    assert len(miou_line) == 1
    assert 0.0 <= float(miou_line[0].split("=")[1]) <= 1.0

    for mode in ("boxes", "masks"):
        code = run_cli(["eval-region", "--checkpoint", result.checkpoint_path,
                        "--manifest", cfg.manifest, "--classes", classes_path,
                        "--regions", mode])
        out = capsys.readouterr().out
        assert code == 0
        macc_line = [l for l in out.splitlines() if l.startswith("macc=")]
        assert 0.0 <= float(macc_line[0].split("=")[1]) <= 1.0


def test_dump_attn_subcommand(tmp_path, trained, capsys):
    cfg, suite, result, _ = trained
    image_path = str(tmp_path / "img.dten")
    write_tensor(image_path, {"image": suite.samples[0].image})
    out_dir = str(tmp_path / "dumps")
    code = run_cli(["dump-attn", "--checkpoint", result.checkpoint_path,
                    "--image", image_path, "--layers", "0,1", "--query", "cls",
                    "--out", out_dir])
    out = capsys.readouterr().out
    assert code == 0
    import os

    names = sorted(os.listdir(out_dir))
    assert names == ["attention_analysis.dten", "layer0_full.pgm", "layer0_query.pgm",
                     "layer1_full.pgm", "layer1_query.pgm"]
    # invalid query index -> validation exit code
    assert run_cli(["dump-attn", "--checkpoint", result.checkpoint_path,
                    "--image", image_path, "--layers", "0", "--query", "9999",
                    "--out", out_dir]) == 1
    capsys.readouterr()


def test_ablate_subcommand(tmp_path, capsys):
    cfg = mini_cfg(tmp_path, epochs=2)
    cfg_path = tmp_path / "ab.cfg"
    cfg_path.write_text(echo_config(cfg))
    assert run_cli(["ablate", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "decoupled(full)" in out
    assert any(line.startswith("decoupled_miou=") for line in out.splitlines())


def test_exit_codes(tmp_path, capsys):
    # validation failure: bad config value
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("lambda = -1\n")
    assert run_cli(["distill", "--config", str(bad_cfg)]) == 1
    # I/O failure: missing files
    assert run_cli(["distill", "--config", str(tmp_path / "missing.cfg")]) == 2
    good = tmp_path / "good.cfg"
    good.write_text(echo_config(mini_cfg(tmp_path)))
    assert run_cli(["distill", "--config", str(good)]) == 2  # manifest missing
    capsys.readouterr()
