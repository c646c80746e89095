"""CLI surface: subcommands, exit codes, output stability."""

import os
import subprocess
import sys

import numpy as np
import pytest

from densedistill.cli import run_cli
from densedistill.config import RunConfig, echo_config
from densedistill.container import read_tensor, write_tensor
from densedistill.evalsuite import class_prototypes, save_class_embeddings
from densedistill.synthdata import make_suite, write_suite
from densedistill.trainer import Distiller, distill_run, load_student, read_manifest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    assert "gradcheck: 24/24 passed" in first


def test_gradcheck_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    from densedistill import tensor as T

    real_gelu = T.gelu

    def gelu_raising_backward(a):
        def back(g):
            raise ValueError("planted shape mismatch")
        return T.from_op(real_gelu(a).data, (a,), back)

    # the gelu check and attention_block (through its FFN) both reach it
    monkeypatch.setattr(T, "gelu", gelu_raising_backward)
    assert run_cli(["gradcheck", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "FAIL gelu: raised ValueError: planted shape mismatch" in lines
    assert "FAIL attention_block: raised ValueError: planted shape mismatch" in lines
    assert lines[-1] == "gradcheck: 22/24 passed"
    assert sum(line.startswith("PASS ") for line in lines) == 22
    assert any(line.startswith("PASS head_mix_m1:") for line in lines)
    assert captured.err == ""


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
    # image file without its section -> validation exit code
    write_tensor(image_path, {"other": suite.samples[0].image})
    assert run_cli(["dump-attn", "--checkpoint", result.checkpoint_path,
                    "--image", image_path, "--layers", "0", "--query", "cls",
                    "--out", out_dir]) == 1
    assert "section 'image' is missing" in capsys.readouterr().err


@pytest.mark.parametrize("layers,message", [("0,0", "layer 0 requested more than once"),
                                            ("0,5", "layer 5 outside [0, 2)")])
def test_dump_attn_refuses_bad_layers_before_writing(tmp_path, trained, capsys, layers, message):
    cfg, suite, result, _ = trained
    image_path = str(tmp_path / "img.dten")
    write_tensor(image_path, {"image": suite.samples[0].image})
    out_dir = tmp_path / "dumps"
    assert run_cli(["dump-attn", "--checkpoint", result.checkpoint_path, "--image", image_path,
                    "--layers", layers, "--query", "cls", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("layers,query,message", [
    ("0,x", "cls", "--layers takes comma-separated layer indices, got '0,x'"),
    ("0", "abc", "--query takes an image-token index or 'cls', got 'abc'")])
def test_dump_attn_names_the_option_it_cannot_parse(tmp_path, trained, capsys, layers, query,
                                                    message):
    cfg, suite, result, _ = trained
    image_path = str(tmp_path / "img.dten")
    write_tensor(image_path, {"image": suite.samples[0].image})
    out_dir = tmp_path / "dumps"
    assert run_cli(["dump-attn", "--checkpoint", result.checkpoint_path, "--image", image_path,
                    "--layers", layers, "--query", query, "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_dump_attn_image_at_another_resolution_exits_one_naming_it(tmp_path, trained, capsys):
    _, _, result, _ = trained
    image_path = str(tmp_path / "img.dten")
    write_tensor(image_path, {"image": np.full((3, 24, 24), 0.5)})
    out_dir = tmp_path / "dumps"
    assert run_cli(["dump-attn", "--checkpoint", result.checkpoint_path, "--image", image_path,
                    "--layers", "0", "--query", "cls", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (f"error: {image_path}: section 'image' has shape "
                                       "(3, 24, 24), expected (3, 32, 32) for the student's "
                                       "32-px input\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["dump-attn", "eval-seg", "eval-region"])
def test_non_finite_image_exits_one_naming_it(tmp_path, trained, capsys, command):
    cfg, suite, result, classes_path = trained
    path = read_manifest(cfg.manifest)[0].image_path
    image = suite.samples[0].image.copy()
    image[1, 2, 3] = np.nan
    write_tensor(path, {"image": image})
    if command == "dump-attn":
        args = ["--image", path, "--layers", "0", "--query", "cls",
                "--out", str(tmp_path / "dumps")]
    else:
        args = ["--manifest", cfg.manifest, "--classes", classes_path]
        args += ["--regions", "boxes"] if command == "eval-region" else []
    assert run_cli([command, "--checkpoint", result.checkpoint_path] + args) == 1
    assert capsys.readouterr().err == f"error: {path}: section 'image' holds non-finite values\n"
    assert not (tmp_path / "dumps").exists()


def test_corrupt_section_name_is_an_io_error(tmp_path, capsys):
    path = str(tmp_path / "bad.dten")
    write_tensor(path, {"image": np.zeros((3, 4, 4))})
    blob = bytearray(open(path, "rb").read())
    blob[14] = 0xE9  # first byte of the first section name
    open(path, "wb").write(bytes(blob))
    assert run_cli(["dump-attn", "--checkpoint", path, "--image", path, "--layers", "0",
                    "--query", "cls", "--out", str(tmp_path / "dumps")]) == 2
    assert capsys.readouterr().err.startswith(f"io error: {path}: name of section entry 0 ")


def test_dim_beyond_the_index_range_is_an_io_error(tmp_path, capsys):
    path = str(tmp_path / "huge.dten")
    write_tensor(path, {"image": np.zeros((0, 4))})
    blob = bytearray(open(path, "rb").read())
    second_dim = 12 + 2 + len("image") + 1 + 1 + 8
    blob[second_dim:second_dim + 8] = (2**63).to_bytes(8, "little")
    open(path, "wb").write(bytes(blob))
    assert run_cli(["dump-attn", "--checkpoint", path, "--image", path, "--layers", "0",
                    "--query", "cls", "--out", str(tmp_path / "dumps")]) == 2
    assert capsys.readouterr().err.startswith(f"io error: {path}: section 'image' has dims ")


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


def _eval_exit_codes(cfg, result, classes_path):
    args = ["--checkpoint", result.checkpoint_path, "--manifest", cfg.manifest,
            "--classes", classes_path]
    return [run_cli(["eval-seg"] + args),
            run_cli(["eval-region"] + args + ["--regions", "boxes"]),
            run_cli(["eval-region"] + args + ["--regions", "masks"])]


@pytest.mark.parametrize("bad", [7, -1])
def test_out_of_range_segment_label_exits_one(trained, capsys, bad):
    cfg, _, result, classes_path = trained
    path = read_manifest(cfg.manifest)[0].segments_path
    labels = read_tensor(path)["labels"].copy()
    labels[0, 0] = bad
    write_tensor(path, {"labels": labels})
    assert _eval_exit_codes(cfg, result, classes_path) == [1, 1, 1]
    assert capsys.readouterr().err == (f"error: {path}: section 'labels' holds label {bad}, "
                                       "outside the class file's [0, 3)\n") * 3


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_segment_label_that_is_not_a_whole_number_exits_one(trained, capsys, bad):
    # a float labels file is scored only when every label is a whole number;
    # NaN fails every comparison, so it is refused with the rest
    cfg, _, result, classes_path = trained
    path = read_manifest(cfg.manifest)[0].segments_path
    labels = read_tensor(path)["labels"].astype(np.float64)
    labels[1, 2] = bad
    write_tensor(path, {"labels": labels})
    assert _eval_exit_codes(cfg, result, classes_path) == [1, 1, 1]
    assert capsys.readouterr().err == (f"error: {path}: section 'labels' holds label {bad}, "
                                       "expected a whole number in the class file's [0, 3)\n") * 3


def test_out_of_range_label_at_image_resolution_exits_one_naming_its_file(trained, capsys):
    # eval-seg takes a map at the image's resolution too; its range is
    # checked as read, before the map is scored
    cfg, _, result, classes_path = trained
    path = read_manifest(cfg.manifest)[0].segments_path
    labels = np.kron(read_tensor(path)["labels"], np.ones((8, 8), dtype=np.int32))
    labels[31, 31] = 9
    write_tensor(path, {"labels": labels})
    args = ["--checkpoint", result.checkpoint_path, "--manifest", cfg.manifest,
            "--classes", classes_path]
    assert run_cli(["eval-seg"] + args) == 1
    assert capsys.readouterr().err == (f"error: {path}: section 'labels' holds label 9, "
                                       "outside the class file's [0, 3)\n")


@pytest.mark.parametrize("key,name", [("image_path", "image"), ("segments_path", "labels")])
def test_eval_file_without_its_section_exits_one(trained, capsys, key, name):
    cfg, _, result, classes_path = trained
    path = getattr(read_manifest(cfg.manifest)[0], key)
    write_tensor(path, {"other": np.zeros(3)})
    assert _eval_exit_codes(cfg, result, classes_path) == [1, 1, 1]
    assert capsys.readouterr().err.count(f"section '{name}' is missing") == 3


def test_eval_image_at_another_resolution_exits_one_naming_it(trained, capsys):
    cfg, _, result, classes_path = trained
    path = read_manifest(cfg.manifest)[0].image_path
    write_tensor(path, {"image": np.full((3, 24, 24), 0.5)})
    assert _eval_exit_codes(cfg, result, classes_path) == [1, 1, 1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith(f"error: {path}: section 'image' has shape (3, 24, 24), "
                               "expected (3, 32, 32)") for line in err)


def test_eval_segment_map_off_the_token_grid_exits_one_naming_it(trained, capsys):
    # eval-seg scores a map at the token grid or the image's resolution;
    # eval-region needs the token grid
    cfg, _, result, classes_path = trained
    path = read_manifest(cfg.manifest)[0].segments_path
    labels = read_tensor(path)["labels"]
    write_tensor(path, {"labels": np.kron(labels, np.ones((8, 8), dtype=np.int32))})
    assert _eval_exit_codes(cfg, result, classes_path) == [0, 1, 1]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: section 'labels' has shape (32, 32), expected (4, 4)"] * 2
    write_tensor(path, {"labels": labels[:3, :3]})
    assert _eval_exit_codes(cfg, result, classes_path) == [1, 1, 1]
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (f"error: {path}: section 'labels' has shape (3, 3), "
                      "expected (4, 4) or (32, 32)")
    assert err[1:] == [f"error: {path}: section 'labels' has shape (3, 3), expected (4, 4)"] * 2


def test_class_width_other_than_the_checkpoint_exits_one(trained, capsys, monkeypatch):
    cfg, _, result, _ = trained
    narrow = os.path.join(cfg.report_dir, "narrow.dten")
    write_tensor(narrow, {f"class.c{i}": np.eye(5)[i] for i in range(3)})

    def encode_dense(*args, **kwargs):
        raise AssertionError("an image was encoded before the class file was checked")

    monkeypatch.setattr("densedistill.vit.encode_dense", encode_dense)
    assert _eval_exit_codes(cfg, result, narrow) == [1, 1, 1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for line in err:
        assert line.startswith("error: ") and "narrow.dten" in line
        assert "width 5" in line and "width 8" in line


@pytest.mark.parametrize("sections", [
    {"class.a": np.eye(8)[0], "class.b": np.eye(9)[1]},
    {"class.a": np.full(8, 2.0), "class.b": np.eye(8)[1]},
    {"class.a": np.eye(8)[0]},
    {"class.a": np.where(np.eye(8)[0] == 1.0, np.nan, 0.0), "class.b": np.eye(8)[1]},
], ids=["unequal-widths", "non-unit", "single-vector", "non-finite"])
def test_malformed_class_file_exits_one_naming_it(trained, capsys, sections):
    cfg, _, result, _ = trained
    bad = os.path.join(cfg.report_dir, "bad_classes.dten")
    write_tensor(bad, sections)
    assert _eval_exit_codes(cfg, result, bad) == [1, 1, 1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith(f"error: {bad}: ") for line in err)


def _module(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "densedistill", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_console_entry_point(tmp_path):
    done = _module("gradcheck", "--seed", "0", cwd=tmp_path)
    assert done.returncode == 0
    assert "gradcheck: 24/24 passed" in done.stdout
    missing = str(tmp_path / "missing.dten")
    done = _module("eval-seg", "--checkpoint", missing, "--manifest", missing,
                   "--classes", missing, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("io error:")
