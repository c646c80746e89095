"""Config grammar: defaults, validation, echo round-trip, the README's key and
fixed-value tables."""

import ast
import itertools
from dataclasses import fields
from pathlib import Path

import pytest

from densedistill import trainer, vit
from densedistill.cli import run_cli
from densedistill.config import (RunConfig, echo_config, parse_config, parse_config_text,
                                 validate)
from densedistill.errors import ConfigError


def test_empty_file_gives_reference_defaults():
    cfg = parse_config_text("")
    assert cfg.lam == 0.25
    assert cfg.epochs == 6
    assert cfg.lr == 1e-5
    assert cfg.weight_decay == 0.1
    assert cfg.batch_size == 2
    assert (cfg.grid_lo, cfg.grid_hi) == (1, 6)
    assert (cfg.student_res, cfg.vfm_res) == (560, 490)
    assert (cfg.student_patch, cfg.vfm_patch) == (16, 14)


def test_lambda_range_error():
    with pytest.raises(ConfigError):
        parse_config_text("lambda = -1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("lamda = 0.25\n")


# fixed in the code (AdamW's betas and eps, the two pixel normalisations,
# every block trains, the RoI grid side, the synthetic SD map count); lam is
# the field's name, whose key is lambda
@pytest.mark.parametrize("key", [
    "beta1", "beta2", "eps", "student_pixel_mean", "student_pixel_std", "vfm_pixel_mean",
    "vfm_pixel_std", "trainable_layers", "lam", "roi_n", "sd_maps"])
def test_a_key_the_config_does_not_hold_is_refused_as_unknown(key):
    with pytest.raises(ConfigError, match=rf"^unknown config key '{key}'$"):
        parse_config_text(f"{key} = 0.3\n")


@pytest.mark.parametrize("field,value,kind", [
    ("epochs", 1.5, "int"), ("batch_size", 1.5, "int"), ("student_depth", 3.0, "int"),
    ("grid_lo", True, "int"), ("lr", True, "float"), ("tau", "1.0", "float"),
    ("use_sd_completion", 1, "bool"), ("dtype", None, "str"), ("manifest", 3, "str")])
def test_a_config_built_in_code_refuses_a_value_of_another_type(field, value, kind):
    with pytest.raises(ConfigError, match=rf"^{field} must be {kind}, got {value!r}$"):
        validate(RunConfig(**{field: value}))


def test_a_float_field_takes_an_int():
    assert validate(RunConfig(lam=1, lr=1)).lam == 1


@pytest.mark.parametrize("seed", [-1, 2 ** 31])
def test_seed_outside_the_checkpoint_range_rejected(seed):
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text(f"seed = {seed}\n")


@pytest.mark.parametrize("key,raw", [
    ("tau", "inf"), ("lambda", "inf"), ("lr", "inf"), ("weight_decay", "inf"),
    ("sd_sharpness", "inf"), ("sd_noise", "-inf")])
def test_non_finite_float_rejected_naming_the_key(key, raw, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
        parse_config_text(f"{key} = {raw}\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {raw}\n")
    assert run_cli(["distill", "--config", str(config)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type == "float"])
def test_an_int_past_the_float_range_rejected_naming_the_key(name):
    # math.isfinite would raise OverflowError converting it to a float
    key = "lambda" if name == "lam" else name
    with pytest.raises(ConfigError, match=rf"^{key} must be finite, got 1000"):
        validate(RunConfig(**{name: 10 ** 400}))


def test_unparsable_value():
    with pytest.raises(ConfigError):
        parse_config_text("epochs = six\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("tau = 1.0\ntau = 2.0\n")


def test_token_count_match_enforced():
    with pytest.raises(ConfigError):
        parse_config_text("student_res = 64\nstudent_patch = 16\nvfm_res = 64\nvfm_patch = 8\n")


def test_comments_and_spacing():
    cfg = parse_config_text("# a comment\n  tau = 0.5  # trailing\n\nseed = 7\n")
    assert cfg.tau == 0.5 and cfg.seed == 7


def test_echo_roundtrip(tmp_path):
    cfg = RunConfig(lam=0.125, tau=0.75, epochs=2, seed=13, dtype="f32",
                    use_sd_completion=False, manifest="data/man.txt")
    text = echo_config(cfg)
    assert parse_config_text(text) == cfg
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    assert parse_config(str(p)) == cfg


@pytest.mark.parametrize("field,value", [
    ("manifest", "runs/#3/manifest.txt"),   # the rest of the line would read as a comment
    ("resume", "ckpt\n.dten"),              # a line break splits the echoed line
    ("checkpoint_dir", "ckpt\r"),
    ("report_dir", " padded "),             # parsing strips the value
])
def test_string_field_the_grammar_cannot_carry_rejected_naming_the_key(field, value):
    with pytest.raises(ConfigError, match=rf"^{field} must not"):
        validate(RunConfig(**{field: value}))


def test_bool_parsing():
    assert parse_config_text("use_sd_completion = false\n").use_sd_completion is False
    with pytest.raises(ConfigError):
        parse_config_text("use_sd_completion = 1\n")


@pytest.mark.parametrize("over,message", [
    ({"student_heads": 3}, "student width 64 not divisible by heads 3"),
    ({"vfm_depth": 0}, "vfm depth = 0, expected >= 1"),
    ({"vfm_heads": 5}, "vfm width 48 not divisible by heads 5"),
    ({"embed_dim": -1}, "student embed_dim = -1, expected >= 0")])
def test_encoder_field_refused_by_the_encoder_rule_naming_the_role(over, message):
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        validate(RunConfig(**over))


def test_the_readme_config_table_lists_every_key_with_its_default():
    # a key added, removed or re-defaulted without its README line fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    _, table = readme.split("| key | default | meaning |\n|---|---|---|\n", 1)
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), table.splitlines()):
        key, default, meaning = (cell.strip() for cell in line.strip("|").split("|"))
        assert meaning, key
        rows.append(f"{key.strip('`')} = {default.strip('`')}\n")
    assert "".join(rows) == echo_config(RunConfig())


def test_the_readme_fixed_value_table_matches_the_code():
    # a constant re-valued or renamed without its README line fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    _, table = readme.split("| constant | value | meaning |\n|---|---|---|\n", 1)
    owners = {"trainer": trainer, "vit": vit,
              "trainer.AdamW": trainer.AdamW([], lr=1.0, weight_decay=0.0)}
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), table.splitlines()):
        name, value, meaning = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        assert meaning, name
        owner, _, attr = name.rpartition(".")
        rows[name] = (getattr(owners[owner], attr), ast.literal_eval(value))
    assert list(rows) == ["trainer.ROI_N", "trainer.SD_MAPS", "trainer.STUDENT_PIXEL",
                          "trainer.PROVIDER_PIXEL", "trainer.AdamW.beta1",
                          "trainer.AdamW.beta2", "trainer.AdamW.eps", "vit.HEAD_GROUP_BYTES",
                          "vit.TILE_BYTES", "vit.TILE_ALIGN"]
    for name, (held, listed) in rows.items():
        assert type(held) is type(listed) and held == listed, name
