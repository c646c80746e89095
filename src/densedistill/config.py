"""Run configuration: flat ``key = value`` files with strict validation.

Every key has a default; unknown keys, unparsable values, duplicate keys,
and range violations are all rejected at parse time. ``echo_config``
serializes a config so that parse(echo(cfg)) == cfg.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

from .errors import ConfigError, ParameterError
from .vit import param_shapes


@dataclass
class RunConfig:
    """Distillation hyperparameters plus run paths."""
    lam: float = 0.25            # context loss weight (config key: lambda)
    tau: float = 1.0
    grid_lo: int = 1
    grid_hi: int = 6
    lr: float = 1e-5
    weight_decay: float = 0.1
    epochs: int = 6
    batch_size: int = 2
    seed: int = 0
    dtype: str = "f64"
    student_patch: int = 16
    student_res: int = 560
    student_depth: int = 4
    student_width: int = 64
    student_heads: int = 4
    embed_dim: int = 32          # 0 disables the V-L projection
    vfm_patch: int = 14
    vfm_res: int = 490
    vfm_depth: int = 3
    vfm_width: int = 48
    vfm_heads: int = 4
    sd_sharpness: float = 4.0
    sd_noise: float = 0.5
    use_sd_completion: bool = True
    manifest: str = "manifest.txt"
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"
    resume: str = ""


# config keys differ from field names only for the reserved word; each field
# has that one key
_FIELD_TO_KEY = {"lam": "lambda"}
_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_KEY_TO_FIELD = {_FIELD_TO_KEY.get(name, name): name for name in _FIELDS}
# the values a field of each kind takes; a bool is no number here
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _parse_value(key, name, raw):
    kind = _FIELDS[name]
    try:
        if kind == "bool":
            if raw.lower() not in ("true", "false"):
                raise ValueError
            return raw.lower() == "true"
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r} as {kind}") from None


def validate(cfg):
    def need(cond, msg):
        if not cond:
            raise ConfigError(msg)

    for name, kind in _FIELDS.items():
        key, value = _FIELD_TO_KEY.get(name, name), getattr(cfg, name)
        need(isinstance(value, _TYPES[kind]) and (kind == "bool" or not isinstance(value, bool)),
             f"{key} must be {kind}, got {value!r}")
        if kind == "float":
            # a comparison, not math.isfinite: NaN fails it, and an int past
            # the float range compares exactly instead of overflowing
            need(abs(value) <= sys.float_info.max, f"{key} must be finite, got {value}")
        elif kind == "str":
            # what the config grammar cannot carry, so that echo_config round-trips
            need("#" not in value, f"{key} must not hold '#', got {value!r}")
            need("".join(value.splitlines()) == value,
                 f"{key} must not hold a line break, got {value!r}")
            need(value == value.strip(),
                 f"{key} must not start or end with whitespace, got {value!r}")
    need(cfg.lam >= 0, f"lambda must be >= 0, got {cfg.lam}")
    need(cfg.tau > 0, f"tau must be > 0, got {cfg.tau}")
    need(1 <= cfg.grid_lo <= cfg.grid_hi, f"invalid grid range [{cfg.grid_lo}, {cfg.grid_hi}]")
    need(cfg.lr > 0, f"lr must be > 0, got {cfg.lr}")
    need(cfg.weight_decay >= 0, "weight_decay must be >= 0")
    need(cfg.epochs >= 0, "epochs must be >= 0")
    # checkpoints store the seed as an int32 section
    need(0 <= cfg.seed < 2 ** 31, f"seed must lie in [0, 2**31), got {cfg.seed}")
    need(cfg.batch_size >= 1, "batch_size must be >= 1")
    need(cfg.dtype in ("f32", "f64"), f"dtype must be f32 or f64, got {cfg.dtype!r}")
    # the encoders' own rules, with the role named
    for role, embed_dim in (("student", cfg.embed_dim), ("vfm", 0)):
        try:
            param_shapes(*(getattr(cfg, f"{role}_{name}") for name in (
                "patch", "depth", "width", "heads", "res")), embed_dim)
        except ParameterError as exc:
            raise ConfigError(f"{role} {exc}") from None
    s_tokens = (cfg.student_res // cfg.student_patch) ** 2
    v_tokens = (cfg.vfm_res // cfg.vfm_patch) ** 2
    need(s_tokens == v_tokens,
         f"token counts differ: student {s_tokens} vs provider {v_tokens}")
    need(cfg.sd_sharpness >= 0, "sd_sharpness must be >= 0")
    need(cfg.sd_noise >= 0, "sd_noise must be >= 0")
    return cfg


def parse_config_text(text):
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        name = _KEY_TO_FIELD.get(key)
        if name is None:
            raise ConfigError(f"unknown config key {key!r}")
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[name] = _parse_value(key, name, raw)
    return validate(RunConfig(**values))


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def echo_config(cfg):
    lines = []
    for f in fields(RunConfig):
        key = _FIELD_TO_KEY.get(f.name, f.name)
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
