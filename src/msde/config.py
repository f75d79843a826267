"""Run configuration: defaults, flat key=value config files, echo text.

Config files are a TOML-compatible subset: one ``key = value`` per line,
``#`` comments, booleans ``true``/``false``, ints, floats, optionally
quoted strings. CLI flags override file values which override defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .exceptions import ConfigError
from .shift import ShiftParams

# "lambda" is the external spelling of `lam`, a reserved word in Python.
_EXTERNAL_KEYS = {"lam": "lambda"}
_INTERNAL_KEYS = {v: k for k, v in _EXTERNAL_KEYS.items()}


def external_key(name: str) -> str:
    """Spelling of a setting in config files, flags and the echo."""
    return _EXTERNAL_KEYS.get(name, name)


@dataclass(frozen=True)
class MsdeConfig:
    """Complete pipeline configuration; defaults reproduce the fixed
    universal hyperparameters."""

    shift: ShiftParams = ShiftParams()
    pca_dim: int = 256
    lam: float = 1e-4
    standardize: bool = True
    threads: int = 1

    def __post_init__(self):
        if self.pca_dim < 1:
            raise ConfigError(f"pca_dim must be >= 1, got {self.pca_dim}")
        if not self.lam > 0.0:
            raise ConfigError(f"lambda must be > 0, got {self.lam}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    def flat(self) -> dict:
        """All settings as a flat mapping with external key spellings."""
        values = {**vars(self.shift), **vars(self)}
        return {external_key(key): values[key] for key in CONFIG_FIELD_TYPES}


# The settable keys are the dataclass fields: ShiftParams first, then the
# rest of MsdeConfig. Internal key -> value type; one CLI flag each.
_SHIFT_KEYS = frozenset(f.name for f in fields(ShiftParams))
CONFIG_FIELD_TYPES: dict[str, type] = {
    name: typ
    for cls in (ShiftParams, MsdeConfig)
    for name, typ in get_type_hints(cls).items()
    if name != "shift"
}


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value file -> mapping with canonical internal keys."""
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = _INTERNAL_KEYS.get(key.strip(), key.strip())
        if key not in CONFIG_FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_scalar(value)
    return values


def build_config(*overrides: dict) -> MsdeConfig:
    """Fold flat mappings onto the defaults, later mappings winning."""
    merged: dict = {}
    for layer in overrides:
        for key, value in layer.items():
            if value is None:
                continue
            merged[_INTERNAL_KEYS.get(key, key)] = value
    unknown = [k for k in merged if k not in CONFIG_FIELD_TYPES]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {k: _typed(k, v) for k, v in merged.items()}
    shift_kwargs = {k: merged.pop(k) for k in list(merged) if k in _SHIFT_KEYS}
    shift = replace(ShiftParams(), **shift_kwargs)
    return MsdeConfig(shift=shift, **merged)


def _typed(key: str, value):
    """``value`` as field ``key``'s type: a bool is not an int, and an int
    is a valid float."""
    typ = CONFIG_FIELD_TYPES[key]
    if isinstance(value, bool) == (typ is bool):
        if isinstance(value, typ):
            return value
        if typ is float and isinstance(value, int):
            return float(value)
    raise ConfigError(
        f"{external_key(key)} must be {typ.__name__}, got {value!r}"
    )


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_echo(settings: dict, inputs: dict[str, str | Path]) -> str:
    """Flat resolved settings plus input digests; enough to rerun exactly."""
    lines = [f"{key} = {_format_value(v)}" for key, v in sorted(settings.items())]
    for name, path in sorted(inputs.items()):
        lines.append(f"input.{name} = \"{path}\"")
        lines.append(f"input.{name}.sha256 = \"{file_digest(path)}\"")
    return "\n".join(lines) + "\n"


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)

