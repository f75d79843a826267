"""Run configuration: defaults, flat key=value config files, echo text.

Config files are a TOML-compatible subset: one ``key = value`` per line,
``#`` comments; each value is read as its field's type, an int or a
float. CLI flags override file values which override defaults.
"""

from __future__ import annotations

import hashlib
import math
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
    threads: int = 1

    def __post_init__(self):
        if self.pca_dim < 1:
            raise ConfigError(f"pca_dim must be >= 1, got {self.pca_dim}")
        if not 0.0 < self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and > 0, got {self.lam}")
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
        values[key] = _parse_value(key, value.strip(), f"{path}:{lineno}")
    return values


def _parse_value(key: str, text: str, where: str):
    """``text`` as field ``key``'s type."""
    typ = CONFIG_FIELD_TYPES[key]
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"{where}: {external_key(key)} must be "
                          f"{typ.__name__}, got {text!r}") from None


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
    if not isinstance(value, bool):
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


def config_echo(settings: dict, inputs: dict[str, str | Path],
                versions: dict[str, str], env: dict[str, str]) -> list[str]:
    """Lines of flat resolved settings, versions, environment variables and
    input digests; enough to rerun exactly."""
    lines = [f"{key} = {_format_value(v)}" for key, v in sorted(settings.items())]
    lines += [f"version.{name} = \"{v}\"" for name, v in sorted(versions.items())]
    lines += [f"env.{name} = \"{v}\"" for name, v in sorted(env.items())]
    for name, path in sorted(inputs.items()):
        lines.append(f"input.{name} = \"{path}\"")
        lines.append(f"input.{name}.sha256 = \"{file_digest(path)}\"")
    return lines


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)

