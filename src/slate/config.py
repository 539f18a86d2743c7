"""Flat `key = value` run configuration with typed schemas.

A run resolves its configuration from an optional config file plus CLI flag
overrides, rejects unknown keys, and echoes the fully resolved result into the
output directory so any run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError


def parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


class Schema:
    """Known keys with their parsers and defaults."""

    def __init__(self, fields: dict[str, tuple]):
        # name -> (parser, default); default None means required
        self.fields = fields

    def resolve(self, file_values: dict[str, str], overrides: dict[str, object]) -> dict:
        unknown = sorted(set(file_values) - set(self.fields))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        out = {}
        for name, (parser, default) in self.fields.items():
            if name in overrides and overrides[name] is not None:
                out[name] = overrides[name]
            elif name in file_values:
                try:
                    out[name] = parser(file_values[name])
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"bad value for {name!r}: {exc}") from exc
            elif default is not None:
                out[name] = default
            else:
                raise ConfigError(f"missing required config key {name!r}")
        return out


def read_kv_file(path) -> dict[str, str]:
    """The `key = value` lines of a run config or a dataset's `.meta` sidecar;
    blank and `#` lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path} ({exc.__class__.__name__})") from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_echo(config: dict, path) -> None:
    lines = [f"{key} = {format_value(config[key])}" for key in sorted(config)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
