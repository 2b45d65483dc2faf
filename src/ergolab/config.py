"""Typed readers for JSON config sections.

Every reader takes (section, key, default).  An absent key gives the default
as it is, or a ConfigError when the default is REQUIRED; a present value of
the wrong type or range is a ConfigError that names the key.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Optional, Sequence

from .errors import ConfigError

REQUIRED = object()


def _read(cfg: dict, key: str, default, ok: Callable, wanted: str, convert: Callable = lambda v: v):
    if key not in cfg:
        if default is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value = cfg[key]
    if not ok(value):
        raise ConfigError(f"{key} must be {wanted}, got {value!r}")
    return convert(value)


def _is_int(v, lo: int, hi: Optional[int] = None) -> bool:
    """JSON integers and integral numbers such as 3.0 pass; booleans, strings,
    fractional numbers and infinities fail rather than being truncated."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    return isinstance(v, int) and not isinstance(v, bool) and lo <= v and (hi is None or v < hi)


def _is_number(v) -> bool:
    """A finite JSON number; numeric strings and booleans fail."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def get(cfg: dict, key: str, default=REQUIRED):
    """cfg[key] as it is, for a value that the code consuming it checks."""
    return _read(cfg, key, default, lambda v: True, "")


def get_section(cfg: dict, key: str, default=REQUIRED) -> dict:
    return _read(cfg, key, default, lambda v: isinstance(v, dict), "a JSON object")


def get_str(cfg: dict, key: str, default=REQUIRED) -> str:
    return _read(cfg, key, default, lambda v: isinstance(v, str), "a string")


def get_choice(cfg: dict, key: str, options: Sequence[str], default=REQUIRED) -> str:
    return _read(cfg, key, default, lambda v: v in options, "one of " + ", ".join(map(repr, options)))


def get_int(cfg: dict, key: str, default=REQUIRED, lo: int = 0, hi: Optional[int] = None) -> int:
    """An integer with lo <= value < hi (no upper limit if hi is None)."""
    wanted = f"an integer >= {lo}" + ("" if hi is None else f" and below {hi}")
    return _read(cfg, key, default, lambda v: _is_int(v, lo, hi), wanted, int)


def get_ints(cfg: dict, key: str, default=REQUIRED, lo: int = 0) -> List[int]:
    def ok(v):
        return isinstance(v, list) and all(_is_int(x, lo) for x in v)

    return _read(cfg, key, default, ok, f"a list of integers >= {lo}", lambda v: [int(x) for x in v])


def get_float(cfg: dict, key: str, default=REQUIRED) -> float:
    return _read(cfg, key, default, _is_number, "a finite number", float)


def get_floats(cfg: dict, key: str, default=REQUIRED) -> List[float]:
    def ok(v):
        return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))

    return _read(cfg, key, default, ok, "a nonempty list of finite numbers", lambda v: [float(x) for x in v])
