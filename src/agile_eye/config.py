"""Tolerance and output settings shared by the analysis layers.

Two thresholds are settable: the assembly residual check (loose; trig
error accumulates) and the determinant / curve-membership check.  Exact
structural identities use the constant mechanism.STRUCTURE_TOL.
A ToolConfig checks itself when built (ValueError; TypeError for a
non-integer grid_n), so every one that exists is valid.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, replace
from pathlib import Path

CONFIG_ENV_VAR = "AGILE_CONFIG"

# config-file key -> the type its value is read as
_FIELD_TYPES = {"residual_tol": float, "singular_tol": float, "grid_n": int, "output_format": str}


@dataclass(frozen=True, slots=True)
class ToolConfig:
    residual_tol: float = 1e-6
    singular_tol: float = 1e-7
    grid_n: int = 64
    output_format: str = "json"

    def __post_init__(self) -> None:
        for name in ("residual_tol", "singular_tol"):
            # written so that NaN fails it too
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        # a float raises TypeError; an integer such as np.int64 becomes int
        object.__setattr__(self, "grid_n", operator.index(self.grid_n))
        if self.grid_n < 8:
            raise ValueError("grid_n must be at least 8")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be 'json' or 'csv'")


DEFAULT_CONFIG = ToolConfig()


def parse_config_text(text: str) -> ToolConfig:
    """Parse `key = value` lines (# comments allowed) over the defaults;
    an unknown key or a bad value raises ValueError."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return replace(DEFAULT_CONFIG, **overrides)


def load_config() -> ToolConfig:
    """Config from the file named by $AGILE_CONFIG, else defaults."""
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return DEFAULT_CONFIG
    return parse_config_text(Path(path).read_text())
