"""Tolerance and output settings shared by the analysis layers.

Two thresholds are settable: the assembly residual check (loose; trig
error accumulates) and the determinant / curve-membership check.  Exact
structural identities use the constant mechanism.STRUCTURE_TOL.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

CONFIG_ENV_VAR = "AGILE_CONFIG"

_FLOAT_FIELDS = ("residual_tol", "singular_tol")


@dataclass(frozen=True)
class ToolConfig:
    residual_tol: float = 1e-6
    singular_tol: float = 1e-7
    grid_n: int = 64
    output_format: str = "json"

    def validate(self) -> "ToolConfig":
        for name in _FLOAT_FIELDS:
            # written so that NaN fails it too
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.grid_n < 8:
            raise ValueError("grid_n must be at least 8")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be 'json' or 'csv'")
        return self


DEFAULT_CONFIG = ToolConfig()


def parse_config_text(text: str) -> ToolConfig:
    """Parse `key = value` lines (# comments allowed) over the defaults."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _FLOAT_FIELDS:
            overrides[key] = float(value)
        elif key == "grid_n":
            overrides[key] = int(value)
        elif key == "output_format":
            overrides[key] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return replace(DEFAULT_CONFIG, **overrides).validate()


def load_config() -> ToolConfig:
    """Config from the file named by $AGILE_CONFIG, else defaults."""
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return DEFAULT_CONFIG
    return parse_config_text(Path(path).read_text())
