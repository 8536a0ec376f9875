"""ToolConfig checks itself at construction: no invalid setting exists
to reach the classifier, the tracker or the sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agile_eye import DEFAULT_CONFIG, ToolConfig
from agile_eye.config import parse_config_text


@pytest.mark.parametrize("name", ["residual_tol", "singular_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-7])
def test_bad_tolerance_raises_at_construction(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        ToolConfig(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        replace(DEFAULT_CONFIG, **{name: value})


@given(
    name=st.sampled_from(["residual_tol", "singular_tol"]),
    value=st.floats(allow_subnormal=True),
)
@example(name="singular_tol", value=5e-324)
@example(name="residual_tol", value=1.7976931348623157e308)
@example(name="singular_tol", value=-0.0)
@example(name="residual_tol", value=math.nan)
@example(name="singular_tol", value=-math.inf)
def test_tolerance_accepted_iff_positive_and_finite(name, value):
    if 0.0 < value < math.inf:
        assert getattr(ToolConfig(**{name: value}), name) == value
    else:
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            ToolConfig(**{name: value})


@pytest.mark.parametrize("grid_n", [4, 7, 0, -8])
def test_small_grid_n_raises(grid_n):
    with pytest.raises(ValueError, match="^grid_n must be at least 8$"):
        ToolConfig(grid_n=grid_n)


@pytest.mark.parametrize("grid_n", [8.5, 16.0, "16"])
def test_non_integer_grid_n_raises_type_error(grid_n):
    with pytest.raises(TypeError):
        ToolConfig(grid_n=grid_n)


def test_integer_grid_n_becomes_int():
    grid_n = ToolConfig(grid_n=np.int64(9)).grid_n
    assert grid_n == 9 and type(grid_n) is int


def test_bad_output_format_raises():
    with pytest.raises(ValueError, match="^output_format must be 'json' or 'csv'$"):
        ToolConfig(output_format="xml")


def test_config_text_reads_each_key_as_its_type():
    cfg = parse_config_text(
        "residual_tol = 1e-5\nsingular_tol = 1\ngrid_n = 12  # per axis\noutput_format = csv\n"
    )
    assert cfg == ToolConfig(residual_tol=1e-5, singular_tol=1.0, grid_n=12, output_format="csv")
    assert type(cfg.singular_tol) is float and type(cfg.grid_n) is int


@pytest.mark.parametrize(
    "text, error",
    [
        ("grid_n = 8.5\n", "config line 1: invalid literal for int"),
        ("singular_tol = abc\n", "config line 1: could not convert string to float: 'abc'"),
        ("grid_n = 16\nresidual_tol = 1e-6x\n", "config line 2: could not convert string to float"),
        ("singular_tol = -1\n", "singular_tol must be positive and finite"),
        ("output_format = xml\n", "output_format must be 'json' or 'csv'"),
        ("grid_n = 16\nstructure_tol = 1e-9\n", "config line 2: unknown key 'structure_tol'"),
    ],
)
def test_config_text_errors(text, error):
    with pytest.raises(ValueError, match=error):
        parse_config_text(text)
