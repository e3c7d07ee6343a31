"""Array row formatting against the list path, cell by cell."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj import _rows, cli

CELLS = {"csv": cli._csv_cells, "json": cli._json_cells}


def _texts(block):
    return [bytes(row[row != 0]).decode() for row in block]


def _near_ties(scale, decimals):
    # (k + 0.5) / 10^d / scale and its float neighbors: the decimal rounding
    # of these is decided by bits the float product a = |x| * 10^d can lose
    def around(k, steps):
        value = (k + 0.5) / 10**decimals / scale
        for _ in range(abs(steps)):
            value = math.nextafter(value, math.copysign(math.inf, steps))
        return value

    return st.builds(around, st.integers(-(10**14), 10**14), st.integers(-2, 2))


def _values(scale, decimals):
    return st.one_of(
        st.floats(),  # +-0.0, subnormals, nan, +-inf, and past 1e15 / 10^d
        st.floats(-1e15 / 10**decimals / scale, 1e15 / 10**decimals / scale),
        st.floats(-5e-4 / scale, 5e-4 / scale),  # JSON prints below 1e-4 in exponent form
        st.integers(-(10**9), 10**9).map(lambda k: k / 10**decimals / scale),
        _near_ties(scale, decimals),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
                         1e15 / 10**decimals / scale, 1e-4 / scale, 9.9995e-5 / scale]),
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scale,decimals", [(1e9, 6), (1e3, 2), (1.0, 0)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_array_cells_match_the_list_path(fmt, scale, decimals, data):
    values = data.draw(st.lists(_values(scale, decimals), min_size=1, max_size=30))
    column = ("x", scale, decimals)
    block = _rows.cell_block(column, np.array(values), fmt, CELLS[fmt])
    assert _texts(block) == CELLS[fmt](column, values)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=100, deadline=None)
@given(start=st.integers(-(10**12), 10**12), length=st.integers(1, 40),
       step=st.integers(-(10**9), 10**9).filter(bool))
def test_range_cells_match_the_list_path(fmt, start, length, step):
    values = range(start, start + length * step, step)
    block = _rows.cell_block("index", values, fmt, CELLS[fmt])
    assert _texts(block) == CELLS[fmt]("index", values)


@settings(max_examples=100, deadline=None)
@given(values=st.one_of(
    st.lists(st.text(), min_size=1, max_size=20),
    st.lists(st.one_of(st.text(), st.integers(), st.booleans(), st.none()), min_size=1,
             max_size=20),
))
def test_named_json_cells_are_what_json_dumps_prints(values):
    # a column of text alone takes the escaper json.dumps itself calls
    assert cli._json_cells("name", values) == [json.dumps(value) for value in values]


def test_typical_cells_need_no_fallback(monkeypatch):
    # Monte Carlo offsets and margins format without the list path
    def refuse(column, values):
        raise AssertionError(f"{column}: {values[:3]} left to the list path")

    rng = np.random.default_rng(5)
    offsets = rng.standard_normal(4096) * 0.9e-9
    offsets = offsets[np.abs(offsets * 1e9) >= 1e-4]
    margins = 0.02 + rng.standard_normal(4096) * 1e-3
    for fmt in ("csv", "json"):
        _rows.cell_block(("delta_nm", 1e9, 6), offsets, fmt, refuse)
        _rows.cell_block(("min_margin_mv", 1e3, 2), margins, fmt, refuse)
