"""CSV/SVG emission checks: exact bytes, quoting, and plot structure."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grushin.errors import InvalidProblem
from grushin.tables import (_SVG_BLOCK, SweepTable, _format_cell, emit_csv, emit_svg, render_csv,
                            render_svg)


# ------------------------------------------------------------ validation


def test_row_width_mismatch_rejected():
    with pytest.raises(InvalidProblem):
        SweepTable(headers=("a", "b"), rows=((1.0,),))


def test_empty_headers_rejected():
    with pytest.raises(InvalidProblem):
        SweepTable(headers=(), rows=())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cells_rejected(bad):
    with pytest.raises(InvalidProblem):
        SweepTable(headers=("a",), rows=((bad,),))


def test_non_numeric_cells_rejected():
    with pytest.raises(InvalidProblem):
        SweepTable(headers=("a",), rows=(({"not": "a number"},),))
    with pytest.raises(InvalidProblem):
        SweepTable(headers=("a",), rows=((None,),))


def test_string_and_numpy_cells_accepted():
    table = SweepTable(
        headers=("shape", "value"),
        rows=(("disk", np.float64(1.5)), ("rect,angle", np.int64(3))),
    )
    assert len(table.rows) == 2


# ------------------------------------------------------------------- csv


def test_exact_csv_text():
    table = SweepTable(headers=("name", "count", "value"), rows=(("row,1", 2, 0.5),))
    expected = 'name,count,value\n"row,1",2,5.00000000000000000e-01\n'
    assert render_csv(table) == expected


def test_quote_escaping():
    table = SweepTable(headers=("label",), rows=(('say "hi"',),))
    assert render_csv(table) == 'label\n"say ""hi"""\n'


def test_header_only_table_renders():
    table = SweepTable(headers=("t", "value"), rows=())
    assert render_csv(table) == "t,value\n"


def test_integers_render_bare():
    table = SweepTable(headers=("n",), rows=((np.int32(7),), (8,)))
    assert render_csv(table) == "n\n7\n8\n"


def _per_cell_csv(table):
    # the reference rendering: every cell through _format_cell
    lines = [",".join(_format_cell(h) for h in table.headers)]
    lines += [",".join(_format_cell(c) for c in row) for row in table.rows]
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (0.5, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, math.pi,
                -1e-300, 123456789.0)


@pytest.mark.parametrize(
    "rows",
    [
        tuple((x, y) for x in _EDGE_FLOATS for y in _EDGE_FLOATS),
        ((0.5, 2), (1.0, 2.0)),
        ((True, 0.25), (1.0, False)),
        ((np.int64(3), 0.25), (1.0, 2.0)),
        ((np.float64(0.1), 0.25), (0.5, 0.5)),
        (("a,b", 0.25), ('say "hi"', 1.0), (1.0, 2.0)),
    ],
    ids=["float", "int", "bool", "np.int64", "np.float64", "quoted-str"],
)
def test_csv_bytes_match_per_cell_rendering(rows):
    table = SweepTable(headers=("x,1", 'y "2"'), rows=rows)
    assert render_csv(table) == _per_cell_csv(table)


@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), max_size=20))
def test_float_table_bytes_match_per_cell_rendering(rows):
    table = SweepTable(headers=("a", "b", "c"), rows=tuple(rows))
    assert render_csv(table) == _per_cell_csv(table)


def _per_point_polyline(rows):
    # the reference rendering of a two-column table's polyline: every point
    # through its own f-string
    pts = sorted((float(x), float(y)) for x, y in rows)
    x_lo, x_hi = min(x for x, _ in pts), max(x for x, _ in pts)
    y_lo, y_hi = min(y for _, y in pts), max(y for _, y in pts)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - max(1.0, math.ulp(x_lo)), x_hi + max(1.0, math.ulp(x_hi))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - max(1.0, math.ulp(y_lo)), y_hi + max(1.0, math.ulp(y_hi))

    def px(x):
        return 70.0 + (x - x_lo) / (x_hi - x_lo) * 710.0

    def py(y):
        return 20.0 + (y_hi - y) / (y_hi - y_lo) * 490.0

    return 'points="' + " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts) + '"'


_PLOT_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-10**6, 10**6))


@given(st.lists(st.tuples(_PLOT_CELLS, _PLOT_CELLS), min_size=1, max_size=20))
@example(rows=[(math.sin(k), k % 7 - 3) for k in range(2 * _SVG_BLOCK + 5)])  # three blocks
def test_svg_bytes_match_per_point_rendering(rows):
    table = SweepTable(headers=("x", "y"), rows=tuple(rows))
    assert _per_point_polyline(rows) in render_svg(table)


# ---------------------------------------------------------------- blocks


def _assert_block_renders_like_tuples(block, headers):
    # a NumPy block gives the bytes of the tuple table with the same cells
    table = SweepTable(headers=headers, rows=block)
    rows = tuple(map(tuple, block.tolist()))
    tuples = SweepTable(headers=headers, rows=rows)
    assert render_csv(table) == _per_cell_csv(tuples) == render_csv(tuples)
    if not rows:
        with pytest.raises(InvalidProblem, match="empty table"):
            render_svg(table)
        return
    svg = render_svg(table)
    assert svg == render_svg(tuples)
    if len(headers) == 2:
        assert _per_point_polyline(rows) in svg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(2, 4)), elements=_FINITE))
@example(block=np.array([(-1.0, 1.0), (0.0, 0.0), (-0.0, -0.0)]))  # axis ends 0 or -0, as min/max
def test_block_bytes_match_tuple_rendering(block):
    _assert_block_renders_like_tuples(block, ("a", "b", "c", "d")[:block.shape[1]])


@given(st.lists(st.tuples(st.sampled_from((-0.0, 0.0, 1.0, 10.0, 10.0000001)), _FINITE,
                          st.sampled_from((-0.0, 0.0, 2.5)), _FINITE), min_size=1, max_size=20))
def test_keyed_block_bytes_match_tuple_rendering(rows):
    # repeated keys make a keyed sweep; signed zeros and tied points group and
    # sort as on the tuple path
    _assert_block_renders_like_tuples(np.array(rows), ("s", "t", "value", "dev"))


@pytest.mark.parametrize(
    "block",
    [
        np.array([(x, y) for x in _EDGE_FLOATS for y in _EDGE_FLOATS]),
        np.array([(1.0, 5.0), (2.0, 5.0)]),
        np.array([(2.0**60, 1.0), (2.0**60, 2.0)]),
        np.array([(3.0, 4.0)]),
        np.array([(math.sin(k), k % 7 - 3.0) for k in range(2 * _SVG_BLOCK + 5)]),
    ],
    ids=["edge-floats", "constant-y", "constant-x-beyond-2^53", "one-row", "three-blocks"],
)
def test_block_edge_cases_match_tuple_rendering(block):
    # +-1.79e308 spans overflow to inf, then to nan pixels, without a warning
    _assert_block_renders_like_tuples(block, ("x", "y"))


@pytest.mark.parametrize(
    "block",
    [np.ones((3, 3)), np.ones(3), np.ones((3, 2), dtype=np.int64), np.ones((3, 2, 1))],
    ids=["width", "1-d", "int", "3-d"],
)
def test_block_of_wrong_shape_or_kind_rejected(block):
    with pytest.raises(InvalidProblem, match="float64 columns"):
        SweepTable(headers=("a", "b"), rows=block)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_block_non_finite_cell_rejected(bad):
    block = np.ones((4, 2))
    block[2, 1] = bad
    with pytest.raises(InvalidProblem, match="row 2 contains a non-finite value"):
        SweepTable(headers=("a", "b"), rows=block)


def test_block_table_holds_a_read_only_copy():
    block = np.ones((3, 2))
    table = SweepTable(headers=("a", "b"), rows=block)
    block[0, 0] = 7.0
    assert len(table.rows) == 3 and table.rows[0, 0] == 1.0
    with pytest.raises(ValueError):
        table.rows[0, 0] = 7.0


def test_emit_csv_to_file_and_stdout(tmp_path, capsys):
    table = SweepTable(headers=("x",), rows=((1.0,),))
    target = tmp_path / "out.csv"
    emit_csv(table, target)
    assert target.read_bytes() == render_csv(table).encode()
    emit_csv(table, "-")
    assert capsys.readouterr().out == render_csv(table)


def test_render_deterministic():
    rows = tuple((float(i), math.sqrt(i + 1)) for i in range(5))
    t1 = SweepTable(headers=("a", "b"), rows=rows)
    t2 = SweepTable(headers=("a", "b"), rows=rows)
    assert render_csv(t1) == render_csv(t2)
    assert render_svg(t1) == render_svg(t2)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_cells_roundtrip_exactly(x):
    text = render_csv(SweepTable(headers=("v",), rows=((x,),)))
    value = float(text.splitlines()[1])
    assert value == x


# ------------------------------------------------------------------- svg


def test_svg_keyed_series():
    # first three columns numeric: one polyline per distinct key
    rows = tuple((s, t, s + t, 0.0, 0.0) for s in (1.0, 2.0, 3.0) for t in (0.5, 1.0))
    table = SweepTable(headers=("s", "t", "value", "ref", "dev"), rows=rows)
    svg = render_svg(table)
    assert svg.count("<polyline") == 3
    assert "s=1" in svg and "s=3" in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_svg_keys_take_the_digits_that_tell_them_apart():
    # %g reads s=10 for both keys; the labels take digits as the axis labels do
    rows = ((10.0, 1.0, 2.0), (10.0, 2.0, 3.0), (10.0000001, 1.0, 2.5), (10.0000001, 2.0, 3.5))
    for table in (SweepTable(headers=("s", "t", "v"), rows=rows),
                  SweepTable(headers=("s", "t", "v"), rows=np.array(rows))):
        assert re.findall(r'">(s=[^<]*)</text>', render_svg(table)) == ["s=10", "s=10.0000001"]


def test_svg_one_row_per_key_is_one_series():
    # a key with a single row draws no line, so a table such as the probe's
    # (s, lambda1, reference) plots column 1 against column 0
    rows = ((10.0, 7.76, 7.75), (50.0, 7.755, 7.75), (150.0, 7.752, 7.75))
    svg = render_svg(SweepTable(headers=("s", "lambda1", "reference"), rows=rows))
    assert [len(p.split()) for p in re.findall(r'points="([^"]*)"', svg)] == [3]
    assert ">lambda1</text>" in svg


def test_svg_fallback_single_series():
    table = SweepTable(
        headers=("shape", "t", "value"),
        rows=(("disk", 1.0, 2.0), ("disk", 2.0, 3.0)),
    )
    svg = render_svg(table)
    assert svg.count("<polyline") == 1


def test_svg_empty_table_rejected():
    with pytest.raises(InvalidProblem):
        render_svg(SweepTable(headers=("a", "b"), rows=()))


def test_svg_needs_two_numeric_columns():
    table = SweepTable(headers=("a", "b"), rows=(("x", "y"),))
    with pytest.raises(InvalidProblem):
        render_svg(table)
    with pytest.raises(InvalidProblem, match="two numeric columns"):
        render_svg(SweepTable(headers=("a",), rows=np.ones((2, 1))))


def test_svg_constant_axis_handled():
    table = SweepTable(headers=("x", "y"), rows=((1.0, 5.0), (2.0, 5.0)))
    svg = render_svg(table)
    assert "<polyline" in svg
    # beyond 2^53, x +- 1 rounds back to x; the axis must still widen
    svg = render_svg(SweepTable(headers=("x", "y"), rows=((2.0**60, 1.0), (2.0**60, 2.0))))
    assert 'points="425.00,510.00 425.00,20.00"' in svg


def _axis_labels(svg):
    return re.findall(r'font-size="12">([^<]*)</text>', svg)


def test_svg_axis_labels_tell_a_narrow_range_apart():
    # %.6g reads 7.75237 at both ends of this y range (a probe's lambda1);
    # each axis takes the fewest digits from 6 up that tell its ends apart
    rows = ((10.0, 7.7523659), (20.0, 7.7523694))
    svg = render_svg(SweepTable(headers=("s", "lambda1"), rows=rows))
    assert _axis_labels(svg) == ["10", "20", "7.752366", "7.752369"]
    rows = ((1.0, 1.0), (2.0, 1.0 + 2.0**-52))
    svg = render_svg(SweepTable(headers=("x", "y"), rows=rows))
    assert _axis_labels(svg) == ["1", "2", "1", "1.0000000000000002"]
    svg = render_svg(SweepTable(headers=("x", "y"), rows=((2.0**60, 1.0), (2.0**60, 2.0))))
    assert _axis_labels(svg) == ["1.1529215046068467e+18", "1.1529215046068472e+18", "1", "2"]


def test_emit_svg_to_file(tmp_path):
    table = SweepTable(headers=("x", "y"), rows=((0.0, 1.0), (1.0, 4.0)))
    target = tmp_path / "plot.svg"
    emit_svg(table, target)
    text = target.read_text()
    assert text.count("<polyline") == 1
    assert 'xmlns="http://www.w3.org/2000/svg"' in text
