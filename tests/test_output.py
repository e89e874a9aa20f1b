import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kscrit.output import to_jsonable, write_csv, write_json, write_svg_lineplot


def test_floats_are_written_shortest_round_trip(tmp_path):
    xs = [0.1, 1 / 3, 2.0, 1e-300, 12345.6789, math.inf, math.nan]
    path = write_csv(tmp_path / "f.csv", {"x": xs})
    cells = path.read_text().splitlines()[1:]
    assert cells[-2:] == ["inf", "nan"]
    assert [float(c) for c in cells[:-1]] == xs[:-1]
    assert cells[:-2] == [repr(x) for x in xs[:-2]]


def test_empty_table_is_header_only(tmp_path):
    path = write_csv(tmp_path / "empty.csv", {"a": [], "b": np.array([])})
    assert path.read_text() == "a,b\n"


def test_csv_cells(tmp_path):
    # an int, a Python float, an np.float64 inside a list and a string
    path = write_csv(tmp_path / "t.csv", {"x": [1, np.float64(2.25)], "y": [0.5, "tag"]})
    assert path.read_text() == "x,y\n1,0.5\n2.25,tag\n"


def test_none_is_an_empty_cell(tmp_path):
    path = write_csv(tmp_path / "n.csv", {"K": [None, 1.5], "d": np.array([3, 4])})
    assert path.read_text() == "K,d\n,3\n1.5,4\n"


def test_columns_of_unequal_length_raise(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "u.csv", {"a": np.arange(3.0), "b": [1.0, 2.0]})


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_EDGE_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(_EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True)), max_size=40),
    st.booleans(),
)
def test_float_cells_read_back_bit_identically(tmp_path_factory, xs, as_array):
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    col = np.array(xs, dtype=float) if as_array else xs
    write_csv(path, {"x": col, "n": list(range(len(xs)))})
    lines = path.read_text().splitlines()
    assert lines[0] == "x,n"
    cells = [line.split(",") for line in lines[1:]]
    assert [int(n) for _, n in cells] == list(range(len(xs)))
    for (cell, _), x in zip(cells, xs, strict=True):
        if math.isnan(x):
            assert cell == "nan"
        else:
            assert _bits(float(cell)) == _bits(x)


def test_json_handles_numpy_and_dataclasses(tmp_path):
    from kscrit.criteria import Verdict

    payload = {
        "arr": np.array([1.0, 2.0]),
        "i": np.int64(3),
        "verdict": Verdict(kind="global", epsilon=0.5),
        "inf": math.inf,
    }
    path = write_json(tmp_path / "x.json", payload)
    data = json.loads(path.read_text())
    assert data["arr"] == [1.0, 2.0]
    assert data["i"] == 3
    assert data["verdict"]["kind"] == "global"
    assert data["inf"] == "inf"


def test_jsonable_is_deterministic():
    obj = {"b": np.array([1.5]), "a": (1, 2.5)}
    assert to_jsonable(obj) == to_jsonable(obj)


def test_svg_plot_written_and_deterministic(tmp_path):
    x = np.linspace(0, 1, 20)
    y = {"f": np.sin(x)}
    p1 = write_svg_lineplot(tmp_path / "a.svg", x, y, title="t")
    p2 = write_svg_lineplot(tmp_path / "b.svg", x, y, title="t")
    assert p1.read_bytes() == p2.read_bytes()
    assert b"<svg" in p1.read_bytes()


def test_svg_text_is_unchanged_by_formatting_shared_numbers_once(tmp_path):
    # two series with non-finite points in different places, one of them constant,
    # and y data holding both 0.0 and -0.0 (the linear plot's y axis label is -0.0);
    # the sha256 of each file was taken from the formatter that wrote every
    # coordinate of every series separately
    import hashlib

    x = np.array([0.01, 0.1, 0.5, 1.0, math.nan, 2.5, 10.0, 40.0])
    series = {
        "f": np.array([-0.0, 0.0, 1 / 3, math.nan, 2.0, math.inf, 0.1, 1e-3]),
        "C": np.array([0.7, math.nan, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]),
    }
    expected = {
        False: "a2ce0cd7a829bf358c121d476f074f3a942b9d4a5766ad957c541ec1cecf85f2",
        True: "5a3961a6ae9e1b91b7a6cc1e3df4e51f5f126f15703172f9639c763e82d48982",
    }
    for log, digest in expected.items():
        path = write_svg_lineplot(tmp_path / f"{log}.svg", x, series, title="t", log_x=log, log_y=log)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
