import numpy as np

from dfsim.tableio import format_value, render_columns, render_csv

FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1, -2.5e17, 1.0 / 3.0]


def _by_value(header, columns):
    return render_csv(header, zip(*columns))


def test_float_columns_render_like_format_value():
    values = np.array(FLOATS)
    pairs = np.empty(values.size, dtype=complex)
    pairs.real, pairs.imag = values, values[::-1]
    columns = [values, pairs.real, pairs.imag, values.astype(np.float32)]
    text = render_columns(["a", "b", "c", "d"], columns)
    assert text == _by_value(["a", "b", "c", "d"], columns)
    assert text.splitlines()[1].split(",")[0] == format_value(float("nan"))


def test_other_columns_render_like_format_value():
    header = ["mixed", "ints", "labels"]
    columns = [
        [3, -7, 2**60, "label", True, 0.25],
        np.array([0, -4, 2**40, 2**60, 1, 7]),
        ["x", "", "{}", "{0}", "a b", "-0.0"],
    ]
    assert render_columns(header, columns) == _by_value(header, columns)


def test_render_columns_empty_table():
    assert render_columns(["time", "value"], [np.array([]), []]) == "time,value\n"
