import tracemalloc
import warnings

import numpy as np
import pytest

from fdpriv import uniform_grid
from fdpriv.io import (
    CsvFormatError,
    format_float,
    read_curves_csv,
    read_meta,
    write_curves_csv,
    write_meta,
)


def test_format_float_round_trips():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=50)) + [
        0.1, -0.0, 1e-300, 1e300, 3.141592653589793, 2.0 / 3.0, 1e-5,
    ]
    for v in values:
        assert float(format_float(v)) == float(v)


def test_curve_csv_round_trip_is_bit_exact(tmp_path):
    grid = uniform_grid(17)
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(5, 17))
    path = tmp_path / "curves.csv"
    write_curves_csv(path, grid, rows)
    grid2, rows2 = read_curves_csv(path)
    assert np.array_equal(grid2.points, grid.points)
    assert np.array_equal(grid2.weights, grid.weights)
    assert np.array_equal(rows2, rows)
    path2 = tmp_path / "again.csv"
    write_curves_csv(path2, grid2, rows2)
    assert path.read_bytes() == path2.read_bytes()


def test_curve_csv_bytes_are_format_float_joins(tmp_path):
    edge = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1.7976931348623157e308,
            3.0, -42.0, 1e16, 0.1 + 0.2, 1e-5, 123456789.125]
    rng = np.random.default_rng(4)
    for grid, rows in [
        (uniform_grid(len(edge)), np.array([edge, edge[::-1]])),
        (uniform_grid(9), rng.normal(scale=1e3, size=(6, 9)) * rng.uniform(size=(6, 9)) ** 40),
    ]:
        path = tmp_path / "curves.csv"
        write_curves_csv(path, grid, rows)
        lines = [grid.points, *rows]
        expected = "".join(",".join(format_float(v) for v in line) + "\n" for line in lines)
        assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("width", [9, 11])
def test_write_curves_csv_refuses_rows_of_the_wrong_width(tmp_path, width):
    path = tmp_path / "c.csv"
    with pytest.raises(ValueError, match="curve rows do not match the grid size"):
        write_curves_csv(path, uniform_grid(10), np.zeros((2, width)))
    assert not path.exists()


def test_curve_csv_uses_lf_and_no_header(tmp_path):
    grid = uniform_grid(3)
    path = tmp_path / "c.csv"
    write_curves_csv(path, grid, np.zeros((1, 3)))
    raw = path.read_bytes()
    assert b"\r" not in raw
    first = raw.decode().splitlines()[0]
    assert first == "0.0,0.5,1.0"


def test_read_curves_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.5,1.0\n1.0,2.0,oops\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_curves_csv(path)
    path.write_text("0.0,0.5,1.0\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_curves_csv(path)
    path.write_text("0.0,0.5,1.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError):
        read_curves_csv(path)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n", "\r\n \r\n"],
                         ids=["empty", "newline", "blank-lines", "blank-crlf"])
def test_read_curves_csv_refuses_a_file_without_data_and_warns_nothing(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match="need a grid row"):
            read_curves_csv(path)


def test_read_curves_csv_accepts_crlf_blank_lines_and_spaces_around_fields(tmp_path):
    path = tmp_path / "loose.csv"
    path.write_bytes(b"0.0, 0.5 ,1.0\r\n\r\n   \r\n 1.5,-2e-3 , 3\r\n\t\n4,5,6")
    grid, rows = read_curves_csv(path)
    assert grid.points.tolist() == [0.0, 0.5, 1.0]
    assert rows.tolist() == [[1.5, -2e-3, 3.0], [4.0, 5.0, 6.0]]


@pytest.mark.parametrize(
    "text, line, reason",
    [
        ("0.0,0.5,1.0\n1,2,3\n\n  \n4,5,6\n7,x,9\n1,2,3\n", 6,
         "field 2 is not a number: 'x'"),
        ("0.0,0.5,1.0\n\n\n \n1,2\n1,2,3\n", 5, "expected 3 values, got 2"),
        ("0.0,0.5,1.0\r\n\r\n1,2,3,4\r\n", 3, "expected 3 values, got 4"),
        ("0.0,0.5,1.0\n1_0,2,3\n", 2, "field 1 is not a number: '1_0'"),
        ("0.0,0.5,1.0\n\n1,2, \r\n", 3, "field 3 is not a number: ''"),
        ("0.0,oops,1.0\n1,2,3\n", 1, "field 2 is not a number: 'oops'"),
        ("\n \n0.5,0.0,1.0\n1,2,3\n", 3, "strictly increasing"),
        ("0.0,0.5,1.0\n1,2,3\n\n  \n4,nan,6\n", 5, "field 2 is not finite: 'nan'"),
        ("0.0,0.5,1.0\r\n1,2,3\r\n4,5, -inf \r\n", 3, "field 3 is not finite: '-inf'"),
        ("0.0,inf,1.0\n1,2,3\n", 1, "field 2 is not finite: 'inf'"),
        ("0.0,0.5,1.0\n" + "1,2,3\n" * 20000 + "4,x,6\n", 20002,
         "field 2 is not a number: 'x'"),
        ("0.0,0.5,1.0\n" + "1,2,3\n" * 20000 + "4,nan,6\n", 20002,
         "field 2 is not finite: 'nan'"),
    ],
    ids=["bad-cell", "short-row-after-blanks", "long-row-crlf", "underscore", "blank-last-field",
         "grid-row", "grid-after-blanks", "nan-after-blanks", "minus-inf-crlf", "inf-grid-row",
         "bad-cell-past-64k", "nan-past-64k"],
)
def test_read_curves_csv_names_the_exact_line(tmp_path, text, line, reason):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(CsvFormatError) as info:
        read_curves_csv(path)
    assert f": line {line}: " in str(info.value)
    assert reason in str(info.value)
    assert "row" not in str(info.value).replace(str(path), "")  # numpy's own wording


@pytest.mark.parametrize(
    "raw, line",
    [
        (b"0.0,0.5,1.0\n1,2,3\n\xff4,5,6\n", 3),
        (b"0.0,0.5,1.0\n" + b"1,2,3\n" * 20000 + b"4,5,\xff6\n7,8,9\n", 20002),
    ],
    ids=["line-3", "past-64k"],
)
def test_read_curves_csv_refuses_bytes_that_are_not_utf8(tmp_path, raw, line):
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    with pytest.raises(CsvFormatError) as info:
        read_curves_csv(path)
    assert str(info.value) == f"{path}: line {line}: not UTF-8 text"


def test_read_curves_csv_reads_a_long_crlf_file_with_blank_lines_bit_for_bit(tmp_path):
    grid = uniform_grid(50)
    rows = np.random.default_rng(5).normal(size=(300, 50))
    path = tmp_path / "curves.csv"
    write_curves_csv(path, grid, rows)
    loose = path.read_bytes().replace(b"\n", b"\r\n\r\n \t \r\n")
    assert len(loose) > 64 * 1024
    path.write_bytes(loose)
    grid2, rows2 = read_curves_csv(path)
    assert np.array_equal(grid2.points.view(np.uint64), grid.points.view(np.uint64))
    assert np.array_equal(rows2.view(np.uint64), rows.view(np.uint64))


def test_curve_csv_writer_and_reader_hold_one_array(tmp_path):
    grid = uniform_grid(1000)
    rows = np.random.default_rng(6).normal(size=(400, 1000))
    path = tmp_path / "curves.csv"
    peaks = []
    for call in (lambda: write_curves_csv(path, grid, rows), lambda: read_curves_csv(path)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1.5 * rows.nbytes, [peak / rows.nbytes for peak in peaks]


def test_read_curves_csv_reads_edge_floats_back_bit_for_bit(tmp_path):
    edge = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2]
    path = tmp_path / "edge.csv"
    write_curves_csv(path, uniform_grid(5), [edge, edge[::-1]])
    _, rows = read_curves_csv(path)
    expected = np.array([edge, edge[::-1]])
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


def test_read_curves_csv_nonuniform_gets_trapezoid_weights(tmp_path):
    path = tmp_path / "irregular.csv"
    path.write_text("0.0,0.1,0.4,1.0\n1.0,1.0,1.0,1.0\n", encoding="utf-8")
    grid, _ = read_curves_csv(path)
    assert np.allclose(grid.weights, [0.05, 0.2, 0.45, 0.3], atol=1e-15)


def test_meta_round_trip_and_key_order(tmp_path):
    path = tmp_path / "run.meta"
    write_meta(path, {"zeta": 1.5, "alpha": "text", "mid": 7, "flag": True,
                      "grid": (0.5, 1.0), "scores": [0.1, np.float64(2.0)]})
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["alpha=text", "flag=true", "grid=0.5,1.0", "mid=7", "scores=0.1,2.0",
                     "zeta=1.5"]
    parsed = read_meta(path)
    assert parsed["zeta"] == "1.5" and parsed["flag"] == "true"
    path.write_text("\n".join(["", *lines, "", ""]), encoding="utf-8")  # blank lines are skipped
    assert read_meta(path) == parsed
