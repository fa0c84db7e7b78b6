import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmigan import dataio
from cmigan.dataio import (
    ColumnMapping,
    DataError,
    ManifestEntry,
    _parse_body,
    _parse_cells,
    default_headers,
    load_csv,
    read_manifest,
    save_csv,
    sidecar_path,
    write_manifest,
    write_sidecar,
)
from cmigan.datagen import gen_linear1, true_cmi
from cmigan.estimators import SampleSet

from oracle_tools import read_sidecar


def _mapping(dz=1):
    return ColumnMapping(x_cols=["x0"], y_cols=["y0"], z_cols=[f"z{i}" for i in range(dz)])


def test_round_trip_is_bitwise(tmp_path):
    s, _ = gen_linear1(200, 2, seed=4)
    path = str(tmp_path / "lin.csv")
    save_csv(s, path)
    loaded = load_csv(path, _mapping(dz=2))
    assert np.array_equal(loaded.samples.data, s.data)
    assert loaded.samples.dims == s.dims
    assert loaded.dropped_rows == 0
    assert loaded.kept_rows == loaded.source_rows == 200


def test_csv_bytes_pinned(tmp_path):
    # a signed zero, the smallest subnormal, a float printed without an
    # exponent and an integral value; csv's \r\n line ends
    s = SampleSet(np.array([[-0.0, 5e-324, 1e16], [1.0, 0.1, -2.5]]), (1, 1, 1))
    path = tmp_path / "pin.csv"
    save_csv(s, str(path))
    assert path.read_bytes() == (
        b"x0,y0,z0\r\n-0,4.9406564584124654e-324,10000000000000000\r\n"
        b"1,0.10000000000000001,-2.5\r\n"
    )


def _savetxt_bytes(samples: SampleSet, path) -> bytes:
    """The reference bytes of ``samples`` as a CSV: one np.savetxt call."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(
            fh, samples.data, fmt="%.17g", delimiter=",", newline="\r\n",
            header=",".join(default_headers(samples.dims)), comments="",
        )
    return path.read_bytes()


def _assert_savetxt_parity(tmp_path, samples: SampleSet):
    save_csv(samples, str(tmp_path / "got.csv"))
    assert (tmp_path / "got.csv").read_bytes() == _savetxt_bytes(samples, tmp_path / "want.csv")


# values whose text is easy to get wrong: signed zeros, the smallest
# subnormal, the largest finite doubles, integral floats with and
# without an exponent, and a decimal fraction that binary cannot hold
_EDGE_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -3.0, 1e16, 2.0**53, 0.1,
])


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("dims", [(1, 1, 0), (1, 1, 1), (2, 3, 2), (4, 4, 7)])
def test_save_csv_equals_savetxt(tmp_path, rows, dims):
    width = sum(dims)
    data = np.random.default_rng(rows + width).standard_normal((rows, width)) * 10.0 ** (
        np.arange(width) - width // 2
    )
    # every 7th cell cycles through the edge values, so every block holds some
    cells = data.reshape(-1)
    cells[::7] = np.resize(_EDGE_VALUES, len(cells[::7]))
    _assert_savetxt_parity(tmp_path, SampleSet(data, dims))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_save_csv_equals_savetxt_on_generated_matrices(tmp_path, data):
    dims = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5)))
    values = data.draw(arrays(
        np.float64, (data.draw(st.integers(0, 40)), sum(dims)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(list(_EDGE_VALUES))
        ),
    ))
    _assert_savetxt_parity(tmp_path, SampleSet(values, dims))


def test_default_headers():
    assert default_headers((2, 1, 3)) == ["x0", "x1", "y0", "z0", "z1", "z2"]


def test_column_selection_by_name_and_index(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,c\n1,2,3\n4,5,6\n")
    by_name = load_csv(path, ColumnMapping(x_cols=["c"], y_cols=["a"]))
    by_index = load_csv(path, ColumnMapping(x_cols=[2], y_cols=[0]))
    assert np.array_equal(by_name.samples.data, by_index.samples.data)
    assert by_name.samples.data.tolist() == [[3.0, 1.0], [6.0, 4.0]]


def test_missing_cells_drop_rows(tmp_path):
    path = str(tmp_path / "m.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x0,y0\n")
        fh.write("1.0,2.0\n")
        fh.write(",3.0\n")  # empty cell
        fh.write("abc,4.0\n")  # non-numeric
        fh.write("-200,5.0\n")  # sentinel
        fh.write("nan,6.0\n")  # non-finite
        fh.write("7.0,8.0\n")
        fh.write("9.0\n")  # short row
    loaded = load_csv(path, ColumnMapping(x_cols=["x0"], y_cols=["y0"]))
    assert loaded.kept_rows == 2
    assert loaded.dropped_rows == 5
    assert loaded.source_rows == 7
    assert loaded.kept_rows + loaded.dropped_rows == loaded.source_rows
    assert loaded.samples.data.tolist() == [[1.0, 2.0], [7.0, 8.0]]


def test_missing_only_counts_mapped_columns(tmp_path):
    path = str(tmp_path / "m2.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x0,y0,junk\n1.0,2.0,-200\n3.0,4.0,oops\n")
    loaded = load_csv(path, ColumnMapping(x_cols=["x0"], y_cols=["y0"]))
    assert loaded.kept_rows == 2
    assert loaded.dropped_rows == 0


def test_semicolon_dialect_with_decimal_commas(tmp_path):
    path = str(tmp_path / "s.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x0;y0;z0\n")
        fh.write("1,5;2,25;0,125\n")
        fh.write("-200;1,0;2,0\n")
        fh.write("3,0;4,0;5,0\n")
    loaded = load_csv(path, _mapping(), semicolon=True)
    assert loaded.kept_rows == 2
    assert loaded.dropped_rows == 1
    assert loaded.samples.data.tolist() == [[1.5, 2.25, 0.125], [3.0, 4.0, 5.0]]


def test_whole_header_needs_dims_to_cover_every_column(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("a,b,c\n1,2,3\n")
    mapping = ColumnMapping.from_dims((1, 1, 0))
    assert load_csv(str(path), mapping).samples.dims == (1, 1, 0)
    with pytest.raises(DataError, match="--dims 1,1,0 does not cover the 3 CSV columns"):
        load_csv(str(path), mapping, whole_header=True)
    assert load_csv(str(path), ColumnMapping.from_dims((1, 1, 1)), whole_header=True).kept_rows == 1


def test_error_cases(tmp_path, monkeypatch):
    with pytest.raises(DataError):
        load_csv(str(tmp_path / "nope.csv"), _mapping())

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(str(empty), _mapping())

    missing_col = tmp_path / "cols.csv"
    missing_col.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        load_csv(str(missing_col), _mapping())
    with pytest.raises(DataError):
        load_csv(str(missing_col), ColumnMapping(x_cols=[5], y_cols=["b"]))

    all_missing = tmp_path / "gone.csv"
    all_missing.write_text("x0,y0,z0\n-200,1,2\n")
    with pytest.raises(DataError):
        load_csv(str(all_missing), _mapping())

    not_utf8 = tmp_path / "latin.csv"
    not_utf8.write_bytes(b"x0,y0,z0\n1,2,\xe9\n")
    with pytest.raises(DataError):
        load_csv(str(not_utf8), _mapping())

    with pytest.raises(DataError):
        ColumnMapping(x_cols=[], y_cols=["y0"])

    # the size guard, read at call time
    big = tmp_path / "big.csv"
    big.write_text("x0,y0,z0\n1,2,3\n")
    monkeypatch.setattr(dataio, "MAX_CSV_BYTES", 8)
    with pytest.raises(DataError, match="exceeds the 8 byte limit"):
        load_csv(str(big), _mapping())


@pytest.mark.parametrize("text, semicolon, error", [
    ('a,b,c\n"' + "x" * 200_000 + '",2,3\n4,5,6\n', False,
     "line 2: field larger than field limit (131072)"),
    # a lax reader lets the open quote swallow the last two rows
    ('a,b,c\n1,2,3\n4,",6\n7,8,9\n10,11,12\n', False, "line 5: unexpected end of data"),
    ('a;b;c\n1;2;3\n4;";6\n7;8;9\n', True, "line 4: unexpected end of data"),
    # a lax reader reads the first cell as 12
    ('a,b,c\n"1"2,3,4\n5,6,7\n', False, "line 2: ',' expected after '\"'"),
], ids=["cell-over-field-limit", "open-quote", "semicolon-open-quote", "text-after-quote"])
def test_bad_quoting_is_data_error(tmp_path, text, semicolon, error):
    path = tmp_path / "q.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: {error}")):
        load_csv(str(path), ColumnMapping.from_dims((1, 1, 1)), semicolon=semicolon)


def test_sidecar_round_trip(tmp_path):
    s, params = gen_linear1(50, 3, seed=9)
    csv_path = str(tmp_path / "d.csv")
    save_csv(s, csv_path)
    side = write_sidecar(csv_path, params, true_cmi(params))
    assert side == sidecar_path(csv_path) == csv_path + ".json"
    loaded_params, truth = read_sidecar(side)
    assert truth == pytest.approx(true_cmi(params))
    from cmigan.datagen import regenerate

    assert np.array_equal(regenerate(loaded_params).data, s.data)


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a.csv", "CI", (1, 1, 5)),
        ManifestEntry("b.csv", "CD", (1, 1, 5)),
    ]
    path = str(tmp_path / "manifest.json")
    write_manifest(path, entries)
    back = read_manifest(path)
    assert [(e.csv, e.label, e.dims) for e in back] == [
        ("a.csv", "CI", (1, 1, 5)),
        ("b.csv", "CD", (1, 1, 5)),
    ]


def test_manifest_errors(tmp_path):
    with pytest.raises(DataError):
        ManifestEntry("a.csv", "maybe", (1, 1, 1))
    with pytest.raises(DataError):
        read_manifest(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(DataError):
        read_manifest(str(bad))
    nolist = tmp_path / "nolist.json"
    nolist.write_text('{"datasets": 3}')
    with pytest.raises(DataError):
        read_manifest(str(nolist))
    number = tmp_path / "number.json"
    number.write_text("5")
    with pytest.raises(DataError, match="must contain a 'datasets' list"):
        read_manifest(str(number))
    malformed = tmp_path / "mal.json"
    malformed.write_text('{"datasets": [{"csv": "a.csv"}]}')
    with pytest.raises(DataError):
        read_manifest(str(malformed))


@pytest.mark.parametrize("entry, error", [
    ({"csv": 5, "label": "CI", "dims": [1, 1, 1]}, "csv must be a non-empty string, got 5"),
    ({"csv": None, "label": "CI", "dims": [1, 1, 1]}, "csv must be a non-empty string, got None"),
    ({"csv": "", "label": "CI", "dims": [1, 1, 1]}, "csv must be a non-empty string, got ''"),
    ({"csv": "a.csv", "label": "CI", "dims": [1, 1]}, "got [1, 1]"),
    ({"csv": "a.csv", "label": "CI", "dims": ["a", 1, 1]}, "got ['a', 1, 1]"),
    ({"csv": "a.csv", "label": "CI", "dims": "111"}, "got '111'"),
    ({"csv": "a.csv", "label": "CI", "dims": [0, 1, 1]}, "got [0, 1, 1]"),
    ({"csv": "a.csv", "label": "CI", "dims": [1, 1, -1]}, "got [1, 1, -1]"),
    ({"csv": "a.csv", "label": "CI", "dims": [1, True, 1]}, "got [1, True, 1]"),
    ({"csv": "a.csv", "label": "maybe", "dims": [1, 1, 1]}, "label must be CI or CD"),
    (5, "'int' object is not subscriptable"),
], ids=["numeric-csv", "null-csv", "empty-csv", "two-dims", "string-dim", "string-dims",
        "zero-dx", "negative-dz", "bool-dim", "bad-label", "non-object"])
def test_malformed_manifest_entry_names_it(tmp_path, entry, error):
    path = tmp_path / "m.json"
    good = {"csv": "b.csv", "label": "CD", "dims": [1, 1, 1]}
    path.write_text(json.dumps({"datasets": [good, entry]}), encoding="utf-8")
    with pytest.raises(DataError, match=r"malformed dataset entry 1: .*" + re.escape(error)):
        read_manifest(str(path))


def test_seventeen_digit_precision(tmp_path):
    # values chosen to exercise the full double mantissa
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 2)) * np.pi
    s = SampleSet(data, (1, 1, 0))
    path = str(tmp_path / "prec.csv")
    save_csv(s, path)
    loaded = load_csv(path, ColumnMapping(x_cols=["x0"], y_cols=["y0"]))
    assert np.array_equal(loaded.samples.data, data)


def _check_parsers_agree(tmp_path, body: str, wanted: list, line_end: str = "\r\n",
                         semicolon: bool = False) -> bool:
    """Assert that the one-call numpy parse of ``body``, where it accepts
    it, and load_csv of a file "a,b,c,d" + ``body`` both give the per-cell
    parser's data bits and row counts. Where the strict csv reader that
    load_csv uses rejects ``body``, assert that numpy declines it and
    that load_csv raises the reader's error as a DataError naming the
    line. Returns whether numpy accepted.

    With ``semicolon``, the file is first written in that dialect, each
    ',' a ';' and each '.' a ','. The per-cell parser then reads each
    cell's ',' as a decimal point, so the check also shows that load_csv,
    which turns every ',' of the body into a '.' before either parse,
    reads each cell the same way."""
    delimiter = ";" if semicolon else ","
    points = str.maketrans(",", ".") if semicolon else {}
    if semicolon:
        body = body.translate(str.maketrans(",.", ";,"))
    path = tmp_path / "parity.csv"
    path.write_bytes(("a,b,c,d".replace(",", delimiter) + line_end + body).encode("utf-8"))
    mapping = ColumnMapping(x_cols=wanted[:1], y_cols=wanted[1:2], z_cols=wanted[2:])
    reader = csv.reader(io.StringIO(body, newline=""), delimiter=delimiter, strict=True)
    try:
        cells, source = _parse_cells(([cell.translate(points) for cell in row] for row in reader), wanted)
    except csv.Error as exc:
        with pytest.raises(ValueError):
            _parse_body(body.translate(points), wanted, delimiter)
        # the header is line 1
        with pytest.raises(DataError, match=re.escape(f": line {1 + reader.line_num}: {exc}")):
            load_csv(str(path), mapping, semicolon=semicolon)
        return False
    cells = cells.reshape(-1, len(wanted))
    try:
        fast, fast_source = _parse_body(body.translate(points), wanted, delimiter)
    except ValueError:
        fast = None
    else:
        assert fast_source == source
        assert fast.shape == cells.shape
        assert np.array_equal(fast.view(np.int64), cells.view(np.int64))
    if not len(cells):
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(str(path), mapping, semicolon=semicolon)
    else:
        loaded = load_csv(str(path), mapping, semicolon=semicolon)
        assert loaded.samples.data.shape == cells.shape
        assert np.array_equal(loaded.samples.data.view(np.int64), cells.view(np.int64))
        counts = (loaded.kept_rows, loaded.dropped_rows, loaded.source_rows)
        assert counts == (len(cells), source - len(cells), source)
    return fast is not None


# each case: an id, the lines after the header, the mapped columns, and
# whether the numpy parse accepts the lines, in either dialect
_PARSE_CASES = [
    ("float17", "-0,4.9406564584124654e-324,10000000000000000\r\n"
                "0.10000000000000001,-2.5,1.7976931348623157e+308\r\n", [0, 1, 2], True),
    ("padded-whitespace", " 1.5 ,\t2,3\u2003, 4\r\n", [0, 1, 2, 3], True),
    ("extra-columns", "1,2,3,4,5,6\n7,8,9,10\n", [0, 1], True),
    ("repeated-column", "1,2,3\n", [2, 0, 2], True),
    ("non-finite", "nan,1,2\ninf,1,2\n-Infinity,1,2\n1e999,1,2\n1,2,3\n", [0, 1, 2], True),
    ("sentinel", "-200,1,2\n1,-2e2,2\n1,2,-200.0\n1,2,3\n", [0, 1, 2], True),
    ("sentinel-outside-mapping", "1,2,-200\n", [0, 1], True),
    ("blank-lines", "1,2,3\n\n\r\n4,5,6\n", [0, 1, 2], True),
    ("lf", "1,2,3\n4,5,6\n", [0, 1, 2], True),
    ("crlf", "1,2,3\r\n4,5,6\r\n", [0, 1, 2], True),
    ("no-final-line-end", "1,2,3\r\n4,5,6", [0, 1, 2], True),
    ("all-dropped", "-200,1,2\nnan,1,2\n", [0, 1, 2], True),
    ("blank-cell", "1,,3\n4,5,6\n", [0, 1, 2], False),
    ("blank-cell-outside-mapping", "1,2,\n", [0, 1], True),
    ("whitespace-cell", "1,  ,3\n", [0, 1, 2], False),
    ("junk", "1,abc,3\n4,5,6\n", [0, 1, 2], False),
    ("underscore", "1_0,2,3\n", [0, 1, 2], False),
    ("arabic-indic-digit", "\u0663,2,3\n", [0, 1, 2], False),
    ("quoted", '"1",2,3\n4,5,6\n', [0, 1, 2], False),
    ("quoted-comma-outside-mapping", '"7,8",1,2,3\n', [2, 3], False),
    ("short-row", "1,2,3\n4\n", [0, 1], False),
    ("comment-line", "# note\n1,2,3\n", [0, 1, 2], False),
    ("whitespace-line", "1,2,3\n   \n4,5,6\n", [0, 1, 2], False),
    ("comma-only-line", "1,2,3\n,,,\n", [0, 1, 2], False),
    ("lone-cr", "1,2,3\r4,5,6\r", [0, 1, 2], False),
    ("no-rows", "", [0, 1, 2], False),
]


@pytest.mark.parametrize(
    "body, wanted, fast, semicolon",
    [(*case[1:], semicolon) for semicolon in (False, True) for case in _PARSE_CASES],
    ids=[case[0] + suffix for suffix in ("", "-semicolon") for case in _PARSE_CASES],
)
def test_numpy_and_cell_parsers_agree(tmp_path, body, wanted, fast, semicolon):
    assert _check_parsers_agree(tmp_path, body, wanted, semicolon=semicolon) == fast


_NUMBER = st.floats().map(lambda v: "%.17g" % v)
_PAD = st.sampled_from(["", " ", "\t", "\u2003", "\xa0"])
_CLEAN_CELL = st.one_of(
    _NUMBER, st.tuples(_PAD, _NUMBER, _PAD).map("".join), st.sampled_from(["-200", "nan", "inf"])
)
_DIRTY_CELL = st.one_of(
    st.sampled_from(["", "  ", "abc", "1_0", "\u0663", "#", '"', '"a"b']),
    _NUMBER.map(lambda t: f'"{t}"'),
    st.tuples(_NUMBER, _NUMBER).map(lambda t: f'"{t[0]},{t[1]}"'),
)
_CLEAN_ROW = st.lists(_CLEAN_CELL, min_size=4, max_size=6)
# one dirty cell in an otherwise clean row, so that a misread of it alone
# would change the result
_DIRTY_ROW = st.builds(
    lambda row, i, cell: row[:i] + [cell] + row[i:], _CLEAN_ROW, st.integers(0, 6), _DIRTY_CELL
)
_SHORT_ROW = st.lists(_CLEAN_CELL, min_size=1, max_size=3)
# mostly clean lines, so that one odd line decides which parser runs
_LINE = st.one_of(
    *[_CLEAN_ROW.map(",".join)] * 4,
    st.one_of(
        _DIRTY_ROW.map(",".join), _SHORT_ROW.map(",".join),
        st.sampled_from(["", "   ", "# note", ",,,"]),
    ),
)
_LINE_END = st.sampled_from(["\n", "\r\n"])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(st.tuples(_LINE, _LINE_END), max_size=8),
    wanted=st.sampled_from([[0, 1], [0, 1, 2], [2, 3], [3, 1], [2, 0, 2], [0, 1, 2, 3]]),
    line_end=_LINE_END,
    semicolon=st.booleans(),
)
def test_numpy_and_cell_parsers_agree_on_generated_files(tmp_path, lines, wanted, line_end, semicolon):
    _check_parsers_agree(tmp_path, "".join(line + end for line, end in lines), wanted, line_end, semicolon)


def test_column_mapping_rejects_a_string_block():
    # a string block would read one column per character
    with pytest.raises(TypeError, match="y_cols must be a list"):
        ColumnMapping(x_cols=["x0"], y_cols="ab")
