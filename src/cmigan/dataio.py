"""CSV and JSON plumbing: sample matrices, model sidecars, benchmark manifests.

CSV files are UTF-8 with a header row and '.' decimal points or, behind a
flag, ';' separators and ',' decimals (the UCI air-quality export), whose
commas become points before one parse serves both dialects: one numpy
call where the body is well formed, else cell by cell, to the same bits.
The value -200 is a missing-data sentinel, as are empty and non-numeric
cells; rows containing any missing value in a mapped column are dropped
and counted. Floats are written with 17 significant digits so a save/load
round trip is bit-exact; the writer formats a block of rows per call and
produces the bytes ``np.savetxt`` would.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .datagen import ModelParams
from .estimators import SampleSet
from .neuralnet import typed_value

MISSING_SENTINEL = -200.0
MAX_CSV_BYTES = 1 << 29  # 512 MiB guard against pathological inputs
_SAVE_BLOCK_ROWS = 4096  # rows per format call in save_csv


class DataError(ValueError):
    """Unusable input data (missing file/columns, empty selection, bad encoding)."""


@dataclass
class ColumnMapping:
    """Which CSV columns form the x/y/z blocks.

    Columns may be header names or 0-based integer indices.
    The estimators z-score their input, so loading does not.
    """

    x_cols: list
    y_cols: list
    z_cols: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("x_cols", "y_cols", "z_cols"):
            if not isinstance(block := getattr(self, name), (list, tuple)):
                # a string would be read as one column per character
                raise TypeError(f"{name} must be a list of column names or indices, got {block!r}")
        if not self.x_cols or not self.y_cols:
            raise DataError("x_cols and y_cols must be non-empty")

    @classmethod
    def from_dims(cls, dims) -> "ColumnMapping":
        """The mapping of a file whose columns are [x | y | z], ``dims`` wide."""
        dx, dy, dz = typed_value("dims", "tuple[int, int, int]", dims)
        return cls(list(range(dx)), list(range(dx, dx + dy)), list(range(dx + dy, dx + dy + dz)))


@dataclass
class LoadedCsv:
    """A parsed sample matrix plus row accounting (dropped + kept = source)."""

    samples: SampleSet
    dropped_rows: int
    kept_rows: int
    source_rows: int


def _resolve(columns: list, header: list[str], path: str) -> list[int]:
    out = []
    for col in columns:
        if isinstance(col, int) or (isinstance(col, str) and col.lstrip("-").isdigit()):
            idx = int(col)
            if not 0 <= idx < len(header):
                raise DataError(f"{path}: column index {idx} out of range (0..{len(header) - 1})")
            out.append(idx)
        elif col in header:
            out.append(header.index(col))
        else:
            raise DataError(f"{path}: no column named {col!r} in header {header}")
    return out


def _parse_cell(text: str) -> float | None:
    try:
        value = float(text.strip())
    except ValueError:
        return None
    if value == MISSING_SENTINEL or not np.isfinite(value):
        return None
    return value


def _parse_cells(reader, wanted: list[int]) -> tuple[np.ndarray, int]:
    """(kept rows, source row count) of csv ``reader``'s rows, cell by cell."""
    rows = []
    source_rows = 0
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        source_rows += 1
        if max(wanted) >= len(row):
            continue  # short row: counts as dropped
        vals = [_parse_cell(row[i]) for i in wanted]
        if any(v is None for v in vals):
            continue
        rows.append(vals)
    return np.asarray(rows, dtype=np.float64), source_rows


def _parse_body(body: str, wanted: list[int], delimiter: str) -> tuple[np.ndarray, int]:
    """(kept rows, source row count) of the ``delimiter``-separated lines
    ``body`` in one numpy parse, equal bit for bit to :func:`_parse_cells`.

    Raises ValueError where the two could differ: a blank, short or
    non-numeric cell, a whitespace-only line, a lone carriage return, a
    body without rows, or a quote character (csv unquotes a cell and
    keeps the delimiters inside it).
    """
    if '"' in body or not body.strip():
        raise ValueError("quoted cells or no rows")
    data = np.loadtxt(
        io.StringIO(body), delimiter=delimiter, usecols=wanted, ndmin=2, comments=None, dtype=np.float64
    )
    keep = np.isfinite(data).all(axis=1) & (data != MISSING_SENTINEL).all(axis=1)
    return data[keep], len(data)


def load_csv(path: str | os.PathLike, mapping: ColumnMapping, semicolon: bool = False,
             whole_header: bool = False) -> LoadedCsv:
    """Read a header-ed CSV into a SampleSet with columns [x|y|z].

    ``path`` is a string or an ``os.PathLike``, never a file descriptor.
    ``semicolon=True`` switches to ';' separators with ',' decimals.
    ``whole_header=True`` requires the mapping, a ``--dims`` split, to
    name as many columns as the header has.
    Rows with any missing mapped cell (empty, non-numeric, the -200
    sentinel, or non-finite) are dropped and counted; the rest keep the
    file's order.
    Either dialect's body is parsed in one numpy call where it is well
    formed, and cell by cell otherwise, with the same result.
    A malformed quote or an over-long cell is a DataError naming its line.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a string or os.PathLike, got {path!r}")
    delimiter = ";" if typed_value("semicolon", "bool", semicolon) else ","
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    if os.path.getsize(path) > MAX_CSV_BYTES:
        raise DataError(f"{path} exceeds the {MAX_CSV_BYTES} byte limit")
    header_lines = 0  # lines read before ``reader``'s first, for error messages
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter, strict=True)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path} is empty; a header row is required") from None
            header = [h.strip() for h in header]
            dims = (len(mapping.x_cols), len(mapping.y_cols), len(mapping.z_cols))
            if whole_header and sum(dims) != len(header):
                raise DataError("--dims {},{},{} does not cover the {} CSV columns".format(*dims, len(header)))
            idx = [
                _resolve(cols, header, path)
                for cols in (mapping.x_cols, mapping.y_cols, mapping.z_cols)
            ]
            wanted = idx[0] + idx[1] + idx[2]
            # in the semicolon dialect a ',' separates nothing, so each is a decimal point
            body = fh.read().replace(",", ".") if semicolon else fh.read()
            try:
                data, source_rows = _parse_body(body, wanted, delimiter)
            except ValueError:
                header_lines = reader.line_num
                reader = csv.reader(io.StringIO(body, newline=""), delimiter=delimiter, strict=True)
                data, source_rows = _parse_cells(reader, wanted)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        # a malformed quote, or a cell longer than csv's field size limit
        raise DataError(f"{path}: line {header_lines + reader.line_num}: {exc}") from None

    if not len(data):
        raise DataError(f"{path}: no usable rows after dropping missing data")
    return LoadedCsv(
        samples=SampleSet(data, dims),
        dropped_rows=source_rows - len(data),
        kept_rows=len(data),
        source_rows=source_rows,
    )


def default_headers(dims: tuple[int, int, int]) -> list[str]:
    dx, dy, dz = dims
    return (
        [f"x{i}" for i in range(dx)]
        + [f"y{i}" for i in range(dy)]
        + [f"z{i}" for i in range(dz)]
    )


def save_csv(samples: SampleSet, path: str):
    """Write a SampleSet as comma-separated UTF-8 under its default
    headers, with 17-digit floats and csv's \\r\\n line ends.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",",
    newline="\\r\\n")``, but each ``%`` operation formats up to
    ``_SAVE_BLOCK_ROWS`` rows where savetxt makes one call per row; the
    block bounds the text held in memory at once.
    """
    data = samples.data
    row = ",".join(["%.17g"] * data.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(default_headers(samples.dims)) + "\r\n")
        for start in range(0, len(data), _SAVE_BLOCK_ROWS):
            block = data[start:start + _SAVE_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def sidecar_path(csv_path: str) -> str:
    return csv_path + ".json"


def write_sidecar(csv_path: str, params: ModelParams, true_value: float | None):
    """Record generator parameters (and closed-form truth, if any) next to a CSV."""
    doc = params.to_dict()
    doc["true_cmi"] = true_value
    doc["csv"] = os.path.basename(csv_path)
    with open(sidecar_path(csv_path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return sidecar_path(csv_path)


@dataclass
class ManifestEntry:
    """A labeled CSV, its path relative to the manifest or absolute, and its [x|y|z] dims."""

    csv: str
    label: str
    dims: tuple[int, int, int]

    def __post_init__(self):
        if not isinstance(self.csv, str) or not self.csv:
            raise DataError(f"manifest csv must be a non-empty string, got {self.csv!r}")
        if self.label not in ("CI", "CD"):
            raise DataError(f"manifest label must be CI or CD, got {self.label!r}")
        self.dims = typed_value("dims", "tuple[int, int, int]", self.dims)


def write_manifest(path: str, entries: list[ManifestEntry]):
    doc = {"datasets": [{"csv": e.csv, "label": e.label, "dims": list(e.dims)} for e in entries]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def read_manifest(path: str) -> list[ManifestEntry]:
    if not os.path.isfile(path):
        raise DataError(f"no such manifest: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("datasets"), list):
        raise DataError(f"{path} must contain a 'datasets' list")
    out = []
    for i, entry in enumerate(doc["datasets"]):
        try:
            out.append(ManifestEntry(entry["csv"], entry["label"], entry["dims"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed dataset entry {i}: {exc}") from None
    return out
