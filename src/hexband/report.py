"""Spectrum reports and their JSON / CSV serializations.

JSON output is deterministic: field order is fixed by construction and every
float is rendered with 17 significant digits, which round-trips doubles
exactly.  ``report_from_json`` therefore reproduces interval lists bit for
bit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, NamedTuple, TextIO

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "FlatBand",
    "SampleRow",
    "SampleTable",
    "SpectrumReport",
    "format_float",
    "json_dumps",
    "report_to_json",
    "report_from_json",
    "write_samples_csv",
]

SCHEMA_VERSION = 1

CSV_COLUMNS = ("k", "E", "absD", "lower", "upper", "decision")
# Rows per formatting pass of the CSV writer: enough to amortize the column
# reads, few enough that a pass's strings stay small whatever the grid size.
_CSV_CHUNK = 4096
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"


@dataclass(frozen=True)
class FlatBand:
    """A phase-independent eigenvalue of infinite multiplicity."""

    k: float
    energy: float
    note: str = "infinite multiplicity"


class SampleRow(NamedTuple):
    """One scan sample: spectral variable, dispersion and envelope values.

    ``decision`` is ``band``, ``gap`` or ``dirichlet``; a ``dirichlet`` row
    has NaN in its three envelope and dispersion cells.  A scan keeps its
    samples as the columns of a :class:`SampleTable`, which builds these
    rows only when they are read.
    """

    k: float
    energy: float
    abs_dispersion: float
    lower: float
    upper: float
    decision: str


class SampleTable(Sequence):
    """A scan's samples as read-only float64 columns, a sequence of :class:`SampleRow`.

    ``decisions`` holds one code per row, an index into :attr:`DECISIONS`:
    0 gap, 1 band, 2 dirichlet.  Indexing builds one row, a slice is a
    table over views of the same columns, and iteration builds the rows
    from whole columns at once.  With no arguments the table is empty.
    """

    DECISIONS = ("gap", "band", "dirichlet")
    _LABELS = np.array(DECISIONS, dtype=object)

    __slots__ = ("k", "energy", "abs_dispersion", "lower", "upper", "decisions")

    def __init__(self, k=(), energy=(), abs_dispersion=(), lower=(), upper=(), decisions=()):
        columns = [np.asarray(c, dtype=np.float64) for c in (k, energy, abs_dispersion, lower,
                                                             upper)]
        columns.append(np.asarray(decisions, dtype=np.int8))
        if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise ValueError("sample columns must be one-dimensional and of equal length")
        for name, column in zip(self.__slots__, columns):
            view = column.view()  # read-only without freezing the caller's array
            view.flags.writeable = False
            setattr(self, name, view)

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleTable(*(column[index] for column in self._columns()))
        *values, code = (column[index].item() for column in self._columns())
        return SampleRow(*values, self.DECISIONS[code])

    def __iter__(self):
        *columns, codes = self._columns()
        return map(SampleRow, *(column.tolist() for column in columns),
                   self._LABELS[codes].tolist())

    def __eq__(self, other):
        if not isinstance(other, SampleTable):
            return NotImplemented
        return all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(self._columns(), other._columns()))

    __hash__ = None


@dataclass
class SpectrumReport:
    """Bands, gaps, flat bands and Dirichlet points over a scanned window.

    ``bands`` are closed energy intervals, ``gaps`` open ones; together they
    interleave and tile ``window`` up to the scan's edge resolution.  The
    negative branch reports energies E = -kappa^2, ordered increasingly.
    ``samples`` is the scan grid, one row per sample, which only the CSV
    format prints; a report read back from JSON has none.
    """

    branch: str
    window: tuple[float, float]
    bands: list[tuple[float, float]]
    gaps: list[tuple[float, float]]
    flat_bands: list[FlatBand] = field(default_factory=list)
    dirichlet_points: list[float] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    samples: SampleTable = field(default_factory=SampleTable)

    def gap_adjacent_to_zero(self) -> bool:
        """True when the interval bordering E = 0 from below is a gap.

        Only meaningful on the negative branch, where the window's upper
        edge sits just below zero.
        """
        if self.branch != "negative":
            raise ValueError("gap_adjacent_to_zero applies to negative-branch reports")
        top = self.window[1]
        if self.gaps and math.isclose(self.gaps[-1][1], top, rel_tol=1e-12, abs_tol=1e-300):
            return True
        return False


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return format(x, ".17g")


def json_dumps(obj: Any) -> str:
    """Serialize nested dict/list structures with fixed float formatting.

    Dict insertion order is preserved, a dataclass becomes an object of its
    fields in declaration order and an enum its value; floats go through
    :func:`format_float` so identical inputs give byte-identical output.
    """
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _emit(value, parts)
        parts.append("]")
    elif isinstance(obj, Enum):
        _emit(obj.value, parts)
    elif is_dataclass(obj):
        _emit({f.name: getattr(obj, f.name) for f in fields(obj)}, parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_to_dict(report: SpectrumReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "branch": report.branch,
        "window": {"e_lo": report.window[0], "e_hi": report.window[1]},
        "bands": [{"e_lo": lo, "e_hi": hi} for lo, hi in report.bands],
        "gaps": [{"e_lo": lo, "e_hi": hi} for lo, hi in report.gaps],
        "flat_bands": report.flat_bands,
        "dirichlet_points": list(report.dirichlet_points),
        "meta": report.meta,
    }


def report_to_json(report: SpectrumReport) -> str:
    return json_dumps(report_to_dict(report)) + "\n"


def _parse_int(text: str) -> int | float:
    # format_float writes -0.0 as "-0", which json reads as the integer 0
    return -0.0 if text == "-0" else int(text)


def report_from_json(text: str) -> SpectrumReport:
    data = json.loads(text, parse_int=_parse_int)
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    return SpectrumReport(
        branch=data["branch"],
        window=(data["window"]["e_lo"], data["window"]["e_hi"]),
        bands=[(item["e_lo"], item["e_hi"]) for item in data["bands"]],
        gaps=[(item["e_lo"], item["e_hi"]) for item in data["gaps"]],
        flat_bands=[
            FlatBand(item["k"], item["energy"], item.get("note", "")) for item in data["flat_bands"]
        ],
        dirichlet_points=list(data["dirichlet_points"]),
        meta=data.get("meta", {}),
    )


def write_samples_csv(report: SpectrumReport, stream: TextIO) -> None:
    """Write the per-sample scan table with the fixed column set.

    The columns are read ``_CSV_CHUNK`` rows at a time.  A row whose cells
    are all finite is formatted by one ``%.17g`` template, which gives the
    bytes of :func:`format_float`; a row with a NaN or infinite cell goes
    through :func:`format_float` itself.
    """
    stream.write(",".join(CSV_COLUMNS) + "\n")
    samples = report.samples
    for start in range(0, len(samples), _CSV_CHUNK):
        *values, codes = (column[start:start + _CSV_CHUNK] for column in samples._columns())
        rows = list(zip(*(column.tolist() for column in values),
                        SampleTable._LABELS[codes].tolist()))
        lines = list(map(_CSV_ROW.__mod__, rows))
        finite = np.isfinite(values[0])
        for column in values[1:]:
            finite &= np.isfinite(column)
        for i in np.flatnonzero(~finite).tolist():
            *cells, decision = rows[i]
            lines[i] = ",".join([*map(format_float, cells), decision]) + "\n"
        stream.write("".join(lines))
