"""Spectrum reports and their JSON / CSV serializations.

JSON output is deterministic: field order is fixed by construction and every
float is rendered with 17 significant digits, which round-trips doubles
exactly.  ``report_from_json`` therefore reproduces interval lists bit for
bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, NamedTuple, TextIO

__all__ = [
    "SCHEMA_VERSION",
    "FlatBand",
    "SampleRow",
    "SpectrumReport",
    "format_float",
    "json_dumps",
    "report_to_json",
    "report_from_json",
    "write_samples_csv",
]

SCHEMA_VERSION = 1

CSV_COLUMNS = ("k", "E", "absD", "lower", "upper", "decision")


@dataclass(frozen=True)
class FlatBand:
    """A phase-independent eigenvalue of infinite multiplicity."""

    k: float
    energy: float
    note: str = "infinite multiplicity"


class SampleRow(NamedTuple):
    """One scan sample: spectral variable, dispersion and envelope values.

    A named tuple rather than a dataclass: a scan builds one per grid point,
    and a tuple is several times cheaper to create.
    """

    k: float
    energy: float
    abs_dispersion: float
    lower: float
    upper: float
    decision: str


@dataclass
class SpectrumReport:
    """Bands, gaps, flat bands and Dirichlet points over a scanned window.

    ``bands`` are closed energy intervals, ``gaps`` open ones; together they
    interleave and tile ``window`` up to the scan's edge resolution.  The
    negative branch reports energies E = -kappa^2, ordered increasingly.
    """

    branch: str
    window: tuple[float, float]
    bands: list[tuple[float, float]]
    gaps: list[tuple[float, float]]
    flat_bands: list[FlatBand] = field(default_factory=list)
    dirichlet_points: list[float] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    samples: list[SampleRow] = field(default_factory=list)

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


def report_from_json(text: str) -> SpectrumReport:
    data = json.loads(text)
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
    """Write the per-sample scan table with the fixed column set."""
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for row in report.samples:
        stream.write(
            ",".join(
                (
                    format_float(row.k),
                    format_float(row.energy),
                    format_float(row.abs_dispersion),
                    format_float(row.lower),
                    format_float(row.upper),
                    row.decision,
                )
            )
            + "\n"
        )
