"""Spectrum reports and their JSON / CSV serializations.

JSON output is deterministic: field order is fixed by construction and every
float is rendered with 17 significant digits, which round-trips doubles
exactly.  ``report_from_json`` therefore reproduces interval lists bit for
bit.  The writer picks each value's branch by its exact type; any other type,
such as a subclass like numpy's float64, takes an isinstance chain that
serializes it alike.  The CSV writer prints a :class:`SampleTable`, six equal-length
columns, in the same 17-digit text, byte for byte, but formats a block of
cells at once in numpy (:func:`_cell_words`) and leaves only non-finite,
extreme and possibly tied cells to :func:`format_float`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, NamedTuple, TextIO

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "FlatBand",
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
# Rows per formatting pass of the CSV writer: enough to amortize the numpy
# calls, few enough that a pass's arrays stay small whatever the grid size.
_CSV_CHUNK = 4096


@dataclass(frozen=True)
class FlatBand:
    """A phase-independent eigenvalue of infinite multiplicity."""

    k: float
    energy: float
    note: str = "infinite multiplicity"


class SampleTable(NamedTuple):
    """A sample grid as six equal-length columns, one row per sample.

    The five float columns hold k (kappa on the negative branch), the
    energy, |D| and the envelope's lower and upper values; a ``dirichlet``
    row has NaN in its last three.  ``decisions`` holds one int8 code per
    row, an index into :attr:`DECISIONS`: 0 gap, 1 band, 2 dirichlet.
    """

    DECISIONS = ("gap", "band", "dirichlet")

    k: np.ndarray
    energy: np.ndarray
    abs_dispersion: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    decisions: np.ndarray


@dataclass
class SpectrumReport:
    """Bands, gaps, flat bands and Dirichlet points over a scanned window.

    ``bands`` are closed energy intervals, ``gaps`` open ones; together they
    interleave and tile ``window`` up to the scan's edge resolution.  The
    negative branch reports energies E = -kappa^2, ordered increasingly.
    ``samples`` is the empty tuple on every report: a scan reads no sample
    grid, and the CSV format prints a :class:`SampleTable` of its own.
    """

    branch: str
    window: tuple[float, float]
    bands: list[tuple[float, float]]
    gaps: list[tuple[float, float]]
    flat_bands: list[FlatBand] = field(default_factory=list)
    dirichlet_points: list[float] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    samples: tuple = ()

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
    kind = type(obj)
    if kind is float:
        parts.append(format_float(obj))
    elif kind is str:
        parts.append(_encode_str(obj))
    elif kind is dict:
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(("," if i else "") + _encode_str(str(key)) + ":")
            _emit(value, parts)
        parts.append("}")
    elif kind is list or kind is tuple:
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _emit(value, parts)
        parts.append("]")
    elif kind is int:
        parts.append(str(obj))
    elif kind in _FIELD_NAMES:
        _emit({name: getattr(obj, name) for name in _FIELD_NAMES[kind]}, parts)
    elif obj is None or obj is True or obj is False:
        parts.append(json.dumps(obj))
    elif isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        _emit(dict(obj.items()), parts)
    elif isinstance(obj, (list, tuple)):
        _emit(list(obj), parts)
    elif isinstance(obj, Enum):
        _emit(obj.value, parts)
    elif is_dataclass(obj):
        names = [f.name for f in fields(obj)]
        if not isinstance(obj, type):
            _FIELD_NAMES[kind] = names
        _emit({name: getattr(obj, name) for name in names}, parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps(text) calls
_FIELD_NAMES: dict[type, list[str]] = {}  # of each dataclass serialized, in declaration order


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


def write_samples_csv(table: SampleTable, stream: TextIO) -> None:
    """Write a sample table with the fixed column set.

    Every float cell holds the text of :func:`format_float`.  The columns
    are read ``_CSV_CHUNK`` rows at a time; :func:`_cell_words` lays out
    the chunk's cells in numpy, :func:`format_float` writes the few cells
    it leaves (NaN, infinities, magnitudes beyond 1e280 or below 1e-280,
    possible ties at 17 digits), and one ``bytes.translate`` drops the
    padding between them.  Columns of unequal length raise ``ValueError``.
    """
    if len(set(map(len, table))) > 1:
        raise ValueError("sample columns must be of equal length")
    stream.write(",".join(CSV_COLUMNS) + "\n")
    labels = _csv_tables().labels
    *columns, codes = table
    for start in range(0, len(codes), _CSV_CHUNK):
        chunk = slice(start, start + _CSV_CHUNK)
        cells = np.stack([column[chunk] for column in columns], axis=1).ravel()
        words, fallback = _cell_words(cells)
        for i in fallback.tolist():
            text = (format_float(cells[i].item()) + ",").encode()
            words[i] = np.frombuffer(text.ljust(_CELL_BYTES, b"\0"), "<u8")
        rows = np.concatenate([words.reshape(len(codes[chunk]), -1),
                               labels.take(codes[chunk], axis=0)], axis=1)
        data = rows.astype("<u8", copy=False).tobytes()
        stream.write(data.translate(None, b"\0").decode("ascii"))


# ---------------------------------------------------------------------------
# format(x, ".17g") for a block of cells
#
# A cell's text is laid out in fixed slots of four little-endian uint64
# words, NUL where a slot is unused: word 0 holds the sign and the "0.000"
# of a fixed-point number below 1; words 1-3 hold the 17 digits with the
# dot inserted (18 bytes), then the exponent "e+dd" or "e-ddd" of the
# scientific form and the comma, in the last six bytes.

_CELL_BYTES = 32
_FAST = (1e-280, 1e280)  # |x| in this range, or 0, is formatted in numpy
_TIE = 2.0 ** -20  # a cell this close to a half-integer at 17 digits falls back
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_S_MIN, _S_MAX = -265, 298  # 10**s tabulated, s = 16 - e for every exponent e of _FAST
_E_MIN = -282  # per-exponent tables start here and run to -_E_MIN
_MASK = np.uint64(2 ** 64 - 1)


class _CsvTables(NamedTuple):
    pow_hi: np.ndarray  # 10**s as hi + lo
    pow_lo: np.ndarray
    quads: np.ndarray  # the four ASCII digits of 0..9999, as the low half of a uint64
    sig: np.ndarray  # [j, g]: digits through the last nonzero one of g as digit group j
    dot: np.ndarray  # per exponent: the mantissa byte of the dot, 17 for none
    whole: np.ndarray  # per exponent: digits before the dot (at least 1)
    affix: np.ndarray  # per exponent: the cell's words but the sign and digits
    below: np.ndarray  # [b]: a cell's words masked to the mantissa bytes below byte b
    dots: np.ndarray  # [b]: a '.' at mantissa byte b
    labels: np.ndarray  # the decision label and newline of each code, two words


def _split(a):
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _two_product(a, b):
    """``a * b`` as ``p + t`` exactly (Dekker), for |a|, |b| below 1e300."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _ascii(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


@functools.cache
def _csv_tables() -> _CsvTables:
    """The formatter's tables, built on first use rather than at import."""
    # 10**s: 10**(22i) by exact products with 10**22, times 10**j (j < 22,
    # exact), then reciprocals; about 3e-32 relative error.
    hi, lo = [1.0], [0.0]
    for _ in range(_S_MAX // 22):
        p, t = _two_product(hi[-1], 1e22)
        t += lo[-1] * 1e22
        hi.append(p + t)
        lo.append(t - (hi[-1] - p))
    small = np.array([float(10 ** k) for k in range(22)])
    p, t = _two_product(np.array(hi)[:, None], small)
    t += np.array(lo)[:, None] * small
    hi = (p + t).ravel()[:_S_MAX + 1]
    lo = (t - ((p + t) - p)).ravel()[:_S_MAX + 1]
    inv = 1.0 / hi[-_S_MIN:0:-1]
    p, t = _two_product(inv, hi[-_S_MIN:0:-1])
    inv_lo = (((1.0 - p) - t) - inv * lo[-_S_MIN:0:-1]) / hi[-_S_MIN:0:-1]
    hi = np.concatenate([inv, hi])
    lo = np.concatenate([inv_lo, lo])

    # digit groups: quads[1000a + 100b + 10c + d] holds "abcd"; last[g] is
    # the place (1-4) of g's last nonzero digit, 0 for g = 0
    ascii_digit = np.arange(48, 58, dtype=np.uint64)
    pairs = (ascii_digit[:, None] | ascii_digit << np.uint64(8)).ravel()
    quads = (pairs[:, None] | pairs << np.uint64(16)).ravel()
    nonzero = np.sign(np.arange(10, dtype=np.int8))
    pair_last = np.maximum(nonzero[:, None], 2 * nonzero).ravel()
    last = np.where(pair_last > 0, pair_last + 2, pair_last[:, None]).ravel()
    sig = np.where(last > 0, last + np.arange(1, 14, 4, dtype=np.int8)[:, None], np.int8(0))

    # per exponent: %g prints -4 <= e < 17 in fixed point, others as d.ddde+XX
    e = np.arange(_E_MIN, -_E_MIN)
    size = np.abs(e)
    fixed = (e >= -4) & (e < 17)
    point = fixed & (e >= 0)
    dot = np.where(point, e + 1, np.where(fixed, 17, 1))
    whole = np.where(point, e + 1, 1)
    leading = np.where(fixed & (e < 0), 1 - e, 0).astype(np.uint64)  # bytes of "0.000"
    prefix = (_ascii("0.000") & _MASK >> np.uint64(64) - np.uint64(8) * leading) << np.uint64(8)
    exponent = (quads[size] >> np.where(size < 100, 16, 8).astype(np.uint64) << np.uint64(32)
                | np.where(e < 0, _ascii("e-"), _ascii("e+")).astype(np.uint64) << np.uint64(16))
    affix = np.zeros((len(e), 4), np.uint64)
    affix[:, 0] = prefix
    affix[:, 3] = np.where(fixed, np.uint64(0), exponent) | np.uint64(_ascii(",") << 56)

    byte = np.arange(25)[:, None] - 8 * np.arange(-1, 3)  # word 0 precedes the mantissa
    inside = np.maximum(np.minimum(byte, 8), 0).astype(np.uint64)
    below = _MASK >> np.uint64(64) - np.uint64(8) * inside
    dots = np.where((byte >= 0) & (byte < 8), np.uint64(46) << np.uint64(8) * inside, np.uint64(0))

    labels = b"".join((label + "\n").encode().ljust(16, b"\0") for label in SampleTable.DECISIONS)
    tables = _CsvTables(hi, lo, quads, sig, dot, whole, affix, below, dots,
                        np.frombuffer(labels, "<u8").astype(np.uint64).reshape(-1, 2))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _scaled(a, e, tables):
    """``a * 10**(16 - e)`` as ``p + t``, within about 1e-14 near 1e16-1e17."""
    s = (16 - _S_MIN) - e
    p, t = _two_product(a, tables.pow_hi.take(s))
    t += a * tables.pow_lo.take(s)
    return p, t


def _cell_words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``format(v, ".17g") + ","`` for each v of the float64 array ``x``.

    Returns the texts as an ``(n, 4)`` uint64 array, the bytes of each
    cell NUL-padded to 32, and the indices of the cells whose words are
    not written: those not 0 with ``|v|`` outside ``_FAST``, and those
    whose scaled value lies within ``_TIE`` of a half-integer.

    With ``e`` the decimal exponent, ``y = |v| * 10**(16 - e)`` lies in
    [1e16, 1e17) and the 17 digits are ``round(y)``, half to even.  ``y``
    is computed as an unevaluated sum ``p + t`` with an error near 1e-14:
    ``p`` is an integer (it exceeds 2**53), so ``round(y)`` is ``p`` plus
    the rounded ``t``, exact wherever ``t``'s fraction is clear of 0.5 by
    more than the error.  ``_TIE`` is far above that error, and the cells
    within it, exact ties (which round half to even) among them, go to
    :func:`format_float`: about 2 in a million where the fraction is spread
    evenly.  ``e`` starts as ``floor(log10|v|)`` and moves by one
    where ``y`` leaves [1e16, 1e17); near a power of ten an error in that
    test picks the neighbouring exponent, whose rounding gives the same
    power, carried into the next decade.
    """
    tab = _csv_tables()
    x = np.ascontiguousarray(x, dtype=np.float64)
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _FAST[0]) & (a < _FAST[1])
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, e, tab)
    high = (p - 1e17) + t >= 0
    refit = np.flatnonzero(((p - 1e16) + t < 0) | high)
    if refit.size:
        e[refit] += np.where(high[refit], 1, -1)
        p[refit], t[refit] = _scaled(a[refit], e[refit], tab)
    units = np.floor(t)
    t -= units
    fallback = np.flatnonzero(~(fast | zero) | (np.abs(t - 0.5) < _TIE))
    units += t > 0.5
    n = p.astype(np.int64) + units.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[zero] = 0
    e[zero] = 0

    # digits: one, then four groups of four
    top = n // 10 ** 16
    n -= top * 10 ** 16
    g12 = n // 10 ** 8
    n -= g12 * 10 ** 8
    g1 = g12 // 10 ** 4
    g2 = g12 - g1 * 10 ** 4
    g3 = n // 10 ** 4
    g4 = n - g3 * 10 ** 4
    quads, sig = tab.quads, tab.sig
    digits = np.maximum(np.maximum(sig[0].take(g1), sig[1].take(g2)),
                        np.maximum(sig[2].take(g3), sig[3].take(g4)))
    np.maximum(digits, top > 0, out=digits)
    ei = e - _E_MIN
    dot = tab.dot.take(ei)
    length = np.maximum(digits, tab.whole.take(ei))  # digits shown
    length += dot < length  # and the dot, if a digit follows it

    # the 17 digits as 24 bytes, then everything from the dot on moved up one
    eight, last = np.uint64(8), np.uint64(56)
    q0 = quads.take(g1) | quads.take(g2) << np.uint64(32)
    q1 = quads.take(g3) | quads.take(g4) << np.uint64(32)
    digit_words = np.zeros((len(x), 4), np.uint64)
    digit_words[:, 1] = (top.astype(np.uint64) + np.uint64(48)) | q0 << eight
    digit_words[:, 2] = q0 >> last | q1 << eight
    digit_words[:, 3] = q1 >> last
    words = digit_words & tab.below.take(dot, axis=0)
    digit_words ^= words
    words.ravel()[1:] |= digit_words.ravel()[:-1] >> last  # into the next word; none leave word 3
    digit_words <<= eight
    words |= digit_words
    words |= tab.dots.take(dot, axis=0)
    words &= tab.below.take(length, axis=0)
    words |= tab.affix.take(ei, axis=0)
    words[:, 0] |= (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
    return words, fallback
