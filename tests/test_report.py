import io
import json
import math
import random
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum, IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexband import (
    Convergent,
    GapCenter,
    HexGeometry,
    RatioClassKind,
    VertexCoupling,
    negative_spectrum_scan,
    report_from_json,
    report_to_json,
    sample_grid,
    scan_spectrum,
    write_samples_csv,
)
from hexband import report as report_module
from hexband.report import (CSV_COLUMNS, SampleTable, SpectrumReport, _cell_words, format_float,
                            json_dumps)


def _ref_json_dumps(obj):
    """A test-local copy of the emitter as one isinstance chain, the order it keeps."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = (json.dumps(str(k)) + ":" + _ref_json_dumps(v) for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_ref_json_dumps(v) for v in obj) + "]"
    if isinstance(obj, Enum):
        return _ref_json_dumps(obj.value)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _ref_json_dumps({f.name: getattr(obj, f.name) for f in fields(obj)})
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Kind(Enum):
    TEXT = "gap"
    NUMBER = 3
    HALF = 0.5


class _TextKind(str, Enum):
    BAND = "band"


class _Label(str):
    pass


@dataclass
class _Row:
    k: object
    label: object
    rows: object = ()


class _Plain:
    pass


_Pair = namedtuple("_Pair", "lo hi")
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x7f", "\u00e9\u2028\U0001f600", "\ud800"]),
    st.text().map(_Label), st.sampled_from([*_Kind, *_TextKind, IntEnum("_Count", "ONE TWO").TWO]),
    st.sampled_from([RatioClassKind.RATIONAL, _Row, _Plain]))
_JSON_VALUES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.integers(), st.sampled_from([_Kind.TEXT, None])),
                    children, max_size=4),
    st.dictionaries(st.text(), children, max_size=3).map(OrderedDict),
    st.builds(_Row, children, children, children), st.builds(_Pair, children, children),
    st.builds(GapCenter, children, st.text(), children, children),
    st.builds(Convergent, st.integers(), st.integers(), st.integers(-1, 1), st.floats())),
    max_leaves=24)


def _sample_report():
    return scan_spectrum(HexGeometry(1, 1, 1), VertexCoupling(1.0), 5.0, 8.0, 1e-9)


class TestFloatFormatting:
    def test_seventeen_digits_round_trip(self):
        rng = random.Random(31)
        for _ in range(500):
            x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12)
            assert float(format_float(x)) == x

    def test_special_values(self):
        assert format_float(math.inf) == "Infinity"
        assert format_float(-math.inf) == "-Infinity"
        assert format_float(math.nan) == "NaN"


class TestJsonEmitter:
    def test_fixed_field_order_and_determinism(self):
        report = _sample_report()
        first = report_to_json(report)
        second = report_to_json(report)
        assert first == second
        assert first.startswith('{"schema_version":1,"branch":"positive","window":')

    def test_round_trip_reproduces_intervals_exactly(self):
        report = _sample_report()
        loaded = report_from_json(report_to_json(report))
        assert loaded.bands == report.bands
        assert loaded.gaps == report.gaps
        assert loaded.window == report.window
        assert loaded.dirichlet_points == report.dirichlet_points
        assert [fb.k for fb in loaded.flat_bands] == [fb.k for fb in report.flat_bands]

    def test_negative_branch_round_trip(self):
        report = negative_spectrum_scan(HexGeometry(1, 1, 1), VertexCoupling(-6.5), 1e-3, 5.0, 1e-9)
        loaded = report_from_json(report_to_json(report))
        assert loaded.bands == report.bands
        assert loaded.gaps == report.gaps

    def test_unknown_schema_rejected(self):
        report = _sample_report()
        text = report_to_json(report).replace('"schema_version":1', '"schema_version":99')
        with pytest.raises(ValueError, match="schema_version"):
            report_from_json(text)

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            json_dumps({"bad": object()})

    @pytest.mark.parametrize("cls", [_Row, GapCenter])
    def test_a_dataclass_type_is_unserializable(self, cls):
        # is_dataclass is true of the class too, whose fields have no values
        with pytest.raises(TypeError, match="cannot serialize type"):
            json_dumps([cls])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_JSON_VALUES)
    def test_equals_the_isinstance_chain(self, value):
        def outcome(dumps):
            try:
                return dumps(value)
            except TypeError as exc:
                return type(exc), str(exc)

        assert outcome(json_dumps) == outcome(_ref_json_dumps)


class TestCsv:
    def test_columns_and_rows(self):
        table = sample_grid(HexGeometry(1, 1, 1), VertexCoupling(1.0), "positive", 5.0, 8.0, 600)
        buffer = io.StringIO()
        write_samples_csv(table, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(table.k) == 601
        first = lines[1].split(",")
        assert len(first) == 6
        assert first[5] in ("band", "gap", "dirichlet")
        # k and E columns are consistent
        assert float(first[1]) == pytest.approx(float(first[0]) ** 2)


def _reference_csv(table):
    """The row-by-row CSV writer: format_float on every cell."""
    lines = [",".join(CSV_COLUMNS)]
    for *cells, code in zip(*table):
        lines.append(",".join([*map(format_float, map(float, cells)), SampleTable.DECISIONS[code]]))
    return "\n".join(lines) + "\n"


def _csv(table):
    buffer = io.StringIO()
    write_samples_csv(table, buffer)
    return buffer.getvalue()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


LENGTH = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.3, 3.0))


@st.composite
def _scan(draw):
    """A positive or negative report of a random lattice and the sample table of
    its window: Dirichlet rows on rational lengths and wide tolerances, kappa
    windows from 1e-310."""
    geom = HexGeometry(draw(LENGTH), draw(LENGTH), draw(LENGTH))
    n_samples = draw(st.one_of(st.integers(2, 400), st.sampled_from([4096, 4097, 9000])))
    edge_tol = draw(st.sampled_from([1e-12, 1e-9, 1e-4]))
    if draw(st.booleans()):
        coupling = VertexCoupling(draw(st.floats(-50.0, 50.0)))
        k_lo = draw(st.floats(0.01, 40.0))
        k_hi = k_lo + draw(st.floats(0.5, 40.0))
        tol = draw(st.sampled_from([1e-9, 1e-3, 0.2, 2.0]))
        return (scan_spectrum(geom, coupling, k_lo, k_hi, edge_tol),
                sample_grid(geom, coupling, "positive", k_lo, k_hi, n_samples, tol))
    coupling = VertexCoupling(draw(st.floats(-50.0, 0.0, exclude_max=True)))
    kappa_lo = 10.0 ** draw(st.floats(-310.0, 0.0))
    kappa_max = kappa_lo + draw(st.floats(0.5, 800.0))
    return (negative_spectrum_scan(geom, coupling, kappa_lo, kappa_max, edge_tol),
            sample_grid(geom, coupling, "negative", kappa_lo, kappa_max, n_samples))


CELL = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))


@st.composite
def _table(draw):
    n = draw(st.integers(0, 30))
    columns = [np.array(draw(st.lists(CELL, min_size=n, max_size=n)), np.float64)
               for _ in range(5)]
    codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return SampleTable(*columns, np.array(codes, np.int8))


def _cell_texts(values):
    """What the CSV cell formatter writes for each value (text and comma),
    None for the cells it leaves to format_float."""
    x = np.array(values, dtype=np.float64)
    words, fallback = _cell_words(x)
    texts = [bytes(cell).replace(b"\0", b"").decode("ascii")
             for cell in words.astype("<u8").view(np.uint8).reshape(-1, 32)]
    for i in fallback.tolist():
        texts[i] = None
    return texts


def _scaled(x):
    """|x| 10**(16 - e) exactly, e the decimal exponent of x: its rounding
    gives the 17 digits."""
    v = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    e += (Fraction(10) ** (e + 1) <= v) - (Fraction(10) ** e > v)
    return v * Fraction(10) ** (16 - e)


def _is_tie(x):
    """Whether |x| lies exactly halfway between two 17-digit decimals."""
    return _scaled(x).denominator == 2


def _near_tie(x):
    """Whether the 17-digit rounding of x is within 2**-19 of a tie."""
    y = _scaled(x)
    return abs(y - math.floor(y) - Fraction(1, 2)) <= Fraction(1, 2 ** 19)


def _check_cells(values):
    """Every cell the formatter writes is format_float's text; it leaves
    only non-finite cells, magnitudes outside [1e-280, 1e280) and cells near
    a tie, and the writer, those cells included, matches the row writer."""
    values = [float(v) for v in values]
    for x, text in zip(values, _cell_texts(values)):
        if text is None:
            assert not (x == 0 or 1e-280 <= abs(x) < 1e280) or _near_tie(x), repr(x)
        else:
            assert text == format_float(x) + ",", repr(x)
    rows = len(values) // 5 * 5
    table = SampleTable(*np.reshape(values[:rows], (5, -1)), np.zeros(rows // 5, np.int8))
    assert _csv(table) == _reference_csv(table)


def _near_powers_of_ten(exponents):
    values = []
    for e in exponents:
        x = float(f"1e{e}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    return values + [-x for x in values]


@st.composite
def _tie(draw):
    """A double whose 17-digit rounding is an exact tie: M 2**(e-17) with M
    odd, in [10**e, 10**(e+1)).  Ties need M < 2**53, so -7 <= e <= 15."""
    e = draw(st.integers(-7, 15))
    lo = math.ceil(Fraction(10) ** e * Fraction(2) ** (17 - e))
    hi = min(math.ceil(Fraction(10) ** (e + 1) * Fraction(2) ** (17 - e)), 2 ** 53)
    m = draw(st.integers(lo // 2, (hi - 1) // 2)) * 2 + 1
    return draw(st.sampled_from([1, -1])) * math.ldexp(m, e - 17)


BITS = st.integers(0, 2 ** 64 - 1)
SPECIAL_BITS = [0, 1 << 63, 1, (1 << 52) - 1, 1 << 52, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000001]


class TestCellFormatter:
    """The numpy cell formatter against format_float, byte for byte."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(BITS, min_size=1, max_size=64))
    @example(SPECIAL_BITS)  # +-0, subnormals, the largest double, infinities, NaNs
    def test_raw_bit_patterns(self, bits):
        _check_cells(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        _check_cells(_near_powers_of_ten(range(-324, 309)))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(_tie(), min_size=1, max_size=20))
    @example([671587634000000.125, 1 + 2.0 ** -17])
    def test_exact_ties_fall_back(self, ties):
        assert all(map(_is_tie, ties))
        assert _cell_texts(ties) == [None] * len(ties)
        _check_cells(ties)

    def test_rounding_that_carries_into_the_next_decade(self):
        # the doubles nearest these powers of ten lie less than half a unit
        # of the 17th digit below them; 1e17-1e22 are exact, and their
        # scaled value is within the product's error of a decade boundary
        carries = [1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98,
                   1e129, 1e153, 1e220] + [float(10 ** k) for k in range(17, 23)]
        assert all(Fraction(x) < Fraction(10) ** round(math.log10(x)) for x in carries[:13])
        texts = _cell_texts(carries)
        assert texts == [format_float(x) + "," for x in carries]
        assert all(text.startswith("1e") for text in texts)
        _check_cells(carries)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(1.0, 10.0, exclude_max=True),
                              st.sampled_from([-6, -5, -4, -3, 15, 16, 17, 18, -101, -100, -99,
                                               99, 100, 101, -280, 279]),
                              st.sampled_from([1.0, -1.0])), min_size=1, max_size=30))
    def test_switch_points_and_three_digit_exponents(self, parts):
        values = [sign * mantissa * 10.0 ** e for mantissa, e, sign in parts]
        _check_cells(values)
        assert None not in _cell_texts([x for x in values if x != 0 and 1e-280 <= abs(x) < 1e280
                                        and not _near_tie(x)])

    def test_a_plain_scan_leaves_only_nonfinite_cells(self, monkeypatch):
        """The fast path carries the scan: format_float sees only the NaN
        cells of the Dirichlet rows, so a writer that fell back on every
        cell would fail here though its bytes were right."""
        table = sample_grid(HexGeometry(1, 2, 1.5), VertexCoupling(3.0), "positive", 0.01, 100.0,
                            4000, 1e-3)
        nonfinite = [x for column in table[:5] for x in column.tolist() if not math.isfinite(x)]
        calls = []

        def counting(x):
            calls.append(x)
            return format_float(x)

        monkeypatch.setattr(report_module, "format_float", counting)
        text = _csv(table)
        assert len(nonfinite) > 0
        assert len(calls) == len(nonfinite)
        assert not any(map(math.isfinite, calls))
        monkeypatch.undo()
        assert text == _reference_csv(table)


class TestSampleTable:
    def test_mismatched_columns_rejected(self):
        # the writer's loop runs over the codes: 4096 codes against 5000
        # cells would stop at the first chunk boundary, were they not rejected
        for n_cells, n_codes in [(5000, 4096), (2, 1), (1, 2)]:
            cells = np.linspace(1.0, 2.0, n_cells)
            table = SampleTable(cells, cells, cells, cells, cells, np.zeros(n_codes, np.int8))
            buffer = io.StringIO()
            with pytest.raises(ValueError, match="equal length"):
                write_samples_csv(table, buffer)
            assert buffer.getvalue() == ""

    def test_a_report_holds_no_samples(self):
        # the benchmark's traced hook takes len() of a report's samples and
        # iterates them
        samples = SpectrumReport("positive", (1.0, 2.0), [], []).samples
        assert len(samples) == 0 and list(samples) == []

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_table())
    def test_csv_of_any_table_equals_the_row_writer(self, table):
        assert _csv(table) == _reference_csv(table)


class TestScanProperties:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_scan())
    def test_csv_equals_the_row_writer(self, scan):
        _, table = scan
        assert _csv(table) == _reference_csv(table)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_scan())
    def test_bands_and_gaps_alternate_and_tile_the_window(self, scan):
        report, _ = scan
        kinds = {**{tuple(i): "band" for i in report.bands},
                 **{tuple(i): "gap" for i in report.gaps}}
        intervals = sorted(kinds)
        assert len(intervals) == len(report.bands) + len(report.gaps)
        assert _bits([intervals[0][0], intervals[-1][1]]) == _bits(report.window)
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert _bits([hi]) == _bits([lo])
        for left, right in zip(intervals, intervals[1:]):
            assert kinds[left] != kinds[right]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_scan())
    def test_json_round_trip_reproduces_the_intervals_bit_for_bit(self, scan):
        report, _ = scan
        loaded = report_from_json(report_to_json(report))
        for read in (lambda r: [x for pair in r.bands for x in pair],
                     lambda r: [x for pair in r.gaps for x in pair],
                     lambda r: r.window, lambda r: r.dirichlet_points,
                     lambda r: [fb.k for fb in r.flat_bands],
                     lambda r: [fb.energy for fb in r.flat_bands]):
            assert _bits(read(loaded)) == _bits(read(report))
        assert (loaded.branch, loaded.meta) == (report.branch, report.meta)


class TestGapAdjacentToZero:
    def test_positive_branch_rejected(self):
        with pytest.raises(ValueError):
            _sample_report().gap_adjacent_to_zero()
