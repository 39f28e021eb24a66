import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexband import (
    HexGeometry,
    VertexCoupling,
    negative_spectrum_scan,
    report_from_json,
    report_to_json,
    scan_spectrum,
    write_samples_csv,
)
from hexband.report import (CSV_COLUMNS, SampleRow, SampleTable, SpectrumReport, format_float,
                            json_dumps)


def _sample_report():
    return scan_spectrum(HexGeometry(1, 1, 1), VertexCoupling(1.0), 5.0, 8.0, 600, 1e-9)


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
        report = negative_spectrum_scan(
            HexGeometry(1, 1, 1), VertexCoupling(-6.5), 5.0, 400, 1e-9, kappa_lo=1e-3
        )
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


class TestCsv:
    def test_columns_and_rows(self):
        report = _sample_report()
        buffer = io.StringIO()
        write_samples_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.samples)
        first = lines[1].split(",")
        assert len(first) == 6
        assert first[5] in ("band", "gap", "dirichlet")
        # k and E columns are consistent
        assert float(first[1]) == pytest.approx(float(first[0]) ** 2)


def _reference_csv(report):
    """The row-by-row CSV writer: format_float on every cell."""
    lines = [",".join(CSV_COLUMNS)]
    for row in report.samples:
        lines.append(",".join([*map(format_float, row[:5]), row.decision]))
    return "\n".join(lines) + "\n"


def _csv(report):
    buffer = io.StringIO()
    write_samples_csv(report, buffer)
    return buffer.getvalue()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


LENGTH = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.3, 3.0))


@st.composite
def _scan(draw):
    """A positive or negative scan of a random lattice: Dirichlet rows on
    rational lengths and wide tolerances, kappa windows from 1e-310."""
    geom = HexGeometry(draw(LENGTH), draw(LENGTH), draw(LENGTH))
    n_samples = draw(st.one_of(st.integers(2, 400), st.sampled_from([4096, 4097, 9000])))
    edge_tol = draw(st.sampled_from([1e-12, 1e-9, 1e-4]))
    if draw(st.booleans()):
        coupling = VertexCoupling(draw(st.floats(-50.0, 50.0)))
        k_lo = draw(st.floats(0.01, 40.0))
        k_hi = k_lo + draw(st.floats(0.5, 40.0))
        tol = draw(st.sampled_from([1e-9, 1e-3, 0.2, 2.0]))
        return scan_spectrum(geom, coupling, k_lo, k_hi, n_samples, edge_tol, dirichlet_tol=tol)
    coupling = VertexCoupling(draw(st.floats(-50.0, 0.0, exclude_max=True)))
    kappa_lo = 10.0 ** draw(st.floats(-310.0, 0.0))
    kappa_max = kappa_lo + draw(st.floats(0.5, 800.0))
    return negative_spectrum_scan(geom, coupling, kappa_max, n_samples, edge_tol,
                                  kappa_lo=kappa_lo)


CELL = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))


@st.composite
def _table(draw):
    n = draw(st.integers(0, 30))
    columns = [draw(st.lists(CELL, min_size=n, max_size=n)) for _ in range(5)]
    return SampleTable(*columns, draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))


class TestSampleTable:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_table(), st.slices(40))
    def test_indexing_slicing_length_and_iteration_agree(self, table, where):
        rows = list(table)
        assert len(rows) == len(table)
        assert [repr(row) for row in rows] == [repr(table[i]) for i in range(len(table))]
        assert [repr(row) for row in rows[::-1]] == \
            [repr(table[i]) for i in range(-1, -len(table) - 1, -1)]
        part = table[where]
        assert isinstance(part, SampleTable)
        assert [repr(row) for row in part] == [repr(row) for row in rows[where]]
        for row in rows:
            assert type(row) is SampleRow
            assert all(type(x) is float for x in row[:5])
            assert row.decision in SampleTable.DECISIONS
        with pytest.raises(IndexError):
            table[len(table)]

    def test_columns_are_read_only_and_the_callers_are_not(self):
        k = np.array([1.0, 2.0])
        table = SampleTable(k, k, k, k, k, [0, 1])
        with pytest.raises(ValueError):
            table.k[0] = 3.0
        k[0] = 3.0
        assert k.flags.writeable and table[0].k == 3.0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            SampleTable([1.0], [1.0], [1.0], [1.0], [1.0, 2.0], [0])

    def test_default_is_empty_and_equal_tables_compare_equal(self):
        assert len(SpectrumReport("positive", (1.0, 2.0), [], []).samples) == 0
        nan = [math.nan, 1.0]
        assert SampleTable(nan, nan, nan, nan, nan, [2, 1]) == \
            SampleTable(nan, nan, nan, nan, nan, [2, 1])
        assert SampleTable(nan, nan, nan, nan, nan, [2, 1]) != SampleTable()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_table())
    def test_csv_of_any_table_equals_the_row_writer(self, table):
        report = SpectrumReport("positive", (1.0, 2.0), [], [], samples=table)
        assert _csv(report) == _reference_csv(report)


class TestScanProperties:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_scan())
    def test_csv_equals_the_row_writer(self, report):
        assert _csv(report) == _reference_csv(report)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_scan())
    def test_bands_and_gaps_alternate_and_tile_the_window(self, report):
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
    def test_json_round_trip_reproduces_the_intervals_bit_for_bit(self, report):
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
