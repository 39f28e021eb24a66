import functools
import hashlib
import math
import random
import struct
from operator import ne
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexband import (
    Decision,
    EnergyPoint,
    HexGeometry,
    VertexCoupling,
    band_membership,
    commensurability_witness,
    flat_band_energies,
    negative_spectrum_scan,
    rhs_envelope,
    sample_grid,
    scan_spectrum,
    trig_polynomial_min,
    verify_flat_band,
)
import hexband.bands as bands_module
from hexband.bands import _GAP, _halve, _runs, _sign_codes
from hexband.cli import cli
from hexband.core import (_SAME_POINT, DirichletPointError, _flag_sines, _negative_terms,
                          _negative_terms_grid, inv_sinh, positive_terms)
from hexband.report import SampleTable, report_to_json
from hexband.numtheory import CommensurabilityWitness
from hexband.oracle import GridSpec, band_membership_grid, rhs_extrema_grid, trig_min_grid

from criteria_reference import rows as reference_rows

EQUILATERAL = HexGeometry(1, 1, 1)
KIRCHHOFF = VertexCoupling(0.0)


def _positive_scan(lo, hi, n_samples, edge_tol):
    """The positive report over [lo, hi] and its sample table; lo None takes
    the CLI's default start."""
    lo = 0.01 if lo is None else lo
    return (scan_spectrum(EQUILATERAL, KIRCHHOFF, lo, hi, edge_tol),
            sample_grid(EQUILATERAL, KIRCHHOFF, "positive", lo, hi, n_samples))


def _negative_scan(lo, hi, n_samples, edge_tol):
    """The negative report over kappa in [lo, hi] and its sample table; lo None
    takes the CLI's start hi / n_samples, which the CLI computes only once
    click has accepted n_samples >= 2 (NaN stands for the start it never takes)."""
    if lo is None:
        lo = hi / n_samples if n_samples >= 2 else math.nan
    coupling = VertexCoupling(-6.5)
    return (negative_spectrum_scan(EQUILATERAL, coupling, lo, hi, edge_tol),
            sample_grid(EQUILATERAL, coupling, "negative", lo, hi, n_samples))


class TestTrigPolynomialMin:
    def test_symmetric_unit_case(self):
        assert trig_polynomial_min(1, 1, 1) == pytest.approx(-1.5, abs=1e-14)

    def test_interior_critical_case_with_one_large_coefficient(self):
        # 1/1 + 1/1 + 1/10 = 2.1 >= 2, so the interior critical value applies:
        # -(10/2)*(1 + 1 + 1/100) = -10.05; confirmed by the grid oracle.
        closed = trig_polynomial_min(1, 1, 10)
        assert closed == pytest.approx(-10.05, abs=1e-12)
        assert trig_min_grid(1, 1, 10, GridSpec(512, 2)) == pytest.approx(closed, abs=1e-6)

    def test_boundary_case(self):
        # 1 + 0.1 + 0.1 < 2: minimum on the sign-flip boundary
        assert trig_polynomial_min(1, 10, 10) == pytest.approx(-19.0, abs=1e-12)

    def test_rejects_nonpositive_product(self):
        with pytest.raises(ValueError):
            trig_polynomial_min(-1, -1, -1)

    def test_negative_pair_matches_all_positive(self):
        # torus shifts map any positive-product sign pattern onto (+,+,+)
        assert trig_polynomial_min(-2, -3, 0.5) == pytest.approx(
            trig_polynomial_min(2, 3, 0.5), abs=1e-14
        )


class TestRhsEnvelope:
    def test_equilateral_half_pi(self):
        env = rhs_envelope(EQUILATERAL, math.pi / 2)
        assert env.lower == 0.0
        assert env.upper == pytest.approx(3.0, abs=1e-14)

    def test_dominant_edge_case(self):
        env = rhs_envelope(HexGeometry(2, 1, 1), math.pi / 2 - 0.05)
        assert env.lower == pytest.approx(8.014183524817833, rel=1e-12)
        assert env.upper == pytest.approx(12.019188738451676, rel=1e-12)

    def test_dominant_short_sine_case(self):
        # 1/|sin 3| = 7.086 exceeds 1/|sin 1| + 1/|sin 2| = 2.288, so the
        # lower envelope is positive; both ends confirmed by the grid oracle.
        env = rhs_envelope(HexGeometry(1, 2, 3), 1.0)
        assert env.lower == pytest.approx(4.798022119664449, rel=1e-10)
        assert env.upper == pytest.approx(9.374312671809925, rel=1e-10)
        lo, hi = rhs_extrema_grid(HexGeometry(1, 2, 3), 1.0, GridSpec(512, 2))
        assert lo == pytest.approx(env.lower**2, abs=1e-4)
        assert hi == pytest.approx(env.upper**2, abs=1e-4)

    def test_triangle_case_lower_is_zero(self):
        # at k = 0.8 no inverse sine dominates the other two
        env = rhs_envelope(HexGeometry(1, 2, 3), 0.8)
        assert env.lower == 0.0

    def test_matches_grid_extrema(self):
        rng = random.Random(5)
        for _ in range(8):
            while True:
                geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
                k = rng.uniform(0.2, 20)
                if min(abs(math.sin(l * k)) for l in geom.lengths) >= 0.08:
                    break
            env = rhs_envelope(geom, k)
            lo, hi = rhs_extrema_grid(geom, k, GridSpec(512, 2))
            assert lo == pytest.approx(env.lower**2, abs=1e-4)
            assert hi == pytest.approx(env.upper**2, abs=1e-4)

    def test_dirichlet_error(self):
        with pytest.raises(DirichletPointError):
            rhs_envelope(EQUILATERAL, math.pi)

    def test_never_degenerates_for_incommensurate_lengths(self):
        # phase-independent solutions would need lower == upper, which cannot
        # happen: each inverse sine is >= 1, so upper - lower >= 2.
        geom = HexGeometry(1, math.sqrt(2), math.sqrt(3))
        k = 0.05
        while k <= 10 * math.pi:
            try:
                env = rhs_envelope(geom, k)
            except DirichletPointError:
                k += 0.013
                continue
            assert env.upper - env.lower >= 1.9
            k += 0.013


class TestNegativeEnvelope:
    def test_ordering_and_shortest_edge(self):
        rng = random.Random(9)
        for _ in range(100):
            geom = HexGeometry(rng.uniform(0.3, 3), rng.uniform(0.3, 3), rng.uniform(0.3, 3))
            kappa = rng.uniform(1e-3, 8)
            _, lower, upper = _negative_terms(geom, 0.0, kappa)
            lower = max(0.0, lower)
            assert 0 <= lower <= upper
            expected_lower = max(
                0.0,
                2 / math.sinh(geom.ell_min * kappa)
                - sum(1 / math.sinh(l * kappa) for l in geom.lengths),
            )
            assert lower == pytest.approx(expected_lower, rel=1e-12)


class TestBandMembership:
    def test_kirchhoff_equilateral_is_full(self):
        for k in (0.7, 2.0, 5.3):
            decision = band_membership(EQUILATERAL, KIRCHHOFF, EnergyPoint.positive(k))
            assert decision.kind is Decision.BAND
            oracle = band_membership_grid(
                EQUILATERAL, KIRCHHOFF, EnergyPoint.positive(k), GridSpec(128, 1)
            )
            assert oracle.kind is Decision.BAND

    def test_gap_above_envelope(self):
        decision = band_membership(
            EQUILATERAL, VertexCoupling(3.0), EnergyPoint.positive(2 * math.pi + 0.1)
        )
        assert decision.kind is Decision.GAP

    def test_negative_branch_gap_near_zero(self):
        decision = band_membership(
            EQUILATERAL, VertexCoupling(-6.5), EnergyPoint.negative(0.01)
        )
        assert decision.kind is Decision.GAP

    def test_dirichlet_verdict(self):
        decision = band_membership(EQUILATERAL, KIRCHHOFF, EnergyPoint.positive(math.pi))
        assert decision.kind is Decision.DIRICHLET
        assert decision.dirichlet_edges == ("a", "b", "c")

    def test_zero_branch_rejected(self):
        with pytest.raises(ValueError, match="unknown branch"):
            EnergyPoint("zero", 0.0)

    def test_agrees_with_grid_oracle_off_boundary(self):
        rng = random.Random(21)
        checked = 0
        while checked < 200:
            geom = HexGeometry(rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5))
            coupling = VertexCoupling(rng.uniform(-4, 4))
            k = rng.uniform(0.3, 15)
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 0.08:
                continue
            env = rhs_envelope(geom, k)
            value = abs(positive_terms(geom, coupling.alpha, k)[0])
            # skip near-boundary samples where the grid bracket may disagree
            if min(abs(value - env.lower), abs(value - env.upper)) < 0.05:
                continue
            fast = band_membership(geom, coupling, EnergyPoint.positive(k))
            slow = band_membership_grid(
                geom, coupling, EnergyPoint.positive(k), GridSpec(128, 1)
            )
            assert fast.kind is slow.kind
            checked += 1


class TestScanSpectrum:
    def test_kirchhoff_equilateral_single_band(self):
        report = scan_spectrum(EQUILATERAL, KIRCHHOFF, 0.01, 10 * math.pi, 1e-9)
        assert report.gaps == []
        assert len(report.bands) == 1
        lo, hi = report.bands[0]
        assert lo == pytest.approx(0.01**2)
        assert hi == pytest.approx((10 * math.pi) ** 2)

    def test_gaps_open_at_commensurate_points(self):
        report = scan_spectrum(EQUILATERAL, VertexCoupling(1.0), 5.0, 14.0, 1e-9)
        # gaps with left edges at 2*pi and 4*pi and at pi-odd multiples
        lefts = [math.sqrt(lo) for lo, _ in report.gaps]
        assert any(abs(left - 2 * math.pi) < 1e-6 for left in lefts)
        assert any(abs(left - 4 * math.pi) < 1e-6 for left in lefts)

    def test_bands_and_gaps_tile_window(self):
        report = scan_spectrum(HexGeometry(1, 2, 3), VertexCoupling(2.0), 0.5, 9.0, 1e-9)
        intervals = sorted(report.bands + report.gaps)
        assert intervals[0][0] == pytest.approx(report.window[0])
        assert intervals[-1][1] == pytest.approx(report.window[1])
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi == pytest.approx(lo, abs=1e-9)

    def test_gap_midpoints_strictly_outside_envelope(self):
        coupling = VertexCoupling(2.0)
        geom = HexGeometry(1, 2, 3)
        report = scan_spectrum(geom, coupling, 0.5, 9.0, 1e-9)
        assert report.gaps
        for lo, hi in report.gaps:
            k_mid = (math.sqrt(lo) + math.sqrt(hi)) / 2
            try:
                env = rhs_envelope(geom, k_mid)
            except DirichletPointError:
                continue
            value = abs(positive_terms(geom, coupling.alpha, k_mid)[0])
            assert value > env.upper or value < env.lower

    @pytest.mark.parametrize(
        "geom, alpha, k_lo, k_hi, n_samples, tol",
        [
            (HexGeometry(1, (1 + math.sqrt(5)) / 2, 1.3), 3.0, 0.01, 100.0, 4000, 1e-3),
            # both window ends and ten samples between them lie on a double m*pi
            (EQUILATERAL, 3.0, math.pi, 13 * math.pi, 145, 1e-9),
        ],
        ids=["wide-tolerance", "on-dirichlet-points"],
    )
    def test_samples_equal_the_point_kernel_rows(self, geom, alpha, k_lo, k_hi, n_samples, tol):
        # the grid kernel is bit-identical to the scalar positive_terms on the
        # table's grid lo + i*h, and a sample flagged at tol is a row of NaNs
        table = sample_grid(geom, VertexCoupling(alpha), "positive", k_lo, k_hi, n_samples, tol)
        h = (k_hi - k_lo) / (n_samples - 1)
        expected = []
        for i in range(n_samples):
            k = k_hi if i == n_samples - 1 else k_lo + i * h
            sines = _flag_sines(k, geom.lengths)[0]
            if any(abs(s) <= tol * max(1.0, ell * k) for s, ell in zip(sines, geom.lengths)):
                expected.append((k, k * k, math.nan, math.nan, math.nan, 2))
                continue
            d, lower, upper = positive_terms(geom, alpha, k)
            value, lower = abs(d), max(0.0, lower)
            expected.append((k, k * k, value, lower, upper, int(lower <= value <= upper)))
        assert 0 < sum(row[5] == 2 for row in expected) < n_samples
        assert table.decisions.dtype == np.int8
        assert [tuple(map(repr, row)) for row in zip(*(column.tolist() for column in table))] == \
            [tuple(map(repr, row)) for row in expected]

    @pytest.mark.parametrize("scan", [_positive_scan, _negative_scan], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "lo, hi, n_samples, edge_tol",
        [
            (1.0, 2.0, 0, 1e-9),
            (1.0, 2.0, 1, 1e-9),
            (1.0, 2.0, 100, 0.0),
            (1.0, 2.0, 100, math.nan),
            (2.0, 1.0, 100, 1e-9),
            (0.0, 1.0, 100, 1e-9),
            (None, 0.0, 100, 1e-9),
            (None, -1.0, 100, 1e-9),
            (None, -1.0, 0, 1e-9),
            (None, 2.0, 0, 1e-9),
            (1.0, math.inf, 100, 1e-9),
        ],
        ids=["no-samples", "one-sample", "zero-edge-tol", "nan-edge-tol", "reversed",
             "zero-start", "zero-end", "negative-end", "negative-end-no-samples",
             "default-start-no-samples", "infinite-end"],
    )
    def test_window_validation(self, scan, lo, hi, n_samples, edge_tol):
        # the report and the table each check what they read: a ValueError,
        # never a ZeroDivisionError from the default window start
        with pytest.raises(ValueError):
            scan(lo, hi, n_samples, edge_tol)

    def test_a_sample_grid_names_its_branch(self):
        with pytest.raises(ValueError, match="branch"):
            sample_grid(EQUILATERAL, KIRCHHOFF, "Positive", 1.0, 2.0, 10)

    def test_a_sample_count_is_an_integer(self):
        # 2.5 samples once gave rows at k = 1, 1.667 and 2, off the grid lo + i*h
        geom, coupling = HexGeometry(1, 1.3, 1.7), VertexCoupling(1.0)
        for n_samples in (2.5, 3.0, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="integer"):
                sample_grid(geom, coupling, "positive", 1.0, 2.0, n_samples)
        for n_samples in (3, np.int8(3), np.int64(3), np.uint32(3)):
            table = sample_grid(geom, coupling, "positive", 1.0, 2.0, n_samples)
            assert table.k.tolist() == [1.0, 1.5, 2.0]

    def test_edge_tol_below_double_spacing_terminates(self):
        # doubles near k = 250 are ~6e-14 apart, wider than edge_tol
        geom = HexGeometry((1 + math.sqrt(5)) / 2, 1, 1)
        fine = scan_spectrum(geom, VertexCoupling(20.0), 250.0, 300.0, 1e-14)
        coarse = scan_spectrum(geom, VertexCoupling(20.0), 250.0, 300.0, 1e-9)
        assert len(fine.gaps) == len(coarse.gaps) >= 1
        for (lo, hi), (lo_c, hi_c) in zip(fine.gaps, coarse.gaps):
            assert math.sqrt(lo) == pytest.approx(math.sqrt(lo_c), abs=1e-9)
            assert math.sqrt(hi) == pytest.approx(math.sqrt(hi_c), abs=1e-9)

    def test_narrow_band_right_of_dirichlet_zone_at_large_k(self):
        # At k ~ 1e6 the default tolerance flags about +-1e-3 around each
        # Dirichlet point; a band about 1.3e-3 wide starts where that zone
        # would end, narrower than a 4000-sample grid's spacing of 2.5e-3.
        geom = HexGeometry((1 + math.sqrt(5)) / 2, 1, math.sqrt(2))
        coupling = VertexCoupling(3107703.0)
        k = 1004700.2205
        assert band_membership(geom, coupling, EnergyPoint.positive(k)).kind is Decision.BAND
        report = scan_spectrum(geom, coupling, 1004692.43, 1004702.43, 1e-6)
        assert any(lo <= k * k <= hi for lo, hi in report.bands)
        assert not any(lo < k * k < hi for lo, hi in report.gaps)

    def test_window_ending_on_dirichlet_point_keeps_its_band(self):
        # 10*pi is a Dirichlet point of every edge and the gap opens to its
        # right, outside the window: the window end keeps the band on its left
        k_hi = 10 * math.pi
        report = scan_spectrum(EQUILATERAL, VertexCoupling(1.0), 5.0, k_hi, 1e-9)
        assert report.bands[-1][1] == pytest.approx(k_hi**2, rel=1e-15)
        assert not any(math.sqrt(lo) > k_hi - 1e-6 for lo, _ in report.gaps)

    def test_flat_bands_and_dirichlet_points_reported(self):
        report = scan_spectrum(HexGeometry(1, 2, 3), KIRCHHOFF, 0.5, 14.0, 1e-9)
        ks = [fb.k for fb in report.flat_bands]
        assert ks == pytest.approx([2 * math.pi, 4 * math.pi])
        assert math.pi**2 in [pytest.approx(e) for e in report.dirichlet_points]
        # flat-band energies coincide with full Dirichlet points
        for fb in report.flat_bands:
            for ell in (1, 2, 3):
                assert abs(math.sin(ell * fb.k)) < 1e-9 * max(1, ell * fb.k)


def _energy_intervals(report):
    """(e_lo, e_hi, state) of every band and gap, ascending."""
    return sorted([(lo, hi, "band") for lo, hi in report.bands]
                  + [(lo, hi, "gap") for lo, hi in report.gaps])


def _intervals(report):
    """(k_lo, k_hi, state) of every band and gap of a positive report, ascending."""
    return [(math.sqrt(lo), math.sqrt(hi), state) for lo, hi, state in _energy_intervals(report)]


def _assert_rows_agree(table, intervals, edge_tol):
    """Each band or gap row of ``table`` lies in an interval of ``intervals``,
    (x_lo, x_hi, state) ascending, of its own state, unless it is within
    2 edge_tol of that interval's ends; and such rows are most of the table."""
    los = np.array([lo for lo, _, _ in intervals])
    his = np.array([hi for _, hi, _ in intervals])
    bands = np.array([state == "band" for _, _, state in intervals])
    at = np.minimum(np.searchsorted(his, table.k), len(intervals) - 1)
    checked = ((table.decisions < 2) & (np.abs(table.k - los[at]) > 2 * edge_tol)
               & (np.abs(table.k - his[at]) > 2 * edge_tol))
    assert checked.sum() > 0.8 * len(table.k)
    assert np.array_equal(table.decisions[checked] == 1, bands[at][checked])


class TestDirichletEdges:
    """Membership is decided at the Dirichlet points themselves, with no tolerance."""

    def test_readme_equilateral_edges_sit_on_dirichlet_points(self):
        # bands --a 1 --b 1 --c 1 --alpha 3 --kmax 31.4: a gap opens right of every m*pi
        report = scan_spectrum(EQUILATERAL, VertexCoupling(3.0), 0.01, 31.4, 1e-9)
        edges = [k for lo, hi, _ in _intervals(report) for k in (lo, hi)]
        for m in range(1, 10):
            assert min(abs(k - m * math.pi) for k in edges) <= 1e-9

    def test_intervals_do_not_depend_on_the_dirichlet_tolerance(self):
        # bands --dirichlet-tol only labels the CSV rows: the JSON report is the
        # library's, byte for byte, at every tolerance
        geom, coupling = HexGeometry((1 + math.sqrt(5)) / 2, 1, 1), VertexCoupling(-20.0)
        report = scan_spectrum(geom, coupling, 0.01, 120.0, 1e-9)
        assert report.gaps
        args = ["bands", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1", "--alpha", "-20",
                "--kmax", "120"]
        for tol in ("1e-9", "1e-6", "1e-3", "2"):
            result = CliRunner().invoke(cli, args + ["--dirichlet-tol", tol])
            assert (result.exit_code, result.stdout) == (0, report_to_json(report))
        # a tolerance of 2 flags every sample row
        table = sample_grid(geom, coupling, "positive", 0.01, 120.0, 4000, 2.0)
        assert set(table.decisions.tolist()) == {SampleTable.DECISIONS.index("dirichlet")}

    @pytest.mark.parametrize(
        "geom, alpha, k_lo, k_hi, end, state",
        [
            # 6*pi is a Dirichlet point of all three edges, and the double 6*pi
            # lies just left of it, in the band that ends there
            (HexGeometry(2 / 3, 1, 4 / 3), 1.8602, 6 * math.pi, 6 * math.pi + 20, 0, "gap"),
            # the double 13*pi lies just right of 13*pi, in the gap that opens there
            (EQUILATERAL, 3.0, 30.0, 13 * math.pi, -1, "band"),
        ],
        ids=["start", "end"],
    )
    def test_window_end_on_a_dirichlet_point_keeps_its_neighbour(self, geom, alpha, k_lo, k_hi,
                                                                 end, state):
        report = scan_spectrum(geom, VertexCoupling(alpha), k_lo, k_hi, 1e-9)
        intervals = _intervals(report)
        assert intervals[end][2] == state
        assert all(hi - lo >= 1e-9 for lo, hi, _ in intervals)


def _reference_runs(xs, gaps, is_gap, edge_tol):
    """Refined (is_gap, x_lo, x_hi) runs from one scalar bisection per edge.

    Each change is bisected on the point function ``is_gap`` until the
    bracket is no wider than edge_tol or its ends are adjacent doubles; then
    a run narrower than edge_tol at a window end joins its neighbour.
    """
    states, edges = [gaps[0]], [xs[0]]
    for x_lo, x_hi, was_gap, gap in zip(xs, xs[1:], gaps, gaps[1:]):
        if gap == was_gap:
            continue
        lo, hi = x_lo, x_hi
        while hi - lo > edge_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if is_gap(mid) != was_gap:
                hi = mid
            else:
                lo = mid
        states.append(gap)
        edges.append(0.5 * (lo + hi))
    edges.append(xs[-1])
    if len(states) > 1 and edges[1] - edges[0] < edge_tol:
        del states[0], edges[1]
    if len(states) > 1 and edges[-1] - edges[-2] < edge_tol:
        del states[-1], edges[-2]
    return [(state, edges[i], edges[i + 1]) for i, state in enumerate(states)]


def _is_gap(rows):
    return rows[0] or rows[1] or (rows[2] and rows[3])


def _row_roots_edges(x_lo, x_hi, first, last, rows_at, edge_tol):
    """The changes of membership in [x_lo, x_hi], where each of the four rows
    turns at most once, from the rows ``first`` and ``last`` seen from inside:
    each turning row's root is one scalar bisection of ``rows_at`` on its own,
    and the rows flip root by root.  Roots that end in one bracket flip
    together, so a pair that leaves membership as it was is no edge."""
    roots = {}
    for i in range(4):
        if first[i] == last[i]:
            continue
        lo, hi = x_lo, x_hi
        while hi - lo > edge_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if rows_at(mid)[i] != first[i]:
                hi = mid
            else:
                lo = mid
        roots.setdefault(0.5 * (lo + hi), []).append(i)
    row, edges = list(first), []
    for root in sorted(roots):
        was_gap = _is_gap(row)
        for i in roots[root]:
            row[i] = not row[i]
        if _is_gap(row) != was_gap:
            edges.append(root)
    return edges


def _hashed_gap(x):
    """A fixed but arbitrary gap flag for every double x."""
    return hashlib.blake2b(struct.pack("<d", x), digest_size=1).digest()[0] & 1 == 1


def _lockstep_runs(xs, gaps, is_gap, edge_tol):
    """:func:`_halve` on the changes of ``gaps`` between neighbouring ``xs``, the
    gap flag carried in row 0 and ``is_gap`` mapped over the asked points, then
    :func:`_runs`; and the size of each array it asked for."""
    sizes = []

    def codes_at(points):
        sizes.append(points.size)
        return np.array([is_gap(x) for x in points.tolist()], dtype=np.uint8)

    xs, codes = np.array(xs), np.array(gaps, dtype=np.uint8)
    changes = np.flatnonzero(codes[1:] != codes[:-1])
    edges = _halve(xs[changes], xs[changes + 1], codes[changes] << 4 | codes[changes + 1],
                   codes_at, edge_tol)
    return _runs(bool(gaps[0]), [float(xs[0]), *np.sort(edges).tolist(), float(xs[-1])],
                 edge_tol), sizes


class TestLockstepRefinement:
    """Halving every piece at once gives the doubles of one bisection per edge."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_flag_patterns(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 80)
        lo = 10 ** rng.uniform(-2, 6)
        h = lo * 10 ** rng.uniform(-6, 0)
        xs = (lo + np.arange(n) * h).tolist()
        gaps = [rng.random() < rng.choice([0.1, 0.5, 0.9]) for _ in range(n)]
        edge_tol = 10 ** rng.uniform(-15, -2)
        runs, sizes = _lockstep_runs(xs, gaps, _hashed_gap, edge_tol)
        assert runs == _reference_runs(xs, gaps, _hashed_gap, edge_tol)
        assert all(type(x) is float and type(state) is bool for state, *ends in runs
                   for x in ends)
        # each call asks for the midpoints and quarter points of the live pieces
        changes = sum(a != b for a, b in zip(gaps, gaps[1:]))
        assert sorted(sizes, reverse=True) == sizes
        assert all(0 < n <= 3 * changes and n % 3 == 0 for n in sizes)

    def test_brackets_shrink_to_adjacent_doubles(self):
        # doubles near k = 1e6 are ~1.2e-10 apart, far wider than edge_tol
        rng = random.Random(3)
        xs = (1e6 + np.arange(400) * 2.5e-3).tolist()
        gaps = [rng.random() < 0.5 for _ in xs]
        runs, sizes = _lockstep_runs(xs, gaps, _hashed_gap, 1e-14)
        assert runs == _reference_runs(xs, gaps, _hashed_gap, 1e-14)
        # the width test never stops a bracket: each stops once its midpoint
        # repeats an end, after about log2(spacing / ulp) halvings, two per call
        steps = math.log2(2.5e-3 / math.ulp(1e6)) / 2
        assert math.floor(steps) <= len(sizes) <= math.ceil(steps) + 1

    def test_a_bracket_as_wide_as_edge_tol_stops(self):
        # power-of-two widths: after 11 halvings of 0.5 each bracket is exactly
        # 2**-12 wide; six calls ask for the 3 pieces' midpoints and quarter points
        xs, gaps = [1.0, 1.5, 2.0, 2.5], [False, True, False, True]
        runs, sizes = _lockstep_runs(xs, gaps, _hashed_gap, 2.0**-12)
        assert runs == _reference_runs(xs, gaps, _hashed_gap, 2.0**-12)
        assert sizes == [9] * 6

    @pytest.mark.parametrize("first, last", [(True, True), (True, False), (False, True)])
    def test_runs_at_both_window_ends_join_their_neighbours(self, first, last):
        # the point function puts the first edge on the window start and the
        # last on the window end, leaving runs narrower than edge_tol there
        xs = [1.0, 1.5, 2.0, 2.5]
        gaps = [first, not first, not first, last]
        interior = not first

        def is_gap(x):
            return interior

        runs, _ = _lockstep_runs(xs, gaps, is_gap, 1e-9)
        assert runs == _reference_runs(xs, gaps, is_gap, 1e-9)
        assert [state for state, _, _ in runs] == [interior]
        assert (runs[0][1], runs[-1][2]) == (1.0, 2.5)

    @pytest.mark.parametrize(
        "geom, alpha, k_lo, k_hi, edge_tol",
        [
            (HexGeometry((1 + math.sqrt(5)) / 2, 1, 1), -47.5, 0.01, 120.0, 1e-9),
            (HexGeometry(0.5, 1.5, 1.0), 3.5, 2 * math.pi, 22 * math.pi, 1e-12),
            (HexGeometry((1 + math.sqrt(5)) / 2, 1, math.sqrt(2)), 3107703.0,
             1004692.43, 1004702.43, 1e-14),
        ],
        ids=["golden-bc", "dirichlet-ends", "large-k"],
    )
    def test_positive_scans_equal_the_scalar_criteria_bisection(self, geom, alpha, k_lo, k_hi,
                                                                edge_tol):
        # the pieces run between the window ends and the Dirichlet points m*pi/l,
        # a window end within _SAME_POINT of a point taken as that point; in each
        # piece every row turns at most once, and each edge is the root of one
        # turning row from one scalar bisection of the rows, bit for bit
        report = scan_spectrum(geom, VertexCoupling(alpha), k_lo, k_hi, edge_tol)
        energies = {e for lo, hi in report.bands + report.gaps for e in (lo, hi)}
        candidates = sorted(m * math.pi / ell for ell in geom.lengths
                            for m in range(int(k_lo * ell / math.pi), int(k_hi * ell / math.pi) + 2))
        candidates = [k for k in candidates if k_lo <= k <= k_hi]
        points = [k for i, k in enumerate(candidates)
                  if i == 0 or k - candidates[i - 1] > _SAME_POINT * max(1.0, k)]
        first = points[:1] if points[0] - k_lo <= _SAME_POINT * max(1.0, points[0]) else [k_lo]
        last = points[-1:] if k_hi - points[-1] <= _SAME_POINT * max(1.0, points[-1]) else [k_hi]
        ends = first + [k for k in points if k not in first + last] + last

        rows = functools.partial(reference_rows, geom, alpha)
        edges = []
        for x_lo, x_hi in zip(ends, ends[1:]):
            first, last = rows(x_lo, 1), rows(x_hi, -1)
            edges += _row_roots_edges(x_lo, x_hi, first, last, lambda k: rows(k, 0), edge_tol)
            if x_hi != ends[-1] and _is_gap(last) != _is_gap(rows(x_hi, 1)):
                edges.append(x_hi)  # the sides of a Dirichlet point differ in membership
        assert _bits(sorted(energies - set(report.window))) == _bits([k * k for k in edges])
        assert len(edges) >= 3

    @pytest.mark.parametrize(
        "geom, alpha, kappa_lo, kappa_hi, n_samples, edge_tol",
        [
            (HexGeometry(1.0, 0.6, 1.7), -6.5, 0.05, 5.0, 300, 1e-12),
            (HexGeometry(0.2, 3, 5), -20.0, 1.25e-3, 5.0, 4000, 1e-9),
            (HexGeometry(1, 3, 3), -1.5, 1e-4, 5.0, 1500, 1e-14),
        ],
        ids=["four-roots", "narrow-band", "short-edge-window"],
    )
    def test_negative_roots_equal_the_scalar_bisections(self, geom, alpha, kappa_lo, kappa_hi,
                                                        n_samples, edge_tol):
        kappas = np.linspace(kappa_lo, kappa_hi, n_samples)

        def signs(kappa):
            """The four rows from the point kernel: D - upper > 0, D + upper < 0,
            D - lower < 0 and D + lower > 0."""
            d, lower, upper = _negative_terms(geom, alpha, kappa)
            return [d > upper, d < -upper, d < lower, d > -lower]

        rows = [signs(kappa) for kappa in kappas.tolist()]
        for row, kappa in zip(rows, kappas.tolist()):
            band = band_membership(geom, VertexCoupling(alpha), EnergyPoint.negative(kappa))
            assert (band.kind is Decision.BAND) == (not _is_gap(row))
        codes = _sign_codes(*_negative_terms_grid(geom, alpha, kappas))
        assert codes.tolist() == [sum(bit << i for i, bit in enumerate(row)) for row in rows]
        assert [bool(_GAP[code]) for code in codes.tolist()] == [_is_gap(row) for row in rows]
        # each row turns once: its root is one scalar bisection between the window
        # ends; the edges are the roots that change membership
        edges = _row_roots_edges(kappa_lo, kappa_hi, rows[0], rows[-1], signs, edge_tol)
        report = negative_spectrum_scan(geom, VertexCoupling(alpha), kappa_lo, kappa_hi, edge_tol)
        energies = {e for lo, hi in report.bands + report.gaps for e in (lo, hi)}
        assert _bits(sorted(energies - set(report.window))) == _bits(sorted(-k * k for k in edges))
        assert sum(a != b for a, b in zip(rows[0], rows[-1])) >= 2


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def _negative_case(draw):
    """A geometry, alpha and kappa grid from 1e-8 to 1e3, with l*kappa at and
    within a few ulps of inv_sinh's cutoff 700 on a random edge."""
    lengths = [draw(st.floats(0.05, 20.0)) for _ in range(3)]
    kappas = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            kappas.append(10.0 ** draw(st.floats(-8.0, 3.0)))
        else:
            kappa = 700.0 / lengths[draw(st.integers(0, 2))]
            for _ in range(draw(st.integers(0, 3))):
                kappa = math.nextafter(kappa, draw(st.sampled_from([0.0, math.inf])))
            kappas.append(kappa)
    return HexGeometry(*lengths), draw(st.floats(-1e3, 1e3)), kappas


class TestNegativeTermsGrid:
    @settings(max_examples=800, derandomize=True, deadline=None)
    @given(_negative_case())
    # l*kappa is exactly 700 on the unit edge, and one ulp either side
    @example((HexGeometry(1.0, 0.5, 3.0), -6.5,
              [700.0, math.nextafter(700.0, 0.0), math.nextafter(700.0, math.inf)]))
    def test_equals_the_point_kernel_bit_for_bit(self, case):
        geom, alpha, kappas = case
        grid = _negative_terms_grid(geom, alpha, np.array(kappas))
        expected = [_negative_terms(geom, alpha, kappa) for kappa in kappas]
        assert [_bits(column) for column in grid] == [_bits(column) for column in zip(*expected)]

    def test_rejects_a_nonpositive_kappa(self):
        with pytest.raises(ValueError, match="kappa must be > 0"):
            _negative_terms_grid(EQUILATERAL, -6.5, np.array([1.0, 0.0]))

    def test_fails_where_the_point_kernel_fails(self):
        # 0.5 * 5e-324 underflows to 0, where coth and 1/sinh divide by zero
        geom = HexGeometry(1.0, 0.5, 1.0)
        with pytest.raises(ZeroDivisionError):
            _negative_terms(geom, -3.0, 5e-324)
        with pytest.raises(ArithmeticError):
            _negative_terms_grid(geom, -3.0, np.array([1.0, 5e-324]))


class TestNegativeScan:
    def test_positive_alpha_has_empty_negative_spectrum(self):
        report = negative_spectrum_scan(EQUILATERAL, VertexCoupling(1.0), 5.0 / 400, 5.0, 1e-9)
        assert report.bands == []
        assert len(report.gaps) == 1

    def test_strong_coupling_gap_adjacent_to_zero(self):
        report = negative_spectrum_scan(EQUILATERAL, VertexCoupling(-6.5), 1e-4, 5.0, 1e-9)
        assert report.gap_adjacent_to_zero()
        assert report.bands  # the negative spectrum itself is nonempty

    def test_short_edge_window_gap(self):
        report = negative_spectrum_scan(HexGeometry(1, 3, 3), VertexCoupling(-1.5), 1e-4, 5.0, 1e-9)
        assert report.gap_adjacent_to_zero()

    def test_rows_equal_the_dispersion_and_envelope(self):
        # kappa reaches past 700/l, where 1/sinh is taken as 0
        geom, coupling = HexGeometry(1, 3, 0.7), VertexCoupling(-6.5)
        table = sample_grid(geom, coupling, "negative", 1e-3, 300.0, 800)
        for kappa, *row, code in zip(*(column.tolist() for column in table)):
            inv = [inv_sinh(ell * kappa) for ell in geom.lengths]
            upper = sum(inv)
            lower = max(0.0, 2 * inv_sinh(geom.ell_min * kappa) - upper)
            value = abs(_negative_terms(geom, coupling.alpha, kappa)[0])
            assert row == [-kappa * kappa, value, lower, upper]
            assert SampleTable.DECISIONS[code] == ("band" if lower <= value <= upper else "gap")

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3), st.floats(-2.0, 2.47),
           st.floats(0.1, 1.0))
    # two roots closer than edge_tol near E = -287.1: bracketed by sample cells,
    # a scan at 400 samples once gave a band of kappa width 6.8e-13 there
    @example([3.0, 0.05, 6.655366294480903], math.log10(40.66561432555537),
             37.475917242533725 / 40.66561432555537)
    def test_a_coarse_scan_finds_every_band_of_a_fine_one(self, lengths, log_alpha, ratio):
        # alpha from -0.01 to -300; for large l*kappa the bands sit near kappa = |alpha|/3
        # and narrow exponentially, so the window reaches a fraction of |alpha|.  The
        # scan refines from its window ends alone; each row of a 60000-row table
        # lies in an interval of its own state
        alpha = -10.0**log_alpha
        geom, coupling, edge_tol = HexGeometry(*lengths), VertexCoupling(alpha), 1e-12
        kappa_max = max(ratio * -alpha, 0.01)
        report = negative_spectrum_scan(geom, coupling, 1e-3, kappa_max, edge_tol)
        intervals = [(math.sqrt(-hi), math.sqrt(-lo), state)
                     for lo, hi, state in reversed(_energy_intervals(report))]
        table = sample_grid(geom, coupling, "negative", 1e-3, kappa_max, 60_000)
        _assert_rows_agree(table, intervals, edge_tol)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3), st.floats(-300.0, -0.01),
           st.floats(0.01, 50.0))
    # two roots closer than edge_tol: bracketed by sample cells, 400 samples gave a
    # band of kappa width 6.8e-13 at E = -287.1 and 60k samples none
    @example([3.0, 0.05, 6.655366294480903], -40.66561432555537, 37.475917242533725)
    def test_the_intervals_do_not_depend_on_the_samples(self, lengths, alpha, kappa_max):
        # the report takes no sample count, and its one set of intervals
        # accounts for the rows of a sample table at every count
        geom, coupling, edge_tol = HexGeometry(*lengths), VertexCoupling(alpha), 1e-12
        report = negative_spectrum_scan(geom, coupling, 1e-3, kappa_max, edge_tol)
        intervals = [(math.sqrt(-hi), math.sqrt(-lo), state)
                     for lo, hi, state in reversed(_energy_intervals(report))]
        for n_samples in (50, 400, 4000, 60_000):
            table = sample_grid(geom, coupling, "negative", 1e-3, kappa_max, n_samples)
            _assert_rows_agree(table, intervals, edge_tol)

    def test_energies_increase(self):
        report = negative_spectrum_scan(EQUILATERAL, VertexCoupling(-6.5), 1e-3, 5.0, 1e-9)
        intervals = sorted(report.bands + report.gaps)
        assert intervals == sorted(intervals)
        assert all(hi <= 0 for _, hi in intervals)
        flat = [e for pair in intervals for e in pair]
        assert flat == sorted(flat)


class TestKnownMiss:
    """Gaps narrower than a 4000-sample grid's spacing, which a sampled scan used to miss."""

    GEOM, COUPLING = HexGeometry((1 + math.sqrt(5)) / 2, 1, 1), VertexCoupling(6.0)
    # the GC1 gap at k = 89*pi, 7.5e-3 wide, on (phi, 1, 1) with alpha = 6
    GAP = (279.60175, 279.60924)

    def test_a_local_scan_finds_the_gap(self):
        report = scan_spectrum(self.GEOM, self.COUPLING, 279.0, 280.2, 1e-9)
        [(lo, hi)] = [(math.sqrt(lo), math.sqrt(hi)) for lo, hi in report.gaps]
        assert (lo, hi) == pytest.approx(self.GAP, abs=1e-5)

    def test_the_default_window_finds_the_gap(self):
        # bands --a '(1+sqrt(5))/2' --b 1 --c 1 --alpha 6 --kmax 280.6017, whose
        # 4000 samples are 0.07 apart
        report = scan_spectrum(self.GEOM, self.COUPLING, 0.01, 280.6017, 1e-9)
        lo, hi = self.GAP
        assert any(e_lo < hi * hi and lo * lo < e_hi for e_lo, e_hi in report.gaps)

    def test_the_default_window_finds_an_interior_gc2_gap(self):
        # gaps --a '(1+sqrt(5))/2' --b 1 --c 1 --alpha 22 --kmax 298: a GC2 gap in
        # k = [44.5033, 44.5485] holds no Dirichlet point and is narrower than the
        # 4000-sample spacing 0.0745; two rows turn in the piece that holds it
        coupling, k = VertexCoupling(22.0), 44.5259
        assert band_membership(self.GEOM, coupling, EnergyPoint.positive(k)).kind is Decision.GAP
        rows = reference_rows(self.GEOM, coupling.alpha, k)
        assert (rows[0] or rows[1], rows[2] and rows[3]) == (False, True)
        report = scan_spectrum(self.GEOM, coupling, 0.01, 298.0, 1e-9)
        assert any(lo < k * k < hi for lo, hi in report.gaps)


class TestCertifiedEdges:
    """The positive scan's intervals do not depend on the grid."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3), st.sampled_from([-1, 1]),
           st.floats(-2.0, 2.0), st.floats(0.01, 50.0), st.floats(0.5, 60.0))
    # sampled at 400 points, the band (1.2202242, 1.4768824) ran on to 4.4220768
    @example([2.7678764324583454, 2.123194830213585, 1.9130087924276902], -1,
             math.log10(3.1250151296673674), 0.01, 55.814491516052504)
    def test_a_coarse_scan_finds_every_interval_of_a_fine_one(self, lengths, sign, log_alpha,
                                                               k_lo, width):
        # bands prints the same intervals at 400 and 60000 samples; and each row
        # of the 60000-row table lies in an interval of its own state, unless it
        # is a dirichlet row or within 2 edge_tol of an edge
        geom, coupling, edge_tol = HexGeometry(*lengths), VertexCoupling(sign * 10**log_alpha), 1e-9
        k_hi = k_lo + width
        report = scan_spectrum(geom, coupling, k_lo, k_hi, edge_tol)
        args = ["bands", "--a", repr(lengths[0]), "--b", repr(lengths[1]), "--c", repr(lengths[2]),
                "--alpha", repr(coupling.alpha), "--kmin", repr(k_lo), "--kmax", repr(k_hi)]
        for n_samples in ("400", "60000"):
            result = CliRunner().invoke(cli, args + ["--samples", n_samples])
            assert (result.exit_code, result.stdout) == (0, report_to_json(report))
        table = sample_grid(geom, coupling, "positive", k_lo, k_hi, 60_000)
        _assert_rows_agree(table, _intervals(report), edge_tol)


class TestKnownNegativeMiss:
    """The negative band at kappa = 4.645407, 7.2e-6 wide, on (0.2, 3, 5) with alpha = -20."""

    GEOM, COUPLING = HexGeometry(0.2, 3, 5), VertexCoupling(-20.0)
    KAPPA = 4.645407

    def test_the_point_is_in_a_band(self):
        decision = band_membership(self.GEOM, self.COUPLING, EnergyPoint.negative(self.KAPPA))
        assert decision.kind is Decision.BAND

    def test_the_scan_finds_the_band(self):
        # bands --a 0.2 --b 3 --c 5 --alpha -20 --kmax 1 --include-negative --kappa-max 5
        report = negative_spectrum_scan(self.GEOM, self.COUPLING, 5.0 / 4000, 5.0, 1e-9)
        [band] = [(math.sqrt(-hi), math.sqrt(-lo)) for lo, hi in report.bands]
        assert band == pytest.approx((4.6454032, 4.6454104), abs=1e-7)
        assert band[0] < self.KAPPA < band[1]


class TestKirchhoffEquilateral:
    """With alpha = 0 and a = b = c, |D| = 3|cot lk| never leaves the envelope
    [0, 3/|sin lk|], so the spectrum is the whole positive axis."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(0.01, 1e4), st.integers(1, 2000), st.booleans())
    def test_membership_is_never_a_gap(self, ell, k, m, dirichlet_hit):
        if dirichlet_hit and m * math.pi / ell <= 1e4:
            k = m * math.pi / ell
        decision = band_membership(HexGeometry(ell, ell, ell), KIRCHHOFF, EnergyPoint.positive(k))
        assert decision.kind is not Decision.GAP

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(0.01, 1e4), st.floats(0.01, 50.0))
    def test_a_scan_has_no_gaps(self, ell, k_lo, width):
        report = scan_spectrum(HexGeometry(ell, ell, ell), KIRCHHOFF, k_lo, k_lo + width, 1e-9)
        assert report.gaps == []


class TestFlatBands:
    def test_unit_spacing_family(self):
        witness = CommensurabilityWitness(d=1.0, p=1, q=2, r=3)
        ks = flat_band_energies(witness, 3)
        assert ks == pytest.approx([2 * math.pi, 4 * math.pi, 6 * math.pi])

    def test_half_unit_family(self):
        witness = commensurability_witness(Fraction(1, 2), Fraction(3, 2), Fraction(1))
        assert witness is not None and witness.exact
        assert (witness.p, witness.q, witness.r) == (1, 3, 2)
        ks = flat_band_energies(witness, 1)
        assert ks == pytest.approx([4 * math.pi])

    def test_multiples_are_exact_in_rational_arithmetic(self):
        witness = commensurability_witness(Fraction(1, 2), Fraction(3, 2), Fraction(1))
        # k_n * length / (2*pi) = n * (p or q or r): an exact integer
        for n in (1, 2, 5):
            for count in (witness.p, witness.q, witness.r):
                assert (Fraction(n) * count).denominator == 1

    def test_missing_witness_is_an_error(self):
        assert commensurability_witness(1.0, math.sqrt(2), 1.0) is None
        with pytest.raises(ValueError):
            flat_band_energies(None, 3)

    def test_unreduced_witness_is_normalized(self):
        reduced = flat_band_energies(CommensurabilityWitness(d=1.0, p=1, q=2, r=3), 2)
        doubled = flat_band_energies(CommensurabilityWitness(d=0.5, p=2, q=4, r=6), 2)
        assert reduced == pytest.approx(doubled)

    def test_a_far_window_asks_only_for_its_own_candidates(self, monkeypatch):
        # near k = 1e7 a window 10 wide holds two flat bands of (1, 2, 3); the scan
        # asks for the k_n of its window, not for every k_n from n = 1
        asked = []

        def counted(witness, n_max, n_min=1):
            asked.append(n_max - n_min + 1)
            assert n_max - n_min < 100, f"asked for {n_max - n_min + 1} candidates"
            return flat_band_energies(witness, n_max, n_min)

        monkeypatch.setattr(bands_module, "flat_band_energies", counted)
        k_lo, k_hi = 1e7, 1e7 + 10
        report = scan_spectrum(HexGeometry(1, 2, 3), VertexCoupling(3.0), k_lo, k_hi, 1e-9)
        assert asked == [4]
        expected = [2 * math.pi * n / 1.0 for n in range(1591540, 1591560)]
        expected = [k for k in expected if k_lo <= k <= k_hi]
        assert len(expected) == 2
        assert [fb.k for fb in report.flat_bands] == expected

    def test_a_window_range_is_the_tail_of_the_full_list(self):
        witness = CommensurabilityWitness(d=0.5, p=2, q=3, r=5)
        assert flat_band_energies(witness, 9, n_min=4) == flat_band_energies(witness, 9)[3:]
        with pytest.raises(ValueError):
            flat_band_energies(witness, 9, n_min=0)


class TestVerifyFlatBand:
    def test_exact_construction_for_commensurate_lengths(self):
        assert verify_flat_band(EQUILATERAL, 2 * math.pi) <= 1e-12
        assert verify_flat_band(HexGeometry(1, 2, 3), 2 * math.pi) <= 1e-12
        assert verify_flat_band(HexGeometry(1, 2, 3), 4 * math.pi) <= 1e-12

    def test_coupling_does_not_break_exact_construction(self):
        assert verify_flat_band(EQUILATERAL, 2 * math.pi, VertexCoupling(7.5)) <= 1e-11

    @pytest.mark.parametrize(
        "lengths, k, exact",
        [((1, 1, 1), math.pi, True), ((1, 2, 3), math.pi, True),
         ((0.5, 1.5, 1), 2 * math.pi, True), ((1, 1, 1), math.pi / 2, False)],
        ids=["pi-equilateral", "pi-odd-lengths", "2pi-half-lengths", "half-pi"],
    )
    def test_exact_at_multiples_of_pi(self, lengths, k, exact):
        # k*l in pi*Z suffices, 2*pi*Z is not needed: k*a, k*b, k*c are
        # pi, 2*pi and 3*pi at (1, 2, 3) and pi, 3*pi, 2*pi at (1/2, 3/2, 1)
        residual = verify_flat_band(HexGeometry(*lengths), k, VertexCoupling(2.5))
        assert (residual <= 1e-14) is exact
        if not exact:
            assert residual == pytest.approx(math.pi, rel=1e-12)  # |slope sum| = 2k at k = pi/2

    def test_incommensurate_lengths_fail(self):
        geom = HexGeometry(1, math.sqrt(2), 1)
        residual = verify_flat_band(geom, 2 * math.pi)
        assert residual >= 0.1
        # independent recomputation of the worst vertex violation
        cycle = (1, math.sqrt(2), 1, 1, math.sqrt(2), 1)
        positions = [0.0]
        for ell in cycle:
            positions.append(positions[-1] + ell)
        k = 2 * math.pi
        expected = 0.0
        for s in positions[:6]:
            expected = max(expected, abs(math.sin(k * s)))
        expected = max(expected, abs(math.sin(k * positions[6])),
                       k * abs(1 - math.cos(k * positions[6])))
        assert residual == pytest.approx(expected, rel=1e-9)
