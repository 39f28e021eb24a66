import hashlib
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexband import (
    Decision,
    EnergyPoint,
    HexGeometry,
    VertexCoupling,
    band_membership,
    commensurability_witness,
    dispersion,
    flat_band_energies,
    negative_spectrum_scan,
    rhs_envelope,
    rhs_envelope_negative,
    scan_spectrum,
    trig_polynomial_min,
    verify_flat_band,
)
from hexband.bands import (_intervals_from_runs, _negative_past, _negative_roots, _positive_gaps,
                           _positive_rows)
from hexband.core import (DirichletPointError, _negative_terms, _negative_terms_grid,
                          dispersion_negative, gap_criteria, inv_sinh, positive_terms)
from hexband.report import SampleRow
from hexband.numtheory import CommensurabilityWitness
from hexband.oracle import GridSpec, band_membership_grid, rhs_extrema_grid, trig_min_grid

EQUILATERAL = HexGeometry(1, 1, 1)
KIRCHHOFF = VertexCoupling(0.0)


def _positive_scan(lo, hi, n_samples, edge_tol):
    """Positive scan over [lo, hi]; lo None takes the CLI's default start."""
    lo = 0.01 if lo is None else lo
    return scan_spectrum(EQUILATERAL, KIRCHHOFF, lo, hi, n_samples, edge_tol)


def _negative_scan(lo, hi, n_samples, edge_tol):
    """Negative scan over kappa in [lo, hi]; lo None takes hi / n_samples."""
    return negative_spectrum_scan(EQUILATERAL, VertexCoupling(-6.5), hi, n_samples, edge_tol,
                                  kappa_lo=lo)


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
            env = rhs_envelope_negative(geom, kappa)
            assert 0 <= env.lower <= env.upper
            expected_lower = max(
                0.0,
                2 / math.sinh(geom.ell_min * kappa)
                - sum(1 / math.sinh(l * kappa) for l in geom.lengths),
            )
            assert env.lower == pytest.approx(expected_lower, rel=1e-12)


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
        with pytest.raises(ValueError):
            band_membership(EQUILATERAL, KIRCHHOFF, EnergyPoint.zero())

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
            value = abs(dispersion(geom, coupling, k))
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
        report = scan_spectrum(EQUILATERAL, KIRCHHOFF, 0.01, 10 * math.pi, 2500, 1e-9)
        assert report.gaps == []
        assert len(report.bands) == 1
        lo, hi = report.bands[0]
        assert lo == pytest.approx(0.01**2)
        assert hi == pytest.approx((10 * math.pi) ** 2)

    def test_gaps_open_at_commensurate_points(self):
        report = scan_spectrum(EQUILATERAL, VertexCoupling(1.0), 5.0, 14.0, 4000, 1e-9)
        # gaps with left edges at 2*pi and 4*pi and at pi-odd multiples
        lefts = [math.sqrt(lo) for lo, _ in report.gaps]
        assert any(abs(left - 2 * math.pi) < 1e-6 for left in lefts)
        assert any(abs(left - 4 * math.pi) < 1e-6 for left in lefts)

    def test_bands_and_gaps_tile_window(self):
        report = scan_spectrum(HexGeometry(1, 2, 3), VertexCoupling(2.0), 0.5, 9.0, 3000, 1e-9)
        intervals = sorted(report.bands + report.gaps)
        assert intervals[0][0] == pytest.approx(report.window[0])
        assert intervals[-1][1] == pytest.approx(report.window[1])
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi == pytest.approx(lo, abs=1e-9)

    def test_gap_midpoints_strictly_outside_envelope(self):
        coupling = VertexCoupling(2.0)
        geom = HexGeometry(1, 2, 3)
        report = scan_spectrum(geom, coupling, 0.5, 9.0, 3000, 1e-9)
        assert report.gaps
        for lo, hi in report.gaps:
            k_mid = (math.sqrt(lo) + math.sqrt(hi)) / 2
            try:
                env = rhs_envelope(geom, k_mid)
            except DirichletPointError:
                continue
            value = abs(dispersion(geom, coupling, k_mid))
            assert value > env.upper or value < env.lower

    def test_under_resolution_warning(self):
        report = scan_spectrum(HexGeometry(1, 2, 3), KIRCHHOFF, 1.0, 2.0, 2, 1e-6)
        assert report.meta["may_miss_narrow_features"] is True
        assert report.meta["warnings"]

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
        # scan's own grid lo + i*h, and a flagged sample is a row of NaNs
        report = scan_spectrum(geom, VertexCoupling(alpha), k_lo, k_hi, n_samples, 1e-9,
                               dirichlet_tol=tol)
        h = (k_hi - k_lo) / (n_samples - 1)
        expected = []
        for i in range(n_samples):
            k = k_hi if i == n_samples - 1 else k_lo + i * h
            try:
                d, lower, upper = positive_terms(geom, alpha, k, tol)
                value, lower = abs(d), max(0.0, lower)
                decision = "band" if lower <= value <= upper else "gap"
                expected.append(SampleRow(k, k * k, value, lower, upper, decision))
            except DirichletPointError:
                expected.append(SampleRow(k, k * k, math.nan, math.nan, math.nan, "dirichlet"))
        assert 0 < sum(row.decision == "dirichlet" for row in expected) < n_samples
        assert [tuple(map(repr, row)) for row in report.samples] == \
            [tuple(map(repr, row)) for row in expected]

    def test_fine_grid_not_flagged(self):
        report = scan_spectrum(EQUILATERAL, KIRCHHOFF, 1.0, 2.0, 200, 1e-6)
        assert report.meta["may_miss_narrow_features"] is False

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
        # a ValueError, never a ZeroDivisionError from the default window start
        with pytest.raises(ValueError):
            scan(lo, hi, n_samples, edge_tol)

    def test_edge_tol_below_double_spacing_terminates(self):
        # doubles near k = 250 are ~6e-14 apart, wider than edge_tol
        geom = HexGeometry((1 + math.sqrt(5)) / 2, 1, 1)
        fine = scan_spectrum(geom, VertexCoupling(20.0), 250.0, 300.0, 2000, 1e-14)
        coarse = scan_spectrum(geom, VertexCoupling(20.0), 250.0, 300.0, 2000, 1e-9)
        assert len(fine.gaps) == len(coarse.gaps) >= 1
        for (lo, hi), (lo_c, hi_c) in zip(fine.gaps, coarse.gaps):
            assert math.sqrt(lo) == pytest.approx(math.sqrt(lo_c), abs=1e-9)
            assert math.sqrt(hi) == pytest.approx(math.sqrt(hi_c), abs=1e-9)

    def test_narrow_band_right_of_dirichlet_zone_at_large_k(self):
        # At k ~ 1e6 the default tolerance flags about +-1e-3 around each
        # Dirichlet point; a band about 1.3e-3 wide starts where the zone
        # ends, narrower than the grid spacing of 2.5e-3.
        geom = HexGeometry((1 + math.sqrt(5)) / 2, 1, math.sqrt(2))
        coupling = VertexCoupling(3107703.0)
        k = 1004700.2205
        assert band_membership(geom, coupling, EnergyPoint.positive(k)).kind is Decision.BAND
        report = scan_spectrum(geom, coupling, 1004692.43, 1004702.43, 4000, 1e-6)
        assert any(lo <= k * k <= hi for lo, hi in report.bands)
        assert not any(lo < k * k < hi for lo, hi in report.gaps)

    def test_window_ending_on_dirichlet_point_keeps_its_band(self):
        # 10*pi is a Dirichlet point of every edge and the gap opens to its
        # right, outside the window: the last sample keeps the band on its left
        k_hi = 10 * math.pi
        report = scan_spectrum(EQUILATERAL, VertexCoupling(1.0), 5.0, k_hi, 4000, 1e-9)
        assert report.bands[-1][1] == pytest.approx(k_hi**2, rel=1e-15)
        assert not any(math.sqrt(lo) > k_hi - 1e-6 for lo, _ in report.gaps)

    def test_flat_bands_and_dirichlet_points_reported(self):
        report = scan_spectrum(HexGeometry(1, 2, 3), KIRCHHOFF, 0.5, 14.0, 2000, 1e-9)
        ks = [fb.k for fb in report.flat_bands]
        assert ks == pytest.approx([2 * math.pi, 4 * math.pi])
        assert math.pi**2 in [pytest.approx(e) for e in report.dirichlet_points]
        # flat-band energies coincide with full Dirichlet points
        for fb in report.flat_bands:
            for ell in (1, 2, 3):
                assert abs(math.sin(ell * fb.k)) < 1e-9 * max(1, ell * fb.k)


def _intervals(report):
    """(k_lo, k_hi, state) of every band and gap, ascending."""
    items = [(lo, hi, "band") for lo, hi in report.bands]
    items += [(lo, hi, "gap") for lo, hi in report.gaps]
    return [(math.sqrt(lo), math.sqrt(hi), state) for lo, hi, state in sorted(items)]


class TestDirichletEdges:
    """Membership is decided at the Dirichlet points themselves, with no tolerance."""

    def test_readme_equilateral_edges_sit_on_dirichlet_points(self):
        # bands --a 1 --b 1 --c 1 --alpha 3 --kmax 31.4: a gap opens right of every m*pi
        report = scan_spectrum(EQUILATERAL, VertexCoupling(3.0), 0.01, 31.4, 4000, 1e-9)
        edges = [k for lo, hi, _ in _intervals(report) for k in (lo, hi)]
        for m in range(1, 10):
            assert min(abs(k - m * math.pi) for k in edges) <= 1e-9

    def test_intervals_do_not_depend_on_the_dirichlet_tolerance(self):
        geom = HexGeometry((1 + math.sqrt(5)) / 2, 1, 1)
        reports = [scan_spectrum(geom, VertexCoupling(-20.0), 0.01, 120.0, 4000, 1e-9,
                                 dirichlet_tol=tol) for tol in (1e-9, 1e-6, 1e-3, 2.0)]
        assert reports[0].gaps
        for report in reports[1:]:
            assert (report.bands, report.gaps) == (reports[0].bands, reports[0].gaps)
        # a tolerance of 2 flags every sample row, and still decides every interval
        assert {row.decision for row in reports[-1].samples} == {"dirichlet"}

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
        report = scan_spectrum(geom, VertexCoupling(alpha), k_lo, k_hi, 4000, 1e-9)
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


def _hashed_gap(x):
    """A fixed but arbitrary gap flag for every double x."""
    return hashlib.blake2b(struct.pack("<d", x), digest_size=1).digest()[0] & 1 == 1


def _lockstep_runs(xs, gaps, is_gap, edge_tol):
    """:func:`_intervals_from_runs` on ``is_gap`` mapped over arrays, and the
    size of each array it asked for."""
    sizes = []

    def gaps_at(points):
        sizes.append(points.size)
        return np.array([is_gap(x) for x in points.tolist()], dtype=bool)

    return _intervals_from_runs(np.array(xs), np.array(gaps), gaps_at, edge_tol), sizes


class TestLockstepRefinement:
    """Bisecting every edge at once gives the doubles of one bisection per edge."""

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
        changes = sum(a != b for a, b in zip(gaps, gaps[1:]))
        assert sorted(sizes, reverse=True) == sizes and all(0 < n <= changes for n in sizes)

    def test_brackets_shrink_to_adjacent_doubles(self):
        # doubles near k = 1e6 are ~1.2e-10 apart, far wider than edge_tol
        rng = random.Random(3)
        xs = (1e6 + np.arange(400) * 2.5e-3).tolist()
        gaps = [rng.random() < 0.5 for _ in xs]
        runs, sizes = _lockstep_runs(xs, gaps, _hashed_gap, 1e-14)
        assert runs == _reference_runs(xs, gaps, _hashed_gap, 1e-14)
        # the width test never stops a bracket: each stops once its midpoint
        # repeats an end, after about log2(spacing / ulp) steps
        steps = math.log2(2.5e-3 / math.ulp(1e6))
        assert math.floor(steps) <= len(sizes) <= math.ceil(steps) + 1

    def test_a_bracket_as_wide_as_edge_tol_stops(self):
        # power-of-two widths: after 11 halvings of 0.5 each bracket is exactly 2**-12 wide
        xs, gaps = [1.0, 1.5, 2.0, 2.5], [False, True, False, True]
        runs, sizes = _lockstep_runs(xs, gaps, _hashed_gap, 2.0**-12)
        assert runs == _reference_runs(xs, gaps, _hashed_gap, 2.0**-12)
        assert sizes == [3] * 11

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
        "geom, alpha, k_lo, k_hi, n_samples, edge_tol",
        [
            (HexGeometry((1 + math.sqrt(5)) / 2, 1, 1), -47.5, 0.01, 120.0, 1500, 1e-9),
            (HexGeometry(0.5, 1.5, 1.0), 3.5, 2 * math.pi, 22 * math.pi, 801, 1e-12),
            (HexGeometry((1 + math.sqrt(5)) / 2, 1, math.sqrt(2)), 3107703.0,
             1004692.43, 1004702.43, 4000, 1e-14),
        ],
        ids=["golden-bc", "dirichlet-ends", "large-k"],
    )
    def test_positive_scans_equal_the_scalar_criteria_bisection(self, geom, alpha, k_lo, k_hi,
                                                                n_samples, edge_tol):
        xs = np.linspace(k_lo, k_hi, n_samples)
        _, gaps = _positive_rows(geom, alpha, xs, 1e-9)
        runs = _intervals_from_runs(xs, gaps, lambda ks: _positive_gaps(geom, alpha, ks),
                                    edge_tol)

        def is_gap(k):
            return any(gap_criteria(geom, alpha, k))

        assert len(runs) >= 3
        assert runs == _reference_runs(xs.tolist(), gaps.tolist(), is_gap, edge_tol)

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
            """The four boundary functions' sign tests from the point kernel."""
            d, lower, upper = _negative_terms(geom, alpha, kappa)
            return [d - upper > 0, d + upper >= 0, d - lower >= 0, d + lower > 0]

        rows = [signs(kappa) for kappa in kappas.tolist()]
        for (past1, past2, past3, past4), kappa in zip(rows, kappas.tolist()):
            band = band_membership(geom, VertexCoupling(alpha), EnergyPoint.negative(kappa))
            assert (band.kind is Decision.BAND) == (not past1 and past2 and (past3 or not past4))
        columns = _negative_terms_grid(geom, alpha, kappas)
        assert _negative_past(*columns).T.tolist() == rows
        expected = []
        for i in range(4):
            row = [signs_at[i] for signs_at in rows]
            if row[0] or not any(row):
                expected.append(-math.inf if row[0] else math.inf)
                continue
            lo, hi = kappas[row.index(True) - 1], kappas[row.index(True)]
            while hi - lo > edge_tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                if signs(mid)[i]:
                    hi = mid
                else:
                    lo = mid
            expected.append(0.5 * (lo + hi))
        roots = _negative_roots(geom, alpha, kappas, columns, edge_tol)
        assert _bits(roots) == _bits(expected)
        assert sum(math.isfinite(root) for root in roots) >= 2


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
        report = negative_spectrum_scan(EQUILATERAL, VertexCoupling(1.0), 5.0, 400, 1e-9)
        assert report.bands == []
        assert len(report.gaps) == 1

    def test_strong_coupling_gap_adjacent_to_zero(self):
        report = negative_spectrum_scan(
            EQUILATERAL, VertexCoupling(-6.5), 5.0, 1500, 1e-9, kappa_lo=1e-4
        )
        assert report.gap_adjacent_to_zero()
        assert report.bands  # the negative spectrum itself is nonempty

    def test_short_edge_window_gap(self):
        report = negative_spectrum_scan(
            HexGeometry(1, 3, 3), VertexCoupling(-1.5), 5.0, 1500, 1e-9, kappa_lo=1e-4
        )
        assert report.gap_adjacent_to_zero()

    def test_rows_equal_the_dispersion_and_envelope(self):
        # kappa reaches past 700/l, where 1/sinh is taken as 0
        geom, coupling = HexGeometry(1, 3, 0.7), VertexCoupling(-6.5)
        report = negative_spectrum_scan(geom, coupling, 300.0, 800, 1e-9, kappa_lo=1e-3)
        for row in report.samples:
            kappa = row.k
            inv = [inv_sinh(ell * kappa) for ell in geom.lengths]
            upper = sum(inv)
            lower = max(0.0, 2 * inv_sinh(geom.ell_min * kappa) - upper)
            value = abs(dispersion_negative(geom, coupling, kappa))
            assert (row.energy, row.abs_dispersion, row.lower, row.upper) == \
                (-kappa * kappa, value, lower, upper)
            assert row.decision == ("band" if lower <= value <= upper else "gap")

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3), st.floats(-2.0, 2.47),
           st.floats(0.1, 1.0))
    def test_a_coarse_scan_finds_every_band_of_a_fine_one(self, lengths, log_alpha, ratio):
        # alpha from -0.01 to -300; for large l*kappa the bands sit near kappa = |alpha|/3
        # and narrow exponentially, so the window reaches a fraction of |alpha|
        alpha = -10.0**log_alpha
        geom, coupling = HexGeometry(*lengths), VertexCoupling(alpha)
        coarse, fine = (negative_spectrum_scan(geom, coupling, max(ratio * -alpha, 0.01),
                                               n_samples, 1e-12, kappa_lo=1e-3)
                        for n_samples in (400, 60_000))
        for band in fine.bands:
            assert any(band == pytest.approx(other, rel=1e-8) for other in coarse.bands)

    def test_energies_increase(self):
        report = negative_spectrum_scan(
            EQUILATERAL, VertexCoupling(-6.5), 5.0, 800, 1e-9, kappa_lo=1e-3
        )
        intervals = sorted(report.bands + report.gaps)
        assert intervals == sorted(intervals)
        assert all(hi <= 0 for _, hi in intervals)
        flat = [e for pair in intervals for e in pair]
        assert flat == sorted(flat)


class TestKnownMiss:
    """The GC1 gap at k = 89*pi, 7.5e-3 wide, on (phi, 1, 1) with alpha = 6."""

    GEOM, COUPLING = HexGeometry((1 + math.sqrt(5)) / 2, 1, 1), VertexCoupling(6.0)
    GAP = (279.60175, 279.60924)

    def test_a_local_scan_finds_the_gap(self):
        report = scan_spectrum(self.GEOM, self.COUPLING, 279.0, 280.2, 4000, 1e-9)
        [(lo, hi)] = [(math.sqrt(lo), math.sqrt(hi)) for lo, hi in report.gaps]
        assert (lo, hi) == pytest.approx(self.GAP, abs=1e-5)

    @pytest.mark.xfail(strict=True, reason="the default grid misses a gap narrower than its "
                       "spacing and still reports may_miss_narrow_features false; the sub-cell "
                       "edge engine of ROADMAP item 2 is to find it")
    def test_the_default_window_finds_the_gap(self):
        # bands --a '(1+sqrt(5))/2' --b 1 --c 1 --alpha 6 --kmax 280.6017
        report = scan_spectrum(self.GEOM, self.COUPLING, 0.01, 280.6017, 4000, 1e-9)
        lo, hi = self.GAP
        assert any(e_lo < hi * hi and lo * lo < e_hi for e_lo, e_hi in report.gaps)


class TestKnownNegativeMiss:
    """The negative band at kappa = 4.645407, 7.2e-6 wide, on (0.2, 3, 5) with alpha = -20."""

    GEOM, COUPLING = HexGeometry(0.2, 3, 5), VertexCoupling(-20.0)
    KAPPA = 4.645407

    def test_the_point_is_in_a_band(self):
        decision = band_membership(self.GEOM, self.COUPLING, EnergyPoint.negative(self.KAPPA))
        assert decision.kind is Decision.BAND

    def test_the_scan_finds_the_band(self):
        # bands --a 0.2 --b 3 --c 5 --alpha -20 --kmax 1 --include-negative --kappa-max 5
        report = negative_spectrum_scan(self.GEOM, self.COUPLING, 5.0, 4000, 1e-9)
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
    @given(st.floats(0.05, 20.0), st.floats(0.01, 1e4), st.floats(0.01, 50.0),
           st.integers(50, 2000))
    def test_a_scan_has_no_gaps(self, ell, k_lo, width, n_samples):
        report = scan_spectrum(HexGeometry(ell, ell, ell), KIRCHHOFF, k_lo, k_lo + width,
                               n_samples, 1e-9)
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


class TestVerifyFlatBand:
    def test_exact_construction_for_commensurate_lengths(self):
        assert verify_flat_band(EQUILATERAL, 2 * math.pi) <= 1e-12
        assert verify_flat_band(HexGeometry(1, 2, 3), 2 * math.pi) <= 1e-12
        assert verify_flat_band(HexGeometry(1, 2, 3), 4 * math.pi) <= 1e-12

    def test_coupling_does_not_break_exact_construction(self):
        assert verify_flat_band(EQUILATERAL, 2 * math.pi, VertexCoupling(7.5)) <= 1e-11

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
