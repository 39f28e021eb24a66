import math
import random
from fractions import Fraction

import pytest

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
from hexband.bands import _safe_is_gap
from hexband.core import DirichletPointError
from hexband.numtheory import CommensurabilityWitness
from hexband.report import SampleRow
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

    def test_probe_stops_at_window_end(self):
        def zone_from_three_to_five(x):
            if 3.0 <= x < 5.0:
                raise DirichletPointError(x, ("c",))
            return SampleRow(x, x * x, 2.0, 0.0, 1.0, Decision.GAP.value)

        assert _safe_is_gap(zone_from_three_to_five, 1e-9)(3.5)
        with pytest.raises(DirichletPointError) as info:
            _safe_is_gap(zone_from_three_to_five, 1e-9, 4.0)(3.5)
        assert info.value.edges == ("c",)

    def test_probe_error_names_the_vanishing_edges(self):
        def always_flagged(x):
            raise DirichletPointError(x, ("b",))

        with pytest.raises(DirichletPointError) as info:
            _safe_is_gap(always_flagged, 1e-9)(2.0)
        assert info.value.edges == ("b",)

    def test_flat_bands_and_dirichlet_points_reported(self):
        report = scan_spectrum(HexGeometry(1, 2, 3), KIRCHHOFF, 0.5, 14.0, 2000, 1e-9)
        ks = [fb.k for fb in report.flat_bands]
        assert ks == pytest.approx([2 * math.pi, 4 * math.pi])
        assert math.pi**2 in [pytest.approx(e) for e in report.dirichlet_points]
        # flat-band energies coincide with full Dirichlet points
        for fb in report.flat_bands:
            for ell in (1, 2, 3):
                assert abs(math.sin(ell * fb.k)) < 1e-9 * max(1, ell * fb.k)


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

    def test_energies_increase(self):
        report = negative_spectrum_scan(
            EQUILATERAL, VertexCoupling(-6.5), 5.0, 800, 1e-9, kappa_lo=1e-3
        )
        intervals = sorted(report.bands + report.gaps)
        assert intervals == sorted(intervals)
        assert all(hi <= 0 for _, hi in intervals)
        flat = [e for pair in intervals for e in pair]
        assert flat == sorted(flat)


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
