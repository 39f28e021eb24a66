import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from hexband import (
    Decision,
    EnergyPoint,
    HexGeometry,
    VertexCoupling,
    band_membership,
    classify_ratio,
    gap_diagnostics_bc,
    gc1,
    gc1_tangent_form,
    gc2,
    gc2_equivalent_bc,
    gc_negative,
    negative_spectrum_scan,
    predicted_gap_centers,
    scan_spectrum,
    thresholds_bc,
)
from hexband.core import DirichletPointError, _flag_sines
from hexband.gaps import _edge_tangent
from hexband.numtheory import ExactRatio, QuadraticSurd, RatioClass, RatioClassKind

EQUILATERAL = HexGeometry(1, 1, 1)
GOLDEN = QuadraticSurd(1, 2, 5)


class TestGC1:
    def test_kirchhoff_never_opens_gaps(self):
        rng = random.Random(3)
        for _ in range(100):
            k = rng.uniform(0.1, 30)
            if abs(math.sin(k)) < 1e-3:
                continue
            assert not gc1(EQUILATERAL, VertexCoupling(0.0), k)

    def test_open_gap_right_of_full_dirichlet_point(self):
        assert gc1(EQUILATERAL, VertexCoupling(3.0), 2 * math.pi + 0.1)

    def test_no_gap_at_band_center(self):
        assert not gc1(EQUILATERAL, VertexCoupling(3.0), math.pi / 2)

    def test_dirichlet_error(self):
        with pytest.raises(DirichletPointError):
            gc1(EQUILATERAL, VertexCoupling(1.0), math.pi)


class TestGC2:
    def test_equal_lengths_never(self):
        rng = random.Random(4)
        for _ in range(100):
            k = rng.uniform(0.1, 30)
            if abs(math.sin(k)) < 1e-3:
                continue
            assert not gc2(EQUILATERAL, VertexCoupling(rng.uniform(-5, 5)), k)

    def test_kirchhoff_never(self):
        rng = random.Random(5)
        for _ in range(200):
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            k = rng.uniform(0.1, 30)
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 1e-3:
                continue
            assert not gc2(geom, VertexCoupling(0.0), k)

    def test_stretched_lattice_instance(self):
        assert gc2(HexGeometry(2, 1, 1), VertexCoupling(4.0), math.pi / 2 - 0.02)


class TestGC1TangentForm:
    def test_matches_direct_form_on_domain(self):
        rng = random.Random(6)
        checked = 0
        while checked < 500:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            alpha = rng.uniform(-5, 5)
            k = rng.uniform(abs(alpha) + 1e-9, 30 + abs(alpha))
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 1e-4:
                continue
            coupling = VertexCoupling(alpha)
            assert gc1_tangent_form(geom, coupling, k) == gc1(geom, coupling, k)
            checked += 1

    def test_example_point(self):
        assert gc1_tangent_form(EQUILATERAL, VertexCoupling(3.0), 2 * math.pi + 0.1)

    def test_kirchhoff_false(self):
        assert not gc1_tangent_form(EQUILATERAL, VertexCoupling(0.0), 1.3)

    def test_domain_error_below_coupling(self):
        with pytest.raises(ValueError, match="tangent form requires"):
            gc1_tangent_form(EQUILATERAL, VertexCoupling(3.0), 2.0)


def tangent_sum(geom, k):
    """The three edges' tangent margins summed, from the margin that
    :func:`gc1_tangent_form` and :func:`gap_diagnostics_bc` use."""
    sines, cosines, _ = _flag_sines(k, geom.lengths)
    return sum(map(_edge_tangent, sines, cosines))


class TestTangentSum:
    def test_vanishes_at_full_commensurate_points(self):
        assert tangent_sum(EQUILATERAL, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_equilateral_value(self):
        got = tangent_sum(EQUILATERAL, 2 * math.pi + 0.1)
        assert got == pytest.approx(3 * abs(math.tan(0.05)), rel=1e-10)
        assert got == pytest.approx(0.15012512512661638, rel=1e-10)

    def test_bc_weighting_equals_three_term_sum_when_b_equals_c(self):
        rng = random.Random(8)
        for _ in range(50):
            a, b, k = rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.1, 20)
            assert gap_diagnostics_bc(a, b, k).tangent_sum == pytest.approx(
                tangent_sum(HexGeometry(a, b, b), k), rel=1e-12, abs=1e-12
            )

    def test_deep_minima_sit_at_dirichlet_fractions(self):
        # Local minima with small values (the ones that admit gap opening)
        # all lie at points m*pi/l.  Shallow smooth interior minima (value
        # around 1.77 for lengths 1,2,3) also exist and are excluded here.
        geom = HexGeometry(1, 2, 3)
        n = 200000
        h = 10 * math.pi / n
        ks = [0.02 + i * h for i in range(n)]
        values = [tangent_sum(geom, k) for k in ks]
        candidates = []
        for ell in (1, 2, 3):
            m = 1
            while m * math.pi / ell <= 10 * math.pi + 0.1:
                candidates.append(m * math.pi / ell)
                m += 1
        for i in range(1, n - 1):
            if values[i] <= values[i - 1] and values[i] <= values[i + 1] and values[i] < 1.0:
                assert min(abs(ks[i] - c) for c in candidates) < 2 * h

    def test_full_dirichlet_points_are_global_minima(self):
        geom = HexGeometry(1, 2, 3)
        for m in range(1, 10):
            k = m * math.pi
            assert tangent_sum(geom, k) == pytest.approx(0.0, abs=1e-9)
            assert tangent_sum(geom, k + 0.01) > 1e-3
            assert tangent_sum(geom, k - 0.01) > 1e-3


LENGTH = st.one_of(st.sampled_from([1.0, (1 + math.sqrt(5)) / 2, math.sqrt(2), 0.2, 5.0]),
                   st.floats(0.05, 20.0))


def _mp_margin(x: float) -> tuple[float, float]:
    """1/|sin x| - |cot x| and |sin x| at 40 digits, for the double x."""
    with mp.workdps(40):
        s, c = mp.sin(mp.mpf(x)), mp.cos(mp.mpf(x))
        return float(1 / abs(s) - abs(c / s)), float(abs(s))


class TestOneTrigRoute:
    """The tangent margins come from the one Dirichlet guard's libm sines and
    cosines: no fold of x/pi and no math.tan, and full precision at large k."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(LENGTH, LENGTH, LENGTH), st.floats(0.0, 8.0))
    def test_matches_high_precision_up_to_1e8(self, lengths, log_k):
        k = 10.0**log_k
        terms, sines = zip(*(_mp_margin(ell * k) for ell in lengths))
        assume(min(sines) >= 1e-5)
        t_a, t_b, _ = terms
        a, b = lengths[:2]

        def close(got, want, scale):
            assert abs(got - want) <= 1e-10 * scale, (got, want)

        close(tangent_sum(HexGeometry(*lengths), k), sum(terms), sum(terms))
        close(tangent_sum(HexGeometry(a, b, b), k), t_a + 2 * t_b, t_a + 2 * t_b)
        if any(_flag_sines(k, (a, b))[2]):
            with pytest.raises(DirichletPointError):
                gap_diagnostics_bc(a, b, k)
        else:
            diag = gap_diagnostics_bc(a, b, k)
            close(diag.tangent_sum, t_a + 2 * t_b, t_a + 2 * t_b)
            close(diag.tangent_margin, 2 * t_b - t_a, 2 * t_b + t_a)

    def test_no_fold_and_no_tan(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a second trigonometric route")

        monkeypatch.setattr(math, "tan", forbidden)
        k = 2 * math.pi + 0.1
        assert gc1_tangent_form(EQUILATERAL, VertexCoupling(3.0), k)
        assert tangent_sum(EQUILATERAL, k) > 0
        diag = gap_diagnostics_bc(1.3, 1.0, k)
        assert diag.tangent_sum > 0 and diag.tangent_margin != 0


class TestCotDominance:
    def test_balanced(self):
        assert gap_diagnostics_bc(1, 1, math.pi / 2).cot_dominance == pytest.approx(0.0, abs=1e-12)

    def test_dominant_a_edge(self):
        got = gap_diagnostics_bc(2, 1, math.pi / 2 - 0.05).cot_dominance
        expected = 1 / math.tan(0.1) - 2 * math.tan(0.05)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(9.86656100650816, rel=1e-10)

    def test_negative_value(self):
        got = gap_diagnostics_bc(1, 1, math.pi / 4).cot_dominance
        assert got == pytest.approx(-1.0, rel=1e-12)

    def test_dirichlet_error(self):
        with pytest.raises(DirichletPointError):
            gap_diagnostics_bc(1, 2, math.pi / 2)  # sin(2k) = 0


class TestGC2EquivalentBC:
    def test_reference_true_instance(self):
        k = math.pi / 2 - 0.02
        coupling = VertexCoupling(4.0)
        assert gc2_equivalent_bc(2, 1, coupling, k)
        assert gc2(HexGeometry(2, 1, 1), coupling, k)

    def test_sign_condition_fails_for_opposite_coupling(self):
        assert not gc2_equivalent_bc(2, 1, VertexCoupling(-4.0), math.pi / 2 - 0.02)

    def test_equal_lengths_false(self):
        rng = random.Random(9)
        for _ in range(50):
            k = rng.uniform(0.1, 20)
            if abs(math.sin(k)) < 1e-3:
                continue
            assert not gc2_equivalent_bc(1, 1, VertexCoupling(rng.uniform(-5, 5)), k)

    def test_equivalence_on_large_k_domain(self):
        rng = random.Random(10)
        checked = 0
        while checked < 400:
            a, b = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
            alpha = rng.uniform(-4, 4)
            k = rng.uniform(abs(alpha) + 1e-6, abs(alpha) + 25)
            if abs(math.sin(a * k)) < 1e-4 or abs(math.sin(b * k)) < 1e-4:
                continue
            coupling = VertexCoupling(alpha)
            assert gc2_equivalent_bc(a, b, coupling, k) == gc2(
                HexGeometry(a, b, b), coupling, k
            )
            checked += 1

    def test_four_conditions_are_sufficient_below_domain(self):
        # sufficiency holds for every k > 0, not only k > |alpha|
        rng = random.Random(11)
        found = 0
        for _ in range(30000):
            a, b = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
            alpha = rng.uniform(-6, 6)
            k = rng.uniform(0.05, abs(alpha))  # below the equivalence domain
            if k <= 0 or abs(math.sin(a * k)) < 1e-4 or abs(math.sin(b * k)) < 1e-4:
                continue
            coupling = VertexCoupling(alpha)
            if gc2_equivalent_bc(a, b, coupling, k):
                assert gc2(HexGeometry(a, b, b), coupling, k)
                found += 1
        assert found >= 5

    def test_necessity_of_dominance_and_sign(self):
        # whenever the direct criterion fires with k > |alpha|, the dominant
        # inverse sine exceeds the sum of the others and the matching
        # alpha*cot term is negative
        rng = random.Random(12)
        found = 0
        while found < 40:
            a, b = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
            alpha = rng.choice([-1, 1]) * rng.uniform(2, 6)
            k = rng.uniform(abs(alpha) + 1e-6, abs(alpha) + 25)
            geom = HexGeometry(a, b, b)
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 1e-4:
                continue
            coupling = VertexCoupling(alpha)
            if not gc2(geom, coupling, k):
                continue
            inv = [1 / abs(math.sin(l * k)) for l in geom.lengths]
            dominant = max(range(3), key=lambda i: inv[i])
            assert inv[dominant] > sum(inv) - inv[dominant]
            ell = geom.lengths[dominant]
            cot = math.cos(ell * k) / math.sin(ell * k)
            assert alpha * cot < 0
            found += 1


def test_sqrt_one_less_inequality():
    # x1 > sum(x_i) with all x_i >= 1 forces
    # x1 - sum(x_i) < sqrt(x1^2 - 1) - sum(sqrt(x_i^2 - 1))
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(2, 6)
        rest = [rng.uniform(1.0, 3.0) for _ in range(n - 1)]
        x1 = sum(rest) + rng.uniform(0.01, 2.0)
        lhs = x1 - sum(rest)
        rhs = math.sqrt(x1**2 - 1) - sum(math.sqrt(x**2 - 1) for x in rest)
        assert rhs - lhs > -1e-12
        assert rhs > lhs or math.isclose(rhs, lhs, abs_tol=1e-12)


class TestTangentMargin:
    def test_weighted_margin_can_be_negative(self):
        # just past k = pi the b-term is tan(delta/2) and the a-term tan((0.3*pi + 1.3*delta)/2)
        delta = 1e-6
        value = gap_diagnostics_bc(1.3, 1.0, math.pi + delta).tangent_margin
        expected = 2 * math.tan(delta / 2) - math.tan((0.3 * math.pi + 1.3 * delta) / 2)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value < 0

    def test_diagnostics_bundle(self):
        k = math.pi / 2 - 0.02
        diag = gap_diagnostics_bc(2, 1, k)
        cot_a, cot_b = (1 / math.tan(x) for x in (2 * k, k))
        t_a, t_b = 1 / abs(math.sin(2 * k)) - abs(cot_a), 1 / abs(math.sin(k)) - abs(cot_b)
        assert diag.tangent_sum == pytest.approx(t_a + 2 * t_b)
        assert diag.cot_dominance == pytest.approx(abs(cot_a) - 2 * abs(cot_b))
        assert diag.tangent_margin == pytest.approx(2 * t_b - t_a)


class TestGCNegative:
    def test_strong_coupling_small_kappa(self):
        assert gc_negative(EQUILATERAL, VertexCoupling(-6.5), 1e-3) == (True, False)

    def test_short_edge_window_small_kappa(self):
        assert gc_negative(HexGeometry(1, 3, 3), VertexCoupling(-1.5), 1e-3) == (False, True)

    def test_kirchhoff_negative_axis_is_all_gap(self):
        # coth x > 1/sinh x pointwise, so the upper criterion always fires
        for kappa in (1e-3, 0.1, 1.0, 5.0):
            assert gc_negative(EQUILATERAL, VertexCoupling(0.0), kappa) == (True, False)


@st.composite
def _gap_at_zero_case(draw):
    """Edge lengths, and an alpha of either sign scaled to the strong-coupling
    threshold 2/a + 2/b + 2/c, so that every class of the classification shows."""
    lengths = [draw(st.floats(0.05, 20.0)) for _ in range(3)]
    return lengths, -draw(st.floats(-1.0, 2.0)) * 2 * sum(1 / ell for ell in lengths)


def _gap_at_zero(geom, alpha):
    report = negative_spectrum_scan(geom, VertexCoupling(alpha), 1e-5, 1.0, 1e-12)
    return report.gap_adjacent_to_zero()


class TestNegativeGapAtZero:
    """Whether the negative scan opens a gap adjacent to E = 0 from below."""

    def test_strong_coupling(self):
        assert _gap_at_zero(EQUILATERAL, -6.5)  # |alpha| > 2/a + 2/b + 2/c = 6

    def test_short_edge_window(self):
        assert _gap_at_zero(HexGeometry(1, 3, 3), -1.5)  # 4/3 < |alpha| < 2/l_min = 2

    def test_no_gap_below_threshold(self):
        assert not _gap_at_zero(EQUILATERAL, -5.5)

    def test_window_boundaries(self):
        geom = HexGeometry(1, 3, 3)  # window is (4/3, 2)
        assert not _gap_at_zero(geom, -1.2)
        assert not _gap_at_zero(geom, -2.2)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_gap_at_zero_case())
    # alpha >= 0: no negative spectrum, even where |alpha| > 2/a + 2/b + 2/c
    @example(([1.0, 1.0, 1.0], 0.0))
    @example(([1.0, 1.0, 1.0], 1.0))
    @example(([1.0, 1.0, 1.0], 6.5))
    @example(([1.0, 3.0, 3.0], -1.5))
    def test_classes_follow_the_small_kappa_limits(self, case):
        # kappa times D - upper, D + upper, D - lower and D + lower tends to
        # these as kappa -> 0; l_j is the shortest edge.  A gap borders zero
        # with no negative spectrum (alpha >= 0), under strong coupling, or
        # in the short-edge window
        lengths, alpha = case
        geom = HexGeometry(*lengths)
        inv = [1 / ell for ell in lengths]
        j = lengths.index(geom.ell_min)
        limits = [alpha, alpha + 2 * sum(inv), alpha + 2 * (sum(inv) - inv[j]), alpha + 2 * inv[j]]
        assume(alpha >= 0 or min(map(abs, limits)) > 1e-6)
        expected = limits[0] >= 0 or limits[1] < 0 or limits[2] < 0 < limits[3]
        assert _gap_at_zero(geom, alpha) == expected


class TestMutualExclusionAndSoundness:
    def test_gc1_gc2_never_both(self):
        rng = random.Random(14)
        for _ in range(500):
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            coupling = VertexCoupling(rng.uniform(-6, 6))
            k = rng.uniform(0.1, 30)
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 1e-4:
                continue
            assert not (gc1(geom, coupling, k) and gc2(geom, coupling, k))

    def test_gap_iff_gc1_or_gc2(self):
        rng = random.Random(15)
        checked = 0
        while checked < 400:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            coupling = VertexCoupling(rng.uniform(-6, 6))
            k = rng.uniform(0.1, 30)
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 1e-4:
                continue
            in_gap = band_membership(geom, coupling, EnergyPoint.positive(k)).kind is Decision.GAP
            assert in_gap == (gc1(geom, coupling, k) or gc2(geom, coupling, k))
            checked += 1


class TestThresholds:
    def test_golden_ratio_values(self):
        ratio_class = classify_ratio(GOLDEN)
        gamma = 1 / math.sqrt(5)
        report = thresholds_bc(GOLDEN.value(), 1.0, ratio_class, gamma_estimate=gamma)
        assert report.gc1_guarantee == pytest.approx(4 * math.pi / math.sqrt(5), rel=1e-12)
        assert report.gc1_guarantee == pytest.approx(5.6199, abs=1e-4)
        assert report.gc1_nogap_bound == pytest.approx(math.pi**2 / (2 * math.sqrt(5)), rel=1e-12)
        assert report.gc1_nogap_bound == pytest.approx(2.2070, abs=1e-3)
        assert report.gc2_guarantee == pytest.approx(
            4 * math.pi / (math.sqrt(5) * GOLDEN.value()), rel=1e-12
        )
        assert report.extras["gc1_guarantee_derivation_variant"] == pytest.approx(
            report.gc1_guarantee / 2, rel=1e-12
        )

    def test_rational_case_records_dominance_floor(self):
        ratio_class = classify_ratio(ExactRatio(1, 1))
        report = thresholds_bc(1.0, 1.0, ratio_class)
        assert report.gc1_nogap_bound == 0.0
        assert report.gc2_nogap_bound == 0.0
        expected = 9 * math.pi / (2 * (6 + math.pi))
        assert report.extras["gc2_dominance_floor"] == pytest.approx(expected, rel=1e-12)
        assert report.extras["gc2_dominance_floor"] == pytest.approx(1.5465, abs=1e-3)

    def test_badly_approximable_needs_gamma(self):
        bare = RatioClass(RatioClassKind.BADLY_APPROXIMABLE, certified=False)
        with pytest.raises(ValueError, match="gamma"):
            thresholds_bc(1.0, 1.0, bare)

    def test_nogap_bounds_never_exceed_guarantees(self):
        rng = random.Random(16)
        ratio_class = classify_ratio(GOLDEN)
        for _ in range(100):
            a, b = rng.uniform(0.3, 4), rng.uniform(0.3, 4)
            report = thresholds_bc(a, b, ratio_class, gamma_estimate=1 / math.sqrt(5))
            assert report.gc1_nogap_bound <= report.gc1_guarantee
            assert report.gc2_nogap_bound <= report.gc2_guarantee


class TestThresholdsAgainstSpectrum:
    """Below gc1_nogap_bound no GC1 gap opens at the family-b centres q*pi;
    3% above it one opens at each.  The bound is sharp on these lattices.
    Below gc2_nogap_bound no GC2 gap opens at the family-a centres q*pi/a;
    3% above gc2_guarantee one opens at each."""

    @pytest.mark.parametrize("theta, bound, centers", [
        (GOLDEN, 2.20691, {1: [34, 89, 233], -1: [21, 55, 144]}),
        (QuadraticSurd(0, 1, 2), 1.74472, {1: [29, 169], -1: [70]}),
    ], ids=["golden", "sqrt2"])
    def test_gc1_nogap_bound_is_the_onset(self, theta, bound, centers):
        a = theta.value()
        nogap = thresholds_bc(a, 1.0, classify_ratio(theta)).gc1_nogap_bound
        assert nogap == pytest.approx(bound, abs=1e-5)
        geom = HexGeometry(a, 1.0, 1.0)
        for sign, qs in centers.items():
            predicted = predicted_gap_centers(theta, ExactRatio(1, 1), sign * nogap, 8)
            assert [c.q for c in predicted if c.family == "b" and 20 < c.q < 300] == qs
            for factor, expected in ((0.995, 0), (1.03, 1)):
                coupling = VertexCoupling(sign * factor * nogap)
                for q in qs:
                    report = scan_spectrum(geom, coupling, q * math.pi - 0.3, q * math.pi + 0.3, 1e-12)
                    mids = [(math.sqrt(lo) + math.sqrt(hi)) / 2 for lo, hi in report.gaps]
                    assert sum(gc1(geom, coupling, k) for k in mids) == expected, (sign, factor, q)

    def test_gc2_bounds_bracket_the_onset(self):
        a = GOLDEN.value()
        thresholds = thresholds_bc(a, 1.0, classify_ratio(GOLDEN))
        assert thresholds.gc2_nogap_bound == pytest.approx(1.28810, abs=1e-5)
        assert thresholds.gc2_guarantee == pytest.approx(3.47326, abs=1e-5)
        geom = HexGeometry(a, 1.0, 1.0)
        for sign, qs in ((1, [34, 89, 233]), (-1, [21, 55, 144])):
            predicted = predicted_gap_centers(GOLDEN, ExactRatio(1, 1), sign, 8)
            assert [c.q for c in predicted if c.family == "a" and 20 < c.q < 300] == qs
            for alpha, expected in ((0.995 * thresholds.gc2_nogap_bound, 0),
                                    (1.03 * thresholds.gc2_guarantee, 1)):
                coupling = VertexCoupling(sign * alpha)
                for q in qs:
                    center = q * math.pi / a
                    report = scan_spectrum(geom, coupling, center - 0.3, center + 0.3, 1e-12)
                    mids = [(math.sqrt(lo) + math.sqrt(hi)) / 2 for lo, hi in report.gaps]
                    assert sum(gc2(geom, coupling, k) for k in mids) == expected, (sign, alpha, q)


class TestDominanceFloorBound:
    def test_equal_lengths_hypothesis_is_empty(self):
        # for a = b the two cotangents coincide, so the sign hypothesis
        # cot(ak) cot(bk) < 0 is unsatisfiable
        k = 0.0005
        while k < 40:
            s = math.sin(k)
            if abs(s) > 1e-9:
                cot = math.cos(k) / s
                assert not (cot * cot < 0)
            k += 0.0021

    def test_one_two_ratio_hypothesis_is_empty(self):
        # |sin 2k| = 2|sin k||cos k| <= 2|sin k| with equality only at
        # Dirichlet points, so |sin(bk)| >= 2|sin(ak)| never holds for
        # (a, b) = (1, 2) away from them
        k = 0.0004
        while k < 40:
            sa, sb = math.sin(k), math.sin(2 * k)
            if abs(sa) > 1e-9 and abs(sb) > 1e-9:
                cond = (math.cos(k) / sa) * (math.cos(2 * k) / sb) < 0 and abs(sb) >= 2 * abs(sa)
                assert not cond
            k += 0.0021

    def test_two_one_ratio_floor(self):
        # nonempty instance: a = 2, b = 1 (p = 2, q = 1); the dominance
        # margin stays above 9*pi/(2*(12 + pi)) on the hypothesis set
        floor = 9 * math.pi / (2 * (6 * 2 + math.pi * 1))
        rng = random.Random(17)
        found = 0
        while found < 1000:
            k = rng.uniform(0.05, 60)
            sa, sb = math.sin(2 * k), math.sin(k)
            if abs(sa) < 1e-9 or abs(sb) < 1e-9:
                continue
            cot_a, cot_b = math.cos(2 * k) / sa, math.cos(k) / sb
            if cot_a * cot_b < 0 and abs(sb) >= 2 * abs(sa):
                assert gap_diagnostics_bc(2, 1, k).cot_dominance >= floor - 1e-9
                found += 1
