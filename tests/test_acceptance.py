"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import random
import time

import numpy as np
import pytest

from hexband import (
    Decision,
    EnergyPoint,
    ExactRatio,
    FloquetPhase,
    HexGeometry,
    QuadraticSurd,
    RatioClassKind,
    VertexCoupling,
    approx_constant,
    assemble_m_matrix,
    classify_ratio,
    commensurability_witness,
    det_m_closed_form,
    flat_band_energies,
    gc1,
    gc1_tangent_form,
    gc2,
    negative_spectrum_scan,
    predicted_gap_centers,
    rhs_envelope,
    scan_spectrum,
    thresholds_bc,
    trig_polynomial_min,
    verify_flat_band,
)
from hexband.oracle import GridSpec, band_membership_grid, det_numeric, rhs_extrema_grid, trig_min_grid

EQUILATERAL = HexGeometry(1, 1, 1)


class _Gate:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{status}: {self.name} ({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded runtime budget"
        return False


def cofactor_det(m):
    """``det_numeric`` of one matrix, passed as one-lane columns."""
    entries = np.array(m.entries, dtype=complex)[..., None]
    re, im = det_numeric(entries.real, entries.imag)
    return complex(re[0], im[0])


def test_criterion_01_determinant_identity():
    with _Gate("criterion 1: closed-form determinant vs cofactor on 1000 tuples", 5):
        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            coupling = VertexCoupling(rng.uniform(-5, 5))
            k = rng.uniform(0.1, 30)
            if abs(math.sin(geom.a * k)) <= 1e-3:
                continue
            phase = FloquetPhase(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            closed = det_m_closed_form(geom, coupling, k, phase)
            direct = cofactor_det(assemble_m_matrix(geom, coupling, k, phase))
            assert abs(closed - direct) / (1 + abs(closed)) <= 1e-9
            checked += 1


def test_criterion_02_envelope_correctness():
    with _Gate("criterion 2: grid extrema bracket the closed-form envelope", 120):
        rng = random.Random(2025)
        grid = GridSpec(n=1024, refine_rounds=2)
        checked = 0
        while checked < 200:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            k = rng.uniform(0.1, 30)
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 0.05:
                continue
            env = rhs_envelope(geom, k)
            lo, hi = rhs_extrema_grid(geom, k, grid)
            assert env.lower**2 - 1e-9 <= lo <= env.lower**2 + 1e-3
            assert env.upper**2 - 1e-3 <= hi <= env.upper**2 + 1e-9
            checked += 1


def test_criterion_03_trig_minimum_both_branches():
    with _Gate("criterion 3: closed-form trig minimum vs grid, both cases", 60):
        rng = random.Random(2026)
        grid = GridSpec(n=1024, refine_rounds=2)
        interior = boundary = 0
        samples = []
        while len(samples) < 200:
            mags = [rng.uniform(0.2, 5) for _ in range(3)]
            if len(samples) % 3 == 2:
                # force the boundary branch: make one inverse magnitude dominate
                mags[0] = 1 / (1 / mags[1] + 1 / mags[2] + rng.uniform(0.1, 2))
            signs = rng.choice([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
            samples.append([m * s for m, s in zip(mags, signs)])
        for coefs in samples:
            inv = [1 / abs(c) for c in coefs]
            if sum(inv) >= 2 * max(inv):
                interior += 1
            else:
                boundary += 1
            closed = trig_polynomial_min(*coefs)
            gridmin = trig_min_grid(*coefs, grid=grid)
            assert abs(closed - gridmin) <= 1e-6
        assert interior >= 30 and boundary >= 30


def test_criterion_04_kirchhoff_equilateral_is_gapless():
    with _Gate("criterion 4: Kirchhoff equilateral window has zero gaps", 10):
        report = scan_spectrum(EQUILATERAL, VertexCoupling(0.0), 0.01, 10 * math.pi, 1e-9)
        assert report.gaps == []
        assert len(report.bands) == 1


def test_criterion_05_gaps_right_of_commensurate_points():
    with _Gate("criterion 5: alpha=1 opens a gap in each (2*pi*m, 2*pi*m + 0.5)", 10):
        report = scan_spectrum(EQUILATERAL, VertexCoupling(1.0), 0.01, 10 * math.pi, 1e-9)
        gaps_k = [(math.sqrt(lo), math.sqrt(hi)) for lo, hi in report.gaps]
        for m in range(1, 5):
            window = (2 * math.pi * m, 2 * math.pi * m + 0.5)
            assert any(lo < window[1] and hi > window[0] for lo, hi in gaps_k), m


def test_criterion_06_negative_gap_threshold_at_six():
    with _Gate("criterion 6: strong-coupling negative gap appears exactly above 6", 10):
        strong = negative_spectrum_scan(EQUILATERAL, VertexCoupling(-6.5), 1e-4, 5.0, 1e-9)
        assert strong.gap_adjacent_to_zero()
        weak = negative_spectrum_scan(EQUILATERAL, VertexCoupling(-5.5), 1e-4, 5.0, 1e-9)
        assert not weak.gap_adjacent_to_zero()
        # the discriminating threshold is 2/a + 2/b + 2/c = 6
        assert 5.5 < sum(2 / l for l in EQUILATERAL.lengths) < 6.5


def test_criterion_07_short_edge_window():
    with _Gate("criterion 7: short-edge gap window 4/3 < |alpha| < 2 for (1,3,3)", 10):
        geom = HexGeometry(1, 3, 3)
        inside = negative_spectrum_scan(geom, VertexCoupling(-1.5), 1e-4, 5.0, 1e-9)
        assert inside.gap_adjacent_to_zero()
        for alpha in (-1.2, -2.2):
            outside = negative_spectrum_scan(geom, VertexCoupling(alpha), 1e-4, 5.0, 1e-9)
            assert not outside.gap_adjacent_to_zero(), alpha


def test_criterion_08_tangent_form_equivalence():
    with _Gate("criterion 8: tangent form equals the direct criterion on 500 samples", 5):
        rng = random.Random(2027)
        checked = 0
        while checked < 500:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            alpha = rng.uniform(-5, 5)
            k = rng.uniform(abs(alpha), abs(alpha) + 30)
            if k <= 0 or min(abs(math.sin(l * k)) for l in geom.lengths) < 1e-4:
                continue
            coupling = VertexCoupling(alpha)
            assert gc1_tangent_form(geom, coupling, k) == gc1(geom, coupling, k)
            checked += 1


def test_criterion_09_envelope_undershoot_gap_instance():
    with _Gate("criterion 9: (2,1,1) alpha=4 has an undershoot gap ending near pi/2", 5):
        geom = HexGeometry(2, 1, 1)
        coupling = VertexCoupling(4.0)
        report = scan_spectrum(geom, coupling, 1.2, 1.9, 1e-9)
        hits = []
        for lo, hi in report.gaps:
            k_lo, k_hi = math.sqrt(lo), math.sqrt(hi)
            if math.pi / 2 - 0.2 < k_lo < math.pi / 2:
                hits.append((k_lo, k_hi))
        assert hits, "no gap with an edge in (pi/2 - 0.2, pi/2)"
        k_lo, k_hi = hits[0]
        k_mid = 0.5 * (k_lo + k_hi)
        assert gc2(geom, coupling, k_mid)
        oracle = band_membership_grid(
            geom, coupling, EnergyPoint.positive(k_mid), GridSpec(512, 2)
        )
        assert oracle.kind is Decision.GAP


def test_criterion_10_golden_ratio_pipeline():
    with _Gate("criterion 10: golden-ratio classification, thresholds and centers", 30):
        golden = QuadraticSurd(1, 2, 5)
        unit = ExactRatio(1, 1)
        ratio_class = classify_ratio(golden, depth=30)
        assert ratio_class.kind is RatioClassKind.BADLY_APPROXIMABLE
        gamma = approx_constant(golden, depth=20)
        assert abs(gamma - 1 / math.sqrt(5)) / (1 / math.sqrt(5)) <= 0.05
        report = thresholds_bc(golden.value(), 1.0, ratio_class, gamma_estimate=gamma)
        assert report.gc1_guarantee == pytest.approx(4 * math.pi / math.sqrt(5), rel=1e-12)
        assert report.gc1_guarantee == pytest.approx(5.6199, abs=1e-3)
        assert report.gc1_nogap_bound == pytest.approx(
            math.pi**2 / (2 * math.sqrt(5)), rel=5e-3
        )
        assert report.gc1_nogap_bound == pytest.approx(2.2070, rel=5e-3)

        alpha = 6.0
        assert alpha > report.gc1_guarantee
        geom = HexGeometry(golden.value(), 1.0, 1.0)
        coupling = VertexCoupling(alpha)
        centers = [
            c for c in predicted_gap_centers(golden, unit, alpha, 3) if c.family == "b"
        ]
        assert len(centers) == 3
        for center in centers:
            found = False
            for i in range(1, 3000):
                k = center.k + 0.5 * i / 3000
                try:
                    if gc1(geom, coupling, k):
                        found = True
                        break
                except Exception:
                    continue
            assert found, f"no gap found near predicted center k = {center.k}"


def test_criterion_11_flat_bands():
    with _Gate("criterion 11: flat bands for (1,2,3); none for (1, sqrt2, 1)", 5):
        witness = commensurability_witness(1, 2, 3)
        ks = flat_band_energies(witness, 2)
        assert ks == pytest.approx([2 * math.pi, 4 * math.pi])
        geom = HexGeometry(1, 2, 3)
        for k in ks:
            assert verify_flat_band(geom, k) <= 1e-12
        assert commensurability_witness(1.0, math.sqrt(2), 1.0) is None
        report = scan_spectrum(
            HexGeometry(1, math.sqrt(2), 1), VertexCoupling(0.0), 0.5, 14.0, 1e-9
        )
        assert report.flat_bands == []
