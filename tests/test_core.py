import cmath
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from hexband import (
    DirichletPointError,
    EnergyPoint,
    FloquetPhase,
    HexGeometry,
    VertexCoupling,
    assemble_m_matrix,
    band_membership,
    det_m_closed_form,
    dispersion_negative,
    gap_diagnostics_bc,
    gc1,
    gc1_tangent_form,
    gc2,
    gc2_equivalent_bc,
    rhs_envelope,
    scan_spectrum,
    verify_flat_band,
)
from hexband.cli import cli
from hexband.core import (
    DEFAULT_DIRICHLET_TOL,
    _flag_sines,
    _half_angle_pair,
    boundary_rows_grid,
    checked_sines,
    gap_criteria,
    positive_terms,
    positive_terms_grid,
)
from hexband.oracle import GridSpec, band_membership_grid, det_numeric, rhs_extrema_grid

EQUILATERAL = HexGeometry(1, 1, 1)
KIRCHHOFF = VertexCoupling(0.0)


def cofactor_det(m):
    """``det_numeric`` of one matrix, passed as one-lane columns."""
    entries = np.array(m.entries, dtype=complex)[..., None]
    re, im = det_numeric(entries.real, entries.imag)
    return complex(re[0], im[0])


class TestGeometry:
    def test_rejects_nonpositive_lengths(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                HexGeometry(bad, 1, 1)

    def test_ell_min(self):
        assert HexGeometry(2.0, 0.5, 1.5).ell_min == 0.5

    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            VertexCoupling(math.nan)


class TestEnergyPoint:
    def test_parameter_validation(self):
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                EnergyPoint.positive(bad)
            with pytest.raises(ValueError):
                EnergyPoint.negative(bad)


class TestFloquetPhase:
    def test_wraps_into_half_open_interval(self):
        rng = random.Random(3)
        for _ in range(200):
            raw = rng.uniform(-40, 40)
            ph = FloquetPhase(raw, -raw)
            assert -math.pi < ph.theta1 <= math.pi
            assert -math.pi < ph.theta2 <= math.pi
            assert math.isclose(
                math.cos(ph.theta1), math.cos(raw), abs_tol=1e-12
            )

    def test_minus_pi_maps_to_plus_pi(self):
        assert FloquetPhase(-math.pi, 0).theta1 == math.pi


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.floats(0.0, 11.5), st.booleans(), st.floats(-9.0, -3.0), st.booleans(),
       st.floats(0.05, 20.0))
def test_angle_reduction_matches_high_precision(log_m, odd, log_delta, below, ell):
    # the edge sine and cosine of l*k = m*pi + delta, at odd and even m, l*k up to
    # 1e12, against mpmath on the double l*k that the kernel forms
    m = 2 * (int(10.0**log_m) // 2 + 1) - odd
    with mp.workdps(60):
        k = float((m * mp.pi + (-1) ** below * mp.mpf(10) ** log_delta) / ell)
        x = mp.mpf(ell * k)
        expected = mp.sin(x), mp.cos(x)
    (s,), (c,), _ = _flag_sines(k, (ell,))
    for got, want in zip((s, c), expected):
        assert abs(got - want) <= 2.3e-16 * abs(want), (m, got, want)


class TestSineTriple:
    """The sines of the three edges and their Dirichlet flags, from ``_flag_sines``."""

    def test_equilateral_half_pi(self):
        sines, _, flags = _flag_sines(math.pi / 2, EQUILATERAL.lengths)
        assert sines == [1.0, 1.0, 1.0]
        assert not any(flags)

    def test_all_edges_flag_at_pi(self):
        _, _, flags = _flag_sines(math.pi, HexGeometry(1, 2, 3).lengths)
        assert flags == [True, True, True]

    def test_irrational_edge_does_not_flag(self):
        sines, _, flags = _flag_sines(math.pi, HexGeometry(1, math.sqrt(2), 1).lengths)
        assert flags == [True, False, True]
        assert sines[1] == pytest.approx(-0.9639025328498773, abs=1e-12)

    def test_scale_aware_tolerance(self):
        # |sin| below tol*l*k at large argument still flags
        k = 1000 * math.pi + 1e-7
        assert any(_flag_sines(k, HexGeometry(1, 1, 1).lengths)[2])


class TestDispersion:
    """The cotangent dispersion D, the first of :func:`positive_terms`."""

    def test_kirchhoff_equilateral_half_pi(self):
        d = positive_terms(EQUILATERAL, KIRCHHOFF.alpha, math.pi / 2)[0]
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_coupled_equilateral_half_pi(self):
        expected = 3 / (math.pi / 2)
        assert positive_terms(EQUILATERAL, 3.0, math.pi / 2)[0] == pytest.approx(
            expected, rel=1e-14
        )

    def test_mixed_lengths_against_high_precision(self):
        mp.dps = 40
        expected = float(mp.cot(1) + mp.cot(2) + mp.cot(3) + 1)
        got = positive_terms(HexGeometry(1, 2, 3), 1.0, 1.0)[0]
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(-5.8308174898604885, rel=1e-12)

    def test_dirichlet_point_raises(self):
        with pytest.raises(DirichletPointError):
            positive_terms(EQUILATERAL, KIRCHHOFF.alpha, math.pi)

    def test_periodicity_equilateral(self):
        for k in (0.4, 1.1, 2.2):
            assert positive_terms(EQUILATERAL, KIRCHHOFF.alpha, k + math.pi)[0] == pytest.approx(
                positive_terms(EQUILATERAL, KIRCHHOFF.alpha, k)[0], rel=1e-10
            )


class TestDirichletGuard:
    # at k = pi/2 only the b edge (length 2) sits on a Dirichlet point
    GEOM = HexGeometry(1, 2, math.sqrt(2))

    @pytest.mark.parametrize(
        "call, edges",
        [
            (lambda g, k: positive_terms(g, KIRCHHOFF.alpha, k)[0], ("b",)),
            (lambda g, k: gc1(g, KIRCHHOFF, k), ("b",)),
            (lambda g, k: gc1_tangent_form(g, KIRCHHOFF, k), ("b",)),
            (lambda g, k: gap_diagnostics_bc(g.a, g.b, k), ("b",)),
            (lambda g, k: gc2_equivalent_bc(g.b, g.a, KIRCHHOFF, k), ("a",)),
            (lambda g, k: det_m_closed_form(HexGeometry(g.b, g.a, g.c), KIRCHHOFF, k,
                                            FloquetPhase(0.1, 0.2)), ("a",)),
        ],
        ids=["dispersion", "gc1", "gc1_tangent_form", "gap_diagnostics_bc", "gc2_equivalent_bc",
             "det_m_closed_form"],
    )
    def test_error_names_only_the_vanishing_edges(self, call, edges):
        with pytest.raises(DirichletPointError) as info:
            call(self.GEOM, math.pi / 2)
        assert info.value.edges == edges


def _count_calls(monkeypatch, name):
    """Count the calls to ``hexband.core.<name>``, in every module that holds it."""
    import hexband.bands
    import hexband.core
    import hexband.gaps
    import hexband.oracle

    count = [0]
    original = getattr(hexband.core, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in (hexband.core, hexband.bands, hexband.gaps, hexband.oracle):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return count


class TestKernelCalls:
    """Each membership entry point passes the Dirichlet guard once per point."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, "_flag_sines")

    GEOM = HexGeometry(1.0, 1.3, 0.8)
    COUPLING = VertexCoupling(2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, c: band_membership(g, c, EnergyPoint.positive(3.3)),
            lambda g, c: gc1(g, c, 3.3),
            lambda g, c: gc2(g, c, 3.3),
            lambda g, c: rhs_envelope(g, 3.3),
            lambda g, c: band_membership_grid(g, c, EnergyPoint.positive(3.3), GridSpec(64, 0)),
            lambda g, c: gap_criteria(g, c.alpha, 3.3),
        ],
        ids=["band_membership", "gc1", "gc2", "rhs_envelope", "band_membership_grid",
             "gap_criteria"],
    )
    def test_point_entry_points(self, calls, call):
        call(self.GEOM, self.COUPLING)
        assert calls[0] == 1

    def test_one_grid_call_per_scan(self, calls, monkeypatch):
        import hexband.bands
        import hexband.cli
        import hexband.core

        counts = {}

        def count(module, name):
            original = getattr(module, name)
            key = f"{module.__name__.split('.')[-1]}.{name}"
            counts[key] = 0

            def counting(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(hexband.bands, "positive_terms_grid")
        count(hexband.bands, "_negative_terms_grid")
        count(hexband.bands, "boundary_rows_grid")
        count(hexband.cli, "positive_terms_grid")
        count(hexband.core, "gap_criteria")

        def run(*args):
            counts.update(dict.fromkeys(counts, 0))
            result = CliRunner().invoke(cli, list(args))
            assert result.exit_code == 0, result.output
            return (counts["bands.positive_terms_grid"], counts["bands._negative_terms_grid"],
                    counts["bands.boundary_rows_grid"], counts["cli.positive_terms_grid"],
                    counts["core.gap_criteria"], calls[0])

        # JSON bands evaluates no sample grid.  Kirchhoff equilateral is one band:
        # one row call takes the window ends from either side, and one more halves
        # the window once, where rows 2 and 3 both turn
        assert run("bands", "--a", "1", "--b", "1", "--c", "1", "--kmin", "1", "--kmax", "2",
                   "--samples", "50") == (0, 0, 2, 0, 0, 0)

        # A gap-rich window whose ends are Dirichlet points: one row call for the
        # window ends and the Dirichlet points seen from either side, then one per
        # two lockstep halvings of the widest piece, however many edges there are;
        # the negative scan refines from its window ends in the same way
        def gap_rich(alpha, *extra):
            return ["--a", "1/2", "--b", "3/2", "--c", "1", "--alpha", alpha,
                    "--kmin", repr(2 * math.pi), "--kmax", repr(22 * math.pi), *extra]

        widest = 2 * math.pi / 3  # between the Dirichlet points of the b edge
        rows = 1 + math.ceil(math.ceil(math.log2(widest / 1e-9)) / 2)
        negative = 1 + math.ceil(math.ceil(math.log2((5 - 5 / 4000) / 1e-9)) / 2)
        assert run("bands", *gap_rich("3.5")) == (0, 0, rows, 0, 0, 0)
        assert run("bands", *gap_rich("-3.5", "--include-negative")) == \
            (0, 0 + negative, rows, 0, 0, 0)

        # gaps scans the same way, and its attribution evaluates the gap midpoints
        # in one call of its own
        assert run("gaps", *gap_rich("3.5")) == (0, 0, rows, 1, 0, 0)

        # CSV bands evaluates one column kernel call per branch and refines nothing
        assert run("bands", *gap_rich("-3.5", "--include-negative", "--format", "csv")) == \
            (1, 1, 0, 0, 0, 0)

    def test_row_calls_of_a_gap_table(self, monkeypatch):
        # gaps --a 1.1 --b 1.7 --c 0.8 --alpha 22 --kmax 298, the benchmark's
        # generic-1 table: one row call for the window ends and the Dirichlet
        # points, then one per two of the 31 halvings of the widest piece,
        # [0.01, pi/1.7], down to edge_tol
        import hexband.bands

        counts = [0]
        original = hexband.bands.boundary_rows_grid

        def counting(*args, **kwargs):
            counts[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(hexband.bands, "boundary_rows_grid", counting)
        report = scan_spectrum(HexGeometry(1.1, 1.7, 0.8), VertexCoupling(22.0), 0.01, 298.0, 1e-9)
        assert math.ceil(math.log2((math.pi / 1.7 - 0.01) / 1e-9)) == 31
        assert (len(report.gaps), counts[0]) == (27, 17)


class TestAngleReductions:
    """Each entry point takes the sine of each distinct angle once, from libm.

    ``assemble_m_matrix`` takes sin(a*k) and the eight exponentials of the
    cell matrix; the other entry points take the sines of their edges alone."""

    GEOM = HexGeometry(1.0, 1.3, 0.8)
    COUPLING = VertexCoupling(2.0)
    PHASE = FloquetPhase(0.3, -1.1)

    @pytest.mark.parametrize(
        "call, sines",
        [
            (lambda g, c, p: positive_terms(g, c.alpha, 3.3), 3),
            (lambda g, c, p: band_membership(g, c, EnergyPoint.positive(3.3)), 3),
            (lambda g, c, p: gc1(g, c, 3.3), 3),
            (lambda g, c, p: gc2(g, c, 3.3), 3),
            (lambda g, c, p: gap_criteria(g, c.alpha, 3.3), 3),
            (lambda g, c, p: positive_terms(g, c.alpha, 3.3)[0], 3),
            (lambda g, c, p: rhs_envelope(g, 3.3), 3),
            (lambda g, c, p: det_m_closed_form(g, c, 3.3, p), 3),
            (lambda g, c, p: band_membership_grid(g, c, EnergyPoint.positive(3.3),
                                                  GridSpec(64, 0)), 3),
            (lambda g, c, p: rhs_extrema_grid(g, 3.3, GridSpec(64, 0)), 3),
            (lambda g, c, p: gc1_tangent_form(g, c, 3.3), 3),
            (lambda g, c, p: gc2_equivalent_bc(g.a, g.b, c, 3.3), 2),
            (lambda g, c, p: gap_diagnostics_bc(g.a, g.b, 3.3), 2),
            (lambda g, c, p: assemble_m_matrix(g, c, 3.3, p), 9),
            (lambda g, c, p: verify_flat_band(g, 3.3, c), 7),
        ],
        ids=["positive_terms", "band_membership", "gc1", "gc2", "gap_criteria", "dispersion",
             "rhs_envelope", "det_m_closed_form", "band_membership_grid",
             "rhs_extrema_grid", "gc1_tangent_form", "gc2_equivalent_bc",
             "gap_diagnostics_bc", "assemble_m_matrix", "verify_flat_band"],
    )
    def test_reductions_per_call(self, monkeypatch, call, sines):
        count = [0]
        sin = math.sin

        def counting(x):
            count[0] += 1
            return sin(x)

        monkeypatch.setattr(math, "sin", counting)
        call(self.GEOM, self.COUPLING, self.PHASE)
        monkeypatch.undo()
        assert count[0] == sines


SIMD_MESSAGE = ("numpy's SIMD dispatch on this CPU differs from libm ({}): the scan grid "
                "kernel is no longer bit-identical to the point kernel")


class TestGridKernelAgainstLibm:
    """The column kernels are bit-identical to the point kernels only while
    numpy's sin and cos agree with math's; numpy may dispatch other SIMD
    kernels on other CPUs."""

    N = 1_000_000

    @staticmethod
    def _assert_sin_and_cos_agree(x):
        xs = x.tolist()
        for np_fn, math_fn in ((np.sin, math.sin), (np.cos, math.cos)):
            expected = np.array([math_fn(v) for v in xs])
            bad = np.count_nonzero(np_fn(x) != expected)
            assert bad == 0, SIMD_MESSAGE.format(f"{np_fn.__name__}: {bad} of {x.size} differ")

    def test_sin_and_cos(self):
        self._assert_sin_and_cos_agree(np.random.default_rng(8).uniform(-math.pi, math.pi, self.N))

    def test_sin_and_cos_over_the_cell_matrix_phases(self):
        # verify's column assembly evaluates core._cell_entries with np.sin and
        # np.cos of unreduced phases such as (a + b) k - theta1, within about
        # +-183 for verify's draws
        self._assert_sin_and_cos_agree(np.random.default_rng(10).uniform(-200, 200, self.N))

    def test_sin_and_cos_of_unreduced_angles(self):
        # the column kernels take np.sin and np.cos of the unreduced l*k
        rng = np.random.default_rng(9)
        self._assert_sin_and_cos_agree(10.0 ** rng.uniform(-3.0, 12.0, self.N))
        # the doubles nearest m*pi, where the sine is smallest, and two either side:
        # a quotient of integers is correctly rounded
        with mp.workdps(80):
            pi = int(mp.pi * 2**200)
        ms = np.unique(np.rint(10.0 ** rng.uniform(0.0, 11.5, self.N // 5)).astype(np.int64))
        at = np.array([m * pi / 2**200 for m in ms.tolist()])
        near = [at]
        for direction in (-math.inf, math.inf):
            step = np.nextafter(at, direction)
            near += [step, np.nextafter(step, direction)]
        self._assert_sin_and_cos_agree(np.concatenate(near))


def _hex(x):
    return float(x).hex()


@st.composite
def _grid_case(draw):
    """A geometry, alpha, tolerance and k grid with exact Dirichlet hits and
    l*k equal to m * math.pi among random k from 1e-2 to 1e8."""
    lengths = [draw(st.floats(0.05, 20.0)) for _ in range(3)]
    ks = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "dirichlet", "exact"]))
        edge = draw(st.integers(0, 2))
        if kind == "random":
            ks.append(10.0 ** draw(st.floats(-2.0, 8.0)))
        elif kind == "dirichlet":
            ks.append(draw(st.integers(1, 10**7)) * math.pi / lengths[edge])
        else:
            # a power-of-two length makes l*k exactly the double m * math.pi, m = 1, 3, ..., 9:
            # a stress case on the edge's Dirichlet point
            lengths[edge] = 2.0 ** draw(st.integers(-4, 4))
            ks.append(draw(st.sampled_from([1, 3, 5, 7, 9])) * math.pi / lengths[edge])
    alpha = draw(st.floats(-1e3, 1e3))
    tol = draw(st.sampled_from([1e-9, 1e-20]))
    return HexGeometry(*lengths), alpha, ks, tol


class TestPositiveTermsGrid:
    @settings(max_examples=1500, derandomize=True, deadline=None)
    @given(_grid_case())
    def test_equals_the_point_kernel_bit_for_bit(self, case):
        # the scalar kernel flags at DEFAULT_DIRICHLET_TOL only; the grid's flags at
        # any tolerance follow the rule |sin(l*k)| <= tol * max(1, l*k) on the same sines
        geom, alpha, ks, tol = case
        d, lower, upper, flagged = positive_terms_grid(geom, alpha, np.array(ks), tol)
        for i, k in enumerate(ks):
            sines, _, flags = _flag_sines(k, geom.lengths)
            assert bool(flagged[i]) == any(abs(s) <= tol * max(1.0, ell * k)
                                           for s, ell in zip(sines, geom.lengths))
            if tol == DEFAULT_DIRICHLET_TOL:
                assert bool(flagged[i]) == any(flags)
            if any(flags):
                with pytest.raises(DirichletPointError):
                    positive_terms(geom, alpha, k)
                continue
            expected = positive_terms(geom, alpha, k)
            assert tuple(map(_hex, (d[i], lower[i], upper[i]))) == tuple(map(_hex, expected))

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_rejects_a_nonpositive_tolerance(self, tol):
        with pytest.raises(ValueError, match="dirichlet_tol"):
            positive_terms_grid(EQUILATERAL, 0.0, np.array([1.0]), tol)

    def test_rejects_a_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be > 0"):
            positive_terms_grid(EQUILATERAL, 0.0, np.array([1.0, 0.0]), 1e-9)


LENGTH = st.floats(0.5, 3.0)
ALPHA = st.floats(-50.0, 50.0)


def _mp_boundary_functions(geom, alpha, k):
    """D - upper, D + upper, D - lower and D + lower at 50 digits, and a margin.

    The arguments are the doubles l*k that the kernel forms.  The margin is
    relative to the terms that stay finite at the nearest Dirichlet point.
    """
    with mp.workdps(50):
        xs = [mp.mpf(ell * k) for ell in geom.lengths]
        inv = [1 / abs(mp.sin(x)) for x in xs]
        cots = [mp.cot(x) for x in xs]
        j = max(range(3), key=lambda i: inv[i])
        g = mp.mpf(alpha) / mp.mpf(k)
        d = g + sum(cots)
        upper = sum(inv)
        lower = 2 * inv[j] - upper
        finite = 1 + abs(g) + sum(abs(cots[i]) + inv[i] for i in range(3) if i != j)
        return (d - upper, d + upper, d - lower, d + lower), 1e-9 * finite


class TestGapCriteria:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(LENGTH, LENGTH, LENGTH, ALPHA, st.floats(0.05, 200.0))
    def test_equals_the_envelope_comparison_off_dirichlet_points(self, a, b, c, alpha, k):
        geom = HexGeometry(a, b, c)
        assume(not any(_flag_sines(k, geom.lengths)[2]))
        coupling = VertexCoupling(alpha)
        verdict = gap_criteria(geom, alpha, k)
        assert verdict == (gc1(geom, coupling, k), gc2(geom, coupling, k))
        membership = band_membership(geom, coupling, EnergyPoint.positive(k)).kind
        assert any(verdict) == (membership.value == "gap")

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(LENGTH, LENGTH, LENGTH, st.integers(0, 2), st.integers(1, 300),
           st.floats(-1e-12, 1e-12), st.booleans(), st.floats(-1.0, 1.0))
    def test_matches_high_precision_at_dirichlet_points(self, a, b, c, edge, m, offset,
                                                        lower, shift):
        # alpha puts the finite one of D -+ upper (or of D -+ lower) within
        # `shift` of zero, where a pole that cancels in floating point would
        # show as a wrong sign
        geom = HexGeometry(a, b, c)
        k = m * math.pi / geom.lengths[edge] * (1 + offset)
        values, _ = _mp_boundary_functions(geom, 0.0, k)
        alpha = float(k * (shift - min(values[2 * lower:2 * lower + 2], key=abs)))
        (d_minus_upper, d_plus_upper, d_minus_lower, d_plus_lower), margin = \
            _mp_boundary_functions(geom, alpha, k)
        assume(min(abs(d_minus_upper), abs(d_plus_upper), abs(d_minus_lower),
                   abs(d_plus_lower)) > margin)
        expected = (d_minus_upper > 0 or d_plus_upper < 0, d_minus_lower < 0 < d_plus_lower)
        assert gap_criteria(geom, alpha, k) == expected

    @pytest.mark.parametrize("s_right, c", [(1e-300, 1.0), (-1e-300, -1.0)], ids=["0", "pi"])
    def test_exact_zero_sine_is_the_limit_from_the_right(self, s_right, c):
        # just right of x = 0 the sine is positive, just right of x = pi negative
        m, p = _half_angle_pair(s_right, c)
        assert -1e-299 < m < 0 and p > 1e299
        m, p = _half_angle_pair(0.0, c)
        assert m == 0.0 and math.copysign(1.0, m) < 0 and p == math.inf

    def test_underflowing_half_angle_takes_the_ieee_limit(self):
        # tan(x/2) = s/(1+c) underflows to zero for a subnormal sine
        m, p = _half_angle_pair(5e-324, 1.0)
        assert (m, p) == (0.0, math.inf) and math.copysign(1.0, m) < 0
        m, p = _half_angle_pair(-5e-324, 1.0)
        assert (m, p) == (-math.inf, 0.0) and math.copysign(1.0, p) > 0
        assert gap_criteria(EQUILATERAL, 3.0, 5e-324) == (True, False)


@st.composite
def _criteria_case(draw):
    """A geometry, alpha and k grid as in :func:`_grid_case`, with b = c in half
    the cases (ties in |sin|), k = 2*pi on a unit edge, and subnormal k, where
    l*k can underflow to an exact zero sine or tan(l*k/2) to zero."""
    lengths = [draw(st.floats(0.05, 20.0)) for _ in range(3)]
    tied = draw(st.booleans())

    def set_length(edge, value):
        lengths[edge] = value
        if tied and edge > 0:
            lengths[3 - edge] = value

    if tied:
        lengths[2] = lengths[1]
    ks = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "dirichlet", "exact", "two-pi", "subnormal"]))
        edge = draw(st.integers(0, 2))
        if kind == "random":
            ks.append(10.0 ** draw(st.floats(-2.0, 8.0)))
        elif kind == "dirichlet":
            ks.append(draw(st.integers(1, 10**7)) * math.pi / lengths[edge])
        elif kind == "exact":
            set_length(edge, 2.0 ** draw(st.integers(-4, 4)))
            ks.append(draw(st.sampled_from([1, 3, 5, 7, 9])) * math.pi / lengths[edge])
        elif kind == "two-pi":
            set_length(edge, 1.0)
            ks.append(2 * math.pi)
        else:
            ks.append(draw(st.sampled_from([5e-324, 1e-323, 1e-320, 1e-310, 2.2e-308])))
    geom = HexGeometry(*lengths)
    alpha = draw(st.floats(-1e3, 1e3))
    if draw(st.booleans()):
        # alpha/k cancels one boundary function at the first k to within a few
        # ulps, where any change in rounding flips its sign
        k = ks[0]
        target = -k * draw(st.sampled_from(_boundary_sums(geom, k)))
        if math.isfinite(target):
            alpha = target
            for _ in range(draw(st.integers(0, 3))):
                alpha = math.nextafter(alpha, draw(st.sampled_from([-math.inf, math.inf])))
    return geom, alpha, ks


def _boundary_sums(geom, k):
    """D - upper, D + upper, D - lower and D + lower less alpha/k, summed as
    :func:`gap_criteria` sums them."""
    xs = [ell * k for ell in geom.lengths]
    sines = [math.sin(x) for x in xs]
    ms, ps = zip(*(_half_angle_pair(s, math.cos(x)) for s, x in zip(sines, xs)))
    j = min(range(3), key=lambda i: abs(sines[i]))
    return (sum(ms), sum(ps), ms[j] + sum(p for i, p in enumerate(ps) if i != j),
            ps[j] + sum(m for i, m in enumerate(ms) if i != j))


def _scalar_rows(geom, alpha, k):
    """The four comparisons of :func:`gap_criteria`, each summed as it sums them."""
    sines, cosines, _ = _flag_sines(k, geom.lengths)
    ms, ps = zip(*map(_half_angle_pair, sines, cosines))
    j = min(range(3), key=lambda i: abs(sines[i]))
    g = alpha / k
    return [g + sum(ms) > 0, g + sum(ps) < 0,
            g + ms[j] + sum(p for i, p in enumerate(ps) if i != j) < 0,
            g + ps[j] + sum(m for i, m in enumerate(ms) if i != j) > 0]


def _criteria(rows):
    """(GC1, GC2) pairs from the rows of :func:`boundary_rows_grid`."""
    return list(zip((rows[0] | rows[1]).tolist(), (rows[2] & rows[3]).tolist()))


class TestGapCriteriaGrid:
    """The four-row kernel :func:`boundary_rows_grid` against the scalar criteria."""

    @settings(max_examples=1500, derandomize=True, deadline=None)
    @given(_criteria_case())
    def test_equals_the_scalar_form_bit_for_bit(self, case):
        geom, alpha, ks = case
        rows = boundary_rows_grid(geom, alpha, np.array(ks))
        assert _criteria(rows) == [gap_criteria(geom, alpha, k) for k in ks]
        assert rows.T.tolist() == [_scalar_rows(geom, alpha, k) for k in ks]

    def test_exact_zero_and_underflowing_sines(self):
        # l*k underflows to 0 on the short edge, and tan(l*k/2) to 0 on the others
        geom = HexGeometry(0.25, 1.0, 1.0)
        ks = np.array([5e-324, 1e-323])
        assert _flag_sines(5e-324, geom.lengths)[0] == [0.0, 5e-324, 5e-324]
        expected = [gap_criteria(geom, -3.0, k) for k in ks.tolist()]
        assert _criteria(boundary_rows_grid(geom, -3.0, ks)) == expected

    def test_rejects_a_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be > 0"):
            boundary_rows_grid(EQUILATERAL, 0.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "lengths, alpha, k",
        [
            ((1.0, 1.0, 1.0), 3.0, 2 * math.pi),
            ((0.5, 1.5, 1.0), 3.5, 6 * math.pi),
            (((1 + math.sqrt(5)) / 2, 1.0, 1.0), 22.0, 14 * math.pi),
            (((1 + math.sqrt(5)) / 2, 1.0, 1.0), -47.5, 9 * math.pi / ((1 + math.sqrt(5)) / 2)),
            ((1.1, 1.7, 0.8), 22.0, 40 * math.pi / 1.7),
        ],
        ids=["all-edges", "two-edges", "b-and-c", "a-alone", "generic"],
    )
    def test_one_sided_rows_are_the_rows_beside_a_dirichlet_point(self, lengths, alpha, k):
        # at k = m*pi/l the vanishing edges take their one-sided limits; the rows
        # are those evaluated just beside k, where every boundary function is
        # continuous on either side
        geom = HexGeometry(*lengths)
        left, right = boundary_rows_grid(geom, alpha, np.array([k]), sides=True)
        near = boundary_rows_grid(geom, alpha, np.array([k * (1 - 1e-9), k * (1 + 1e-9)]))
        assert (left[:, 0].tolist(), right[:, 0].tolist()) == (near[:, 0].tolist(),
                                                              near[:, 1].tolist())
        assert left.tolist() != right.tolist()
        # away from a Dirichlet point both sides are the rows at k
        k = k + 0.1
        assert all(rows.tolist() == boundary_rows_grid(geom, alpha, np.array([k])).tolist()
                   for rows in boundary_rows_grid(geom, alpha, np.array([k]), sides=True))


class TestDispersionNegative:
    def test_large_kappa_asymptote(self):
        assert dispersion_negative(EQUILATERAL, KIRCHHOFF, 40.0) == pytest.approx(3.0, abs=1e-12)

    def test_small_kappa_scaling(self):
        kappa = 1e-4
        value = kappa * dispersion_negative(EQUILATERAL, VertexCoupling(-6.0), kappa)
        assert value == pytest.approx(-3.0, abs=1e-6)

    def test_unit_kappa(self):
        expected = 3 / math.tanh(1.0) - 3
        got = dispersion_negative(EQUILATERAL, VertexCoupling(-3.0), 1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.9391058564979944, rel=1e-12)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            dispersion_negative(EQUILATERAL, KIRCHHOFF, 0.0)


SPEC_POINT = dict(geom=EQUILATERAL, coupling=KIRCHHOFF, k=1.0, phase=FloquetPhase(0.0, 0.0))


def cmath_cell_matrix(geom, coupling, k, phase):
    """The reduced cell matrix written in ``cmath``: the reference that
    ``assemble_m_matrix`` (``core._cell_entries``) is pinned to by ``repr``.

    The mixed float-complex operations here follow CPython 3.13 and earlier,
    which promote the float to ``complex(x, 0.0)``.  CPython 3.14 computes
    them on the parts instead (gh-69639), which can change signed zeros."""
    s_a = checked_sines(k, ("a",), (geom.a,))[0][0]
    a, b, c = geom.lengths
    alpha_over_k = coupling.alpha / k
    t1, t2 = phase.theta1, phase.theta2

    def m3(sign):
        return (
            -cmath.exp(-1j * sign * a * k) + cmath.exp(1j * (sign * b * k - t1))
        ) / s_a - alpha_over_k

    def m4(sign):
        return (
            -cmath.exp(1j * (sign * a * k + sign * b * k - t1)) + 1.0
        ) / s_a - alpha_over_k * cmath.exp(1j * (sign * b * k - t1))

    return (
        (1.0 + 0j, 1.0 + 0j, -1.0 + 0j, -1.0 + 0j),
        (
            cmath.exp(1j * (b * k - t1)),
            cmath.exp(1j * (-b * k - t1)),
            -cmath.exp(1j * (c * k - t2)),
            -cmath.exp(1j * (-c * k - t2)),
        ),
        (m3(1), m3(-1), 1j, -1j),
        (
            m4(1),
            m4(-1),
            -1j * cmath.exp(1j * (c * k - t2)),
            1j * cmath.exp(1j * (-c * k - t2)),
        ),
    )


@st.composite
def _cell_case(draw):
    """A sample for the cell matrix: k in [0.01, 1e3] at random or within
    1e-6 of a Dirichlet point of b or c, clear of sin(a k) = 0, alpha = 0
    among others, and phases at 0, +-pi and +-b k or +-c k (wrapped) among
    others: b k - theta1 = 0 makes exact zeros, which show signed zeros."""
    lengths = [draw(st.floats(0.05, 20.0)) for _ in range(3)]
    if draw(st.booleans()):
        k = draw(st.floats(0.01, 1e3))
    else:
        ell = lengths[draw(st.integers(1, 2))]
        k = draw(st.integers(1, int(1e3 * ell / math.pi))) * math.pi / ell
        k += draw(st.floats(-1e-6, 1e-6))
    assume(0.01 <= k <= 1e3 and abs(math.sin(lengths[0] * k)) >= 1e-3)
    alpha = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
    t1, t2 = (draw(st.one_of(st.sampled_from([0.0, math.pi, -math.pi, ell * k, -ell * k]),
                             st.floats(-math.pi, math.pi))) for ell in lengths[1:])
    return HexGeometry(*lengths), VertexCoupling(alpha), k, FloquetPhase(t1, t2)


class TestMMatrix:
    def test_first_row_exact(self):
        m = assemble_m_matrix(**SPEC_POINT)
        assert m.entries[0] == (1, 1, -1, -1)

    def test_third_row_constants(self):
        m = assemble_m_matrix(HexGeometry(1.3, 0.7, 2.1), VertexCoupling(2.5), 3.7,
                              FloquetPhase(0.3, -1.2))
        assert m.entries[2][2] == 1j
        assert m.entries[2][3] == -1j

    def test_fourth_row_forms(self):
        geom = HexGeometry(1.3, 0.7, 2.1)
        k, t2 = 3.7, -1.2
        m = assemble_m_matrix(geom, VertexCoupling(2.5), k, FloquetPhase(0.3, t2))
        assert m.entries[3][2] == pytest.approx(-1j * cmath.exp(1j * (geom.c * k - t2)))
        assert m.entries[3][3] == pytest.approx(1j * cmath.exp(1j * (-geom.c * k - t2)))

    def test_determinant_value_at_reference_point(self):
        numeric = cofactor_det(assemble_m_matrix(**SPEC_POINT))
        closed = det_m_closed_form(**SPEC_POINT)
        assert numeric == pytest.approx(25.490643057848562 + 0j, rel=1e-10)
        assert abs(closed - numeric) / (1 + abs(closed)) < 1e-12

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(_cell_case())
    def test_entries_equal_the_cmath_reference(self, case):
        got = assemble_m_matrix(*case).entries
        assert [repr(z) for row in got for z in row] == [
            repr(z) for row in cmath_cell_matrix(*case) for z in row]

    def test_dirichlet_guard_on_a_edge(self):
        with pytest.raises(DirichletPointError):
            assemble_m_matrix(EQUILATERAL, KIRCHHOFF, math.pi, FloquetPhase(0, 0))
        with pytest.raises(DirichletPointError):
            det_m_closed_form(EQUILATERAL, KIRCHHOFF, math.pi, FloquetPhase(0, 0))


class TestClosedFormDeterminant:
    def test_agrees_with_cofactor_on_random_tuples(self):
        rng = random.Random(101)
        checked = 0
        while checked < 200:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            coupling = VertexCoupling(rng.uniform(-5, 5))
            k = rng.uniform(0.1, 30)
            if abs(math.sin(geom.a * k)) <= 1e-3:
                continue
            phase = FloquetPhase(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            closed = det_m_closed_form(geom, coupling, k, phase)
            direct = cofactor_det(assemble_m_matrix(geom, coupling, k, phase))
            assert abs(closed - direct) / (1 + abs(closed)) < 1e-9
            checked += 1

    def test_near_dirichlet_scaling(self):
        # At theta = (0, 0) the bracket itself vanishes cubically at k = 2*pi,
        # so the determinant scales like eps^2: halving eps divides it by 4.
        k1 = 2 * math.pi + 1e-3
        k2 = 2 * math.pi + 5e-4
        d1 = det_m_closed_form(EQUILATERAL, KIRCHHOFF, k1, FloquetPhase(0, 0))
        d2 = det_m_closed_form(EQUILATERAL, KIRCHHOFF, k2, FloquetPhase(0, 0))
        for k, d in ((k1, d1), (k2, d2)):
            direct = cofactor_det(assemble_m_matrix(EQUILATERAL, KIRCHHOFF, k, FloquetPhase(0, 0)))
            assert abs(d - direct) / (1 + abs(d)) < 1e-9
        assert abs(d1) / abs(d2) == pytest.approx(4.0, rel=1e-3)

    def test_phase_prefactor_is_unimodular(self):
        # det * exp(i(t1+t2)) * sin(ak) / -4 must be real (the bracket)
        rng = random.Random(7)
        for _ in range(50):
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            k = rng.uniform(0.2, 20)
            if abs(math.sin(geom.a * k)) <= 1e-2:
                continue
            t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            det = det_m_closed_form(geom, VertexCoupling(1.3), k, FloquetPhase(t1, t2))
            bracket = det * cmath.exp(1j * (t1 + t2)) * math.sin(geom.a * k) / -4
            assert abs(bracket.imag) <= 1e-10 * (1 + abs(bracket))

    def test_bracket_symmetric_under_bc_phase_swap(self):
        rng = random.Random(13)
        for _ in range(60):
            a, b, c = rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3)
            alpha = rng.uniform(-4, 4)
            k = rng.uniform(0.2, 20)
            if abs(math.sin(a * k)) <= 1e-2:
                continue
            t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)

            def bracket(bb, cc, u1, u2):
                det = det_m_closed_form(
                    HexGeometry(a, bb, cc), VertexCoupling(alpha), k, FloquetPhase(u1, u2)
                )
                return (det * cmath.exp(1j * (u1 + u2)) * math.sin(a * k) / -4).real

            assert bracket(b, c, t1, t2) == pytest.approx(
                bracket(c, b, t2, t1), rel=1e-9, abs=1e-9
            )


def _find_singular_phase(geom, coupling, k):
    """A phase pair with vanishing determinant, if one exists at this k.

    The determinant times its unimodular prefactor is a real bracket,
    continuous in theta1 for each fixed theta2; scanning a few theta2 lines
    and bisecting a sign change gives a root to near machine precision.
    """

    def bracket(t1, t2):
        det = det_m_closed_form(geom, coupling, k, FloquetPhase(t1, t2))
        return (det * cmath.exp(1j * (t1 + t2)) * math.sin(geom.a * k) / -4).real

    grid = [i * math.pi / 400 for i in range(-400, 401)]
    for t2 in (0.0, math.pi / 2, math.pi, -math.pi / 2, 1.0, 2.3):
        for lo, hi in zip(grid, grid[1:]):
            if bracket(lo, t2) * bracket(hi, t2) <= 0:
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if bracket(lo, t2) * bracket(mid, t2) <= 0:
                        hi = mid
                    else:
                        lo = mid
                return 0.5 * (lo + hi), t2
    return None


class TestCellWavefunction:
    @staticmethod
    def amplitudes(geom, k, phase, c2, c3):
        """All twelve half-edge amplitudes ``(c, d)`` from the four entries of a
        null vector of the cell matrix, (C2+, C2-, C3+, C3-).

        ``c`` holds the outgoing pairs (psi_i) and ``d`` the incoming ones
        (phi_i).  The Bloch conditions fix the incoming b and c pairs, and
        vertex continuity plus matching at the midpoint of the full a-edge fix
        the a-edge pair, which is shared: c[0] == d[0].  Needs sin(a*k) != 0.
        """
        a, b, c = geom.lengths
        t1, t2 = phase.theta1, phase.theta2
        d2 = (c2[0] * cmath.exp(1j * (b * k - t1)), c2[1] * cmath.exp(1j * (-b * k - t1)))
        d3 = (c3[0] * cmath.exp(1j * (c * k - t2)), c3[1] * cmath.exp(1j * (-c * k - t2)))
        # psi1(a/2) = psi2(0) and phi1(-a/2) = phi2(0), with psi1 == phi1
        v_plus, v_minus = c2[0] + c2[1], d2[0] + d2[1]
        e = cmath.exp(1j * k * a / 2)
        det = e * e - 1 / (e * e)  # = 2i sin(a k)
        c1 = ((e * v_plus - v_minus / e) / det, (-v_plus / e + e * v_minus) / det)
        return (c1, c2, c3), (c1, d2, d3)

    @pytest.mark.parametrize(
        "geom,alpha,k",
        [
            (EQUILATERAL, 0.0, 2.0),
            (HexGeometry(1.3, 0.7, 2.1), 2.5, 3.7),
            (HexGeometry(0.8, 1.9, 1.1), -1.5, 5.2),
        ],
    )
    def test_null_vector_satisfies_all_cell_conditions(self, geom, alpha, k):
        coupling = VertexCoupling(alpha)
        found = _find_singular_phase(geom, coupling, k)
        assert found is not None, "no singular phase found; pick a k inside a band"
        phase = FloquetPhase(found[0], found[1])
        m = np.array(assemble_m_matrix(geom, coupling, k, phase).entries, dtype=complex)
        _, sigma, vh = np.linalg.svd(m)
        assert sigma[-1] < 1e-7
        null = vh[-1].conj()
        c_pairs, d_pairs = self.amplitudes(geom, k, phase, (null[0], null[1]), (null[2], null[3]))

        def psi(pair, x):
            return pair[0] * cmath.exp(1j * k * x) + pair[1] * cmath.exp(-1j * k * x)

        def dpsi(pair, x):
            return 1j * k * (pair[0] * cmath.exp(1j * k * x) - pair[1] * cmath.exp(-1j * k * x))

        a, b, c = geom.lengths
        t1n, t2n = phase.theta1, phase.theta2
        residuals = [
            # vertex between the outgoing half-edges and the full a-edge
            abs(psi(c_pairs[1], 0) - psi(c_pairs[2], 0)),
            abs(psi(c_pairs[1], 0) - psi(c_pairs[0], a / 2)),
            abs(dpsi(c_pairs[1], 0) + dpsi(c_pairs[2], 0) - dpsi(c_pairs[0], a / 2)
                - alpha * psi(c_pairs[1], 0)),
            # mirror vertex on the incoming side
            abs(psi(d_pairs[1], 0) - psi(d_pairs[2], 0)),
            abs(psi(d_pairs[1], 0) - psi(d_pairs[0], -a / 2)),
            abs(-dpsi(d_pairs[1], 0) - dpsi(d_pairs[2], 0) + dpsi(d_pairs[0], -a / 2)
                - alpha * psi(d_pairs[1], 0)),
            # Bloch conditions tying the half-edge pairs
            abs(psi(c_pairs[1], b / 2) - cmath.exp(1j * t1n) * psi(d_pairs[1], -b / 2)),
            abs(dpsi(c_pairs[1], b / 2) - cmath.exp(1j * t1n) * dpsi(d_pairs[1], -b / 2)),
            abs(psi(c_pairs[2], c / 2) - cmath.exp(1j * t2n) * psi(d_pairs[2], -c / 2)),
            abs(dpsi(c_pairs[2], c / 2) - cmath.exp(1j * t2n) * dpsi(d_pairs[2], -c / 2)),
        ]
        assert max(residuals) < 1e-7
