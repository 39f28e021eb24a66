import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexband import (
    Decision,
    EnergyPoint,
    FloquetPhase,
    HexGeometry,
    MMatrix,
    VertexCoupling,
    assemble_m_matrix,
    band_membership,
    det_m_closed_form,
    rhs_envelope,
    trig_polynomial_min,
)
from hexband import oracle
from hexband.cli import cli
from hexband.core import _closed_det, _flag_sines, inv_sinh
from hexband.oracle import (
    GridSpec,
    band_membership_grid,
    det_numeric,
    rhs_extrema_grid,
    trig_min_grid,
)
import zoom_reference

EQUILATERAL = HexGeometry(1, 1, 1)
# the sign patterns of A, B, C with A*B*C > 0, the closed form's domain
POSITIVE_PRODUCT_SIGNS = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
# grids with at most 256 cells, fewer than the extremum search reads
SMALL_GRIDS = [8, 9, 15, 16]


def phase_axis(n):
    """The oracle's n cell centres on one phase axis."""
    return np.linspace(-math.pi, math.pi, n, endpoint=False) + math.pi / n


def on_grid(g, n):
    """g on the full n x n phase grid, from the oracle's shared cosine table:
    the reference that the tile search is checked against."""
    _, cos_t, cos_diff = oracle._phase_table(n)
    return g(cos_t[:, None], cos_t[None, :], cos_diff)


def full_phase_grid(n):
    """The oracle's n x n phase grid as two full coordinate arrays."""
    t = phase_axis(n)
    return np.meshgrid(t, t, indexing="ij")


def rhs_as_written(s_a, s_b, s_c):
    """The right side in the edge sines as a function of the phases."""

    def f(t1, t2):
        return 1 / s_a**2 + 1 / s_b**2 + 1 / s_c**2 + 2 * (
            np.cos(t1) / (s_a * s_b) + np.cos(t2) / (s_a * s_c) + np.cos(t1 - t2) / (s_b * s_c)
        )

    return f


def trig_as_written(a_coef, b_coef, c_coef):
    """A cos(t1 - t2) + B cos(t2) + C cos(t1) as a function of the phases."""

    def f(t1, t2):
        return a_coef * np.cos(t1 - t2) + b_coef * np.cos(t2) + c_coef * np.cos(t1)

    return f


@st.composite
def near_boundary_coefficients(draw):
    """Coefficients with 2 max(1/|c|) <= sum(1/|c|) <= 1.05 * 2 max(1/|c|).

    Every magnitude lies in verify's range [0.2, 5].  The smallest one sets
    the largest inverse magnitude u; the other two inverses split
    (2 ratio - 1) u, each within [1/5, u].
    """
    smallest = draw(st.floats(0.2, 1))
    ratio = draw(st.floats(1, 1.05))
    rest = (2 * ratio - 1) / smallest
    lo, hi = max(0.2, rest - 1 / smallest), min(1 / smallest, rest - 0.2)
    u = lo + draw(st.floats(0, 1)) * (hi - lo)
    mags = [smallest, 1 / u, 1 / (rest - u)]
    order = draw(st.permutations(range(3)))
    signs = draw(st.sampled_from(POSITIVE_PRODUCT_SIGNS))
    return tuple(mags[i] * sign for i, sign in zip(order, signs))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n=4)
        with pytest.raises(ValueError):
            GridSpec(refine_rounds=-1)


class TestRhsExtremaGrid:
    def test_equilateral_half_pi(self):
        lo, hi = rhs_extrema_grid(EQUILATERAL, math.pi / 2, GridSpec(256, 2))
        assert lo == pytest.approx(0.0, abs=1e-3)
        assert hi == pytest.approx(9.0, abs=1e-3)

    def test_mixed_lengths_maximum(self):
        geom = HexGeometry(1, 2, 3)
        lo, hi = rhs_extrema_grid(geom, 1.0, GridSpec(256, 2))
        env = rhs_envelope(geom, 1.0)
        assert hi == pytest.approx(env.upper**2, abs=1e-3)
        assert hi == pytest.approx(87.87773806885612, abs=1e-2)
        assert lo <= hi

    def test_refinement_convergence_model(self):
        # doubling the grid moves the raw (unrefined) extrema by O(n^-2)
        rng = random.Random(19)
        checked = 0
        while checked < 20:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            k = rng.uniform(0.3, 15)
            if min(abs(math.sin(l * k)) for l in geom.lengths) < 0.1:
                continue
            n = 128
            lo1, hi1 = rhs_extrema_grid(geom, k, GridSpec(n, 0))
            lo2, hi2 = rhs_extrema_grid(geom, k, GridSpec(2 * n, 0))
            c = 4000.0  # curvature scale for the |sin| >= 0.1 sampling guard
            assert abs(lo1 - lo2) <= c / n**2
            assert abs(hi1 - hi2) <= c / n**2
            checked += 1

    @pytest.mark.parametrize("n", SMALL_GRIDS)
    @pytest.mark.parametrize("lengths, k", [((1, 1, 1), 1.0), ((1, 2, 3), 1.0),
                                            ((1, 1.618, 1.3), 2.2)])
    def test_small_grid_unrefined_is_plain_extrema(self, n, lengths, k):
        geom = HexGeometry(*lengths)
        values = rhs_as_written(*_flag_sines(k, geom.lengths)[0])(*full_phase_grid(n))
        lo, hi = rhs_extrema_grid(geom, k, GridSpec(n, 0))
        assert lo == values.min()
        assert hi == values.max()

    @settings(deadline=None, derandomize=True)
    @given(lengths=st.tuples(*[st.floats(0.5, 3)] * 3), k=st.floats(0.1, 30))
    def test_extrema_inside_envelope(self, lengths, k):
        # the grid sees only values the phase torus attains
        assume(min(abs(math.sin(ell * k)) for ell in lengths) >= 0.05)
        geom = HexGeometry(*lengths)
        lo, hi = rhs_extrema_grid(geom, k, GridSpec(64, 2))
        env = rhs_envelope(geom, k)
        slack = 1e-9 * env.upper**2
        assert env.lower**2 - slack <= lo <= hi <= env.upper**2 + slack


class TestBandMembershipGrid:
    def test_agrees_in_band(self):
        decision = band_membership_grid(
            EQUILATERAL, VertexCoupling(0.0), EnergyPoint.positive(2.0), GridSpec(128, 1)
        )
        fast = band_membership(EQUILATERAL, VertexCoupling(0.0), EnergyPoint.positive(2.0))
        assert decision.kind is Decision.BAND
        assert decision.kind is fast.kind

    def test_negative_branch_gap(self):
        decision = band_membership_grid(
            EQUILATERAL, VertexCoupling(-6.5), EnergyPoint.negative(0.01), GridSpec(128, 1)
        )
        assert decision.kind is Decision.GAP

    @pytest.mark.parametrize("kappa", [300.0, 400.0, 1000.0])
    @pytest.mark.parametrize("alpha", [-6.5, 2.0, -1200.0])
    def test_negative_branch_past_the_sinh_range(self, alpha, kappa):
        # sinh(l*kappa)**2 overflows once l*kappa passes about 355, and sinh itself
        # past 710; the grid is written in 1/sinh and agrees with band_membership
        geom, coupling = HexGeometry(1.0, 1.3, 0.8), VertexCoupling(alpha)
        energy = EnergyPoint.negative(kappa)
        fast = band_membership(geom, coupling, energy)
        assert band_membership_grid(geom, coupling, energy, GridSpec(64, 1)).kind is fast.kind

    @pytest.mark.parametrize("kappa", [0.05, 0.7, 3.0, 30.0])
    def test_the_inverse_form_equals_the_sinh_form(self, kappa):
        lengths = (1.0, 1.3, 0.8)
        grid = GridSpec(64, 1)
        lo, hi = oracle._rhs_extrema(
            oracle._rhs_function(*(math.sinh(ell * kappa) for ell in lengths)), grid)
        inverse = oracle._rhs_extrema(
            oracle._inverse_rhs_function(*(inv_sinh(ell * kappa) for ell in lengths)), grid)
        assert inverse == pytest.approx((lo, hi), rel=0, abs=1e-12 * hi)

    def test_negative_band_agrees(self):
        # the band at kappa = 4.645407, 7.2e-6 wide, on (0.2, 3, 5) with alpha = -20
        geom, coupling = HexGeometry(0.2, 3, 5), VertexCoupling(-20.0)
        energy = EnergyPoint.negative(4.645407)
        assert band_membership(geom, coupling, energy).kind is Decision.BAND
        assert band_membership_grid(geom, coupling, energy, GridSpec(64, 1)).kind is Decision.BAND

    def test_positive_gap(self):
        energy = EnergyPoint.positive(2 * math.pi + 0.1)
        decision = band_membership_grid(EQUILATERAL, VertexCoupling(3.0), energy, GridSpec(128, 1))
        assert decision.kind is Decision.GAP

    def test_dirichlet_verdict(self):
        decision = band_membership_grid(
            EQUILATERAL, VertexCoupling(0.0), EnergyPoint.positive(math.pi), GridSpec(128, 0)
        )
        assert decision.kind is Decision.DIRICHLET


def columns(matrices):
    """The (4, 4, n) real and imaginary parts of n matrices, one lane each."""
    entries = np.moveaxis(np.array([m.entries for m in matrices], dtype=complex), 0, -1)
    return entries.real, entries.imag


def det_lanes(matrices):
    """``det_numeric`` of the matrices in one call, as Python complex numbers."""
    re, im = det_numeric(*columns(matrices))
    return [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]


class TestDetNumeric:
    def test_identity(self):
        rows = tuple(tuple(1.0 + 0j if i == j else 0j for j in range(4)) for i in range(4))
        assert det_lanes([MMatrix(rows)]) == [1]

    def test_duplicated_row(self):
        row = (1 + 2j, -3j, 0.5 + 0j, 2 + 0j)
        other = (2 + 0j, 1j, 1 + 1j, -1 + 0j)
        rows = (row, row, other, (0j, 1 + 0j, 2 + 0j, 3 + 0j))
        assert det_lanes([MMatrix(rows)])[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_at_reference_point(self):
        phase = FloquetPhase(0.0, 0.0)
        m = assemble_m_matrix(EQUILATERAL, VertexCoupling(0.0), 1.0, phase)
        [direct] = det_lanes([m])
        closed = det_m_closed_form(EQUILATERAL, VertexCoupling(0.0), 1.0, phase)
        assert direct == pytest.approx(25.490643057848562 + 0j, rel=1e-10)
        assert abs(direct - closed) / (1 + abs(closed)) < 1e-12


class TestTrigMinGrid:
    def test_symmetric_case(self):
        assert trig_min_grid(1, 1, 1, GridSpec(512, 2)) == pytest.approx(-1.5, abs=1e-6)

    def test_large_coefficient_case(self):
        assert trig_min_grid(1, 1, 10, GridSpec(512, 2)) == pytest.approx(-10.05, abs=1e-6)

    def test_grid_min_never_below_closed_form(self):
        # a grid minimum over a subset of the torus cannot undershoot the
        # true minimum by more than refinement noise
        rng = random.Random(23)
        for _ in range(20):
            coefs = [rng.uniform(0.2, 5) for _ in range(3)]
            closed = trig_polynomial_min(*coefs)
            gridmin = trig_min_grid(*coefs, grid=GridSpec(256, 1))
            assert gridmin >= closed - 1e-6

    @pytest.mark.parametrize("n", SMALL_GRIDS)
    @pytest.mark.parametrize("coefs", [(1, 1, 1), (-1, -1, -1), (1, 1, 10), (0.5, -2, 3)])
    def test_small_grid_unrefined_is_plain_minimum(self, n, coefs):
        values = trig_as_written(*coefs)(*full_phase_grid(n))
        assert trig_min_grid(*coefs, grid=GridSpec(n, 0)) == values.min()

    @settings(deadline=None, derandomize=True)
    @given(mags=st.tuples(*[st.floats(0.2, 5)] * 3),
           signs=st.sampled_from(POSITIVE_PRODUCT_SIGNS))
    def test_grid_min_never_below_closed_form_any_signs(self, mags, signs):
        coefs = [m * s for m, s in zip(mags, signs)]
        assert trig_min_grid(*coefs, grid=GridSpec(64, 2)) >= trig_polynomial_min(*coefs) - 1e-12

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(coefs=near_boundary_coefficients())
    # exactly on the triangle boundary (1/1 = 1/2 + 1/2, 1/0.2 = 1/5 + 1/0.2083),
    # where the valley floor is quartic; the zoom re-centres on the last one
    @example(coefs=(1, 2, 2))
    @example(coefs=(-2, 1, -2))
    @example(coefs=(0.2, 5.0, 0.2 / 0.96))
    # 1.0085 times the boundary, a valley that outran the zoom at n = 768
    @example(coefs=(-0.4692, -0.5104, 4.8077))
    def test_grid_min_reaches_closed_form_near_the_triangle_boundary(self, coefs):
        # near the boundary the minimum lies in a long flat valley; the zoom
        # follows it past its first window and comes within verify's
        # tolerance.  n = 256 is too coarse on the boundary: the (0.2, 5,
        # 0.2083) valley floor stays 1.9e-6 above the minimum there.
        inv = [1 / abs(c) for c in coefs]
        assert 2 * max(inv) * (1 - 1e-12) <= sum(inv) <= 1.05 * 2 * max(inv) * (1 + 1e-12)
        closed = trig_polynomial_min(*coefs)
        for n in (512, 768):
            assert abs(trig_min_grid(*coefs, grid=GridSpec(n, 2)) - closed) <= 1e-6


RHS_SINES = [tuple(math.sin(ell * 2.2) for ell in (1, 1.618, 1.3)),
             tuple(math.sinh(ell * 0.7) for ell in (0.7, 2.9, 1.1))]
TRIG_COEFS = [(1, 1, 1), (-0.4692, -0.5104, 4.8077)]


class TestPhaseTable:
    @pytest.mark.parametrize("n", [*SMALL_GRIDS, 64, 768])
    @pytest.mark.parametrize(
        "in_cosines, as_written",
        [(oracle._rhs_function(*s), rhs_as_written(*s)) for s in RHS_SINES]
        + [(oracle._trig_function(*c), trig_as_written(*c)) for c in TRIG_COEFS],
        ids=["rhs-sin", "rhs-sinh", "trig-equal", "trig-valley"],
    )
    def test_table_grid_equals_the_formula_as_written(self, n, in_cosines, as_written):
        t = phase_axis(n)
        expected = as_written(t[:, None], t[None, :])
        got = on_grid(in_cosines, n)
        assert got.shape == (n, n)
        assert np.array_equal(got, expected)

    def test_sizes_in_turn_give_identical_results(self):
        # the table holds one size at a time; a size built again reads the same
        geom, k = HexGeometry(1, 1.618, 1.3), 2.2
        coefs = (-0.4692, -0.5104, 4.8077)
        results = []
        for n in (64, 128, 64):
            grid = GridSpec(n, 2)
            results.append((rhs_extrema_grid(geom, k, grid), trig_min_grid(*coefs, grid=grid)))
        assert results[0] == results[2]
        assert results[0] != results[1]

    def test_the_table_is_read_only(self):
        for table in oracle._phase_table(64):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0


def lexsort_best(values, largest):
    """The 256 best cells (all, on smaller grids) by (value, flat index), as plain numpy."""
    flat = -values.ravel() if largest else values.ravel()
    return np.lexsort((np.arange(flat.size), flat))[: min(256, flat.size)]


def assert_best_cells(g, n):
    """``_best_cells`` on both sides, and on each alone, against the full grid."""
    values = on_grid(g, n)
    both = oracle._best_cells(g, n, (False, True))
    for largest, (cells, got) in zip((False, True), both):
        assert np.array_equal(cells, lexsort_best(values, largest))
        assert np.array_equal(got, values.ravel()[cells])
        [(alone, _)] = oracle._best_cells(g, n, (largest,))
        assert np.array_equal(alone, cells)


def greedy_seeds(cells, n):
    """The seed pick as a plain loop: a cell is taken unless it lies within
    five cells, on the torus, of a cell already taken on both axes."""
    t = phase_axis(n)
    h = 2 * math.pi / n

    def wrapped_near(x, y):
        return min(abs(x - y), 2 * math.pi - abs(x - y)) < 5 * h

    picked = []
    for idx in cells:
        i, j = divmod(int(idx), n)
        point = (float(t[i]), float(t[j]))
        if any(wrapped_near(point[0], p0) and wrapped_near(point[1], p1) for p0, p1 in picked):
            continue
        picked.append(point)
        if len(picked) >= 4:
            break
    return picked


def det_by_slices(rows):
    """Cofactor expansion along the first row, each minor built from list slices."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0j
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += ((-1) ** j) * head * det_by_slices(minor)
    return total


# coefficients with many exact ties: a zero coefficient makes constant rows,
# columns or diagonals, and (1, 1, 1) is symmetric under swapping the phases
TIED_COEFS = st.sampled_from([0.0, 1.0, -1.0, 2.5])


def counted(g):
    """g, recording the number of cells of each call, the size its arguments
    broadcast to, in ``sizes``."""

    def h(c1, c2, c12):
        h.sizes.append(np.broadcast(c1, c2, c12).size)
        return g(c1, c2, c12)

    h.coefs, h.sizes = g.coefs, []
    return h


class TestCandidateSelection:
    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(n=st.sampled_from([8, 16, 64, 255, 256, 768]),
           coefs=st.tuples(*[TIED_COEFS | st.floats(-5, 5)] * 3))
    @example(n=768, coefs=(1.0, 1.0, 1.0))
    @example(n=768, coefs=(0.0, 0.0, 1.0))
    @example(n=256, coefs=(1.0, 0.0, 0.0))
    @example(n=255, coefs=(0.0, 0.0, 0.0))
    def test_best_cells_are_the_lexsorted_prefix(self, n, coefs):
        assert_best_cells(oracle._trig_function(*coefs), n)

    @pytest.mark.parametrize("n", [8, 16, 64, 120, 128, 256, 768, 1024])
    @pytest.mark.parametrize("sines", RHS_SINES, ids=["rhs-sin", "rhs-sinh"])
    def test_rhs_grids(self, n, sines):
        assert_best_cells(oracle._rhs_function(*sines), n)

    def test_a_constant_reads_every_tile(self):
        # every cell ties with the 256th best, so no tile can be passed over
        g = counted(oracle._trig_function(0, 0, 0))
        assert_best_cells(g, 255)
        g.sizes.clear()
        oracle._best_cells(g, 768, (False,))
        assert sum(g.sizes) == 768 * 768

    @pytest.mark.parametrize("n", [767, 1023])
    @pytest.mark.parametrize("largest", [False, True])
    def test_the_diagonal_ridge(self, n, largest):
        # +-(cos(t1 - t2) + 1e-6 cos t1) peaks along the diagonal t1 = t2, so
        # the best cells lie one per row in a thin ridge across many tiles.
        # Every grid value comes in a mirrored pair but the one at t = 0 on an
        # odd grid, so the 256th best cell is untied with the 255th, and a
        # search that passed over its tile would return another cell
        sign = 1 if largest else -1
        g = oracle._trig_function(sign, 0, sign * 1e-6)
        [(cells, values)] = oracle._best_cells(g, n, (largest,))
        assert np.unique(cells // n // oracle._TILE).size > 16
        assert values[254] != values[255]
        assert_best_cells(g, n)

    def test_the_quartic_valley_on_the_triangle_boundary(self):
        assert_best_cells(oracle._trig_function(0.2, 5.0, 0.2 / 0.96), 768)

    @pytest.mark.parametrize("n", [9, 255, 768, 1024])
    @pytest.mark.parametrize("coefs", [(0, 0, 0), (1, 0, 0), *TRIG_COEFS])
    def test_g_never_sees_more_than_a_block(self, n, coefs):
        g = counted(oracle._trig_function(*coefs))
        oracle._best_cells(g, n, (False, True))
        assert 0 < max(g.sizes) <= oracle._BLOCK_CELLS

    @pytest.mark.parametrize("seed", [1, 2, 20240901])
    def test_verify_reads_a_small_share_of_its_grids(self, seed, monkeypatch):
        # verify's own draws at n = 768: each search reads at most 5% of the
        # cells, both sides together
        search, shares = oracle._best_cells, []

        def best_cells(g, n, sides):
            g = counted(g)
            found = search(g, n, sides)
            shares.append(sum(g.sizes) / (n * n))
            return found

        monkeypatch.setattr(oracle, "_best_cells", best_cells)
        argv = ["verify", "--seed", str(seed), "--det-samples", "1", "--envelope-samples", "3",
                "--trigmin-samples", "3", "--grid-n", "768"]
        assert CliRunner().invoke(cli, argv).exit_code == 0
        assert len(shares) == 6
        assert max(shares) <= 0.05


def tile_of_cells(table, n):
    """A per-tile table spread over the n x n cells of its tiles."""
    cells = np.repeat(np.repeat(table, oracle._TILE, axis=0), oracle._TILE, axis=1)
    return cells[:n, :n]


@st.composite
def rhs_sines(draw):
    """Edge sines of a right side: sin(l k) away from the Dirichlet points,
    or sinh(l kappa) from tiny (kappa = 1e-60) to huge (sinh 300, whose
    square is still a double)."""
    lengths = draw(st.tuples(*[st.floats(0.05, 5)] * 3))
    if draw(st.booleans()):
        k = draw(st.floats(0.1, 30))
        sines = tuple(math.sin(ell * k) for ell in lengths)
        assume(min(map(abs, sines)) >= 0.05)
        return sines
    kappa = 10 ** draw(st.floats(-60, math.log10(60)))
    return tuple(math.sinh(ell * kappa) for ell in lengths)


class TestTileBounds:
    @settings(deadline=None, derandomize=True, max_examples=60)
    # at n = 13 and 25 the last tile is one cell wide, and its bounds are
    # the centre value, computed in another order of operations, +- margin
    @given(n=st.sampled_from([8, 9, 13, 25, 255, 767, 768, 1023, 1024]),
           g=st.one_of(st.tuples(*[TIED_COEFS | st.floats(-5, 5)] * 3).map(
                           lambda c: oracle._trig_function(*c)),
                       rhs_sines().map(lambda s: oracle._rhs_function(*s)),
                       rhs_sines().map(lambda s: oracle._inverse_rhs_function(*(1 / x for x in s)))))
    @example(n=768, g=oracle._rhs_function(*RHS_SINES[0]))
    @example(n=1023, g=oracle._rhs_function(*RHS_SINES[1]))
    @example(n=767, g=oracle._rhs_function(*(math.sinh(ell * 1e-60) for ell in (0.05, 1, 5))))
    @example(n=255, g=oracle._rhs_function(*(math.sinh(ell * 70) for ell in (0.05, 1, 5))))
    @example(n=1024, g=oracle._trig_function(0.2, 5.0, 0.2 / 0.96))
    # past the range of sinh: 1/sinh of 20, 400 and 2000 (which is 0)
    @example(n=255, g=oracle._inverse_rhs_function(*(inv_sinh(ell * 400) for ell in (0.05, 1, 5))))
    def test_every_cell_lies_within_its_tile_bounds(self, n, g):
        values = on_grid(g, n)
        lower, upper = oracle._tile_bounds(g, n)
        assert np.isfinite(values).all()
        assert (tile_of_cells(lower, n) <= values).all()
        assert (values <= tile_of_cells(upper, n)).all()


class TestSeedPick:
    @pytest.mark.parametrize("n", [8, 64, 768])
    @pytest.mark.parametrize("coefs", [(1, 1, 1), (0, 0, 1), (1, 0, 0), *TRIG_COEFS,
                                       (3.19, 3.76, 4.02), (-2.16, -1.07, 4.36)])
    def test_equals_the_greedy_loop_on_grids(self, n, coefs):
        for cells, _ in oracle._best_cells(oracle._trig_function(*coefs), n, (False, True)):
            assert oracle._seeds(cells, n) == greedy_seeds(cells, n)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(n=st.sampled_from([8, 9, 16, 64, 768]), data=st.data())
    def test_equals_the_greedy_loop_on_any_cells(self, n, data):
        # clustered cells, many of them within five cells of each other
        # and across the wrap-around
        size = data.draw(st.integers(1, 64))
        rows = data.draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
        cols = data.draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
        cells = np.array([(r % n) * n + c % n for r, c in zip(rows, cols)])
        assert oracle._seeds(cells, n) == greedy_seeds(cells, n)


# the benchmark's grid (768) and verify's default (1024), grids with ragged
# last tiles (255, 767, 1024), and a small grid of 36 tiles (64)
ZOOM_GRIDS = [64, 255, 767, 768, 1024]
ZOOM = 33 * 33


class TestBatchedZoom:
    """Every seed of a search zooms in one batch, to the same bits as the
    seed-by-seed loop of ``zoom_reference``; a valley falls back to it."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(n=st.sampled_from(ZOOM_GRIDS), rounds=st.integers(0, 3), sines=rhs_sines())
    @example(n=768, rounds=2, sines=RHS_SINES[0])
    @example(n=1024, rounds=2, sines=RHS_SINES[1])
    def test_rhs_extrema_equal_the_seed_by_seed_loop(self, n, rounds, sines):
        grid = GridSpec(n, rounds)
        for g in (oracle._rhs_function(*sines),
                  oracle._inverse_rhs_function(*(1 / s for s in sines))):
            assert oracle._rhs_extrema(g, grid) == zoom_reference.rhs_extrema(g, grid)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(n=st.sampled_from(ZOOM_GRIDS), rounds=st.integers(0, 3),
           coefs=near_boundary_coefficients() | st.tuples(*[TIED_COEFS | st.floats(-5, 5)] * 3))
    @example(n=512, rounds=2, coefs=(-2, 1, -2))
    @example(n=768, rounds=2, coefs=(-2, 1, -2))
    @example(n=512, rounds=2, coefs=(0.2, 5, 0.2 / 0.96))
    @example(n=768, rounds=2, coefs=(0.2, 5, 0.2 / 0.96))
    @example(n=768, rounds=2, coefs=TRIG_COEFS[1])
    def test_trig_min_equals_the_seed_by_seed_loop(self, n, rounds, coefs):
        grid = GridSpec(n, rounds)
        assert trig_min_grid(*coefs, grid=grid) == zoom_reference.trig_min(*coefs, grid)

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(n=st.sampled_from(ZOOM_GRIDS), lengths=st.tuples(*[st.floats(0.5, 3)] * 3),
           alpha=st.floats(-20, 20), param=st.floats(0.1, 30), negative=st.booleans())
    def test_membership_equals_the_seed_by_seed_loop(self, n, lengths, alpha, param, negative):
        geom, grid = HexGeometry(*lengths), GridSpec(n)
        energy = EnergyPoint.negative(param / 10) if negative else EnergyPoint.positive(param)
        extrema, decisions = [], []

        def recording(search):
            def h(g, grid):
                extrema.append(search(g, grid))
                return extrema[-1]
            return h

        for search in (oracle._rhs_extrema, zoom_reference.rhs_extrema):
            with mock.patch.object(oracle, "_rhs_extrema", recording(search)):
                decisions.append(band_membership_grid(geom, VertexCoupling(alpha), energy, grid))
        assert decisions[0] == decisions[1]
        assert extrema[: len(extrema) // 2] == extrema[len(extrema) // 2 :]
        if not negative and decisions[0].kind is not Decision.DIRICHLET:
            assert rhs_extrema_grid(geom, param, grid) == extrema[0]

    def test_a_search_calls_g_once_per_block_and_zoom_round(self, monkeypatch):
        # no window follows a valley: both sides stop after their first
        # block, and the eight seeds zoom together, once per round
        made, rhs = [], oracle._rhs_function
        monkeypatch.setattr(oracle, "_rhs_function", lambda *s: made.append(counted(rhs(*s))) or made[-1])
        rhs_extrema_grid(HexGeometry(1, 1.618, 1.3), 1.0, GridSpec(768))
        assert made[0].sizes == [oracle._BLOCK_CELLS] * 2 + [8 * ZOOM] * 2
        g = counted(oracle._trig_function(1, 1, 1))
        oracle._extrema(g, GridSpec(768), (False,))
        assert g.sizes == [oracle._BLOCK_CELLS] + [4 * ZOOM] * 2

    @pytest.mark.parametrize("coefs, n", [((-2, 1, -2), 512), ((-2, 1, -2), 768),
                                          ((0.2, 5, 0.2 / 0.96), 512), ((0.2, 5, 0.2 / 0.96), 768),
                                          (TRIG_COEFS[1], 768)])
    def test_a_valley_zooms_the_seeds_one_at_a_time(self, coefs, n):
        # a window's best point on its border below its own minimum stops the
        # batch of four within its two rounds; each seed then zooms alone,
        # carrying the minimum, for at least its two rounds
        g = counted(oracle._trig_function(*coefs))
        [lo] = oracle._extrema(g, GridSpec(n), (False,))
        zooms = [size for size in g.sizes if size % ZOOM == 0]
        batch = zooms.count(4 * ZOOM)
        assert batch in (1, 2)
        assert zooms == [4 * ZOOM] * batch + [ZOOM] * (len(zooms) - batch)
        assert len(zooms) - batch >= 4 * 2
        assert lo == zoom_reference.trig_min(*coefs, GridSpec(n))


def sample_columns(samples):
    """The (7, n) columns of (geom, coupling, k, phase) samples, as ``verify`` builds them."""
    return np.array([(g.a, g.b, g.c, cp.alpha, k, ph.theta1, ph.theta2)
                     for g, cp, k, ph in samples]).reshape(-1, 7).T


def det_as_written(geom, coupling, k, phase):
    """The closed-form determinant in CPython's complex arithmetic, as written."""
    (s_a, s_b, s_c), (c_a, c_b, c_c) = _flag_sines(k, geom.lengths)[:2]
    g = coupling.alpha / k
    t1, t2 = phase.theta1, phase.theta2
    bracket = (
        2.0 * s_a * c_b * c_c
        + 2.0 * c_a * s_b * c_c
        + 2.0 * c_a * c_b * s_c
        - 3.0 * s_a * s_b * s_c
        - 2.0 * s_a * math.cos(t1 - t2)
        - 2.0 * s_c * math.cos(t1)
        - 2.0 * s_b * math.cos(t2)
        + 2.0 * g * (c_a * s_b * s_c + s_a * c_b * s_c + s_a * s_b * c_c)
        + g * g * s_a * s_b * s_c
    )
    return -4.0 * bracket * cmath.exp(-1j * (t1 + t2)) / s_a


class TestDetNumericMemo:
    def test_bit_identical_to_the_slice_expansion(self):
        rng = random.Random(31)
        matrices = []
        for _ in range(500):
            geom = HexGeometry(*(rng.uniform(0.5, 3) for _ in range(3)))
            phase = FloquetPhase(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            matrices.append(assemble_m_matrix(geom, VertexCoupling(rng.uniform(-5, 5)),
                                              rng.uniform(0.1, 30), phase))
        # zero heads at every depth, so the expansion skips them
        for _ in range(100):
            rows = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if rng.random() < 0.6 else 0j
                     for _ in range(4)] for _ in range(4)]
            matrices.append(MMatrix(tuple(tuple(row) for row in rows)))
        assert sum(row.count(0) for m in matrices[500:] for row in m.entries) > 100
        # a zero head over an infinite minor: skipped, it never makes 0 * inf
        inf = complex(math.inf, 0)
        matrices.append(MMatrix(((0j, 1 + 0j, 0j, 0j), (1 + 0j, inf, 0j, 0j),
                                 (0j, inf, 1 + 0j, 0j), (0j, inf, 0j, 1 + 0j))))
        assert det_lanes(matrices[-1:]) == [-1]
        expected = [repr(det_by_slices([list(row) for row in m.entries])) for m in matrices]
        # one lane at a time, and all in one call: lanes do not interact
        assert [repr(det_lanes([m])[0]) for m in matrices] == expected
        assert [repr(d) for d in det_lanes(matrices)] == expected

    def test_no_samples_give_empty_columns(self):
        re, im = oracle._assemble_columns(*sample_columns([]))
        assert re.shape == im.shape == (4, 4, 0)
        det_re, det_im = det_numeric(re, im)
        assert det_re.shape == det_im.shape == (0,)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.lists(st.tuples(*[st.floats(0.5, 3)] * 3, st.floats(-5, 5), st.floats(0.1, 30),
                              *[st.floats(-math.pi, math.pi)] * 2), min_size=1, max_size=8))
    def test_columns_equal_the_scalar_assembly_and_expansion(self, draws):
        # verify's draws, clear of its |sin(a k)| < 1e-3 skip
        assume(all(abs(math.sin(a * k)) >= 1e-3 for a, _, _, _, k, _, _ in draws))
        samples = [(HexGeometry(a, b, c), VertexCoupling(alpha), k, FloquetPhase(t1, t2))
                   for a, b, c, alpha, k, t1, t2 in draws]
        matrices = [assemble_m_matrix(*sample) for sample in samples]
        re, im = oracle._assemble_columns(*sample_columns(samples))
        assert [[[repr(complex(x, y)) for x, y in zip(re[r, j].tolist(), im[r, j].tolist())]
                 for j in range(4)] for r in range(4)] == [
            [[repr(m.entries[r][j]) for m in matrices] for j in range(4)] for r in range(4)]
        expected = [repr(det_by_slices([list(row) for row in m.entries])) for m in matrices]
        det_re, det_im = det_numeric(re, im)
        assert [repr(complex(x, y)) for x, y in zip(det_re.tolist(), det_im.tolist())] == expected

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.lists(st.tuples(*[st.floats(0.5, 3)] * 3, st.floats(-5, 5) | st.sampled_from([0.0, -0.0]),
                              st.floats(0.1, 30),
                              *[st.floats(-math.pi, math.pi) | st.sampled_from([0.0, -0.0])] * 2),
                    min_size=1, max_size=8))
    def test_closed_form_columns_equal_the_scalar_closed_form(self, draws):
        # verify's determinant stage: the closed form on columns and on
        # floats equal to its complex expression as written, zero signs
        # included, and its deviation's np.hypot equal to abs of the complex
        assume(all(abs(math.sin(a * k)) >= 1e-3 for a, _, _, _, k, _, _ in draws))
        samples = [(HexGeometry(a, b, c), VertexCoupling(alpha), k, FloquetPhase(t1, t2))
                   for a, b, c, alpha, k, t1, t2 in draws]
        a, b, c, alpha, k, t1, t2 = sample_columns(samples)
        lk = np.stack((a, b, c)) * k
        re, im = _closed_det(np.sin(lk), np.cos(lk), alpha / k, t1, t2, np.cos, np.sin)
        closed = [det_as_written(*sample) for sample in samples]
        assert list(map(repr, map(det_m_closed_form, *zip(*samples)))) == list(map(repr, closed))
        assert [repr(complex(x, y)) for x, y in zip(re.tolist(), im.tolist())] == list(map(repr, closed))
        assert np.hypot(re, im).tolist() == [abs(z) for z in closed]
