"""Brute-force reference implementations for cross-checking the fast paths.

Everything here evaluates the defining formulas directly on phase grids or
by cofactor expansion, sharing no code with the closed forms it validates.
Deliberately simple, with concessions to speed that keep every value
bit-identical: the grids read the phases through cos t1, cos t2 and one
shared read-only table of cos(t1 - t2), in their formulas' order of
operations; an extremum search bounds its grid function, a trigonometric
polynomial in the two phases, on square tiles of cells by Taylor's theorem
and evaluates only the tiles whose bounds could hold its best cells, a
block of tiles at a time, each tile's row and column of cosines broadcast
against its cells of the table; the seeds of a search then zoom together,
one batch per round, and one at a time only where a window follows a
valley, to the values of a seed-by-seed zoom; the cell matrices are core's
one formula evaluated on columns, and their cofactor expansion runs once
across all samples, on columns of real and imaginary parts in CPython's
complex formulas (numpy's complex arithmetic rounds differently), each
minor evaluated once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DirichletPointError,
    EnergyPoint,
    HexGeometry,
    VertexCoupling,
    _cell_entries,
    _check_k,
    _product,
    checked_sines,
    inv_sinh,
)
from .bands import BandDecision

__all__ = [
    "GridSpec",
    "rhs_extrema_grid",
    "band_membership_grid",
    "det_numeric",
    "trig_min_grid",
]


@dataclass(frozen=True)
class GridSpec:
    """Phase-grid resolution: n points per axis plus local refinement passes."""

    n: int = 1024
    refine_rounds: int = 2

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid needs at least 8 points per axis")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")


# Well-separated best grid cells refined per minimum.
_SEEDS = 4
# Best grid cells scanned for those seeds.
_CANDIDATES = 64 * _SEEDS
# Phase cells per side of a branch-and-bound tile.
_TILE = 12
# Tiles a search reads at a time.
_BLOCK_TILES = 32
# Phase-grid cells evaluated at a time (36 KiB of float64): the full grid is
# never held, so a search allocates nothing that grows with n * n.
_BLOCK_CELLS = _BLOCK_TILES * _TILE * _TILE


@functools.lru_cache(maxsize=1)
def _phase_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point phase axis ``t``, ``cos t`` and the n x n ``cos(t1 - t2)``.

    ``t`` holds the cell centres of n cells on [-pi, pi).  The n x n table
    depends on n alone, so it is built once for the last size asked for and
    shared, read-only, by every grid on that size (8 MiB at n = 1024).  It
    is built in place, so that only one n x n array is allocated.
    """
    t = np.linspace(-math.pi, math.pi, n, endpoint=False) + math.pi / n
    cos_diff = t[:, None] - t[None, :]
    np.cos(cos_diff, out=cos_diff)
    cos_t = np.cos(t)
    for a in (t, cos_t, cos_diff):
        a.setflags(write=False)
    return t, cos_t, cos_diff


@functools.lru_cache(maxsize=1)
def _tile_table(n: int) -> tuple[np.ndarray, ...]:
    """The tiles of ``_TILE`` x ``_TILE`` phase cells of the n x n grid.

    Per tile row (and column): its first cell index and its half-width h,
    half the distance between its outermost cell phases (the last tile is
    narrower where ``_TILE`` does not divide n); then the cosine and sine of
    the tile centres u, and of the centre differences u1 - u2, tile row by
    tile column.  Built once for the last size asked for, like
    ``_phase_table``.
    """
    t = _phase_table(n)[0]
    first = np.arange(0, n, _TILE)
    last = np.minimum(first + _TILE, n) - 1
    centre = (t[first] + t[last]) / 2
    diff = centre[:, None] - centre[None, :]
    table = (first, (t[last] - t[first]) / 2, np.cos(centre), np.sin(centre),
             np.cos(diff), np.sin(diff))
    for a in table:
        a.setflags(write=False)
    return table


def _tile_bounds(g, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Certified lower and upper bounds of g over each tile of the n x n grid.

    g = A cos(t1 - t2) + B cos t2 + C cos t1 + K, its coefficients in
    ``g.coefs``.  On a tile with centre u = (u1, u2) and half-widths
    (h1, h2), Taylor's theorem with the Lagrange remainder gives

        |g(t) - g(u)| <= |d1 g(u)| h1 + |d2 g(u)| h2
                         + (|A| + |C|) h1^2 / 2 + (|A| + |B|) h2^2 / 2 + |A| h1 h2,

    with d1 g = -A sin(u1 - u2) - C sin u1 and d2 g = A sin(u1 - u2) - B sin u2,
    since the second derivatives are bounded by |A| + |C|, |A| + |B| and |A|.
    The bounds widen this by 1e-12 (|A| + |B| + |C| + |K|).  That margin
    dominates, by orders of magnitude, every rounding it has to cover: a
    computed cell value, read from the rounded cos t and cos(t1 - t2), is
    within a few ulp of that sum of the exact g at its phases, and so is
    the computed centre value and the computed reach.  Non-finite
    coefficients give non-finite bounds, which prove nothing.
    """
    a, b, c, k = g.coefs
    _, h, cos_u, sin_u, cos_du, sin_du = _tile_table(n)
    h1, h2 = h[:, None], h[None, :]
    centre = a * cos_du + b * cos_u[None, :] + c * cos_u[:, None] + k
    d1 = -a * sin_du - c * sin_u[:, None]
    d2 = a * sin_du - b * sin_u[None, :]
    reach = np.abs(d1) * h1 + np.abs(d2) * h2
    reach += (abs(a) + abs(c)) / 2 * h1**2 + (abs(a) + abs(b)) / 2 * h2**2 + abs(a) * h1 * h2
    reach += 1e-12 * (abs(a) + abs(b) + abs(c) + abs(k))
    return centre - reach, centre + reach


def _best_cells(g, n: int, sides: tuple[bool, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each side, smallest (False) or largest (True), the min(_CANDIDATES,
    n * n) best cells of g on the n x n phase grid as flat indices in
    (value, flat index) order, with their values.

    A branch-and-bound over tiles of phase cells (after Shubert, SIAM J.
    Numer. Anal. 9, 1972): each side reads its tiles in the order of their
    certified bounds (``_tile_bounds``), _BLOCK_TILES tiles at a time, and
    keeps only its m best cells so far.  It stops once the m-th best value
    read is strictly better than the bound of every unread tile: no cell
    there can be among the m best, nor tie with the m-th.  A tie-rich g,
    such as a constant, reads every tile.  The first block is taken by a
    partial sort, whose next element is the smallest unread bound; the
    other tiles are sorted only when a second block is needed.  A block is
    read tile-shaped: cos t1 and cos t2 as a row and a column per tile,
    cos(t1 - t2) gathered from the shared table and g broadcast over them,
    to the same bits as in the full grid; only the ragged last tiles, where
    _TILE does not divide n, are masked.  So the result is the full grid's
    (value, flat index) prefix.
    """
    _, cos_t, cos_diff = _phase_table(n)
    first = _tile_table(n)[0]
    lower, upper = _tile_bounds(g, n)
    m = min(_CANDIDATES, n * n)
    # each tile's _TILE cell indices along one axis, the ragged last clipped
    span = first[:, None] + np.arange(_TILE)
    inside = span < n
    np.minimum(span, n - 1, out=span)
    result = []
    for largest in sides:
        bound = (-upper if largest else lower).ravel()
        tiles = np.argpartition(bound, min(_BLOCK_TILES, bound.size - 1))
        cells, values = np.empty(0, dtype=np.intp), np.empty(0)
        for start in range(0, tiles.size, _BLOCK_TILES):
            if start == _BLOCK_TILES:
                tiles[start:] = tiles[start:][np.argsort(bound[tiles[start:]])]
            p, q = np.divmod(tiles[start : start + _BLOCK_TILES], first.size)
            i, j = span[p][:, :, None], span[q][:, None, :]
            read = i * n + j
            block = g(cos_t[i], cos_t[j], np.take(cos_diff, read))
            if n % _TILE:
                keep = inside[p][:, :, None] & inside[q][:, None, :]
                read, block = read[keep], block[keep]
            cells = np.concatenate((cells, read.ravel()))
            values = np.concatenate((values, block.ravel()))
            if cells.size < m:
                continue
            key = -values if largest else values
            kth = np.partition(key, m - 1)[m - 1]
            keep = np.flatnonzero(key <= kth)
            if keep.size > m:
                keep = keep[np.lexsort((cells[keep], key[keep]))[:m]]
            cells, values = cells[keep], values[keep]
            end = start + _BLOCK_TILES
            if end < tiles.size and kth < bound[tiles[end]]:
                break
        order = np.lexsort((cells, -values if largest else values))[:m]
        result.append((cells[order], values[order]))
    return result


def _seeds(cells: np.ndarray, n: int) -> list[tuple[float, float]]:
    """The phases of up to _SEEDS of ``cells``, taken greedily in order: a cell
    is taken when it lies, on the torus, five cells or more from each cell
    taken before along at least one axis."""
    t = _phase_table(n)[0]
    phases = np.stack((t[cells // n], t[cells % n]))
    free = np.ones(cells.size, dtype=bool)
    picked: list[tuple[float, float]] = []
    while len(picked) < _SEEDS and free.any():
        i = int(free.argmax())
        picked.append((float(phases[0, i]), float(phases[1, i])))
        d = np.abs(phases - phases[:, i : i + 1])
        free &= (np.minimum(d, 2 * math.pi - d) >= 5 * (2 * math.pi / n)).any(axis=0)
    return picked


@functools.lru_cache(maxsize=16)
def _zoom_offsets(half: float) -> np.ndarray:
    """The 33 phase offsets of a zoom window of half-width ``half``, read-only."""
    offsets = np.linspace(-half, half, 33)
    offsets.setflags(write=False)
    return offsets


def _zoom(g, n: int, windows: list, refine_rounds: int) -> np.ndarray | None:
    """Each window's minimum of g, or of -g where it seeks the largest, by local zoom.

    A window (largest, c1, c2, best) starts at the seed (c1, c2) with its
    running minimum ``best``.  Each round evaluates g on a 33 x 33 window of
    its own phases around the best point so far, for all windows as one
    (windows, 33, 33) array, then shrinks every window eightfold.  Near a
    flat valley the minimum can lie several cells from every seed, past
    what shrinking windows reach; so while a window's best point lies on its
    border and lowers ``best``, the window moves there at the same width and
    the round is not counted.  ``best`` falls strictly at each such move,
    which bounds the walk.  Only a single window follows a valley: for
    several, the first such move returns None.
    """
    largest, c1, c2, best = map(np.array, zip(*windows))
    rows = np.arange(c1.size)
    half, rounds = 4 * math.pi / n, 0
    while rounds < refine_rounds:
        lt = _zoom_offsets(half)
        l1, l2 = c1[:, None] + lt, c2[:, None] + lt
        local = g(np.cos(l1)[:, :, None], np.cos(l2)[:, None, :],
                  np.cos(l1[:, :, None] - l2[:, None, :])).reshape(c1.size, -1)
        np.negative(local, out=local, where=largest[:, None])
        at = local.argmin(axis=1)
        value = local[rows, at]
        i, j = np.divmod(at, 33)
        c1, c2 = l1[rows, i], l2[rows, j]
        border = (i % 32 == 0) | (j % 32 == 0)  # row or column 0 or 32
        if (border & (value < best)).any():
            # the valley runs on past the window: follow it at this width
            if c1.size > 1:
                return None
            best = value
            continue
        best = np.where(value < best, value, best)
        half /= 8
        rounds += 1
    return best


def _extrema(g, grid: GridSpec, sides: tuple[bool, ...]) -> list[float]:
    """For each side, the minimum (False) or maximum (True) of
    g(cos t1, cos t2, cos(t1 - t2)) over the torus, by grid + local zoom.

    The best ``_CANDIDATES`` cells of each side (``_best_cells``) give
    several well-separated seeds (``_seeds``), zoomed independently so that
    two near-tied basins cannot hide the true extremum; the result can only
    improve as the grid is refined.  All seeds zoom in one batch
    (``_zoom``), each from its side's best cell value, to the values of
    the seed-by-seed loop, which carries one running minimum per side
    through its seeds in turn: that minimum is never above a window's own,
    so where no window follows a valley, neither does the loop, and both
    take the least of the same values.  Where one does, the seeds zoom one
    at a time, each from the minimum carried so far, as that loop does.
    """
    n = grid.n
    windows = [(largest, c1, c2, -float(values[0]) if largest else float(values[0]))
               for largest, (cells, values) in zip(sides, _best_cells(g, n, sides))
               for c1, c2 in _seeds(cells, n)]
    batch = _zoom(g, n, windows, grid.refine_rounds)
    found = {}
    for w, (largest, c1, c2, start) in enumerate(windows):
        start = found.get(largest, start)
        own = batch[w] if batch is not None else _zoom(
            g, n, [(largest, c1, c2, start)], grid.refine_rounds)[0]
        found[largest] = min(start, float(own))
    return [-found[largest] if largest else found[largest] for largest in sides]


def _rhs_function(s_a: float, s_b: float, s_c: float):
    """The right side in the three edge sines (sin or sinh), in the phase cosines.

    ``g.coefs`` is (A, B, C, K) of the same function written as
    A cos(t1 - t2) + B cos t2 + C cos t1 + K, for ``_tile_bounds``.
    """
    const = 1 / s_a**2 + 1 / s_b**2 + 1 / s_c**2

    def g(c1, c2, c12):
        out = c1 / (s_a * s_b) + c2 / (s_a * s_c)
        out += c12 / (s_b * s_c)
        out *= 2
        out += const
        return out

    g.coefs = (2 / (s_b * s_c), 2 / (s_a * s_c), 2 / (s_a * s_b), const)
    return g


def _trig_function(a_coef: float, b_coef: float, c_coef: float, k_coef: float = 0.0):
    """A cos(t1 - t2) + B cos(t2) + C cos(t1) + K, in the phase cosines, with
    ``g.coefs`` = (A, B, C, K) for ``_tile_bounds``."""

    def g(c1, c2, c12):
        out = a_coef * c12
        out += b_coef * c2
        out += c_coef * c1
        if k_coef:
            out += k_coef
        return out

    g.coefs = (a_coef, b_coef, c_coef, k_coef)
    return g


def _inverse_rhs_function(u_a: float, u_b: float, u_c: float):
    """:func:`_rhs_function` in the inverse sines u = 1/s, which stay finite
    where sinh(l*kappa) overflows, and whose squares underflow instead."""
    return _trig_function(2 * (u_b * u_c), 2 * (u_a * u_c), 2 * (u_a * u_b),
                          u_a * u_a + u_b * u_b + u_c * u_c)


def _rhs_extrema(g, grid: GridSpec) -> tuple[float, float]:
    """Grid extrema of the right side ``g``, from one search over the grid."""
    return tuple(_extrema(g, grid, (False, True)))


def rhs_extrema_grid(
    geom: HexGeometry, k: float, grid: GridSpec = GridSpec()
) -> tuple[float, float]:
    """Extrema over the phase torus of the secular condition's right side.

    Evaluates the formula as written: sum of inverse squared sines plus the
    three phase cosine cross terms, the full grid from the shared cosine
    table and each zoom window from its own phases.
    """
    _check_k(k)
    sines, _ = checked_sines(k, HexGeometry.EDGE_NAMES, geom.lengths)
    return _rhs_extrema(_rhs_function(*sines), grid)


def band_membership_grid(
    geom: HexGeometry,
    coupling: VertexCoupling,
    energy: EnergyPoint,
    grid: GridSpec = GridSpec(),
) -> BandDecision:
    """Membership decided against the grid-bracketed right-hand-side range."""
    if energy.branch == "positive":
        k = energy.param
        try:
            sines, cosines = checked_sines(k, HexGeometry.EDGE_NAMES, geom.lengths)
        except DirichletPointError as exc:
            return BandDecision.dirichlet(exc.edges)
        lo, hi = _rhs_extrema(_rhs_function(*sines), grid)
        # the dispersion as written, on the sines already checked above
        d = coupling.alpha / k
        for s, c in zip(sines, cosines):
            d += c / s
        d2 = d**2
    else:
        kappa = energy.param
        lo, hi = _rhs_extrema(_inverse_rhs_function(*(inv_sinh(ell * kappa)
                                                      for ell in geom.lengths)), grid)
        # the dispersion as written: coth(l*kappa) = 1/tanh(l*kappa), summed
        d = coupling.alpha / kappa
        for ell in geom.lengths:
            d += 1.0 / math.tanh(ell * kappa)
        d2 = d**2
    return BandDecision.in_band() if lo <= d2 <= hi else BandDecision.in_gap()


def _assemble_columns(a, b, c, alpha, k, t1, t2) -> tuple[np.ndarray, np.ndarray]:
    """``assemble_m_matrix`` over columns of samples' lengths, couplings, k and phases.

    Returns the (4, 4, n) real and imaginary parts of the n matrices, each
    entry equal to ``assemble_m_matrix``'s bit for bit: both evaluate
    ``core._cell_entries``, here on columns, with ``np.sin``/``np.cos`` in
    place of the libm calls, which ``tests/test_core.py`` pins as equal on
    unreduced arguments over the whole range drawn here.  Every sin(a*k) must
    be clear of the Dirichlet guard; it is not checked.
    """
    parts = _cell_entries(a, b, c, alpha, k, t1, t2, np.sin(a * k), np.cos, np.sin)
    out = np.empty((32, k.size))
    for row, part in zip(out, parts):
        row[...] = part
    return out[0::2].reshape(4, 4, -1), out[1::2].reshape(4, 4, -1)


@np.errstate(over="ignore", invalid="ignore")
def det_numeric(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of n 4x4 complex matrices by direct cofactor expansion.

    ``re`` and ``im`` are the (4, 4, n) real and imaginary parts of the
    matrices; the result is the (n,) real and imaginary parts of their
    determinants.  The expansion runs once over all n, each minor (the
    columns left at its row) evaluated once, in CPython's complex formulas,
    so that each determinant is the scalar expansion's bit for bit.  A zero
    head is skipped in its own matrix: its product with an infinite minor
    never reaches the sum.  The minors are built from the last row up, not
    by a closure that recurses: such a closure is a reference cycle, which
    holds every minor's columns until the cyclic garbage collector runs.
    """
    size = len(re)
    live = (re != 0) | (im != 0)
    # (-1)**j * head for even and odd j, every entry at once
    signed = [_product((sign, 0.0), (re, im)) for sign in (1.0, -1.0)]
    minors = {(j,): (re[-1, j], im[-1, j]) for j in range(size)}
    for r in range(size - 2, -1, -1):
        for cols in itertools.combinations(range(size), size - r):
            total = np.zeros(re.shape[-1]), np.zeros(re.shape[-1])
            for j, col in enumerate(cols):
                hr, hi = signed[j % 2]
                term = _product((hr[r, col], hi[r, col]), minors[cols[:j] + cols[j + 1 :]])
                total = tuple(np.where(live[r, col], t + u, t) for t, u in zip(total, term))
            minors[cols] = total
    return minors[tuple(range(size))]


def trig_min_grid(
    a_coef: float, b_coef: float, c_coef: float, grid: GridSpec = GridSpec()
) -> float:
    """Grid minimum of A cos(t1 - t2) + B cos(t2) + C cos(t1) with refinement.

    Works for any coefficient signs; validates the closed form on its
    positive-product domain.  The full grid reads the shared cosine table.
    Near the triangle condition's boundary the minimum lies in a long flat
    valley, which the zoom follows past its first window.
    """
    [lo] = _extrema(_trig_function(a_coef, b_coef, c_coef), grid, (False,))
    return lo
