"""Brute-force reference implementations for cross-checking the fast paths.

Everything here evaluates the defining formulas directly on phase grids or
by cofactor expansion, sharing no code with the closed forms it validates.
Deliberately simple, with concessions to speed that keep every value
bit-identical: the grids read the phases through cos t1, cos t2 and one
shared read-only table of cos(t1 - t2), in their formulas' order of
operations; an extremum search evaluates its grid a block of rows at a
time, keeps each block's column extrema and evaluates again only the cells
of the best of those; the cofactor expansion evaluates each minor once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DirichletPointError,
    EnergyPoint,
    HexGeometry,
    MMatrix,
    VertexCoupling,
    _check_k,
    checked_sines,
    dispersion_negative,
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
# Phase-grid cells evaluated at a time (96 KiB of float64): the full grid is
# never held, so a search allocates nothing that grows with n * n.
_BLOCK_CELLS = 12 * 1024


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


def _on_grid(g, n: int, rows: slice = slice(None)) -> np.ndarray:
    """g on ``rows`` of the n x n phase grid, from the shared cosine table."""
    _, cos_t, cos_diff = _phase_table(n)
    return g(cos_t[rows, None], cos_t[None, :], cos_diff[rows])


def _best_cells(g, n: int, sides: tuple[bool, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each side, smallest (False) or largest (True), the min(_CANDIDATES,
    n * n) best cells of g on the n x n phase grid as flat indices in
    (value, flat index) order, with their values.

    The grid is evaluated _BLOCK_CELLS at a time and never held whole: each
    block of rows keeps only the extremum of each of its columns, a strip.
    The strips are disjoint, so the m-th best strip extremum is no better
    than the m-th best cell, and only the strips at least as good as it
    (about m of them, whatever the grid) can hold candidates.  Their cells
    are evaluated again, elementwise, to the same bits as in the grid.  With
    fewer than m strips every cell is read.
    """
    _, cos_t, cos_diff = _phase_table(n)
    m = min(_CANDIDATES, n * n)
    rows = min(n, max(1, _BLOCK_CELLS // n))
    starts = range(0, n, rows)
    strips = [np.empty((len(starts), n)) for _ in sides]
    if len(starts) * n >= m:
        for b, r in enumerate(starts):
            block = _on_grid(g, n, slice(r, r + rows))
            for largest, ext in zip(sides, strips):
                (block.max if largest else block.min)(axis=0, out=ext[b])
    result = []
    for largest, ext in zip(sides, strips):
        if ext.size < m:
            cells = np.arange(n * n)
        else:
            ext = ext.ravel()
            k = ext.size - m if largest else m - 1
            bound = np.partition(ext, k)[k]
            b, j = np.divmod(np.flatnonzero(ext >= bound if largest else ext <= bound), n)
            i = b[:, None] * rows + np.arange(rows)
            cells = (i * n + j[:, None])[i < n]
        i, j = np.divmod(cells, n)
        values = g(cos_t[i], cos_t[j], np.take(cos_diff, cells))
        key = -values if largest else values
        best = key <= np.partition(key, m - 1)[m - 1]
        cells, values = cells[best], values[best]
        order = np.lexsort((cells, key[best]))[:m]
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


def _grid_min(g, n: int, cells: np.ndarray, best: float, refine_rounds: int,
              negate: bool = False) -> float:
    """Minimum over the torus of g(cos t1, cos t2, cos(t1 - t2)) by grid + local zoom.

    ``cells`` are the best ``_CANDIDATES`` cells of the n x n phase grid
    (``_best_cells``) and ``best`` is g at the first; ``negate`` seeks the
    minimum of -g, a maximum, from the largest cells, with ``best`` negated.  Several well-separated cells
    among them (``_seeds``) are refined independently so that two near-tied
    basins cannot hide the true minimum; the result can only fall as the
    grid is refined.

    Each zoom round evaluates g on a 33 x 33 window of its own phases
    around the best point so far, then shrinks the window eightfold.  Near
    a flat valley the minimum can lie several cells from every seed, past
    what shrinking windows reach; so while a window's best point lies on its
    border and lowers ``best``, the window moves there at the same width and
    the round is not counted.  ``best`` falls strictly at each such move,
    which bounds the walk.
    """
    f = (lambda c1, c2, c12: -g(c1, c2, c12)) if negate else g
    for c1, c2 in _seeds(cells, n):
        half = 4 * math.pi / n
        rounds = 0
        while rounds < refine_rounds:
            lt = np.linspace(-half, half, 33)
            l1, l2 = c1 + lt, c2 + lt
            local = f(np.cos(l1)[:, None], np.cos(l2)[None, :], np.cos(l1[:, None] - l2[None, :]))
            i, j = np.unravel_index(np.argmin(local), local.shape)
            value = float(local[i, j])
            c1, c2 = float(l1[i]), float(l2[j])
            if value < best and (i in (0, 32) or j in (0, 32)):
                # the valley runs on past the window: follow it at this width
                best = value
                continue
            best = min(best, value)
            half /= 8
            rounds += 1
    return best


def _rhs_function(s_a: float, s_b: float, s_c: float):
    """The right side in the three edge sines (sin or sinh), in the phase cosines."""
    const = 1 / s_a**2 + 1 / s_b**2 + 1 / s_c**2

    def g(c1, c2, c12):
        out = c1 / (s_a * s_b) + c2 / (s_a * s_c)
        out += c12 / (s_b * s_c)
        out *= 2
        out += const
        return out

    return g


def _trig_function(a_coef: float, b_coef: float, c_coef: float):
    """A cos(t1 - t2) + B cos(t2) + C cos(t1), in the phase cosines."""

    def g(c1, c2, c12):
        out = a_coef * c12
        out += b_coef * c2
        out += c_coef * c1
        return out

    return g


def _rhs_extrema(s_a: float, s_b: float, s_c: float, grid: GridSpec) -> tuple[float, float]:
    """Grid extrema of the right side written in the three edge sines, from
    one pass over the grid."""
    g, n = _rhs_function(s_a, s_b, s_c), grid.n
    (lo_cells, lo), (hi_cells, hi) = _best_cells(g, n, (False, True))
    lo = _grid_min(g, n, lo_cells, float(lo[0]), grid.refine_rounds)
    return lo, -_grid_min(g, n, hi_cells, -float(hi[0]), grid.refine_rounds, negate=True)


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
    return _rhs_extrema(*sines, grid)


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
        lo, hi = _rhs_extrema(*sines, grid)
        # the dispersion as written, on the sines already checked above
        d = coupling.alpha / k
        for s, c in zip(sines, cosines):
            d += c / s
        d2 = d**2
    else:
        kappa = energy.param
        lo, hi = _rhs_extrema(*(math.sinh(ell * kappa) for ell in geom.lengths), grid)
        d2 = dispersion_negative(geom, coupling, kappa) ** 2
    return BandDecision.in_band() if lo <= d2 <= hi else BandDecision.in_gap()


def det_numeric(m: MMatrix) -> complex:
    """Determinant of the 4x4 cell matrix by direct cofactor expansion, each
    minor (the columns left at its row) evaluated once."""
    rows = m.entries
    minors = {(j,): rows[-1][j] for j in range(len(rows))}

    def det(r: int, cols: tuple[int, ...]) -> complex:
        if cols not in minors:
            total = 0j
            for j, col in enumerate(cols):
                head = rows[r][col]
                if head == 0:
                    continue
                total += ((-1) ** j) * head * det(r + 1, cols[:j] + cols[j + 1 :])
            minors[cols] = total
        return minors[cols]

    return det(0, tuple(range(len(rows))))


def trig_min_grid(
    a_coef: float, b_coef: float, c_coef: float, grid: GridSpec = GridSpec()
) -> float:
    """Grid minimum of A cos(t1 - t2) + B cos(t2) + C cos(t1) with refinement.

    Works for any coefficient signs; validates the closed form on its
    positive-product domain.  The full grid reads the shared cosine table.
    Near the triangle condition's boundary the minimum lies in a long flat
    valley, which the zoom follows past its first window.
    """
    g = _trig_function(a_coef, b_coef, c_coef)
    [(cells, values)] = _best_cells(g, grid.n, (False,))
    return _grid_min(g, grid.n, cells, float(values[0]), grid.refine_rounds)
