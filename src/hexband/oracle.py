"""Brute-force reference implementations for cross-checking the fast paths.

Everything here evaluates the defining formulas directly on phase grids or
by cofactor expansion, sharing no code with the closed forms it validates.
Deliberately simple, with one concession to speed: the grid functions read
the phases through cos t1, cos t2 and cos(t1 - t2), in the formulas' written
order, and the full n x n grid of cos(t1 - t2) is one read-only table kept
for the last grid size.
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


def _on_grid(g, n: int) -> np.ndarray:
    """g on the n x n phase grid, from the shared cosine table."""
    _, cos_t, cos_diff = _phase_table(n)
    return g(cos_t[:, None], cos_t[None, :], cos_diff)


def _grid_min(g, values: np.ndarray, refine_rounds: int) -> float:
    """Minimum over the torus of g(cos t1, cos t2, cos(t1 - t2)) by grid + local zoom.

    ``values`` is g on the n x n phase grid (``_on_grid``).  Only the best
    ``_CANDIDATES`` cells are read, so they are found by partial selection
    and only they are sorted, stably: equal values keep the order partial
    selection left them in.  From them, several well-separated cells are
    refined independently so that two near-tied basins cannot hide the true
    minimum; the result can only fall as the grid is refined.

    Each zoom round evaluates g on a 33 x 33 window of its own phases
    around the best point so far, then shrinks the window eightfold.  Near
    a flat valley the minimum can lie several cells from every seed, past
    what shrinking windows reach; so while a window's best point lies on its
    border and lowers ``best``, the window moves there at the same width and
    the round is not counted.  ``best`` falls strictly at each such move,
    which bounds the walk.  A maximum is the minimum of -g.
    """
    n = values.shape[0]
    t = _phase_table(n)[0]
    h = 2 * math.pi / n

    def wrapped_near(x: float, y: float) -> bool:
        return min(abs(x - y), 2 * math.pi - abs(x - y)) < 5 * h

    flat = values.ravel()
    m = min(_CANDIDATES, flat.size)
    best_cells = np.argpartition(flat, m - 1)[:m]
    order = best_cells[np.argsort(flat[best_cells], kind="stable")]
    best = float(flat[order[0]])
    picked: list[tuple[float, float]] = []
    for idx in order:
        i, j = divmod(int(idx), n)
        point = (float(t[i]), float(t[j]))
        if any(wrapped_near(point[0], p0) and wrapped_near(point[1], p1) for p0, p1 in picked):
            continue
        picked.append(point)
        if len(picked) >= _SEEDS:
            break
    for c1, c2 in picked:
        half = 2 * h
        rounds = 0
        while rounds < refine_rounds:
            lt = np.linspace(-half, half, 33)
            l1, l2 = c1 + lt, c2 + lt
            local = g(np.cos(l1)[:, None], np.cos(l2)[None, :], np.cos(l1[:, None] - l2[None, :]))
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
        return const + 2 * (c1 / (s_a * s_b) + c2 / (s_a * s_c) + c12 / (s_b * s_c))

    return g


def _trig_function(a_coef: float, b_coef: float, c_coef: float):
    """A cos(t1 - t2) + B cos(t2) + C cos(t1), in the phase cosines."""

    def g(c1, c2, c12):
        return a_coef * c12 + b_coef * c2 + c_coef * c1

    return g


def _rhs_extrema(s_a: float, s_b: float, s_c: float, grid: GridSpec) -> tuple[float, float]:
    """Grid extrema of the right side written in the three edge sines."""
    g = _rhs_function(s_a, s_b, s_c)
    values = _on_grid(g, grid.n)
    lo = _grid_min(g, values, grid.refine_rounds)
    # the maximum is the minimum of -g; values is this call's own array
    np.negative(values, out=values)
    hi = -_grid_min(lambda c1, c2, c12: -g(c1, c2, c12), values, grid.refine_rounds)
    return lo, hi


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
    elif energy.branch == "negative":
        kappa = energy.param
        lo, hi = _rhs_extrema(*(math.sinh(ell * kappa) for ell in geom.lengths), grid)
        d2 = dispersion_negative(geom, coupling, kappa) ** 2
    else:
        raise ValueError("membership is defined on the positive/negative branches only")
    return BandDecision.in_band() if lo <= d2 <= hi else BandDecision.in_gap()


def det_numeric(m: MMatrix) -> complex:
    """Determinant of the 4x4 cell matrix by direct cofactor expansion."""
    rows = [list(row) for row in m.entries]

    def det(sub: list[list[complex]]) -> complex:
        if len(sub) == 1:
            return sub[0][0]
        total = 0j
        for j, head in enumerate(sub[0]):
            if head == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += ((-1) ** j) * head * det(minor)
        return total

    return det(rows)


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
    return _grid_min(g, _on_grid(g, grid.n), grid.refine_rounds)
