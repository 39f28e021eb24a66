"""Brute-force reference implementations for cross-checking the fast paths.

Everything here evaluates the defining formulas directly on phase grids or
by cofactor expansion, sharing no code with the closed forms it validates.
Deliberately simple; not a performance path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_DIRICHLET_TOL,
    DirichletPointError,
    EnergyPoint,
    HexGeometry,
    MMatrix,
    VertexCoupling,
    dispersion,
    dispersion_negative,
    sine_triple,
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


def _grid_extrema(f, n: int, refine_rounds: int, seeds: int = 4):
    """Extrema of f(theta1, theta2) over the torus by grid + local zoom.

    Several well-separated best cells are refined independently so that two
    near-tied basins cannot hide the true extremum; the reported bracket can
    only widen as the grid is refined.
    """
    t = np.linspace(-math.pi, math.pi, n, endpoint=False) + math.pi / n
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    values = f(T1, T2)
    h = 2 * math.pi / n

    def wrapped_near(x: float, y: float) -> bool:
        return min(abs(x - y), 2 * math.pi - abs(x - y)) < 5 * h

    def refine(extreme: str) -> float:
        flat = values.ravel()
        order = np.argsort(flat) if extreme == "min" else np.argsort(-flat)
        best_value = float(flat[order[0]])
        picked: list[tuple[float, float]] = []
        for idx in order[: 64 * seeds]:
            i, j = divmod(int(idx), n)
            point = (float(T1[i, j]), float(T2[i, j]))
            if any(
                wrapped_near(point[0], p0) and wrapped_near(point[1], p1) for p0, p1 in picked
            ):
                continue
            picked.append(point)
            if len(picked) >= seeds:
                break
        for p0, p1 in picked:
            half = 2 * h
            local_best = best_value
            center = (p0, p1)
            for _ in range(refine_rounds):
                lt = np.linspace(-half, half, 33)
                L1, L2 = np.meshgrid(center[0] + lt, center[1] + lt, indexing="ij")
                local = f(L1, L2)
                if extreme == "min":
                    pos = np.unravel_index(np.argmin(local), local.shape)
                    local_best = min(local_best, float(local[pos]))
                else:
                    pos = np.unravel_index(np.argmax(local), local.shape)
                    local_best = max(local_best, float(local[pos]))
                center = (float(L1[pos]), float(L2[pos]))
                half /= 8
            if extreme == "min":
                best_value = min(best_value, local_best)
            else:
                best_value = max(best_value, local_best)
        return float(best_value)

    return refine("min"), refine("max")


def _rhs_extrema(s_a: float, s_b: float, s_c: float, grid: GridSpec) -> tuple[float, float]:
    """Grid extrema of the right side written in the three edge sines (sin or sinh)."""
    const = 1 / s_a**2 + 1 / s_b**2 + 1 / s_c**2

    def f(T1, T2):
        return const + 2 * (
            np.cos(T1) / (s_a * s_b) + np.cos(T2) / (s_a * s_c) + np.cos(T1 - T2) / (s_b * s_c)
        )

    return _grid_extrema(f, grid.n, grid.refine_rounds)


def rhs_extrema_grid(
    geom: HexGeometry,
    k: float,
    grid: GridSpec = GridSpec(),
    dirichlet_tol: float = DEFAULT_DIRICHLET_TOL,
) -> tuple[float, float]:
    """Extrema over the phase torus of the secular condition's right side.

    Evaluates the formula as written: sum of inverse squared sines plus the
    three phase cosine cross terms.
    """
    triple = sine_triple(geom, k, dirichlet_tol)
    if triple.any_vanish:
        raise DirichletPointError(k, triple.vanishing_edges)
    return _rhs_extrema(*triple.values, grid)


def band_membership_grid(
    geom: HexGeometry,
    coupling: VertexCoupling,
    energy: EnergyPoint,
    grid: GridSpec = GridSpec(),
    dirichlet_tol: float = DEFAULT_DIRICHLET_TOL,
) -> BandDecision:
    """Membership decided against the grid-bracketed right-hand-side range."""
    if energy.branch == "positive":
        k = energy.param
        triple = sine_triple(geom, k, dirichlet_tol)
        if triple.any_vanish:
            return BandDecision.dirichlet(triple.vanishing_edges)
        lo, hi = rhs_extrema_grid(geom, k, grid, dirichlet_tol)
        d2 = dispersion(geom, coupling, k, dirichlet_tol) ** 2
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
    positive-product domain.
    """

    def f(T1, T2):
        return a_coef * np.cos(T1 - T2) + b_coef * np.cos(T2) + c_coef * np.cos(T1)

    lo, _ = _grid_extrema(f, grid.n, grid.refine_rounds)
    return lo
