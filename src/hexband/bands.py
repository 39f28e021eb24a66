"""Band membership, spectrum scanning and flat-band machinery.

For a positive energy E = k^2 the secular condition reads D(k)^2 = R(theta),
with D the cotangent dispersion and R the phase-dependent right-hand side.
As the Bloch phases sweep the torus, R fills exactly the interval
[lower^2, upper^2] with

    upper = 1/|sin ak| + 1/|sin bk| + 1/|sin ck|
    lower = max(0, 2*max_l 1/|sin lk| - upper)

so E is in the spectrum iff lower <= |D(k)| <= upper.  The negative branch
E = -kappa^2 uses the hyperbolic analogues.  A scan takes its edges from the
signs of the boundary functions D -+ upper and D -+ lower, four rows that each
turn at most once between Dirichlet points (k times each decreases there), or
once in the whole window on the negative branch (kappa times each increases).
So the window ends and the Dirichlet points alone cut the window into pieces;
pieces where two rows turn are halved until each holds one, and each change of
membership is bisected (:func:`_halve`).  The sample table that the CSV format
prints is a separate product (:func:`sample_grid`).  The point and column
kernels of both branches live in :mod:`hexband.core`; this module compares
their terms and turns them into reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_DIRICHLET_TOL,
    DirichletPointError,
    EnergyPoint,
    HexGeometry,
    VertexCoupling,
    _SAME_POINT,
    _negative_terms,
    _negative_terms_grid,
    boundary_rows_grid,
    positive_terms,
    positive_terms_grid,
)
from .numtheory import CommensurabilityWitness, commensurability_witness
from .report import FlatBand, SampleTable, SpectrumReport

__all__ = [
    "Decision",
    "BandDecision",
    "RhsEnvelope",
    "trig_polynomial_min",
    "rhs_envelope",
    "band_membership",
    "scan_spectrum",
    "negative_spectrum_scan",
    "sample_grid",
    "flat_band_energies",
    "verify_flat_band",
]


class Decision(Enum):
    BAND = "band"
    GAP = "gap"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class BandDecision:
    """Membership verdict at one energy."""

    kind: Decision
    dirichlet_edges: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind is Decision.DIRICHLET and not self.dirichlet_edges:
            raise ValueError("a Dirichlet decision must name the vanishing edges")

    @classmethod
    def in_band(cls) -> "BandDecision":
        return cls(Decision.BAND)

    @classmethod
    def in_gap(cls) -> "BandDecision":
        return cls(Decision.GAP)

    @classmethod
    def dirichlet(cls, edges: tuple[str, ...]) -> "BandDecision":
        return cls(Decision.DIRICHLET, edges)


@dataclass(frozen=True)
class RhsEnvelope:
    """Range [lower, upper] of sqrt(R) over all Bloch phases."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper):
            raise ValueError(f"need 0 <= lower <= upper, got {self.lower}, {self.upper}")


def trig_polynomial_min(a_coef: float, b_coef: float, c_coef: float) -> float:
    """Closed-form minimum of A cos(t1 - t2) + B cos(t2) + C cos(t1).

    Defined for A*B*C > 0.  When the inverse magnitudes satisfy the triangle
    condition 1/|A| + 1/|B| + 1/|C| >= 2 max(...), the minimum is the
    interior critical value -(ABC/2)(1/A^2 + 1/B^2 + 1/C^2); otherwise it is
    attained on the boundary of the feasible phase set and equals
    -(|A| + |B| + |C|) + 2 min(|A|, |B|, |C|).
    """
    A, B, C = a_coef, b_coef, c_coef
    if not A * B * C > 0:
        raise ValueError(f"coefficient product must be positive, got {A * B * C!r}")
    inv = (1 / abs(A), 1 / abs(B), 1 / abs(C))
    if sum(inv) >= 2 * max(inv):
        return -(A * B * C / 2) * (1 / A**2 + 1 / B**2 + 1 / C**2)
    return -(abs(A) + abs(B) + abs(C)) + 2 * min(abs(A), abs(B), abs(C))


def rhs_envelope(geom: HexGeometry, k: float) -> RhsEnvelope:
    """Positive-branch envelope of sqrt(R) at wavenumber k."""
    _, lower, upper = positive_terms(geom, 0.0, k)
    return RhsEnvelope(max(0.0, lower), upper)


def band_membership(
    geom: HexGeometry, coupling: VertexCoupling, energy: EnergyPoint
) -> BandDecision:
    """Decide whether an energy lies in the spectrum (closed comparisons).

    On the positive branch a flagged sine yields a Dirichlet verdict; the
    negative branch has no excluded points.
    """
    if energy.branch == "positive":
        try:
            d, lower, upper = positive_terms(geom, coupling.alpha, energy.param)
        except DirichletPointError as exc:
            return BandDecision.dirichlet(exc.edges)
    else:
        d, lower, upper = _negative_terms(geom, coupling.alpha, energy.param)
    return BandDecision(Decision.BAND if max(0.0, lower) <= abs(d) <= upper else Decision.GAP)


# ---------------------------------------------------------------------------
# spectrum scanning


def _runs(first_is_gap: bool, edges: list[float], edge_tol: float):
    """(is_gap, x_lo, x_hi) runs between ``edges``, alternating from ``first_is_gap``.
    A run narrower than edge_tol at a window end cannot be told from that end;
    it joins its neighbour."""
    states = [first_is_gap ^ (i % 2 == 1) for i in range(len(edges) - 1)]
    if len(states) > 1 and edges[1] - edges[0] < edge_tol:
        del states[0], edges[1]
    if len(states) > 1 and edges[-1] - edges[-2] < edge_tol:
        del states[-1], edges[-2]
    return [(state, edges[i], edges[i + 1]) for i, state in enumerate(states)]


def _dirichlet_points(geom: HexGeometry, k_lo: float, k_hi: float) -> np.ndarray:
    """The Dirichlet points m*pi/l in [k_lo, k_hi], ascending; a point within
    _SAME_POINT*max(1, k) of the one before it is the same point."""
    ks = np.sort(np.concatenate([
        np.arange(max(1, math.ceil(k_lo * ell / math.pi)), math.floor(k_hi * ell / math.pi) + 2)
        * math.pi / ell for ell in geom.lengths]))
    ks = ks[(k_lo <= ks) & (ks <= k_hi)]
    return ks[np.diff(ks, prepend=-math.inf) > _SAME_POINT * np.maximum(1.0, ks)]


# The rows of boundary_rows_grid packed into a code, bit i for row i; a piece's
# pair of end codes, the left one high, and whether its ends differ in
# membership (GC1 or GC2), or in that or two or more rows.
_GAP = np.array([code & 3 != 0 or code & 12 == 12 for code in range(16)])
_EDGE = np.array([_GAP[pair >> 4] != _GAP[pair & 15] for pair in range(256)])
_LIVE = _EDGE | np.array([((pair >> 4) ^ (pair & 15)).bit_count() >= 2 for pair in range(256)])
_BITS = np.array([[1], [2], [4], [8]], dtype=np.uint8)


def _codes(rows: np.ndarray) -> np.ndarray:
    return (rows * _BITS).sum(axis=0, dtype=np.uint8)


def _sign_codes(d, lower, upper) -> np.ndarray:
    """The packed rows of membership terms ``(D, lower_unclamped, upper)``: the
    comparisons of the point kernels' band flag max(0, lower) <= |D| <= upper."""
    return _codes(np.array([d > upper, d < -upper, d < lower, d > -lower]))


def _halve(lo, hi, pair, codes_at, edge_tol: float) -> np.ndarray:
    """The edges inside the pieces [lo, hi] with end codes ``pair``, where each row
    turns at most once.  A piece is live while its ends differ in membership or
    in two or more rows, and is halved until no wider than edge_tol or its ends
    are adjacent doubles; then, if its ends differ in membership, its midpoint is
    an edge.  Where one row turns only the half with the edge stays live, so the
    piece is bisected.  One ``codes_at`` call evaluates two halvings: the live
    pieces' midpoints and their halves' midpoints."""
    edges, quarters = [], None
    while True:
        mid = 0.5 * (lo + hi)
        go = (hi - lo > edge_tol) & (lo < mid) & (mid < hi)
        edges.append(mid[_EDGE[pair] & ~go])
        go &= _LIVE[pair]
        if not go.any():
            return np.concatenate(edges)
        lo, mid, hi, pair = lo[go], mid[go], hi[go], pair[go]
        if quarters is None:
            codes = codes_at(np.concatenate([mid, 0.5 * (lo + mid), 0.5 * (mid + hi)]))
            code_mid, quarters = codes[:mid.size], codes[mid.size:]
        else:
            code_mid, quarters = quarters[go], None
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        pair = np.concatenate([pair & 0xF0 | code_mid, code_mid << 4 | pair & 15])


def _positive_runs(geom: HexGeometry, alpha: float, k_lo: float, k_hi: float,
                   points: np.ndarray, edge_tol: float):
    """Refined (is_gap, k_lo, k_hi) runs over the window [k_lo, k_hi], cut into
    pieces at the Dirichlet points ``points``, so that each row turns at most
    once in a piece (:func:`_halve`).  A point is seen from either side, and is
    an edge where the sides differ in membership; a window end within
    _SAME_POINT of a point is that point, seen from inside."""
    near = _SAME_POINT * np.maximum(1.0, points)
    first = [] if points.size and points[0] - k_lo <= near[0] else [k_lo]
    last = [] if points.size and k_hi - points[-1] <= near[-1] else [k_hi]
    xs = np.concatenate([first, points, last])
    left, right = map(_codes, boundary_rows_grid(geom, alpha, xs, sides=True))
    live = np.flatnonzero(right[:-1] != left[1:])
    edges = _halve(xs[live], xs[live + 1], right[live] << 4 | left[live + 1],
                   lambda x: _codes(boundary_rows_grid(geom, alpha, x)), edge_tol)
    turns = _GAP[left[1:-1]] != _GAP[right[1:-1]]
    edges = np.sort(np.concatenate([edges, xs[1:-1][turns]]))
    return _runs(bool(_GAP[right[0]]), [float(k_lo), *edges.tolist(), float(k_hi)], edge_tol)


def _flat_bands_in_window(geom: HexGeometry, k_lo: float, k_hi: float) -> list[FlatBand]:
    witness = commensurability_witness(geom.a, geom.b, geom.c)
    if witness is None:
        return []
    ks = flat_band_energies(witness, n_max=max(1, int(k_hi * witness.d / (2 * math.pi)) + 1),
                            n_min=max(1, int(k_lo * witness.d / (2 * math.pi))))
    return [FlatBand(k=k, energy=k * k) for k in ks if k_lo <= k <= k_hi]


def _check_window(lo: float, hi: float) -> None:
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need 0 < window start < window end < inf, got ({lo!r}, {hi!r})")


def _check_scan(lo: float, hi: float, edge_tol: float) -> None:
    _check_window(lo, hi)
    if not edge_tol > 0:
        raise ValueError(f"edge_tol must be > 0, got {edge_tol!r}")


def scan_spectrum(
    geom: HexGeometry, coupling: VertexCoupling, k_lo: float, k_hi: float, edge_tol: float
) -> SpectrumReport:
    """Scan the positive branch over [k_lo, k_hi] and report bands/gaps.

    The Dirichlet points cut the window into pieces in each of which every
    boundary row turns at most once, so :func:`_positive_runs` certifies every
    edge from the rows at the pieces' ends: no band or gap wider than edge_tol
    is missed.  The report is a function of geometry, alpha, window and
    edge_tol alone.  Intervals are reported in energy units E = k^2.
    """
    _check_scan(k_lo, k_hi, edge_tol)
    points = _dirichlet_points(geom, k_lo, k_hi)
    intervals = _positive_runs(geom, coupling.alpha, k_lo, k_hi, points, edge_tol)
    bands = [(lo * lo, hi * hi) for gap, lo, hi in intervals if not gap]
    gaps = [(lo * lo, hi * hi) for gap, lo, hi in intervals if gap]
    meta = {
        "edge_tol": edge_tol,
        "flat_band_search": "commensurability witness only; phase-independent "
        "solutions are not claimed complete",
    }
    return SpectrumReport(
        branch="positive",
        window=(k_lo * k_lo, k_hi * k_hi),
        bands=bands,
        gaps=gaps,
        flat_bands=_flat_bands_in_window(geom, k_lo, k_hi),
        dirichlet_points=(points * points).tolist(),
        meta=meta,
    )


def negative_spectrum_scan(
    geom: HexGeometry,
    coupling: VertexCoupling,
    kappa_lo: float,
    kappa_max: float,
    edge_tol: float,
) -> SpectrumReport:
    """Scan the negative branch over kappa in [kappa_lo, kappa_max] and report
    in energy units E = -kappa^2.

    kappa times each of D - upper, D + upper, D - lower and D + lower is
    strictly increasing, so each of their signs, the four rows that
    :func:`boundary_rows_grid` gives on the positive branch, turns at most once
    in the window: at most two bands, none for alpha >= 0.
    :func:`_halve` refines the edges from the window ends.  Every evaluation
    is one of :func:`core._negative_terms_grid`, bit-identical to
    :func:`core._negative_terms`.  Intervals are ordered by increasing energy
    (decreasing kappa).
    """
    _check_scan(kappa_lo, kappa_max, edge_tol)

    def codes_at(x):
        return _sign_codes(*_negative_terms_grid(geom, coupling.alpha, x))

    ends = np.array([kappa_lo, kappa_max], dtype=np.float64)
    code = codes_at(ends)
    edges = np.sort(_halve(ends[:1], ends[1:], code[:1] << 4 | code[1:], codes_at, edge_tol))
    intervals = _runs(bool(_GAP[code[0]]), [float(kappa_lo), *edges.tolist(), float(kappa_max)],
                      edge_tol)

    def to_energy(lo: float, hi: float) -> tuple[float, float]:
        return (-hi * hi, -lo * lo)

    bands = [to_energy(lo, hi) for gap, lo, hi in reversed(intervals) if not gap]
    gaps = [to_energy(lo, hi) for gap, lo, hi in reversed(intervals) if gap]
    meta = {"edge_tol": edge_tol, "nonempty_requires_negative_alpha": True}
    return SpectrumReport(
        branch="negative",
        window=(-kappa_max * kappa_max, -kappa_lo * kappa_lo),
        bands=bands,
        gaps=gaps,
        meta=meta,
    )


def sample_grid(
    geom: HexGeometry,
    coupling: VertexCoupling,
    branch: str,
    lo: float,
    hi: float,
    n_samples: int,
    dirichlet_tol: float = DEFAULT_DIRICHLET_TOL,
) -> SampleTable:
    """The table that ``bands --format csv`` prints: ``n_samples`` rows, an
    integer of at least 2, on the uniform grid ``lo + i*h`` over [lo, hi],
    its last point ``hi``, of k on the positive branch and of kappa on the
    negative one, as the columns of a :class:`report.SampleTable`.

    Each row holds |D|, max(0, lower) and upper from the column kernel of its
    branch (:func:`core.positive_terms_grid`, :func:`core._negative_terms_grid`),
    bit-identical to the point kernel, and its band or gap label from their
    comparisons.  A positive row where some |sin(l*k)| is at most
    ``dirichlet_tol`` times max(1, l*k) is a ``dirichlet`` row of NaNs; the
    negative branch has none.  The reports do not read the table.
    """
    _check_window(lo, hi)
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    xs = lo + np.arange(n_samples) * ((hi - lo) / (n_samples - 1))
    xs[-1] = hi
    if branch == "positive":
        d, lower, upper, flagged = positive_terms_grid(geom, coupling.alpha, xs, dirichlet_tol)
        energy = xs * xs
    elif branch == "negative":
        d, lower, upper = _negative_terms_grid(geom, coupling.alpha, xs)
        flagged = np.zeros(n_samples, bool)
        energy = -xs * xs
    else:
        raise ValueError(f"branch must be 'positive' or 'negative', got {branch!r}")
    decisions = np.where(flagged, 2, ~_GAP[_sign_codes(d, lower, upper)]).astype(np.int8)
    np.abs(d, out=d)
    lower[~(lower > 0.0)] = 0.0  # max(0.0, lower), NaN included
    for column in (d, lower, upper):
        column[flagged] = math.nan
    return SampleTable(xs, energy, d, lower, upper, decisions)


# ---------------------------------------------------------------------------
# flat bands


def flat_band_energies(
    witness: CommensurabilityWitness | None, n_max: int, n_min: int = 1
) -> list[float]:
    """Wavenumbers of the phase-independent eigenvalues, k_n = 2*pi*n/d, n_min <= n <= n_max.

    Requires a commensurability witness a = p*d, b = q*d, c = r*d; each k_n
    then satisfies k_n*a, k_n*b, k_n*c in 2*pi*Z exactly.  Passing None
    (no witness exists) is an error: incommensurate lattices have no
    eigenvalues at all.
    """
    if witness is None:
        raise ValueError(
            "flat bands require commensurate edge lengths (no common-unit witness found)"
        )
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    g = math.gcd(witness.p, witness.q, witness.r)
    if witness.d_exact is not None:
        d = float(witness.d_exact * g)
    else:
        d = witness.d * g
    return [2 * math.pi * n / d for n in range(n_min, n_max + 1)]


def verify_flat_band(
    geom: HexGeometry, k: float, coupling: VertexCoupling | None = None
) -> float:
    """Residual of the compactly supported eigenfunction candidate at k.

    Builds sin(k*s) along the six edges of one hexagon cycle (arc length s,
    consistent orientation, zero off the cycle) and returns the largest
    violation of the vertex conditions over the six cycle vertices: value
    mismatches against the zero outside edge, the closure mismatch where the
    cycle ends meet, and the outgoing-derivative sums against alpha times
    the vertex value.  The construction is exact when k*a, k*b and k*c are
    all multiples of pi.
    """
    if not k > 0:
        raise ValueError("k must be > 0")
    alpha = coupling.alpha if coupling is not None else 0.0
    cycle = (geom.a, geom.b, geom.c, geom.a, geom.b, geom.c)
    positions = [0.0]
    for ell in cycle:
        positions.append(positions[-1] + ell)
    perimeter = positions[-1]
    worst = 0.0
    for j in range(6):
        x = k * positions[j]
        value, slope_out = math.sin(x), k * math.cos(x)  # forward edge, outgoing derivative
        if j == 0:
            x = k * perimeter
            value_in, slope_in = math.sin(x), -k * math.cos(x)  # backward along the last edge
        else:
            value_in, slope_in = value, -slope_out
        worst = max(
            worst,
            abs(value),  # against the zero outside edge
            abs(value_in - value),  # cycle continuity
            abs(slope_out + slope_in - alpha * value),
        )
    return worst
