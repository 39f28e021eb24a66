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
membership is bisected, by one routine for both branches (:func:`_refined_runs`).
The sample table that the CSV format prints is a separate product
(:func:`sample_grid`).  The point and column kernels of both branches live in
:mod:`hexband.core`; this module compares their terms and turns them into
reports.
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


# What one call may build, each measured at its budget (README): a scan of
# _DIRICHLET_BUDGET candidate Dirichlet points peaks near 335 MB in 0.6 s, and
# _FLAT_BAND_BUDGET flat bands near 100 MB in 0.6 s, and a CSV table of
# _SAMPLE_BUDGET rows near 180 MB in 0.9 s.  A scan's window holds at most a
# sixth as many flat bands as candidates, plus three: never that many.
_DIRICHLET_BUDGET = 2**18
_FLAT_BAND_BUDGET = 2**16
_SAMPLE_BUDGET = 2**19


def _dirichlet_points(geom: HexGeometry, k_lo: float, k_hi: float) -> np.ndarray:
    """The Dirichlet points m*pi/l in [k_lo, k_hi], ascending; a point within
    _SAME_POINT*max(1, k) of the one before it is the same point.  A window
    with more candidates than _DIRICHLET_BUDGET, or more than a float counts, is
    refused before any is built."""
    ends = [(k_lo * ell / math.pi, k_hi * ell / math.pi) for ell in geom.lengths]
    ranges = [(max(1, math.ceil(lo)), math.floor(hi) + 2) if hi < math.inf else (0, math.inf)
              for lo, hi in ends]
    count = sum(max(0, stop - start) for start, stop in ranges)
    if count > _DIRICHLET_BUDGET:
        raise ValueError(f"window of {count} Dirichlet points, over the budget {_DIRICHLET_BUDGET}")
    ks = np.sort(np.concatenate([np.arange(start, stop) * math.pi / ell
                                 for (start, stop), ell in zip(ranges, geom.lengths)]))
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


def _refined_runs(codes_at, x_lo: float, x_hi: float, xs: np.ndarray, left: np.ndarray,
                  right: np.ndarray, edge_tol: float):
    """Refined (is_gap, x_lo, x_hi) runs over the window [x_lo, x_hi], cut into
    pieces at the points ``xs``, the packed codes just left and right of each
    in ``left`` and ``right``, so that each row turns at most once in a piece.
    A point whose sides differ in membership is an edge.  A piece is live while
    its ends differ in membership or in two or more rows, and is halved until no
    wider than edge_tol or its ends are adjacent doubles; then, if its ends
    differ in membership, its midpoint is an edge.  Where one row turns only the
    half with the edge stays live, so the piece is bisected.  One ``codes_at``
    call evaluates two halvings: the live pieces' midpoints and their halves'
    midpoints.  A run narrower than edge_tol at a window end cannot be told from
    that end; it joins its neighbour."""
    live = np.flatnonzero(right[:-1] != left[1:])
    lo, hi, pair = xs[live], xs[live + 1], right[live] << 4 | left[live + 1]
    edges, quarters = [xs[1:-1][_GAP[left[1:-1]] != _GAP[right[1:-1]]]], None
    while True:
        mid = 0.5 * (lo + hi)
        go = (hi - lo > edge_tol) & (lo < mid) & (mid < hi)
        edges.append(mid[_EDGE[pair] & ~go])
        go &= _LIVE[pair]
        if not go.any():
            break
        lo, mid, hi, pair = lo[go], mid[go], hi[go], pair[go]
        if quarters is None:
            codes = codes_at(np.concatenate([mid, 0.5 * (lo + mid), 0.5 * (mid + hi)]))
            code_mid, quarters = codes[:mid.size], codes[mid.size:]
        else:
            code_mid, quarters = quarters[go], None
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        pair = np.concatenate([pair & 0xF0 | code_mid, code_mid << 4 | pair & 15])
    edges = [float(x_lo), *np.sort(np.concatenate(edges)).tolist(), float(x_hi)]
    states = [bool(_GAP[right[0]]) ^ (i % 2 == 1) for i in range(len(edges) - 1)]
    if len(states) > 1 and edges[1] - edges[0] < edge_tol:
        del states[0], edges[1]
    if len(states) > 1 and edges[-1] - edges[-2] < edge_tol:
        del states[-1], edges[-2]
    return [(state, edges[i], edges[i + 1]) for i, state in enumerate(states)]


def _report(branch: str, window: tuple[float, float], runs, **fields) -> SpectrumReport:
    """The report of (is_gap, e_lo, e_hi) runs in energy units."""
    return SpectrumReport(branch=branch, window=window,
                          bands=[(lo, hi) for gap, lo, hi in runs if not gap],
                          gaps=[(lo, hi) for gap, lo, hi in runs if gap], **fields)


def _flat_bands_in_window(geom: HexGeometry, k_lo: float, k_hi: float) -> list[FlatBand]:
    witness = commensurability_witness(geom.a, geom.b, geom.c)
    if witness is None or not 2 * math.pi / witness.d <= k_hi:  # the first lies past k_hi
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
    boundary row turns at most once, so :func:`_refined_runs` certifies every
    edge from the rows at the pieces' ends, each point seen from either side:
    no band or gap wider than edge_tol is missed.  A window end within
    _SAME_POINT of a point is that point, seen from inside.  The report is a
    function of geometry, alpha, window and edge_tol alone.  Intervals are
    reported in energy units E = k^2.
    """
    _check_scan(k_lo, k_hi, edge_tol)
    points = _dirichlet_points(geom, k_lo, k_hi)
    near = _SAME_POINT * np.maximum(1.0, points)
    first = [] if points.size and points[0] - k_lo <= near[0] else [k_lo]
    last = [] if points.size and k_hi - points[-1] <= near[-1] else [k_hi]
    xs = np.concatenate([first, points, last])
    left, right = map(_codes, boundary_rows_grid(geom, coupling.alpha, xs, sides=True))
    runs = _refined_runs(lambda x: _codes(boundary_rows_grid(geom, coupling.alpha, x)),
                         k_lo, k_hi, xs, left, right, edge_tol)
    meta = {
        "edge_tol": edge_tol,
        "flat_band_search": "commensurability witness only; phase-independent "
        "solutions are not claimed complete",
    }
    return _report("positive", (k_lo * k_lo, k_hi * k_hi),
                   [(gap, lo * lo, hi * hi) for gap, lo, hi in runs],
                   flat_bands=_flat_bands_in_window(geom, k_lo, k_hi),
                   dirichlet_points=(points * points).tolist(), meta=meta)


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
    in the window: at most two bands, none for alpha >= 0.  The window is one
    piece, and :func:`_refined_runs` refines its edges from the window ends.
    Every evaluation is one of :func:`core._negative_terms_grid`,
    bit-identical to :func:`core._negative_terms`.  Intervals are ordered by
    increasing energy (decreasing kappa).
    """
    _check_scan(kappa_lo, kappa_max, edge_tol)

    def codes_at(x):
        return _sign_codes(*_negative_terms_grid(geom, coupling.alpha, x))

    ends = np.array([kappa_lo, kappa_max], dtype=np.float64)
    code = codes_at(ends)
    runs = _refined_runs(codes_at, kappa_lo, kappa_max, ends, code, code, edge_tol)
    return _report("negative", (-kappa_max * kappa_max, -kappa_lo * kappa_lo),
                   [(gap, -hi * hi, -lo * lo) for gap, lo, hi in reversed(runs)],
                   meta={"edge_tol": edge_tol, "nonempty_requires_negative_alpha": True})


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
    negative branch has none.  More than _SAMPLE_BUDGET rows are refused.  The
    reports do not read the table.
    """
    _check_window(lo, hi)
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    if n_samples > _SAMPLE_BUDGET:
        raise ValueError(f"{n_samples} sample rows, over the budget {_SAMPLE_BUDGET}")
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
    eigenvalues at all.  More than _FLAT_BAND_BUDGET wavenumbers are refused, and
    so is a unit d whose wavenumbers to n_max are past a float's range.
    """
    if witness is None:
        raise ValueError(
            "flat bands require commensurate edge lengths (no common-unit witness found)"
        )
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if n_max - n_min + 1 > _FLAT_BAND_BUDGET:
        raise ValueError(f"{n_max - n_min + 1} flat bands, over the budget {_FLAT_BAND_BUDGET}")
    d = witness.d * math.gcd(witness.p, witness.q, witness.r)
    if not (d > 0 and 2 * math.pi * n_max / d < math.inf):
        raise ValueError(f"lattice unit d = {d!r} puts the flat bands to n = {n_max} "
                         "past a float's range")
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
