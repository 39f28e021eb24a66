"""Band membership, spectrum scanning and flat-band machinery.

For a positive energy E = k^2 the secular condition reads D(k)^2 = R(theta),
with D the cotangent dispersion and R the phase-dependent right-hand side.
As the Bloch phases sweep the torus, R fills exactly the interval
[lower^2, upper^2] with

    upper = 1/|sin ak| + 1/|sin bk| + 1/|sin ck|
    lower = max(0, 2*max_l 1/|sin lk| - upper)

so E is in the spectrum iff lower <= |D(k)| <= upper.  The negative branch
E = -kappa^2 uses the hyperbolic analogues.  A scan samples membership over a
k (or kappa) grid and bisects the boundary functions D -+ upper, D -+ lower:
at each change of membership on the positive branch, Dirichlet points included,
and at the one root of each on the negative branch, where kappa times each increases.
The point and column kernels of both branches live in :mod:`hexband.core`;
this module compares their terms and turns them into reports.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_DIRICHLET_TOL,
    DirichletPointError,
    EnergyPoint,
    FloquetPhase,
    HexGeometry,
    VertexCoupling,
    _negative_terms,
    _negative_terms_grid,
    checked_sines,
    gap_criteria_grid,
    positive_terms,
    positive_terms_grid,
    sin_cos_reduced,
)
from .numtheory import CommensurabilityWitness, commensurability_witness
from .report import FlatBand, SampleTable, SpectrumReport

__all__ = [
    "Decision",
    "BandDecision",
    "RhsEnvelope",
    "CellWavefunction",
    "trig_polynomial_min",
    "rhs_envelope",
    "rhs_envelope_negative",
    "band_membership",
    "scan_spectrum",
    "negative_spectrum_scan",
    "flat_band_energies",
    "verify_flat_band",
    "solve_cell_wavefunction",
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
    _, lower, upper = positive_terms(geom, 0.0, k, DEFAULT_DIRICHLET_TOL)
    return RhsEnvelope(max(0.0, lower), upper)


def rhs_envelope_negative(geom: HexGeometry, kappa: float) -> RhsEnvelope:
    """Negative-branch envelope: hyperbolic sines never vanish."""
    _, lower, upper = _negative_terms(geom, 0.0, kappa)
    return RhsEnvelope(max(0.0, lower), upper)


def band_membership(
    geom: HexGeometry, coupling: VertexCoupling, energy: EnergyPoint
) -> BandDecision:
    """Decide whether an energy lies in the spectrum (closed comparisons).

    On the positive branch a flagged sine yields a Dirichlet verdict; the
    negative branch has no excluded points.  The zero branch is outside both
    closed forms and is rejected.
    """
    if energy.branch == "positive":
        try:
            d, lower, upper = positive_terms(geom, coupling.alpha, energy.param,
                                             DEFAULT_DIRICHLET_TOL)
        except DirichletPointError as exc:
            return BandDecision.dirichlet(exc.edges)
    elif energy.branch == "negative":
        d, lower, upper = _negative_terms(geom, coupling.alpha, energy.param)
    else:
        raise ValueError("band membership is defined on the positive/negative branches only")
    return BandDecision(Decision.BAND if max(0.0, lower) <= abs(d) <= upper else Decision.GAP)


# ---------------------------------------------------------------------------
# spectrum scanning


def _positive_gaps(geom: HexGeometry, alpha: float, ks: np.ndarray) -> np.ndarray:
    """Whether each k lies in a gap, from :func:`gap_criteria_grid`."""
    gc1, gc2 = gap_criteria_grid(geom, alpha, ks)
    return gc1 | gc2


def _in_band(d, lower, upper):
    """Whether max(0, lower_unclamped) <= |D| <= upper on each row, the point
    kernels' comparison.  Leaves |D| in ``d`` and the clamped lower in ``lower``."""
    value = np.abs(d, out=d)
    lower[~(lower > 0.0)] = 0.0  # max(0.0, lower), NaN included
    return (lower <= value) & (value <= upper)


def _sample_table(xs, energy, d, lower, upper, flagged):
    """The scan rows of membership terms ``(D, lower_unclamped, upper)``, and their band flags.

    The band flags are :func:`_in_band`'s; a flagged row is a ``dirichlet``
    row of NaNs.
    """
    band = _in_band(d, lower, upper)
    for column in (d, lower, upper):
        column[flagged] = math.nan
    return SampleTable(xs, energy, d, lower, upper, np.where(flagged, 2, band)), band


def _positive_rows(geom: HexGeometry, alpha: float, ks: np.ndarray, dirichlet_tol: float):
    """The sample table and gap flags of a whole k grid from one grid-kernel pass.

    Each row's columns equal :func:`positive_terms` at its k; the flagged k
    get ``dirichlet`` rows of NaNs and take their gap flags from one
    :func:`gap_criteria_grid` call.
    """
    d, lower, upper, flagged = positive_terms_grid(geom, alpha, ks, dirichlet_tol)
    samples, band = _sample_table(ks, ks * ks, d, lower, upper, flagged)
    gaps = ~band
    if flagged.any():
        gaps[flagged] = _positive_gaps(geom, alpha, ks[flagged])
    return samples, gaps


def _negative_past(d, lower, upper):
    """Whether each kappa lies past the root of D - upper, D + upper, D - lower and
    D + lower, one row each: :func:`_in_band`'s comparisons as signs.  A sample is
    in a band iff past root 2, not root 1, and past root 3 or not root 4."""
    return np.stack([~(d - upper <= 0), d + upper >= 0, d - lower >= 0, ~(d + lower <= 0)])


def _negative_roots(geom: HexGeometry, alpha: float, kappas, columns, edge_tol: float):
    """The roots r1 to r4 of the :func:`_negative_past` rows of the grid ``kappas``' terms
    ``columns``: -inf before the grid, inf after it, else bisected from the cell where they turn."""
    past = _negative_past(*columns)
    roots = np.where(past[:, 0], -math.inf, math.inf)
    cell = past.argmax(axis=1)
    which = np.flatnonzero(cell)

    def past_at(x, at):
        return _negative_past(*_negative_terms_grid(geom, alpha, x))[which[at], np.arange(at.size)]

    roots[which] = _bisect(kappas[cell[which] - 1], kappas[cell[which]], past_at, edge_tol)
    return roots.tolist()


def _bisect(lo: np.ndarray, hi: np.ndarray, past, edge_tol: float) -> np.ndarray:
    """Bisect every bracket [lo, hi] in lockstep, in place, and return the midpoints.

    ``past(mid, at)`` says whether the midpoints ``mid`` of the brackets ``at``
    lie past their roots; one call per step covers every pending bracket.  Each
    stops once no wider than edge_tol, or once its ends are adjacent doubles,
    where edge_tol is below their spacing and the midpoint would repeat an end.
    """
    pending = np.arange(lo.size)
    while True:
        bracket_lo, bracket_hi = lo[pending], hi[pending]
        mid = 0.5 * (bracket_lo + bracket_hi)
        live = (bracket_hi - bracket_lo > edge_tol) & (bracket_lo < mid) & (mid < bracket_hi)
        pending, mid = pending[live], mid[live]
        if not pending.size:
            return 0.5 * (lo + hi)
        beyond = past(mid, pending)
        hi[pending[beyond]] = mid[beyond]
        lo[pending[~beyond]] = mid[~beyond]


def _runs(first_is_gap: bool, edges: list[float], edge_tol: float):
    """(is_gap, x_lo, x_hi) runs between ``edges``, alternating from ``first_is_gap``.
    A run narrower than edge_tol at a window end is that end's Dirichlet point
    seen from its other side; it joins its neighbour."""
    states = [first_is_gap ^ (i % 2 == 1) for i in range(len(edges) - 1)]
    if len(states) > 1 and edges[1] - edges[0] < edge_tol:
        del states[0], edges[1]
    if len(states) > 1 and edges[-1] - edges[-2] < edge_tol:
        del states[-1], edges[-2]
    return [(state, edges[i], edges[i + 1]) for i, state in enumerate(states)]


def _intervals_from_runs(xs: np.ndarray, gaps: np.ndarray, gaps_at, edge_tol: float):
    """Compress per-sample gap flags into refined (is_gap, x_lo, x_hi) runs, bisecting
    every change between neighbouring samples on ``gaps_at``, which maps an array
    of points to their gap flags."""
    changes = np.flatnonzero(gaps[1:] != gaps[:-1])
    was_gap = gaps[changes]
    edges = _bisect(xs[changes], xs[changes + 1], lambda x, at: gaps_at(x) != was_gap[at], edge_tol)
    return _runs(bool(gaps[0]), [float(xs[0]), *edges.tolist(), float(xs[-1])], edge_tol)


def _dirichlet_points_in_window(geom: HexGeometry, k_lo: float, k_hi: float) -> list[float]:
    points: list[float] = []
    for ell in geom.lengths:
        m = max(1, math.ceil(k_lo * ell / math.pi))
        while m * math.pi / ell <= k_hi:
            k = m * math.pi / ell
            if k >= k_lo:
                points.append(k)
            m += 1
    points.sort()
    unique: list[float] = []
    for k in points:
        if not unique or abs(k - unique[-1]) > 1e-12 * max(1.0, k):
            unique.append(k)
    return unique


def _flat_bands_in_window(geom: HexGeometry, k_lo: float, k_hi: float) -> list[FlatBand]:
    witness = commensurability_witness(geom.a, geom.b, geom.c)
    if witness is None:
        return []
    out = []
    for k in flat_band_energies(witness, n_max=max(1, int(k_hi * witness.d / (2 * math.pi)) + 1)):
        if k_lo <= k <= k_hi:
            out.append(FlatBand(k=k, energy=k * k))
    return out


def _grid(lo: float, hi: float, n_samples: int, edge_tol: float):
    """The grid spacing h and the uniform grid ``lo + i*h`` over [lo, hi], its last point ``hi``."""
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need 0 < window start < window end < inf, got ({lo!r}, {hi!r})")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples!r}")
    if not edge_tol > 0:
        raise ValueError(f"edge_tol must be > 0, got {edge_tol!r}")
    h = (hi - lo) / (n_samples - 1)
    xs = lo + np.arange(n_samples) * h
    xs[-1] = hi
    return h, xs


def scan_spectrum(
    geom: HexGeometry,
    coupling: VertexCoupling,
    k_lo: float,
    k_hi: float,
    n_samples: int,
    edge_tol: float,
    dirichlet_tol: float = DEFAULT_DIRICHLET_TOL,
) -> SpectrumReport:
    """Scan the positive branch over (k_lo, k_hi] and report bands/gaps.

    Membership is sampled on a uniform grid and refined by
    :func:`_intervals_from_runs`; intervals are reported in energy units
    E = k^2.  The grid is sampled in one numpy pass of
    :func:`positive_terms_grid`, bit-identical to the point kernel, into the
    report's :class:`SampleTable`.  The samples it flags take their gap flags
    from one :func:`gap_criteria_grid` call, and each lockstep bisection step
    makes one more over every pending edge; the criteria are defined at the
    Dirichlet points too, so ``dirichlet_tol`` only labels sample rows as
    ``dirichlet``.  A metadata flag warns when the grid spacing is too coarse
    to resolve features on the scale of the fastest trigonometric oscillation.
    """
    h, ks = _grid(k_lo, k_hi, n_samples, edge_tol)
    samples, flags = _positive_rows(geom, coupling.alpha, ks, dirichlet_tol)
    intervals = _intervals_from_runs(
        ks, flags, lambda mid: _positive_gaps(geom, coupling.alpha, mid), edge_tol)
    bands = [(lo * lo, hi * hi) for gap, lo, hi in intervals if not gap]
    gaps = [(lo * lo, hi * hi) for gap, lo, hi in intervals if gap]
    spacing_limit = math.pi / (8 * max(geom.lengths))
    under_resolved = h > spacing_limit
    meta = {
        "n_samples": n_samples,
        "k_spacing": h,
        "edge_tol": edge_tol,
        "dirichlet_tol": dirichlet_tol,
        "may_miss_narrow_features": under_resolved,
        "warnings": (
            ["grid spacing exceeds pi/(8*max_edge); bands or gaps narrower "
             "than the spacing may be missed"]
            if under_resolved
            else []
        ),
        "flat_band_search": "commensurability witness only; phase-independent "
        "solutions are not claimed complete",
    }
    return SpectrumReport(
        branch="positive",
        window=(k_lo * k_lo, k_hi * k_hi),
        bands=bands,
        gaps=gaps,
        flat_bands=_flat_bands_in_window(geom, k_lo, k_hi),
        dirichlet_points=[k * k for k in _dirichlet_points_in_window(geom, k_lo, k_hi)],
        meta=meta,
        samples=samples,
    )


def negative_spectrum_scan(
    geom: HexGeometry,
    coupling: VertexCoupling,
    kappa_max: float,
    n_samples: int,
    edge_tol: float,
    kappa_lo: float | None = None,
) -> SpectrumReport:
    """Scan the negative branch and report in energy units E = -kappa^2.

    kappa times each of D - upper, D + upper, D - lower and D + lower is
    strictly increasing, so each has at most one root, r1 to r4, and the
    spectrum is exactly [r2, r1] less (r4, r3): at most two bands, none for
    alpha >= 0.  :func:`_negative_roots` bisects each root on its own sign, so
    no band or gap narrower than the grid is missed.  Every evaluation is one of
    :func:`core._negative_terms_grid`, bit-identical to :func:`core._negative_terms`.
    Intervals are ordered by increasing energy (decreasing kappa); the window
    defaults to kappa in [kappa_max / n_samples, kappa_max].
    """
    if kappa_lo is None:
        # _grid rejects n_samples < 2; max() only keeps this division defined until it does
        kappa_lo = kappa_max / max(n_samples, 2)
    h, kappas = _grid(kappa_lo, kappa_max, n_samples, edge_tol)
    columns = _negative_terms_grid(geom, coupling.alpha, kappas)
    # the roots read the columns before _in_band overwrites them
    r1, r2, r3, r4 = _negative_roots(geom, coupling.alpha, kappas, columns, edge_tol)
    samples, _ = _sample_table(kappas, -kappas * kappas, *columns, np.zeros(n_samples, bool))
    # [r2, r1] less (r4, r3), where r2 <= r3 and r4 <= r1 since lower >= -upper
    ends = [x for lo, hi in ([(r2, r4), (r3, r1)] if r4 < r3 else [(r2, r1)]) if lo < hi
            for x in (lo, hi)]
    cuts = [x for x in ends if abs(x) < math.inf]
    intervals = _runs(ends[:1] != [-math.inf], [float(kappas[0]), *cuts, float(kappas[-1])],
                      edge_tol)

    def to_energy(lo: float, hi: float) -> tuple[float, float]:
        return (-hi * hi, -lo * lo)

    bands = [to_energy(lo, hi) for gap, lo, hi in reversed(intervals) if not gap]
    gaps = [to_energy(lo, hi) for gap, lo, hi in reversed(intervals) if gap]
    meta = {
        "n_samples": n_samples,
        "kappa_spacing": h,
        "edge_tol": edge_tol,
        "nonempty_requires_negative_alpha": True,
    }
    return SpectrumReport(
        branch="negative",
        window=(-kappa_max * kappa_max, -kappa_lo * kappa_lo),
        bands=bands,
        gaps=gaps,
        meta=meta,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# flat bands


def flat_band_energies(witness: CommensurabilityWitness | None, n_max: int) -> list[float]:
    """Wavenumbers of the phase-independent eigenvalues, k_n = 2*pi*n/d.

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
    g = math.gcd(witness.p, witness.q, witness.r)
    if witness.d_exact is not None:
        d = float(witness.d_exact * g)
    else:
        d = witness.d * g
    return [2 * math.pi * n / d for n in range(1, n_max + 1)]


def verify_flat_band(
    geom: HexGeometry, k: float, coupling: VertexCoupling | None = None
) -> float:
    """Residual of the compactly supported eigenfunction candidate at k.

    Builds sin(k*s) along the six edges of one hexagon cycle (arc length s,
    consistent orientation, zero off the cycle) and returns the largest
    violation of the vertex conditions over the six cycle vertices: value
    mismatches against the zero outside edge, the closure mismatch where the
    cycle ends meet, and the outgoing-derivative sums against alpha times
    the vertex value.  The construction is exact precisely when k*a, k*b,
    k*c are all multiples of 2*pi.
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
        value, cos_out = sin_cos_reduced(k * positions[j])
        slope_out = k * cos_out  # forward edge, outgoing derivative
        if j == 0:
            value_in, cos_in = sin_cos_reduced(k * perimeter)
            slope_in = -k * cos_in  # backward along the last edge
        else:
            value_in, slope_in = value, -slope_out
        worst = max(
            worst,
            abs(value),  # against the zero outside edge
            abs(value_in - value),  # cycle continuity
            abs(slope_out + slope_in - alpha * value),
        )
    return worst


# ---------------------------------------------------------------------------
# cell wavefunctions


@dataclass(frozen=True)
class CellWavefunction:
    """Exponential amplitudes on the six half-edges of the Floquet cell.

    ``c`` amplitudes live on the outgoing half-edges (psi_i), ``d`` on the
    incoming ones (phi_i); by continuity at the midpoint of the full a-edge
    the first pair coincides: c[0] == d[0].
    """

    c: tuple[tuple[complex, complex], ...]
    d: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if len(self.c) != 3 or len(self.d) != 3:
            raise ValueError("three edge amplitude pairs required on each side")


def solve_cell_wavefunction(
    geom: HexGeometry,
    coupling: VertexCoupling,
    k: float,
    phase: FloquetPhase,
    c2: tuple[complex, complex],
    c3: tuple[complex, complex],
) -> CellWavefunction:
    """Reconstruct all twelve amplitudes from a null vector of the cell matrix.

    Given (C2+, C2-, C3+, C3-), the Bloch conditions fix the incoming b and
    c amplitudes, and vertex continuity plus midpoint matching determine the
    a-edge pair (which needs sin(a*k) != 0).  When the input is a null vector
    of :func:`assemble_m_matrix`, the result satisfies every coupling and
    Bloch condition of the cell.
    """
    a, b, c = geom.lengths
    checked_sines(k, ("a",), (a,))
    t1, t2 = phase.theta1, phase.theta2
    c2p, c2m = c2
    c3p, c3m = c3
    d2 = (c2p * cmath.exp(1j * (b * k - t1)), c2m * cmath.exp(1j * (-b * k - t1)))
    d3 = (c3p * cmath.exp(1j * (c * k - t2)), c3m * cmath.exp(1j * (-c * k - t2)))
    # psi1(a/2) = psi2(0) and phi1(-a/2) = phi2(0), with psi1 == phi1.
    v_plus = c2p + c2m
    v_minus = d2[0] + d2[1]
    e = cmath.exp(1j * k * a / 2)
    det = e * e - 1 / (e * e)  # = 2i sin(a k)
    c1p = (e * v_plus - v_minus / e) / det
    c1m = (-v_plus / e + e * v_minus) / det
    return CellWavefunction(c=((c1p, c1m), (c2p, c2m), (c3p, c3m)), d=((c1p, c1m), d2, d3))
