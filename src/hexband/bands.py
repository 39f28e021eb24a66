"""Band membership, spectrum scanning and flat-band machinery.

For a positive energy E = k^2 the secular condition reads D(k)^2 = R(theta),
with D the cotangent dispersion and R the phase-dependent right-hand side.
As the Bloch phases sweep the torus, R fills exactly the interval
[lower^2, upper^2] with

    upper = 1/|sin ak| + 1/|sin bk| + 1/|sin ck|
    lower = max(0, 2*max_l 1/|sin lk| - upper)

so E is in the spectrum iff lower <= |D(k)| <= upper.  The negative branch
E = -kappa^2 uses the hyperbolic analogues.  Scanning samples this
membership over a k (or kappa) grid and refines every band edge by
bisection of the boundary functions |D| - upper and |D| - lower.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    DEFAULT_DIRICHLET_TOL,
    DirichletPointError,
    EnergyPoint,
    FloquetPhase,
    HexGeometry,
    VertexCoupling,
    checked_sines,
    cos_reduced,
    dispersion_negative,
    positive_terms,
    sin_reduced,
)
from .numtheory import CommensurabilityWitness, commensurability_witness
from .report import FlatBand, SampleRow, SpectrumReport

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

    def contains(self, abs_dispersion: float) -> bool:
        return self.lower <= abs_dispersion <= self.upper


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


def rhs_envelope(
    geom: HexGeometry, k: float, dirichlet_tol: float = DEFAULT_DIRICHLET_TOL
) -> RhsEnvelope:
    """Positive-branch envelope of sqrt(R) at wavenumber k."""
    _, lower, upper = positive_terms(geom, 0.0, k, dirichlet_tol)
    return RhsEnvelope(max(0.0, lower), upper)


def inv_sinh(x: float) -> float:
    """1/sinh(x) for x > 0; underflows to 0 instead of overflowing sinh."""
    return 1.0 / math.sinh(x) if x < 700.0 else 0.0


def rhs_envelope_negative(geom: HexGeometry, kappa: float) -> RhsEnvelope:
    """Negative-branch envelope: hyperbolic sines never vanish.

    The largest 1/sinh term always belongs to the shortest edge, so the
    lower envelope is max(0, 2/sinh(l_min*kappa) - upper).
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa!r}")
    inv = [inv_sinh(ell * kappa) for ell in geom.lengths]
    upper = sum(inv)
    lower = max(0.0, 2 * inv_sinh(geom.ell_min * kappa) - upper)
    return RhsEnvelope(lower, upper)


def band_membership(
    geom: HexGeometry,
    coupling: VertexCoupling,
    energy: EnergyPoint,
    dirichlet_tol: float = DEFAULT_DIRICHLET_TOL,
) -> BandDecision:
    """Decide whether an energy lies in the spectrum (closed comparisons).

    On the positive branch a flagged sine yields a Dirichlet verdict; the
    negative branch has no excluded points.  The zero branch is outside both
    closed forms and is rejected.
    """
    if energy.branch == "positive":
        try:
            row = _positive_row(geom, coupling.alpha, energy.param, dirichlet_tol)
        except DirichletPointError as exc:
            return BandDecision.dirichlet(exc.edges)
    elif energy.branch == "negative":
        row = _negative_row(geom, coupling, energy.param)
    else:
        raise ValueError("band membership is defined on the positive/negative branches only")
    return BandDecision(Decision(row.decision))


# ---------------------------------------------------------------------------
# spectrum scanning


def _sample_row(x: float, energy: float, value: float, lower: float, upper: float) -> SampleRow:
    decision = Decision.BAND if lower <= value <= upper else Decision.GAP
    return SampleRow(x, energy, value, lower, upper, decision.value)


def _positive_row(geom: HexGeometry, alpha: float, k: float, dirichlet_tol: float) -> SampleRow:
    """Membership at wavenumber k as a scan row; raises at Dirichlet points."""
    d, lower, upper = positive_terms(geom, alpha, k, dirichlet_tol)
    return _sample_row(k, k * k, abs(d), max(0.0, lower), upper)


def _negative_row(geom: HexGeometry, coupling: VertexCoupling, kappa: float) -> SampleRow:
    env = rhs_envelope_negative(geom, kappa)
    value = abs(dispersion_negative(geom, coupling, kappa))
    return _sample_row(kappa, -kappa * kappa, value, env.lower, env.upper)


def _bisect(changed, lo: float, hi: float, edge_tol: float) -> tuple[float, float]:
    """Shrink a bracket with ``changed`` false at lo and true at hi to width <= edge_tol.

    Stops early once lo and hi are adjacent doubles, where edge_tol is below
    their spacing and the midpoint would repeat an end.
    """
    while hi - lo > edge_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if changed(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _intervals_from_runs(xs, decisions, is_gap, edge_tol):
    """Compress per-sample decisions into refined (state, x_lo, x_hi) runs.

    Each boundary between consecutive runs is bisected to width <= edge_tol.
    The membership predicate is exactly the sign test of the boundary
    functions |D| - upper (gap above the envelope) and |D| - lower (gap
    below), so this is bisection on whichever of the two changes sign
    across the bracket; across a Dirichlet point the functions jump and the
    bisection still converges to the crossing.
    """
    runs: list[list] = []
    for x, d in zip(xs, decisions):
        if runs and runs[-1][0] is d:
            runs[-1][2] = x
        else:
            runs.append([d, x, x])
    boundaries = []
    for left, right in zip(runs, runs[1:]):
        lo_is_gap = left[0] is Decision.GAP
        lo, hi = _bisect(lambda x: is_gap(x) != lo_is_gap, left[2], right[1], edge_tol)
        boundaries.append(0.5 * (lo + hi))
    edges = [xs[0]] + boundaries + [xs[-1]]
    return [(run[0], edges[i], edges[i + 1]) for i, run in enumerate(runs)]


def _flagged(row_at, x: float) -> bool:
    try:
        row_at(x)
    except DirichletPointError:
        return True
    return False


def _safe_is_gap(row_at, edge_tol, x_max=math.inf):
    """Membership predicate that steps off flagged points before deciding.

    ``row_at`` raises :class:`DirichletPointError` at flagged points.  From a
    flagged point the probe steps right by a geometrically growing step,
    capped at ``x_max``, so any Dirichlet flag zone (width scales with the
    tolerance times l*k) is escaped in a few probes, then bisects back to the
    zone's right end.  The returned state is the one within ``edge_tol`` right
    of the zone, however far the last step overshot it.  A zone that does not
    end by ``x_max`` raises the error of the starting point.
    """

    def is_gap(x: float) -> bool:
        try:
            return row_at(x).decision == Decision.GAP.value
        except DirichletPointError as exc:
            edges = exc.edges  # keep no exception: its traceback would cycle back here
        lo = x
        delta = max(1e-15 * max(1.0, abs(x)), 0.25 * edge_tol)
        for _ in range(80):
            hi = min(x + delta, x_max)
            if not _flagged(row_at, hi):
                _, hi = _bisect(lambda m: not _flagged(row_at, m), lo, hi, edge_tol)
                return row_at(hi).decision == Decision.GAP.value
            if hi == x_max:
                break
            lo, delta = hi, 2 * delta
        raise DirichletPointError(x, edges)

    return is_gap


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


def _scan(row_at, lo: float, hi: float, n_samples: int, edge_tol: float):
    """Sample membership on a uniform grid over [lo, hi] and refine every change.

    ``row_at`` gives the :class:`SampleRow` at one point and may raise
    :class:`DirichletPointError` there.  A flagged sample takes the state
    just right of its flag zone, or the state left of it when the zone
    reaches past ``hi`` (so isolated Dirichlet points interior to a band are
    absorbed: the spectrum is closed).  Returns the grid spacing, the sample
    rows and the refined (state, x_lo, x_hi) runs.
    """
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need 0 < window start < window end < inf, got ({lo!r}, {hi!r})")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples!r}")
    if not edge_tol > 0:
        raise ValueError(f"edge_tol must be > 0, got {edge_tol!r}")
    h = (hi - lo) / (n_samples - 1)
    xs = [lo + i * h for i in range(n_samples)]
    xs[-1] = hi

    is_gap = _safe_is_gap(row_at, edge_tol, hi)
    samples: list[SampleRow] = []
    decisions: list[Decision] = []
    for x in xs:
        try:
            row = row_at(x)
        except DirichletPointError:  # only positive rows raise, so E = k^2
            row = SampleRow(x, x * x, math.nan, math.nan, math.nan, Decision.DIRICHLET.value)
        samples.append(row)
        if row.decision != Decision.DIRICHLET.value:
            decisions.append(Decision(row.decision))
            continue
        try:
            decisions.append(Decision.GAP if is_gap(x) else Decision.BAND)
        except DirichletPointError:
            if not decisions:
                raise
            decisions.append(decisions[-1])
    return h, samples, _intervals_from_runs(xs, decisions, is_gap, edge_tol)


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

    Membership is sampled and refined by :func:`_scan`, and intervals are
    reported in energy units E = k^2.  A metadata flag warns when the grid
    spacing is too coarse to resolve features on the scale of the fastest
    trigonometric oscillation.
    """

    def row_at(k: float) -> SampleRow:
        return _positive_row(geom, coupling.alpha, k, dirichlet_tol)

    h, samples, intervals = _scan(row_at, k_lo, k_hi, n_samples, edge_tol)
    bands = [(lo * lo, hi * hi) for state, lo, hi in intervals if state is Decision.BAND]
    gaps = [(lo * lo, hi * hi) for state, lo, hi in intervals if state is Decision.GAP]
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

    The negative spectrum is nonempty only for alpha < 0; for alpha >= 0 the
    whole axis is a gap and the band list comes back empty.  Intervals are
    ordered by increasing energy (decreasing kappa).  The window defaults to
    kappa in [kappa_max / n_samples, kappa_max].
    """
    if kappa_lo is None:
        # _scan rejects n_samples < 2; max() only keeps this division defined until it does
        kappa_lo = kappa_max / max(n_samples, 2)

    def row_at(kappa: float) -> SampleRow:
        return _negative_row(geom, coupling, kappa)

    h, samples, intervals = _scan(row_at, kappa_lo, kappa_max, n_samples, edge_tol)

    def to_energy(lo: float, hi: float) -> tuple[float, float]:
        return (-hi * hi, -lo * lo)

    bands = [to_energy(lo, hi) for state, lo, hi in reversed(intervals) if state is Decision.BAND]
    gaps = [to_energy(lo, hi) for state, lo, hi in reversed(intervals) if state is Decision.GAP]
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
        s_j = positions[j]
        value = sin_reduced(k * s_j)
        slope_out = k * cos_reduced(k * s_j)  # forward edge, outgoing derivative
        if j == 0:
            value_in = sin_reduced(k * perimeter)
            slope_in = -k * cos_reduced(k * perimeter)  # backward along the last edge
        else:
            value_in = value
            slope_in = -k * cos_reduced(k * s_j)
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
    dirichlet_tol: float = DEFAULT_DIRICHLET_TOL,
) -> CellWavefunction:
    """Reconstruct all twelve amplitudes from a null vector of the cell matrix.

    Given (C2+, C2-, C3+, C3-), the Bloch conditions fix the incoming b and
    c amplitudes, and vertex continuity plus midpoint matching determine the
    a-edge pair (which needs sin(a*k) != 0).  When the input is a null vector
    of :func:`assemble_m_matrix`, the result satisfies every coupling and
    Bloch condition of the cell.
    """
    a, b, c = geom.lengths
    checked_sines(k, ("a",), (a,), dirichlet_tol)
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
