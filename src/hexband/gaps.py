"""Explicit gap criteria and the coupling thresholds they imply.

Two strict inequalities open gaps in the positive spectrum:

  GC1 (above the envelope):  |D(k)| > 1/|sin ak| + 1/|sin bk| + 1/|sin ck|
  GC2 (below the envelope):  |D(k)| < 2 max_l 1/|sin lk| - sum_l 1/|sin lk|

where D is the cotangent dispersion.  GC1 admits an equivalent tangent form
on k >= |alpha| built from the nearest-integer fractional part; GC2 for the
stretched lattice (b = c) reduces to four sign/size conditions.  Hyperbolic
analogues govern the negative branch, and for b = c the Diophantine class
of a/b fixes closed-form coupling thresholds for gap existence.  Every
edge quantity here, the tangent margins included, takes its sine and cosine
from the one Dirichlet guard of :mod:`hexband.core`: libm's, of the unreduced l*k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    HexGeometry,
    VertexCoupling,
    _negative_terms,
    checked_sines,
    positive_terms,
)
from .numtheory import RatioClass, RatioClassKind, _sign
from .report import json_dumps

__all__ = [
    "gc1",
    "gc2",
    "gc1_tangent_form",
    "GapDiagnostics",
    "gap_diagnostics_bc",
    "gc2_equivalent_bc",
    "gc_negative",
    "ThresholdReport",
    "thresholds_bc",
    "threshold_report_to_json",
]


def gc1(geom: HexGeometry, coupling: VertexCoupling, k: float) -> bool:
    """Gap criterion above the envelope: |D(k)| > sum of inverse |sines|."""
    d, _, upper = positive_terms(geom, coupling.alpha, k)
    return abs(d) > upper


def gc2(geom: HexGeometry, coupling: VertexCoupling, k: float) -> bool:
    """Gap criterion below the envelope:
    2 max_l 1/|sin lk| - sum_l 1/|sin lk| > |D(k)|."""
    d, lower, _ = positive_terms(geom, coupling.alpha, k)
    return lower > abs(d)


def _edge_tangent(s: float, c: float) -> float:
    """|tan(frac(x/pi) * pi/2)| = 1/|sin x| - |cot x| from s = sin x, c = cos x,
    in the half-angle form |s|/(1 + |c|): no cancellation, and 0 at s = 0."""
    return abs(s) / (1 + abs(c))


def gc1_tangent_form(geom: HexGeometry, coupling: VertexCoupling, k: float) -> bool:
    """GC1 rewritten through the nearest-integer fractional part.

    Valid for k >= |alpha| (raises outside that domain), where it is
    equivalent to :func:`gc1`: all three cotangents must share the sign of
    alpha and the tangent sum must stay below |alpha|/k.
    """
    alpha = coupling.alpha
    if k < abs(alpha):
        raise ValueError(f"tangent form requires k >= |alpha|; got k={k!r}, |alpha|={abs(alpha)!r}")
    sines, cosines = checked_sines(k, HexGeometry.EDGE_NAMES, geom.lengths)
    want = _sign(alpha)
    for s, c in zip(sines, cosines):
        if _sign(c / s) != want:
            return False
    return sum(_edge_tangent(s, c) for s, c in zip(sines, cosines)) < abs(alpha) / k


@dataclass(frozen=True)
class GapDiagnostics:
    """The three scalar diagnostics of the b = c gap analysis at one k.

    With t_l = 1/|sin lk| - |cot lk| the tangent margin of edge l,
    ``tangent_sum`` is t_a + 2 t_b, the sum of the three margins for b = c;
    ``cot_dominance`` is |cot ak| - 2|cot bk|, which envelope-undershooting
    gaps need close to |alpha|/k; ``tangent_margin`` is 2 t_b - t_a, which
    |alpha|/k must exceed for them near the a-edge Dirichlet points.
    """

    tangent_sum: float
    cot_dominance: float
    tangent_margin: float


def gap_diagnostics_bc(a: float, b: float, k: float) -> GapDiagnostics:
    """The three b = c diagnostics at k, all from one :func:`checked_sines`."""
    (s_a, s_b), (c_a, c_b) = checked_sines(k, ("a", "b"), (a, b))
    t_a, t_b = _edge_tangent(s_a, c_a), _edge_tangent(s_b, c_b)
    return GapDiagnostics(t_a + 2 * t_b, abs(c_a / s_a) - 2 * abs(c_b / s_b), 2 * t_b - t_a)


def gc2_equivalent_bc(a: float, b: float, coupling: VertexCoupling, k: float) -> bool:
    """Four-condition form of GC2 for the stretched lattice (b = c).

    True iff 1/|sin ak| > 2/|sin bk|, cot(ak)cot(bk) < 0, alpha*cot(ak) < 0
    and |G(k) - |alpha|/k| < 1/|sin ak| - 2/|sin bk| with G the cotangent
    dominance margin.  The four conditions imply GC2 for every k > 0 and are
    equivalent to it on k > |alpha|.
    """
    (s_a, s_b), (c_a, c_b) = checked_sines(k, ("a", "b"), (a, b))
    cot_a = c_a / s_a
    cot_b = c_b / s_b
    margin = 1 / abs(s_a) - 2 / abs(s_b)
    if margin <= 0:
        return False
    if not cot_a * cot_b < 0:
        return False
    if not coupling.alpha * cot_a < 0:
        return False
    g = abs(cot_a) - 2 * abs(cot_b)
    return abs(g - abs(coupling.alpha) / k) < margin


def gc_negative(
    geom: HexGeometry, coupling: VertexCoupling, kappa: float
) -> tuple[bool, bool]:
    """The two negative-branch gap criteria at E = -kappa^2.

    gc1_neg: |D-(kappa)| exceeds the sum of inverse hyperbolic sines;
    gc2_neg: it stays below 2/sinh(l_min*kappa) minus that sum.  Both
    read one evaluation of the point kernel :func:`core._negative_terms`.
    """
    d, lower, upper = _negative_terms(geom, coupling.alpha, kappa)
    return abs(d) > upper, abs(d) < lower


@dataclass(frozen=True)
class ThresholdReport:
    """Closed-form coupling thresholds for the stretched (b = c) lattice.

    ``gc1_guarantee`` / ``gc2_guarantee``: coupling magnitudes above which
    the respective criterion opens infinitely many gaps.  The ``nogap``
    bounds are magnitudes below which the criterion opens none; they are
    nonzero only for badly approximable ratios and never exceed the
    guarantees.  ``provenance`` records the formula behind every number.
    """

    gc1_guarantee: float
    gc1_nogap_bound: float
    gc2_guarantee: float
    gc2_nogap_bound: float
    ratio_class: str
    provenance: dict[str, str] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.gc1_nogap_bound > self.gc1_guarantee or self.gc2_nogap_bound > self.gc2_guarantee:
            raise ValueError("no-gap bounds cannot exceed guarantee thresholds")


def thresholds_bc(
    a: float,
    b: float,
    ratio_class: RatioClass,
    gamma_estimate: float | None = None,
) -> ThresholdReport:
    """Coupling thresholds for the b = c lattice from the class of a/b.

    For badly approximable ratios a quadratic-approximation constant gamma
    is required (argument or the class's own lower bound).  For rational
    ratios the reduced integers (p, q) of a/b are taken from the class and
    the gc2 field records the k-independent dominance-margin floor
    9*pi / (2*(6p + pi*q)) instead of a coupling threshold.
    """
    if a <= 0 or b <= 0:
        raise ValueError("lengths must be positive")
    sqrt5 = math.sqrt(5.0)
    gc1_guarantee = (4 * math.pi / sqrt5) * min(2 / a, 1 / b)
    gc2_guarantee = 4 * math.pi / (sqrt5 * a)
    provenance = {
        "gc1_guarantee": "4*pi/sqrt(5) * min(2/a, 1/b): sign-selected convergents beat the "
        "tangent sum at centers q*pi/b and q*pi/a for any irrational ratio",
        "gc2_guarantee": "4*pi/(sqrt(5)*a): same convergent mechanism driving the "
        "envelope-undershoot criterion near the a-edge Dirichlet points",
    }
    extras = {
        # The derivation chain supports the smaller prefactor; both are kept.
        "gc1_guarantee_derivation_variant": (2 * math.pi / sqrt5) * min(2 / a, 1 / b),
    }
    provenance["gc1_guarantee_derivation_variant"] = (
        "2*pi/sqrt(5) * min(2/a, 1/b): value the step-by-step derivation supports; "
        "differs from the stated guarantee by a factor 2 and is recorded, not resolved"
    )
    gc1_nogap = 0.0
    gc2_nogap = 0.0
    kind = ratio_class.kind
    if kind is RatioClassKind.BADLY_APPROXIMABLE:
        gamma = gamma_estimate if gamma_estimate is not None else ratio_class.gamma_lower
        if gamma is None or gamma <= 0:
            raise ValueError("badly approximable class requires a positive gamma estimate")
        gc1_nogap = gamma * math.pi**2 * min(1 / a, 1 / (2 * b))
        gc2_nogap = 15 * math.pi**2 * gamma / (4 * (6 * a + math.pi * b))
        provenance["gc1_nogap_bound"] = (
            "gamma*pi^2 * min(1/a, 1/(2b)): below this coupling the tangent sum beats "
            "|alpha|/k at every one of its deep minima m*pi/a, m*pi/b"
        )
        provenance["gc2_nogap_bound"] = (
            "15*pi^2*gamma / (4*(6a + pi*b)): k-scaled floor of the cotangent dominance "
            "margin on the envelope-undershoot region"
        )
    elif kind is RatioClassKind.RATIONAL:
        if ratio_class.rational_pq is None:
            raise ValueError("rational class requires the reduced integers (p, q) of a/b")
        p, q = ratio_class.rational_pq
        gc2_nogap = 0.0
        extras["gc2_dominance_floor"] = 9 * math.pi / (2 * (6 * p + math.pi * q))
        provenance["gc2_dominance_floor"] = (
            "9*pi/(2*(6p + pi*q)): k-independent floor of the cotangent dominance margin "
            "for a = p*unit, b = q*unit; forces the undershoot criterion to fail for "
            "large k, so only finitely many such gaps exist"
        )
        provenance["note"] = "rational ratio: any nonzero coupling opens infinitely many gaps"
    elif kind is RatioClassKind.LAST_ADMISSIBLE:
        provenance["note"] = (
            "unbounded partial quotients: any nonzero coupling opens infinitely many gaps"
        )
    else:
        provenance["note"] = "ratio class uncertain (numeric input): no-gap bounds unavailable"
    return ThresholdReport(
        gc1_guarantee=gc1_guarantee,
        gc1_nogap_bound=gc1_nogap,
        gc2_guarantee=gc2_guarantee,
        gc2_nogap_bound=gc2_nogap,
        ratio_class=kind.value,
        provenance=provenance,
        extras=extras,
    )


def threshold_report_to_json(report: ThresholdReport) -> str:
    payload = {
        "schema_version": 1,
        "ratio_class": report.ratio_class,
        "gc1_guarantee": report.gc1_guarantee,
        "gc1_nogap_bound": report.gc1_nogap_bound,
        "gc2_guarantee": report.gc2_guarantee,
        "gc2_nogap_bound": report.gc2_nogap_bound,
        "extras": report.extras,
        "provenance": report.provenance,
    }
    return json_dumps(payload) + "\n"
