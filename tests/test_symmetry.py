"""Exact symmetries of the membership decision and the gap criteria.

Permuting the edge lengths (a, b, c) permutes the terms of every sum, and
scaling to (lambda*a, lambda*b, lambda*c, alpha/lambda, k/lambda) leaves
every l*k and alpha/k unchanged; on the negative branch kappa/lambda plays
the part of k/lambda.  So neither may change a verdict.  In floating point
both transforms move the terms by a few ulps, so points within 1e-9
relative of an envelope edge or of the Dirichlet flag threshold are skipped.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexband import (
    Decision,
    DirichletPointError,
    EnergyPoint,
    HexGeometry,
    VertexCoupling,
    band_membership,
    gc1,
    gc2,
    gc_negative,
)
from hexband.core import DEFAULT_DIRICHLET_TOL, _flag_sines, _negative_terms, positive_terms

NEAR = 1e-9


@st.composite
def _case(draw):
    """Lengths, alpha, k, kappa, a scale and a permutation of the edges.  A
    third of the k are exact Dirichlet hits and a third lie near one, where
    one edge dominates the envelope and GC2 can hold."""
    lengths = [draw(st.floats(0.2, 5.0)) for _ in range(3)]
    kind = draw(st.integers(0, 2))
    if kind == 2:
        k = draw(st.floats(0.05, 60.0))
    else:
        k = draw(st.integers(1, 30)) * math.pi / lengths[draw(st.integers(0, 2))]
        if kind == 1:
            k *= 1 + draw(st.sampled_from([-1, 1])) * 10 ** draw(st.floats(-6.0, -1.0))
    return (lengths, draw(st.floats(-20.0, 20.0)), k, 10 ** draw(st.floats(-2.0, 1.3)),
            draw(st.floats(0.25, 4.0)), draw(st.permutations(range(3))))


def _near(value: float, edge: float, scale: float) -> bool:
    return abs(value - edge) <= NEAR * scale


def _near_positive_edge(geom: HexGeometry, alpha: float, k: float) -> bool:
    """Whether k is within 1e-9 relative of the Dirichlet flag threshold or,
    off the Dirichlet points, of an envelope edge.  An envelope edge is
    relative to the largest term scale, upper + |alpha|/k, because D and
    lower are sums that may cancel."""
    sines, _, flags = _flag_sines(k, geom.lengths)
    for ell, s in zip(geom.lengths, sines):
        threshold = DEFAULT_DIRICHLET_TOL * max(1.0, ell * k)
        if _near(abs(s), threshold, threshold):
            return True
    if any(flags):
        return False
    d, lower, upper = positive_terms(geom, alpha, k)
    scale = upper + abs(alpha) / k
    return _near(abs(d), upper, scale) or (lower > 0 and _near(abs(d), lower, scale))


def _near_negative_edge(geom: HexGeometry, alpha: float, kappa: float) -> bool:
    """The negative-branch envelope edges, relative to sum coth + |alpha|/kappa."""
    d, lower, upper = _negative_terms(geom, alpha, kappa)
    scale = d - alpha / kappa + abs(alpha) / kappa
    return _near(abs(d), upper, scale) or (lower > 0 and _near(abs(d), lower, scale))


def _positive_verdicts(geom: HexGeometry, coupling: VertexCoupling, k: float):
    decision = band_membership(geom, coupling, EnergyPoint.positive(k))
    try:
        criteria = (gc1(geom, coupling, k), gc2(geom, coupling, k))
    except DirichletPointError as exc:
        criteria = exc.edges
    return decision, criteria


def _negative_verdicts(geom: HexGeometry, coupling: VertexCoupling, kappa: float):
    return band_membership(geom, coupling, EnergyPoint.negative(kappa)), gc_negative(
        geom, coupling, kappa)


SETTINGS = settings(max_examples=400, derandomize=True, deadline=None)
# a GC1 gap of (phi, 1, 1) at alpha = 6 just above 89*pi, a GC2 gap of (1, phi, 1.3)
# just below pi, and a k where all three edges are Dirichlet
GC1_GAP = ([(1 + math.sqrt(5)) / 2, 1.0, 1.0], 6.0, 279.605, 2.0, 0.75, [2, 0, 1])
GC2_GAP = ([1.0, (1 + math.sqrt(5)) / 2, 1.3], 6.0, 0.99 * math.pi, 0.5, 1.7, [1, 0, 2])
DIRICHLET = ([1.0, 1.5, 0.5], 3.5, 4 * math.pi, 0.3, 3.0, [1, 2, 0])


class TestScaling:
    @SETTINGS
    @given(_case())
    @example(GC1_GAP)
    @example(GC2_GAP)
    @example(DIRICHLET)
    def test_positive_branch(self, case):
        lengths, alpha, k, _, lam, _ = case
        geom = HexGeometry(*lengths)
        assume(not _near_positive_edge(geom, alpha, k))
        scaled = HexGeometry(*(lam * ell for ell in lengths))
        assert _positive_verdicts(geom, VertexCoupling(alpha), k) == \
            _positive_verdicts(scaled, VertexCoupling(alpha / lam), k / lam)

    @SETTINGS
    @given(_case())
    def test_negative_branch(self, case):
        lengths, alpha, _, kappa, lam, _ = case
        geom = HexGeometry(*lengths)
        assume(not _near_negative_edge(geom, alpha, kappa))
        scaled = HexGeometry(*(lam * ell for ell in lengths))
        assert _negative_verdicts(geom, VertexCoupling(alpha), kappa) == \
            _negative_verdicts(scaled, VertexCoupling(alpha / lam), kappa / lam)


class TestPermutation:
    @SETTINGS
    @given(_case())
    @example(GC1_GAP)
    @example(GC2_GAP)
    @example(DIRICHLET)
    def test_positive_branch(self, case):
        lengths, alpha, k, _, _, perm = case
        geom = HexGeometry(*lengths)
        assume(not _near_positive_edge(geom, alpha, k))
        permuted = HexGeometry(*(lengths[i] for i in perm))
        coupling = VertexCoupling(alpha)
        decision, criteria = _positive_verdicts(geom, coupling, k)
        p_decision, p_criteria = _positive_verdicts(permuted, coupling, k)
        assert p_decision.kind is decision.kind
        if decision.kind is Decision.DIRICHLET:
            # edge i of the permuted cell is edge perm[i] of the original
            moved = sorted("abc"[perm["abc".index(name)]] for name in p_decision.dirichlet_edges)
            assert moved == sorted(decision.dirichlet_edges)
            assert sorted(p_criteria) == sorted(p_decision.dirichlet_edges)
        else:
            assert p_criteria == criteria

    @SETTINGS
    @given(_case())
    def test_negative_branch(self, case):
        lengths, alpha, _, kappa, _, perm = case
        geom = HexGeometry(*lengths)
        assume(not _near_negative_edge(geom, alpha, kappa))
        permuted = HexGeometry(*(lengths[i] for i in perm))
        coupling = VertexCoupling(alpha)
        assert _negative_verdicts(geom, coupling, kappa) == \
            _negative_verdicts(permuted, coupling, kappa)


class TestCriteriaDecideMembership:
    """The gap criteria are the complement of the envelope test, exactly."""

    @SETTINGS
    @given(_case())
    @example(GC1_GAP)
    @example(GC2_GAP)
    @example(DIRICHLET)
    def test_positive_gap_iff_gc1_or_gc2(self, case):
        lengths, alpha, k, _, _, _ = case
        decision, criteria = _positive_verdicts(HexGeometry(*lengths), VertexCoupling(alpha), k)
        if decision.kind is Decision.DIRICHLET:
            assert criteria == decision.dirichlet_edges
        else:
            assert (decision.kind is Decision.GAP) == any(criteria)
            assert not all(criteria)

    @SETTINGS
    @given(_case())
    def test_negative_gap_iff_either_criterion(self, case):
        lengths, alpha, _, kappa, _, _ = case
        decision, criteria = _negative_verdicts(HexGeometry(*lengths), VertexCoupling(alpha),
                                                kappa)
        assert (decision.kind is Decision.GAP) == any(criteria)
        assert not all(criteria)
