import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hexband import (
    ContinuedFraction,
    Convergent,
    ExactRatio,
    ExplicitCF,
    GapCenter,
    HexGeometry,
    NumericRatio,
    QuadraticSurd,
    RatioClass,
    RatioClassKind,
    RationalRatioError,
    VertexCoupling,
    approx_constant,
    cf_expand,
    classify_ratio,
    commensurability_witness,
    convergents,
    gc1,
    predicted_gap_centers,
    ratio_divide,
)
from hexband.numtheory import _sharing_expansions, reconstruct_rational

GOLDEN = QuadraticSurd(1, 2, 5)
SQRT2 = QuadraticSurd(0, 1, 2)
SQRT3 = QuadraticSurd(0, 1, 3)


class TestRatioInputs:
    def test_exact_ratio_reduces(self):
        r = ExactRatio(14, 6)
        assert (r.p, r.q) == (7, 3)
        assert r.invert().value() == pytest.approx(3 / 7)

    def test_surd_validation(self):
        with pytest.raises(ValueError):
            QuadraticSurd(0, 1, 4)  # perfect square
        with pytest.raises(ValueError):
            QuadraticSurd(0, 0, 2)  # zero denominator
        with pytest.raises(ValueError):
            QuadraticSurd(-5, 1, 2)  # negative value

    def test_surd_inversion_value(self):
        inv = GOLDEN.invert()
        assert inv.value() == pytest.approx(1 / GOLDEN.value(), rel=1e-14)
        # 3 - sqrt(2) needs a negative denominator representation
        surd = QuadraticSurd(-3, -1, 2)
        assert surd.value() == pytest.approx(3 - math.sqrt(2), rel=1e-14)
        assert surd.invert().value() == pytest.approx(1 / (3 - math.sqrt(2)), rel=1e-14)

    def test_exact_comparison(self):
        golden, sqrt2 = ({(c.p, c.q): c.approach_sign for c in convergents(cf_expand(r, 6), r, 7)}
                         for r in (GOLDEN, SQRT2))
        assert golden[3, 2] == 1
        assert golden[2, 1] == -1
        assert sqrt2[17, 12] == -1
        assert sqrt2[7, 5] == 1


class TestRatioDivide:
    def test_rational_by_rational(self):
        out = ratio_divide(ExactRatio(3, 2), ExactRatio(5, 7))
        assert isinstance(out, ExactRatio)
        assert (out.p, out.q) == (21, 10)

    def test_surd_by_rational(self):
        out = ratio_divide(GOLDEN, ExactRatio(2, 3))
        assert isinstance(out, QuadraticSurd)
        assert out.value() == pytest.approx(GOLDEN.value() * 1.5, rel=1e-14)

    def test_rational_by_surd(self):
        out = ratio_divide(ExactRatio(2, 1), SQRT2)
        assert isinstance(out, QuadraticSurd)
        assert out.value() == pytest.approx(2 / math.sqrt(2), rel=1e-14)

    def test_surd_by_surd_same_radicand(self):
        num = QuadraticSurd(1, 2, 5)
        den = QuadraticSurd(3, 2, 5)
        out = ratio_divide(num, den)
        assert isinstance(out, QuadraticSurd)
        assert out.value() == pytest.approx(num.value() / den.value(), rel=1e-14)

    def test_surd_by_itself_is_rational_one(self):
        out = ratio_divide(GOLDEN, GOLDEN)
        assert isinstance(out, ExactRatio)
        assert (out.p, out.q) == (1, 1)

    def test_mixed_radicands_fall_back_to_numeric(self):
        out = ratio_divide(SQRT2, SQRT3)
        assert isinstance(out, NumericRatio)
        assert out.value() == pytest.approx(math.sqrt(2 / 3), rel=1e-14)


class TestCFExpand:
    def test_rational_terminates(self):
        cf = cf_expand(ExactRatio(7, 3), 10)
        assert cf.a0 == 2
        assert cf.partials == (3,)
        assert cf.period is None

    def test_golden_ratio_period(self):
        cf = cf_expand(GOLDEN, 15)
        assert cf.a0 == 1
        assert cf.partials == tuple([1] * 15)
        assert cf.period == (1, 1)

    def test_sqrt2(self):
        cf = cf_expand(SQRT2, 10)
        assert cf.a0 == 1
        assert cf.partials == tuple([2] * 10)

    def test_sqrt3_alternating(self):
        cf = cf_expand(SQRT3, 10)
        assert cf.a0 == 1
        assert cf.partials == (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)

    def test_surd_with_scaling_invariant(self):
        # (3 + sqrt(7))/4 has (D - P^2) not divisible by Q: exercises the
        # entry rescaling of the exact recurrence
        surd = QuadraticSurd(3, 4, 7)
        cf = cf_expand(surd, 12)
        value = cf.a0 + _cf_tail_value(cf.partials)
        assert value == pytest.approx(surd.value(), rel=1e-9)

    def test_float_input_of_rational_value(self):
        cf = cf_expand(NumericRatio(7 / 3), 10)
        assert cf.a0 == 2
        assert cf.partials[0] in (2, 3)  # float noise may split the quotient
        value = cf.a0 + _cf_tail_value(cf.partials)
        assert value == pytest.approx(7 / 3, abs=1e-12)
        assert not cf.exact

    def test_float_input_precision_exhaustion(self):
        cf = cf_expand(NumericRatio((1 + math.sqrt(5)) / 2), 60)
        assert cf.precision_exhausted
        assert all(p == 1 for p in cf.partials[:20])


def _cf_tail_value(partials):
    value = 0.0
    for a in reversed(partials):
        value = 1.0 / (a + value)
    return value


def _exact_side(theta, p: int, q: int) -> int:
    """The sign of theta - p/q in exact arithmetic, for a surd, a rational or a Fraction."""
    if not isinstance(theta, QuadraticSurd):
        theta = theta.fraction if isinstance(theta, ExactRatio) else theta
        return (theta > Fraction(p, q)) - (theta < Fraction(p, q))
    # (P + sqrt(D))/Q - p/q has the sign of Q times that of t + q*sqrt(D)
    t = q * theta.P - p * theta.Q
    side = 1 if t >= 0 or theta.D * q * q > t * t else -1
    return side if theta.Q > 0 else -side


def _cf_tail_fraction(partials) -> Fraction:
    value = Fraction(0)
    for a in reversed(partials):
        value = 1 / (a + value)
    return value


def _surd(P: int, Q: int, D: int):
    try:
        return QuadraticSurd(P, Q, D)
    except ValueError:
        return None


_SURDS = st.builds(_surd, st.integers(-40, 40), st.integers(-40, 40), st.integers(2, 2000)).filter(
    lambda s: s is not None)
_RATIONALS = st.builds(ExactRatio, st.integers(1, 10**15), st.integers(1, 10**15))
_EXPLICIT = st.builds(
    lambda a0, cycle: ExplicitCF(a0, lambda j: cycle[(j - 1) % len(cycle)]),
    st.integers(0, 50), st.lists(st.integers(1, 10**6), min_size=1, max_size=70))


class TestConvergents:
    def test_golden_sequence(self):
        cf = cf_expand(GOLDEN, 10)
        convs = convergents(cf, GOLDEN, 5)
        assert [(c.p, c.q) for c in convs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]
        assert [c.approach_sign for c in convs] == [1, -1, 1, -1, 1]

    def test_rational_terminal_convergent(self):
        cf = cf_expand(ExactRatio(7, 3), 10)
        convs = convergents(cf, ExactRatio(7, 3), cf.depth + 1)
        assert (convs[-1].p, convs[-1].q) == (7, 3)
        assert convs[-1].quality == 0.0
        assert convs[-1].approach_sign == 0

    def test_sqrt2_quality(self):
        cf = cf_expand(SQRT2, 10)
        convs = convergents(cf, SQRT2, 4)
        assert [(c.p, c.q) for c in convs] == [(1, 1), (3, 2), (7, 5), (17, 12)]
        mp.dps = 40
        expected = float(144 * abs(mp.sqrt(2) - mp.mpf(17) / 12))
        assert convs[-1].quality == pytest.approx(expected, rel=1e-9)
        assert convs[-1].quality == pytest.approx(0.3532470182743097, rel=1e-9)

    def test_determinant_identity(self):
        for ratio in (GOLDEN, SQRT2, SQRT3, ExactRatio(355, 113)):
            cf = cf_expand(ratio, 20)
            convs = convergents(cf, ratio, min(20, cf.depth + 1))
            for prev, cur in zip(convs, convs[1:]):
                assert abs(cur.p * prev.q - prev.p * cur.q) == 1

    def test_depth_exhausted(self):
        cf = cf_expand(ExactRatio(7, 3), 10)
        with pytest.raises(ValueError, match="depth exhausted"):
            convergents(cf, ExactRatio(7, 3), 5)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(_SURDS, _SURDS.map(QuadraticSurd.invert), _RATIONALS, _EXPLICIT))
    def test_sides_alternate(self, ratio):
        # theta - p_n/q_n has the sign (-1)^n on an exact expansion, and is 0 at a
        # rational's last convergent; checked against the side in exact arithmetic
        depth = 59 if isinstance(ratio, ExplicitCF) else 86
        cf = cf_expand(ratio, depth)
        convs = convergents(cf, ratio, cf.depth + 1)
        theta = ratio
        if isinstance(ratio, ExplicitCF):  # its depth-200 truncation: every side up to 59 holds
            theta = ratio.a0 + _cf_tail_fraction([ratio.partial(j) for j in range(1, 201)])
        for n, conv in enumerate(convs):
            side = _exact_side(theta, conv.p, conv.q)
            assert conv.approach_sign == side
            if isinstance(ratio, ExactRatio) and n == len(convs) - 1:
                assert side == 0
            else:
                assert side == (-1) ** n

    def test_explicit_sides_past_the_reference_depth(self):
        # the sides alternate past depth 60, the shallowest reference truncation
        ratio = ExplicitCF(1, lambda j: 1 + j % 3)
        convs = convergents(cf_expand(ratio, 80), ratio, 81)
        assert [c.approach_sign for c in convs[58:]] == [(-1) ** n for n in range(58, 81)]

    def test_explicit_qualities_past_the_reference_depth(self):
        # measured against the depth-200 truncation, every quality of this
        # sequence lies below 1, at convergent 60 and beyond too
        ratio = ExplicitCF(1, lambda j: 1 + j % 3)
        theta = ratio.a0 + _cf_tail_fraction([ratio.partial(j) for j in range(1, 201)])
        convs = convergents(cf_expand(ratio, 80), ratio, 81)
        for c in convs:
            expected = float(c.q**2 * abs(theta - Fraction(c.p, c.q)))
            assert c.quality < 1
            assert c.quality == pytest.approx(expected, rel=1e-12)
        # a walk to depth 30 or less is still measured against depth 60
        theta_60 = ratio.a0 + _cf_tail_fraction([ratio.partial(j) for j in range(1, 61)])
        for c in convergents(cf_expand(ratio, 30), ratio, 31):
            assert c.quality == float(c.q**2 * abs(theta_60 - Fraction(c.p, c.q)))

    def test_hurwitz_filter(self):
        # at depth 30, at least a third of the convergents approximate
        # better than 1/sqrt(5)
        bound = 1 / math.sqrt(5)
        for ratio in (GOLDEN, SQRT2, SQRT3):
            cf = cf_expand(ratio, 30)
            convs = convergents(cf, ratio, 30)
            passing = sum(1 for c in convs if c.quality < bound)
            assert passing >= math.ceil(30 / 3)


class TestClassify:
    def test_rational(self):
        cls = classify_ratio(ExactRatio(22, 7))
        assert cls.kind is RatioClassKind.RATIONAL
        assert cls.certified
        assert cls.rational_pq == (22, 7)

    def test_golden_ratio_gamma(self):
        cls = classify_ratio(GOLDEN, depth=20)
        assert cls.kind is RatioClassKind.BADLY_APPROXIMABLE
        assert cls.certified
        assert cls.gamma_lower == pytest.approx(1 / math.sqrt(5), rel=0.05)

    def test_numeric_cannot_certify(self):
        cls = classify_ratio(NumericRatio(0.7182818284590453))
        assert cls.kind is RatioClassKind.UNKNOWN_NUMERIC
        assert not cls.certified

    def test_numeric_of_golden_float_still_uncertified(self):
        cls = classify_ratio(NumericRatio((1 + math.sqrt(5)) / 2))
        assert cls.kind is RatioClassKind.UNKNOWN_NUMERIC

    def test_explicit_unbounded_generator(self):
        liouville = ExplicitCF(1, lambda j: 10**j, unbounded=True)
        cls = classify_ratio(liouville)
        assert cls.kind is RatioClassKind.LAST_ADMISSIBLE
        assert cls.certified

    def test_explicit_without_declaration(self):
        cls = classify_ratio(ExplicitCF(1, lambda j: 1, unbounded=False))
        assert cls.kind is RatioClassKind.UNKNOWN_NUMERIC


class TestApproxConstant:
    def test_golden_ratio(self):
        gamma = approx_constant(GOLDEN, depth=20)
        assert gamma == pytest.approx(1 / math.sqrt(5), rel=0.05)

    def test_sqrt2(self):
        gamma = approx_constant(SQRT2, depth=20)
        assert gamma == pytest.approx(1 / (2 * math.sqrt(2)), rel=0.01)

    def test_rational_rejected(self):
        with pytest.raises(RationalRatioError):
            approx_constant(ExactRatio(7, 3), depth=10)

    def test_inversion_agreement(self):
        for ratio in (GOLDEN, SQRT2):
            direct = approx_constant(ratio, depth=24)
            inverted = approx_constant(ratio.invert(), depth=24)
            assert direct == pytest.approx(inverted, rel=0.02)

    def test_class_preserved_under_inversion(self):
        for ratio in (GOLDEN, SQRT2, SQRT3):
            assert classify_ratio(ratio.invert()).kind is classify_ratio(ratio).kind


class TestPredictedGapCenters:
    def test_golden_positive_coupling(self):
        centers = predicted_gap_centers(GOLDEN, ExactRatio(1, 1), 6.0, 3)
        family_b = [c for c in centers if c.family == "b"]
        assert [c.q for c in family_b] == [2, 5, 13]
        assert [c.k for c in family_b] == pytest.approx([2 * math.pi, 5 * math.pi, 13 * math.pi])
        family_a = [c for c in centers if c.family == "a"]
        assert [c.q for c in family_a] == [2, 5, 13]
        assert [c.k for c in family_a] == pytest.approx(
            [q * math.pi / GOLDEN.value() for q in (2, 5, 13)]
        )

    def test_golden_negative_coupling_complementary_family(self):
        centers = predicted_gap_centers(GOLDEN, ExactRatio(1, 1), -6.0, 3)
        family_b = [c for c in centers if c.family == "b"]
        assert [c.q for c in family_b] == [1, 3, 8]

    def test_rational_ratio_rejected(self):
        with pytest.raises(RationalRatioError, match="commensurability"):
            predicted_gap_centers(ExactRatio(3, 1), ExactRatio(2, 1), 1.0, 2)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            predicted_gap_centers(GOLDEN, ExactRatio(1, 1), 0.0, 2)

    @pytest.mark.parametrize("alpha", [6.0, -6.0])
    @pytest.mark.parametrize(
        "theta",
        [GOLDEN, SQRT2, SQRT3, QuadraticSurd(1, 3, 7), QuadraticSurd(3, 4, 7)],
        ids=["golden", "sqrt2", "sqrt3", "1+sqrt7_3", "3+sqrt7_4"],
    )
    def test_centers_approach_from_the_coupling_side(self, theta, alpha):
        # every centre's convergent approaches its family's ratio from side
        # sign(alpha) with quality below 1/2, checked at 60 digits; a search
        # that runs out of resolvable convergents fails instead
        with mp.workdps(60):
            value = (theta.P + mp.sqrt(theta.D)) / theta.Q
            family_ratio = {"b": value, "a": 1 / value}
            for count in range(1, 9):
                try:
                    centers = predicted_gap_centers(theta, ExactRatio(1, 1), alpha, count)
                except ArithmeticError:
                    continue
                assert len(centers) == 2 * count
                for c in centers:
                    diff = family_ratio[c.family] - mp.mpf(c.p) / c.q
                    assert mp.sign(diff) == math.copysign(1, alpha), (count, c)
                    assert c.q**2 * abs(diff) < 0.5, (count, c)

    def test_centers_are_sound_for_strong_coupling(self):
        # cross-module: GC1 opens on the right of each of the first three
        # stretched-family centers once the coupling beats the guarantee
        geom = HexGeometry(GOLDEN.value(), 1.0, 1.0)
        coupling = VertexCoupling(6.0)
        centers = [c for c in predicted_gap_centers(GOLDEN, ExactRatio(1, 1), 6.0, 3)
                   if c.family == "b"]
        for center in centers:
            hit = False
            for i in range(1, 2000):
                k = center.k + 0.5 * i / 2000
                try:
                    if gc1(geom, coupling, k):
                        hit = True
                        break
                except Exception:
                    continue
            assert hit, f"no GC1 gap in (k, k+0.5) for center {center}"


class TestCommensurabilityWitness:
    def test_integer_lengths(self):
        w = commensurability_witness(1, 2, 3)
        assert (w.p, w.q, w.r) == (1, 2, 3)
        assert w.d == pytest.approx(1.0)
        assert w.exact

    def test_float_integer_lengths(self):
        w = commensurability_witness(1.0, 2.0, 3.0)
        assert (w.p, w.q, w.r) == (1, 2, 3)
        assert not w.exact

    def test_fraction_lengths(self):
        w = commensurability_witness(Fraction(1, 2), Fraction(3, 2), Fraction(1))
        assert (w.p, w.q, w.r) == (1, 3, 2)
        assert w.d_exact == Fraction(1, 2)

    def test_gcd_reduction(self):
        w = commensurability_witness(2, 4, 6)
        assert (w.p, w.q, w.r) == (1, 2, 3)
        assert w.d_exact == Fraction(2)

    def test_irrational_ratio_gives_none(self):
        assert commensurability_witness(1.0, math.sqrt(2), 1.0) is None
        assert commensurability_witness(1.0, (1 + math.sqrt(5)) / 2, 2.0) is None

    def test_float_rationals_recovered(self):
        w = commensurability_witness(0.5, 1.5, 1.0)
        assert (w.p, w.q, w.r) == (1, 3, 2)
        assert w.d == pytest.approx(0.5)


class TestReconstructRational:
    def test_exact_double_of_small_rational(self):
        assert reconstruct_rational(1 / 3) == (1, 3)
        assert reconstruct_rational(355 / 113) == (355, 113)

    def test_sqrt2_rejected_with_default_knobs(self):
        assert reconstruct_rational(math.sqrt(2)) is None

    def test_same_answers_as_its_own_loop(self):
        # the walk over _float_quotients answers as a loop of its own
        # with other stop rules did: stop past the cap, at rem < 1e-18 or at a < 1
        def own_loop(x):
            bound = 1e-13 * max(1.0, x)
            a0 = math.floor(x)
            p_prev, p_cur = 1, a0
            q_prev, q_cur = 0, 1
            rem = x - a0
            while True:
                if q_cur <= 10**6 and abs(x - p_cur / q_cur) <= bound:
                    return (p_cur, q_cur)
                if q_cur > 10**6 or rem < 1e-18:
                    return None
                nxt = 1.0 / rem
                a = math.floor(nxt)
                if a < 1:
                    return None
                p_prev, p_cur = p_cur, a * p_cur + p_prev
                q_prev, q_cur = q_cur, a * q_cur + q_prev
                rem = nxt - a

        rng = random.Random(20240901)
        xs = [rng.randint(1, 10**7) / rng.randint(1, 10**6) for _ in range(5000)]
        xs += [rng.uniform(1e-3, 10.0) for _ in range(3000)]
        xs += [math.exp(rng.uniform(-15.0, 25.0)) for _ in range(1000)]
        xs += [math.sqrt(n) for n in range(1, 1500)]
        for num, den in ((1.7, 1.1), (0.8, 1.1), (0.9, 1.3), (1.6, 1.3)):
            xs += [num / den, den / num]
        answers = [reconstruct_rational(x) for x in xs]
        assert answers == [own_loop(x) for x in xs]
        assert sum(a is not None for a in answers) > 5000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reconstruct_rational(-1.0)


# ---------------------------------------------------------------------------
# One expansion per ratio, walked in integers
#
# The readers below the line are a test-local copy of the expansion and
# convergent walk that each reader ran on its own, with every quality taken
# in Fraction arithmetic.  The shared, integer expansion must answer as they
# do, bit for bit, exceptions included.


def _ref_cf_expand(ratio, max_depth):
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if isinstance(ratio, ExactRatio):
        partials = []
        p, q = ratio.p, ratio.q
        a0 = p // q
        p, q = q, p - a0 * q
        while q:
            a = p // q
            partials.append(a)
            p, q = q, p - a * q
        return ContinuedFraction(a0, tuple(partials[:max_depth]), None, exact=True)
    if isinstance(ratio, QuadraticSurd):
        return _ref_cf_expand_surd(ratio, max_depth)
    if isinstance(ratio, ExplicitCF):
        partials = tuple(ratio.partial(j) for j in range(1, max_depth + 1))
        return ContinuedFraction(ratio.a0, partials, None, exact=True)
    return _ref_cf_expand_float(ratio.x, max_depth)


def _ref_floor_surd(P, Q, D):
    s = math.isqrt(D)
    if Q > 0:
        return (P + s) // Q
    return -((P + s) // (-Q)) - 1


def _ref_cf_expand_surd(surd, max_depth):
    P, Q, D = surd.P, surd.Q, surd.D
    if (D - P * P) % Q:
        P *= abs(Q)
        D *= Q * Q
        Q *= abs(Q)
    a0 = _ref_floor_surd(P, Q, D)
    if a0 < 0:
        raise ValueError("ratio must be positive")
    partials, seen, period = [], {}, None
    P = a0 * Q - P
    Q = (D - P * P) // Q
    index = 1
    while len(partials) < max_depth:
        state = (P, Q)
        if state in seen:
            period = (seen[state], index - seen[state])
            break
        seen[state] = index
        a = _ref_floor_surd(P, Q, D)
        partials.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        index += 1
    if period is not None:
        start, length = period
        cycle = partials[start - 1 : start - 1 + length]
        while len(partials) < max_depth:
            partials.append(cycle[(len(partials) - (start - 1)) % length])
    return ContinuedFraction(a0, tuple(partials[:max_depth]), period, exact=True)


def _ref_float_quotients(x):
    a = math.floor(x)
    rem = x - a
    q_prev, q_cur = 0, 1
    yield a
    while rem >= 1e-15:
        x = 1.0 / rem
        a = math.floor(x)
        if q_cur > 3e7 or a < 1:
            yield None
            return
        rem = x - a
        if 1.0 - rem < 1e-12 * a:
            a += 1
            rem = 0.0
        yield a
        q_prev, q_cur = q_cur, a * q_cur + q_prev


def _ref_cf_expand_float(x, max_depth):
    a0, *partials = islice(_ref_float_quotients(x), max_depth + 1)
    exhausted = partials[-1:] == [None]
    if exhausted:
        partials.pop()
    return ContinuedFraction(a0, tuple(partials), None, exact=False, precision_exhausted=exhausted)


def _ref_theta(ratio, depth):
    """The Fraction every quality of a walk to ``depth`` is measured against."""
    if isinstance(ratio, QuadraticSurd):
        return ratio.midpoint()
    if isinstance(ratio, ExactRatio):
        return ratio.fraction
    if isinstance(ratio, ExplicitCF):
        deep = max(60, depth + 30)
        return ratio.a0 + _cf_tail_fraction([ratio.partial(j) for j in range(1, deep + 1)])
    return Fraction(ratio.x)


def _ref_walk(cf, ratio):
    rational = isinstance(ratio, ExactRatio)
    theta = _ref_theta(ratio, cf.depth)

    def convergent(n, p, q):
        gap = theta - Fraction(p, q)
        if not cf.exact:
            sign = (gap > 0) - (gap < 0)
        else:
            sign = 0 if rational and not gap else (-1) ** n
        return Convergent(p, q, sign, float(q * q * abs(gap)))

    p_prev, p, q_prev, q = 1, cf.a0, 0, 1
    yield convergent(0, p, q)
    for n, a in enumerate(cf.partials, 1):
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield convergent(n, p, q)


def _ref_convergents(cf, ratio, n):
    available = cf.depth + 1
    if n > available:
        raise ValueError(f"depth exhausted: {n} convergents requested, {available} available")
    return list(islice(_ref_walk(cf, ratio), n))


def _ref_approx_constant(ratio, depth=20):
    if isinstance(ratio, ExactRatio):
        raise RationalRatioError("approximation constant is undefined for rational ratios")
    qualities = [c.quality for c in islice(_ref_walk(_ref_cf_expand(ratio, depth), ratio), depth)]
    return min(qualities[len(qualities) // 2 :])


def _ref_classify_ratio(ratio, depth=30):
    if isinstance(ratio, QuadraticSurd):
        return RatioClass(
            RatioClassKind.BADLY_APPROXIMABLE, certified=True,
            gamma_lower=_ref_approx_constant(ratio, depth),
            note=("periodic continued fraction: partial quotients bounded; "
                  "gamma_lower is a convergent-restricted asymptotic estimate"))
    if not isinstance(ratio, NumericRatio):
        return classify_ratio(ratio, depth)  # no expansion: rationals and explicit sequences
    cf = _ref_cf_expand(ratio, depth)
    if not cf.partials:
        note = "value is a floating-point integer; class undecidable from floats"
    else:
        peak = max(cf.partials)
        trend = "growing" if peak > 4 * max(1, min(cf.partials)) else "bounded-looking"
        note = (f"{trend} partial quotients over {len(cf.partials)} examined "
                f"(max {peak}); floats cannot certify a class")
    return RatioClass(RatioClassKind.UNKNOWN_NUMERIC, certified=False, note=note)


def _ref_predicted_gap_centers(a, b, alpha, count):
    if alpha == 0:
        raise ValueError("alpha must be nonzero to select an approach side")
    if count < 1:
        raise ValueError("count must be >= 1")
    theta = ratio_divide(a, b)
    if isinstance(theta, ExactRatio):
        raise RationalRatioError(
            "a/b is rational: use the commensurability witness / flat-band machinery; "
            "gap centers sit at the exact commensurability points")
    want = (alpha > 0) - (alpha < 0)
    centers = []
    for family, ratio, scale in (("b", theta, b.value()), ("a", theta.invert(), a.value())):
        picked = []
        for conv in _ref_walk(_ref_cf_expand(ratio, 86), ratio):
            if len(picked) == count or conv.q >= 10**18:
                break
            if conv.approach_sign == want and conv.quality < 0.5:
                picked.append(conv)
        if len(picked) < count:
            raise ArithmeticError(
                f"could not find {count} sign-matching convergents (family {family})")
        centers.extend(GapCenter(c.q * math.pi / scale, family, c.p, c.q) for c in picked)
    return centers


def _outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_FLOATS = st.one_of(
    st.floats(1e-6, 1e6).map(NumericRatio),
    st.builds(lambda p, q: NumericRatio(p / q), st.integers(1, 10**4), st.integers(1, 10**4)))
_RATIOS = st.one_of(_SURDS, _SURDS.map(QuadraticSurd.invert), _RATIONALS, _EXPLICIT, _FLOATS)
_DEPTHS = st.integers(1, 90)
_READERS = {
    "cf_expand": (cf_expand, _ref_cf_expand),
    "convergents": (
        lambda r, d: convergents(cf_expand(r, d), r, cf_expand(r, d).depth + 1),
        lambda r, d: _ref_convergents(_ref_cf_expand(r, d), r, _ref_cf_expand(r, d).depth + 1)),
    "classify_ratio": (classify_ratio, _ref_classify_ratio),
    "approx_constant": (approx_constant, _ref_approx_constant),
    # another ratio's quotients, walked against this ratio's reference
    "foreign convergents": (lambda r, d: convergents(cf_expand(SQRT3, d), r, d + 1),
                            lambda r, d: _ref_convergents(_ref_cf_expand(SQRT3, d), r, d + 1)),
}


class TestOneExpansion:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_RATIOS, _DEPTHS)
    def test_qualities_and_float_signs_equal_the_fraction_formula(self, ratio, depth):
        cf = cf_expand(ratio, depth)
        theta = _ref_theta(ratio, depth)
        for n, c in enumerate(convergents(cf, ratio, cf.depth + 1)):
            gap = theta - Fraction(c.p, c.q)
            assert c.quality == float(c.q * c.q * abs(gap))
            if not cf.exact:
                assert c.approach_sign == (gap > 0) - (gap < 0)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_RATIOS, st.lists(st.tuples(st.sampled_from(sorted(_READERS)), _DEPTHS), min_size=1,
                             max_size=5))
    def test_readers_answer_as_the_fraction_walk(self, ratio, calls):
        # each call alone, and the same calls in one command sharing the expansion
        want = [_outcome(_READERS[name][1], ratio, depth) for name, depth in calls]
        assert [_outcome(_READERS[name][0], ratio, depth) for name, depth in calls] == want
        shared = _sharing_expansions(
            lambda: [_outcome(_READERS[name][0], ratio, depth) for name, depth in calls])
        assert shared == want

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.one_of(_SURDS, _SURDS.map(QuadraticSurd.invert), _FLOATS, _RATIONALS),
           st.one_of(_RATIONALS, st.just(ExactRatio(1, 1)), _FLOATS),
           st.sampled_from([-6.0, 2.5, 40.0]), st.integers(1, 6))
    def test_gap_centers_answer_as_the_fraction_walk(self, a, b, alpha, count):
        want = _outcome(_ref_predicted_gap_centers, a, b, alpha, count)
        assert _outcome(predicted_gap_centers, a, b, alpha, count) == want
        assert _sharing_expansions(lambda: (_outcome(predicted_gap_centers, a, b, alpha, count),
                                            _outcome(predicted_gap_centers, a, b, alpha, count))) \
            == (want, want)


class TestExpansionCounts:
    """One command expands each ratio once and walks each convergent once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import hexband.numtheory as nt

        counts = {"surd expansions": [], "midpoints": 0, "walked": []}
        surd_quotients, walk = nt._surd_quotients, nt._Expansion.walk
        midpoint = QuadraticSurd.midpoint
        walking = []  # the ratio whose walk is running

        def counting_surd_quotients(P, Q, D, *args):
            counts["surd expansions"].append((P, Q, D))
            return surd_quotients(P, Q, D, *args)

        def tagged_walk(self, depth=0):
            inner = walk(self, depth)
            while True:
                walking.append(self.ratio)
                try:
                    conv = next(inner, None)
                finally:
                    walking.pop()
                if conv is None:
                    return
                yield conv

        def counting_convergent(p, q, sign, quality):
            counts["walked"].append((walking[-1], p, q))
            return Convergent(p, q, sign, quality)

        def counting_midpoint(self):
            counts["midpoints"] += 1
            return midpoint(self)

        monkeypatch.setattr(nt, "_surd_quotients", counting_surd_quotients)
        monkeypatch.setattr(nt._Expansion, "walk", tagged_walk)
        monkeypatch.setattr(nt, "Convergent", counting_convergent)
        monkeypatch.setattr(QuadraticSurd, "midpoint", counting_midpoint)
        return counts

    @staticmethod
    def run(*argv):
        from click.testing import CliRunner

        from hexband.cli import cli

        result = CliRunner().invoke(cli, list(argv))
        assert result.exit_code == 0, result.output

    def test_a_surd_classify(self, counts):
        # theta at depths 30, 20, 24 and 10 convergents and the centre search;
        # 1/theta's quotients are theta's, so theta is the one surd expanded
        self.run("classify", "--a", "(1+sqrt(5))/2", "--b", "1", "--alpha", "30", "--centers", "5")
        assert counts["surd expansions"] == [(1, 2, 5)]
        assert counts["midpoints"] == 2
        walked = counts["walked"]
        assert len(walked) == len(set(walked))
        assert {ratio for ratio, _, _ in walked} == {GOLDEN, GOLDEN.invert()}
        assert sum(ratio == GOLDEN for ratio, _, _ in walked) == 30

    def test_gap_centers_use_one_quotient_sequence(self, counts):
        self.run("gaps", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1", "--alpha", "22",
                 "--kmax", "30", "--centers", "3")
        assert counts["surd expansions"] == [(1, 2, 5)]
        assert counts["midpoints"] == 2

    def test_no_expansion_outlives_its_command_or_call(self, counts):
        argv = ("classify", "--a", "sqrt(2)", "--b", "1", "--alpha", "-30", "--centers", "2")
        self.run(*argv)
        self.run(*argv)
        classify_ratio(SQRT2)
        approx_constant(SQRT2)
        assert counts["surd expansions"] == [(0, 1, 2)] * 4
