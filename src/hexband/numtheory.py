"""Exact continued-fraction machinery for the edge-length ratio.

Gap existence for the stretched lattice (b = c) is governed by how well the
ratio theta = a/b is approximated by rationals.  This module expands ratios
into continued fractions, produces convergents with exact approach signs,
classifies ratios (rational / badly approximable / unbounded-quotient /
numeric-only), estimates the quadratic approximation constant gamma, and
predicts gap-center locations from sign-selected convergents.

Classification policy: floating-point inputs never certify a class; only
exact inputs (reduced rationals, quadratic surds, or explicitly constructed
partial-quotient sequences) do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

__all__ = [
    "ExactRatio",
    "QuadraticSurd",
    "NumericRatio",
    "ExplicitCF",
    "RatioInput",
    "ContinuedFraction",
    "Convergent",
    "RatioClassKind",
    "RatioClass",
    "GapCenter",
    "CommensurabilityWitness",
    "RationalRatioError",
    "ratio_divide",
    "cf_expand",
    "convergents",
    "classify_ratio",
    "approx_constant",
    "predicted_gap_centers",
    "commensurability_witness",
    "reconstruct_rational",
]

DEFAULT_RATIONAL_TOL = 1e-13
DEFAULT_DENOMINATOR_CAP = 10**6

# Digits of sqrt(D) precision used for exact sign/quality evaluation.
_SURD_DIGITS = 40
# A convergent's quality q^2|theta - p/q| carries an error of up to
# q^2 * 10**-_SURD_DIGITS; below this denominator that error stays under 1e-4.
_RESOLVED_Q = 10 ** ((_SURD_DIGITS - 4) // 2)


class RationalRatioError(ValueError):
    """The requested operation needs an irrational ratio."""


@dataclass(frozen=True)
class ExactRatio:
    """A positive rational ratio p/q, stored reduced."""

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("ExactRatio requires positive integers")
        g = math.gcd(self.p, self.q)
        object.__setattr__(self, "p", self.p // g)
        object.__setattr__(self, "q", self.q // g)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def value(self) -> float:
        return self.p / self.q

    def invert(self) -> "ExactRatio":
        return ExactRatio(self.q, self.p)


@dataclass(frozen=True)
class QuadraticSurd:
    """The quadratic irrational (P + sqrt(D)) / Q with integer P, Q, D.

    D must be positive and not a perfect square, and the represented value
    must be positive.
    """

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("Q must be nonzero")
        if self.D <= 0 or math.isqrt(self.D) ** 2 == self.D:
            raise ValueError("D must be positive and not a perfect square")
        if self.value() <= 0:
            raise ValueError("represented value must be positive")

    def value(self) -> float:
        return (self.P + math.sqrt(self.D)) / self.Q

    def invert(self) -> "QuadraticSurd":
        # 1/x = (-P*Q + sqrt(D*Q^2)) / (D - P^2), sign-adjusted so the
        # sqrt coefficient stays +1.
        return _normalize_surd(-self.P * self.Q, self.Q, self.D, self.D - self.P * self.P)

    def sqrt_d_bounds(self, digits: int = _SURD_DIGITS) -> tuple[Fraction, Fraction]:
        """Rational lower/upper bounds on sqrt(D) accurate to ``digits``."""
        scale = 10**digits
        root = math.isqrt(self.D * scale * scale)
        return Fraction(root, scale), Fraction(root + 1, scale)

    def fraction_bounds(self, digits: int = _SURD_DIGITS) -> tuple[Fraction, Fraction]:
        lo, hi = self.sqrt_d_bounds(digits)
        if self.Q > 0:
            return (self.P + lo) / self.Q, (self.P + hi) / self.Q
        return (self.P + hi) / self.Q, (self.P + lo) / self.Q

    def compare_fraction(self, other: Fraction) -> int:
        """Exact sign of (self - other)."""
        # sign of (P + sqrt(D))/Q - n/d  ==  sign(Q) * sign(d*(P + sqrt(D)) - n*Q)
        n, d = other.numerator, other.denominator
        t = d * self.P - n * self.Q  # plus d*sqrt(D)
        u = d
        # sign of t + u*sqrt(D), u > 0
        if t >= 0:
            s = 1
        else:
            s = 1 if self.D * u * u > t * t else -1
        return s * _sign(self.Q)


@dataclass(frozen=True)
class NumericRatio:
    """A ratio known only as a floating-point value; never certifiable."""

    x: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValueError("NumericRatio requires a finite positive value")

    def value(self) -> float:
        return self.x

    def invert(self) -> "NumericRatio":
        return NumericRatio(1.0 / self.x)


@dataclass(frozen=True)
class ExplicitCF:
    """A ratio defined directly by its continued-fraction coefficients.

    ``partials`` maps the 1-based tail index to a positive integer quotient.
    ``unbounded`` declares whether the constructed quotient sequence is
    unbounded; that declaration is the only way the classifier will label a
    ratio as having unbounded quotients, since no finite prefix can prove it.
    """

    a0: int
    partials: Callable[[int], int]
    unbounded: bool = False

    def partial(self, j: int) -> int:
        value = self.partials(j)
        if value < 1:
            raise ValueError(f"partial quotient #{j} must be >= 1, got {value}")
        return value

    def value(self, depth: int = 40) -> float:
        return float(_cf_value_fraction(self.a0, [self.partial(j) for j in range(1, depth + 1)]))

    def invert(self) -> "ExplicitCF":
        raise ValueError("inversion of explicit CF inputs is not supported")


RatioInput = ExactRatio | QuadraticSurd | NumericRatio | ExplicitCF


@dataclass(frozen=True)
class ContinuedFraction:
    """Expansion [a0; a1, a2, ...] with optional eventually-periodic tail.

    ``period`` is (start, length) in 1-based tail indices: partial a_start
    begins a cycle of the given length.  ``partials`` is materialized up to
    the expansion depth that was requested.
    """

    a0: int
    partials: tuple[int, ...]
    period: tuple[int, int] | None = None
    exact: bool = True
    precision_exhausted: bool = False

    def __post_init__(self):
        if self.a0 < 0:
            raise ValueError("a0 must be nonnegative")
        if any(p < 1 for p in self.partials):
            raise ValueError("partial quotients must be positive")

    @property
    def depth(self) -> int:
        return len(self.partials)

    def to_dict(self) -> dict:
        return {
            "a0": self.a0,
            "partials": list(self.partials),
            "period": list(self.period) if self.period else None,
            "exact": self.exact,
            "precision_exhausted": self.precision_exhausted,
        }


@dataclass(frozen=True)
class Convergent:
    """Best rational approximation p/q with its approach side and quality.

    ``approach_sign`` is the sign of (theta - p/q): +1 from below, -1 from
    above, 0 only for the terminal convergent of a rational input.
    ``quality`` is q^2 * |theta - p/q|.
    """

    p: int
    q: int
    approach_sign: int
    quality: float

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "approach_sign": self.approach_sign,
            "quality": self.quality,
        }


class RatioClassKind(Enum):
    RATIONAL = "rational"
    BADLY_APPROXIMABLE = "badly_approximable"
    LAST_ADMISSIBLE = "last_admissible"
    UNKNOWN_NUMERIC = "unknown_numeric"


@dataclass(frozen=True)
class RatioClass:
    """Classification result with its certification level."""

    kind: RatioClassKind
    certified: bool
    gamma_lower: float | None = None
    rational_pq: tuple[int, int] | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "certified": self.certified,
            "gamma_lower": self.gamma_lower,
            "rational_pq": list(self.rational_pq) if self.rational_pq else None,
            "note": self.note,
        }


@dataclass(frozen=True)
class GapCenter:
    """A predicted gap-center location k with its source convergent."""

    k: float
    family: str  # "b": k = q*pi/b from theta = a/b; "a": k = q*pi/a from 1/theta
    p: int
    q: int


@dataclass(frozen=True)
class CommensurabilityWitness:
    """Common unit d with a = p*d, b = q*d, c = r*d and gcd(p, q, r) = 1."""

    d: float
    p: int
    q: int
    r: int
    exact: bool = False
    d_exact: Fraction | None = None


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _cf_value_fraction(a0: int, partials: Sequence[int]) -> Fraction:
    value = Fraction(0)
    for a in reversed(partials):
        value = 1 / (a + value)
    return a0 + value


def ratio_divide(num: RatioInput, den: RatioInput) -> RatioInput:
    """Form num/den staying exact whenever the arithmetic permits.

    Surd-by-surd division falls back to a numeric ratio unless both share
    the same radicand, in which case rationalizing keeps the result exact.
    """
    if isinstance(num, ExplicitCF) or isinstance(den, ExplicitCF):
        raise ValueError("explicit CF inputs do not support division")
    if isinstance(num, NumericRatio) or isinstance(den, NumericRatio):
        return NumericRatio(num.value() / den.value())
    if isinstance(num, ExactRatio) and isinstance(den, ExactRatio):
        frac = num.fraction / den.fraction
        return ExactRatio(frac.numerator, frac.denominator)
    if isinstance(num, QuadraticSurd) and isinstance(den, ExactRatio):
        return _scale_surd(num, Fraction(den.q, den.p))
    if isinstance(num, ExactRatio) and isinstance(den, QuadraticSurd):
        return _scale_surd(den.invert(), num.fraction)
    assert isinstance(num, QuadraticSurd) and isinstance(den, QuadraticSurd)
    if num.D == den.D:
        # Rationalize: (P1 + sqrt(D))/(P2 + sqrt(D)) has a linear-in-sqrt(D)
        # numerator, so the quotient stays a quadratic surd (or a rational).
        u = (den.P - num.P) * den.Q
        A = (num.P * den.P - num.D) * den.Q
        B = num.Q * (den.P * den.P - num.D)
        if u == 0:
            frac = Fraction(A, B)
            if frac <= 0:
                raise ValueError("ratio is not positive")
            return ExactRatio(frac.numerator, frac.denominator)
        return _normalize_surd(A, u, num.D, B)
    return NumericRatio(num.value() / den.value())


def _scale_surd(surd: QuadraticSurd, factor: Fraction) -> QuadraticSurd:
    # (P + sqrt(D))/Q * n/d = (P*n + sqrt(D*n^2)) / (Q*d)  for n > 0
    n, d = factor.numerator, factor.denominator
    if n <= 0:
        raise ValueError("scale factor must be positive")
    return QuadraticSurd(surd.P * n, surd.Q * d, surd.D * n * n)


def _normalize_surd(A: int, u: int, D: int, B: int) -> QuadraticSurd:
    """Represent (A + u*sqrt(D))/B as (P + sqrt(D'))/Q with |u| folded into D'."""
    if u > 0:
        return QuadraticSurd(A, B, D * u * u)
    return QuadraticSurd(-A, -B, D * u * u)


def _floor_surd(P: int, Q: int, D: int) -> int:
    """Exact floor of (P + sqrt(D))/Q for non-square D."""
    s = math.isqrt(D)
    if Q > 0:
        return (P + s) // Q
    return -((P + s) // (-Q)) - 1


def cf_expand(ratio: RatioInput, max_depth: int) -> ContinuedFraction:
    """Expand a ratio into its continued fraction.

    Rational inputs terminate (Euclid, exact integers); quadratic surds run
    the exact surd recurrence and detect the period, then the materialized
    partials cycle up to ``max_depth``; numeric inputs iterate in floating
    point and stop early, with ``precision_exhausted`` set, once the
    remaining digits cannot support another reliable quotient.
    """
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
        return _cf_expand_surd(ratio, max_depth)
    if isinstance(ratio, ExplicitCF):
        partials = tuple(ratio.partial(j) for j in range(1, max_depth + 1))
        return ContinuedFraction(ratio.a0, partials, None, exact=True)
    assert isinstance(ratio, NumericRatio)
    return _cf_expand_float(ratio.x, max_depth)


def _cf_expand_surd(surd: QuadraticSurd, max_depth: int) -> ContinuedFraction:
    P, Q, D = surd.P, surd.Q, surd.D
    if (D - P * P) % Q:
        P *= abs(Q)
        D *= Q * Q
        Q *= abs(Q)
    a0 = _floor_surd(P, Q, D)
    if a0 < 0:
        raise ValueError("ratio must be positive")
    partials: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    period = None
    P = a0 * Q - P
    Q = (D - P * P) // Q
    index = 1
    while len(partials) < max_depth:
        state = (P, Q)
        if state in seen:
            period = (seen[state], index - seen[state])
            break
        seen[state] = index
        a = _floor_surd(P, Q, D)
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


def _cf_expand_float(x: float, max_depth: int) -> ContinuedFraction:
    a0 = math.floor(x)
    partials: list[int] = []
    rem = x - a0
    q_prev, q_cur = 0, 1
    exhausted = False
    for _ in range(max_depth):
        if rem < 1e-15:
            break
        # Once the convergent denominator nears 1/sqrt(eps), further
        # quotients are noise from the double's last bits.
        if q_cur > 3e7:
            exhausted = True
            break
        x = 1.0 / rem
        a = math.floor(x)
        if a < 1:
            exhausted = True
            break
        rem = x - a
        if 1.0 - rem < 1e-12 * max(1, a):
            # x sat a hair below an integer: canonicalize a+1 and terminate
            a += 1
            rem = 0.0
        partials.append(a)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return ContinuedFraction(
        int(a0), tuple(partials), None, exact=False, precision_exhausted=exhausted
    )


def _exact_diff(ratio: RatioInput, frac: Fraction) -> tuple[int, Fraction]:
    """(sign, |theta - frac|) with extended precision for exact inputs."""
    if isinstance(ratio, ExactRatio):
        diff = ratio.fraction - frac
        return _sign(diff), abs(diff)
    if isinstance(ratio, QuadraticSurd):
        sign = ratio.compare_fraction(frac)
        lo, hi = ratio.fraction_bounds()
        mid = (lo + hi) / 2
        return sign, abs(mid - frac)
    if isinstance(ratio, ExplicitCF):
        deep = _cf_value_fraction(ratio.a0, [ratio.partial(j) for j in range(1, 61)])
        diff = deep - frac
        return _sign(diff), abs(diff)
    assert isinstance(ratio, NumericRatio)
    diff = Fraction(ratio.x) - frac
    return _sign(diff), abs(diff)


def convergents(cf: ContinuedFraction, ratio: RatioInput, n: int) -> list[Convergent]:
    """First ``n`` convergents p/q by the standard three-term recurrence.

    Consecutive convergents satisfy p_n q_{n-1} - p_{n-1} q_n = +-1 exactly;
    approach signs are evaluated exactly for exact inputs and numerically
    otherwise.
    """
    available = cf.depth + 1
    if n > available:
        raise ValueError(f"depth exhausted: {n} convergents requested, {available} available")
    result: list[Convergent] = []
    p_prev, p_cur = 1, cf.a0
    q_prev, q_cur = 0, 1
    for index in range(n):
        if index > 0:
            a = cf.partials[index - 1]
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
        frac = Fraction(p_cur, q_cur)
        sign, diff = _exact_diff(ratio, frac)
        quality = float(q_cur * q_cur * diff)
        result.append(Convergent(p_cur, q_cur, sign, quality))
    return result


def _tail_min_quality(qualities: Sequence[float]) -> float:
    """Asymptotic estimate of liminf q^2|theta - p/q| over convergents.

    The earliest convergents of a quadratic irrational can undershoot the
    limiting constant (the golden ratio's 2/1 has quality 1/phi^2 < 1/sqrt5),
    so the estimate discards the first half of the examined sequence.
    """
    tail = qualities[len(qualities) // 2 :]
    if not tail:
        raise ValueError("no convergents available")
    return min(tail)


def classify_ratio(ratio: RatioInput, depth: int = 30) -> RatioClass:
    """Classify a ratio by its continued-fraction behaviour.

    Only exact inputs certify: rationals terminate, quadratic surds are
    periodic hence badly approximable, and explicitly constructed quotient
    sequences may declare unboundedness.  Numeric inputs get a heuristic
    note only.
    """
    if isinstance(ratio, ExactRatio):
        return RatioClass(
            RatioClassKind.RATIONAL,
            certified=True,
            rational_pq=(ratio.p, ratio.q),
            note="terminating continued fraction",
        )
    if isinstance(ratio, QuadraticSurd):
        cf = cf_expand(ratio, depth)
        convs = convergents(cf, ratio, depth)
        gamma = _tail_min_quality([c.quality for c in convs])
        return RatioClass(
            RatioClassKind.BADLY_APPROXIMABLE,
            certified=True,
            gamma_lower=gamma,
            note=(
                "periodic continued fraction: partial quotients bounded; "
                "gamma_lower is a convergent-restricted asymptotic estimate"
            ),
        )
    if isinstance(ratio, ExplicitCF):
        if ratio.unbounded:
            return RatioClass(
                RatioClassKind.LAST_ADMISSIBLE,
                certified=True,
                note="declared unbounded partial-quotient construction",
            )
        observed = [ratio.partial(j) for j in range(1, depth + 1)]
        return RatioClass(
            RatioClassKind.UNKNOWN_NUMERIC,
            certified=False,
            note=f"explicit CF without unboundedness declaration; max quotient seen {max(observed)}",
        )
    assert isinstance(ratio, NumericRatio)
    cf = cf_expand(ratio, depth)
    if not cf.partials:
        note = "value is a floating-point integer; class undecidable from floats"
    else:
        peak = max(cf.partials)
        trend = "growing" if peak > 4 * max(1, min(cf.partials)) else "bounded-looking"
        note = (
            f"{trend} partial quotients over {len(cf.partials)} examined "
            f"(max {peak}); floats cannot certify a class"
        )
    return RatioClass(RatioClassKind.UNKNOWN_NUMERIC, certified=False, note=note)


def approx_constant(ratio: RatioInput, depth: int = 20) -> float:
    """Estimate gamma = liminf q^2 |theta - p/q| over the convergents.

    Restricted to convergents (best approximations carry the liminf) and
    evaluated on the tail of the examined range to discard the pre-asymptotic
    start; rational inputs are rejected.
    """
    if isinstance(ratio, ExactRatio):
        raise RationalRatioError("approximation constant is undefined for rational ratios")
    cf = cf_expand(ratio, depth)
    n = min(depth, cf.depth + 1)
    convs = convergents(cf, ratio, n)
    return _tail_min_quality([c.quality for c in convs])


def predicted_gap_centers(
    a: RatioInput,
    b: RatioInput,
    alpha: float,
    count: int,
) -> list[GapCenter]:
    """Predict gap-center locations for the stretched (b = c) lattice.

    Convergents p/q of theta = a/b whose approach side matches sign(alpha)
    give centers k = q*pi/b; convergents of 1/theta likewise give k = q*pi/a.
    Convergents whose quality reaches 1/2 are skipped: there p is not the
    nearest integer to theta*q and the sign of cot(a*k) at the center is no
    longer tied to the approach side.  Rational ratios are rejected (their
    gap centers are the exact commensurability points instead); running out
    of resolvable convergents before ``count`` are found is an
    ``ArithmeticError``.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero to select an approach side")
    if count < 1:
        raise ValueError("count must be >= 1")
    theta = ratio_divide(a, b)
    if isinstance(theta, ExactRatio):
        raise RationalRatioError(
            "a/b is rational: use the commensurability witness / flat-band machinery; "
            "gap centers sit at the exact commensurability points"
        )
    want = _sign(alpha)
    centers: list[GapCenter] = []
    for family, ratio_obj, scale in (
        ("b", theta, b.value()),
        ("a", theta.invert() if not isinstance(theta, NumericRatio) else NumericRatio(1 / theta.x),
         a.value()),
    ):
        picked = 0
        depth = 2 * count + 12
        while True:
            cf = cf_expand(ratio_obj, depth)
            convs = convergents(cf, ratio_obj, min(depth, cf.depth + 1))
            picked_list = [
                c for c in convs if c.approach_sign == want and c.quality < 0.5
            ][:count]
            picked = len(picked_list)
            # deeper convergents would outrun the precision of their qualities
            if picked >= count or convs[-1].q >= _RESOLVED_Q or cf.depth + 1 < depth:
                break
            depth *= 2
        if picked < count:
            raise ArithmeticError(
                f"could not find {count} sign-matching convergents (family {family})"
            )
        for conv in picked_list:
            centers.append(GapCenter(conv.q * math.pi / scale, family, conv.p, conv.q))
    return centers


def reconstruct_rational(
    x: float,
    tol: float = DEFAULT_RATIONAL_TOL,
    max_denominator: int = DEFAULT_DENOMINATOR_CAP,
) -> tuple[int, int] | None:
    """Smallest-denominator p/q with |x - p/q| <= tol*max(1, x), q <= cap.

    Walks the convergents of x; with the default knobs a double that *is*
    a modest rational is recovered exactly (its representation error is a
    few ulp, far below the tolerance), while quadratic irrationals such as
    sqrt(2) or the golden ratio are rejected: their best approximations
    improve only like gamma/q^2 and cannot reach the tolerance within the
    denominator cap.  Returns None when no convergent qualifies.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError("x must be finite and positive")
    bound = tol * max(1.0, x)
    a0 = math.floor(x)
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    rem = x - a0
    while True:
        if q_cur <= max_denominator and abs(x - p_cur / q_cur) <= bound:
            return (p_cur, q_cur)
        if q_cur > max_denominator or rem < 1e-18:
            return None
        nxt = 1.0 / rem
        a = math.floor(nxt)
        if a < 1:
            return None
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        rem = nxt - a


def commensurability_witness(
    a: float | Fraction,
    b: float | Fraction,
    c: float | Fraction,
    tol: float = DEFAULT_RATIONAL_TOL,
    max_denominator: int = DEFAULT_DENOMINATOR_CAP,
) -> CommensurabilityWitness | None:
    """Find a common unit d with a = p*d, b = q*d, c = r*d, gcd(p,q,r) = 1.

    Exact ``Fraction``/``int`` inputs produce an exact witness.  Float
    inputs go through bounded-denominator rational reconstruction of the
    ratios b/a and c/a; when either ratio admits no rational of denominator
    <= ``max_denominator`` within ``tol``, there is no witness.
    """
    if not (tol > 0 and max_denominator >= 1):
        raise ValueError(
            f"need tol > 0 and max_denominator >= 1, got ({tol!r}, {max_denominator!r})"
        )
    values = (a, b, c)
    if all(isinstance(v, (int, Fraction)) for v in values):
        fracs = [Fraction(v) for v in values]
        if any(f <= 0 for f in fracs):
            raise ValueError("lengths must be positive")
        lcm_den = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * lcm_den) for f in fracs]
        g = math.gcd(*ints)
        d_exact = Fraction(g, lcm_den)
        p, q, r = (i // g for i in ints)
        return CommensurabilityWitness(float(d_exact), p, q, r, exact=True, d_exact=d_exact)

    fa, fb, fc = (float(v) for v in values)
    if min(fa, fb, fc) <= 0:
        raise ValueError("lengths must be positive")
    rb = reconstruct_rational(fb / fa, tol, max_denominator)
    rc = reconstruct_rational(fc / fa, tol, max_denominator)
    if rb is None or rc is None:
        return None
    (mb, nb), (mc, nc) = rb, rc
    L = math.lcm(nb, nc)
    p, q, r = L, mb * (L // nb), mc * (L // nc)
    g = math.gcd(p, q, r)
    p, q, r = p // g, q // g, r // g
    d = fa / p
    if abs(fb - q * d) > tol * max(1.0, fb) or abs(fc - r * d) > tol * max(1.0, fc):
        return None
    return CommensurabilityWitness(d, p, q, r, exact=False)
