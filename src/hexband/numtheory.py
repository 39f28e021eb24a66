"""Exact continued-fraction machinery for the edge-length ratio.

Gap existence for the stretched lattice (b = c) is governed by how well the
ratio theta = a/b is approximated by rationals.  This module expands ratios
into continued fractions, produces convergents with exact approach signs,
classifies ratios (rational / badly approximable / unbounded-quotient /
numeric-only), estimates the quadratic approximation constant gamma, and
predicts gap-center locations from sign-selected convergents.  Each reader
expands its ratio itself, computing the quotients on demand and each
convergent's quality in integer arithmetic, to its own depth.

Exact ratios are numbers (p + r*sqrt(D))/q, r = 0 for a rational: division
is one conjugate division in Q(sqrt(D)), and a surd's qualities are measured
against an integer bracket of it, so each is the correctly rounded double of
q^2 |theta - p/q| whichever form the surd was written in.

Classification policy: floating-point inputs never certify a class; only
exact inputs (reduced rationals, quadratic surds, or explicitly constructed
partial-quotient sequences) do.  So with commensurability: the lengths share
a unit exactly when b/a and c/a are rational, and for exact lengths the
ratios of :func:`ratio_divide` decide it; only a float length's ratio is a
guess (:func:`reconstruct_rational`), and its witness is not ``exact``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, count, cycle, islice
from typing import Callable, Iterator, Sequence

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
    "quadratic_ratio",
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
        if (self.P >= 0 or self.P * self.P < self.D) != (self.Q > 0):  # P + sqrt(D) > 0, exactly
            raise ValueError("represented value must be positive")

    def value(self) -> float:
        return (self.P + math.sqrt(self.D)) / self.Q

    def bracket(self, bits: int) -> tuple[int, int]:
        """Integers (n, d), d = |Q|*2**bits, with n/d < value < (n + 1)/d."""
        n = (self.P << bits) + math.isqrt(self.D << 2 * bits)
        return (n, self.Q << bits) if self.Q > 0 else (-n - 1, -self.Q << bits)


@dataclass(frozen=True)
class NumericRatio:
    """A ratio known only as a floating-point value; never certifiable."""

    x: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValueError("NumericRatio requires a finite positive value")

    def value(self) -> float:
        return self.x


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


@dataclass(frozen=True)
class GapCenter:
    """A predicted gap-center location k with its source convergent."""

    k: float
    family: str  # "b": k = q*pi/b from theta = a/b; "a": k = q*pi/a from 1/theta
    p: int
    q: int


@dataclass(frozen=True)
class CommensurabilityWitness:
    """Common unit d with a = p*d, b = q*d, c = r*d and gcd(p, q, r) = 1;
    ``exact`` when exact arithmetic proved the lattice, not a float guess."""

    d: float
    p: int
    q: int
    r: int
    exact: bool = False


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _cf_value_fraction(a0: int, partials: Sequence[int]) -> Fraction:
    value = Fraction(0)
    for a in reversed(partials):
        value = 1 / (a + value)
    return a0 + value


def ratio_divide(num: RatioInput, den: RatioInput) -> RatioInput:
    """Form num/den, exactly whenever the arithmetic permits.

    An exact ratio is (p + r*sqrt(D))/q, with r = 0 for a rational.  Two surds
    share a radicand when D1*D2 is a perfect square s^2 (then sqrt(D1) =
    s*sqrt(D2)/D2), and num/den is one conjugate division in Q(sqrt(D)); any
    other surd pair, and any float, gives a numeric ratio.
    """
    if isinstance(num, ExplicitCF) or isinstance(den, ExplicitCF):
        raise ValueError("explicit CF inputs do not support division")
    if isinstance(num, NumericRatio) or isinstance(den, NumericRatio):
        return NumericRatio(num.value() / den.value())
    (p1, r1, q1, d1), (p2, r2, q2, d2) = (
        (x.P, 1, x.Q, x.D) if isinstance(x, QuadraticSurd) else (x.p, 0, x.q, 1)
        for x in (num, den))
    if r1 and r2:
        s = math.isqrt(d1 * d2)
        if s * s != d1 * d2:
            return NumericRatio(num.value() / den.value())
        p1, r1, q1 = p1 * d2, r1 * s, q1 * d2
    D = d2 if r2 else d1
    # (p1 + r1 sqrt(D)) q2 / (q1 (p2 + r2 sqrt(D))), both sides times p2 - r2 sqrt(D)
    return quadratic_ratio(q2 * (p1 * p2 - r1 * r2 * D), q2 * (r1 * p2 - p1 * r2),
                           q1 * (p2 * p2 - r2 * r2 * D), D)


def quadratic_ratio(p: int, r: int, q: int, D: int) -> ExactRatio | QuadraticSurd:
    """(p + r*sqrt(D))/q in normal form: an ``ExactRatio`` when r = 0 or D is a
    perfect square, else (P + sqrt(D*r^2))/Q with p, r, q reduced and r > 0."""
    root = math.isqrt(D)
    if root * root == D:
        p, r = p + r * root, 0
    g = math.gcd(p, r, q) * (-1 if (r or q) < 0 else 1)
    p, r, q = p // g, r // g, q // g
    return QuadraticSurd(p, q, D * r * r) if r else ExactRatio(p, q)


class _Expansion:
    """One ratio's continued fraction, its quotients computed on demand and kept.

    ``partials`` holds the quotients a1, a2, ... found so far; the source stops
    after a rational's last one, or where a float's digits support no further
    one (``exhausted``); ``period`` gets a surd's (start, length) once found.
    No kept generator refers back to the object, so dropping it frees it at once.
    """

    def __init__(self, ratio: RatioInput, quotients: Iterator[int | None] | None = None):
        self.ratio = ratio
        self.exact = not isinstance(ratio, NumericRatio)
        self.partials: list[int] = []
        self.period: list[tuple[int, int]] = []
        self.exhausted = False
        if quotients is None:
            if isinstance(ratio, ExactRatio):
                quotients = _euclid_quotients(ratio.p, ratio.q)
            elif isinstance(ratio, QuadraticSurd):
                quotients = _surd_quotients(ratio.P, ratio.Q, ratio.D, self.partials, self.period)
            elif isinstance(ratio, ExplicitCF):
                quotients = chain([ratio.a0], map(ratio.partial, count(1)))
            else:
                quotients = _float_quotients(ratio.x)
        self.a0 = next(quotients)
        if self.a0 < 0:
            raise ValueError("a0 must be nonnegative")
        self._source: Iterator[int | None] | None = quotients

    def extend(self, depth: int) -> int:
        """Compute the partials up to ``depth``; return how many there are."""
        while len(self.partials) < depth and self._source:
            a = next(self._source, 0)  # a partial is >= 1: 0 is the end, None a float's
            if a:
                self.partials.append(a)
            else:
                self._source, self.exhausted = None, a is None
        return len(self.partials)

    def stream(self) -> Iterator[int]:
        """The partials a1, a2, ... as far as they go, each computed once."""
        n = 1
        while self.extend(n) >= n:
            yield self.partials[n - 1]
            n += 1

    def walk(self, depth: int = 0) -> Iterator[Convergent]:
        """The convergents in order, each computed as it is yielded.  Theta is
        num/den: exact for rationals and floats, an explicit sequence truncated
        30 quotients deeper than ``depth`` (at least 60).  With gap = num*q -
        p*den, q^2 |theta - p/q| is q |gap| / den, rounded once as
        float(Fraction) rounds it.  A surd lies strictly inside the integer
        bracket (num, num + 1)/den of one ``math.isqrt``: a quality is taken
        when both ends put p/q on one side and round to one double, so it is
        the correctly rounded value; else, as q outgrows the bracket, a finer
        one is taken.  Exact sides alternate, 0 at a rational's end; a float's
        are the signs of gap."""
        ratio, bits = self.ratio, 128  # den = |Q|*2**128 serves q up to about 2**32
        surd = isinstance(ratio, QuadraticSurd)
        num, den = ratio.bracket(bits) if surd else self._reference(max(60, depth + 30))
        rational = isinstance(ratio, ExactRatio)
        p_prev, p, q_prev, q = 0, 1, 1, 0
        for n, a in enumerate(chain([self.a0], self.stream())):
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
            while True:
                gap = num * q - p * den
                quality = q * abs(gap) / den
                if not surd or (gap > 0 or gap < -q) and q * abs(gap + q) / den == quality:
                    break
                bits = max(2 * bits, 2 * q.bit_length() + 64)
                num, den = ratio.bracket(bits)
            sign = (-1) ** n if self.exact else _sign(gap)
            yield Convergent(p, q, 0 if rational and not gap else sign, quality)

    def _reference(self, depth: int) -> tuple[int, int]:
        ratio = self.ratio
        if isinstance(ratio, ExactRatio):
            return ratio.p, ratio.q
        if isinstance(ratio, NumericRatio):
            return ratio.x.as_integer_ratio()
        theta = _cf_value_fraction(ratio.a0, [ratio.partial(j) for j in range(1, depth + 1)])
        return theta.numerator, theta.denominator


def _euclid_quotients(p: int, q: int) -> Iterator[int]:
    while q:
        yield p // q
        p, q = q, p % q


def _surd_quotients(P: int, Q: int, D: int, partials: list[int], period: list) -> Iterator[int]:
    """The exact recurrence of (P + sqrt(D))/Q until a state repeats, then the
    cycle of ``partials``, the quotients it yielded, noted in ``period``."""
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    root = math.isqrt(D)
    seen: dict[tuple[int, int], int] = {}  # the index of each partial's state
    while True:
        a = (P + root) // Q if Q > 0 else -((P + root) // -Q) - 1
        yield a
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) in seen:
            break
        seen[P, Q] = len(seen) + 1
    start = seen[P, Q]
    period.append((start, len(seen) + 1 - start))
    yield from cycle(partials[start - 1 :])


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
    expansion = _Expansion(ratio)
    n = expansion.extend(max_depth)
    period = next((found for found in expansion.period if sum(found) <= max_depth), None)
    return ContinuedFraction(expansion.a0, tuple(expansion.partials[:max_depth]), period,
                             expansion.exact, expansion.exhausted and n < max_depth)


def _float_quotients(x: float) -> Iterator[int | None]:
    """The quotients a0, a1, ... of the double x, lazily; a last ``None`` marks
    where its digits support no further quotient."""
    a = math.floor(x)
    rem = x - a
    q_prev, q_cur = 0, 1
    yield a
    while rem >= 1e-15:
        x = 1.0 / rem
        a = math.floor(x)
        # Once the convergent denominator nears 1/sqrt(eps), further
        # quotients are noise from the double's last bits.
        if q_cur > 3e7 or a < 1:
            yield None
            return
        rem = x - a
        if 1.0 - rem < 1e-12 * a:
            # x sat a hair below an integer: canonicalize a+1 and terminate
            a += 1
            rem = 0.0
        yield a
        q_prev, q_cur = q_cur, a * q_cur + q_prev


def convergents(cf: ContinuedFraction, ratio: RatioInput, n: int) -> list[Convergent]:
    """The first ``n`` convergents p/q of ``cf``'s quotients, with approach sides
    and qualities measured against ``ratio``."""
    available = cf.depth + 1
    if n > available:
        raise ValueError(f"depth exhausted: {n} convergents requested, {available} available")
    expansion = _Expansion(ratio, iter((cf.a0, *cf.partials)))
    expansion.exact = cf.exact
    return list(islice(expansion.walk(cf.depth), n))


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
        return RatioClass(
            RatioClassKind.BADLY_APPROXIMABLE,
            certified=True,
            gamma_lower=approx_constant(ratio, depth),
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
    evaluated on the second half of the first ``depth`` of them: the earliest
    convergents of a quadratic irrational can undershoot the limiting
    constant (the golden ratio's 2/1 has quality 1/phi^2 < 1/sqrt5).
    Rational inputs are rejected.
    """
    if isinstance(ratio, ExactRatio):
        raise RationalRatioError("approximation constant is undefined for rational ratios")
    if depth < 1:
        raise ValueError("max_depth must be >= 1")
    qualities = [c.quality for c in islice(_Expansion(ratio).walk(depth), depth)]
    return min(qualities[len(qualities) // 2 :])


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
    longer tied to the approach side.  The search examines the convergents
    with q < 1e18: a budget, not a precision bound, as every quality is
    exact to the double.  Rational ratios are rejected (their gap centers are
    the exact commensurability points instead); running out of convergents
    within the budget before ``count`` are found is an ``ArithmeticError``.
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
    expansion = _Expansion(theta)
    # a surd 1/theta's quotients are theta's shifted one place: behind a 0, or without a0 = 0
    shifted = chain([0, expansion.a0] if expansion.a0 else [], expansion.stream())
    inverse = _Expansion(ratio_divide(ExactRatio(1, 1), theta),
                         shifted if isinstance(theta, QuadraticSurd) else None)
    centers: list[GapCenter] = []
    for family, walked, scale in (("b", expansion, b.value()), ("a", inverse, a.value())):
        picked: list[Convergent] = []
        for conv in walked.walk():
            if len(picked) == count or conv.q >= 10**18:  # the search budget
                break
            if conv.approach_sign == want and conv.quality < 0.5:
                picked.append(conv)
        if len(picked) < count:
            raise ArithmeticError(
                f"could not find {count} sign-matching convergents (family {family})"
            )
        centers.extend(GapCenter(c.q * math.pi / scale, family, c.p, c.q) for c in picked)
    return centers


def reconstruct_rational(x: float) -> tuple[int, int] | None:
    """Smallest-denominator p/q with |x - p/q| <= ``DEFAULT_RATIONAL_TOL``*max(1, x),
    q <= ``DEFAULT_DENOMINATOR_CAP`` and p >= 1 (a ratio of lengths is never 0).

    Walks the convergents of the float expansion (:func:`_float_quotients`, as
    :func:`cf_expand` does): a double that *is* a modest rational is recovered
    exactly (its representation error is a few ulp, far below the tolerance),
    while quadratic irrationals such as sqrt(2) or the golden ratio are
    rejected: their best approximations improve only like gamma/q^2 and cannot
    reach the tolerance within the denominator cap.  Returns None when no
    convergent qualifies.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError("x must be finite and positive")
    bound = DEFAULT_RATIONAL_TOL * max(1.0, x)
    p_prev, p, q_prev, q = 0, 1, 1, 0
    for a in _float_quotients(x):
        if a is None:
            break
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if q > DEFAULT_DENOMINATOR_CAP:
            break
        if p and abs(x - p / q) <= bound:
            return (p, q)
    return None


def commensurability_witness(
    a: RatioInput | float | Fraction,
    b: RatioInput | float | Fraction,
    c: RatioInput | float | Fraction,
) -> CommensurabilityWitness | None:
    """Find a common unit d with a = p*d, b = q*d, c = r*d, gcd(p, q, r) = 1.

    An ``int`` or ``Fraction`` length is an ``ExactRatio`` and a float a
    ``NumericRatio``; p, q, r come from the ratios b/a and c/a of
    :func:`ratio_divide`.  Two rational ratios prove the lattice, and the
    witness is ``exact``.  An irrational ratio of exact lengths proves there is
    none (None): a surd, or the float quotient of two surds of unlike
    radicands, whose sqrt(D1) and sqrt(D2) are independent over Q.  Only a
    ratio with a float length is guessed, by :func:`reconstruct_rational`, and
    the guess stands only if b and c lie within ``DEFAULT_RATIONAL_TOL`` of
    q*d and r*d.  d is the correctly rounded a/p for an exact lattice with a
    rational a, and float(a)/p otherwise.
    """
    a, b, c = map(_as_ratio, (a, b, c))
    ratios = [(ratio_divide(x, a), NumericRatio in (type(a), type(x))) for x in (b, c)]
    guesses = [(x.p, x.q) if isinstance(x, ExactRatio)
               else reconstruct_rational(x.x) if numeric
               else None  # an irrational ratio of exact lengths
               for x, numeric in ratios]
    if None in guesses:
        return None
    (mb, nb), (mc, nc) = guesses
    p = math.lcm(nb, nc)  # each guess is reduced, so gcd(p, q, r) = 1
    q, r = mb * (p // nb), mc * (p // nc)
    if not any(numeric for _, numeric in ratios):
        d = a.p / (a.q * p) if isinstance(a, ExactRatio) else a.value() / p
        return CommensurabilityWitness(d, p, q, r, exact=True)
    d = a.value() / p
    if any(abs(x.value() - n * d) > DEFAULT_RATIONAL_TOL * max(1.0, x.value())
           for x, n in ((b, q), (c, r))):
        return None
    return CommensurabilityWitness(d, p, q, r)


def _as_ratio(length: RatioInput | float | Fraction) -> RatioInput:
    if isinstance(length, (int, Fraction)):
        return ExactRatio(*Fraction(length).as_integer_ratio())
    return length if isinstance(length, RatioInput) else NumericRatio(float(length))
