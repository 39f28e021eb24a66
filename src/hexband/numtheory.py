"""Exact continued-fraction machinery for the edge-length ratio.

Gap existence for the stretched lattice (b = c) is governed by how well the
ratio theta = a/b is approximated by rationals.  This module expands ratios
into continued fractions, produces convergents with exact approach signs,
classifies ratios (rational / badly approximable / unbounded-quotient /
numeric-only), estimates the quadratic approximation constant gamma, and
predicts gap-center locations from sign-selected convergents.  A ratio's
quotients and convergents (in integer arithmetic) are computed once and kept,
each reader taking its own depth; one CLI command's readers share them.

Classification policy: floating-point inputs never certify a class; only
exact inputs (reduced rationals, quadratic surds, or explicitly constructed
partial-quotient sequences) do.
"""

from __future__ import annotations

import math
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, count, cycle, islice
from typing import Any, Callable, Iterator, Sequence

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

# Digits of sqrt(D) precision used for a surd's convergent qualities.
_SURD_DIGITS = 40
# A convergent's quality q^2|theta - p/q| carries an error of up to
# q^2 * 10**-_SURD_DIGITS; below this denominator that error stays under 1e-4.
_RESOLVED_Q = 10 ** ((_SURD_DIGITS - 4) // 2)
# q_n >= F_{n+1} (Fibonacci) and F_88 > _RESOLVED_Q, so convergent 87 is past
# it: 86 partial quotients reach every convergent with q < _RESOLVED_Q.
_RESOLVED_DEPTH = 86


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

    def midpoint(self) -> Fraction:
        """The value with sqrt(D) replaced by the midpoint of its
        ``_SURD_DIGITS``-digit bracket: within 10**-_SURD_DIGITS/|Q| of it."""
        scale = 10**_SURD_DIGITS
        root = math.isqrt(self.D * scale * scale)
        return (self.P + Fraction(2 * root + 1, 2 * scale)) / self.Q


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


class _Expansion:
    """One ratio's continued fraction, computed on demand and kept.

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
        self._walks: dict[int | None, tuple[tuple[int, int], list[Convergent]]] = {}
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
        """The convergents in order, each computed once and then kept.  Theta
        is num/den: exact for rationals and floats, the 40-digit midpoint for
        surds, an explicit sequence truncated 30 quotients deeper than ``depth``
        (at least 60).  With gap = num*q - p*den, q^2 |theta - p/q| is q |gap| /
        den, rounded once as float(Fraction) rounds it.  Exact sides alternate,
        0 at a rational's end; a float's are the signs of gap."""
        key = max(60, depth + 30) if isinstance(self.ratio, ExplicitCF) else None
        if key not in self._walks:
            self._walks[key] = (self._reference(key), [])
        (num, den), done = self._walks[key]
        rational = isinstance(self.ratio, ExactRatio)
        p_prev, p, q_prev, q = 0, 1, 1, 0
        for n, a in enumerate(chain([self.a0], self.stream())):
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
            if n == len(done):
                gap = num * q - p * den
                sign = (-1) ** n if self.exact else _sign(gap)
                done.append(Convergent(p, q, 0 if rational and not gap else sign, q * abs(gap) / den))
            yield done[n]

    def _reference(self, depth: int | None) -> tuple[int, int]:
        ratio = self.ratio
        if isinstance(ratio, ExactRatio):
            return ratio.p, ratio.q
        if isinstance(ratio, NumericRatio):
            return ratio.x.as_integer_ratio()
        theta = ratio.midpoint() if isinstance(ratio, QuadraticSurd) else _cf_value_fraction(
            ratio.a0, [ratio.partial(j) for j in range(1, depth + 1)])
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


_expansions: ContextVar[dict[RatioInput, _Expansion]] = ContextVar("expansions")


def _sharing_expansions(call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)``, its readers sharing one expansion per ratio, as one CLI command's do."""
    context = copy_context()
    context.run(_expansions.set, {})
    return context.run(call, *args)


def _expansion(ratio: RatioInput) -> _Expansion:
    memo = _expansions.get({})  # outside _sharing_expansions, a memo for this reader alone
    return memo.get(ratio) or memo.setdefault(ratio, _Expansion(ratio))


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
    expansion = _expansion(ratio)
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
    """The first ``n`` convergents p/q of ``cf``, with approach sides and qualities."""
    available = cf.depth + 1
    if n > available:
        raise ValueError(f"depth exhausted: {n} convergents requested, {available} available")
    expansion = _expansion(ratio)
    if (cf.a0, cf.exact) != (expansion.a0, expansion.exact) or \
            expansion.extend(cf.depth) < cf.depth or tuple(expansion.partials[: cf.depth]) != cf.partials:
        expansion = _Expansion(ratio, iter((cf.a0, *cf.partials)))  # not this ratio's own
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
    qualities = [c.quality for c in islice(_expansion(ratio).walk(depth), depth)]
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
    longer tied to the approach side.  Only convergents with q < 1e18 are
    examined: below that the 40-digit surd arithmetic resolves the quality.
    Rational ratios are rejected (their gap centers are the exact
    commensurability points instead); running out of resolvable convergents
    before ``count`` are found is an ``ArithmeticError``.
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
    expansion = _expansion(theta)
    # a surd 1/theta's quotients are theta's shifted one place: behind a 0, or without a0 = 0
    shifted = chain([0, expansion.a0] if expansion.a0 else [], expansion.stream())
    inverse = (_Expansion(theta.invert(), shifted) if isinstance(theta, QuadraticSurd)
               else _expansion(theta.invert()))
    centers: list[GapCenter] = []
    for family, walked, scale in (("b", expansion, b.value()), ("a", inverse, a.value())):
        picked: list[Convergent] = []
        for conv in islice(walked.walk(), _RESOLVED_DEPTH + 1):
            # deeper convergents would outrun the precision of their qualities
            if len(picked) == count or conv.q >= _RESOLVED_Q:
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
    """Smallest-denominator p/q with |x - p/q| <= ``DEFAULT_RATIONAL_TOL``*max(1, x)
    and q <= ``DEFAULT_DENOMINATOR_CAP``.

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
        if abs(x - p / q) <= bound:
            return (p, q)
    return None


def commensurability_witness(
    a: float | Fraction,
    b: float | Fraction,
    c: float | Fraction,
) -> CommensurabilityWitness | None:
    """Find a common unit d with a = p*d, b = q*d, c = r*d, gcd(p,q,r) = 1.

    Exact ``Fraction``/``int`` inputs produce an exact witness.  Float
    inputs go through bounded-denominator rational reconstruction of the
    ratios b/a and c/a; when either ratio admits no rational of denominator
    <= ``DEFAULT_DENOMINATOR_CAP`` within ``DEFAULT_RATIONAL_TOL``, there is
    no witness.
    """
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
    rb = reconstruct_rational(fb / fa)
    rc = reconstruct_rational(fc / fa)
    if rb is None or rc is None:
        return None
    (mb, nb), (mc, nc) = rb, rc
    L = math.lcm(nb, nc)
    p, q, r = L, mb * (L // nb), mc * (L // nc)
    g = math.gcd(p, q, r)
    p, q, r = p // g, q // g, r // g
    d = fa / p
    tol = DEFAULT_RATIONAL_TOL
    if abs(fb - q * d) > tol * max(1.0, fb) or abs(fc - r * d) > tol * max(1.0, fc):
        return None
    return CommensurabilityWitness(d, p, q, r, exact=False)
