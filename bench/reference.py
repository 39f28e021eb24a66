"""Reference computations for the benchmark checks.

Written from the model's formulas alone and sharing no code with
``hexband``.  A positive energy E = k^2 lies in the spectrum iff

    lower <= |D(k)| <= upper,   D = cot ak + cot bk + cot ck + alpha/k,
    upper = sum_l 1/|sin lk|,   lower = max(0, 2 max_l 1/|sin lk| - upper),

and a negative energy E = -kappa^2 uses coth and 1/sinh in their place.
Everything vectorised runs in numpy float64; where the float64 answer is
too close to a comparison to be trusted the verdict is ``UNDECIDED``, and
high-precision work (large k, continued fractions) uses mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from common import Surd, exact_float

GAP, BAND, DIRICHLET, UNDECIDED = 0, 1, 2, 3
STATE_NAMES = {GAP: "gap", BAND: "band", DIRICHLET: "dirichlet", UNDECIDED: "undecided"}

# Relative width of the zone around a comparison that float64 cannot settle.
RTOL = 1e-9


def exact_mp(x):
    if isinstance(x, Surd):
        return (x.P + mpmath.sqrt(x.D)) / x.Q
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


# ---------------------------------------------------------------------------
# membership and gap criteria (float64, vectorised over k)


def _flags(lengths, k, dirichlet_tol):
    """sin(l k), cos(l k) per edge and the scale-aware vanishing flag."""
    k = np.asarray(k, dtype=float)
    s = np.stack([np.sin(ell * k) for ell in lengths])
    c = np.stack([np.cos(ell * k) for ell in lengths])
    x = np.stack([ell * k for ell in lengths])
    flag = np.any(np.abs(s) <= dirichlet_tol * np.maximum(1.0, x), axis=0)
    return s, c, flag


def envelope(lengths, k):
    """Upper envelope sum_l 1/|sin lk| and lower envelope of sqrt(R)."""
    k = np.asarray(k, dtype=float)
    inv = np.stack([1.0 / np.abs(np.sin(ell * k)) for ell in lengths])
    upper = inv.sum(axis=0)
    lower = np.maximum(0.0, 2 * inv.max(axis=0) - upper)
    return lower, upper


def _classify(value, lo, hi, scale):
    """BAND when lo <= value <= hi with margin, GAP when clearly outside."""
    margin = np.minimum(value - lo, hi - value)
    zone = RTOL * scale
    out = np.full(np.shape(value), UNDECIDED, dtype=np.int8)
    out[margin > zone] = BAND
    out[margin < -zone] = GAP
    return out


def positive_state(lengths, alpha, k, dirichlet_tol=1e-9):
    """Membership codes on the positive branch at wavenumbers k."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        s, c, flag = _flags(lengths, k, dirichlet_tol)
        inv = 1.0 / np.abs(s)
        upper = inv.sum(axis=0)
        lower = np.maximum(0.0, 2 * inv.max(axis=0) - upper)
        value = np.abs((c / s).sum(axis=0) + alpha / k)
        out = _classify(value, lower, upper, upper + value + 1.0)
    out[flag] = DIRICHLET
    out[~np.isfinite(upper)] = DIRICHLET
    return out


def _inv_sinh(x):
    with np.errstate(over="ignore"):
        return np.where(x < 700.0, 1.0 / np.sinh(np.minimum(x, 700.0)), 0.0)


def negative_state(lengths, alpha, kappa):
    """Membership codes on the negative branch at E = -kappa^2."""
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    inv = np.stack([_inv_sinh(ell * kappa) for ell in lengths])
    upper = inv.sum(axis=0)
    lower = np.maximum(0.0, 2 * _inv_sinh(min(lengths) * kappa) - upper)
    value = np.abs(sum(1.0 / np.tanh(ell * kappa) for ell in lengths) + alpha / kappa)
    return _classify(value, lower, upper, upper + value + 1.0)


def state(branch, lengths, alpha, x, dirichlet_tol=1e-9):
    if branch == "positive":
        return positive_state(lengths, alpha, x, dirichlet_tol)
    return negative_state(lengths, alpha, x)


def _strict(lhs, rhs, scale):
    """1 when lhs > rhs clearly, 0 when clearly not, UNDECIDED in between."""
    zone = RTOL * scale
    out = np.full(np.shape(lhs), UNDECIDED, dtype=np.int8)
    out[lhs - rhs > zone] = 1
    out[lhs - rhs < -zone] = 0
    return out


def gap_criteria(lengths, alpha, k):
    """(GC1, GC2) codes: |D| above the upper envelope / below 2 max - sum."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    s = np.stack([np.sin(ell * k) for ell in lengths])
    c = np.stack([np.cos(ell * k) for ell in lengths])
    inv = 1.0 / np.abs(s)
    upper = inv.sum(axis=0)
    under = 2 * inv.max(axis=0) - upper
    value = np.abs((c / s).sum(axis=0) + alpha / k)
    scale = upper + value + 1.0
    return _strict(value, upper, scale), _strict(under, value, scale)


def gap_criteria_negative(lengths, alpha, kappa):
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    inv = np.stack([_inv_sinh(ell * kappa) for ell in lengths])
    upper = inv.sum(axis=0)
    under = 2 * _inv_sinh(min(lengths) * kappa) - upper
    value = np.abs(sum(1.0 / np.tanh(ell * kappa) for ell in lengths) + alpha / kappa)
    scale = upper + value + 1.0
    return _strict(value, upper, scale), _strict(under, value, scale)


def tangent_margins(a, b, k):
    """(tangent sum, cot dominance, tangent margin) of the b = c analysis.

    Each edge's margin 1/|sin lk| - |cot lk| is the amount by which its
    inverse sine exceeds its cotangent.
    """
    sa, sb = math.sin(a * k), math.sin(b * k)
    ca, cb = math.cos(a * k), math.cos(b * k)
    ma = 1 / abs(sa) - abs(ca / sa)
    mb = 1 / abs(sb) - abs(cb / sb)
    return ma + 2 * mb, abs(ca / sa) - 2 * abs(cb / sb), 2 * mb - ma


def mp_positive_state(lengths, alpha, k, dirichlet_tol=1e-9, dps=40, rtol=1e-6):
    """Membership at one k with mpmath, lengths and k taken as exact doubles."""
    with mpmath.workdps(dps):
        kk = mpmath.mpf(k)
        xs = [mpmath.mpf(ell) * kk for ell in lengths]
        s = [mpmath.sin(x) for x in xs]
        if any(abs(si) <= dirichlet_tol * max(1, x) for si, x in zip(s, xs)):
            return DIRICHLET
        inv = [1 / abs(si) for si in s]
        upper = sum(inv)
        lower = max(mpmath.mpf(0), 2 * max(inv) - upper)
        value = abs(sum(mpmath.cos(x) / si for x, si in zip(xs, s)) + mpmath.mpf(alpha) / kk)
        margin = min(value - lower, upper - value)
        zone = rtol * (upper + value + 1)
        if margin > zone:
            return BAND
        if margin < -zone:
            return GAP
        return UNDECIDED


# ---------------------------------------------------------------------------
# closed-form sets


def equilateral_edges(ell, alpha, k_lo, k_hi, h):
    """Roots of |3 cos(l k) + alpha sin(l k)/k| = 3 in [k_lo, k_hi].

    With equal lengths the lower envelope vanishes and the upper one is
    3/|sin lk|, so bands are where that inequality holds; its roots are the
    band edges.  The Dirichlet points m pi/l are roots too (both sides of
    the equation reach 3 there) and are added exactly.
    """
    n = int(math.ceil((k_hi - k_lo) / h)) + 1
    ks = np.linspace(k_lo, k_hi, n)
    roots = []
    for sign in (1.0, -1.0):
        def g(k, sign=sign):
            return 3 * np.cos(ell * k) + alpha * np.sin(ell * k) / k - 3 * sign

        vals = g(ks)
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in idx:
            lo, hi = ks[i], ks[i + 1]
            glo = g(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if np.sign(g(mid)) == np.sign(glo):
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    m = max(1, math.ceil(k_lo * ell / math.pi))
    while m * math.pi / ell <= k_hi:
        roots.append(m * math.pi / ell)
        m += 1
    return np.sort(np.array(roots))


def dirichlet_points(lengths, k_lo, k_hi):
    """Sorted distinct points m pi / l inside (k_lo, k_hi), ends excluded."""
    pts = []
    for ell in lengths:
        with mpmath.workdps(30):
            m = int(mpmath.floor(mpmath.mpf(k_lo) * exact_mp(ell) / mpmath.pi)) + 1
            while True:
                k = float(m * mpmath.pi / exact_mp(ell))
                if k >= k_hi:
                    break
                pts.append(k)
                m += 1
    pts.sort()
    out = []
    for k in pts:
        if not out or k - out[-1] > 1e-12 * k:
            out.append(k)
    return [k for k in out if k_lo * (1 + 1e-12) < k < k_hi * (1 - 1e-12)]


def common_unit(lengths_exact):
    """Largest d with every length an integer multiple, or None."""
    if not all(isinstance(x, Fraction) for x in lengths_exact):
        return None
    den = math.lcm(*(x.denominator for x in lengths_exact))
    g = math.gcd(*(int(x * den) for x in lengths_exact))
    return Fraction(g, den)


def flat_band_ks(lengths_exact, k_lo, k_hi):
    """k = 2 pi n / d for the common unit d, strictly inside the window."""
    d = common_unit(lengths_exact)
    if d is None:
        return []
    out = []
    n = 1
    while True:
        k = float(2 * n * mpmath.pi / exact_mp(d))
        if k >= k_hi:
            break
        if k_lo * (1 + 1e-12) < k < k_hi * (1 - 1e-12):
            out.append(k)
        n += 1
    return out


def flat_band_residual(lengths, alpha, k):
    """Vertex-condition residual of sin(k s) along one hexagon cycle.

    s is arc length along edges a, b, c, a, b, c.  The candidate is an
    eigenfunction iff it vanishes at every vertex (it meets the zero
    function on the outside edges), closes up with matching slope, and the
    delta condition holds; the residual is the largest violation.
    """
    cycle = list(lengths) * 2
    pos = np.concatenate([[0.0], np.cumsum(cycle)])
    vertex = np.sin(k * pos[:6])
    perimeter = pos[6]
    closure_value = abs(math.sin(k * perimeter))
    closure_slope = abs(k * (1.0 - math.cos(k * perimeter)))
    return float(max(np.max(np.abs(vertex)), np.max(np.abs(alpha * vertex)),
                     closure_value, closure_slope))


def trig_min(A, B, C):
    """Minimum of A cos(t1 - t2) + B cos(t2) + C cos(t1) for A B C > 0.

    Write A = 1/(y z), B = 1/(x z), C = 1/(x y).  Then the function is half
    of R - (1/x^2 + 1/y^2 + 1/z^2), with R the secular right-hand side for
    'sines' x, y, z, whose minimum over the phases is the squared lower
    envelope max(0, 2 max - sum) of the inverse magnitudes.
    """
    u = math.sqrt(B * C / A)  # 1/|x|
    v = math.sqrt(A * C / B)  # 1/|y|
    w = math.sqrt(A * B / C)  # 1/|z|
    lower = max(0.0, 2 * max(u, v, w) - (u + v + w))
    return 0.5 * (lower * lower - (u * u + v * v + w * w))


# ---------------------------------------------------------------------------
# continued fractions at high precision


@dataclass(frozen=True)
class Conv:
    p: int
    q: int
    sign: int  # sign of theta - p/q
    quality: float  # q^2 |theta - p/q|


def continued_fraction(theta_mp, n, dps=120):
    """First n partial quotients [a0; a1, ...] of a positive irrational."""
    with mpmath.workdps(dps):
        x = +theta_mp
        out = []
        for _ in range(n):
            a = int(mpmath.floor(x))
            out.append(a)
            x = 1 / (x - a)
        return out


def convergents_of(theta_fn, n, dps=120):
    """Partial quotients and first n convergents, with signs and qualities,
    of the irrational that ``theta_fn()`` evaluates at the working precision."""
    with mpmath.workdps(dps):
        theta = theta_fn()
        quotients = continued_fraction(theta, n, dps)
        out = []
        p_prev, p, q_prev, q = 1, quotients[0], 0, 1
        for i in range(n):
            if i:
                a = quotients[i]
                p_prev, p = p, a * p + p_prev
                q_prev, q = q, a * q + q_prev
            diff = theta - mpmath.mpf(p) / q
            out.append(Conv(p, q, int(mpmath.sign(diff)), float(q * q * abs(diff))))
        return quotients, out


def tail_min_quality(convs):
    """Approximation constant over the second half of the convergents."""
    tail = convs[len(convs) // 2:]
    return min(c.quality for c in tail)


def ratio_mp(a, b):
    """Callable giving a / b at the working precision (for convergents_of)."""
    return lambda: exact_mp(a) / exact_mp(b)


def predicted_centers(a, b, alpha, count):
    """Gap centres q pi / b from convergents of a/b and q pi / a from b/a.

    Only convergents approaching from the side sign(alpha) selects and with
    quality below 1/2 qualify; the first ``count`` of each family are kept.
    """
    want = 1 if alpha > 0 else -1
    out = []
    for family, num, den, scale in (("b", a, b, exact_float(b)), ("a", b, a, exact_float(a))):
        _, convs = convergents_of(ratio_mp(num, den), 4 * count + 40)
        picked = [c for c in convs if c.sign == want and c.quality < 0.5][:count]
        out.extend((family, c.p, c.q, c.q * math.pi / scale) for c in picked)
    return out


def thresholds(a, b, gamma):
    """Closed-form b = c coupling thresholds; gamma None for rational a/b."""
    sqrt5 = math.sqrt(5.0)
    out = {
        "gc1_guarantee": (4 * math.pi / sqrt5) * min(2 / a, 1 / b),
        "gc2_guarantee": 4 * math.pi / (sqrt5 * a),
    }
    if gamma is None:
        out["gc1_nogap_bound"] = 0.0
        out["gc2_nogap_bound"] = 0.0
    else:
        out["gc1_nogap_bound"] = gamma * math.pi ** 2 * min(1 / a, 1 / (2 * b))
        out["gc2_nogap_bound"] = 15 * math.pi ** 2 * gamma / (4 * (6 * a + math.pi * b))
    return out
