"""The gap criteria at one k in plain floats: the scalar reference that
``core.boundary_rows_grid`` is pinned to bit for bit.

Each edge's sine and cosine come from ``core._flag_sines``, each pair
(cot x - 1/|sin x|, cot x + 1/|sin x|) from :func:`half_angle_pair`, and
every boundary function is summed in the kernel's order.
"""

import math

from hexband.core import _SAME_POINT, _flag_sines


def half_angle_pair(s, c):
    """``(cot x - 1/|sin x|, cot x + 1/|sin x|)`` from ``s = sin x``, ``c = cos x``.

    With ``t = tan(x/2)`` taken as s/(1+c) or (1-c)/s, whichever does not
    cancel, the pair is (-t, 1/t) for s > 0 and (1/t, -t) for s < 0.  At
    s == 0 it is the limit from the right, (-0, +inf); where t underflows to
    zero, 1/t is the IEEE limit.
    """
    if s == 0.0:
        return -0.0, math.inf
    t = s / (1 + c) if c >= 0 else (1 - c) / s
    inv = 1 / t if t else math.copysign(math.inf, t)  # t underflows only for a subnormal s
    return (-t, inv) if s > 0 else (inv, -t)


def boundary_functions(geom, alpha, k, side=0):
    """D - upper, D + upper, D - lower and D + lower at k.

    With j the edge of smallest |sin|, D -+ upper = alpha/k + sum m (or p),
    D - lower = alpha/k + m_j + sum_{i != j} p_i and D + lower = alpha/k +
    p_j + sum_{i != j} m_i.  With a side, an edge on its Dirichlet point
    (``_SAME_POINT``) takes its pair's one-sided limit from the right (1) or
    the left (-1), and the vanishing edge of smallest length is j.
    """
    sines, cosines, _ = _flag_sines(k, geom.lengths)
    pairs, keys = [], []
    for ell, s, c in zip(geom.lengths, sines, cosines):
        if side and abs(s) <= _SAME_POINT * max(1.0, ell * k):
            pairs.append((0.0, math.inf) if side > 0 else (-math.inf, 0.0))
            keys.append(-1 / ell)
        else:
            pairs.append(half_angle_pair(s, c))
            keys.append(abs(s))
    ms, ps = zip(*pairs)
    j = min(range(3), key=keys.__getitem__)
    g = alpha / k
    return (g + sum(ms), g + sum(ps),
            g + ms[j] + sum(p for i, p in enumerate(ps) if i != j),
            g + ps[j] + sum(m for i, m in enumerate(ms) if i != j))


def rows(geom, alpha, k, side=0):
    """The four rows at k: D - upper > 0, D + upper < 0, D - lower < 0 and D + lower > 0."""
    d_minus_upper, d_plus_upper, d_minus_lower, d_plus_lower = \
        boundary_functions(geom, alpha, k, side)
    return [d_minus_upper > 0, d_plus_upper < 0, d_minus_lower < 0, d_plus_lower > 0]
