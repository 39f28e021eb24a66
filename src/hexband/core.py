"""Geometry, coupling and the secular determinant of the honeycomb cell.

The lattice is an infinite honeycomb network in which each hexagon has two
antipodal edges of length ``a``, two of length ``b`` and two of length ``c``.
The Hamiltonian acts as -d^2/dx^2 on every edge, with a delta coupling at
each degree-3 vertex: the wavefunction is continuous and the sum of outgoing
derivatives equals ``alpha`` times the vertex value.

After the Floquet-Bloch reduction with phases (theta1, theta2), a positive
energy E = k^2 belongs to the spectrum iff the reduced 4x4 cell matrix is
singular for some phase pair.  This module writes that matrix once, on real
and imaginary parts (:func:`_cell_entries`), evaluated on floats by
:func:`assemble_m_matrix` or on numpy columns by the oracle, and gives its
closed-form determinant (:func:`det_m_closed_form`).  It also holds the
point kernels of both branches, scalar and column: the membership terms
``(D, lower_unclamped, upper)`` and the gap criteria.  Every edge sine and
cosine is libm's, of the unreduced l*k: ``math.sin``/``math.cos`` in the
scalar kernels, which take them from :func:`_flag_sines`, the package's one
Dirichlet guard, and ``np.sin``/``np.cos``, equal to them bit for bit, in
the column kernels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_DIRICHLET_TOL",
    "DirichletPointError",
    "HexGeometry",
    "VertexCoupling",
    "EnergyPoint",
    "FloquetPhase",
    "MMatrix",
    "dispersion_negative",
    "assemble_m_matrix",
    "det_m_closed_form",
]

DEFAULT_DIRICHLET_TOL = 1e-9


class DirichletPointError(ValueError):
    """Raised when an operation is evaluated at a point where sin(l*k)
    vanishes for one of the edge lengths, outside the closed form's domain."""

    def __init__(self, k: float, edges: tuple[str, ...]):
        self.k = k
        self.edges = edges
        super().__init__(
            f"k={k!r} is a Dirichlet point for edge(s) {', '.join(edges)}: "
            "sin(l*k) vanishes there"
        )


@dataclass(frozen=True)
class HexGeometry:
    """Edge lengths of the dilated honeycomb cell."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"edge length {name}={value!r} must be finite and > 0")

    @property
    def ell_min(self) -> float:
        return min(self.a, self.b, self.c)

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    EDGE_NAMES = ("a", "b", "c")


@dataclass(frozen=True)
class VertexCoupling:
    """Delta-coupling strength at every vertex; alpha = 0 is Kirchhoff."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha={self.alpha!r} must be finite")


@dataclass(frozen=True)
class EnergyPoint:
    """Spectral parameter on one of the two branches.

    ``positive`` carries k with E = k^2 and ``negative`` carries kappa with
    E = -kappa^2.
    """

    branch: str
    param: float

    def __post_init__(self):
        if self.branch not in ("positive", "negative"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if not (math.isfinite(self.param) and self.param > 0):
            raise ValueError(f"branch parameter must be finite and > 0, got {self.param!r}")

    @classmethod
    def positive(cls, k: float) -> "EnergyPoint":
        return cls("positive", k)

    @classmethod
    def negative(cls, kappa: float) -> "EnergyPoint":
        return cls("negative", kappa)


def _wrap_phase(x: float) -> float:
    """Wrap a real angle into (-pi, pi]."""
    r = math.remainder(x, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True)
class FloquetPhase:
    """Pair of Bloch phases, each normalized into (-pi, pi]."""

    theta1: float
    theta2: float

    def __post_init__(self):
        object.__setattr__(self, "theta1", _wrap_phase(self.theta1))
        object.__setattr__(self, "theta2", _wrap_phase(self.theta2))


@dataclass(frozen=True)
class MMatrix:
    """The reduced 4x4 cell matrix acting on (C2+, C2-, C3+, C3-)."""

    entries: tuple[tuple[complex, ...], ...] = field(repr=False)

    def __post_init__(self):
        if len(self.entries) != 4 or any(len(row) != 4 for row in self.entries):
            raise ValueError("MMatrix requires a 4x4 entry grid")


def _check_k(k: float) -> None:
    if not k > 0:
        raise ValueError(f"k must be > 0, got {k!r}")


def _flag_sines(k: float, lengths) -> tuple[list[float], list[float], list[bool]]:
    """``(sines, cosines, flags)`` of l*k for each length.

    Each sine and cosine is libm's, of the unreduced l*k.  This is the
    package's one Dirichlet guard: an edge is flagged when |sin(l*k)| is at
    most ``DEFAULT_DIRICHLET_TOL`` times max(1, l*k); scaling with the
    argument guards against catastrophic cancellation at large l*k.
    """
    sines, cosines, flags = [], [], []
    for ell in lengths:
        x = ell * k
        s = math.sin(x)
        sines.append(s)
        cosines.append(math.cos(x))
        flags.append(abs(s) <= DEFAULT_DIRICHLET_TOL * max(1.0, x))
    return sines, cosines, flags


def checked_sines(k: float, names, lengths) -> tuple[list[float], list[float]]:
    """``(sines, cosines)`` of l*k for each length, from :func:`_flag_sines`.

    Raises :class:`DirichletPointError` naming every guarded edge that is
    flagged.  The guarded edges are the leading ``len(names)`` lengths, so
    ``names=("a",)`` with all three lengths guards ``a`` alone.
    """
    sines, cosines, flags = _flag_sines(k, lengths)
    vanishing = tuple(name for name, flag in zip(names, flags) if flag)
    if vanishing:
        raise DirichletPointError(k, vanishing)
    return sines, cosines


def positive_terms(geom: HexGeometry, alpha: float, k: float) -> tuple[float, float, float]:
    """The positive-branch membership kernel: ``(D, lower_unclamped, upper)``.

    ``D = cot(a*k) + cot(b*k) + cot(c*k) + alpha/k``, ``upper`` is the sum of
    the inverse |sines| and ``lower_unclamped = 2*max(inverse) - upper``, so
    k is in the spectrum iff max(0, lower_unclamped) <= |D| <= upper.  The
    sines and cosines come from :func:`checked_sines`, one of each per edge;
    a flagged sine raises :class:`DirichletPointError` naming the vanishing
    edges.
    """
    _check_k(k)
    sines, cosines = checked_sines(k, HexGeometry.EDGE_NAMES, geom.lengths)
    inv = [1 / abs(s) for s in sines]
    upper = sum(inv)
    total = alpha / k
    for s, c in zip(sines, cosines):
        total += c / s
    return total, 2 * max(inv) - upper, upper


def positive_terms_grid(
    geom: HexGeometry, alpha: float, ks: np.ndarray, dirichlet_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`positive_terms` on a whole grid of k: ``(D, lower_unclamped, upper, flagged)``.

    ``flagged`` marks the k where some |sin(l*k)| is at most ``dirichlet_tol``
    times max(1, l*k), :func:`_flag_sines`'s rule; there the other three
    entries are meaningless.  Elsewhere they equal the scalar kernel's bit for
    bit: the same order of operations, with ``np.sin``/``np.cos`` of the
    unreduced l*k in place of ``math.sin``/``math.cos``, which
    ``tests/test_core.py`` pins as equal.
    """
    if not dirichlet_tol > 0:
        raise ValueError(f"dirichlet_tol must be > 0, got {dirichlet_tol!r}")
    if not np.all(ks > 0):
        raise ValueError("every k must be > 0")
    flagged = np.zeros(ks.shape, dtype=bool)
    upper = 0
    inv_max = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        total = alpha / ks
        for ell in geom.lengths:
            x = ell * ks
            s = np.sin(x)
            flagged |= np.abs(s) <= dirichlet_tol * np.maximum(1.0, x)
            inv = 1 / np.abs(s)
            upper = upper + inv
            inv_max = np.maximum(inv_max, inv)
            total += np.cos(x) / s
        return total, 2 * inv_max - upper, upper, flagged


def _half_angle_pair(s: float, c: float) -> tuple[float, float]:
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


def gap_criteria(geom: HexGeometry, alpha: float, k: float) -> tuple[bool, bool]:
    """``(GC1, GC2)``, that is |D| > upper and |D| < lower, at any k > 0.

    With (m, p) the half-angle pairs of the edges and j the edge of smallest
    |sin|, D -+ upper = alpha/k + sum m (or p), D - lower = alpha/k + m_j +
    sum_{i != j} p_i and D + lower = alpha/k + p_j + sum_{i != j} m_i.  No sum
    adds a pole to its negative, so the signs hold up to the Dirichlet points
    and need no tolerance.  The sines and cosines come from :func:`_flag_sines`.
    """
    _check_k(k)
    sines, cosines, _ = _flag_sines(k, geom.lengths)
    ms, ps = zip(*map(_half_angle_pair, sines, cosines))
    j = min(range(3), key=lambda i: abs(sines[i]))
    g = alpha / k
    gc1 = g + sum(ms) > 0 or g + sum(ps) < 0
    d_minus_lower = g + ms[j] + sum(p for i, p in enumerate(ps) if i != j)
    d_plus_lower = g + ps[j] + sum(m for i, m in enumerate(ms) if i != j)
    return gc1, d_minus_lower < 0 < d_plus_lower


# Dirichlet points closer than this times max(1, k) are one point; an edge
# with |sin(l*k)| at most this times max(1, l*k) sits on its point.
_SAME_POINT = 1e-12
# Turn D - upper, D + upper, D - lower and D + lower into boundary_rows_grid's rows.
_ROW_SIGNS = np.array([[1.0], [-1.0], [-1.0], [1.0]])


def boundary_rows_grid(geom: HexGeometry, alpha: float, ks: np.ndarray, sides: bool = False):
    """The comparisons of :func:`gap_criteria` on an array of k, as a ``(4, n)``
    boolean array: D - upper > 0, D + upper < 0, D - lower < 0 and D + lower > 0.

    GC1 is the first or the second row and GC2 the third and the fourth, equal to
    the scalar form bit for bit: ``np.sin``/``np.cos`` of each l*k, the pairs of
    :func:`_half_angle_pair`, j the first edge of smallest |sin|, and every sum
    in the scalar order.  Between Dirichlet points k times each boundary function
    strictly decreases, so each row turns at most once there.  With ``sides``
    the result is the rows just left and just right of each k: an edge on its
    Dirichlet point (``_SAME_POINT``) takes its pair's one-sided limit, (-inf, 0)
    from the left and (0, +inf) from the right, and j is the vanishing edge of
    smallest length.
    """
    if not (ks > 0).all():
        raise ValueError("every k must be > 0")
    x = np.multiply.outer(geom.lengths, ks)
    s, c = np.sin(x), np.cos(x)
    key = np.abs(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # x > 0 or +0.0, so s == 0 has c == 1 and t == +0: (-0, +inf) as in the scalar form
        t = np.where(c >= 0, s / (1 + c), (1 - c) / s)
        inv, minus_t = 1 / t, -t  # t has the sign of s: m is the lesser of the two, p the greater
        mp = np.array([np.minimum(minus_t, inv), np.maximum(minus_t, inv)])
        if sides:
            on_point = key <= _SAME_POINT * np.maximum(1.0, x)
            key = np.where(on_point, -1 / np.array(geom.lengths)[:, None], key)
        j = key.argmin(axis=0)
        j0, j1 = j == 0, j == 1
        g = alpha / ks

        def rows(mp):
            first_two = mp[:, 0] + mp[:, 1]
            at_j = np.where(j0, mp[:, 0], np.where(j1, mp[:, 1], mp[:, 2]))
            others = np.where(j0, mp[:, 1] + mp[:, 2], np.where(j1, mp[:, 0] + mp[:, 2], first_two))
            d_upper, d_lower = g + (first_two + mp[:, 2]), g + at_j + others[::-1]
            return np.concatenate([d_upper, d_lower]) * _ROW_SIGNS > 0

        if not sides:
            return rows(mp)
        return tuple(rows(np.where(on_point, np.reshape(limit, (2, 1, 1)), mp))
                     for limit in ((-math.inf, 0.0), (0.0, math.inf)))


def inv_sinh(x: float) -> float:
    """1/sinh(x) for x > 0; underflows to 0 instead of overflowing sinh."""
    return 1.0 / math.sinh(x) if x < 700.0 else 0.0


def _negative_terms(geom: HexGeometry, alpha: float, kappa: float) -> tuple[float, float, float]:
    """The negative-branch mirror of :func:`positive_terms`: ``(D, lower_unclamped, upper)``.

    ``D = coth(a*kappa) + coth(b*kappa) + coth(c*kappa) + alpha/kappa`` and
    ``upper`` is the sum of the 1/sinh terms.  The largest of those always
    belongs to the shortest edge, so ``lower_unclamped = 2/sinh(l_min*kappa)
    - upper``.  sinh never vanishes for kappa > 0, so there is no guard.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa!r}")
    lengths = geom.lengths
    inv = [inv_sinh(ell * kappa) for ell in lengths]
    upper = sum(inv)
    total = alpha / kappa
    for ell in lengths:
        total += 1.0 / math.tanh(ell * kappa)
    return total, 2 * inv[lengths.index(geom.ell_min)] - upper, upper


def _negative_terms_grid(
    geom: HexGeometry, alpha: float, kappas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_negative_terms` on a whole grid of kappa, bit for bit.

    ``math.sinh`` and ``math.tanh`` are mapped over each ``l*kappa``, since
    ``np.sinh`` and ``np.tanh`` differ from them in the last bit on a few
    percent of arguments.  :func:`inv_sinh`'s cutoff at 700 is kept, and
    the sums add their terms in the scalar order.  Where an ``l*kappa``
    underflows to 0 the point kernel raises ``ZeroDivisionError``; this
    raises ``FloatingPointError``, like it an ``ArithmeticError``.
    """
    if not np.all(kappas > 0):
        raise ValueError("every kappa must be > 0")
    lengths = geom.lengths
    n = kappas.size
    inv = []
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        total = alpha / kappas
        for ell in lengths:
            x = ell * kappas
            sinh = np.fromiter(map(math.sinh, np.minimum(x, 700.0).tolist()), np.float64, n)
            inv.append(np.where(x < 700.0, 1.0 / sinh, 0.0))
            total += 1.0 / np.fromiter(map(math.tanh, x.tolist()), np.float64, n)
        upper = sum(inv)
        return total, 2 * inv[lengths.index(geom.ell_min)] - upper, upper


def dispersion_negative(geom: HexGeometry, coupling: VertexCoupling, kappa: float) -> float:
    """coth(a*kappa) + coth(b*kappa) + coth(c*kappa) + alpha/kappa, the
    negative-branch dispersion at E = -kappa^2: the ``D`` of :func:`_negative_terms`."""
    return _negative_terms(geom, coupling.alpha, kappa)[0]


def _product(x, y):
    """CPython's complex product of two (real, imaginary) pairs of floats or columns."""
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def _cell_entries(a, b, c, alpha, k, t1, t2, s_a, cos, sin) -> tuple:
    """The 16 entries of the reduced cell matrix as 32 real and imaginary parts, row by row.

    ``s_a`` is sin(a*k).  Every sine and cosine, s_a included, is libm's of
    the unreduced angle.  The arguments are floats, with ``math.cos`` and
    ``math.sin``, or numpy columns, with ``np.cos`` and ``np.sin``: each
    complex operation is written as CPython (3.11) evaluates it, so both
    give the same bits.  A float is the complex (x, 0) in a product, the
    division by sin(a*k) is Smith's quotient by (s_a, 0), and exp(i x) is
    (cos x, sin x).  Numpy's complex arithmetic rounds differently.
    """
    ak, bk, ck = a * k, b * k, c * k
    alpha_over_k = alpha / k
    ratio = 0.0 / s_a
    denom = s_a + 0.0 * ratio
    # exp(i x) at x = +-b k - t1 (rows 2 to 4), +-c k - t2 (rows 2 and 4),
    # -+a k (row 3) and +-(a k + b k) - t1 (row 4)
    xs = (bk - t1, -bk - t1, ck - t2, -ck - t2, -ak, ak, ak + bk - t1, -ak - bk - t1)
    (c1, c2, c3, c4, c5, c6, c7, c8), (s1, s2, s3, s4, s5, s6, s7, s8) = map(cos, xs), map(sin, xs)
    m34 = []
    # each entry is (-exp(i x) + f) / s_a - g, and -y + f is f - y exactly
    for (xr, xi), (gr, gi) in (
        ((c1 - c5, s1 - s5), (alpha_over_k, 0.0)),
        ((c2 - c6, s2 - s6), (alpha_over_k, 0.0)),
        ((1.0 - c7, 0.0 - s7), _product((alpha_over_k, 0.0), (c1, s1))),
        ((1.0 - c8, 0.0 - s8), _product((alpha_over_k, 0.0), (c2, s2))),
    ):
        m34 += [(xr + xi * ratio) / denom - gr, (xi - xr * ratio) / denom - gi]
    return (
        1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, 0.0,
        c1, s1, c2, s2, -c3, -s3, -c4, -s4,
        *m34[:4], 0.0, 1.0, -0.0, -1.0,  # 1j and -1j
        *m34[4:], *_product((-0.0, -1.0), (c3, s3)), *_product((0.0, 1.0), (c4, s4)),
    )


def assemble_m_matrix(
    geom: HexGeometry, coupling: VertexCoupling, k: float, phase: FloquetPhase
) -> MMatrix:
    """Assemble the reduced 4x4 cell matrix at (k, theta1, theta2).

    Rows encode, in order: value continuity between the two vertices, the
    Bloch-shifted continuity of the c-edge pair, and the two delta-coupling
    derivative conditions with the full-edge amplitudes already eliminated.
    The derivation divides by sin(a*k), so that sine must not vanish.  The
    entries come from :func:`_cell_entries`.
    """
    _check_k(k)
    s_a = checked_sines(k, ("a",), (geom.a,))[0][0]
    parts = _cell_entries(*geom.lengths, coupling.alpha, k, phase.theta1, phase.theta2,
                          s_a, math.cos, math.sin)
    entries = map(complex, parts[::2], parts[1::2])
    return MMatrix(tuple(zip(entries, entries, entries, entries)))


def det_m_closed_form(
    geom: HexGeometry, coupling: VertexCoupling, k: float, phase: FloquetPhase
) -> complex:
    """Closed-form determinant of the reduced cell matrix.

    Equals ``-4 * B * exp(-i(theta1 + theta2)) / sin(a*k)`` where the real
    bracket ``B`` collects the trigonometric terms of the secular condition;
    the bracket is symmetric under (b <-> c, theta1 <-> theta2).
    """
    _check_k(k)
    (s_a, s_b, s_c), (c_a, c_b, c_c) = checked_sines(k, ("a",), geom.lengths)
    g = coupling.alpha / k
    t1, t2 = phase.theta1, phase.theta2
    bracket = (
        2.0 * s_a * c_b * c_c
        + 2.0 * c_a * s_b * c_c
        + 2.0 * c_a * c_b * s_c
        - 3.0 * s_a * s_b * s_c
        - 2.0 * s_a * math.cos(t1 - t2)
        - 2.0 * s_c * math.cos(t1)
        - 2.0 * s_b * math.cos(t2)
        + 2.0 * g * (c_a * s_b * s_c + s_a * c_b * s_c + s_a * s_b * c_c)
        + g * g * s_a * s_b * s_c
    )
    return -4.0 * bracket * cmath.exp(-1j * (t1 + t2)) / s_a
