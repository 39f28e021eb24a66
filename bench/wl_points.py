"""Workload ``points``: a stream of single-point library calls.

Every round visits six geometries (two with decimal lengths, two stretched
b = c surd lattices, two commensurate rational ones) and, for each, twenty
wavenumbers at least |alpha| and clear of Dirichlet points.  At each
wavenumber it calls ``band_membership`` on both branches and again on two
permuted and two rescaled geometries, ``gc1``, ``gc2``, ``gc1_tangent_form``,
``gc_negative``, ``assemble_m_matrix`` and ``det_m_closed_form`` (plus
``gap_diagnostics_bc`` and ``gc2_equivalent_bc`` for b = c); per geometry it
calls ``verify_flat_band``, ``classify_ratio``, ``approx_constant``,
``predicted_gap_centers`` and ``commensurability_witness``.  The seed draws
the lengths, couplings, wavenumbers, phases and scale factors.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import reference as ref
from common import GOLDEN, ONE, SQRT2, Op, OpError, Surd, rat, rel_close, rng_for

K_PER_GEOMETRY = 20
CORRUPTIONS = ("swap one band/gap label", "move one predicted centre")
RATIONAL = [
    (rat(1, 2), rat(3, 2), rat(1)),
    (rat(1), rat(2), rat(3, 2)),
    (rat(2, 3), rat(1), rat(4, 3)),
    (rat(3, 4), rat(5, 4), rat(1)),
]


def _clear_of_dirichlet(lengths, k, margin=1e-3):
    return all(abs(math.sin(ell * k)) > margin for ell in lengths)


def _ratio(length):
    """The exact ratio object hexband's number theory takes for a length."""
    import hexband as hb

    x = length.exact
    if isinstance(x, Surd):
        return hb.QuadraticSurd(x.P, x.Q, x.D)
    return hb.ExactRatio(x.numerator, x.denominator)


def build(cli, seed: int):
    import hexband as hb

    rng = rng_for("points", seed)
    geometries = []
    for _ in range(2):
        geometries.append(("decimal", tuple(Fraction(rng.randint(600, 2000), 1000) for _ in range(3))))
    geometries.append(("bc", (GOLDEN, ONE, ONE)))
    geometries.append(("bc", (SQRT2, ONE, ONE)))
    geometries += [("rational", rng.choice(RATIONAL)) for _ in range(2)]

    ops = []

    def call(label, fn, *args, **info):
        ops.append(Op(label, (lambda f=fn, a=args: getattr(hb, f)(*a)), info=dict(info, args=args)))

    for family, lengths in geometries:
        if family == "decimal":
            exact = list(lengths)
            lengths = None
        else:
            exact = [x.exact for x in lengths]
        values = [ref.exact_float(x) for x in exact]
        geom = hb.HexGeometry(*values)
        alpha = round(rng.choice([1, -1]) * rng.uniform(0.5, 5), 4)
        coupling = hb.VertexCoupling(alpha)
        perms = rng.sample([(1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)], 2)
        permuted = [hb.HexGeometry(*(values[i] for i in perm)) for perm in perms]
        base = dict(lengths=values, alpha=alpha, family=family)
        for _ in range(K_PER_GEOMETRY):
            while True:
                k = rng.uniform(abs(alpha) + 0.1, 40)
                lams = (rng.uniform(0.5, 1), rng.uniform(1, 2))
                if _clear_of_dirichlet(values, k) and all(
                        _clear_of_dirichlet([lam * v for v in values], k / lam) for lam in lams):
                    break
            kappa = rng.uniform(0.05, 5)
            phase = hb.FloquetPhase(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            pos = hb.EnergyPoint.positive(k)
            at = dict(base, k=k)
            call("band_membership", "band_membership", geom, coupling, pos, check="membership", **at)
            call("band_membership-", "band_membership", geom, coupling, hb.EnergyPoint.negative(kappa),
                 check="membership-negative", kappa=kappa, **base)
            for other in permuted:
                call("band_membership-perm", "band_membership", other, coupling, pos,
                     check="invariance", **at)
            for lam in lams:
                call("band_membership-scaled", "band_membership",
                     hb.HexGeometry(*(lam * v for v in values)), hb.VertexCoupling(alpha / lam),
                     hb.EnergyPoint.positive(k / lam), check="invariance", **at)
            call("gc1", "gc1", geom, coupling, k, check="gc1", **at)
            call("gc2", "gc2", geom, coupling, k, check="gc2", **at)
            call("gc1_tangent_form", "gc1_tangent_form", geom, coupling, k, check="tangent", **at)
            call("gc_negative", "gc_negative", geom, coupling, kappa, check="gc-negative",
                 kappa=kappa, **base)
            call("assemble_m_matrix", "assemble_m_matrix", geom, coupling, k, phase, check="matrix", **at)
            call("det_m_closed_form", "det_m_closed_form", geom, coupling, k, phase, check="det", **at)
            if family == "bc":
                call("gap_diagnostics_bc", "gap_diagnostics_bc", values[0], values[1], k,
                     check="diagnostics", **at)
                call("gc2_equivalent_bc", "gc2_equivalent_bc", values[0], values[1], coupling, k,
                     check="gc2-equivalent", **at)
        if family == "rational":
            unit = ref.common_unit(exact)
            for n in (1, 2):
                k = float(2 * n * math.pi / unit)
                call("verify_flat_band", "verify_flat_band", geom, k, coupling, check="flat", **dict(base, k=k))
        else:
            k = rng.uniform(1, 20)
            call("verify_flat_band", "verify_flat_band", geom, k, coupling, check="flat", **dict(base, k=k))
        witness_args = tuple(exact) if family != "bc" else tuple(values)
        call("commensurability_witness", "commensurability_witness", *witness_args,
             check="witness", exact=exact, **base)
        if family == "decimal":
            continue
        a, b = lengths[0], lengths[1]
        theta = hb.ratio_divide(_ratio(a), _ratio(b))
        call("classify_ratio", "classify_ratio", theta, check="classify", a=a, b=b, **base)
        if family == "bc":
            call("approx_constant", "approx_constant", theta, check="gamma", a=a, b=b, **base)
            call("predicted_gap_centers", "predicted_gap_centers", _ratio(a), _ratio(b), alpha, 3,
                 check="centers", a=a, b=b, **base)
    return ops


def warmup(cli):
    import hexband as hb

    geom = hb.HexGeometry(1.0, 1.3, 0.8)
    coupling = hb.VertexCoupling(2.0)
    phase = hb.FloquetPhase(0.3, -1.1)
    golden = hb.QuadraticSurd(1, 2, 5)
    calls = [
        lambda: hb.band_membership(geom, coupling, hb.EnergyPoint.positive(3.3)),
        lambda: hb.band_membership(geom, coupling, hb.EnergyPoint.negative(1.2)),
        lambda: hb.gc1(geom, coupling, 3.3), lambda: hb.gc2(geom, coupling, 3.3),
        lambda: hb.gc1_tangent_form(geom, coupling, 3.3), lambda: hb.gc_negative(geom, coupling, 1.2),
        lambda: hb.assemble_m_matrix(geom, coupling, 3.3, phase),
        lambda: hb.det_m_closed_form(geom, coupling, 3.3, phase),
        lambda: hb.gap_diagnostics_bc(1.6, 1.0, 3.3),
        lambda: hb.gc2_equivalent_bc(1.6, 1.0, coupling, 3.3),
        lambda: hb.verify_flat_band(geom, 3.3, coupling),
        lambda: hb.classify_ratio(golden), lambda: hb.approx_constant(golden),
        lambda: hb.predicted_gap_centers(golden, hb.ExactRatio(1, 1), 2.0, 2),
        lambda: hb.commensurability_witness(1.0, 1.5, 2.0),
    ]
    return [Op(f"warm-{i}", fn) for i, fn in enumerate(calls)]


# ---------------------------------------------------------------------------
# checks


def _kind(decision) -> str:
    return decision.kind.value


def _state_name(code) -> str | None:
    return {ref.BAND: "band", ref.GAP: "gap"}.get(int(code))


def check_parsed(op, out, report):
    """Check one call's result; ``out`` is the returned value."""
    info = op.info
    kind = info["check"]
    lengths, alpha = info["lengths"], info["alpha"]
    label = f"{op.label} at {info.get('k', info.get('kappa'))!r}"
    if kind in ("membership", "membership-negative"):
        if kind == "membership":
            want = _state_name(ref.positive_state(lengths, alpha, info["k"])[0])
        else:
            want = _state_name(ref.negative_state(lengths, alpha, info["kappa"])[0])
        if want is None:
            report.count("membership.undecided")
            return
        report.count("membership.decided")
        report.expect(_kind(out) == want, "membership", f"{label}: {_kind(out)}, reference {want}")
    elif kind == "invariance":
        want = _state_name(ref.positive_state(lengths, alpha, info["k"])[0])
        if want is None:
            report.count("invariance.undecided")
            return
        report.count("invariance.decided")
        report.expect(_kind(out) == want, "invariance", f"{label}: {_kind(out)}, unpermuted "
                                                        f"and unscaled reference {want}")
    elif kind in ("gc1", "gc2"):
        codes = ref.gap_criteria(lengths, alpha, info["k"])[0 if kind == "gc1" else 1]
        if codes[0] == ref.UNDECIDED:
            report.count("criteria.undecided")
            return
        report.count("criteria.decided")
        report.expect(out == bool(codes[0]), "criteria", f"{label}: {out}, reference {bool(codes[0])}")
    elif kind == "tangent":
        g1 = ref.gap_criteria(lengths, alpha, info["k"])[0][0]
        if g1 != ref.UNDECIDED:
            report.expect(out == bool(g1), "tangent", f"{label}: tangent form {out}, GC1 {bool(g1)}")
    elif kind == "gc-negative":
        g1, g2 = ref.gap_criteria_negative(lengths, alpha, info["kappa"])
        for got, want in zip(out, (g1[0], g2[0])):
            if want != ref.UNDECIDED:
                report.expect(got == bool(want), "criteria", f"{label}: {out}, reference {g1[0]}, {g2[0]}")
    elif kind == "diagnostics":
        want = ref.tangent_margins(lengths[0], lengths[1], info["k"])
        got = (out.tangent_sum, out.cot_dominance, out.tangent_margin)
        report.expect(all(rel_close(g, w, 1e-9, 1e-9) for g, w in zip(got, want)), "diagnostics",
                      f"{label}: {got}, reference {want}")
    elif kind == "gc2-equivalent":
        if out:
            g2 = ref.gap_criteria(lengths, alpha, info["k"])[1][0]
            report.expect(g2 != 0, "gc2-equivalent", f"{label}: four-condition form holds but GC2 fails")
    # "det" and "matrix" results are checked against each other in _check_pairs
    elif kind == "flat":
        want = ref.flat_band_residual(lengths, alpha, info["k"])
        report.expect(rel_close(out, want, 1e-9, 1e-12 * max(1.0, info["k"] * 2 * sum(lengths))),
                      "flat-bands", f"{label}: residual {out!r}, reference {want!r}")
    elif kind == "witness":
        unit = ref.common_unit(info["exact"]) if info["family"] != "bc" else None
        if unit is None:
            report.expect(out is None, "witness", f"{label}: witness for incommensurate lengths")
        else:
            ints = [int(x / unit) for x in info["exact"]]
            ok = out is not None and [out.p, out.q, out.r] == ints and rel_close(out.d, float(unit), 1e-12)
            report.expect(ok, "witness", f"{label}: witness {out}, reference unit {unit}")
    elif kind in ("classify", "gamma", "centers"):
        a, b = info["a"], info["b"]
        if kind == "classify" and not isinstance(a.exact, Surd):
            report.expect(out.kind.value == "rational", "classify", f"{label}: class {out.kind.value}")
            return
        theta = ref.ratio_mp(a.exact, b.exact)
        if kind == "classify":
            _, convs = ref.convergents_of(theta, 30)
            ok = out.kind.value == "badly_approximable" and rel_close(
                out.gamma_lower, ref.tail_min_quality(convs), 1e-9)
            report.expect(ok, "classify", f"{label}: {out.kind.value}, gamma {out.gamma_lower!r}")
        elif kind == "gamma":
            _, convs = ref.convergents_of(theta, 20)
            want = ref.tail_min_quality(convs)
            report.expect(rel_close(out, want, 1e-9), "gamma", f"{label}: {out!r}, reference {want!r}")
        else:
            want = ref.predicted_centers(a.exact, b.exact, alpha, 3)
            got = [(c.family, c.p, c.q, c.k) for c in out]
            ok = len(got) == len(want) and all(
                g[:3] == w[:3] and rel_close(g[3], w[3], 1e-14) for g, w in zip(got, want))
            report.expect(ok, "centers", f"{label}: centres {got}, reference {want}")


def _check_pairs(ops, outputs, report):
    """Checks across calls at the same point: the criteria partition the
    non-Dirichlet points with membership, and the closed-form determinant
    matches numpy's determinant of the assembled matrix."""
    at = {}
    for op, out in zip(ops, outputs):
        if "k" in op.info and not isinstance(out, OpError):
            at.setdefault((id(op.info["lengths"]), op.info["k"]), {}).setdefault(op.info["check"], out)
    for key, calls in at.items():
        if {"membership", "gc1", "gc2"} <= calls.keys():
            band = _kind(calls["membership"]) == "band"
            n = int(band) + int(calls["gc1"]) + int(calls["gc2"])
            report.count("partition.points")
            report.expect(n == 1, "partition", f"k={key[1]!r}: band {band}, GC1 {calls['gc1']}, "
                                               f"GC2 {calls['gc2']}")
        if {"matrix", "det"} <= calls.keys():
            want = complex(np.linalg.det(np.array(calls["matrix"].entries, dtype=complex)))
            got = calls["det"]
            report.count("det.points")
            report.expect(abs(got - want) <= 1e-9 * (1 + abs(want)), "det",
                          f"k={key[1]!r}: closed form {got!r}, numpy {want!r}")


def check(ops, outputs, report):
    parsed = {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, OpError):
            continue
        parsed[i] = out
        check_parsed(op, out, report)
    _check_pairs(ops, outputs, report)
    return parsed


def corruptions(ops, parsed):
    import hexband as hb

    out = []
    for i, op in enumerate(ops):
        if op.info["check"] == "membership" and i in parsed:
            info = op.info
            if ref.positive_state(info["lengths"], info["alpha"], info["k"])[0] == ref.BAND:
                out.append(("swap one band/gap label", op, hb.BandDecision.in_gap(), "membership"))
                break
    for i, op in enumerate(ops):
        if op.info["check"] == "centers" and i in parsed and parsed[i]:
            centers = list(parsed[i])
            c = centers[0]
            centers[0] = hb.GapCenter(c.k + 1e-3, c.family, c.p, c.q)
            out.append(("move one predicted centre", op, centers, "centers"))
            break
    return out
