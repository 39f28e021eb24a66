"""Workload ``gaptable``: ``gaps --centers`` tables and ``classify`` on gap-rich lattices.

Every round runs nine ``gaps`` tables (coarse 4000-sample grids to k ~ 300
at |alpha| 20-60, still resolved) and five ``classify`` reports.  The seed
draws |alpha| within a narrow band per slot and the window end; geometries
are fixed per slot, because the number of gaps, and with it the refinement
work, differs a lot between geometries.  Coupling signs and centre
counts are fixed per slot, so the set of operations that fail does not
depend on the seed: two ``classify`` operations hit a known fault today.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from common import (GOLDEN, ONE, SQRT2, SQRT3, Surd, dec, jitter, probe_edges, rat, rel_close,
                    rng_for, surd)

GENERIC = [
    (dec("1.1"), dec("1.7"), dec("0.8")),
    (dec("1.3"), dec("0.9"), dec("1.6")),
    (SQRT2, ONE, SQRT3),
    (GOLDEN, SQRT2, ONE),
]
SAMPLES = 4000
EDGE_TOL = 1e-9
DIRICHLET_TOL = 1e-9
CORRUPTIONS = ("shift one edge by 1e-3", "swap one band/gap label", "drop one gap",
               "move one predicted centre")


def build(cli, seed: int):
    rng = rng_for("gaptable", seed)
    ops = []

    def gaps(label, lengths, alpha, centers=0):
        kmax = jitter(rng, 296, 300)
        argv = ["gaps", "--a", lengths[0].text, "--b", lengths[1].text, "--c", lengths[2].text,
                "--alpha", alpha, "--kmin", 0.01, "--kmax", kmax, "--samples", SAMPLES,
                "--edge-tol", EDGE_TOL, "--centers", centers]
        ops.append(cli.op(label, argv, info=dict(kind="gaps", lengths=lengths, alpha=alpha,
                                                 kmin=0.01, kmax=kmax, centers=centers)))

    def classify(label, a, b, alpha, centers, numeric_exit_ok=False):
        argv = ["classify", "--a", a.text, "--b", b.text, "--alpha", alpha, "--centers", centers]
        ops.append(cli.op(label, argv, numeric_exit_ok=numeric_exit_ok,
                          info=dict(kind="classify", a=a, b=b, alpha=alpha, centers=centers)))

    gaps("golden-bc", (GOLDEN, ONE, ONE), jitter(rng, 20, 25), centers=5)
    gaps("golden-bc-neg", (GOLDEN, ONE, ONE), -jitter(rng, 45, 50), centers=5)
    gaps("sqrt2-bc", (SQRT2, ONE, ONE), jitter(rng, 30, 35), centers=5)
    gaps("sqrt2-bc-neg", (SQRT2, ONE, ONE), -jitter(rng, 55, 60), centers=5)
    gaps("golden-scaled-bc", (GOLDEN, rat(3, 2), rat(3, 2)), jitter(rng, 35, 40), centers=4)
    gaps("generic-1", GENERIC[0], jitter(rng, 20, 25))
    gaps("generic-2", GENERIC[1], -jitter(rng, 30, 35))
    gaps("generic-3", GENERIC[2], jitter(rng, 40, 45))
    gaps("generic-4", GENERIC[3], -jitter(rng, 55, 60))
    classify("classify-golden", GOLDEN, ONE, jitter(rng, 20, 60), 5)
    classify("classify-sqrt2", SQRT2, ONE, -jitter(rng, 20, 60), 5)
    classify("classify-rational", rat(3, 2), ONE, jitter(rng, 20, 60), 3)
    # Known fault: the convergent search doubles its depth to 352, the fixed
    # surd precision runs out and classify exits 1 with an OverflowError.
    classify("classify-sqrt3-fault", SQRT3, ONE, 6.0, 5, numeric_exit_ok=True)
    classify("classify-1+sqrt7-fault", surd(1, 7, 3), ONE, 6.0, 5, numeric_exit_ok=True)
    return ops


def warmup(cli):
    return [
        cli.op("warm-gaps", ["gaps", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1",
                             "--alpha", "20", "--kmax", "30", "--samples", "300", "--centers", "2"]),
        cli.op("warm-classify", ["classify", "--a", "sqrt(2)", "--b", "1", "--alpha", "20"]),
    ]


def parse(op, out):
    return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# gap tables


def _check_table(report, op, rows):
    info = op.info
    ok = True
    for r in rows:
        ok &= r["k_lo"] == math.sqrt(r["e_lo"]) and r["k_hi"] == math.sqrt(r["e_hi"])
        ok &= r["width_e"] == r["e_hi"] - r["e_lo"] and r["k_lo"] < r["k_hi"]
        ok &= info["kmin"] <= r["k_lo"] and r["k_hi"] <= info["kmax"]
    ok &= all(a["k_hi"] < b["k_lo"] for a, b in zip(rows, rows[1:]))
    report.expect(ok, "table", f"{op.label}: gap rows are not ordered, disjoint, consistent rows")


def _check_attribution(report, op, rows):
    info = op.info
    lengths = [x.value for x in info["lengths"]]
    for r in rows:
        k_mid = (r["k_lo"] + r["k_hi"]) / 2
        if ref.positive_state(lengths, info["alpha"], k_mid, DIRICHLET_TOL)[0] == ref.DIRICHLET:
            want = ["midpoint-at-dirichlet"]
        else:
            g1, g2 = ref.gap_criteria(lengths, info["alpha"], k_mid)
            if g1[0] == ref.UNDECIDED or g2[0] == ref.UNDECIDED:
                report.count("attribution.undecided")
                continue
            want = [name for name, hit in (("GC1", g1[0]), ("GC2", g2[0])) if hit]
        report.count("attribution.decided")
        report.expect(r["attribution"] == want, "attribution",
                      f"{op.label}: gap at k={k_mid!r} attributed {r['attribution']}, reference {want}")


def _check_edges(report, op, rows):
    """Just inside each end of a gap is gap, just outside is band."""
    info = op.info
    if not rows:
        return
    lengths = [x.value for x in info["lengths"]]
    k_lo = np.array([r["k_lo"] for r in rows])
    k_hi = np.array([r["k_hi"] for r in rows])
    prev_hi = np.concatenate([[info["kmin"]], k_hi[:-1]])
    next_lo = np.concatenate([k_lo[1:], [info["kmax"]]])

    def state_fn(x):
        return ref.positive_state(lengths, info["alpha"], x, DIRICHLET_TOL)

    starts = k_lo > info["kmin"]
    ends = k_hi < info["kmax"]
    n_start, n_end = int(starts.sum()), int(ends.sum())
    probe_edges(report, "edges", state_fn, k_lo[starts], [ref.BAND] * n_start, [ref.GAP] * n_start,
                (prev_hi[starts], k_hi[starts]), 2 * EDGE_TOL + 1e-12 * k_lo[starts])
    probe_edges(report, "edges", state_fn, k_hi[ends], [ref.GAP] * n_end, [ref.BAND] * n_end,
                (k_lo[ends], next_lo[ends]), 2 * EDGE_TOL + 1e-12 * k_hi[ends])


def _check_coverage(report, op, rows):
    """Reference membership on the command's own grid against the table.

    Samples the reference decides must be gap exactly inside reported gaps;
    samples next to a reported edge or a Dirichlet point are skipped.  A gap
    missing from the table shows up as uncovered gap samples.
    """
    info = op.info
    lengths = [x.value for x in info["lengths"]]
    k_lo, k_hi, n = info["kmin"], info["kmax"], SAMPLES
    h = (k_hi - k_lo) / (n - 1)
    ks = np.array([k_lo + i * h for i in range(n)])
    ks[-1] = k_hi
    want = ref.positive_state(lengths, info["alpha"], ks, DIRICHLET_TOL)
    in_gap = np.zeros(n, dtype=bool)
    near = np.zeros(n, dtype=bool)
    pad = 4 * EDGE_TOL + 1e-9 * ks
    for r in rows:
        in_gap |= (ks > r["k_lo"]) & (ks < r["k_hi"])
        near |= (np.abs(ks - r["k_lo"]) <= pad) | (np.abs(ks - r["k_hi"]) <= pad)
    decided = ((want == ref.BAND) | (want == ref.GAP)) & ~near
    report.count("coverage.decided", int(decided.sum()))
    report.count("coverage.undecided", int((~decided).sum()))
    bad = np.nonzero(decided & ((want == ref.GAP) != in_gap))[0]
    if len(bad):
        report.fail("coverage", f"{op.label}: {len(bad)} grid samples disagree with the table, "
                                f"first at k={ks[bad[0]]!r} (reference {ref.STATE_NAMES[int(want[bad[0]])]})")


def _check_centers(report, op, rows):
    info = op.info
    if not info["centers"]:
        report.expect(all(not r["predicted_centers"] for r in rows), "centers",
                      f"{op.label}: centres listed although none were asked for")
        return
    a, b = info["lengths"][0], info["lengths"][1]
    want = ref.predicted_centers(a.exact, b.exact, info["alpha"], info["centers"])
    for r in rows:
        expected = [(f, p, q, k) for f, p, q, k in want if r["k_lo"] - 0.5 <= k <= r["k_hi"] + 0.5]
        got = [(c["family"], c["p"], c["q"], c["k"]) for c in r["predicted_centers"]]
        report.count("centers.rows")
        ok = len(got) == len(expected) and all(
            g[:3] == w[:3] and rel_close(g[3], w[3], 1e-14) for g, w in zip(got, expected))
        report.expect(ok, "centers", f"{op.label}: gap [{r['k_lo']}, {r['k_hi']}] lists centres "
                                     f"{got}, reference {expected}")


# ---------------------------------------------------------------------------
# classify reports


def _check_classify(report, op, docs):
    info = op.info
    a, b = info["a"], info["b"]
    if not report.expect(len(docs) == 2, "schema", f"{op.label}: {len(docs)} documents"):
        return
    head, thresholds = docs
    a_val, b_val = a.value, b.value
    rational = not isinstance(a.exact, Surd) and not isinstance(b.exact, Surd)
    kind = head["classification"]["kind"]
    if rational:
        report.expect(kind == "rational", "classification", f"{op.label}: class {kind}")
        theta = a.exact / b.exact
        p, q = theta.numerator, theta.denominator
        report.expect(head["classification"]["rational_pq"] == [p, q], "classification",
                      f"{op.label}: rational_pq {head['classification']['rational_pq']}")
        want = ref.thresholds(a_val, b_val, None)
        floor = 9 * math.pi / (2 * (6 * p + math.pi * q))
        report.expect(rel_close(thresholds["extras"]["gc2_dominance_floor"], floor, 1e-12),
                      "thresholds", f"{op.label}: dominance floor")
    else:
        report.expect(kind == "badly_approximable", "classification", f"{op.label}: class {kind}")
        theta = ref.ratio_mp(a.exact, b.exact)
        quotients, convs = ref.convergents_of(theta, 30)
        gamma30 = ref.tail_min_quality(convs)
        gamma20 = ref.tail_min_quality(convs[:20])
        report.expect(rel_close(head["classification"]["gamma_lower"], gamma30, 1e-9), "gamma",
                      f"{op.label}: gamma_lower {head['classification']['gamma_lower']} vs {gamma30}")
        report.expect(rel_close(head["gamma_estimate"], gamma20, 1e-9), "gamma",
                      f"{op.label}: gamma_estimate {head['gamma_estimate']} vs {gamma20}")
        cf = head["continued_fraction"]
        report.expect([cf["a0"]] + cf["partials"] == quotients[:len(cf["partials"]) + 1], "cf",
                      f"{op.label}: partial quotients differ from the reference")
        table_ok = all(
            (c["p"], c["q"], c["approach_sign"]) == (w.p, w.q, w.sign)
            and rel_close(c["quality"], w.quality, 1e-9)
            for c, w in zip(head["convergents"], convs))
        report.expect(table_ok and len(head["convergents"]) == 10, "convergents",
                      f"{op.label}: convergent table differs from the reference")
        want_centers = ref.predicted_centers(a.exact, b.exact, info["alpha"], info["centers"])
        got = [(c["family"], c["p"], c["q"], c["k"]) for c in head["predicted_gap_centers"]]
        ok = len(got) == len(want_centers) and all(
            g[:3] == w[:3] and rel_close(g[3], w[3], 1e-14) for g, w in zip(got, want_centers))
        report.expect(ok, "centers", f"{op.label}: predicted centres {got}, reference {want_centers}")
        want = ref.thresholds(a_val, b_val, gamma20)
    for key, value in want.items():
        report.expect(rel_close(thresholds[key], value, 1e-9), "thresholds",
                      f"{op.label}: {key} {thresholds[key]!r}, closed form {value!r}")


def check_parsed(op, docs, report):
    if op.info["kind"] == "classify":
        _check_classify(report, op, docs)
        return
    if not report.expect(len(docs) == 1, "schema", f"{op.label}: {len(docs)} documents"):
        return
    rows = docs[0]["gaps"]
    report.count("gaps.rows", len(rows))
    _check_table(report, op, rows)
    _check_attribution(report, op, rows)
    _check_edges(report, op, rows)
    _check_coverage(report, op, rows)
    _check_centers(report, op, rows)


def check(ops, outputs, report):
    parsed = {}
    for op, out in zip(ops, outputs):
        if out.exit_code != 0 or out.exc is not None:
            continue  # failed, or exit 3 with a typed message: counted by the loop
        parsed[op.label] = parse(op, out)
        check_parsed(op, parsed[op.label], report)
    return parsed


def corruptions(ops, parsed):
    by_label = {op.label: op for op in ops}
    out = []
    op = by_label["golden-bc"]
    rows = parsed[op.label][0]["gaps"]

    def copy():
        return json.loads(json.dumps(parsed[op.label]))

    widest = max(range(len(rows)), key=lambda i: rows[i]["k_hi"] - rows[i]["k_lo"])
    docs = copy()
    r = docs[0]["gaps"][widest]
    r["k_hi"] += 1e-3
    r["e_hi"] = r["k_hi"] ** 2
    r["width_e"] = r["e_hi"] - r["e_lo"]
    out.append(("shift one edge by 1e-3", op, docs, "edges"))
    docs = copy()
    for r in docs[0]["gaps"]:
        if r["attribution"] in (["GC1"], ["GC2"]):
            r["attribution"] = ["GC2"] if r["attribution"] == ["GC1"] else ["GC1"]
            out.append(("swap one band/gap label", op, docs, "attribution"))
            break
    docs = copy()
    del docs[0]["gaps"][widest]
    out.append(("drop one gap", op, docs, "coverage"))
    docs = copy()
    for r in docs[0]["gaps"]:
        if r["predicted_centers"]:
            r["predicted_centers"][0]["k"] += 1e-3
            out.append(("move one predicted centre", op, docs, "centers"))
            break
    return out
