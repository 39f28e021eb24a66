"""Workload ``scan``: ``bands`` reports over a seeded mix of geometry families.

Every round runs the same eleven ``bands`` invocations; the seed draws the
coupling, the window end and, for some slots, one geometry out of a fixed
list of equal cost.  Grid sizes are fixed per slot (4k to 40k samples) and
chosen so that one slot, ``rational``, sits clearly in the middle of the
cost ladder: five cheaper slots, five dearer ones.  The median operation
time is then that slot's time, not a seed- or noise-dependent pick among
neighbours of similar cost.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from common import (GOLDEN, ONE, SQRT2, SQRT3, SQRT5, CliOut, dec, jitter, probe_edges, rat,
                    rel_close, rng_for, surd)

RATIONAL_TRIPLES = [
    (rat(1, 2), rat(3, 2), rat(1)),
    (rat(1), rat(2), rat(3, 2)),
    (rat(2, 3), rat(1), rat(4, 3)),
    (rat(3, 4), rat(5, 4), rat(1)),
]
SURD_TRIPLES = [
    (SQRT2, SQRT3, GOLDEN),
    (GOLDEN, SQRT5, SQRT2),
    (SQRT3, GOLDEN, surd(1, 3, 2)),
]
LARGE_K = (GOLDEN, ONE, SQRT2)
EDGE_TOL = 1e-9
DIRICHLET_TOL = 1e-9
# At k ~ 1e6 the default tolerance flags |k - m pi/l| <= 1e-3 as Dirichlet,
# and the scan's step off such a zone can overshoot a band just beyond it
# (see CHANGES.md); 1e-12 keeps the zone near 1e-6, still far above the
# 1e-10 rounding of l*k there.
LARGE_K_DIRICHLET_TOL = 1e-12
CORRUPTIONS = ("shift one edge by 1e-3", "drop one gap", "swap one band/gap label")


def build(cli, seed: int):
    rng = rng_for("scan", seed)
    ops = []

    def bands(label, lengths, alpha, kmin, kmax, samples, fmt="json", negative=None,
              edge_tol=EDGE_TOL, dirichlet_tol=DIRICHLET_TOL, **info):
        argv = ["bands", "--a", lengths[0].text, "--b", lengths[1].text, "--c", lengths[2].text,
                "--alpha", alpha, "--kmin", kmin, "--kmax", kmax, "--samples", samples,
                "--edge-tol", edge_tol, "--dirichlet-tol", dirichlet_tol, "--format", fmt]
        if negative is not None:
            argv += ["--include-negative", "--kappa-max", negative]
        info.update(lengths=lengths, alpha=alpha, kmin=kmin, kmax=kmax, samples=samples,
                    fmt=fmt, kappa_max=negative, edge_tol=edge_tol, dirichlet_tol=dirichlet_tol)
        ops.append(cli.op(label, argv, info=info))

    eq = (ONE, ONE, ONE)
    bands("kirchhoff-equilateral", eq, 0.0, 0.01, jitter(rng, 95, 100), 4000, equilateral=True)
    ell = rng.choice([rat(1), rat(3, 4), rat(5, 4)])
    bands("equilateral", (ell, ell, ell), jitter(rng, 2, 8), 0.01, jitter(rng, 55, 60), 6000,
          equilateral=True)
    bands("equilateral-negative-csv", eq, -jitter(rng, 4, 8), 0.01, jitter(rng, 45, 50), 8000,
          fmt="csv", negative=5.0)
    sign = rng.choice([1, -1])
    bands("golden-bc", (GOLDEN, ONE, ONE), sign * jitter(rng, 3, 10), 0.01, jitter(rng, 95, 100),
          16000)
    bands("phi-1.3-csv", (ONE, GOLDEN, dec("1.3")), jitter(rng, 2.5, 3.5), 0.01,
          jitter(rng, 98, 100), 40000, fmt="csv")
    # the middle slot of the cost ladder: its geometry is fixed and its
    # coupling range narrow, so its cost barely depends on the seed
    bands("rational", RATIONAL_TRIPLES[0], jitter(rng, 3, 4), 0.01, jitter(rng, 45, 50), 12000)
    bands("surd", rng.choice(SURD_TRIPLES), jitter(rng, 1, 5), 0.01, jitter(rng, 95, 100), 20000)
    bands("surd-negative", rng.choice(SURD_TRIPLES), -jitter(rng, 3, 8), 0.01,
          jitter(rng, 45, 50), 12000, negative=jitter(rng, 4, 5))
    # alpha/k stays O(1) so the window at k ~ 1e6 still holds bands and gaps
    kmin = 1e6 + jitter(rng, 0, 1e4, 2)
    bands("large-k", LARGE_K, jitter(rng, 2.5e6, 3.5e6, 0), kmin, kmin + 10, 4000, edge_tol=1e-6,
          dirichlet_tol=LARGE_K_DIRICHLET_TOL, large_k=True)
    triple = rng.choice(RATIONAL_TRIPLES)
    edge = rng.randrange(3)
    start = rng.randint(3, 10) * math.pi / triple[edge].value
    bands("dirichlet-start", triple, jitter(rng, 1, 4), start, start + 20, 4000)
    bands("sqrt2-bc-csv", (SQRT2, ONE, ONE), -sign * jitter(rng, 3, 10), 0.01,
          jitter(rng, 55, 60), 6000, fmt="csv")
    return ops


def warmup(cli):
    """One small invocation of each output path, independent of the seed."""
    return [
        cli.op("warm-json", ["bands", "--a", "1", "--b", "(1+sqrt(5))/2", "--c", "1.3",
                             "--alpha", "-3", "--kmax", "10", "--samples", "200",
                             "--include-negative"]),
        cli.op("warm-csv", ["bands", "--a", "1", "--b", "1", "--c", "1", "--alpha", "3",
                            "--kmax", "10", "--samples", "200", "--format", "csv"]),
    ]


# ---------------------------------------------------------------------------
# parsing


def parse(op, out: CliOut):
    """JSON ops give one dict per report; CSV ops give (branch, row) tuples."""
    if op.info["fmt"] == "json":
        return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
    rows = []
    for line in out.stdout.splitlines():
        if not line or line.startswith("k,"):
            continue
        k, e, absd, lower, upper, decision = line.split(",")
        rows.append(["negative" if float(e) < 0 else "positive", float(k), decision])
    return rows


def intervals(doc):
    """Reported intervals as (state, x_lo, x_hi) ascending in k or kappa."""
    items = [(ref.BAND, b["e_lo"], b["e_hi"]) for b in doc["bands"]]
    items += [(ref.GAP, g["e_lo"], g["e_hi"]) for g in doc["gaps"]]
    items.sort(key=lambda t: t[1])
    if doc["branch"] == "positive":
        return [(s, math.sqrt(lo), math.sqrt(hi)) for s, lo, hi in items]
    return [(s, math.sqrt(-hi), math.sqrt(-lo)) for s, lo, hi in reversed(items)]


# ---------------------------------------------------------------------------
# checks


def check_tiling(report, label, doc):
    items = [("band", b["e_lo"], b["e_hi"]) for b in doc["bands"]]
    items += [("gap", g["e_lo"], g["e_hi"]) for g in doc["gaps"]]
    items.sort(key=lambda t: t[1])
    window = doc["window"]
    if not report.expect(bool(items), "tiling", f"{label}: no intervals"):
        return
    report.expect(items[0][1] == window["e_lo"] and items[-1][2] == window["e_hi"], "tiling",
                  f"{label}: intervals do not reach both window ends")
    for (s0, lo0, hi0), (s1, lo1, hi1) in zip(items, items[1:]):
        if not report.expect(hi0 == lo1 and s0 != s1, "tiling",
                             f"{label}: {s0} [{lo0}, {hi0}] then {s1} [{lo1}, {hi1}]"):
            return
    report.expect(all(lo < hi for _, lo, hi in items), "tiling", f"{label}: empty interval")


def check_edges(report, op, doc, tag="edges", state_fn=None):
    """Reference membership just inside each side of every internal edge."""
    info = op.info
    lengths = [x.value for x in info["lengths"]]
    branch = doc["branch"]
    runs = intervals(doc)
    if len(runs) < 2:
        return
    edges = np.array([r[2] for r in runs[:-1]])
    left = [r[0] for r in runs[:-1]]
    right = [r[0] for r in runs[1:]]
    lower_bound = np.array([r[1] for r in runs[:-1]])
    upper_bound = np.array([r[2] for r in runs[1:]])
    if state_fn is None:
        def state_fn(x):
            return ref.state(branch, lengths, info["alpha"], x, info["dirichlet_tol"])
    delta0 = 2 * info["edge_tol"] + 1e-12 * edges
    probe_edges(report, tag, state_fn, edges, left, right, (lower_bound, upper_bound), delta0)


def check_sets(report, op, doc):
    """Dirichlet points and flat bands against the reference sets."""
    info = op.info
    k_lo, k_hi = info["kmin"], info["kmax"]
    exact = [x.exact for x in info["lengths"]]

    def inside(ks):
        return [k for k in ks if k_lo * (1 + 1e-12) < k < k_hi * (1 - 1e-12)]

    got = inside([math.sqrt(e) for e in doc["dirichlet_points"]])
    want = ref.dirichlet_points(exact, k_lo, k_hi)
    report.count("dirichlet.points", len(want))
    report.expect(len(got) == len(want) and all(rel_close(g, w, 1e-12) for g, w in zip(got, want)),
                  "dirichlet", f"{op.label}: {len(got)} Dirichlet points, reference {len(want)}")
    got = inside([fb["k"] for fb in doc["flat_bands"]])
    want = ref.flat_band_ks(exact, k_lo, k_hi)
    report.count("flat.points", len(want))
    report.expect(len(got) == len(want) and all(rel_close(g, w, 1e-12) for g, w in zip(got, want)),
                  "flat-bands", f"{op.label}: {len(got)} flat bands, reference {len(want)}")
    lengths = [x.value for x in info["lengths"]]
    for k in want:
        residual = ref.flat_band_residual(lengths, info["alpha"], k)
        report.expect(residual <= 1e-9 * max(1.0, k * 2 * sum(lengths)), "flat-bands",
                      f"{op.label}: eigenfunction residual {residual:.3g} at k={k!r}")


def check_equilateral(report, op, doc):
    info = op.info
    ell = info["lengths"][0].value
    alpha = info["alpha"]
    runs = intervals(doc)
    if alpha == 0:
        report.expect(not doc["gaps"], "kirchhoff",
                      f"{op.label}: Kirchhoff equilateral lattice reported {len(doc['gaps'])} gaps")
    spacing = (info["kmax"] - info["kmin"]) / (info["samples"] - 1)
    roots = ref.equilateral_edges(ell, alpha, info["kmin"], info["kmax"], min(spacing / 4, 0.01))
    for _, _, k in runs[:-1]:
        tol = 2 * info["edge_tol"] + 2 * info["dirichlet_tol"] * max(1.0, ell * k) / ell + 1e-12 * k
        nearest = np.min(np.abs(roots - k)) if len(roots) else math.inf
        report.count("equilateral.edges")
        report.expect(nearest <= tol, "equilateral",
                      f"{op.label}: edge k={k!r} is {nearest:.3g} from the closed-form roots")


def check_csv(report, op, rows):
    info = op.info
    lengths = [x.value for x in info["lengths"]]
    expected = info["samples"] * (2 if info["kappa_max"] is not None else 1)
    report.expect(len(rows) == expected, "csv", f"{op.label}: {len(rows)} rows, expected {expected}")
    for branch in ("positive", "negative"):
        picked = [(x, d) for b, x, d in rows if b == branch and d != "dirichlet"]
        if not picked:
            continue
        xs = np.array([x for x, _ in picked])
        got = np.array([ref.BAND if d == "band" else ref.GAP if d == "gap" else -1 for _, d in picked])
        want = ref.state(branch, lengths, info["alpha"], xs, info["dirichlet_tol"])
        decided = (want == ref.BAND) | (want == ref.GAP)
        report.count("csv.decided", int(decided.sum()))
        report.count("csv.undecided", int((~decided).sum()))
        bad = np.nonzero(decided & (want != got))[0]
        if len(bad):
            report.fail("csv", f"{op.label}: {len(bad)} {branch} rows disagree, first at {xs[bad[0]]!r}")


def check_parsed(op, parsed, report):
    if op.info["fmt"] == "csv":
        check_csv(report, op, parsed)
        return
    expected_docs = 2 if op.info["kappa_max"] is not None else 1
    if not report.expect(len(parsed) == expected_docs, "schema",
                         f"{op.label}: {len(parsed)} reports, expected {expected_docs}"):
        return
    for doc in parsed:
        check_tiling(report, op.label, doc)
        check_edges(report, op, doc)
    check_sets(report, op, parsed[0])
    if op.info.get("equilateral"):
        check_equilateral(report, op, parsed[0])
    if op.info.get("large_k"):
        info = op.info
        lengths = [x.value for x in info["lengths"]]

        def mp_state(xs):
            return np.array([ref.mp_positive_state(lengths, info["alpha"], float(x),
                                                   info["dirichlet_tol"]) for x in xs])

        check_edges(report, op, parsed[0], tag="mpmath", state_fn=mp_state)


def check_roundtrip(op, out, report):
    """Each JSON report re-reads and re-serialises to the same bytes, and
    writes every float with 17 significant digits, so it holds the doubles
    exactly."""
    if op.info["fmt"] != "json":
        return
    from hexband.report import report_from_json, report_to_json

    inexact = []

    def parse_float(token):
        if format(float(token), ".17g") != token:
            inexact.append(token)
        return float(token)

    for line in out.stdout.splitlines():
        text = line + "\n"
        parsed = report_from_json(text)
        doc = json.loads(line, parse_float=parse_float)
        same = (parsed.bands == [(b["e_lo"], b["e_hi"]) for b in doc["bands"]]
                and parsed.gaps == [(g["e_lo"], g["e_hi"]) for g in doc["gaps"]]
                and parsed.dirichlet_points == doc["dirichlet_points"]
                and [fb.k for fb in parsed.flat_bands] == [fb["k"] for fb in doc["flat_bands"]])
        report.expect(same and report_to_json(parsed) == text, "roundtrip",
                      f"{op.label}: JSON report does not round-trip exactly")
    report.expect(not inexact, "roundtrip",
                  f"{op.label}: {len(inexact)} floats not written with 17 digits, e.g. {inexact[:1]}")


def check(ops, outputs, report):
    parsed = {}
    for op, out in zip(ops, outputs):
        if out.exit_code != 0:
            continue
        check_roundtrip(op, out, report)
        parsed[op.label] = parse(op, out)
        check_parsed(op, parsed[op.label], report)
    return parsed


# ---------------------------------------------------------------------------
# corruptions


def corruptions(ops, parsed):
    """(name, op, corrupted parsed output, tag that must reject it)."""
    by_label = {op.label: op for op in ops}
    out = []
    op = by_label["golden-bc"]
    docs = parsed[op.label]
    doc = json.loads(json.dumps(docs[0]))
    items = sorted(doc["bands"] + doc["gaps"], key=lambda item: item["e_lo"])
    for left, right in zip(items[1:-2], items[2:-1]):
        k = math.sqrt(left["e_hi"])
        if k - math.sqrt(left["e_lo"]) > 4e-3 and math.sqrt(right["e_hi"]) - k > 4e-3:
            left["e_hi"] = right["e_lo"] = (k + 1e-3) ** 2
            out.append(("shift one edge by 1e-3", op, [doc] + docs[1:], "edges"))
            break
    doc = json.loads(json.dumps(docs[0]))
    if doc["gaps"]:
        del doc["gaps"][len(doc["gaps"]) // 2]
        out.append(("drop one gap", op, [doc] + docs[1:], "tiling"))
    op = by_label["phi-1.3-csv"]
    rows = [list(r) for r in parsed[op.label]]
    lengths = [x.value for x in op.info["lengths"]]
    for row in rows[len(rows) // 3:]:
        if row[2] == "band" and ref.positive_state(lengths, op.info["alpha"], row[1])[0] == ref.BAND:
            row[2] = "gap"
            out.append(("swap one band/gap label", op, rows, "csv"))
            break
    return out
