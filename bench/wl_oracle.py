"""Workload ``oracle``: ``verify`` runs over several seeds.

Every round runs four ``verify`` invocations of the same size; the
benchmark seed draws the four ``--seed`` values.  Each run checks 100
determinant samples by cofactor expansion and three envelope and three
trigonometric-minimum samples on 768 x 768 phase grids, so phase-grid
extrema take nearly all the time.  (``verify``'s default 1024 grids are
bound by memory traffic and measured far noisier on a shared machine; at
768 the largest deviation over 200 seeds is 0.14 of its tolerance, where
512 came within 0.76.)
"""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np

import reference as ref
from common import Calibration, rng_for

GRID_N = 768
REFINE_ROUNDS = 2
DET_SAMPLES = 100
ENVELOPE_SAMPLES = 3
TRIGMIN_SAMPLES = 3
RUNS_PER_ROUND = 4
# verify's default tolerances
ENVELOPE_TOL = 1e-3
TRIGMIN_TOL = 1e-6
CHECK_NAMES = ("determinant closed form vs cofactor", "envelope vs phase-grid extrema",
               "trig minimum closed form vs grid")
CORRUPTIONS = ("set verify's passed to false",)
_CALIBRATION_ARRAY = np.random.default_rng(0).random(1 << 18)


def _numpy_work() -> float:
    """Time a fixed sort and elementwise pass, the kind of work grids do."""
    t0 = time.perf_counter()
    np.argsort(_CALIBRATION_ARRAY)
    np.cos(_CALIBRATION_ARRAY).sum()
    return time.perf_counter() - t0


CALIBRATION = Calibration(_numpy_work, 0.010)


def grid_points_per_call(n: int, refine_rounds: int, seeds: int = 4) -> int:
    """Phase-grid evaluations of one extremum search: the full grid, then a
    33 x 33 zoom per round around each of ``seeds`` cells for the minimum
    and again for the maximum."""
    return n * n + 2 * seeds * refine_rounds * 33 * 33


def build(cli, seed: int):
    rng = rng_for("oracle", seed)
    points = (ENVELOPE_SAMPLES + TRIGMIN_SAMPLES) * grid_points_per_call(GRID_N, REFINE_ROUNDS)
    ops = []
    for i in range(RUNS_PER_ROUND):
        argv = ["verify", "--seed", rng.randrange(1, 2**31), "--det-samples", DET_SAMPLES,
                "--envelope-samples", ENVELOPE_SAMPLES, "--trigmin-samples", TRIGMIN_SAMPLES,
                "--grid-n", GRID_N, "--refine-rounds", REFINE_ROUNDS]
        ops.append(cli.op(f"verify-{i}", argv, grid_points=points, info={"seed": seed}))
    return ops


def warmup(cli):
    return [cli.op("warm-verify", ["verify", "--det-samples", "20", "--envelope-samples", "1",
                                   "--trigmin-samples", "1", "--grid-n", "64"])]


def parse(op, out):
    return json.loads(out.stdout)


def check_parsed(op, doc, report):
    report.expect(doc.get("passed") is True, "passed", f"{op.label}: verify did not pass")
    checks = doc.get("checks", [])
    if not report.expect([c["name"] for c in checks] == list(CHECK_NAMES), "schema",
                         f"{op.label}: unexpected check list"):
        return
    for c in checks:
        dev, tol = c["max_deviation"], c["tolerance"]
        report.count("verify.checks")
        report.expect(c["passed"] is True and math.isfinite(dev) and 0 <= dev <= tol,
                      "deviations", f"{op.label}: {c['name']} deviation {dev!r} > {tol!r}")


def check_grids(report, seed: int):
    """The oracle's grid extrema against the reference envelope and closed form.

    The grid can only see values the phase torus attains, so the extrema
    must lie inside [lower^2, upper^2] and within verify's envelope
    tolerance of its ends; the grid minimum of the trigonometric polynomial
    must sit above the closed-form minimum, within verify's tolerance.  The
    grids are verify's default 1024 x 1024, the size those tolerances are
    set for.
    """
    from hexband.core import HexGeometry
    from hexband.oracle import GridSpec, rhs_extrema_grid, trig_min_grid

    rng = random.Random(f"hexband-bench:oracle-grid:{seed}")
    grid = GridSpec()
    for _ in range(2):
        while True:
            lengths = [rng.uniform(0.5, 3) for _ in range(3)]
            k = rng.uniform(0.1, 30)
            if min(abs(math.sin(ell * k)) for ell in lengths) >= 0.05:
                break
        lo, hi = rhs_extrema_grid(HexGeometry(*lengths), k, grid)
        lower, upper = (float(v[0]) for v in ref.envelope(lengths, [k]))
        slack = 1e-9 * upper * upper
        report.count("grid.envelopes")
        report.expect(lower ** 2 - slack <= lo <= lower ** 2 + ENVELOPE_TOL
                      and upper ** 2 - ENVELOPE_TOL <= hi <= upper ** 2 + slack, "bracket",
                      f"grid extrema [{lo!r}, {hi!r}] vs envelope [{lower ** 2!r}, {upper ** 2!r}]")
    for _ in range(2):
        mags = [rng.uniform(0.2, 5) for _ in range(3)]
        signs = rng.choice([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
        coefs = [m * s for m, s in zip(mags, signs)]
        got = trig_min_grid(*coefs, grid=grid)
        want = ref.trig_min(*coefs)
        report.count("grid.trigmins")
        report.expect(want - 1e-12 <= got <= want + TRIGMIN_TOL, "bracket",
                      f"grid trig minimum {got!r} vs closed form {want!r}")


def check(ops, outputs, report):
    parsed = {}
    for op, out in zip(ops, outputs):
        if out.exit_code not in (0, 4) or out.exc is not None:
            continue
        parsed[op.label] = parse(op, out)
        check_parsed(op, parsed[op.label], report)
    check_grids(report, ops[0].info["seed"])
    return parsed


def corruptions(ops, parsed):
    op = ops[0]
    doc = json.loads(json.dumps(parsed[op.label]))
    doc["passed"] = False
    return [("set verify's passed to false", op, doc, "passed")]
