#!/usr/bin/env python3
"""hexband benchmark.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src``
(it need not be installed) and ``HEXBAND_THREADS`` is removed from the
environment first.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Check results and notes go to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("scan", "gaptable", "oracle", "points")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time (used for repeated set-ups)")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the program, generate the inputs and warm up; time the program's part.

    The benchmark's own workload module is imported between the two timed
    segments so that its imports do not count as the program's set-up.  The
    time is scaled by the pure-Python calibration loop, since imports are
    interpreter work.
    """
    from common import PYTHON_CALIBRATION, median

    speed = PYTHON_CALIBRATION.ref_s / median([PYTHON_CALIBRATION.time_once() for _ in range(5)])
    clock = time.perf_counter
    t0 = clock()
    import hexband  # noqa: F401
    import hexband.cli  # noqa: F401
    t1 = clock()
    module = importlib.import_module(f"wl_{workload}")
    from common import CliDriver, run_rounds

    t2 = clock()
    cli = CliDriver()
    ops = module.build(cli, seed)
    run_rounds(module.warmup(cli), 0.0)
    t3 = clock()
    return module, ops, ((t1 - t0) + (t3 - t2)) * speed


def setup_probes(args) -> list[float]:
    """Set up again in fresh interpreters, one after another."""
    env = dict(os.environ)
    env.pop("HEXBAND_THREADS", None)
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def self_check(module, ops, parsed, report) -> list[str]:
    """Feed each corrupted output to the checks; every one must be rejected."""
    from common import Report

    lines = []
    expected = set(module.CORRUPTIONS)
    seen = set()
    for name, op, corrupted, tag in module.corruptions(ops, parsed):
        seen.add(name)
        r = Report()
        module.check_parsed(op, corrupted, r)
        rejected = tag in r.tags
        lines.append(f"self-check: {name} ({op.label}) -> "
                     f"{'rejected by ' + tag if rejected else 'NOT rejected'}")
        if not rejected:
            report.fail("self-check", f"corruption '{name}' of {op.label} passed the '{tag}' check")
    for name in sorted(expected - seen):
        report.fail("self-check", f"corruption '{name}' could not be applied")
    return lines


def run_checks(module, ops, m, report):
    """All checks, outside the timed region."""
    for label in sorted(set(m.drift)):
        report.fail("determinism", f"{label}: a later round's output differs from the first")
    parsed = module.check(ops, m.outputs, report)
    return self_check(module, ops, parsed, report)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hexband" / "__init__.py").is_file():
        print(f"bench: no hexband package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.pop("HEXBAND_THREADS", None)
    sys.path.insert(0, str(SRC))

    module, ops, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from common import PYTHON_CALIBRATION, Report, median, run_rounds

    calibration = getattr(module, "CALIBRATION", PYTHON_CALIBRATION)
    notes = []
    if args.trace:
        import layers

        untraced = run_rounds(ops, args.seconds, calibration=calibration)
        span_path = BENCH / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
        traced, metrics = layers.traced_run(ops, args.seconds, untraced, span_path, calibration)
        runs = (untraced, traced)
        notes.append(f"trace: {untraced.rounds} untraced and {traced.rounds} traced rounds, "
                     f"overhead {metrics['trace.overhead_pct']['value']:.1f}%")
    else:
        m = run_rounds(ops, args.seconds, calibration=calibration)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs = (m,)
    first = runs[0]

    report = Report()
    for m in runs[1:]:
        for label in sorted(set(m.drift)):
            report.fail("determinism", f"{label}: traced output differs from untraced")
    notes += run_checks(module, ops, first, report)

    if not args.trace:
        probes = setup_probes(args)
        p50_s = median(first.times)
        ops_per_busy_s = len(first.times) / first.busy_s
        metrics = {
            "setup_s": {"value": median([setup_s] + probes), "unit": "s"},
            "op_ms_p50": {"value": p50_s * first.speed * 1e3, "unit": "ms"},
            "ops_per_s": {"value": ops_per_busy_s / first.speed, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        notes.append(f"setup: {setup_s:.4f}s here, probes " + ", ".join(f"{p:.4f}" for p in probes))
        notes.append(f"run: {first.rounds} rounds of {len(ops)} operations, "
                     f"{first.busy_s:.2f}s busy; unscaled op_ms_p50 {p50_s * 1e3:.6g}, "
                     f"ops_per_s {ops_per_busy_s:.6g}; speed factor {first.speed:.4f} from "
                     f"{len(first.calibrations)} calibration loops")

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    for label in first.failures:
        notes.append(f"failed operation: {label}")
    for key in sorted(report.counts):
        notes.append(f"checked {key}: {report.counts[key]}")
    for tag, message in report.failures[:50]:
        notes.append(f"CHECK FAILED [{tag}] {message}")
    for line in notes:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not report.failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
