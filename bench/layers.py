"""The traced run and the per-layer metrics it yields.

Self times and call counts are per operation of the traced run, so they do
not depend on how many rounds fit into the run.  Counts that only the
program's results reveal (grid samples, Dirichlet samples, refined edges,
serialised bytes, convergents behind each predicted centre) are collected
by hooks on the wrapped functions.
"""

from __future__ import annotations

from common import run_rounds
from tracer import Tracer

SELF_S = (
    "core.sine_triple", "core.dispersion", "core.dispersion_negative", "core.det_m_closed_form",
    "core.assemble_m_matrix",
    "bands.scan_spectrum", "bands.negative_spectrum_scan", "bands.rhs_envelope",
    "bands.band_membership", "bands.flat_band_energies", "bands.verify_flat_band",
    "gaps.gc1", "gaps.gc2", "gaps.gc1_tangent_form", "gaps.gap_diagnostics_bc", "gaps.gc_negative",
    "gaps.thresholds_bc",
    "numtheory.classify_ratio", "numtheory.approx_constant", "numtheory.predicted_gap_centers",
    "oracle.rhs_extrema_grid", "oracle.trig_min_grid", "oracle.band_membership_grid",
    "oracle.det_numeric",
    "report.report_to_json", "report.write_samples_csv",
    "cli.command", "cli.parse_length",
)
CALLS = ("core.sine_triple", "gaps.gc1", "gaps.gc2", "numtheory.cf_expand")
DERIVED = (
    ("core.kernel_calls_per_sample", "count"),
    ("bands.edges", "count"),
    ("bands.refine_kernel_calls_per_edge", "count"),
    ("bands.dirichlet_sample_share", "ratio"),
    ("bands.samples_per_s", "1/s"),
    ("bands.edges_per_s", "1/s"),
    ("numtheory.convergents_per_center", "count"),
    ("oracle.grid_points", "count"),
    ("oracle.grid_points_per_s", "1/s"),
    ("report.bytes_out", "bytes"),
    ("trace.overhead_pct", "%"),
)


def metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [(f"{n}.self_s", "s") for n in SELF_S] + [(f"{n}.calls", "count") for n in CALLS]
    return names + list(DERIVED)


def _scan_result(tracer, token, args, kwargs, report, parent):
    c = tracer.counters
    c["grid_samples"] += len(report.samples)
    c["dirichlet_samples"] += sum(1 for s in report.samples if s.decision == "dirichlet")
    c["edges"] += max(0, len(report.bands) + len(report.gaps) - 1)


def _bytes_returned(tracer, token, args, kwargs, text, parent):
    tracer.counters["bytes_out"] += len(text)


def _stream_position(args, kwargs):
    return args[1].tell()


def _bytes_written(tracer, token, args, kwargs, result, parent):
    tracer.counters["bytes_out"] += args[1].tell() - token


def _convergents(tracer, token, args, kwargs, result, parent):
    if parent == tracer.name_id("numtheory.predicted_gap_centers"):
        tracer.counters["center_convergents"] += len(result)


def _centers(tracer, token, args, kwargs, result, parent):
    tracer.counters["centers"] += len(result)


def _after(post):
    return (lambda args, kwargs: None, post)


HOOKS = {
    "bands.scan_spectrum": _after(_scan_result),
    "bands.negative_spectrum_scan": _after(_scan_result),
    "report.json_dumps": _after(_bytes_returned),
    "report.write_samples_csv": (_stream_position, _bytes_written),
    "numtheory.convergents": _after(_convergents),
    "numtheory.predicted_gap_centers": _after(_centers),
}


def traced_run(ops, seconds, untraced, span_path, calibration):
    """Run whole rounds with every public function wrapped; write the spans
    to ``span_path`` and return the measurement and the per-layer metrics."""
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        traced = run_rounds(ops, seconds, tracer=tracer, first=untraced.outputs,
                            calibration=calibration)
    finally:
        tracer.remove()
    span_path.parent.mkdir(exist_ok=True)
    tracer.write(span_path)

    n = traced.attempted
    c = tracer.counters
    per_round = 1.0 / traced.rounds
    values = {f"{name}.self_s": tracer.self_s(name) / n for name in SELF_S}
    values.update({f"{name}.calls": tracer.calls_of(name) / n for name in CALLS})
    kernel = (tracer.pair_calls("bands.scan_spectrum", "core.sine_triple")
              + tracer.pair_calls("bands.negative_spectrum_scan", "bands.rhs_envelope_negative"))
    samples, edges = c["grid_samples"], c["edges"]
    grid_points = sum(op.grid_points for op in ops)  # per round
    untraced_rate = untraced.rounds / (untraced.busy_s * untraced.speed)  # rounds per second
    values.update({
        "core.kernel_calls_per_sample": kernel / samples if samples else 0.0,
        "bands.edges": edges / n,
        "bands.refine_kernel_calls_per_edge": (kernel - samples) / edges if edges else 0.0,
        "bands.dirichlet_sample_share": c["dirichlet_samples"] / samples if samples else 0.0,
        "bands.samples_per_s": samples * per_round * untraced_rate,
        "bands.edges_per_s": edges * per_round * untraced_rate,
        "numtheory.convergents_per_center": (c["center_convergents"] / c["centers"]
                                             if c["centers"] else 0.0),
        "oracle.grid_points": grid_points / len(ops),
        "oracle.grid_points_per_s": grid_points * untraced_rate,
        "report.bytes_out": c["bytes_out"] / n,
        "trace.overhead_pct": 100.0 * (traced.round_s() / untraced.round_s() - 1.0),
    })
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
    return traced, metrics
