"""Command-line front end.

Subcommands: ``bands`` (scan a window into bands/gaps), ``gaps`` (gap table
with criterion attribution), ``classify`` (ratio class + coupling
thresholds for b = c), ``flatbands`` (commensurate flat-band list with
verification residuals) and ``verify`` (oracle cross-check suites).

Geometry arguments accept three grammars per argument: a decimal float
(``1.5``), an exact rational (``3/2``), or a quadratic surd
(``(1+sqrt(5))/2``, ``sqrt(2)``; ``sqrt(4)`` is the rational 2).  A JSON
config file (``--config``) sets option defaults; its keys are the parameter
names (``fmt`` for ``--format``) and explicit flags win.  Exit codes: 0 ok,
2 invalid input (any invalid flag or config value, including values only the
library checks), 3 numeric failure, 4 verification failure.  Library errors
map to these codes in one place, :class:`_Command`.

Only settings a run needs to choose are flags.  The continued-fraction
depths of ``classify``, the rational reconstruction of ``flatbands`` and
the pass tolerances of ``verify`` are constants.  The reports of ``bands``
and ``gaps`` depend on geometry, coupling, window and ``--edge-tol`` alone.
``bands --format csv`` prints a sample grid instead: ``--samples`` rows per
branch, where ``--dirichlet-tol`` only labels rows as ``dirichlet``.  The
negative-branch window of ``bands`` starts at ``--kappa-max`` divided by
``--samples`` in both formats; ``gaps --samples`` affects nothing.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
import sys

import click
import numpy as np

from . import __version__
from .bands import (
    flat_band_energies,
    negative_spectrum_scan,
    rhs_envelope,
    sample_grid,
    scan_spectrum,
    trig_polynomial_min,
    verify_flat_band,
)
from .core import (
    DEFAULT_DIRICHLET_TOL,
    DirichletPointError,
    FloquetPhase,
    HexGeometry,
    VertexCoupling,
    _closed_det,
    positive_terms_grid,
)
from .gaps import thresholds_bc, threshold_report_to_json
from .numtheory import (
    ExactRatio,
    NumericRatio,
    RatioClassKind,
    RatioInput,
    approx_constant,
    cf_expand,
    classify_ratio,
    commensurability_witness,
    convergents,
    predicted_gap_centers,
    _quadratic,
    ratio_divide,
)
from .oracle import GridSpec, _assemble_columns, det_numeric, rhs_extrema_grid, trig_min_grid
from .report import format_float, json_dumps, report_to_json, write_samples_csv

EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$|^sqrt\(\s*(\d+)\s*\)$"
)


def parse_length(text: str) -> tuple[float, RatioInput]:
    """Parse one geometry argument into (float value, exact witness)."""
    text = text.strip()
    m = _SURD_RE.match(text)
    if m:
        if m.group(5) is not None:
            ratio = _quadratic(0, 1, 1, int(m.group(5)))
        else:
            sign = -1 if m.group(2) == "-" else 1
            ratio = _quadratic(int(m.group(1)), sign, int(m.group(4)), int(m.group(3)))
        return ratio.value(), ratio
    if "/" in text:
        num, den = text.split("/", 1)
        ratio = ExactRatio(int(num), int(den))
        return ratio.value(), ratio
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"length must be finite and positive, got {text!r}")
    if value == int(value) and abs(value) < 1e15:
        return value, ExactRatio(int(value), 1)
    return value, NumericRatio(value)


class LengthParam(click.ParamType):
    name = "length"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            return parse_length(str(value))
        except (ValueError, ArithmeticError) as exc:  # OverflowError: too large for a float
            self.fail(f"invalid length {value!r}: {exc}", param, ctx)


LENGTH = LengthParam()


class _Positive(click.FloatRange):
    """``click.FloatRange``, which lets NaN through, without NaN."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if value != value:
            self.fail("nan is not > 0", param, ctx)
        return value


class _Command(click.Command):
    """A subcommand whose library errors map to exit codes, in this one place."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DirichletPointError, ArithmeticError) as exc:  # before ValueError, its base
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except ValueError as exc:  # an input the library rejects
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a JSON config file's values the command's defaults; explicit flags win."""
    if not path:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path!r}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object of flag values")
    names = {p.name for p in ctx.command.params}
    defaults = {}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in names:
            raise click.UsageError(f"config file sets unknown option {key!r}")
        defaults[name] = value
    ctx.default_map = defaults


def _write_text(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_A = click.option("--a", "a", type=LENGTH, required=True,
                  help="edge length a (float, p/q or surd)")
_B = click.option("--b", "b", type=LENGTH, required=True, help="edge length b")
_C = click.option("--c", "c", type=LENGTH, required=True, help="edge length c")
_ALPHA = click.option("--alpha", type=float, default=0.0, show_default=True,
                      help="vertex coupling")
_FORMAT = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
                       show_default=True)
_OUTPUT = click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)
_SAMPLES = click.IntRange(min=2)
_POSITIVE = _Positive(min=0.0, min_open=True)
_EDGE_TOL = click.option("--edge-tol", type=_POSITIVE, default=1e-9, show_default=True,
                         help="edge bisection width")
_CONFIG = click.option("--config", type=click.Path(exists=False), is_eager=True,
                       expose_value=False, callback=_load_config,
                       help="JSON config file of option values")


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="hexband")
def cli():
    """Band/gap structure of the dilated honeycomb quantum graph."""


@cli.command()
@_A
@_B
@_C
@_ALPHA
@click.option("--kmin", type=float, default=0.01, show_default=True, help="scan window start (k)")
@click.option("--kmax", type=float, required=True, help="scan window end (k)")
@click.option("--samples", type=_SAMPLES, default=4000, show_default=True,
              help="CSV rows per branch; the negative window starts at kappa-max / samples")
@_EDGE_TOL
@click.option("--dirichlet-tol", type=_POSITIVE, default=DEFAULT_DIRICHLET_TOL,
              show_default=True, help="labels CSV rows as dirichlet; nothing else depends on it")
@click.option("--include-negative", is_flag=True, help="also scan E < 0 when alpha < 0")
@click.option("--kappa-max", type=float, default=5.0, show_default=True, help="negative-branch window")
@_FORMAT
@_OUTPUT
@_CONFIG
def bands(a, b, c, alpha, kmin, kmax, samples, edge_tol, dirichlet_tol,
          include_negative, kappa_max, fmt, output):
    """Scan a k window and report bands, gaps, flat bands, Dirichlet points."""
    geom = HexGeometry(a[0], b[0], c[0])
    coupling = VertexCoupling(alpha)
    windows = [("positive", kmin, kmax)]
    if include_negative and coupling.alpha < 0:
        windows.append(("negative", kappa_max / samples, kappa_max))
    if fmt == "csv":
        buffer = io.StringIO()
        for branch, lo, hi in windows:
            write_samples_csv(sample_grid(geom, coupling, branch, lo, hi, samples, dirichlet_tol),
                              buffer)
        _write_text(buffer.getvalue(), output)
    else:
        scans = {"positive": scan_spectrum, "negative": negative_spectrum_scan}
        _write_text("".join(report_to_json(scans[branch](geom, coupling, lo, hi, edge_tol))
                            for branch, lo, hi in windows), output)


_GAP_FLOATS = ("e_lo", "e_hi", "k_lo", "k_hi", "width_e")


@cli.command()
@_A
@_B
@_C
@_ALPHA
@click.option("--kmin", type=float, default=0.01, show_default=True)
@click.option("--kmax", type=float, required=True, help="scan window end (k)")
@click.option("--samples", type=_SAMPLES, default=4000, show_default=True, expose_value=False,
              help="affects nothing: the gaps do not depend on a sample grid")
@_EDGE_TOL
@click.option("--centers", type=click.IntRange(min=0), default=0,
              help="annotate gaps with this many predicted centers per family (b = c only)")
@_FORMAT
@_OUTPUT
@_CONFIG
def gaps(a, b, c, alpha, kmin, kmax, edge_tol, centers, fmt, output):
    """Tabulate gaps with per-gap criterion attribution at the midpoint."""
    geom = HexGeometry(a[0], b[0], c[0])
    coupling = VertexCoupling(alpha)
    if centers > 0 and not math.isclose(geom.b, geom.c, rel_tol=1e-12):
        raise click.UsageError("--centers needs b = c geometry")
    report = scan_spectrum(geom, coupling, kmin, kmax, edge_tol)
    # GC1 (|D| > upper) and GC2 (lower > |D|) at every gap midpoint in one call
    k_mid = np.array([(math.sqrt(e_lo) + math.sqrt(e_hi)) / 2 for e_lo, e_hi in report.gaps])
    d, lower, upper, flagged = positive_terms_grid(geom, coupling.alpha, k_mid,
                                                   DEFAULT_DIRICHLET_TOL)
    d = np.abs(d)
    rows = []
    for (e_lo, e_hi), at_dirichlet, above, below in zip(
            report.gaps, flagged.tolist(), (d > upper).tolist(), (lower > d).tolist()):
        rows.append({"e_lo": e_lo, "e_hi": e_hi, "k_lo": math.sqrt(e_lo), "k_hi": math.sqrt(e_hi),
                     "width_e": e_hi - e_lo,
                     "attribution": ["midpoint-at-dirichlet"] if at_dirichlet else
                     [name for name, hit in (("GC1", above), ("GC2", below)) if hit],
                     "predicted_centers": []})
    if centers > 0:
        predictions = predicted_gap_centers(a[1], b[1], coupling.alpha, centers)
        for row in rows:
            for center in predictions:
                if row["k_lo"] - 0.5 <= center.k <= row["k_hi"] + 0.5:
                    row["predicted_centers"].append(center)
    if fmt == "csv":
        lines = [",".join(_GAP_FLOATS + ("attribution",))]
        for row in rows:
            cells = [format_float(row[key]) for key in _GAP_FLOATS]
            lines.append(",".join(cells + ["+".join(row["attribution"])]))
        _write_text("\n".join(lines) + "\n", output)
    else:
        payload = {"schema_version": 1, "gaps": rows}
        _write_text(json_dumps(payload) + "\n", output)


@cli.command()
@_A
@_B
@_ALPHA
@click.option("--centers", type=click.IntRange(min=0), default=3, show_default=True,
              help="predicted gap centers per family (0 disables)")
@_OUTPUT
@_CONFIG
def classify(a, b, alpha, centers, output):
    """Classify the ratio a/b and report the b = c coupling thresholds.

    The class reads 30 partial quotients and gamma 20 (the library
    defaults); the printed expansion has 24.
    """
    a_val, a_exact = a
    b_val, b_exact = b
    coupling = VertexCoupling(alpha)
    theta = ratio_divide(a_exact, b_exact)
    ratio_class = classify_ratio(theta)
    gamma = None
    if ratio_class.kind is RatioClassKind.BADLY_APPROXIMABLE:
        gamma = approx_constant(theta)
    thresholds = thresholds_bc(a_val, b_val, ratio_class, gamma_estimate=gamma)
    cf = cf_expand(theta, max_depth=24)
    table = convergents(cf, theta, min(10, cf.depth + 1))
    predictions = []
    if centers > 0 and ratio_class.kind in (
        RatioClassKind.BADLY_APPROXIMABLE,
        RatioClassKind.LAST_ADMISSIBLE,
    ) and coupling.alpha != 0:
        predictions = predicted_gap_centers(a_exact, b_exact, coupling.alpha, centers)
    notes = []
    if ratio_class.kind is RatioClassKind.RATIONAL:
        notes.append("rational ratio: infinitely many gaps for any nonzero coupling")
    payload = {
        "schema_version": 1,
        "theta": {"value": a_val / b_val},
        "classification": ratio_class,
        "gamma_estimate": gamma,
        "continued_fraction": cf,
        "convergents": table,
        "predicted_gap_centers": predictions,
        "notes": notes,
    }
    text = json_dumps(payload) + "\n" + threshold_report_to_json(thresholds)
    _write_text(text, output)


@cli.command()
@_A
@_B
@_C
@_ALPHA
@click.option("--n-max", type=int, default=5, show_default=True)
@_OUTPUT
@_CONFIG
def flatbands(a, b, c, alpha, n_max, output):
    """List flat-band wavenumbers with eigenfunction residuals."""
    geom = HexGeometry(a[0], b[0], c[0])
    coupling = VertexCoupling(alpha)
    exacts = [w.fraction if isinstance(w, ExactRatio) else value for value, w in (a, b, c)]
    witness = commensurability_witness(*exacts)
    if witness is None:
        payload = {
            "schema_version": 1,
            "flat_bands": [],
            "message": "edge lengths share no rational unit (incommensurate); "
            "the point spectrum is empty",
        }
        _write_text(json_dumps(payload) + "\n", output)
        return
    rows = [
        {
            "k": k,
            "energy": k * k,
            "residual": verify_flat_band(geom, k, coupling),
            "note": "infinite multiplicity",
        }
        for k in flat_band_energies(witness, n_max)
    ]
    payload = {
        "schema_version": 1,
        "witness": {"d": float(witness.d), "p": witness.p, "q": witness.q, "r": witness.r,
                    "exact": witness.exact},
        "flat_bands": rows,
    }
    _write_text(json_dumps(payload) + "\n", output)


@cli.command()
@click.option("--det-samples", type=click.IntRange(min=1), default=300, show_default=True)
@click.option("--envelope-samples", type=click.IntRange(min=1), default=25, show_default=True)
@click.option("--trigmin-samples", type=click.IntRange(min=1), default=40, show_default=True)
@click.option("--grid-n", type=int, default=1024, show_default=True)
@click.option("--refine-rounds", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=20240901, show_default=True)
@_OUTPUT
@_CONFIG
def verify(det_samples, envelope_samples, trigmin_samples, grid_n, refine_rounds, seed, output):
    """Cross-check the closed forms against the brute-force oracles."""
    rng = random.Random(seed)
    grid = GridSpec(n=grid_n, refine_rounds=refine_rounds)

    samples = []
    for _ in range(det_samples):
        geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        coupling = VertexCoupling(rng.uniform(-5, 5))
        k = rng.uniform(0.1, 30)
        if abs(math.sin(geom.a * k)) < 1e-3:
            continue
        phase = FloquetPhase(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        samples.append((geom, coupling, k, phase))
    a, b, c, alpha, k, t1, t2 = columns = np.array(
        [(g.a, g.b, g.c, cp.alpha, kk, ph.theta1, ph.theta2) for g, cp, kk, ph in samples],
        dtype=float).reshape(-1, 7).T
    det_re, det_im = det_numeric(*_assemble_columns(*columns))
    lk = np.stack((a, b, c)) * k
    closed_re, closed_im = _closed_det(np.sin(lk), np.cos(lk), alpha / k, t1, t2, np.cos, np.sin)
    det_dev = np.hypot(closed_re - det_re, closed_im - det_im) / (1 + np.hypot(closed_re, closed_im))
    max_det_dev = max([0.0, *det_dev.tolist()])

    max_env_dev = 0.0
    for _ in range(envelope_samples):
        while True:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            k = rng.uniform(0.1, 30)
            if min(abs(math.sin(ell * k)) for ell in geom.lengths) >= 0.05:
                break
        env = rhs_envelope(geom, k)
        lo, hi = rhs_extrema_grid(geom, k, grid)
        max_env_dev = max(max_env_dev, abs(lo - env.lower**2), abs(hi - env.upper**2))

    max_trigmin_dev = 0.0
    for _ in range(trigmin_samples):
        mags = [rng.uniform(0.2, 5) for _ in range(3)]
        signs = rng.choice([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
        coefs = [m * s for m, s in zip(mags, signs)]
        closed = trig_polynomial_min(*coefs)
        gridmin = trig_min_grid(*coefs, grid=grid)
        max_trigmin_dev = max(max_trigmin_dev, abs(closed - gridmin))

    checks = [
        ("determinant closed form vs cofactor", max_det_dev, 1e-9),
        ("envelope vs phase-grid extrema", max_env_dev, 1e-3),
        ("trig minimum closed form vs grid", max_trigmin_dev, 1e-6),
    ]
    ok = all(dev <= tol for _, dev, tol in checks)
    payload = {
        "schema_version": 1,
        "passed": ok,
        "checks": [
            {"name": name, "max_deviation": dev, "tolerance": tol, "passed": dev <= tol}
            for name, dev, tol in checks
        ],
    }
    _write_text(json_dumps(payload) + "\n", output)
    if not ok:
        sys.exit(EXIT_VERIFY)


def main():
    cli(prog_name="hexband")


if __name__ == "__main__":
    main()
