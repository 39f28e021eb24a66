"""Command-line front end.

Subcommands: ``bands`` (scan a window into bands/gaps), ``gaps`` (gap table
with criterion attribution), ``classify`` (ratio class + coupling
thresholds for b = c), ``flatbands`` (commensurate flat-band list with
verification residuals) and ``verify`` (oracle cross-check suites).

Geometry arguments accept three grammars per argument: a decimal float
(``1.5``), an exact rational (``3/2``), or a quadratic surd
(``(1+sqrt(5))/2``, ``sqrt(2)``).  A JSON config file can mirror any flag;
explicit flags win.  Exit codes: 0 ok, 2 config error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys

import click

from . import __version__
from .bands import (
    flat_band_energies,
    negative_spectrum_scan,
    rhs_envelope,
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
    assemble_m_matrix,
    det_m_closed_form,
)
from .gaps import gc1, gc2, thresholds_bc, threshold_report_to_json
from .numtheory import (
    DEFAULT_DENOMINATOR_CAP,
    DEFAULT_RATIONAL_TOL,
    ExactRatio,
    NumericRatio,
    QuadraticSurd,
    RatioClassKind,
    RatioInput,
    approx_constant,
    cf_expand,
    classify_ratio,
    commensurability_witness,
    convergents,
    predicted_gap_centers,
    ratio_divide,
)
from .oracle import GridSpec, det_numeric, rhs_extrema_grid, trig_min_grid
from .report import json_dumps, report_to_json, write_samples_csv

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
            surd = QuadraticSurd(0, 1, int(m.group(5)))
        else:
            p = int(m.group(1))
            d = int(m.group(3))
            q = int(m.group(4))
            if m.group(2) == "-":
                # (P - sqrt(D))/Q == (-P + sqrt(D))/(-Q)
                p, q = -p, -q
            surd = QuadraticSurd(p, q, d)
        return surd.value(), surd
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
        except (ValueError, ZeroDivisionError) as exc:
            self.fail(f"invalid length {value!r}: {exc}", param, ctx)


LENGTH = LengthParam()


def _apply_config(ctx: click.Context, config_path: str | None) -> None:
    """Fill parameters from a JSON config file; explicit flags override."""
    if not config_path:
        return
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {config_path!r}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object of flag values")
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in ctx.params:
            raise click.UsageError(f"config file sets unknown option {key!r}")
        source = ctx.get_parameter_source(name)
        if source is not None and source.name == "DEFAULT":
            param = next(p for p in ctx.command.params if p.name == name)
            ctx.params[name] = param.type.convert(value, param, ctx)


def _write_text(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _require(params: dict, *names: str) -> None:
    """Enforce required options after the config file has been merged in."""
    for name in names:
        if params.get(name) is None:
            raise click.UsageError(f"missing required option --{name.replace('_', '-')}")


def _geometry(params: dict) -> HexGeometry:
    _require(params, "a", "b", "c")
    try:
        return HexGeometry(params["a"][0], params["b"][0], params["c"][0])
    except ValueError as exc:
        raise click.UsageError(str(exc))


# required-ness is checked after config merge, hence no required=True here
_GEOMETRY_OPTIONS = [
    click.option("--a", "a", type=LENGTH, default=None,
                 help="edge length a (float, p/q or surd)  [required]"),
    click.option("--b", "b", type=LENGTH, default=None, help="edge length b  [required]"),
    click.option("--c", "c", type=LENGTH, default=None, help="edge length c  [required]"),
    click.option("--alpha", type=float, default=0.0, show_default=True, help="vertex coupling"),
]


def geometry_options(fn):
    for opt in reversed(_GEOMETRY_OPTIONS):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="hexband")
def cli():
    """Band/gap structure of the dilated honeycomb quantum graph."""


@cli.command()
@geometry_options
@click.option("--kmin", type=float, default=0.01, show_default=True, help="scan window start (k)")
@click.option("--kmax", type=float, default=None, help="scan window end (k)  [required]")
@click.option("--samples", type=int, default=4000, show_default=True, help="grid samples")
@click.option("--edge-tol", type=float, default=1e-9, show_default=True, help="edge bisection width")
@click.option("--dirichlet-tol", type=float, default=DEFAULT_DIRICHLET_TOL, show_default=True)
@click.option("--include-negative", is_flag=True, help="also scan E < 0 when alpha < 0")
@click.option("--kappa-max", type=float, default=5.0, show_default=True, help="negative-branch window")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--config", type=click.Path(exists=False), default=None, help="JSON config file")
@click.pass_context
def bands(ctx, a, b, c, alpha, kmin, kmax, samples, edge_tol, dirichlet_tol,
          include_negative, kappa_max, fmt, output, config):
    """Scan a k window and report bands, gaps, flat bands, Dirichlet points."""
    _apply_config(ctx, config)
    p = ctx.params
    _require(p, "kmax")
    geom = _geometry(p)
    coupling = VertexCoupling(p["alpha"])
    if not (0 < p["kmin"] < p["kmax"]):
        raise click.UsageError(f"need 0 < kmin < kmax, got kmin={p['kmin']}, kmax={p['kmax']}")
    if p["samples"] < 2:
        raise click.UsageError("--samples must be >= 2")
    if p["edge_tol"] <= 0:
        raise click.UsageError("--edge-tol must be > 0")
    try:
        report = scan_spectrum(
            geom, coupling, p["kmin"], p["kmax"], p["samples"], p["edge_tol"],
            dirichlet_tol=p["dirichlet_tol"],
        )
        if p["include_negative"] and coupling.alpha < 0:
            negative = negative_spectrum_scan(
                geom, coupling, p["kappa_max"], p["samples"], p["edge_tol"]
            )
        else:
            negative = None
    except (DirichletPointError, ArithmeticError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    if p["fmt"] == "csv":
        import io

        buffer = io.StringIO()
        write_samples_csv(report, buffer)
        if negative is not None:
            write_samples_csv(negative, buffer)
        _write_text(buffer.getvalue(), p["output"])
    else:
        text = report_to_json(report)
        if negative is not None:
            text += report_to_json(negative)
        _write_text(text, p["output"])


@cli.command()
@geometry_options
@click.option("--kmin", type=float, default=0.01, show_default=True)
@click.option("--kmax", type=float, default=None, help="scan window end (k)  [required]")
@click.option("--samples", type=int, default=4000, show_default=True)
@click.option("--edge-tol", type=float, default=1e-9, show_default=True)
@click.option("--centers", type=int, default=0,
              help="annotate gaps with this many predicted centers per family (b = c only)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--config", type=click.Path(exists=False), default=None)
@click.pass_context
def gaps(ctx, a, b, c, alpha, kmin, kmax, samples, edge_tol, centers, fmt, output, config):
    """Tabulate gaps with per-gap criterion attribution at the midpoint."""
    _apply_config(ctx, config)
    p = ctx.params
    _require(p, "kmax")
    geom = _geometry(p)
    coupling = VertexCoupling(p["alpha"])
    if not (0 < p["kmin"] < p["kmax"]):
        raise click.UsageError("need 0 < kmin < kmax")
    try:
        report = scan_spectrum(
            geom, coupling, p["kmin"], p["kmax"], p["samples"], p["edge_tol"]
        )
        rows = []
        for e_lo, e_hi in report.gaps:
            k_mid = (math.sqrt(e_lo) + math.sqrt(e_hi)) / 2
            attribution = []
            try:
                if gc1(geom, coupling, k_mid):
                    attribution.append("GC1")
                if gc2(geom, coupling, k_mid):
                    attribution.append("GC2")
            except DirichletPointError:
                attribution.append("midpoint-at-dirichlet")
            rows.append(
                {
                    "e_lo": e_lo,
                    "e_hi": e_hi,
                    "k_lo": math.sqrt(e_lo),
                    "k_hi": math.sqrt(e_hi),
                    "width_e": e_hi - e_lo,
                    "attribution": attribution,
                    "predicted_centers": [],
                }
            )
        if p["centers"] > 0:
            if not math.isclose(geom.b, geom.c, rel_tol=1e-12):
                raise click.UsageError("--centers needs b = c geometry")
            try:
                predictions = predicted_gap_centers(
                    p["a"][1], p["b"][1], coupling.alpha, p["centers"]
                )
            except ValueError as exc:  # rational a/b or alpha = 0; search failures are numeric
                raise click.UsageError(f"cannot predict centers: {exc}")
            for row in rows:
                for center in predictions:
                    if row["k_lo"] - 0.5 <= center.k <= row["k_hi"] + 0.5:
                        row["predicted_centers"].append(
                            {"k": center.k, "family": center.family,
                             "p": center.p, "q": center.q}
                        )
    except (DirichletPointError, ArithmeticError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    if p["fmt"] == "csv":
        lines = ["e_lo,e_hi,k_lo,k_hi,width_e,attribution"]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        format(row["e_lo"], ".17g"),
                        format(row["e_hi"], ".17g"),
                        format(row["k_lo"], ".17g"),
                        format(row["k_hi"], ".17g"),
                        format(row["width_e"], ".17g"),
                        "+".join(row["attribution"]),
                    ]
                )
            )
        _write_text("\n".join(lines) + "\n", p["output"])
    else:
        payload = {"schema_version": 1, "gaps": rows}
        _write_text(json_dumps(payload) + "\n", p["output"])


@cli.command()
@click.option("--a", "a", type=LENGTH, default=None)
@click.option("--b", "b", type=LENGTH, default=None)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--depth", type=int, default=30, show_default=True, help="CF depth examined")
@click.option("--gamma-depth", type=int, default=20, show_default=True)
@click.option("--centers", type=int, default=3, show_default=True,
              help="predicted gap centers per family (0 disables)")
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--config", type=click.Path(exists=False), default=None)
@click.pass_context
def classify(ctx, a, b, alpha, depth, gamma_depth, centers, output, config):
    """Classify the ratio a/b and report the b = c coupling thresholds."""
    _apply_config(ctx, config)
    p = ctx.params
    _require(p, "a", "b")
    a_val, a_exact = p["a"]
    b_val, b_exact = p["b"]
    try:
        theta = ratio_divide(a_exact, b_exact)
        ratio_class = classify_ratio(theta, depth=p["depth"])
        gamma = None
        if ratio_class.kind is RatioClassKind.BADLY_APPROXIMABLE:
            gamma = approx_constant(theta, depth=p["gamma_depth"])
        thresholds = thresholds_bc(a_val, b_val, ratio_class, gamma_estimate=gamma)
        cf = cf_expand(theta, max_depth=min(p["depth"], 24))
        table = convergents(cf, theta, min(10, cf.depth + 1))
        prediction_rows = []
        if p["centers"] > 0 and ratio_class.kind in (
            RatioClassKind.BADLY_APPROXIMABLE,
            RatioClassKind.LAST_ADMISSIBLE,
        ) and p["alpha"] != 0:
            for center in predicted_gap_centers(a_exact, b_exact, p["alpha"], p["centers"]):
                prediction_rows.append(
                    {"k": center.k, "family": center.family, "p": center.p, "q": center.q}
                )
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    notes = []
    if ratio_class.kind is RatioClassKind.RATIONAL:
        notes.append("rational ratio: infinitely many gaps for any nonzero coupling")
    payload = {
        "schema_version": 1,
        "theta": {"value": a_val / b_val},
        "classification": ratio_class.to_dict(),
        "gamma_estimate": gamma,
        "continued_fraction": cf.to_dict(),
        "convergents": [conv.to_dict() for conv in table],
        "predicted_gap_centers": prediction_rows,
        "notes": notes,
    }
    text = json_dumps(payload) + "\n" + threshold_report_to_json(thresholds)
    _write_text(text, p["output"])


@cli.command()
@click.option("--a", "a", type=LENGTH, default=None)
@click.option("--b", "b", type=LENGTH, default=None)
@click.option("--c", "c", type=LENGTH, default=None)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--n-max", type=int, default=5, show_default=True)
@click.option("--tol", type=float, default=DEFAULT_RATIONAL_TOL, show_default=True,
              help="rational reconstruction tolerance for float lengths")
@click.option("--denominator-cap", type=int, default=DEFAULT_DENOMINATOR_CAP, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--config", type=click.Path(exists=False), default=None)
@click.pass_context
def flatbands(ctx, a, b, c, alpha, n_max, tol, denominator_cap, output, config):
    """List flat-band wavenumbers with eigenfunction residuals."""
    _apply_config(ctx, config)
    p = ctx.params
    geom = _geometry(p)
    coupling = VertexCoupling(p["alpha"])
    exacts = []
    for value, witness in (p["a"], p["b"], p["c"]):
        exacts.append(witness.fraction if isinstance(witness, ExactRatio) else value)
    witness = commensurability_witness(
        exacts[0], exacts[1], exacts[2], tol=p["tol"], max_denominator=p["denominator_cap"]
    )
    if witness is None:
        payload = {
            "schema_version": 1,
            "flat_bands": [],
            "message": "edge lengths share no rational unit (incommensurate); "
            "the point spectrum is empty",
        }
        _write_text(json_dumps(payload) + "\n", p["output"])
        return
    try:
        ks = flat_band_energies(witness, p["n_max"])
        rows = [
            {
                "k": k,
                "energy": k * k,
                "residual": verify_flat_band(geom, k, coupling),
                "note": "infinite multiplicity",
            }
            for k in ks
        ]
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    payload = {
        "schema_version": 1,
        "witness": {"d": float(witness.d), "p": witness.p, "q": witness.q, "r": witness.r,
                    "exact": witness.exact},
        "flat_bands": rows,
    }
    _write_text(json_dumps(payload) + "\n", p["output"])


@cli.command()
@click.option("--det-samples", type=int, default=300, show_default=True)
@click.option("--envelope-samples", type=int, default=25, show_default=True)
@click.option("--trigmin-samples", type=int, default=40, show_default=True)
@click.option("--grid-n", type=int, default=1024, show_default=True)
@click.option("--refine-rounds", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=20240901, show_default=True)
@click.option("--det-tol", type=float, default=1e-9, show_default=True)
@click.option("--envelope-tol", type=float, default=1e-3, show_default=True)
@click.option("--trigmin-tol", type=float, default=1e-6, show_default=True)
@click.option("--corrupt-tolerances", is_flag=True, hidden=True,
              help="self-test: force tolerances to zero so the run must fail")
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--config", type=click.Path(exists=False), default=None)
@click.pass_context
def verify(ctx, det_samples, envelope_samples, trigmin_samples, grid_n, refine_rounds,
           seed, det_tol, envelope_tol, trigmin_tol, corrupt_tolerances, output, config):
    """Cross-check the closed forms against the brute-force oracles."""
    _apply_config(ctx, config)
    p = ctx.params
    det_tol = 0.0 if p["corrupt_tolerances"] else p["det_tol"]
    envelope_tol = 0.0 if p["corrupt_tolerances"] else p["envelope_tol"]
    trigmin_tol = 0.0 if p["corrupt_tolerances"] else p["trigmin_tol"]
    rng = random.Random(p["seed"])
    grid = GridSpec(n=p["grid_n"], refine_rounds=p["refine_rounds"])

    max_det_dev = 0.0
    for _ in range(p["det_samples"]):
        geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        coupling = VertexCoupling(rng.uniform(-5, 5))
        k = rng.uniform(0.1, 30)
        if abs(math.sin(geom.a * k)) < 1e-3:
            continue
        phase = FloquetPhase(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        closed = det_m_closed_form(geom, coupling, k, phase)
        direct = det_numeric(assemble_m_matrix(geom, coupling, k, phase))
        max_det_dev = max(max_det_dev, abs(closed - direct) / (1 + abs(closed)))

    max_env_dev = 0.0
    for _ in range(p["envelope_samples"]):
        while True:
            geom = HexGeometry(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            k = rng.uniform(0.1, 30)
            if min(abs(math.sin(ell * k)) for ell in geom.lengths) >= 0.05:
                break
        env = rhs_envelope(geom, k)
        lo, hi = rhs_extrema_grid(geom, k, grid)
        max_env_dev = max(max_env_dev, abs(lo - env.lower**2), abs(hi - env.upper**2))

    max_trigmin_dev = 0.0
    for _ in range(p["trigmin_samples"]):
        mags = [rng.uniform(0.2, 5) for _ in range(3)]
        signs = rng.choice([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
        coefs = [m * s for m, s in zip(mags, signs)]
        closed = trig_polynomial_min(*coefs)
        gridmin = trig_min_grid(*coefs, grid=grid)
        max_trigmin_dev = max(max_trigmin_dev, abs(closed - gridmin))

    checks = [
        ("determinant closed form vs cofactor", max_det_dev, det_tol),
        ("envelope vs phase-grid extrema", max_env_dev, envelope_tol),
        ("trig minimum closed form vs grid", max_trigmin_dev, trigmin_tol),
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
    _write_text(json_dumps(payload) + "\n", p["output"])
    if not ok:
        sys.exit(EXIT_VERIFY)


def main():
    cli(prog_name="hexband")


if __name__ == "__main__":
    main()
