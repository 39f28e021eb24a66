import json
import math
import os
import random
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import hexband
from hexband.cli import cli, parse_length
from hexband.numtheory import ExactRatio, NumericRatio, QuadraticSurd
from hexband.report import report_from_json

_HUGE = "1" + "0" * 400 + "1"  # an integer beyond a float's range


@pytest.fixture
def runner():
    return CliRunner()


class TestLengthGrammar:
    def test_float(self):
        exact = parse_length("1.25")
        assert isinstance(exact, NumericRatio)
        assert exact.value() == 1.25

    def test_integer_becomes_exact(self):
        exact = parse_length("2")
        assert isinstance(exact, ExactRatio) and (exact.p, exact.q) == (2, 1)
        assert exact.value() == 2.0

    def test_rational(self):
        exact = parse_length("3/2")
        assert isinstance(exact, ExactRatio) and (exact.p, exact.q) == (3, 2)
        assert exact.value() == 1.5

    def test_surd(self):
        exact = parse_length("(1+sqrt(5))/2")
        assert isinstance(exact, QuadraticSurd)
        assert exact.value() == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_bare_sqrt(self):
        exact = parse_length("sqrt(2)")
        assert isinstance(exact, QuadraticSurd)
        assert exact.value() == pytest.approx(math.sqrt(2))

    def test_negative_surd_branch(self):
        assert parse_length("(-1+sqrt(5))/2").value() == pytest.approx((math.sqrt(5) - 1) / 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_length("0")

    @pytest.mark.parametrize("text, p, q", [("sqrt(4)", 2, 1), ("(2+sqrt(9))/5", 1, 1),
                                            ("(7-sqrt(9))/2", 2, 1), ("(1-sqrt(16))/-6", 1, 2)])
    def test_perfect_square_radicand_is_the_exact_rational(self, text, p, q):
        exact = parse_length(text)
        assert isinstance(exact, ExactRatio) and (exact.p, exact.q) == (p, q)
        assert exact.value() == p / q

    @pytest.mark.parametrize("text", ["(1-sqrt(4))/5", "(1-sqrt(2))/1", "sqrt(0)"])
    def test_rejects_nonpositive_surds(self, text):
        with pytest.raises(ValueError):
            parse_length(text)

    def test_minus_sqrt_takes_the_normal_form(self):
        assert parse_length("(3-sqrt(2))/1") == QuadraticSurd(-3, -1, 2)

    @pytest.mark.parametrize(
        "length",
        [f"sqrt({_HUGE})", f"(1+sqrt({_HUGE}))/2", f"({_HUGE}-sqrt(2))/3", f"{_HUGE}/1"],
        ids=["sqrt", "surd", "surd-numerator", "rational"],
    )
    @pytest.mark.parametrize("command", [["classify", "--b", "1", "--alpha", "3"],
                                         ["bands", "--b", "1", "--c", "1", "--kmax", "2"]],
                             ids=["classify", "bands"])
    def test_a_length_too_large_for_a_float_exits_2(self, runner, command, length):
        result = runner.invoke(cli, command + ["--a", length])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--a': invalid length" in result.stderr
        assert "too large" in result.stderr


class TestBandsCommand:
    def test_kirchhoff_single_band(self, runner):
        result = runner.invoke(
            cli,
            ["bands", "--a", "1", "--b", "1", "--c", "1", "--alpha", "0",
             "--kmax", "31.4", "--samples", "1500"],
        )
        assert result.exit_code == 0
        report = report_from_json(result.output)
        assert report.gaps == []
        assert len(report.bands) == 1

    def test_gaps_near_commensurate_points(self, runner):
        result = runner.invoke(
            cli,
            ["bands", "--a", "1", "--b", "1", "--c", "1", "--alpha", "3",
             "--kmax", "31.4", "--samples", "4000"],
        )
        assert result.exit_code == 0
        report = report_from_json(result.output)
        lefts = [math.sqrt(lo) for lo, _ in report.gaps]
        for m in (1, 2, 3, 4):
            assert any(abs(left - 2 * math.pi * m) < 1e-3 for left in lefts)

    def test_subnormal_window_start_is_quiet(self, runner):
        # tan(k/2) underflows to zero and alpha/k overflows at k = 5e-324:
        # both take their IEEE limits, with no error and no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(cli, ["bands", "--a", "1", "--b", "1", "--c", "1",
                                         "--alpha", "3", "--kmin", "5e-324", "--kmax", "1",
                                         "--samples", "50"])
        assert (result.exit_code, result.stderr, caught) == (0, "", [])
        assert json.loads(result.stdout)["gaps"] == [{"e_lo": 0, "e_hi": 1}]

    def test_invalid_geometry_exits_2(self, runner):
        result = runner.invoke(cli, ["bands", "--a", "0", "--b", "1", "--c", "1", "--kmax", "5"])
        assert result.exit_code == 2

    def test_bad_window_exits_2(self, runner):
        result = runner.invoke(
            cli, ["bands", "--a", "1", "--b", "1", "--c", "1", "--kmin", "5", "--kmax", "1"]
        )
        assert result.exit_code == 2

    def test_csv_format(self, runner):
        result = runner.invoke(
            cli,
            ["bands", "--a", "1", "--b", "1", "--c", "1", "--kmax", "6.0",
             "--samples", "100", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "k,E,absD,lower,upper,decision"
        assert len(lines) == 101

    def test_determinism(self, runner):
        args = ["bands", "--a", "1", "--b", "2", "--c", "3", "--alpha", "1.5",
                "--kmax", "9.1", "--samples", "700"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.output == second.output

    def test_include_negative(self, runner):
        result = runner.invoke(
            cli,
            ["bands", "--a", "1", "--b", "1", "--c", "1", "--alpha", "-6.5",
             "--kmax", "6.0", "--samples", "400", "--include-negative"],
        )
        assert result.exit_code == 0
        positive_line, negative_line = result.output.strip().splitlines()
        negative = report_from_json(negative_line)
        assert negative.branch == "negative"
        assert negative.gap_adjacent_to_zero()

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli,
            ["bands", "--a", "1", "--b", "1", "--c", "1", "--kmax", "5.0",
             "--samples", "100", "--output", str(out)],
        )
        assert result.exit_code == 0
        report = report_from_json(out.read_text())
        assert report.bands

    def test_config_file_with_flag_override(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"kmax": 5.0, "samples": 120, "alpha": 0.0}))
        base = runner.invoke(
            cli, ["bands", "--a", "1", "--b", "1", "--c", "1", "--config", str(config)]
        )
        assert base.exit_code == 0
        assert report_from_json(base.output).window[1] == pytest.approx(25.0)
        overridden = runner.invoke(
            cli,
            ["bands", "--a", "1", "--b", "1", "--c", "1", "--config", str(config),
             "--kmax", "4.0"],
        )
        assert report_from_json(overridden.output).window[1] == pytest.approx(16.0)

    def test_config_supplies_required_options(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"a": "1", "b": 1, "c": "1", "alpha": -6.5, "kmax": 6.0,
                                      "samples": 400, "include-negative": True}))
        base = runner.invoke(cli, ["bands", "--config", str(config)])
        assert base.exit_code == 0
        branches = [report_from_json(line).branch for line in base.output.strip().splitlines()]
        assert branches == ["positive", "negative"]
        overridden = runner.invoke(cli, ["bands", "--config", str(config), "--c", "2"])
        explicit = runner.invoke(
            cli,
            ["bands", "--a", "1", "--b", "1", "--c", "2", "--alpha", "-6.5", "--kmax", "6.0",
             "--samples", "400", "--include-negative"],
        )
        assert overridden.exit_code == explicit.exit_code == 0
        assert overridden.output == explicit.output != base.output

    def test_unknown_config_key_exits_2(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no-such-flag": 1}))
        result = runner.invoke(
            cli, ["bands", "--a", "1", "--b", "1", "--c", "1", "--kmax", "5",
                  "--config", str(config)]
        )
        assert result.exit_code == 2


class TestGapsCommand:
    def test_equilateral_attribution_is_gc1(self, runner):
        result = runner.invoke(
            cli,
            ["gaps", "--a", "1", "--b", "1", "--c", "1", "--alpha", "3",
             "--kmax", "13.0", "--samples", "3000"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["gaps"]
        assert rows
        for row in rows:
            assert "GC1" in row["attribution"]
            assert "GC2" not in row["attribution"]

    def test_kirchhoff_no_gc2_entries(self, runner):
        result = runner.invoke(
            cli,
            ["gaps", "--a", "1", "--b", "2", "--c", "3", "--alpha", "0",
             "--kmax", "10.0", "--samples", "2000"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["gaps"]
        for row in rows:
            assert "GC2" not in row["attribution"]

    def test_stretched_lattice_gc2_gap(self, runner):
        result = runner.invoke(
            cli,
            ["gaps", "--a", "2", "--b", "1", "--c", "1", "--alpha", "4",
             "--kmin", "1.2", "--kmax", "1.9", "--samples", "1200"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["gaps"]
        assert any("GC2" in row["attribution"] for row in rows)

    def test_csv_format(self, runner):
        result = runner.invoke(
            cli,
            ["gaps", "--a", "1", "--b", "1", "--c", "1", "--alpha", "3",
             "--kmax", "8.0", "--samples", "1200", "--format", "csv"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "e_lo,e_hi,k_lo,k_hi,width_e,attribution"

    def test_predicted_center_annotation(self, runner):
        result = runner.invoke(
            cli,
            ["gaps", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1", "--alpha", "6",
             "--kmin", "5.9", "--kmax", "6.9", "--samples", "1500", "--centers", "2"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["gaps"]
        annotated = [c for row in rows for c in row["predicted_centers"]]
        assert any(c["family"] == "b" and c["q"] == 2 for c in annotated)

    def test_centers_require_equal_bc(self, runner):
        result = runner.invoke(
            cli,
            ["gaps", "--a", "1", "--b", "1", "--c", "2", "--alpha", "6",
             "--kmax", "7.0", "--samples", "500", "--centers", "2"],
        )
        assert result.exit_code == 2

    def test_centers_are_checked_before_the_scan(self, runner, monkeypatch):
        import hexband.cli

        def scan_spectrum(*args, **kwargs):
            raise AssertionError("scanned before rejecting --centers")

        monkeypatch.setattr(hexband.cli, "scan_spectrum", scan_spectrum)
        result = runner.invoke(
            cli,
            ["gaps", "--a", "1", "--b", "1", "--c", "2", "--alpha", "6", "--kmax", "7.0",
             "--centers", "2"],
        )
        assert result.exit_code == 2
        assert "--centers needs b = c geometry" in result.output


class TestClassifyCommand:
    def test_golden_ratio_pipeline(self, runner):
        result = runner.invoke(
            cli, ["classify", "--a", "(1+sqrt(5))/2", "--b", "1", "--alpha", "6"]
        )
        assert result.exit_code == 0
        class_line, threshold_line = result.output.strip().splitlines()
        data = json.loads(class_line)
        assert data["classification"]["kind"] == "badly_approximable"
        assert data["gamma_estimate"] == pytest.approx(1 / math.sqrt(5), rel=0.05)
        thresholds = json.loads(threshold_line)
        assert thresholds["gc1_guarantee"] == pytest.approx(5.6199, abs=1e-3)
        assert thresholds["gc1_nogap_bound"] == pytest.approx(2.207, abs=5e-3)
        assert data["predicted_gap_centers"]

    def test_rational_ratio_note(self, runner):
        result = runner.invoke(cli, ["classify", "--a", "3", "--b", "2"])
        assert result.exit_code == 0
        class_line, threshold_line = result.output.strip().splitlines()
        data = json.loads(class_line)
        assert data["classification"]["kind"] == "rational"
        assert any("infinitely many gaps" in note for note in data["notes"])
        assert json.loads(threshold_line)["ratio_class"] == "rational"

    def test_numeric_ratio_is_heuristic(self, runner):
        result = runner.invoke(cli, ["classify", "--a", "1.7182818284", "--b", "1"])
        assert result.exit_code == 0
        data = json.loads(result.output.strip().splitlines()[0])
        assert data["classification"]["kind"] == "unknown_numeric"
        assert data["classification"]["certified"] is False

    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "--a", "sqrt(3)", "--b", "1", "--centers", "5"],
            ["classify", "--a", "(1+sqrt(7))/3", "--b", "1", "--centers", "5"],
            ["gaps", "--a", "sqrt(3)", "--b", "1", "--c", "1", "--kmax", "20",
             "--samples", "1000", "--centers", "5"],
            # one centre from family b, none from family a below q = 1e18
            ["classify", "--a", "(1+sqrt(7))/3", "--b", "1", "--centers", "1"],
        ],
    )
    def test_no_sign_matching_convergents_is_numeric_failure(self, runner, args):
        # neither ratio has enough positive-side convergents of quality below
        # 1/2 with q < 1e18, so the centre search gives up cleanly
        result = runner.invoke(cli, args + ["--alpha", "6"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith("numeric failure:")
        assert "sign-matching convergents" in result.stderr


class TestExactRatioFaults:
    """classify on exact ratios whose convergents outgrow a fixed-precision
    value of theta, whose surd is written in another form, or whose two
    radicands differ by a square factor."""

    def test_deep_convergent_qualities_are_correctly_rounded(self, runner):
        # 2*sqrt(2)/3 = [0; 1, 16, 2, 16, 2, ...]: q passes 1e21 inside 30 convergents
        result = runner.invoke(cli, ["classify", "--a", "sqrt(2)", "--b", "3/2"])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output.splitlines()[0])
        with mp.workdps(80):
            theta = 2 * mp.sqrt(2) / 3
            qualities = [float(q * q * abs(theta - mp.mpf(p) / q))
                         for p, q in _mp_convergents(theta, 30)]
        assert data["classification"]["gamma_lower"] == min(qualities[15:]) == 0.05892556509887896
        assert data["gamma_estimate"] == min(qualities[10:20])

    def test_two_forms_of_one_surd_print_the_same_bytes(self, runner):
        outputs = [runner.invoke(cli, ["classify", "--a", a, "--b", "7", "--alpha", "6"])
                   for a in ("(1+sqrt(5))/2", "(3+sqrt(45))/6")]
        assert [out.exit_code for out in outputs] == [0, 0]
        assert outputs[0].output == outputs[1].output

    def test_radicands_a_square_factor_apart_divide_exactly(self, runner):
        result = runner.invoke(cli, ["classify", "--a", "sqrt(8)", "--b", "sqrt(2)"])
        assert result.exit_code == 0, result.output
        classification = json.loads(result.output.splitlines()[0])["classification"]
        assert classification["kind"] == "rational"
        assert classification["rational_pq"] == [2, 1]

    def test_centers_on_a_rational_surd_ratio_are_usage_errors(self, runner):
        result = runner.invoke(cli, ["gaps", "--a", "sqrt(8)", "--b", "sqrt(2)", "--c", "sqrt(2)",
                                     "--alpha", "6", "--kmax", "10", "--centers", "2"])
        assert result.exit_code == 2, result.output
        assert "a/b is rational" in result.stderr


def _mp_convergents(theta, n):
    p_prev, p, q_prev, q = 0, 1, 1, 0
    for _ in range(n):
        a = int(mp.floor(theta))
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield p, q
        theta = 1 / (theta - a)


class TestFlatbandsCommand:
    def test_commensurate_values_and_residuals(self, runner):
        result = runner.invoke(
            cli, ["flatbands", "--a", "1", "--b", "2", "--c", "3", "--n-max", "2"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        ks = [row["k"] for row in data["flat_bands"]]
        assert ks == pytest.approx([2 * math.pi, 4 * math.pi])
        assert all(row["residual"] <= 1e-12 for row in data["flat_bands"])

    def test_incommensurate_is_empty_with_message(self, runner):
        result = runner.invoke(
            cli, ["flatbands", "--a", "1", "--b", "sqrt(2)", "--c", "1"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["flat_bands"] == []
        assert "incommensurate" in data["message"]

    def test_a_tiny_float_length_has_no_zero_multiple(self, runner):
        result = runner.invoke(cli, ["flatbands", "--a", "1", "--b", "1e-300", "--c", "1"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert "witness" not in data and data["flat_bands"] == []
        result = runner.invoke(cli, ["bands", "--a", "1", "--b", "1e-300", "--c", "1",
                                     "--kmax", "10"])
        assert result.exit_code == 0
        assert json.loads(result.output)["flat_bands"] == []

    def test_half_unit_witness(self, runner):
        result = runner.invoke(
            cli, ["flatbands", "--a", "1/2", "--b", "3/2", "--c", "1", "--n-max", "1"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert [row["k"] for row in data["flat_bands"]] == pytest.approx([4 * math.pi])
        assert data["witness"]["exact"] is True


def _cap_address_space():
    # 1 GiB: a CLI run needs under a quarter of it, and a refusal that came after
    # the allocation would fail on this cap, not on the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_capped(*argv):
    src = str(Path(hexband.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")]))})


class TestBudgets:
    @pytest.mark.parametrize("args", [
        ["bands", "--a", "1e15", "--b", "1e15", "--c", "1", "--kmax", "10"],
        ["gaps", "--a", "1e15", "--b", "1", "--c", "1", "--kmax", "10"],
        ["flatbands", "--a", "1", "--b", "1", "--c", "1", "--n-max", "100000000"],
        # k*l/pi past a float's range: a count that no float holds
        ["bands", "--a", "1e300", "--b", "1", "--c", "1", "--kmax", "1e10"],
        ["gaps", "--a", "1e300", "--b", "1", "--c", "1", "--kmax", "1e10"],
        # a CSV table past its row budget
        ["bands", "--a", "1", "--b", "1", "--c", "1", "--kmax", "10", "--format", "csv",
         "--samples", "1000000000"],
        # a phase grid past its budget, and zoom rounds past theirs
        ["verify", "--grid-n", "100000", "--det-samples", "1", "--envelope-samples", "1",
         "--trigmin-samples", "1"],
        ["verify", "--grid-n", "64", "--refine-rounds", "100000000"],
    ], ids=["bands", "gaps", "flatbands", "bands-overflow", "gaps-overflow", "bands-csv-samples",
            "verify-grid", "verify-rounds"])
    def test_over_the_budget_exits_2_before_allocating(self, args):
        result = _run_capped("-m", "hexband.cli", *args)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "over the budget" in result.stderr

    def test_a_lattice_unit_past_a_float_is_refused_by_name(self):
        # 2*pi*n/d overflows for d = 5e-324, and d = a/p with p = 10**400
        # underflows to 0.0: flatbands refuses both before the division, naming d
        for lengths in (["5e-324"] * 3, [f"{10**400}/{10**400 + 1}", "1", "1"]):
            result = _run_capped("-m", "hexband.cli", "flatbands",
                                 *(w for name, x in zip("abc", lengths) for w in (f"--{name}", x)))
            assert result.returncode == 2, result.stderr
            assert "Traceback" not in result.stderr
            assert "lattice unit d = " in result.stderr
        # a scan's window holds no flat band of the first lattice, and is not refused
        result = _run_capped("-m", "hexband.cli", "bands", "--a", "5e-324", "--b", "5e-324",
                             "--c", "5e-324", "--kmax", "10")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["flat_bands"] == []

    def test_hostile_commands_exit_0_2_3_or_4(self):
        # 1000 derandomized draws of lengths, couplings, windows and counts, run
        # in one process under the cap
        result = _run_capped(str(Path(__file__).with_name("cli_grammar.py")), "1000")
        assert result.returncode == 0, result.stdout + result.stderr


class TestVerifyCommand:
    def test_default_suite_passes(self, runner):
        result = runner.invoke(
            cli,
            ["verify", "--det-samples", "120", "--envelope-samples", "5",
             "--trigmin-samples", "8"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True
        det_check = data["checks"][0]
        assert det_check["max_deviation"] < 1e-9

    def test_corrupted_tolerances_fail_with_exit_4(self, runner, monkeypatch):
        # a cofactor oracle that disagrees with the closed form fails the suite
        monkeypatch.setattr("hexband.oracle.det_numeric",
                            lambda re, im: (np.full(re.shape[-1], 1e6), np.zeros(re.shape[-1])))
        result = runner.invoke(
            cli,
            ["verify", "--det-samples", "20", "--envelope-samples", "2",
             "--trigmin-samples", "2", "--grid-n", "64"],
        )
        assert result.exit_code == 4
        data = json.loads(result.output)
        assert data["passed"] is False
        assert [check["passed"] for check in data["checks"]] == [False, True, True]

    def test_no_determinant_samples_deviate_by_zero(self, runner):
        # seed 652 draws a sample with |sin(a k)| < 1e-3 first, which verify skips
        rng = random.Random(652)
        a, _, _, _ = rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(-5, 5)
        assert abs(math.sin(a * rng.uniform(0.1, 30))) < 1e-3
        result = runner.invoke(
            cli,
            ["verify", "--seed", "652", "--det-samples", "1", "--envelope-samples", "1",
             "--trigmin-samples", "1", "--grid-n", "64"],
        )
        assert result.exit_code == 0
        det_check = json.loads(result.output)["checks"][0]
        assert det_check["max_deviation"] == 0.0 and det_check["passed"] is True

    def test_trig_minimum_in_a_long_valley_passes(self, runner):
        # coefficients (-0.4692, -0.5104, 4.8077), 1.0085 times the triangle
        # boundary: the minimum lies about 4 cells from the best grid cells,
        # past the reach of a zoom that shrinks every round (it read 1.34e-6)
        result = runner.invoke(
            cli,
            ["verify", "--seed", "348065467", "--det-samples", "100", "--envelope-samples", "3",
             "--trigmin-samples", "3", "--grid-n", "768", "--refine-rounds", "2"],
        )
        assert result.exit_code == 0
        trig_check = json.loads(result.output)["checks"][2]
        assert trig_check["name"] == "trig minimum closed form vs grid"
        assert trig_check["max_deviation"] < 1e-8


EQUILATERAL = ["--a", "1", "--b", "1", "--c", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["gaps", *EQUILATERAL, "--kmax", "5", "--samples", "1"],
        ["gaps", *EQUILATERAL, "--kmax", "5", "--edge-tol", "0"],
        ["bands", *EQUILATERAL, "--kmax", "5", "--dirichlet-tol", "0"],
        # neither value reaches a library call on these paths
        ["bands", *EQUILATERAL, "--kmax", "5", "--samples", "1"],
        ["bands", *EQUILATERAL, "--kmax", "5", "--edge-tol", "0", "--format", "csv"],
        ["bands", *EQUILATERAL, "--kmax", "5", "--edge-tol", "nan", "--format", "csv"],
        ["bands", *EQUILATERAL, "--kmax", "5", "--alpha", "-3", "--include-negative",
         "--kappa-max", "-1"],
        ["classify", "--a", "sqrt(2)", "--b", "1", "--alpha", "nan"],
        ["verify", "--grid-n", "4"],
        ["flatbands", "--a", "1", "--b", "2", "--c", "3", "--n-max", "0"],
        ["gaps", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1", "--alpha", "6",
         "--kmax", "10", "--samples", "500", "--centers", "-2"],
        ["classify", "--a", "(1+sqrt(5))/2", "--b", "1", "--alpha", "6", "--centers", "-1"],
        ["verify", "--det-samples", "0", "--envelope-samples", "0", "--trigmin-samples", "0"],
        ["verify", "--det-samples", "-3"],
        ["verify", "--envelope-samples", "-1"],
        ["verify", "--trigmin-samples", "0"],
    ],
    ids=["gaps-samples", "gaps-edge-tol", "bands-dirichlet-tol", "bands-json-samples",
         "bands-csv-edge-tol", "bands-csv-edge-tol-nan", "bands-kappa-max",
         "classify-alpha", "verify-grid-n", "flatbands-n-max", "gaps-centers",
         "classify-centers", "verify-samples-zero", "verify-det-samples",
         "verify-envelope-samples", "verify-trigmin-samples"],
)
def test_value_only_the_library_checks_is_usage_error(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert "Error:" in result.stderr
    assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize(
    "args",
    [
        ["bands", "--a", "1", "--b", "(1+sqrt(5))/2", "--c", "1.3", "--alpha", "-3",
         "--kmax", "20", "--samples", "300", "--include-negative"],
        ["bands", "--a", "1", "--b", "(1+sqrt(5))/2", "--c", "1.3", "--alpha", "-3",
         "--kmax", "20", "--samples", "300", "--include-negative", "--format", "csv"],
        ["gaps", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1", "--alpha", "6",
         "--kmax", "30", "--samples", "500", "--centers", "2"],
        ["gaps", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1", "--alpha", "6",
         "--kmax", "30", "--samples", "500", "--format", "csv"],
        ["classify", "--a", "(1+sqrt(5))/2", "--b", "1", "--alpha", "6"],
        ["flatbands", "--a", "1/2", "--b", "3/2", "--c", "1"],
        ["verify", "--det-samples", "20", "--envelope-samples", "2", "--trigmin-samples", "2",
         "--grid-n", "128"],
    ],
    ids=["bands-json", "bands-csv", "gaps-json", "gaps-csv", "classify", "flatbands", "verify"],
)
def test_output_file_holds_the_bytes_of_stdout(runner, tmp_path, args):
    shown = runner.invoke(cli, args)
    out = tmp_path / "out"
    written = runner.invoke(cli, args + ["--output", str(out)])
    assert (written.exit_code, written.stdout) == (shown.exit_code, "")
    assert shown.stdout_bytes and out.read_bytes() == shown.stdout_bytes


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(["1", "1/2", "3/2", "(1+sqrt(5))/2", "sqrt(2)", "0.8", "2.3"]),
                min_size=3, max_size=3),
       st.floats(-50.0, 50.0), st.floats(0.01, 40.0), st.floats(0.05, 40.0),
       st.sampled_from(["bands", "gaps"]))
def test_json_reports_do_not_depend_on_the_samples(lengths, alpha, kmin, width, command):
    # the reports are a function of geometry, alpha, window and edge tolerance
    # alone; bands --include-negative is left out, since its window starts at
    # kappa-max / samples
    args = [command, "--a", lengths[0], "--b", lengths[1], "--c", lengths[2],
            "--alpha", repr(alpha), "--kmin", repr(kmin), "--kmax", repr(kmin + width)]
    outputs = [CliRunner().invoke(cli, args + ["--samples", n]) for n in ("2", "400", "60000")]
    assert outputs[0].exit_code == 0, outputs[0].output
    assert [(r.exit_code, r.stdout) for r in outputs[1:]] == [(0, outputs[0].stdout)] * 2


# Every settable value of every subcommand.  A new option is a new knob to
# document and test; add it here on purpose.
PARAMETERS = {
    "bands": ["a", "b", "c", "alpha", "kmin", "kmax", "samples", "edge_tol", "dirichlet_tol",
              "include_negative", "kappa_max", "fmt", "output", "config"],
    "gaps": ["a", "b", "c", "alpha", "kmin", "kmax", "samples", "edge_tol", "centers", "fmt",
             "output", "config"],
    "classify": ["a", "b", "alpha", "centers", "output", "config"],
    "flatbands": ["a", "b", "c", "alpha", "n_max", "output", "config"],
    "verify": ["det_samples", "envelope_samples", "trigmin_samples", "grid_n", "refine_rounds",
               "seed", "output", "config"],
}


def test_subcommand_parameters_are_pinned():
    assert {name: [p.name for p in command.params] for name, command in cli.commands.items()} \
        == PARAMETERS
    assert sum(len(names) for names in PARAMETERS.values()) == 47

