import json
import math

import pytest
from click.testing import CliRunner

from hexband.cli import cli, parse_length
from hexband.numtheory import ExactRatio, NumericRatio, QuadraticSurd
from hexband.report import report_from_json


@pytest.fixture
def runner():
    return CliRunner()


class TestLengthGrammar:
    def test_float(self):
        value, exact = parse_length("1.25")
        assert value == 1.25
        assert isinstance(exact, NumericRatio)

    def test_integer_becomes_exact(self):
        value, exact = parse_length("2")
        assert value == 2.0
        assert isinstance(exact, ExactRatio) and (exact.p, exact.q) == (2, 1)

    def test_rational(self):
        value, exact = parse_length("3/2")
        assert value == 1.5
        assert isinstance(exact, ExactRatio) and (exact.p, exact.q) == (3, 2)

    def test_surd(self):
        value, exact = parse_length("(1+sqrt(5))/2")
        assert value == pytest.approx((1 + math.sqrt(5)) / 2)
        assert isinstance(exact, QuadraticSurd)

    def test_bare_sqrt(self):
        value, exact = parse_length("sqrt(2)")
        assert value == pytest.approx(math.sqrt(2))
        assert isinstance(exact, QuadraticSurd)

    def test_negative_surd_branch(self):
        value, exact = parse_length("(-1+sqrt(5))/2")
        assert value == pytest.approx((math.sqrt(5) - 1) / 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_length("0")


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
            ["classify", "--a", "sqrt(3)", "--b", "1"],
            ["classify", "--a", "(1+sqrt(7))/3", "--b", "1"],
            ["gaps", "--a", "sqrt(3)", "--b", "1", "--c", "1", "--kmax", "20",
             "--samples", "1000"],
        ],
    )
    def test_no_sign_matching_convergents_is_numeric_failure(self, runner, args):
        # neither ratio has a positive-side convergent of quality below 1/2
        # within the resolved depth, so the centre search gives up cleanly
        result = runner.invoke(cli, args + ["--alpha", "6", "--centers", "5"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith("numeric failure:")
        assert "sign-matching convergents" in result.stderr


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

    def test_half_unit_witness(self, runner):
        result = runner.invoke(
            cli, ["flatbands", "--a", "1/2", "--b", "3/2", "--c", "1", "--n-max", "1"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert [row["k"] for row in data["flat_bands"]] == pytest.approx([4 * math.pi])
        assert data["witness"]["exact"] is True


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

    def test_corrupted_tolerances_fail_with_exit_4(self, runner):
        result = runner.invoke(
            cli,
            ["verify", "--det-samples", "20", "--envelope-samples", "2",
             "--trigmin-samples", "2", "--corrupt-tolerances"],
        )
        assert result.exit_code == 4


EQUILATERAL = ["--a", "1", "--b", "1", "--c", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["gaps", *EQUILATERAL, "--kmax", "5", "--samples", "1"],
        ["gaps", *EQUILATERAL, "--kmax", "5", "--edge-tol", "0"],
        ["bands", *EQUILATERAL, "--kmax", "5", "--dirichlet-tol", "0"],
        ["bands", *EQUILATERAL, "--kmax", "5", "--alpha", "-3", "--include-negative",
         "--kappa-max", "-1"],
        ["classify", "--a", "sqrt(2)", "--b", "1", "--alpha", "nan"],
        ["verify", "--grid-n", "4"],
        ["flatbands", "--a", "1", "--b", "2", "--c", "3", "--n-max", "0"],
        ["flatbands", "--a", "1.25", "--b", "1", "--c", "1", "--tol", "-1"],
        ["flatbands", "--a", "1.25", "--b", "1", "--c", "1", "--denominator-cap", "0"],
    ],
    ids=["gaps-samples", "gaps-edge-tol", "bands-dirichlet-tol", "bands-kappa-max",
         "classify-alpha", "verify-grid-n", "flatbands-n-max", "flatbands-tol",
         "flatbands-denominator-cap"],
)
def test_value_only_the_library_checks_is_usage_error(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert "Error:" in result.stderr
    assert isinstance(result.exception, SystemExit)  # no traceback
