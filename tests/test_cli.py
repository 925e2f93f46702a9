import json

import pytest

from smoothsmc.cli import main

FAST = ["--horizon", "1.5", "--dt", "0.002"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_preset_run_writes_files(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, [
            "run", "--experiment", "exp1", "--method", "amssosmc",
            "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        cell = tmp_path / "exp1_amssosmc"
        assert (cell / "trajectory.csv").exists()
        assert (cell / "report.json").exists()
        report = json.loads((cell / "report.json").read_text())
        assert report["settling_time"] != "not settled"
        assert report["config"]["sim"]["dt"] == 0.002

    def test_controller_on_observer_experiment_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, [
            "run", "--experiment", "exp3", "--method", "amssosmc",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "usage error" in err

    def test_baseline_reports_exemption(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, [
            "run", "--experiment", "exp1", "--method", "amstsmc-baseline",
            "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        report = json.loads((tmp_path / "exp1_amstsmc-baseline" / "report.json").read_text())
        assert report["certificate"]["gain_condition"]["reason"] == "baseline-exempt"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "experiment": "exp1",
            "method": "amssosmc",
            "gains": {"kappa": 5.0},
            "sim": {"horizon": 1.5, "dt": 0.002},
            "out": str(tmp_path / "from-config"),
        }))
        code, _, _ = run_cli(capsys, [
            "run", "--config", str(config), "--method", "amstsmc-baseline",
        ])
        assert code == 0
        cell = tmp_path / "from-config" / "exp1_amstsmc-baseline"
        report = json.loads((cell / "report.json").read_text())
        assert report["config"]["gains"]["kappa"] == 5.0
        assert report["config"]["gains"]["m"] == 2.0

    def test_custom_run(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, [
            "run", "--experiment", "custom", "--method", "amssosmc",
            "--x1-init", "0.5,0.5,0.5",
            "--disturbance", json.dumps({"kind": "none"}),
            "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        assert (tmp_path / "custom_amssosmc" / "report.json").exists()

    def test_custom_run_requires_scenario(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, [
            "run", "--experiment", "custom", "--method", "amssosmc",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "custom runs need" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_abort_exit_code(self, tmp_path, capsys):
        # an astronomically large constant disturbance overflows within a few
        # steps and must surface as the numeric-abort exit code
        code, _, err = run_cli(capsys, [
            "run", "--experiment", "custom", "--method", "amssosmc",
            "--x1-init", "1,0,0",
            "--disturbance", json.dumps({"kind": "constant", "value": [1e308, 0, 0]}),
            "--out", str(tmp_path), "--horizon", "1.0",
        ])
        assert code == 2
        assert "numerical abort" in err

    def test_report_echoes_resolved_config(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, [
            "run", "--experiment", "exp1", "--method", "amssosmc",
            "--out", str(tmp_path), "--kappa", "8.0", *FAST,
        ])
        assert code == 0
        report = json.loads((tmp_path / "exp1_amssosmc" / "report.json").read_text())
        gains = report["config"]["gains"]
        assert gains == {
            "k1": 2.0, "k2": 2.5, "k3": 4.0, "k4": 30.0, "m": 3.0,
            "kappa": 8.0, "epsilon": 1e-3, "L0_init": 1.0,
            "allow_uncertified": True,
        }
        assert report["config"]["disturbance"]["kind"] == "constant"


class TestCertify:
    def test_reference_gains_pass_all_checks(self, capsys):
        code, out, _ = run_cli(capsys, ["certify", "--m", "3", "--v0", "50", "--delta", "0.3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["gain_condition"] == {
            "holds": True, "reason": "certified", "lhs": 1080.0, "rhs": 962.5}
        assert payload["p1"] == 0.75
        assert all(payload["positive_definite"].values())
        assert "convergence" in payload

    def test_uncertified_distinct_from_error(self, capsys):
        code, out, _ = run_cli(capsys, ["certify", "--m", "3", "--k4", "20"])
        assert code == 0  # uncertified is a result, not a failure
        payload = json.loads(out)
        assert payload["certified"] is False
        assert payload["gain_condition"]["reason"] == "condition-violated"

    def test_baseline_exempt(self, capsys):
        code, out, _ = run_cli(capsys, ["certify", "--m", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["gain_condition"]["reason"] == "baseline-exempt"

    def test_m_at_most_one_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["certify", "--m", "0.5"])
        assert code == 1
        assert "usage error" in err

    def test_bound_evaluation_at_settled_gain_level(self, capsys):
        code, out, _ = run_cli(capsys, [
            "certify", "--m", "3", "--v0", "50", "--delta", "0.3",
            "--l0", "8.0", "--l0-dot", "0.0",
        ])
        assert code == 0
        conv = json.loads(out)["convergence"]
        assert conv["settling_time_bound"] != "infinite"
        assert conv["residual_V_level"] != "none"


class TestCompare:
    def test_controller_pair_table_and_ordering(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, [
            "compare", "--experiment", "exp1",
            "--methods", "amssosmc,amstsmc-baseline",
            "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,scenario,")
        assert len(lines) == 3
        table = (tmp_path / "comparison_exp1.csv").read_text()
        rows = {line.split(",")[0]: line.split(",") for line in table.strip().splitlines()[1:]}
        smooth = float(rows["amssosmc"][4])
        baseline = float(rows["amstsmc-baseline"][4])
        assert smooth < baseline

    def test_identical_cells_fail_the_ordering_gate(self, capsys):
        # forcing both methods to the same m produces identical cells, so the
        # strict ordering cannot hold and the command must exit 3
        code, _, err = run_cli(capsys, [
            "compare", "--experiment", "exp1",
            "--methods", "amssosmc,amstsmc-baseline", "--m", "2.5", *FAST,
        ])
        assert code == 3
        assert "ordering violated" in err

    def test_needs_two_methods(self, capsys):
        code, _, _ = run_cli(capsys, [
            "compare", "--experiment", "exp1", "--methods", "amssosmc",
        ])
        assert code == 1

    def test_invalid_pairing_rejected(self, capsys):
        code, _, _ = run_cli(capsys, [
            "compare", "--experiment", "exp1", "--methods", "amssosmc,amdo-baseline",
        ])
        assert code == 1


class TestSweep:
    def test_m_grid(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--parameter", "m", "--values", "2.5,3",
            "--horizon", "1.5", "--dt", "0.002",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("parameter,value,")
        assert len(lines) == 3
        for line in lines[1:]:
            assert "not settled" not in line

    def test_k4_boundary_flip(self, capsys):
        # the feasibility boundary sits at k4* = 962.5/36 ~ 26.74
        code, out, _ = run_cli(capsys, [
            "sweep", "--parameter", "k4", "--values", "26,28",
            "--horizon", "1.0", "--dt", "0.002",
        ])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        status = {float(row[1]): row[2] for row in rows}
        assert status[26.0] == "false"
        assert status[28.0] == "true"

    def test_epsilon_sweep_final_L0_non_increasing(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--parameter", "epsilon", "--values", "0.001,0.01,0.1",
            "--horizon", "1.5", "--dt", "0.002",
        ])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        final_l0 = [float(row[7]) for row in rows]
        assert final_l0 == sorted(final_l0, reverse=True) or all(
            a >= b for a, b in zip(final_l0, final_l0[1:]))

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["sweep", "--parameter", "m", "--values", ","])
        assert code == 1

    def test_writes_table(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, [
            "sweep", "--parameter", "m", "--values", "3",
            "--horizon", "1.0", "--dt", "0.002", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sweep_m.csv").exists()


class TestBadInputs:
    @pytest.mark.parametrize("case", [
        "malformed-config", "missing-config", "negative-delta",
        "infinite-horizon-run", "infinite-horizon-compare",
    ])
    def test_usage_error_without_traceback(self, tmp_path, capsys, case):
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{not json")
        argv = {
            "malformed-config": ["run", "--config", str(malformed)],
            "missing-config": ["run", "--config", str(tmp_path / "absent.json")],
            "negative-delta": ["certify", "--m", "3", "--v0", "50", "--delta", "-1"],
            "infinite-horizon-run": ["run", "--experiment", "exp1", "--method", "amssosmc",
                                     "--horizon", "inf", "--out", str(tmp_path)],
            "infinite-horizon-compare": ["compare", "--experiment", "exp1",
                                         "--methods", "amssosmc,amstsmc-baseline",
                                         "--horizon", "inf"],
        }[case]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("usage error: ")
        assert "Traceback" not in err
        assert out == ""
