import json
import warnings

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
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

    def test_divergent_grid_exits_2_with_empty_stdout(self, capsys):
        # at dt = 0.01 the exp1 controllers diverge; the abort must be the
        # only outcome, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "sweep", "--parameter", "k4", "--values", "20,30",
                "--dt", "0.01", "--horizon", "20",
            ])
        assert code == 2
        assert out == ""
        assert "numerical abort" in err and "cell 1" in err


class TestReproduce:
    def test_writes_the_tree_of_the_single_cells(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["reproduce", "--out", str(tmp_path), "--horizon", "1.0"])
        assert code == 0
        assert out.strip().endswith(f"outputs under {tmp_path}/")
        assert json.loads((tmp_path / "certificate.json").read_text())["gain_condition"]["holds"]
        for experiment, methods in (("exp1", "amssosmc,amstsmc-baseline"),
                                    ("exp2", "amssosmc,amstsmc-baseline"),
                                    ("exp3", "amsdo,amdo-baseline")):
            for method in methods.split(","):
                alone_dir = tmp_path / "alone"
                assert main(["run", "--experiment", experiment, "--method", method,
                             "--out", str(alone_dir), "--horizon", "1.0"]) == 0
                for name in ("trajectory.csv", "report.json"):
                    cell = f"{experiment}_{method}"
                    assert ((tmp_path / cell / name).read_bytes()
                            == (alone_dir / cell / name).read_bytes()), (cell, name)
            capsys.readouterr()
            assert main(["compare", "--experiment", experiment, "--methods", methods,
                         "--horizon", "1.0"]) == 0
            table = capsys.readouterr().out
            assert (tmp_path / f"comparison_{experiment}.csv").read_text() == table


# ``run --config`` files with a malformed shape or value; flags name the cell.
CONFIGS = {
    "config-string-gain": {"gains": {"k1": "2"}},
    "config-string-dt": {"sim": {"dt": "x"}},
    "config-fractional-log-stride": {"sim": {"horizon": 0.1, "log_stride": 1.5}},
    "config-string-singular-tol": {"sim": {"horizon": 0.1, "singular_tol": "a"}},
    "config-unknown-sim-key": {"sim": {"horizon": 0.1, "foo": 1}},
    "config-unknown-gain-key": {"gains": {"bogus": 1}, "sim": {"horizon": 0.1}},
    "config-gains-not-an-object": {"gains": [1, 2]},
    "config-not-an-object": [1, 2],
    "config-negative-singular-tol": {"sim": {"horizon": 0.1, "singular_tol": -1}},
    "config-boolean-horizon": {"sim": {"horizon": True}},
    "config-dict-x1-init": {"sim": {"horizon": 0.1, "x1_init": {"a": 1}}},
    "config-string-allow-uncertified": {"gains": {"allow_uncertified": "no"},
                                        "sim": {"horizon": 0.1}},
    "config-mixed-x1-init": {"sim": {"horizon": 0.1, "x1_init": [True, "2", 3]}},
}


class TestBadInputs:
    @pytest.mark.parametrize("case", [
        "malformed-config", "missing-config", "negative-delta",
        "infinite-horizon-run", "infinite-horizon-compare",
        "channel-without-amplitude", "disturbance-not-an-object", "string-amplitude",
        "channels-not-a-list", "constant-value-not-a-vector",
        "nan-x1-init", "nan-constant-value", "infinite-k4-run", "nan-m-sweep",
        "certify-infinite-k4", "certify-infinite-m", "certify-nan-v0", "certify-nan-delta",
        "certify-infinite-l0", "certify-infinite-l0-dot", "certify-nan-theta1", "certify-nan-theta2",
        "too-many-steps", "string-is-cosine", "boolean-amplitude",
        "reproduce-out-is-a-file", "run-out-is-a-file",
        "certify-zero-l0", "certify-negative-l0", "certify-negative-l0-dot",
        "mixed-constant-value", "fractional-none-dimension", *CONFIGS,
    ])
    def test_usage_error_without_traceback(self, tmp_path, capsys, case):
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{not json")
        afile = tmp_path / "afile"
        afile.write_text("")
        custom = ["run", "--experiment", "custom", "--method", "amssosmc",
                  "--horizon", "0.1", "--out", str(tmp_path)]
        channels = [{"amplitude": 1.0, "frequency": 1.0}, {"amplitude": 2.0, "frequency": 4.0}]
        certify = ["certify", "--m", "3", "--v0", "50"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIGS.get(case)))
        run_config = ["run", "--config", str(config), "--experiment", "exp1",
                      "--method", "amssosmc", "--out", str(tmp_path)]
        argv = {
            "malformed-config": ["run", "--config", str(malformed)],
            "missing-config": ["run", "--config", str(tmp_path / "absent.json")],
            "negative-delta": ["certify", "--m", "3", "--v0", "50", "--delta", "-1"],
            "infinite-horizon-run": ["run", "--experiment", "exp1", "--method", "amssosmc",
                                     "--horizon", "inf", "--out", str(tmp_path)],
            "infinite-horizon-compare": ["compare", "--experiment", "exp1",
                                         "--methods", "amssosmc,amstsmc-baseline",
                                         "--horizon", "inf"],
            "channel-without-amplitude": custom + [
                "--x1-init", "1,2,3", "--disturbance", json.dumps(
                    {"kind": "sinusoid-mix", "channels": channels + [{"frequency": 2.0}]})],
            "disturbance-not-an-object": custom + ["--x1-init", "1,2,3",
                                                   "--disturbance", "[1,2,3]"],
            "string-amplitude": custom + [
                "--x1-init", "1,2,3", "--disturbance", json.dumps(
                    {"kind": "sinusoid-mix",
                     "channels": channels + [{"amplitude": "x", "frequency": 2.0}]})],
            "channels-not-a-list": custom + [
                "--x1-init", "1,2,3",
                "--disturbance", json.dumps({"kind": "sinusoid-mix", "channels": 5})],
            "constant-value-not-a-vector": custom + [
                "--x1-init", "1,2,3",
                "--disturbance", json.dumps({"kind": "constant", "value": {"a": 1}})],
            "nan-x1-init": custom + ["--x1-init", "nan,0,0",
                                     "--disturbance", json.dumps({"kind": "none"})],
            "nan-constant-value": custom + [
                "--x1-init", "1,2,3",
                "--disturbance", '{"kind": "constant", "constant_value": [0.1, NaN, 0.2]}'],
            "infinite-k4-run": ["run", "--experiment", "exp1", "--method", "amssosmc",
                                "--k4", "inf", "--horizon", "0.1", "--out", str(tmp_path)],
            "nan-m-sweep": ["sweep", "--parameter", "m", "--values", "nan",
                            "--horizon", "0.1"],
            "certify-infinite-k4": ["certify", "--k4", "inf"],
            "certify-infinite-m": ["certify", "--m", "inf"],
            "certify-nan-v0": ["certify", "--m", "3", "--v0", "nan"],
            "certify-nan-delta": certify + ["--delta", "nan"],
            "certify-infinite-l0": certify + ["--l0", "inf"],
            "certify-infinite-l0-dot": certify + ["--l0-dot", "inf"],
            "certify-nan-theta1": certify + ["--theta1", "nan"],
            "certify-nan-theta2": certify + ["--theta2", "nan"],
            # 1e15 steps: refused before any array is allocated
            "too-many-steps": ["run", "--experiment", "exp1", "--method", "amssosmc",
                               "--dt", "1e-12", "--horizon", "1e3", "--out", str(tmp_path)],
            "string-is-cosine": custom + [
                "--x1-init", "1,2,3", "--disturbance", json.dumps(
                    {"kind": "sinusoid-mix",
                     "channels": channels + [{"amplitude": 2.0, "frequency": 2.0,
                                              "is_cosine": "false"}]})],
            "boolean-amplitude": custom + [
                "--x1-init", "1,2,3", "--disturbance", json.dumps(
                    {"kind": "sinusoid-mix",
                     "channels": channels + [{"amplitude": True, "frequency": 2.0}]})],
            "reproduce-out-is-a-file": ["reproduce", "--out", str(afile), "--horizon", "0.1"],
            "run-out-is-a-file": ["run", "--experiment", "exp1", "--method", "amssosmc",
                                  "--horizon", "0.1", "--out", str(afile)],
            # L0 never falls below L0_init > 0, and never decreases
            "certify-zero-l0": certify + ["--delta", "0.3", "--l0", "0"],
            "certify-negative-l0": certify + ["--delta", "0.3", "--l0", "-1"],
            "certify-negative-l0-dot": certify + ["--delta", "0.3", "--l0", "8", "--l0-dot", "-5"],
            "mixed-constant-value": custom + [
                "--x1-init", "1,2,3",
                "--disturbance", json.dumps({"kind": "constant", "value": [True, "0.2", 0]})],
            "fractional-none-dimension": custom + [
                "--x1-init", "1,2", "--disturbance", json.dumps({"kind": "none", "n": 2.7})],
            **{name: run_config for name in CONFIGS},
        }[case]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("usage error: ")
        assert "Traceback" not in err
        assert out == ""
