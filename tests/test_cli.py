import argparse
import json
import shlex
import warnings
from pathlib import Path

import pytest

from smoothsmc import cli
from smoothsmc.cli import build_parser, main
from smoothsmc.experiments import EXPERIMENTS, PAIRS, run_cells

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

    def test_empty_x1_init_item_is_usage_error(self, tmp_path, capsys):
        # "1,,2" is not the 2-D state (1, 2)
        code, out, err = run_cli(capsys, [
            "run", "--experiment", "custom", "--method", "amssosmc", "--x1-init", "1,,2",
            "--disturbance", json.dumps({"kind": "none"}), "--out", str(tmp_path), *FAST,
        ])
        assert code == 1
        assert err.startswith("usage error: ") and "'1,,2'" in err
        assert out == "" and not (tmp_path / "custom_amssosmc").exists()

    def test_custom_run_of_an_unknown_method_is_usage_error(self, tmp_path, capsys):
        # --method has choices; a config file's method is checked by the library
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "custom", "method": "bogus",
                                      "x1_init": [1, 2, 3], "disturbance": {"kind": "none"}}))
        code, out, err = run_cli(capsys, ["run", "--config", str(config), *FAST,
                                          "--out", str(tmp_path)])
        assert (code, out, err) == (1, "", "usage error: unknown method 'bogus'\n")

    def test_custom_run_requires_scenario(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, [
            "run", "--experiment", "custom", "--method", "amssosmc",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "custom runs need" in err

    def test_controller_from_the_origin_is_refused_before_stepping(self, tmp_path, capsys,
                                                                    monkeypatch):
        # its settling threshold, 1 % of ||x1(0)||, would be zero
        def no_stepping(*args, **kwargs):
            raise AssertionError("the plant was stepped")

        monkeypatch.setattr("smoothsmc.experiments.simulate_closed_loop", no_stepping)
        code, out, err = run_cli(capsys, [
            "run", "--experiment", "custom", "--method", "amssosmc", "--x1-init", "0,0,0",
            "--disturbance", json.dumps({"kind": "constant", "value": [0.1, 0.2, 0.2]}),
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--x1-init" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

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

    # The states stay finite, but a norm that a metric reads overflows to inf:
    # the run aborts there, with no numpy warning and nothing written.
    @pytest.mark.parametrize("argv, message", [
        (["run", "--experiment", "exp1", "--method", "amssosmc", "--horizon", "1"],
         "numerical abort: ||x1|| overflowed in cell 0 at step 2 (t=0.002): "),
        (["sweep", "--parameter", "k4", "--values", "20,30", "--experiment", "exp3",
          "--method", "amsdo", "--horizon", "1"],
         "numerical abort: ||d_hat - d|| overflowed in cell 0 at step 2 (t=0.002): "),
    ], ids=["run-controller", "sweep-observer"])
    def test_overflowing_norm_of_finite_states_is_a_numerical_abort(self, tmp_path, capsys,
                                                                    argv, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(capsys, [*argv, "--k1", "1e100", "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

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


# Custom runs at n = 2; with --log-stride 3 the CSV holds every third step.
CUSTOM_RUNS = {
    f"custom-{method}-{kind}": ["--experiment", "custom", "--method", method,
                                "--x1-init", "1,-2", "--disturbance", json.dumps(spec),
                                "--log-stride", "3"]
    for method in ("amssosmc", "amsdo")
    for kind, spec in (
        ("none", {"kind": "none"}),
        ("constant", {"kind": "constant", "value": [0.1, -0.2]}),
        ("sinusoid", {"kind": "sinusoid-mix", "channels": [
            {"amplitude": 0.3, "frequency": 2.0},
            {"amplitude": 0.2, "frequency": 3.0, "is_cosine": True}]}),
    )
}
PRESET_RUNS = {f"{experiment}-{method}": ["--experiment", experiment, "--method", method]
               for experiment, kind in EXPERIMENTS.items() for method in PAIRS[kind]}


def cell_bytes(out):
    """``{file name: bytes}`` of the one cell written under ``out``."""
    (cell,) = out.iterdir()
    return {path.name: path.read_bytes() for path in cell.iterdir()}


class TestReportConfigReruns:
    @pytest.mark.parametrize("case", [*PRESET_RUNS, *CUSTOM_RUNS])
    def test_report_config_reruns_byte_for_byte(self, tmp_path, capsys, case):
        flags = {**PRESET_RUNS, **CUSTOM_RUNS}[case]
        code, _, _ = run_cli(capsys, ["run", *flags, "--horizon", "0.3",
                                      "--out", str(tmp_path / "first")])
        assert code == 0
        first = cell_bytes(tmp_path / "first")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(first["report.json"])["config"]))
        code, _, err = run_cli(capsys, ["run", "--config", str(config),
                                        "--out", str(tmp_path / "again")])
        assert (code, err) == (0, "")
        assert cell_bytes(tmp_path / "again") == first

    def test_x1_init_flag_and_keys_are_one_setting(self, tmp_path, capsys):
        preset = {"experiment": "exp1", "method": "amssosmc"}
        spellings = {
            "flag": ({**preset, "sim": {"horizon": 0.3}}, ["--x1-init", "5,5,5"]),
            "key": ({**preset, "sim": {"horizon": 0.3}, "x1_init": [5, 5, 5]}, []),
            "sim": ({**preset, "sim": {"horizon": 0.3, "x1_init": [5, 5, 5]}}, []),
        }
        written = {}
        for name, (spec, flags) in spellings.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(spec))
            code, _, _ = run_cli(capsys, ["run", "--config", str(config), *flags,
                                          "--out", str(tmp_path / name)])
            assert code == 0
            written[name] = cell_bytes(tmp_path / name)
        assert written["flag"] == written["key"] == written["sim"]
        report = json.loads(written["flag"]["report.json"])
        assert report["config"]["sim"]["x1_init"] == [5.0, 5.0, 5.0]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_preset_refuses_another_disturbance(self, tmp_path, capsys, source):
        other = {"kind": "none", "n": 3}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "exp1", "method": "amssosmc",
                                      "disturbance": other}))
        argv = {"flag": ["run", "--experiment", "exp1", "--method", "amssosmc",
                         "--disturbance", json.dumps(other)],
                "config": ["run", "--config", str(config)]}[source]
        code, out, err = run_cli(capsys, [*argv, "--horizon", "0.1",
                                          "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--experiment custom" in err
        assert out == "" and not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("flags", [
        ["--l0", "-1", "--l0-dot", "-5", "--delta", "0.3"],
        ["--delta", "0.3"], ["--l0", "8"], ["--l0-dot", "0"],
        ["--theta1", "0.5"], ["--theta2", "0.5"],
    ], ids=["mixed", "delta", "l0", "l0-dot", "theta1", "theta2"])
    def test_estimate_flags_need_v0(self, capsys, flags):
        code, out, err = run_cli(capsys, ["certify", "--m", "3", *flags])
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--v0" in err and flags[0] in err
        assert out == ""

    @pytest.mark.parametrize("flags", [
        ["--v0", "50", "--delta", "0.3", "--l0", "-1"], ["--v0", "50"],
    ], ids=["with-bad-l0", "v0-only"])
    def test_estimate_flags_at_the_baseline_are_usage_errors(self, capsys, flags):
        # m = 2 has no certificate, so it has no convergence estimate either
        code, out, err = run_cli(capsys, ["certify", "--m", "2", *flags])
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert all(flag in err for flag in flags if flag.startswith("--")) and "--m" in err
        assert out == ""

    def test_bound_evaluation_at_settled_gain_level(self, capsys):
        code, out, _ = run_cli(capsys, [
            "certify", "--m", "3", "--v0", "50", "--delta", "0.3",
            "--l0", "8.0", "--l0-dot", "0.0",
        ])
        assert code == 0
        conv = json.loads(out)["convergence"]
        assert conv["settling_time_bound"] != "infinite"
        assert conv["residual_V_level"] != "none"


    # the split root pinned against 0 or 1, and levels or c3 past the float range
    @pytest.mark.parametrize("flags, code", [
        (["--delta", "0.3", "--l0", "1e20"], 0),
        (["--delta", "1e-300", "--l0", "100"], 0),
        (["--delta", "0.3", "--l0", "100", "--theta1", "1e-300"], 0),
        (["--delta", "0.3", "--l0", "100", "--theta1", "5e-324"], 0),
        (["--delta", "0.3", "--l0", "100", "--theta2", "1e-300"], 0),
        (["--delta", "1e300", "--l0", "100"], 1),
        (["--delta", "1e308"], 1),
    ], ids=["root-pinned-at-one", "tiny-delta", "tiny-theta1", "least-theta1", "tiny-theta2",
            "huge-delta", "infinite-c3"])
    def test_residual_split_edge_cases_end_cleanly(self, capsys, flags, code):
        got, out, err = run_cli(capsys, ["certify", "--m", "3", "--v0", "50", *flags,
                                         "--l0-dot", "0"])
        assert got == code
        if code == 0:
            conv = json.loads(out)["convergence"]
            assert 0.0 < conv["theta3"] < 1.0
            if "--theta1" in flags:  # a root far below 2**-200, or below the least float
                assert conv["theta3"] == {"1e-300": 5.117945326995371e-301,
                                          "5e-324": 5e-324}[flags[-1]]
                assert conv["residual_V_level"] == 0.16201103370164063
            if "--theta2" in flags:  # the level is the power term's alone
                level = (conv["c3"] / conv["theta1"]) ** (1.0 / (conv["p1"] - conv["p2"]))
                assert conv["residual_V_level"] == pytest.approx(level, rel=1e-12)
        else:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("usage error: ") and "overflow" in err


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

    def test_keeps_no_record_without_out(self, monkeypatch, tmp_path, capsys):
        records = []

        def recording_run_cells(*args, record=True, **kwargs):
            records.append(record)
            return run_cells(*args, record=record, **kwargs)

        monkeypatch.setattr(cli, "run_cells", recording_run_cells)
        argv = ["compare", "--experiment", "exp1", "--methods", "amssosmc,amstsmc-baseline",
                *FAST]
        code, table, _ = run_cli(capsys, argv)
        assert (code, records) == (0, [False])
        code, out, _ = run_cli(capsys, [*argv, "--out", str(tmp_path)])
        assert (code, records, out) == (0, [False, True], table)

    def test_log_stride_needs_out(self, capsys):
        code, out, err = run_cli(capsys, [
            "compare", "--experiment", "exp1", "--methods", "amssosmc,amstsmc-baseline",
            "--horizon", "0.1", "--log-stride", "2",
        ])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--log-stride" in err and "--out" in err

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

    def test_empty_item_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--parameter", "k4", "--values", "28,,30"])
        assert code == 1
        assert err.startswith("usage error: ") and "'28,,30'" in err
        assert out == ""

    @pytest.mark.parametrize("parameter,values,flag,value", [
        ("k4", "30", "--k4", "25"), ("m", "2.5,3,3.5", "--m", "2.5"),
    ], ids=["k4", "m"])
    def test_gain_flag_naming_the_swept_parameter_is_usage_error(self, capsys, parameter,
                                                                 values, flag, value):
        code, out, err = run_cli(capsys, [
            "sweep", "--parameter", parameter, "--values", values, flag, value,
            "--horizon", "0.1",
        ])
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert flag in err and f"--parameter {parameter}" in err
        assert out == ""

    def test_log_stride_is_not_a_sweep_flag(self, capsys):
        # a sweep keeps no trajectory, so there is nothing for a stride to thin
        code, out, err = run_cli(capsys, ["sweep", "--parameter", "k4", "--values", "30",
                                          "--horizon", "0.1", "--log-stride", "2"])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--log-stride" in err

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

    def test_a_horizon_too_short_for_the_metric_tail_leaves_out_absent(self, tmp_path, capsys):
        out = tmp_path / "results"
        code, stdout, err = run_cli(capsys, ["reproduce", "--out", str(out),
                                             "--horizon", "0.002"])
        assert (code, stdout) == (1, "")
        assert "two tail samples" in err
        assert not out.exists()


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
    "config-origin-x1-init": {"sim": {"horizon": 0.1, "x1_init": [0.0, 0.0, 0.0]}},
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

    # A disturbance key that the spec would not read is refused by name, not dropped.
    @pytest.mark.parametrize("spec, named", [
        ({"kind": "sinusoid-mix", "channels": [
            {"amplitude": a, "frequency": 1.0, "phase": 1.0} for a in (0.1, 0.2, 0.3)]},
         "'phase'"),
        ({"kind": "constant", "constant_value": [0.1, 0.2, 0.3], "n": 5}, "n = 5"),
        ({"kind": "sinusoid-mix", "n": 9, "channels": [[0.1, 1.0, False]]}, "n = 9"),
        ({"kind": "constant", "value": [0.1, 0.2, 0.3],
          "channels": [[0.1, 0.0, True]] * 3}, "'channels'"),
        ({"kind": "none", "constant_value": [0.1, 0.2, 0.3]}, "'constant_value'"),
        ({"kind": "sinusoid-mix", "channels": [[0.1, 1.0, False]] * 3, "bogus": 1},
         "'bogus'"),
        ({"kind": "constant", "value": [0.1, 0.2, 0.3], "constant_value": [0.1, 0.2, 0.3]},
         "constant_value or value"),
    ], ids=["channel-phase", "constant-n", "sinusoid-mix-n", "constant-channels",
            "none-constant-value", "unknown-key", "value-and-constant-value"])
    def test_a_disturbance_key_that_is_not_read_is_named(self, tmp_path, capsys, spec, named):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, [
            "run", "--experiment", "custom", "--method", "amssosmc", "--horizon", "0.1",
            "--x1-init", "1,2,3", "--disturbance", json.dumps(spec), "--out", str(out_dir)])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and named in err and err.count("\n") == 1
        assert not out_dir.exists()

    # At dt = 1 ms, 2 steps leave one sample in the metric tail, which has no
    # variation rate: every command refuses that before it writes or prints.
    @pytest.mark.parametrize("case", [
        "unknown-disturbance-kind", "channel-not-a-triple", "run-without-a-cell",
        "config-out-not-a-path", "run-one-tail-sample", "compare-one-tail-sample",
        "sweep-one-tail-sample", "reproduce-one-tail-sample",
    ])
    def test_usage_error_that_writes_nothing(self, tmp_path, capsys, case):
        out_dir = tmp_path / "out"
        custom = ["run", "--experiment", "custom", "--method", "amssosmc", "--horizon", "0.1",
                  "--x1-init", "1,2,3", "--out", str(out_dir)]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "exp1", "method": "amssosmc", "out": 5}))
        short = ["--horizon", "0.002", "--out", str(out_dir)]
        argv = {
            "unknown-disturbance-kind": custom + ["--disturbance", '{"kind": "bogus"}'],
            "channel-not-a-triple": custom + [
                "--disturbance", json.dumps({"kind": "sinusoid-mix",
                                             "channels": [[1.0, 2.0]] * 3})],
            "run-without-a-cell": ["run", "--out", str(out_dir)],
            "config-out-not-a-path": ["run", "--config", str(config), "--horizon", "0.1"],
            "run-one-tail-sample": ["run", "--experiment", "exp1", "--method", "amssosmc",
                                    *short],
            "compare-one-tail-sample": ["compare", "--experiment", "exp3",
                                        "--methods", "amsdo,amdo-baseline", *short],
            "sweep-one-tail-sample": ["sweep", "--parameter", "k4", "--values", "25,30", *short],
            "reproduce-one-tail-sample": ["reproduce", *short],
        }[case]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["certify", "--m", "3", "--k1", "1e200"],
        ["certify", "--m", "3", "--k1", "1e200", "--k2", "1e-200"],
        ["certify", "--m", "2", "--k1", "1e200"],
        ["run", "--experiment", "exp1", "--method", "amssosmc", "--k1", "1e200"],
        ["sweep", "--parameter", "k4", "--values", "30", "--k1", "1e200"],
    ], ids=["certify", "certify-finite-condition", "certify-baseline", "run", "sweep"])
    def test_overflowing_gains_are_usage_errors(self, tmp_path, capsys, argv):
        # k1^2 leaves the float range: the exact condition's floats, or the
        # certificate blocks when k2 = 1e-200 keeps the condition finite
        if argv[0] != "certify":
            argv = [*argv, "--out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: gains m=") and err.count("\n") == 1
        assert "k1=1e+200" in err and "overflow" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, L0", [
        (["run", "--experiment", "exp1", "--method", "amssosmc", "--l0-init", "1e300"], "1e+300"),
        (["run", "--experiment", "exp1", "--method", "amstsmc-baseline", "--l0-init", "1e200"],
         "1e+200"),
        (["sweep", "--parameter", "k4", "--values", "30", "--l0-init", "1e300"], "1e+300"),
    ], ids=["run-smooth", "run-baseline", "sweep"])
    def test_gains_that_overflow_at_l0_init_are_refused_before_stepping(
            self, tmp_path, capsys, monkeypatch, argv, L0):
        def no_stepping(*args, **kwargs):
            raise AssertionError("the plant was stepped")

        monkeypatch.setattr("smoothsmc.experiments.simulate_closed_loop", no_stepping)
        code, out, err = run_cli(capsys, [*argv, "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: gains m=") and err.count("\n") == 1
        assert err.endswith(f" overflow the adaptive gains at L0 = {L0}\n")
        assert not (tmp_path / "out").exists()

    def test_certify_only_echoes_l0_init(self, capsys):
        # the certificate does not depend on L0, so its gains are not refused
        code, out, err = run_cli(capsys, ["certify", "--l0-init", "1e300"])
        assert (code, err) == (0, "")
        certified = json.loads(out)
        assert certified.pop("gains").pop("L0_init") == 1e300
        _, default, _ = run_cli(capsys, ["certify"])
        assert {k: v for k, v in json.loads(default).items() if k != "gains"} == certified

    # kappa = 1e300 takes L0 to 1e297 in one step of dt = 1 ms, where L0**2
    # leaves the float range: the run aborts at the step that adapted, with
    # the state it adapted at, alone (the float kernel) or in a batch (the
    # array kernel) alike.
    @pytest.mark.parametrize("alone, batch, message", [
        (["run", "--experiment", "exp1", "--method", "amssosmc", "--kappa", "1e300",
          "--horizon", "0.5"],
         ["compare", "--experiment", "exp1", "--methods", "amssosmc,amstsmc-baseline",
          "--kappa", "1e300", "--horizon", "0.5"],
         "numerical abort: the adaptive gains overflowed at L0 = 1e+297 in cell 0 at step 0 "
         "(t=0): [1. 3. 2.]\n"),
        (["sweep", "--parameter", "kappa", "--values", "1e300", "--experiment", "exp3",
          "--method", "amsdo"],
         ["sweep", "--parameter", "kappa", "--values", "1e300,10", "--experiment", "exp3",
          "--method", "amsdo"],
         # the observer's innovation is zero at step 0, so it adapts from step 1
         "numerical abort: the adaptive gains overflowed at L0 = 1e+297 in cell 0 at step 1 "
         "(t=0.001): [1. 3. 2.]\n"),
    ], ids=["controller", "observer"])
    def test_gains_that_overflow_by_adaptation_are_a_numerical_abort(
            self, tmp_path, capsys, alone, batch, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [run_cli(capsys, [*argv, "--out", str(tmp_path / name)])
                       for name, argv in (("alone", alone), ("batch", batch))]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out, err) == (2, "", message)
        assert not (tmp_path / "alone").exists() and not (tmp_path / "batch").exists()

    def test_a_nan_block_entry_names_the_gains(self, capsys):
        # k1/m underflows to 0.0 and meets k3*m = inf: 0 * inf is a NaN entry
        # of Omega1, refused as an overflow of the blocks, not as a NaN matrix
        code, out, err = run_cli(capsys, ["certify", "--m", "1e308", "--k1", "1e-20"])
        assert (code, out) == (1, "")
        assert err == ("usage error: gains m=1e+308, k1=1e-20, k2=2.5, k3=4.0, k4=30.0 "
                       "overflow the certificate blocks\n")

    def test_a_config_gain_too_large_for_a_float_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "exp1", "method": "amssosmc",
                                      "gains": {"k1": 10**400}, "sim": {"horizon": 0.1}}))
        code, out, err = run_cli(capsys, ["run", "--config", str(config),
                                          "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err == "usage error: k1 must be a positive, finite number\n"
        assert not (tmp_path / "out").exists()

    def test_integer_gains_keep_their_json_form(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "exp1", "method": "amssosmc",
                                      "gains": {"k4": 30, "kappa": 10},
                                      "sim": {"horizon": 0.1, "dt": 0.002}}))
        code, _, _ = run_cli(capsys, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "exp1_amssosmc" / "report.json").read_text()
        assert '"k4": 30,' in text and '"kappa": 10,' in text


def numeric_flags():
    """``(subcommand, flag)`` for every option of every subcommand that
    parses a number, read from the parser so later flags are covered too."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, sub in subparsers.choices.items() for action in sub._actions
            if action.type in (float, int)]


NUMERIC_FLAGS = numeric_flags()

# Each subcommand's smallest valid call; the flag under test comes last and
# so replaces a value given here.
VALID_CALLS = {
    "run": ["run", "--experiment", "exp1", "--method", "amssosmc", "--horizon", "0.1"],
    "certify": ["certify", "--m", "3", "--v0", "50"],
    "compare": ["compare", "--experiment", "exp1", "--methods", "amssosmc,amstsmc-baseline",
                "--horizon", "0.1"],
    "sweep": ["sweep", "--parameter", "k4", "--values", "30", "--horizon", "0.1"],
    "reproduce": ["reproduce", "--horizon", "0.1"],
}


@pytest.mark.parametrize("command,flag", NUMERIC_FLAGS, ids=[" ".join(f) for f in NUMERIC_FLAGS])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_every_numeric_flag_refuses_a_non_finite_value(tmp_path, capsys, command, flag, value):
    # "--flag=-inf", because argparse reads a separate "-inf" as an option
    argv = [*VALID_CALLS[command], f"{flag}={value}"]
    if command != "certify":
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out == "" and not (tmp_path / "out").exists()


def test_every_readme_command_parses():
    # a renamed or removed flag breaks this test, not only the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in readme.split("```")[1::2] for line in block.splitlines()
             if line.startswith("smoothsmc ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except cli.UsageError as exc:
            pytest.fail(f"{line}: {exc}")
