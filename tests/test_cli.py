import json

import numpy as np
import pytest

from phmix import cli
from phmix.config import config_from_dict, config_to_dict, default_config, \
    load_config
from phmix.dirac import VerificationReport
from phmix.errors import ConfigurationError
from phmix.simulate import CoupledSimulation, LEDGER_HEADER

TINY = {
    "geometry": {"n_ax": 4, "n_az": 3, "n_th": 2, "n_fluid": 4},
    "sim": {"dt": 5e-4, "t_end": 2.5e-3},
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = default_config()
        assert cfg.scenario == "hot-wall-cooldown"
        assert cfg.geometry.n_ax == cfg.geometry.n_fluid

    def test_lambda_key_maps_to_conductivity(self):
        cfg = config_from_dict({"heat": {"lambda": 7.5}})
        assert cfg.heat.conductivity == 7.5
        assert config_to_dict(cfg)["heat"]["lambda"] == 7.5

    def test_unknown_keys_are_located(self):
        with pytest.raises(ConfigurationError, match="geometry.depht"):
            config_from_dict({"geometry": {"depht": 1.0}})
        with pytest.raises(ConfigurationError, match="top-level"):
            config_from_dict({"geomtry": {}})

    def test_bad_material_value_reported_with_section(self):
        with pytest.raises(ConfigurationError, match="heat"):
            config_from_dict({"heat": {"rho": -2.0}})

    def test_mismatched_axial_meshes_rejected(self):
        with pytest.raises(ConfigurationError, match="n_fluid"):
            config_from_dict({"geometry": {"n_ax": 8, "n_fluid": 6}})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="acoustic-pulse"):
            config_from_dict({"scenario": "nonsense"})

    def test_json_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"geometry": {,}}')
        with pytest.raises(ConfigurationError, match="line 1"):
            load_config(path)

    @pytest.mark.parametrize("data,key", [
        ({"seed": "x"}, "seed"),
        ({"quad_degree": 3.5}, "quad_degree"),
        ({"geometry": {"n_az": "8"}}, "geometry.n_az"),
        ({"geometry": {"n_az": 2.5}}, "geometry.n_az"),
        ({"scenario_params": 5}, "scenario_params"),
        ({"scenario_params": {"t_solid": "hot"}}, "scenario_params"),
        # Python's JSON reader takes NaN and Infinity
        ({"sim": {"t_end": float("inf")}}, "sim.t_end"),
        ({"sim": {"dt": float("nan")}}, "sim.dt"),
        ({"heat": {"lambda": float("inf")}}, "heat.lambda"),
        ({"heat": {"rho": float("inf")}}, "heat.rho"),
        ({"fluid": {"c_v": float("inf")}}, "fluid.c_v"),
        ({"geometry": {"b": float("inf")}}, "geometry.b"),
        ({"scenario_params": {"t_solid": float("nan")}}, "scenario_params"),
    ])
    def test_malformed_value_exit_2_names_key(self, capsys, tmp_path, data,
                                              key):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict(data)
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("data,message", [
        ({"sim": {"output_every": 0}}, "output_every must be >= 1"),
        ({"quad_degree": 10}, "quad_degree must be between 2 and 9"),
        ({"sim": {"dt": 1e-3, "t_end": 3.5e-3}},
         "section 'sim': t_end = 0.0035 must be a whole number of steps "
         "of dt = 0.001"),
    ])
    def test_out_of_range_value_exit_2(self, capsys, tmp_path, data, message):
        with pytest.raises(ConfigurationError, match=message):
            config_from_dict(data)
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

    def test_largest_quad_degree_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(TINY, quad_degree=9))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        assert code == 0

    def test_roundtrip(self, tmp_path):
        cfg = default_config(seed=42, quad_degree=4)
        path = write_cfg(tmp_path, config_to_dict(cfg))
        again = load_config(path)
        assert again == cfg


class TestVerifyCommand:
    def test_default_config_passes(self, capsys, tmp_path):
        code = cli.main(["verify", "--trials", "25",
                         "--config", write_cfg(tmp_path, TINY)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("status: PASS") == 5
        assert "verify: PASS" in out

    def test_reproducible_output(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        cli.main(["verify", "--trials", "40", "--seed", "7", "--config", cfg])
        first = capsys.readouterr().out
        cli.main(["verify", "--trials", "40", "--seed", "7", "--config", cfg])
        second = capsys.readouterr().out
        assert first == second

    def test_mismatched_meshes_exit_2(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"geometry": {"n_ax": 4, "n_fluid": 5}})
        code = cli.main(["verify", "--config", cfg])
        assert code == 2
        assert "n_fluid" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--trials", trials])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: phmix verify")
        assert "--trials: expected an integer >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "5"], ["simulate", "--seed", "3"],
        ["convergence", "--trials", "5"], ["verify", "--output", "x"]])
    def test_option_of_another_command_exit_2(self, capsys, argv):
        # each command takes only the options it reads
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: phmix")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    def test_failed_check_exit_1(self, capsys, monkeypatch, tmp_path):
        broken = VerificationReport(name="adjointness", passed=False,
                                    max_residual=1.0, tolerance=1e-11,
                                    trials=1)
        monkeypatch.setattr(cli, "check_adjointness",
                            lambda *a, **k: broken)
        code = cli.main(["verify", "--trials", "5",
                         "--config", write_cfg(tmp_path, TINY)])
        assert code == 1
        assert "verify: FAIL" in capsys.readouterr().out


class TestSimulateCommand:
    def test_writes_ledger_with_exact_header(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, dict(TINY, scenario="equilibrium"))
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(out_dir)])
        assert code == 0
        ledger = out_dir / "equilibrium_ledger.csv"
        lines = ledger.read_text().splitlines()
        assert lines[0] == LEDGER_HEADER
        total = np.array([float(l.split(",")[3]) for l in lines[1:]])
        assert np.abs(total - total[0]).max() <= 1e-10 * abs(total[0])

    def test_cooldown_moves_heat_monotonically(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(TINY, scenario="hot-wall-cooldown"))
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg,
                        "--output", str(out_dir)])
        assert code == 0
        lines = (out_dir / "hot-wall-cooldown_ledger.csv").read_text().splitlines()
        q = np.array([float(l.split(",")[1]) for l in lines[1:]])
        h = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert np.all(np.diff(q) < 0)
        assert np.all(np.diff(h) > 0)

    @pytest.mark.parametrize("scenario,positive", [
        ("hot-wall-cooldown", True), ("equilibrium", False)])
    def test_reports_build_and_solve_seconds(self, capsys, tmp_path,
                                             scenario, positive):
        cfg = write_cfg(tmp_path, dict(TINY, scenario=scenario))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        assert code == 0
        report = dict(line.split(": ", 1)
                      for line in capsys.readouterr().out.splitlines())
        for key in ("jacobian_build_s", "chord_solve_s"):
            assert (float(report[key]) > 0) == positive
        assert (int(report["jacobian_builds"]) > 0) == positive
        assert int(report["row_interchanges"]) == 0
        assert (int(report["max_step_iterations"]) > 0) == positive
        assert 0 <= float(report["max_final_residual"]) <= 1e-12

    @pytest.mark.parametrize("dt,moved", [(2e-3, 0), (8e-3, 3)])
    def test_reports_row_interchanges(self, capsys, tmp_path, dt, moved):
        # which chord solve ran: the factor of the tiny cooldown
        # interchanges rows at 16 dt, none at 4 dt
        cfg = write_cfg(tmp_path, dict(
            TINY, scenario="hot-wall-cooldown",
            sim={"dt": dt, "t_end": 5 * dt}))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        assert code == 0
        report = dict(line.split(": ", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert int(report["row_interchanges"]) == moved

    def test_zero_pivot_exit_1_names_step_and_unknown(self, capsys, tmp_path,
                                                       monkeypatch):
        # a Jacobian with a zero column fails the step cleanly: the last
        # ledger row and the unknown behind the pivot, no traceback
        build = CoupledSimulation._jacobian

        def singular(sim, x):
            band = build(sim, x)
            band[:, sim._layout.rank[0]] = 0.0
            return band

        monkeypatch.setattr(CoupledSimulation, "_jacobian", singular)
        cfg = write_cfg(tmp_path, dict(TINY, scenario="hot-wall-cooldown"))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "last ledger row: 0.0," in err
        assert "error: step 1: implicit midpoint step failed: singular " \
            "Jacobian: zero pivot at unknown 0 (solid entropy[" in err

    def test_unknown_scenario_exit_2_lists_names(self, capsys, tmp_path):
        data = dict(TINY)
        data["scenario"] = "no-such-thing"
        cfg = write_cfg(tmp_path, data)
        code = cli.main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 2
        assert "equilibrium" in err and "acoustic-pulse" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["simulate", "--config", str(path)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_step_failure_exit_1_with_last_row(self, capsys, tmp_path):
        data = dict(TINY, scenario="hot-wall-cooldown")
        data["sim"] = {"dt": 50.0, "t_end": 50.0, "newton_tol": 1e-30,
                       "newton_max_iters": 2}
        cfg = write_cfg(tmp_path, data)
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: step 1: implicit midpoint step did not converge" in err
        assert "last ledger row" in err

    def test_invalid_end_state_exit_1_with_last_row(self, capsys, tmp_path):
        data = {"scenario": "acoustic-pulse",
                "scenario_params": {"amplitude": 3.0},
                "sim": {"dt": 0.001, "t_end": 0.05, "newton_max_iters": 80}}
        cfg = write_cfg(tmp_path, data)
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: step 34: " in err
        assert "invalid state: specific volume" in err
        assert "last ledger row" in err


class TestConvergenceCommand:
    def test_report_parses_and_orders_are_second(self, capsys, tmp_path):
        data = dict(TINY)
        data["sim"] = {"dt": 5e-4, "t_end": 5e-3}
        cfg = write_cfg(tmp_path, data)
        out_dir = tmp_path / "conv"
        code = cli.main(["convergence", "--config", cfg,
                         "--output", str(out_dir)])
        assert code == 0
        lines = (out_dir / "convergence.csv").read_text().splitlines()
        assert lines[0] == "dt,steps,drift_per_time,observed_order"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 3
        assert rows[0][3] == ""
        orders = [float(r[3]) for r in rows[1:]]
        assert all(1.5 <= o <= 2.5 for o in orders)
        out = capsys.readouterr().out
        assert "azimuthal_refinement_gap" in out
        assert "PASS" in out

    def test_refinement_gap_failure_exit_1(self, capsys, tmp_path,
                                           monkeypatch):
        # a gap above the bound is a failed verification: FAIL and exit 1,
        # with the report still written
        monkeypatch.setattr(cli, "azimuthal_refinement_gap",
                            lambda cfg: 1e-6)
        data = dict(TINY)
        data["sim"] = {"dt": 5e-4, "t_end": 5e-3}
        cfg = write_cfg(tmp_path, data)
        out_dir = tmp_path / "conv"
        code = cli.main(["convergence", "--config", cfg,
                         "--output", str(out_dir)])
        assert code == 1
        assert "azimuthal_refinement_gap: 1.000e-06 (FAIL)" in \
            capsys.readouterr().out
        assert (out_dir / "convergence.csv").exists()

    def test_step_failure_exit_1_names_the_step(self, capsys, tmp_path):
        data = dict(TINY, scenario="hot-wall-cooldown")
        data["sim"] = {"dt": 50.0, "t_end": 50.0, "newton_tol": 1e-30,
                       "newton_max_iters": 2}
        cfg = write_cfg(tmp_path, data)
        code = cli.main(["convergence", "--config", cfg,
                         "--output", str(tmp_path / "conv")])
        assert code == 1
        assert "error: step 1: implicit midpoint step did not converge" in \
            capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "convergence"])
def test_uncreatable_output_dir_exit_2(capsys, tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main([command, "--config", write_cfg(tmp_path, TINY),
                     "--output", str(blocker / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
