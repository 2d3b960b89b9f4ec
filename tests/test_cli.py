import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.sparse as sp

from phmix import cli, driver, fem, simulate
from phmix.chord import ChordSolver
from phmix.config import config_from_dict, config_to_dict, default_config, \
    load_config
from phmix.dirac import VerificationReport
from phmix.driver import build_problem
from phmix.errors import ConfigurationError, StepFailureError
from phmix.heat import HeatSystem
from phmix.simulate import LEDGER_HEADER

TINY = {
    "geometry": {"n_ax": 4, "n_az": 3, "n_th": 2, "n_fluid": 4},
    "sim": {"dt": 5e-4, "t_end": 2.5e-3},
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# the ways step 1 of a hot-wall-cooldown run on TINY fails: Newton does not
# converge, or its first Jacobian build cannot allocate the tangent blocks
# (faked, so that no test allocates them)
STEP_FAILURES = ["not-converged", "out-of-memory"]


def fail_step_1(monkeypatch, failure):
    """Make step 1 fail as `failure` says; returns the config data and the
    message of the error line."""
    data = dict(TINY, scenario="hot-wall-cooldown")
    if failure == "not-converged":
        monkeypatch.setattr(simulate, "NEWTON_TOL", 1e-30)
        monkeypatch.setattr(simulate, "NEWTON_MAX_ITERS", 2)
        data["sim"] = {"dt": 50.0, "t_end": 50.0}
        return data, "implicit midpoint step did not converge"

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 91.6 MiB")

    monkeypatch.setattr(HeatSystem, "loads_tangent", out_of_memory)
    return data, "Unable to allocate 91.6 MiB"


@pytest.fixture
def singular_band(monkeypatch):
    """Every Jacobian band with a zero column, mode 0 of the azimuthal line
    of packed unknown 0: each build has a zero pivot."""
    build = ChordSolver.band

    def singular(solver, *args):
        band = build(solver, *args)
        band[:, solver.layout.rank[solver.layout.az_major[0, 0]]] = 0.0
        return band

    monkeypatch.setattr(ChordSolver, "band", singular)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = default_config()
        assert cfg.scenario == "hot-wall-cooldown"
        assert cfg.geometry.n_ax == cfg.geometry.n_fluid

    def test_conductivity_key_roundtrips(self):
        cfg = config_from_dict({"heat": {"conductivity": 7.5}})
        assert cfg.heat.conductivity == 7.5
        assert config_to_dict(cfg)["heat"]["conductivity"] == 7.5

    @pytest.mark.parametrize("data,key", [
        ({"heat": {"lambda": 5.0}}, "key heat.lambda"),
        ({"fluid": {"phi_ref": 1.0}}, "key fluid.phi_ref"),
        ({"fluid": {"s_ref": 0.0}}, "key fluid.s_ref"),
        ({"output_dir": "out"}, "top-level key 'output_dir'"),
        ({"sim": {"newton_tol": 1e-12}}, "key sim.newton_tol"),
        ({"sim": {"newton_max_iters": 40}}, "key sim.newton_max_iters"),
        ({"sim": {"output_every": 20}}, "key sim.output_every"),
    ], ids=["heat.lambda", "fluid.phi_ref", "fluid.s_ref", "output_dir",
            "sim.newton_tol", "sim.newton_max_iters", "sim.output_every"])
    def test_removed_key_exit_2_names_it(self, capsys, tmp_path, data, key):
        # the JSON keys are the dataclass fields: no alias, no gauge
        # knob, the output directory is --output alone, and Newton's
        # tolerance and cap and the snapshot cadence are stepper constants
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: unknown {key}")
        assert err.count("\n") == 1

    def test_unknown_keys_are_located(self, capsys, tmp_path):
        with pytest.raises(ConfigurationError, match="geometry.depht"):
            config_from_dict({"geometry": {"depht": 1.0}})
        with pytest.raises(ConfigurationError, match="top-level"):
            config_from_dict({"geomtry": {}})
        # every assembly uses the one Gauss rule: no key selects a degree
        code = cli.main(["simulate", "--config",
                         write_cfg(tmp_path, {"quad_degree": 3}),
                         "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown top-level key 'quad_degree'")

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
        ({"scenario": 3}, "scenario"),
        ({"geometry": {"n_az": "8"}}, "geometry.n_az"),
        ({"geometry": {"n_az": 2.5}}, "geometry.n_az"),
        ({"scenario_params": 5}, "scenario_params"),
        ({"scenario_params": {"t_solid": "hot"}}, "scenario_params"),
        # Python's JSON reader takes NaN and Infinity
        ({"sim": {"t_end": float("inf")}}, "sim.t_end"),
        ({"sim": {"dt": float("nan")}}, "sim.dt"),
        ({"heat": {"conductivity": float("inf")}}, "heat.conductivity"),
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
        ({"sim": {"dt": 0.0}}, "dt must be positive"),
        # a step count past the float range
        ({"sim": {"dt": 1e-300, "t_end": 1e300}}, "t_end / dt overflows"),
        ({"sim": {"dt": 1e-3, "t_end": 3.5e-3}},
         "section 'sim': t_end = 0.0035 must be a whole number of steps "
         "of dt = 0.001"),
        # each factor finite, the product or ratio not
        ({"heat": {"rho": 1e200, "c": 1e200}},
         "heat material rho * c = 1e+200 * 1e+200 must be positive and "
         "finite"),
        ({"heat": {"rho": 1e-200, "c": 1e-200}},
         "heat material rho * c = 1e-200 * 1e-200 must be positive and "
         "finite"),
        ({"fluid": {"r_gas": 1e200, "c_v": 1e-200}},
         "fluid material r_gas / c_v = 1e+200 / 1e-200 must be finite"),
        # JSON integers past the float range, and a cell count whose node
        # count no index array holds
        ({"sim": {"t_end": 10 ** 400}}, "sim.t_end must be a finite number"),
        ({"scenario_params": {"t_solid": 10 ** 400}},
         "scenario_params must be an object of finite numbers"),
        ({"geometry": {"n_ax": 10 ** 30, "n_fluid": 10 ** 30}},
         "section 'geometry': n_ax = 1000000000000000000000000000000 cells: "
         "the node count must fit np.intp"),
        # each count fits, the solid's node count does not
        ({"geometry": {"n_ax": 2 ** 61, "n_fluid": 2 ** 61}},
         "section 'geometry': geometry 2305843009213693952x8x4: the "
         "solid's 92233720368547758120 nodes must fit np.intp"),
    ])
    def test_out_of_range_value_exit_2(self, capsys, tmp_path, data, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict(data)
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_integer_past_digit_limit_exit_2(self, capsys, tmp_path):
        # Python's JSON reader refuses an integer of more than 4300 digits
        path = tmp_path / "cfg.json"
        path.write_text('{"sim": {"t_end": 1' + "0" * 5000 + "}}")
        with pytest.raises(ConfigurationError, match="4300 digits"):
            load_config(path)
        code = cli.main(["verify", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_roundtrip(self, tmp_path):
        cfg = default_config(seed=42)
        path = write_cfg(tmp_path, config_to_dict(cfg))
        again = load_config(path)
        assert again == cfg


class TestVerifyCommand:
    def test_default_config_passes(self, capsys, tmp_path):
        code = cli.main(["verify", "--config", write_cfg(tmp_path, TINY)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("status: PASS") == 5
        assert "verify: PASS" in out

    def test_reproducible_output(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        cli.main(["verify", "--seed", "7", "--config", cfg])
        first = capsys.readouterr().out
        cli.main(["verify", "--seed", "7", "--config", cfg])
        second = capsys.readouterr().out
        assert first == second

    def test_mismatched_meshes_exit_2(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"geometry": {"n_ax": 4, "n_fluid": 5}})
        code = cli.main(["verify", "--config", cfg])
        assert code == 2
        assert "n_fluid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "5"], ["simulate", "--seed", "3"],
        ["convergence", "--trials", "5"], ["verify", "--output", "x"],
        ["verify", "--trials", "5"]])
    def test_option_of_another_command_exit_2(self, capsys, argv):
        # each command takes only the options it reads, and no command
        # takes --trials
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: phmix")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_seed_exit_2(self, capsys, tmp_path, via):
        # numpy's seeding rejects a negative seed with a traceback; the
        # config check names it first, for the flag and the file alike
        argv = ["--seed", "-1"] if via == "flag" else \
            ["--config", write_cfg(tmp_path, {"seed": -1})]
        code = cli.main(["verify", *argv])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: seed must be >= 0, got -1\n"

    def test_failed_check_exit_1(self, capsys, monkeypatch, tmp_path):
        broken = VerificationReport(name="adjointness", passed=False,
                                    max_residual=1.0, tolerance=1e-11)
        monkeypatch.setattr(cli, "check_adjointness",
                            lambda *a, **k: broken)
        code = cli.main(["verify", "--config", write_cfg(tmp_path, TINY)])
        assert code == 1
        assert "verify: FAIL" in capsys.readouterr().out

    def test_one_pass_forms_each_product_once(self, monkeypatch, capsys):
        # B is the one product of `embed` in a verify pass, and m_psi B the
        # one sparse product of an (n_psi, n_psi) and an (n_psi, n_chi)
        # matrix: the checks share each, formed once
        g = default_config().geometry
        n_chi, n_psi = g.n_ax + 1, (g.n_ax + 1) * g.n_az
        calls = {"B": 0, "m_psi B": 0}
        embed, matmul = fem.CouplingOperators.embed, sp.csr_matrix.__matmul__

        def counted_embed(ops, y):
            calls["B"] += 1
            return embed(ops, y)

        def counted_matmul(a, b):
            if a.shape == (n_psi, n_psi) and b.shape == (n_psi, n_chi):
                calls["m_psi B"] += 1
            return matmul(a, b)

        monkeypatch.setattr(fem.CouplingOperators, "embed", counted_embed)
        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted_matmul)
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().out.endswith("verify: PASS\n")
        assert calls == {"B": 1, "m_psi B": 1}

    # One entry of the default 16x8 wall scaled by 1 + 1e-10.  Each identity
    # of the blocks is exact, so each perturbation fails it by at least
    # 4e-12 of the largest entry, far above round-off.
    @staticmethod
    def verify_perturbed(monkeypatch, capsys, perturb):
        build = driver.build_checked_coupling
        monkeypatch.setattr(cli, "build_checked_coupling",
                            lambda cfg: perturb(build(cfg)))
        code = cli.main(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "\nverify: FAIL (" in out
        return out

    def test_perturbed_coupling_entry_fails(self, monkeypatch, capsys):
        # d_chi's entry (i, (i, 1)) and its mirror in d_psi: the transpose
        # identity still holds bit for bit
        def perturb(ops):
            i = ops.n_chi // 2
            j = i * ops.surface.eta.n_dofs + 1
            d_chi, d_psi = ops.d_chi.copy(), ops.d_psi.copy()
            d_chi[i, j] *= 1 + 1e-10
            d_psi[j, i] *= 1 + 1e-10
            ops.d_chi, ops.d_psi = d_chi, d_psi
            return ops
        out = self.verify_perturbed(monkeypatch, capsys, perturb)
        assert "bitwise_equal: True" in out

    def test_perturbed_surface_mass_entry_fails(self, monkeypatch, capsys):
        # the smallest kind of entry of m_psi: an axial and azimuthal
        # neighbour pair, (h / 6) (h_az / 6)
        def perturb(ops):
            n_az = ops.surface.eta.n_dofs
            r = (ops.n_chi // 2) * n_az
            m_psi = ops.m_psi.copy()
            m_psi[r, r + n_az + 1] *= 1 + 1e-10
            ops.m_psi = m_psi
            return ops
        self.verify_perturbed(monkeypatch, capsys, perturb)

    def test_perturbed_hat_integral_fails(self, monkeypatch, capsys):
        # one azimuthal hat integral, with d_chi and d_psi (and line_load's
        # weights) assembled again from it
        def perturb(ops):
            eta = ops.eta_integrals.copy()
            eta[1] *= 1 + 1e-10
            return dataclasses.replace(ops, eta_integrals=eta)
        self.verify_perturbed(monkeypatch, capsys, perturb)


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

    @pytest.mark.parametrize("scenario", [
        "hot-wall-cooldown", "heated-ext-face"])
    def test_energy_drift_is_the_balance_error(self, capsys, tmp_path,
                                               scenario):
        # the total's change less the external port's work sum dt P_ext:
        # the heated face's supply (about 18 here) is no drift, and with no
        # external port the drift is the total's change to the bit
        cfg = write_cfg(tmp_path, dict(TINY, scenario=scenario))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        assert code == 0
        report = dict(line.split(": ", 1)
                      for line in capsys.readouterr().out.splitlines())
        first, last = (float(report[f"energy_total_{end}"])
                       for end in ("initial", "final"))
        drift = float(report["energy_drift"])
        if scenario == "hot-wall-cooldown":
            assert drift == last - first
        else:
            assert 0 < abs(drift) <= 1e-4 * (last - first)

    def test_zero_pivot_exit_1_names_step_and_unknown(self, capsys, tmp_path,
                                                       singular_band):
        # a Jacobian with a zero column fails the step cleanly: the last
        # ledger row and the unknown behind the pivot, no traceback
        cfg = write_cfg(tmp_path, dict(TINY, scenario="hot-wall-cooldown"))
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert "last ledger row: 0.0," in err
        assert "error: step 1: implicit midpoint step failed: singular " \
            "Jacobian: zero pivot at unknown 0 (solid entropy[1]), " \
            "azimuthal mode 0" in err
        # the ledger so far, the header and the initial row, is on disk
        ledger = out_dir / "hot-wall-cooldown_ledger.csv"
        assert f"partial ledger: {ledger}" in err
        header, row = ledger.read_text().splitlines()
        assert header == LEDGER_HEADER
        assert f"last ledger row: {row}" in err

    def test_unwritable_partial_ledger_keeps_the_step_error(
            self, capsys, tmp_path, singular_band):
        # a directory in place of the ledger: the failed step is still the
        # error reported, after the failed write of the ledger so far
        out_dir = tmp_path / "out"
        (out_dir / "hot-wall-cooldown_ledger.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, dict(TINY, scenario="hot-wall-cooldown"))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert "partial ledger not written: " in err
        assert "partial ledger: " not in err
        assert err.splitlines()[-1].startswith(
            "error: step 1: implicit midpoint step failed: singular")

    @pytest.mark.parametrize("blocked,step", [
        ("hot-wall-cooldown_heat_0.csv", 0),
        ("hot-wall-cooldown_ledger.csv", None)],
        ids=["hot-wall-cooldown_heat_0.csv", "hot-wall-cooldown_ledger.csv"])
    def test_unwritable_output_exit_1(self, capsys, tmp_path, blocked, step):
        # a directory in place of a snapshot or of the ledger: an error
        # line naming the file and exit 1, no traceback; the initial
        # snapshot is step 0 and leaves the ledger so far on disk
        out_dir = tmp_path / "out"
        (out_dir / blocked).mkdir(parents=True)
        cfg = write_cfg(tmp_path, dict(TINY, scenario="hot-wall-cooldown"))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        last = err.splitlines()[-1]
        assert "Is a directory" in last and str(out_dir / blocked) in last
        if step is None:
            assert err.startswith("error: [Errno")
        else:
            assert last.startswith(f"error: step {step}: [Errno")
            ledger = out_dir / "hot-wall-cooldown_ledger.csv"
            assert f"partial ledger: {ledger}" in err
            assert len(ledger.read_text().splitlines()) == 2

    def test_unwritable_last_snapshot_keeps_the_ledger(self, capsys,
                                                       tmp_path):
        # the snapshot of the last of five steps cannot be written: the
        # error names step 5 and the ledger of all five steps is on disk
        out_dir = tmp_path / "out"
        (out_dir / "hot-wall-cooldown_heat_5.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, dict(
            TINY, scenario="hot-wall-cooldown",
            sim={"dt": 5e-4, "t_end": 2.5e-3}))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1].startswith("error: step 5: [Errno")
        ledger = out_dir / "hot-wall-cooldown_ledger.csv"
        assert f"partial ledger: {ledger}" in err
        header, *rows = ledger.read_text().splitlines()
        assert header == LEDGER_HEADER
        assert [float(row.split(",")[0]) for row in rows] == \
            pytest.approx([k * 5e-4 for k in range(6)])
        assert f"last ledger row: {rows[-1]}" in err

    def test_failed_run_gate_exit_1_names_the_step(self, capsys, tmp_path,
                                                    monkeypatch):
        # eta_integrals scaled by 1.001: the channel's port power, taken
        # through the azimuthal pair (m_az, eta_integrals), misses the
        # wall's by about 1e-3 of the power exchanged, and the power gate
        # fails at the first step that exchanges any
        def perturbed(cfg):
            problem = build_problem(cfg)
            ops = problem.ops
            return dataclasses.replace(problem, ops=dataclasses.replace(
                ops, eta_integrals=1.001 * ops.eta_integrals))

        monkeypatch.setattr(cli, "build_problem", perturbed)
        cfg = write_cfg(tmp_path, dict(TINY, scenario="hot-wall-cooldown"))
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.splitlines()[0] == "scenario: hot-wall-cooldown"
        assert err.startswith("gate failed: step 1: coupling power residual")

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

    @pytest.mark.parametrize("failure", STEP_FAILURES)
    def test_step_failure_exit_1_with_last_row(self, capsys, tmp_path,
                                               monkeypatch, failure):
        data, message = fail_step_1(monkeypatch, failure)
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: step 1: {message}" in err
        assert "last ledger row" in err
        ledger = out_dir / "hot-wall-cooldown_ledger.csv"
        assert f"partial ledger: {ledger}" in err
        assert len(ledger.read_text().splitlines()) == 2

    def test_huge_step_count_reaches_step_1(self, capsys, tmp_path,
                                            monkeypatch):
        # 1e20 steps pass validation and the run allocates nothing per
        # planned step: a failure of step 1 names it, with its ledger
        def fail(*args):
            raise StepFailureError("implicit midpoint step did not converge",
                                   residual=1.0, iterations=0)

        monkeypatch.setattr(simulate.CoupledSimulation, "step", fail)
        data = dict(TINY, scenario="hot-wall-cooldown",
                    sim={"dt": 1e-10, "t_end": 1e10})
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: step 1: implicit midpoint step did not converge" in err
        ledger = out_dir / "hot-wall-cooldown_ledger.csv"
        assert f"partial ledger: {ledger}" in err
        assert len(ledger.read_text().splitlines()) == 2

    def test_invalid_end_state_exit_1_with_last_row(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(simulate, "NEWTON_MAX_ITERS", 80)
        data = {"scenario": "acoustic-pulse",
                "scenario_params": {"amplitude": 3.0},
                "sim": {"dt": 0.001, "t_end": 0.05}}
        cfg = write_cfg(tmp_path, data)
        code = cli.main(["simulate", "--config", cfg,
                         "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: step 34: " in err
        assert "invalid state: specific volume" in err
        assert "last ledger row" in err

    @pytest.mark.parametrize("params,name", [
        ({"width": 0}, "width"), ({"width": -0.05}, "width"),
        ({"amplitude": 1e9}, "amplitude"), ({"width": 1e-310}, "width"),
        ({"center": 1e308}, "center")])
    def test_pulse_without_finite_start_exit_2(self, capsys, tmp_path,
                                               params, name):
        # rejected before the run: one error line naming the parameter,
        # no ledger
        data = {"scenario": "acoustic-pulse", "sim": {"t_end": 0.0025},
                "scenario_params": params}
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: acoustic-pulse {name} ")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("scenario,params,name", [
        ("hot-wall-cooldown", {"t_solid": 1e308}, "t_solid"),
        ("equilibrium", {"t_common": 1e308}, "t_common"),
        ("heated-ext-face", {"t_common": 1e308}, "t_common"),
        ("heated-ext-face", {"t_ext": 1e308}, "t_ext"),
        ("acoustic-pulse", {"t_base": 1e308}, "t_base")])
    def test_overflowing_temperature_exit_2(self, capsys, tmp_path,
                                            scenario, params, name):
        # finite and positive, but the initial energy overflows: one error
        # line naming the parameter before the run, no ledger
        data = dict(TINY, scenario=scenario, scenario_params=params)
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {scenario} {name} 1e+308 ")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_huge_but_representable_temperature_runs(self, capsys, tmp_path):
        data = dict(TINY, scenario_params={"t_solid": 1e300})
        code = cli.main(["simulate", "--config", write_cfg(tmp_path, data),
                         "--output", str(tmp_path / "out")])
        assert code == 0


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

    def test_zero_drift_level_reports_no_order(self, tmp_path):
        # the middle level's energy balance closes to 0.0 on this run; the
        # orders next to a zero drift read "-", and the report is written
        data = {"scenario": "acoustic-pulse", "sim": {"t_end": 0.005}}
        cfg = write_cfg(tmp_path, data)
        out_dir = tmp_path / "conv"
        code = cli.main(["convergence", "--config", cfg,
                         "--output", str(out_dir)])
        assert code == 0
        lines = (out_dir / "convergence.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines[1:]]
        assert [r[1] for r in rows] == ["20", "40", "80"]
        for prev, row in zip(rows, rows[1:]):
            zero = float(prev[2]) == 0.0 or float(row[2]) == 0.0
            assert (row[3] == "") == zero

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

    def test_unwritable_report_exit_1(self, capsys, tmp_path):
        # a directory in place of convergence.csv: an error line naming it
        # and exit 1, no traceback
        out_dir = tmp_path / "conv"
        (out_dir / "convergence.csv").mkdir(parents=True)
        data = dict(TINY)
        data["sim"] = {"dt": 5e-4, "t_end": 5e-3}
        code = cli.main(["convergence", "--config", write_cfg(tmp_path, data),
                         "--output", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Is a directory" in err
        assert str(out_dir / "convergence.csv") in err

    @pytest.mark.parametrize("failure", STEP_FAILURES)
    def test_step_failure_exit_1_names_the_step(self, capsys, tmp_path,
                                                monkeypatch, failure):
        data, message = fail_step_1(monkeypatch, failure)
        code = cli.main(["convergence", "--config", write_cfg(tmp_path, data),
                         "--output", str(tmp_path / "conv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: step 1: {message}")
        assert err.count("\n") == 1  # the error line alone, no traceback


@pytest.mark.parametrize("command", ["simulate", "convergence"])
def test_uncreatable_output_dir_exit_2(capsys, tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main([command, "--config", write_cfg(tmp_path, TINY),
                     "--output", str(blocker / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


# a mesh that numpy refuses to lay out: a real one whose arrays cannot be
# indexed (numpy raises before it allocates), and a build that runs out of
# memory, faked so that no test allocates it
HUGE = 2 ** 60
UNBUILDABLE = [
    pytest.param(command, None, id=f"{command}-too-big")
    for command in ("verify", "simulate", "convergence")] + [
    pytest.param(command, patched, id=f"{command}-{patched}")
    for command, patched in (
        ("verify", "assemble_coupling"), ("simulate", "assemble_coupling"),
        ("simulate", "HeatSystem"), ("simulate", "FluidSystem"),
        ("convergence", "HeatSystem"))]


@pytest.mark.parametrize("command,patched", UNBUILDABLE)
def test_unbuildable_mesh_exit_2_names_the_geometry(capsys, tmp_path,
                                                    monkeypatch, command,
                                                    patched):
    if patched is None:
        data = {"geometry": {"n_ax": HUGE, "n_az": 1, "n_th": 1,
                             "n_fluid": HUGE}}
        geometry = f"geometry {HUGE}x1x1 (n_fluid {HUGE})"
        reason = "array is too big"
    else:
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 37.3 GiB")

        monkeypatch.setattr(driver, patched, out_of_memory)
        data, geometry = TINY, "geometry 4x3x2 (n_fluid 4)"
        reason = "Unable to allocate 37.3 GiB"
    argv = [command, "--config", write_cfg(tmp_path, data)]
    if command != "verify":
        argv += ["--output", str(tmp_path / "out")]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {geometry}: its arrays cannot be built: ")
    assert reason in err and err.count("\n") == 1
