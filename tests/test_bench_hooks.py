"""The traced benchmark patches phmix names by attribute (bench/spans.py)
and raises if one is missing: entering and leaving its instrumentation
here keeps a rename or a prune of a hooked name from passing the tests."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import phmix
from phmix import build_problem, build_scenario, default_config, \
    make_simulation
from phmix.chord import ChordSolver
from phmix.errors import StepFailureError
from phmix.simulate import CoupledSimulation

BENCH = Path(__file__).resolve().parent.parent / "bench"


def namespaces():
    """Every namespace the tracer may patch: the phmix modules, the classes
    they define, and the LAPACK entry points."""
    mods = [m for name, m in sys.modules.items()
            if name == "phmix" or name.startswith("phmix.")]
    classes = {cls for m in mods for _, cls in inspect.getmembers(
        m, inspect.isclass) if cls.__module__.startswith("phmix")}
    return [*mods, *classes, scipy.linalg, np.linalg]


def snapshot():
    return {(id(ns), key): value for ns in namespaces()
            for key, value in list(vars(ns).items())}


def test_instrument_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = snapshot()
    with spans.Tracer().instrument(0):
        patched = {k for k, v in snapshot().items() if before.get(k) is not v}
    # the snapshot sees the patched methods, functions and LAPACK names
    assert (id(phmix.heat.HeatSystem), "assemble_loads") in patched
    assert (id(phmix.dirac), "j_matrix") in patched
    assert (id(scipy.linalg), "lu_factor") in patched
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("singular", [False, True])
def test_build_hook_is_on_the_build_path(monkeypatch, singular):
    # the traced run times every Jacobian build through
    # CoupledSimulation._build_jacobian: each build a run counts passes
    # through it, the build of a zero-pivot step's retry too
    calls = []
    hook = CoupledSimulation._build_jacobian
    monkeypatch.setattr(CoupledSimulation, "_build_jacobian",
                        lambda sim, ports: calls.append(ports)
                        or hook(sim, ports))
    if singular:
        band = ChordSolver.band

        def zero_column(solver, *args):
            # the mode band's column of vel[0] (mode 0)
            out = band(solver, *args)
            out[:, solver.layout.rank[solver.n - 2 * solver.fluid.n_dofs]] \
                = 0.0
            return out

        monkeypatch.setattr(ChordSolver, "band", zero_column)
    cfg = default_config(geometry={"n_ax": 6, "n_az": 4, "n_th": 3,
                                   "n_fluid": 6},
                         sim={"dt": 5e-4, "t_end": 5e-3})
    problem = build_problem(cfg)
    setup = build_scenario(cfg.scenario, problem.heat, problem.fluid, {})
    sim = make_simulation(problem, cfg, setup)
    if singular:
        with pytest.raises(StepFailureError, match="zero pivot"):
            sim.run(setup)
        assert len(calls) == sim.chord.builds == 2
    else:
        result = sim.run(setup)
        assert len(calls) == result.jacobian_builds >= 1


def test_one_round_of_each_workload_is_correct(monkeypatch, tmp_path):
    # the benchmark's construct and checks read phmix names in plain code
    # (problem.heat, ops.surface.boundary, dirac.integrate_out, ...): one
    # round of each workload, in process, keeps a prune of them from passing
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    for name in ("cooldown-pair", "large-mesh", "verify-large"):
        workload = workloads.make_workload(name, 1, str(tmp_path),
                                           traced=True)
        workload.construct()
        _, _, outputs = workload.execute([])
        attempted, failed, _, problems = workload.check(outputs)
        assert attempted > 0 and failed == 0, name
        assert problems == [], name
