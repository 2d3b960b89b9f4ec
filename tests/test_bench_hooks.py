"""The traced benchmark patches phmix names by attribute (bench/spans.py)
and raises if one is missing: entering and leaving its instrumentation
here keeps a rename or a prune of a hooked name from passing the tests."""

import inspect
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import phmix

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
