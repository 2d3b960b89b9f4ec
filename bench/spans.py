"""Span and count recording for the traced benchmark run.

Spans are recorded from the benchmark's side of each module boundary: while
a traced round runs, public functions and methods of phmix (plus the dense
LAPACK entry points the stepper and the Dirac check call) are replaced by
thin wrappers, and restored when the round ends.  Nothing inside phmix is
edited, and untraced rounds carry no wrapper but the per-step timer.

A span is (name, start, end, parent, round): `parent` is the index of the
enclosing span (-1 at top level) and `round` groups the spans of one round,
the benchmark's unit of work.  Everything stays in memory until `write`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from phmix import cli, coupling, dirac, driver, fem, fluid, heat, simulate

SPAN_FIELDS = ("name", "start", "end", "parent", "round")
LAYERS = ("driver", "fem", "heat", "fluid", "simulate", "dirac", "coupling",
          "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.round = -1
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        per_round = self.counts.setdefault(self.round, {})
        per_round[name] = per_round.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        """Return `fn` recorded as span `name`; `after(args)` runs on return."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.round])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if after is not None:
                    after(args)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self, round_id: int):
        """Install the layer wrappers for one round, then restore them."""
        self.round = round_id
        undo = []

        def patch(owner, attr, wrapped):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

        def patch_function(module, attr, name, after=None):
            # rebind every phmix namespace that imported the function by name
            fn = getattr(module, attr)
            wrapped = self.wrap(name, fn, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "phmix" or mod_name.startswith("phmix."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patch(mod, key, wrapped)

        def patch_method(cls, attr, name, after=None):
            patch(cls, attr, self.wrap(name, cls.__dict__[attr], after))

        def io_bytes(path_arg):
            return lambda args: self.count(
                "simulate.io_bytes", os.path.getsize(args[path_arg]))

        patch_function(driver, "build_problem", "driver.build_problem")
        patch_function(fem, "assemble_coupling", "fem.assemble_coupling")
        patch_method(fem.CouplingOperators, "solve_psi", "fem.solve_psi")
        patch_method(heat.HeatSystem, "__init__", "heat.init")
        patch_method(heat.HeatSystem, "assemble_loads", "heat.assemble_loads")
        patch_function(fluid, "eos", "fluid.eos")
        patch_function(simulate, "build_scenario", "simulate.build_scenario")
        patch_method(simulate.CoupledSimulation, "__init__", "simulate.init")
        patch_method(simulate.CoupledSimulation, "run", "simulate.run")
        patch_method(simulate.CoupledSimulation, "step", "simulate.step")
        # the stepper's Jacobian build has no public name; it is the one
        # private hook, and the span it gives covers the FD loop plus LU
        patch_method(simulate.CoupledSimulation, "_build_jacobian",
                     "simulate.jacobian_build")
        patch(scipy.linalg, "lu_factor",
              self.wrap("simulate.lu_factor", scipy.linalg.lu_factor))
        patch(scipy.linalg, "lu_solve",
              self.wrap("simulate.lu_solve", scipy.linalg.lu_solve))
        patch_function(simulate, "write_heat_snapshot",
                       "simulate.write_heat_snapshot", io_bytes(0))
        patch_function(simulate, "write_fluid_snapshot",
                       "simulate.write_fluid_snapshot", io_bytes(0))
        patch_method(simulate.EnergyLedger, "write", "simulate.ledger_write",
                     io_bytes(1))
        patch_function(dirac, "check_adjointness", "dirac.check_adjointness")
        patch_function(dirac, "operator_norm_bound_check",
                       "dirac.operator_norm_bound")
        patch_function(dirac, "check_dirac_pairing", "dirac.check_dirac_pairing")
        patch_function(dirac, "j_matrix", "dirac.j_matrix")
        patch(np.linalg, "matrix_rank",
              self.wrap("dirac.matrix_rank", np.linalg.matrix_rank))
        patch_function(coupling, "check_transpose_identity",
                       "coupling.check_transpose_identity")
        patch_function(coupling, "check_power_balance",
                       "coupling.check_power_balance")
        patch_function(coupling, "resolve_ports", "coupling.resolve_ports")
        patch_function(cli, "main", "cli.main")
        try:
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self.round = -1

    def summary(self, round_id: int) -> dict:
        """Calls and total seconds per span name, self seconds per layer,
        and the round's counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        n_spans = 0
        for idx, (name, start, end, _, rnd) in enumerate(self.spans):
            if rnd != round_id:
                continue
            n_spans += 1
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            self_s[name.split(".")[0]] += end - start - child_s[idx]
        return {"calls": calls, "total_s": total_s, "self_s": self_s,
                "counts": dict(self.counts.get(round_id, {})),
                "spans": n_spans}

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "span_fields": SPAN_FIELDS, "spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()}},
                      fh)
