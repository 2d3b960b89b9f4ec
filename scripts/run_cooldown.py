#!/usr/bin/env python3
"""Run the hot-wall cooldown demo and summarize the energy ledger.

The solid starts hot with the wall blended down to the coolant temperature,
the channel starts cold and at rest; both relax to the common equilibrium
temperature predicted by the lumped two-body energy balance.

Exits 1 if a step's coupling power residual exceeds 1e-12 of its
|P_couple_heat| or the total entropy falls in a step.
"""

import os
import sys

import numpy as np

from phmix import default_config, run_from_config
from phmix.fluid import eos

POWER_TOL = 1e-12  # coupling power residual, relative to |P_couple_heat|

out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/cooldown"
os.makedirs(out_dir, exist_ok=True)

cfg = default_config()
result = run_from_config(cfg, out_dir)
led = result.ledger

total = led.column("total")
s_tot = led.column("S_solid") + led.column("S_fluid")
rc = cfg.heat.rho * cfg.heat.c
volume = (cfg.geometry.b - cfg.geometry.a) * cfg.geometry.circumference \
    * cfg.geometry.depth
length = cfg.geometry.b - cfg.geometry.a
t_eq = (total[0] + rc * cfg.heat.t_ref * volume) \
    / (rc * volume + cfg.fluid.c_v * length)
_, t_fluid, _ = eos(result.fluid_state.phi, result.fluid_state.s, cfg.fluid)
p_rel = np.abs(led.column("P_couple_residual")[1:]) \
    / np.abs(led.column("P_couple_heat")[1:])
d_entropy = np.diff(s_tot)

print(f"steps:                  {result.steps}")
print(f"newton iterations:      {result.newton_iterations} "
      f"(at most {result.step_iterations.max()} per step)")
print(f"max final residual:     {result.step_residuals.max():.3e}")
print(f"jacobian builds:        {result.jacobian_builds}")
print(f"wall time:              {result.wall_time:.2f} s")
print(f"initial (Q, H):         {led.column('Q_heat')[0]:.4f}, "
      f"{led.column('H_fluid')[0]:.4f}")
print(f"final   (Q, H):         {led.column('Q_heat')[-1]:.4f}, "
      f"{led.column('H_fluid')[-1]:.4f}")
print(f"energy drift:           {total[-1] - total[0]:.3e}")
print(f"max coupling residual:  "
      f"{np.abs(led.column('P_couple_residual')).max():.3e} "
      f"({p_rel.max():.3e} of |P_couple_heat|)")
print(f"entropy change:         {s_tot[-1] - s_tot[0]:.6f} "
      f"(min step increment {d_entropy.min():.3e})")
print(f"two-body equilibrium T: {t_eq:.3f}")
print(f"final coolant T range:  [{t_fluid.min():.3f}, {t_fluid.max():.3f}]")
print(f"outputs in:             {out_dir}")

failed = False
if not p_rel.max() <= POWER_TOL:
    step = int(np.argmax(p_rel)) + 1
    print(f"FAIL: coupling power residual {p_rel.max():.3e} of "
          f"|P_couple_heat| in step {step}")
    failed = True
if not np.all(d_entropy >= 0):
    step = int(np.argmin(d_entropy)) + 1
    print(f"FAIL: total entropy fell by {-d_entropy.min():.3e} in step {step}")
    failed = True
sys.exit(1 if failed else 0)
