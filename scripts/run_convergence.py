#!/usr/bin/env python3
"""Step-halving study on the cooldown demo: the energy-balance error per
unit time of the implicit midpoint scheme (`drift_per_time`, the plain
energy drift, as the cooldown has no external port) should fall by 4x per
halving.

Exits 1 when an observed drift order is off 2 by more than ORDER_TOL, or
when the azimuthal refinement gap, which is round-off, exceeds
REFINEMENT_GAP_TOL."""

import sys

from phmix import default_config
from phmix.driver import REFINEMENT_GAP_TOL, azimuthal_refinement_gap, \
    convergence_study

ORDER_TOL = 0.1  # the observed orders read 2.000 on the default cooldown

levels = int(sys.argv[1]) if len(sys.argv) > 1 else 3

cfg = default_config()
rows = convergence_study(cfg, levels=levels)
print(f"{'dt':>12} {'steps':>7} {'drift/time':>14} {'order':>7}")
failed = False
for row in rows:
    order = "-" if row.observed_order is None else f"{row.observed_order:.3f}"
    print(f"{row.dt:>12.3e} {row.steps:>7} {row.drift_per_time:>14.6e} "
          f"{order:>7}")
    if row.observed_order is not None and \
            not abs(row.observed_order - 2.0) <= ORDER_TOL:
        print(f"FAIL: observed drift order {row.observed_order:.3f} at "
              f"dt = {row.dt:.3e}, expected 2 within {ORDER_TOL}")
        failed = True
gap = azimuthal_refinement_gap(cfg)
print(f"azimuthal refinement gap for constant wall output: {gap:.3e}")
if not gap <= REFINEMENT_GAP_TOL:
    print(f"FAIL: azimuthal refinement gap above {REFINEMENT_GAP_TOL:.0e}")
    failed = True
sys.exit(1 if failed else 0)
