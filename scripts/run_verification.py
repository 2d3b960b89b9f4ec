#!/usr/bin/env python3
"""Exhaustive structural verification at a larger trial count than the CLI
default: adjointness, norm bound, Dirac pairing, transpose identity and the
resolved-port power balance."""

import sys

from phmix import default_config
from phmix.coupling import check_power_balance, check_transpose_identity
from phmix.dirac import check_adjointness, check_dirac_pairing, \
    operator_norm_bound_check
from phmix.driver import build_problem

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

ops = build_problem(default_config()).ops
reports = [
    check_adjointness(ops, trials, seed),
    operator_norm_bound_check(ops, trials, seed),
    check_dirac_pairing(ops, trials, seed),
    check_transpose_identity(ops),
    check_power_balance(ops, trials, seed),
]
for rep in reports:
    print(rep)
    print()
ok = all(rep.passed for rep in reports)
print("overall:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
