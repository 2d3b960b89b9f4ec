"""Regenerate the reference figures in bench/README.md.

    python3 bench/reference.py [--seeds 10] [--seconds 25] [workload ...]

Runs bench/run.py once per seed (1..N) and workload, one run at a time,
and prints for every end-to-end metric the median, the quartiles and the
quartile spread as a share of the median, plus the failed share and the
set of output digests seen for each seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        correct = True
        digests = {}
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            digests[seed] = sorted({line.rsplit("digest=", 1)[1]
                                    for line in lines if "digest=" in line})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {args.seeds} runs of {args.seconds} s, "
              f"correct={correct}, failed {failed} of {attempted}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:15s} median {med:.6g} {units[name]}  "
                  f"quartiles {q1:.6g} .. {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}")
        for seed, seen in digests.items():
            print(f"  seed {seed} digest {' '.join(d[:16] for d in seen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
