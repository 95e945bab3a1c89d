"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root::

    python3 perfbench/spread.py --workload sibench --seeds 1-10 --seconds 10

Runs ``run.py`` once per seed (untraced), then prints each metric's
median, quartiles and inter-quartile range as a share of the median,
next to the bound ``BENCHMARK.json`` gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict = {}
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed",
                                str(seed), "--seconds", str(seconds),
                                "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:16s} {q2:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{quartile_spread(vals):7.3f} {bounds.get(name, 0):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
