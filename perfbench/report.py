"""Every metric of every workload, by name and unit, in one table.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Runs run.py once per workload with --trace 0 and once with --trace 1 and
prints one line per metric.  Exits 1 if any run fails or reports a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("prime", "composite", "baseline", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            status |= result["failed"] > 0
            for name, metric in result["metrics"].items():
                print(f"  {workload:9} {name:28} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
