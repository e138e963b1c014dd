"""All six end-to-end metrics for every workload, as one table, with
the wall times that pass_s and setup_s are scaled from.

    python3 perfbench/summary.py --seed 1 --seconds 25

Runs run.py once per workload, each in its own process, and prints the
figures of its ``report:`` line with their units, after the failures and
twin misses of each run.  Exits non-zero if any run fails or reports a
wrong output; twin misses alone do not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cy-nerves", "segal-nerves", "localize-sweep")


def run_workload(name, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"summary.py: {name} failed:\n{done.stderr}")
    report = next(json.loads(x[len("report: "):]) for x in lines if x.startswith("report: "))
    result = json.loads(lines[-1])
    return report, result, [x for x in lines if x.startswith(("  FAILED", "  MISSED"))]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args(argv)

    rows, ok = {}, True
    for name in WORKLOADS:
        report, result, failures = run_workload(name, args.seed, args.seconds)
        rows[name] = report
        ok = ok and result["correct"]
        for line in failures:
            print(f"{name}:{line}")
    print(f"{'metric':<18} {'unit':<6}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for m in END_TO_END:
        unit = rows[WORKLOADS[0]][m]["unit"]
        cells = "".join(f"{rows[w][m]['value']:>16.6g}" for w in WORKLOADS)
        print(f"{m:<18} {unit:<6}{cells}")
    print(f"{'samples (pass_s)':<25}" + "".join(f"{rows[w]['pass_s']['samples']:>16}" for w in WORKLOADS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
