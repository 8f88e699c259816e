"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload long-nww --seeds 1-10

Each seed is one untraced ``run.py`` process of ``BENCHMARK.json``'s
``run_seconds``, run one after another.  For every metric the table gives
the median and quartiles over the runs (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of
the median; it ends with the round trips attempted and failed.  The raw
results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results = []
    for seed in _seeds(args.seeds):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in results[-1]["metrics"].items()
        ), file=sys.stderr)

    (HERE / "out").mkdir(exist_ok=True)
    name = f"spread-{args.workload}-seeds{args.seeds}.json"
    (HERE / "out" / name).write_text(json.dumps(results, indent=1))
    print(f"{args.workload}: {len(results)} runs of {seconds} s")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for metric, first in results[0]["metrics"].items():
        values = [result["metrics"][metric]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(
            f"{metric + ' (' + first['unit'] + ')':34s} "
            f"{median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}"
        )
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    correct = all(result["correct"] for result in results)
    print(f"round trips: {attempted} attempted, {failed} failed; correct={correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
