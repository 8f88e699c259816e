"""Outside-in round-trip benchmark of the DNA storage pipeline.

    python3 perfbench/run.py --workload table3-nwa --seed 1 --seconds SECONDS --trace 0

Runs one workload as a closed loop of one caller: each operation is one
``Pipeline.run`` (encode -> simulate -> channel-quality observer ->
cluster -> reconstruct -> decode, plus the provenance ledger where the
workload turns it on), the next starts when the previous one returns,
and every round trip's outputs are checked.  The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  ``BENCHMARK.json``'s ``run_seconds`` is the run length
the reference figures in README.md use.

``--check-workers`` instead runs the two-worker workloads once more at
one worker and confirms their consensus strands and decoded bytes are
identical.  ``--setup-only`` builds the workload's pipeline and exits: it
is the fresh interpreter whose start-up ``setup_s`` times.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from workloads import WORKLOADS, build, input_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(source):
        raise ImportError(f"repro imported from {repro.__file__}, not from {source}")


class Loop:
    """The closed loop: one caller, round trips back to back."""

    def __init__(self, name: str, seed: int, pipeline, args) -> None:
        self.name = name
        self.seed = seed
        self.pipeline = pipeline
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def round_trip(self, trip: int, trace=None):
        """Run and check one round trip; ``(wall, result)`` or ``None`` on failure."""
        from repro.observability import ProvenanceLedger

        data = input_bytes(self.name, self.seed, trip)
        ledger = ProvenanceLedger() if self.args.provenance else None
        self.attempted += 1
        root = trace.open("pipeline.run") if trace is not None else None
        start = time.perf_counter()
        try:
            result = self.pipeline.run(data, ledger=ledger)
        except Exception:  # a raising round trip is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            wall = time.perf_counter() - start
            if root is not None:
                trace.close(root)
        try:
            failures = self.check(data, result, trip)
        except Exception:  # a check that cannot read the output fails it
            failures = ["a check raised:\n" + traceback.format_exc()]
        if failures:
            for failure in failures:
                print(f"round trip {trip}: {failure}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        return wall, result

    def check(self, data: bytes, result, trip: int) -> list:
        """Every output check of one round trip; failure messages."""
        rng = random.Random(f"check:{self.name}:{self.seed}:{trip}")
        min_cluster = self.pipeline.config.min_cluster_size
        failures = checks.check_decoded(data, result)
        failures += checks.check_reads_and_clusters(result, self.args.coverage)
        failures += checks.check_channel_error(result, self.args.error_rate, rng)
        failures += checks.check_consensus(result, min_cluster)
        if self.args.provenance:
            failures += checks.check_ledger(result, rng)
        return failures


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def cold_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its built pipeline."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", name, "--seed", str(seed),
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {name!r} failed with exit code {child.returncode}")
    return ready - start


def run_plain(loop: Loop, seconds: float) -> dict:
    """Round trips back to back, each followed by one timed cold set-up.

    Times are reported as the fastest round trip and the fastest set-up
    of the run.  The host's speed drifts in phases of seconds to minutes,
    and a slow phase only ever adds time, so the fastest of a run's
    repetitions is the steadiest estimate of what the program costs; a
    median moves with however much of the run fell in slow phases.
    """
    walls, reads, exact, setups = [], [], [], []
    begin = time.perf_counter()
    trip = 0
    while True:
        outcome = loop.round_trip(trip)
        trip += 1
        if outcome is not None:
            wall, result = outcome
            walls.append(wall)
            reads.append(len(result.sequencing.reads))
            exact.append(checks.strands_exact(result))
        setups.append(cold_setup(loop.name, loop.seed))
        if time.perf_counter() - begin >= seconds:
            break
    if not walls:
        return {}
    print("round trips (s): " + json.dumps([round(w, 4) for w in walls]), file=sys.stderr)
    print("set-ups (s): " + json.dumps([round(s, 4) for s in setups]), file=sys.stderr)
    fastest = walls.index(min(walls))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(min(setups), "s"),
        "roundtrip_s": _metric(walls[fastest], "s"),
        "reads_per_s": _metric(reads[fastest] / walls[fastest], "reads/s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
        "strands_exact": _metric(statistics.median(exact), "strands"),
    }


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_traced(loop: Loop, seconds: float) -> dict:
    """Alternate untraced and traced round trips of the same input."""
    from layers import COUNT_METRICS, SELF_TIME_METRICS, LayerTrace

    trace = LayerTrace()
    reconstructor_cls = type(loop.pipeline.config.reconstructor)
    plain_walls, traced_walls, unreported, cpu = [], [], [], []
    per_trip: list = []
    roots: list = []
    begin = time.perf_counter()
    trip = 0
    while True:
        cpu_before = _cpu_seconds()
        outcome = loop.round_trip(trip)
        if outcome is not None:
            wall, result = outcome
            plain_walls.append(wall)
            unreported.append(wall - result.timings.total)
            cpu.append(_cpu_seconds() - cpu_before)
        trace.reset_counts()
        trace.install(reconstructor_cls)
        roots.append(len(trace.spans))
        try:
            outcome = loop.round_trip(trip, trace=trace)
        finally:
            trace.remove()
        if outcome is not None:
            traced_walls.append(outcome[0])
            per_trip.append(trace.layer_metrics(roots[-1]))
        trip += 1
        if time.perf_counter() - begin >= seconds:
            break
    OUT.mkdir(exist_ok=True)
    trace.dump(OUT / f"spans-{loop.name}-seed{loop.seed}.jsonl", roots)
    if not per_trip or not plain_walls:
        return {}
    metrics = {}
    for name in list(SELF_TIME_METRICS.values()) + ["clustering.merges_per_comparison"]:
        unit = "s" if name.endswith("_s") else "ratio"
        metrics[name] = _metric(statistics.median(t[name] for t in per_trip), unit)
    for name in COUNT_METRICS:
        metrics[name] = _metric(statistics.median(t[name] for t in per_trip), "count")
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["pipeline.unreported_s"] = _metric(statistics.median(unreported), "s")
    metrics["process.cpu_s"] = _metric(statistics.median(cpu), "s")
    metrics["process.worker_peak_rss_mb"] = _metric(children_kb / 1024, "MB")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced_walls) - statistics.median(plain_walls), "s"
    )
    return metrics


def check_workers(seed: int) -> int:
    """Workers-2 vs workers-1 identity for the two-worker workloads."""
    from repro.observability import ProvenanceLedger

    status = 0
    for name in ("bigpool-bma", "long-nww"):
        data = input_bytes(name, seed, 0)
        outputs = []
        for workers in (2, 1):
            pipeline, args = build(name, seed, workers=workers)
            ledger = ProvenanceLedger() if args.provenance else None
            result = pipeline.run(data, ledger=ledger)
            outputs.append((result.reconstructions, result.data))
        same = outputs[0] == outputs[1]
        print(
            f"{name}: workers 2 vs 1 consensus strands and decoded bytes "
            f"{'identical' if same else 'DIFFER'} "
            f"({len(outputs[0][0])} strands, {len(outputs[0][1])} bytes)"
        )
        status |= 0 if same else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--check-workers",
        action="store_true",
        help="confirm workers-1 and workers-2 outputs are identical, then exit",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the workload's pipeline, print 'ready' and exit",
    )
    args = parser.parse_args(argv)
    _import_program()
    if args.check_workers:
        return check_workers(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")

    pipeline, cli = build(args.workload, args.seed)
    loop = Loop(args.workload, args.seed, pipeline, cli)
    if args.trace:
        metrics = run_traced(loop, args.seconds)
    else:
        metrics = run_plain(loop, args.seconds)
    if not metrics:
        print("no round trip succeeded", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": loop.correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
