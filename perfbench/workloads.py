"""The benchmark's workloads and how each one is turned into program inputs.

Every workload is written as the flags of a ``repro pipeline`` command
line.  :func:`build` parses them with the program's own CLI parser and
assembles the :class:`~repro.pipeline.PipelineConfig` the same way the
``pipeline`` subcommand does, so a workload is exactly what a user of the
CLI would run.  The benchmark's ``--seed`` derives the pipeline seed and
every round trip's input bytes; the program sees only those.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    #: size of each round trip's generated input file
    file_bytes: int
    #: ``repro pipeline`` flags beyond the input/output paths and seed
    flags: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    # The paper's Table III setting with `repro pipeline` defaults: one
    # 80-strand encoding unit; scalar POA reconstruction carries the wall.
    "table3-nwa": Workload(file_bytes=1700, flags=()),
    # Six units at coverage 20 (480 strands, 9600 reads) with the ledger at
    # two workers: clustering, the ledger and the worker pool carry the wall.
    "bigpool-bma": Workload(
        file_bytes=10000,
        flags=(
            "--coverage", "20", "--algorithm", "bma", "--workers", "2",
            "--provenance", "ledger.jsonl",
        ),
    ),
    # One unit of 412-nt strands (100-byte payloads) at low coverage through
    # windowed POA: the quadratic channel-quality observer and windowed
    # consensus carry the wall.
    "long-nww": Workload(
        file_bytes=5000,
        flags=(
            "--payload-bytes", "100", "--error-rate", "0.04", "--coverage", "8",
            "--algorithm", "nww", "--workers", "2",
        ),
    ),
}


def pipeline_seed(seed: int) -> int:
    """The pipeline seed a benchmark seed stands for."""
    return random.Random(f"pipeline:{seed}").getrandbits(31)


def input_bytes(name: str, seed: int, round_trip: int) -> bytes:
    """The input file of one round trip: seeded random bytes."""
    return random.Random(f"{name}:{seed}:{round_trip}").randbytes(
        WORKLOADS[name].file_bytes
    )


def cli_args(name: str, seed: int, workers: int = 0) -> List[str]:
    """The ``repro pipeline`` argument list of *name*, optionally re-workered."""
    argv = ["pipeline", "input.bin", "output.bin", *WORKLOADS[name].flags]
    argv += ["--seed", str(pipeline_seed(seed))]
    if workers:
        argv += ["--workers", str(workers)]
    return argv


def build(name: str, seed: int, workers: int = 0):
    """Parse the workload's flags and build ``(pipeline, args)`` like the CLI.

    The flags are parsed by ``repro.cli``'s parser and the config is put
    together from the helpers ``cmd_pipeline`` itself uses, so the
    benchmark runs whatever ``repro pipeline`` would run.  Those helpers
    are private names of ``repro.cli``; ``cmd_pipeline`` cannot be called
    instead, as it reads and writes files and records the run.
    """
    from repro.cli import (
        _RECONSTRUCTORS,
        _channel_from_args,
        _encoding_from_args,
        build_parser,
    )
    from repro.clustering import ClusteringConfig
    from repro.pipeline import Pipeline, PipelineConfig
    from repro.simulation import ConstantCoverage

    args = build_parser().parse_args(cli_args(name, seed, workers))
    config = PipelineConfig(
        encoding=_encoding_from_args(args),
        channel=_channel_from_args(args),
        coverage=ConstantCoverage(args.coverage),
        clustering=ClusteringConfig(signature=args.signature, seed=args.seed),
        reconstructor=_RECONSTRUCTORS[args.algorithm](),
        seed=args.seed,
        workers=args.workers,
        quality_sample=args.quality_sample,
    )
    return Pipeline(config), args
