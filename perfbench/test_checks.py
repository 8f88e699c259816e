"""Tests of the benchmark's own checks: they must be able to fail.

    python3 -m pytest perfbench

The edit distance is held against a brute-force recurrence, and every
output check is fed one real pipeline result and copies of it with a
single corruption, each of which that check must reject.
"""

from __future__ import annotations

import copy
import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402


def _brute_force(a: str, b: str) -> int:
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        for j in range(len(b) + 1):
            if i == 0 or j == 0:
                rows[i][j] = i + j
            else:
                rows[i][j] = min(
                    rows[i - 1][j] + 1,
                    rows[i][j - 1] + 1,
                    rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
    return rows[len(a)][len(b)]


def test_edit_distance_matches_brute_force():
    rng = random.Random(7)
    pairs = [
        (
            "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 12))),
            "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 12))),
        )
        for _ in range(400)
    ]
    pairs += [("", ""), ("", "ACG"), ("ACG", ""), ("AAAA", "TTTT")]
    assert checks.edit_distances(pairs) == [_brute_force(a, b) for a, b in pairs]


@pytest.fixture(scope="module")
def run():
    """One small ledger-recording round trip and its input."""
    from repro.clustering import ClusteringConfig
    from repro.codec import EncodingParameters
    from repro.observability import ProvenanceLedger
    from repro.pipeline import Pipeline, PipelineConfig
    from repro.reconstruction import BMAReconstructor
    from repro.simulation import ConstantCoverage, IIDChannel

    config = PipelineConfig(
        encoding=EncodingParameters(data_columns=20, parity_columns=8),
        channel=IIDChannel.from_total_rate(0.04),
        coverage=ConstantCoverage(8),
        clustering=ClusteringConfig(seed=3),
        reconstructor=BMAReconstructor(),
        seed=3,
    )
    data = random.Random(3).randbytes(400)
    result = Pipeline(config).run(data, ledger=ProvenanceLedger())
    return data, result


def test_checks_pass_on_a_real_round_trip(run):
    data, result = run
    rng = random.Random(0)
    assert checks.check_decoded(data, result) == []
    assert checks.check_reads_and_clusters(result, 8) == []
    assert checks.check_channel_error(result, 0.04, rng) == []
    assert checks.check_consensus(result, 2) == []
    assert checks.check_ledger(result, rng) == []
    assert checks.strands_exact(result) > 0


def test_flipped_decoded_byte_fails(run):
    data, result = run
    broken = copy.copy(result)
    broken.data = bytes([result.data[0] ^ 1]) + result.data[1:]
    assert checks.check_decoded(data, broken)


def test_dropped_read_index_fails(run):
    _, result = run
    broken = copy.deepcopy(result)
    broken.clustering.clusters[0].pop()
    assert checks.check_reads_and_clusters(broken, 8)


def test_changed_consensus_base_fails(run):
    _, result = run
    broken = copy.deepcopy(result)
    references = set(result.encoded.references)
    position = next(
        i for i, strand in enumerate(broken.reconstructions) if strand in references
    )
    strand = broken.reconstructions[position]
    swapped = "C" if strand[5] != "C" else "G"
    broken.reconstructions[position] = strand[:5] + swapped + strand[6:]
    assert checks.check_consensus(broken, 2)


def test_dropped_consensus_strand_fails(run):
    _, result = run
    broken = copy.deepcopy(result)
    broken.reconstructions.pop()
    assert checks.check_consensus(broken, 2)
    # The program scores no reconstruction when the counts differ.
    broken.quality.reconstruction = None
    assert checks.check_consensus(broken, 2)


def test_channel_error_outside_band_fails(run):
    _, result = run
    assert checks.check_channel_error(result, 0.2, random.Random(0))


def test_wrong_ledger_edit_distance_fails(run):
    _, result = run
    broken = copy.deepcopy(result)
    for record in broken.provenance.strands:
        record.read_edits = [edits + 1 for edits in record.read_edits]
    assert checks.check_ledger(broken, random.Random(0))
    broken = copy.deepcopy(result)
    broken.provenance.summary.verdicts["ok"] += 1
    assert checks.check_ledger(broken, random.Random(0))
    broken = copy.copy(result)
    broken.provenance = None
    assert checks.check_ledger(broken, random.Random(0))


def test_a_raising_check_fails_the_round_trip():
    """Output the checks cannot read is a failed round trip, not a crash."""
    loop_module = importlib.import_module("run")

    class Pipeline:
        config = SimpleNamespace(min_cluster_size=2)

        def run(self, data, ledger=None):
            return SimpleNamespace(data=data)

    flags = SimpleNamespace(provenance=None, coverage=10, error_rate=0.06)
    loop = loop_module.Loop("table3-nwa", 1, Pipeline(), flags)
    assert loop.round_trip(0) is None
    assert (loop.attempted, loop.failed, loop.correct) == (1, 1, False)
