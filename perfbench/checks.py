"""Output checks applied to every round trip, and the edit distance they use.

Each ``check_*`` function takes what one ``Pipeline.run`` returned and
gives back a list of failure messages (empty when the output is right).
The checks share no code with the program: the edit distance below is the
benchmark's own, and the consensus count is rebuilt from the run's
clusters and read origins by plain string comparison.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

#: Realised per-base edit distance of sampled reads must lie within this
#: factor band of the configured total channel rate.  An i.i.d. channel's
#: edits occasionally cancel (an insertion next to a deletion reads as one
#: substitution or as nothing), so the realised rate sits a few percent
#: under the configured one; 64 sampled reads keep sampling noise under
#: 6 % of the rate, so a band of +-25 % is more than four sigma wide.
ERROR_BAND = (0.75, 1.25)

#: Reads sampled per round trip for the channel-error and ledger checks.
SAMPLE_READS = 64


def edit_distances(pairs: Sequence[Tuple[str, str]]) -> List[int]:
    """Levenshtein distance (unit costs) of every ``(a, b)`` pair.

    All pairs advance together, one row of ``a`` at a time, as lanes of a
    numpy plane.  Within a row the insertion chain is resolved in closed
    form: ``D[i][j] = min_k (t[k] + j - k)``, a running minimum of
    ``t - j`` shifted back by ``j``, where ``t`` holds the row's
    substitution and deletion candidates.  Shorter strings are padded
    with codes that never match, and each lane's distance is read at its
    own ``(len(a), len(b))`` cell.
    """
    if not pairs:
        return []
    lanes = len(pairs)
    len_a = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    len_b = np.array([len(b) for _, b in pairs], dtype=np.int64)
    rows, width = int(len_a.max()), int(len_b.max())
    codes_a = np.full((lanes, max(rows, 1)), -1, dtype=np.int64)
    codes_b = np.full((lanes, width), -2, dtype=np.int64)
    for lane, (a, b) in enumerate(pairs):
        codes_a[lane, : len(a)] = [ord(char) for char in a]
        codes_b[lane, : len(b)] = [ord(char) for char in b]
    columns = np.arange(width + 1, dtype=np.int64)
    previous = np.broadcast_to(columns, (lanes, width + 1)).copy()
    result = np.where(len_a == 0, len_b, 0)
    candidates = np.empty((lanes, width + 1), dtype=np.int64)
    for i in range(1, rows + 1):
        mismatch = codes_b != codes_a[:, i - 1 : i]
        candidates[:, 0] = i
        np.minimum(
            previous[:, 1:] + 1, previous[:, :-1] + mismatch, out=candidates[:, 1:]
        )
        current = np.minimum.accumulate(candidates - columns, axis=1) + columns
        done = len_a == i
        result[done] = current[done, len_b[done]]
        previous = current
    return [int(value) for value in result]


def check_decoded(data: bytes, result) -> List[str]:
    """The decoded bytes equal the generated input."""
    if result.data == data:
        return []
    return [f"decoded {len(result.data)} bytes differ from the {len(data)}-byte input"]


def check_reads_and_clusters(result, coverage: int) -> List[str]:
    """Read count is strands x coverage; the clusters partition the reads."""
    failures = []
    reads = len(result.sequencing.reads)
    strands = len(result.encoded.references)
    if reads != strands * coverage:
        failures.append(f"{reads} reads, expected {strands} strands x {coverage}")
    members = sorted(index for cluster in result.clustering.clusters for index in cluster)
    if members != list(range(reads)):
        failures.append(
            f"clusters hold {len(members)} read indices "
            f"({len(set(members))} distinct), not a partition of {reads} reads"
        )
    return failures


def check_channel_error(result, configured_rate: float, rng: random.Random) -> List[str]:
    """Realised per-base error of sampled reads lies in :data:`ERROR_BAND`."""
    run = result.sequencing
    sample = rng.sample(range(len(run.reads)), min(SAMPLE_READS, len(run.reads)))
    pairs = [(run.reads[i], run.references[run.origins[i]]) for i in sample]
    bases = sum(len(reference) for _, reference in pairs)
    realised = sum(edit_distances(pairs)) / bases
    low, high = (factor * configured_rate for factor in ERROR_BAND)
    if low <= realised <= high:
        return []
    return [
        f"realised error {realised:.4f} outside [{low:.4f}, {high:.4f}] "
        f"around the configured {configured_rate}"
    ]


def _dominant_origin(cluster: Sequence[int], origins: Sequence[int]) -> int:
    """The origin most reads of *cluster* came from; ties go to the first seen."""
    votes = {}
    for index in cluster:
        votes[origins[index]] = votes.get(origins[index], 0) + 1
    best = max(votes.values())
    return next(origin for origin, count in votes.items() if count == best)


def exact_consensus_count(result, min_cluster_size: int) -> int:
    """Kept clusters whose consensus equals their dominant origin's reference."""
    origins = result.sequencing.origins
    references = result.encoded.references
    kept = [c for c in result.clustering.clusters if len(c) >= min_cluster_size]
    return sum(
        consensus == references[_dominant_origin(cluster, origins)]
        for cluster, consensus in zip(kept, result.reconstructions)
    )


def strands_exact(result) -> int:
    """Reference strands that some consensus reproduces verbatim."""
    return len(set(result.encoded.references) & set(result.reconstructions))


def check_consensus(result, min_cluster_size: int) -> List[str]:
    """The benchmark's exact-consensus count equals the program's."""
    failures = []
    kept = sum(len(c) >= min_cluster_size for c in result.clustering.clusters)
    if kept != len(result.reconstructions):
        failures.append(
            f"{len(result.reconstructions)} consensus strands for {kept} kept clusters"
        )
    ours = exact_consensus_count(result, min_cluster_size)
    if result.quality.reconstruction is None:
        return failures + ["the program reports no reconstruction quality"]
    theirs = result.quality.reconstruction.exact_matches
    if ours != theirs:
        failures.append(f"{ours} exact consensus strands counted, program reports {theirs}")
    return failures


def check_ledger(result, rng: random.Random) -> List[str]:
    """Ledger verdicts cover every strand; sampled read edits match ours."""
    if result.provenance is None:
        return ["the program returned no provenance ledger"]
    failures = []
    summary = result.provenance.summary
    strands = len(result.encoded.references)
    if sum(summary.verdicts.values()) != strands:
        failures.append(
            f"ledger verdicts sum to {sum(summary.verdicts.values())}, "
            f"expected {strands} strands"
        )
    run = result.sequencing
    recorded = [
        (read_id, edits, record.strand_id)
        for record in result.provenance.strands
        for read_id, edits in zip(record.read_ids, record.read_edits)
    ]
    sample = rng.sample(recorded, min(SAMPLE_READS, len(recorded)))
    ours = edit_distances(
        [(run.reads[read_id], run.references[strand]) for read_id, _, strand in sample]
    )
    for (read_id, edits, _), own in zip(sample, ours):
        if edits != own:
            failures.append(f"ledger gives read {read_id} edit distance {edits}, ours {own}")
    return failures
