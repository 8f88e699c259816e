"""Per-layer tracing, done from outside the program.

:class:`LayerTrace` wraps public entry points of the program's layers
while it is installed, records one span (name, start, end, parent) per
call in memory, and counts work at the same boundaries.  Functions are
rebound in every loaded ``repro`` module that imported them, methods on
their classes; :meth:`LayerTrace.remove` restores the originals, so an
untraced round trip runs the program untouched.

Calls made inside worker processes are not seen: on the two-worker
workloads the ``parallel`` fan-out spans (the time the driving process
blocks on its workers) stand in for them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Seconds metrics: the self time of each layer's spans, per round trip.
SELF_TIME_METRICS = {
    "pipeline.run": "pipeline.self_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "simulation.sequence": "simulation.sequence_s",
    "observers.channel_quality": "observers.channel_quality_s",
    "observers.provenance": "observers.provenance_s",
    "observers.scoring": "observers.scoring_s",
    "clustering.cluster": "clustering.cluster_s",
    "reconstruction.reconstruct": "reconstruction.reconstruct_s",
    "dna.poa": "dna.poa_s",
    "dna.nw": "dna.nw_s",
    "dna.myers": "dna.myers_s",
    "parallel.fanout": "parallel.blocked_s",
}

#: Count metrics, summed over one round trip.
COUNT_METRICS = (
    "codec.strands",
    "codec.clean_rows",
    "codec.corrected_rows",
    "codec.symbols_corrected",
    "simulation.reads",
    "observers.channel_quality_reads",
    "clustering.signature_comparisons",
    "clustering.edit_comparisons",
    "clustering.merges",
    "clustering.clusters",
    "reconstruction.clusters",
    "reconstruction.reads",
    "dna.poa_sequences",
    "dna.nw_alignments",
    "dna.myers_lanes",
    "parallel.fanouts",
    "parallel.chunks",
)


class LayerTrace:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: ``[name, start, end, parent]``; times relative to :attr:`epoch`,
        #: parent is an index into this list or -1
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self.epoch, 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self.epoch
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, after=None, when=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------

    def _method(self, cls, attr: str, name: str, after=None, when=None) -> None:
        own = cls.__dict__.get(attr)
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), after, when))
        if own is None:
            self._undo.append(lambda: delattr(cls, attr))
        else:
            self._undo.append(lambda: setattr(cls, attr, own))

    def _function(self, fn: Callable, name: str, after=None, when=None) -> None:
        wrapper = self._wrap(name, fn, after, when)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        lambda module=module, key=key: setattr(module, key, fn)
                    )

    def install(self, reconstructor_cls) -> None:
        """Wrap every layer's entry points (see the package README)."""
        from repro.clustering.metrics import cluster_quality
        from repro.clustering.rashtchian import RashtchianClusterer
        from repro.codec.decoder import DNADecoder
        from repro.codec.encoder import DNAEncoder
        from repro.dna.alignment import NWAligner
        from repro.dna.distance import myers_levenshtein_fixed
        from repro.dna.distance_batch import myers_levenshtein_batch
        from repro.dna.poa import PartialOrderGraph
        from repro.observability.provenance import ProvenanceLedger
        from repro.parallel.pool import WorkerPool
        from repro.pipeline.quality import decoding_quality, reconstruction_quality
        from repro.simulation.coverage import sequence_pool
        from repro.simulation.observed import observe_channel_quality

        def encoded(counts, args, pool):
            counts["codec.strands"] += len(pool.references)

        def decoded(counts, args, result):
            report = result[1]
            counts["codec.clean_rows"] += report.clean_rows
            counts["codec.corrected_rows"] += report.corrected_rows
            counts["codec.symbols_corrected"] += report.symbols_corrected

        def sequenced(counts, args, run):
            counts["simulation.reads"] += len(run.reads)

        def observed(counts, args, quality):
            if quality is not None:
                counts["observers.channel_quality_reads"] += quality.reads_sampled

        def clustered(counts, args, result):
            counts["clustering.signature_comparisons"] += result.signature_comparisons
            counts["clustering.edit_comparisons"] += result.edit_comparisons
            counts["clustering.merges"] += result.merges
            counts["clustering.clusters"] += len(result.clusters)

        def reconstructed(counts, args, consensus):
            clusters = args[1]
            counts["reconstruction.clusters"] += len(clusters)
            counts["reconstruction.reads"] += sum(len(cluster) for cluster in clusters)

        def poa(counts, args, _):
            counts["dna.poa_sequences"] += 1

        def nw(counts, args, _):
            counts["dna.nw_alignments"] += 1

        def myers(counts, args, _):
            counts["dna.myers_lanes"] += len(args[1])

        def myers_one(counts, args, _):
            counts["dna.myers_lanes"] += 1

        def outside_myers(*args, **kwargs):
            # the batch kernel falls back to the scalar one per lane
            return not self._stack or self.spans[self._stack[-1]][0] != "dna.myers"

        def fans_out(pool, fn, items, extra=None, min_items=None):
            threshold = pool.min_items if min_items is None else min_items
            return pool.workers > 1 and len(items) >= threshold

        def fanned_out(counts, args, _):
            counts["parallel.fanouts"] += 1
            counts["parallel.chunks"] += args[0].last_shards

        self._method(DNAEncoder, "encode", "codec.encode", encoded)
        self._method(DNADecoder, "decode", "codec.decode", decoded)
        self._function(sequence_pool, "simulation.sequence", sequenced)
        self._function(
            observe_channel_quality, "observers.channel_quality", observed
        )
        for attr in (
            "record_sequencing",
            "record_clustering",
            "record_reconstruction",
            "finalize",
        ):
            self._method(ProvenanceLedger, attr, "observers.provenance")
        for fn in (cluster_quality, reconstruction_quality, decoding_quality):
            self._function(fn, "observers.scoring")
        self._method(RashtchianClusterer, "cluster", "clustering.cluster", clustered)
        self._method(
            reconstructor_cls,
            "reconstruct_all",
            "reconstruction.reconstruct",
            reconstructed,
        )
        self._method(PartialOrderGraph, "add_sequence", "dna.poa", poa)
        self._method(NWAligner, "align", "dna.nw", nw)
        self._function(myers_levenshtein_batch, "dna.myers", myers)
        self._function(
            myers_levenshtein_fixed, "dna.myers", myers_one, when=outside_myers
        )
        self._method(
            WorkerPool, "run_chunks", "parallel.fanout", fanned_out, when=fans_out
        )

    def remove(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            self._undo.pop()()

    # -- per-layer metrics ---------------------------------------------

    def layer_metrics(self, root: int) -> Dict[str, float]:
        """Self times and counts of the round trip rooted at span *root*.

        A span's self time is its duration minus its children's; the
        layer's figure sums that over the layer's spans, so these figures
        partition the round trip.  A fan-out's blocked time is the one
        exception: it stays inside the layer that fanned out (the work is
        that layer's, done in workers) and ``parallel.blocked_s`` reports
        it alongside.  Counts are those gathered since the round trip's
        root span opened.
        """
        metrics = {name: 0.0 for name in SELF_TIME_METRICS.values()}
        child_time: Dict[int, float] = defaultdict(float)
        spans = self.spans[root:]
        for offset, (name, start, end, parent) in enumerate(spans):
            if offset and name != "parallel.fanout":
                child_time[parent] += end - start
        for offset, (name, start, end, _) in enumerate(spans):
            self_time = end - start - child_time[root + offset]
            metrics[SELF_TIME_METRICS[name]] += self_time
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0.0)
        comparisons = metrics["clustering.signature_comparisons"]
        metrics["clustering.merges_per_comparison"] = (
            metrics["clustering.merges"] / comparisons if comparisons else 0.0
        )
        return metrics

    def reset_counts(self) -> None:
        self.counts.clear()

    def dump(self, path, round_trips: Optional[List[int]] = None) -> None:
        """Write the spans as JSON lines: name, start, end, parent, round trip."""
        import json

        roots = round_trips or []
        with open(path, "w") as handle:
            trip = -1
            for index, (name, start, end, parent) in enumerate(self.spans):
                if index in roots:
                    trip = roots.index(index)
                handle.write(
                    json.dumps(
                        {
                            "round_trip": trip,
                            "name": name,
                            "start": round(start, 7),
                            "end": round(end, 7),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
