"""WES/p — the merge-based parallel RMAT variant (Section 3.2, Algorithm 3).

``P`` workers each generate ``|E|/P * (1 + epsilon)`` edges over the *whole*
adjacency matrix, then all edges are shuffled by a hash of the edge key and
each worker merge-deduplicates its incoming partition.  This is the paper's
RMAT/p baseline (their own distributed implementation used in Figure 11(b)).

Two duplicate-elimination variants, as in the paper:

- :class:`WespMemGenerator` — in-memory merge (fails the memory budget for
  graphs whose per-worker partition exceeds it, and suffers partition skew);
- :class:`WespDiskGenerator` — external sort per partition.

This module executes the P logical workers within one process (the data
movement and merge work is identical); :mod:`repro.dist.runner` runs the
same dataflow across real processes.
"""

from __future__ import annotations

import tempfile
from typing import Iterator

import numpy as np

from ..util.external_sort import (DEFAULT_FAN_IN, merge_chunk_items,
                                  sorted_unique)
from ..util.shuffle import partition_slices
from ..util.spill import SpillStore
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator,
                   StreamingDedupMixin)
from .rmat import rmat_key_batch

__all__ = ["local_key_set", "WespMemGenerator", "WespDiskGenerator"]

_TAG_WORKER = 7


def local_key_set(seed_matrix, scale: int, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Algorithm 3 lines 1-6 for one worker: ``count`` RMAT draws over
    the whole matrix as sorted, duplicate-free packed keys."""
    keys = rmat_key_batch(seed_matrix, scale, count, rng)
    keys.sort()
    return sorted_unique(keys)


class _WespBase(ScopeBasedGenerator):
    """Shared generate/shuffle phases of WES/p."""

    def __init__(self, *args, num_workers: int = 4, epsilon: float = 0.01,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.epsilon = epsilon

    @property
    def per_worker(self) -> int:
        """Edges each worker draws: ``|E|/P * (1 + epsilon)``."""
        return int(np.ceil(self.num_edges / self.num_workers
                           * (1 + self.epsilon)))

    def _map(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Algorithm 3 lines 1-7, one logical worker at a time.

        Each worker draws its edges, deduplicates them locally (lines
        1-6, the ``generate`` phase) and hash-partitions the sorted local
        set (line 7, the ``shuffle`` phase).  Yields ``(grouped,
        offsets)`` from :func:`~repro.util.shuffle.partition_slices`:
        the partition is stable, so every reducer's slice is already
        sorted.  Local duplicates are not counted here; callers derive
        them from :attr:`per_worker`.  After the last worker, records the
        reducer-side partition skew the paper blames for WES/p's scaling
        wall.
        """
        report = self.report
        sizes = np.zeros(self.num_workers, dtype=np.int64)
        for worker in range(self.num_workers):
            with report.time_phase("generate"):
                local = local_key_set(self.seed_matrix, self.scale,
                                      self.per_worker,
                                      self.rng(_TAG_WORKER, worker))
            with report.time_phase("shuffle"):
                grouped, offsets = partition_slices(local, self.num_workers)
                del local
            sizes += np.diff(offsets)
            yield grouped, offsets
            del grouped
        self.skew = (float(sizes.max() / max(sizes.mean(), 1.0))
                     if sizes.sum() > 0 else 1.0)


class WespMemGenerator(_WespBase):
    """WES/p with in-memory merge (the paper's RMAT/p-mem)."""

    name = "RMAT/p-mem"
    complexity = Complexity(
        "O(|E| log|V| / P) + T_shuffle + T_merge", "O(|E| / P)", "WES/p")

    def estimated_peak_bytes(self) -> int:
        # The largest post-shuffle partition must fit in one worker.  With
        # hashing the expectation is |E|/P, but skew pushes it higher; use
        # the expectation for the up-front check (skew shows up in results).
        return int(self.num_edges / self.num_workers
                   * BYTES_PER_EDGE_IN_MEMORY)

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        report = self.report
        partitions: list[list[np.ndarray]] = [
            [] for _ in range(self.num_workers)]
        for grouped, offsets in self._map():
            for w, parts in enumerate(partitions):
                parts.append(grouped[offsets[w]:offsets[w + 1]])
        with report.time_phase("merge"):
            merged_parts = []
            peak = 0
            for parts in partitions:
                keys = np.sort(np.concatenate(parts))
                if keys.size:
                    merged_parts.append(sorted_unique(keys))
                    peak = max(peak, keys.size * BYTES_PER_EDGE_IN_MEMORY)
        keys = np.sort(np.concatenate(merged_parts)) if merged_parts \
            else np.empty(0, dtype=np.int64)
        report.duplicates_discarded += (
            self.per_worker * self.num_workers - keys.size)
        report.realized_edges = keys.size
        report.peak_memory_bytes = peak
        return self.unpack_edges(keys)


class WespDiskGenerator(StreamingDedupMixin, _WespBase):
    """WES/p with external-sort merge (the paper's RMAT/p-disk).

    Each logical worker in turn generates and locally deduplicates its
    keys, hash-partitions them, and spills every reducer's (already
    sorted) slice as runs of at most ``batch_edges`` keys — the shape of
    :func:`repro.dist.wesp_runner._map_task`.  *One* global
    bounded-fan-in merge then streams the deduplicated union: the sorted
    union over all partitions equals the sorted union over all local
    sets, so the output is identical to :class:`WespMemGenerator`.  The
    map holds one worker's local set (``|E|/P`` keys) at a time; the
    merge reads ``spill_chunk`` keys per run (default
    ``batch_edges // fan_in``), so it holds ``O(batch_edges)`` keys.
    """

    name = "RMAT/p-disk"
    complexity = Complexity(
        "O(|E| log|V| / P) + T_shuffle + sort(|E|/P)", "O(batch)", "WES/p")

    def __init__(self, *args, batch_edges: int = 1 << 18,
                 spill_dir: str | None = None,
                 fan_in: int = DEFAULT_FAN_IN,
                 spill_chunk: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batch_edges = batch_edges
        self.spill_dir = spill_dir
        self.fan_in = fan_in
        #: Keys per merge-read chunk; defaults to
        #: ``batch_edges // fan_in`` (see :func:`merge_chunk_items`).
        self.spill_chunk = spill_chunk

    def estimated_peak_bytes(self) -> int:
        return self.batch_edges * BYTES_PER_EDGE_IN_MEMORY

    def iter_unique_key_chunks(self) -> Iterator[np.ndarray]:
        self.check_memory_budget()
        report = self.report
        chunk_items = merge_chunk_items(self.spill_chunk, self.batch_edges,
                                        self.fan_in)
        emitted = 0
        with tempfile.TemporaryDirectory(dir=self.spill_dir) as tmp:
            store = SpillStore(tmp)
            for grouped, offsets in self._map():
                with report.time_phase("merge"):
                    for w in range(self.num_workers):
                        for j in range(offsets[w], offsets[w + 1],
                                       self.batch_edges):
                            store.add_run(grouped[j:min(
                                j + self.batch_edges, offsets[w + 1])])
                del grouped
            with report.time_phase("merge"):
                for chunk in store.iter_unique(chunk_items=chunk_items,
                                               fan_in=self.fan_in):
                    emitted += int(chunk.size)
                    yield chunk
        report.duplicates_discarded += (
            self.per_worker * self.num_workers - emitted)
        report.realized_edges = emitted
        report.peak_memory_bytes = self.estimated_peak_bytes()
