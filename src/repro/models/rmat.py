"""RMAT — the WES (Whole Edges Scope) baseline (Section 2.1).

RMAT generates each edge by ``log2(|V|)`` recursive quadrant selections over
the whole adjacency matrix and keeps every generated edge in memory to
eliminate duplicates, giving O(|E| log|V|) time and O(|E|) space (Table 1).

Two variants are provided, matching Figure 11(a)'s bars:

- :class:`RmatMemGenerator` — in-memory duplicate elimination (the default
  RMAT); subject to the memory budget (O.O.M past the budget).
- :class:`RmatDiskGenerator` — duplicates eliminated by external sort on
  disk, trading memory for I/O (the paper measures it ~18.5x slower than
  TrillionG/seq).
"""

from __future__ import annotations

import tempfile
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, GenerationError
from ..util.external_sort import (DEFAULT_FAN_IN, merge_chunk_items,
                                  sorted_unique)
from ..util.spill import SpillStore
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator,
                   StreamingDedupMixin, dedup_edges)

__all__ = ["rmat_quadrant_bits", "rmat_key_batch", "rmat_edge_batch",
           "RmatMemGenerator", "RmatDiskGenerator"]

_TAG_EDGES = 1
_MAX_ROUNDS = 200
#: Deepest recursion whose packed key ``u * 2**levels + v`` fits int64.
_MAX_KEY_LEVELS = 31


def rmat_quadrant_bits(cum: np.ndarray, r: np.ndarray,
                       out: tuple[np.ndarray, np.ndarray, np.ndarray]
                       | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Source and destination bit of the quadrant each uniform in ``r``
    picks, given the seed matrix's cumulative sums ``cum = (c0, c1, c2)``.

    The quadrant index is the number of ``c_i <= r`` — what
    ``np.searchsorted(cum, r, side="right")`` returns — so with ``cum``
    non-decreasing its high bit is ``r >= c1`` and its low bit is the
    parity ``(r >= c0) ^ (r >= c1) ^ (r >= c2)``.  ``out`` is three
    boolean buffers shaped like ``r`` (source bits, destination bits,
    scratch); the first two are returned.
    """
    c0, c1, c2 = (float(c) for c in cum)
    if out is None:
        out = (np.empty(r.shape, dtype=bool), np.empty(r.shape, dtype=bool),
               np.empty(r.shape, dtype=bool))
    src, dst, scratch = out
    np.greater_equal(r, c1, out=src)
    np.greater_equal(r, c0, out=dst)
    np.logical_xor(dst, src, out=dst)
    np.greater_equal(r, c2, out=scratch)
    np.logical_xor(dst, scratch, out=dst)
    return src, dst


def rmat_key_batch(seed_matrix, levels: int, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` packed edge keys ``u * 2**levels + v`` (may repeat).

    The Figure 1(b) process, batched: each of the ``levels`` recursion
    steps draws one uniform per edge, picks a quadrant, and appends one
    bit to the source (high half of the key) and one to the destination
    (low half).  Appending both bits is ``key = 2 * key + src * 2**levels
    + dst``, so the key is built in place without ``(u, v)`` columns,
    on buffers allocated once per call.
    """
    if not 0 <= levels <= _MAX_KEY_LEVELS:
        raise ConfigurationError(
            f"levels must be in [0, {_MAX_KEY_LEVELS}] for int64 keys")
    cum = np.cumsum(seed_matrix.entries.ravel())[:-1]
    key = np.zeros(count, dtype=np.int64)
    r = np.empty(count, dtype=np.float64)
    term = np.empty(count, dtype=np.int64)
    bits = (np.empty(count, dtype=bool), np.empty(count, dtype=bool),
            np.empty(count, dtype=bool))
    high = np.int64(1) << np.int64(levels)
    for _ in range(levels):
        rng.random(out=r)
        src, dst = rmat_quadrant_bits(cum, r, bits)
        np.left_shift(key, 1, out=key)
        np.multiply(src, high, out=term)
        np.add(key, term, out=key)
        np.add(key, dst, out=key)
    return key


def rmat_edge_batch(seed_matrix, levels: int, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` edges as ``(u, v)`` rows: :func:`rmat_key_batch`
    unpacked (same draws, same edges)."""
    keys = rmat_key_batch(seed_matrix, levels, count, rng)
    low = (np.int64(1) << np.int64(levels)) - 1
    return np.column_stack([keys >> levels, keys & low])


class RmatMemGenerator(ScopeBasedGenerator):
    """RMAT with in-memory duplicate elimination (WES)."""

    name = "RMAT-mem"
    complexity = Complexity("O(|E| log|V|)", "O(|E|)", "WES")

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        report = self.report
        keys = np.empty(0, dtype=np.int64)
        shortfall = self.num_edges
        with report.time_phase("generate"):
            for _ in range(_MAX_ROUNDS):
                new = rmat_key_batch(self.seed_matrix, self.scale,
                                     shortfall, rng)
                new.sort()
                merged = np.sort(np.concatenate([keys, new]))
                unique = sorted_unique(merged)
                report.duplicates_discarded += merged.size - unique.size
                keys = unique
                shortfall = self.num_edges - keys.size
                if shortfall <= 0:
                    break
            else:
                raise GenerationError(
                    "RMAT failed to collect |E| distinct edges")
        report.realized_edges = keys.size
        report.peak_memory_bytes = keys.size * BYTES_PER_EDGE_IN_MEMORY
        return self.unpack_edges(keys)


class RmatDiskGenerator(StreamingDedupMixin):
    """RMAT with external-sort duplicate elimination (WES, disk-based).

    Generates ``|E| * (1 + epsilon)`` candidate edges in bounded-memory
    batches, spills sorted runs to disk (atomically, see
    :mod:`repro.util.spill`), and streams the multi-pass bounded-fan-in
    merge with duplicates dropped.  The merge reads ``spill_chunk`` keys
    per run (default ``batch_edges // fan_in``), so peak memory is
    ``O(batch_edges)`` keys end to end — never the edge set — and
    :meth:`write_to` can produce graphs larger than RAM.
    """

    name = "RMAT-disk"
    complexity = Complexity("O(|E| log|V|) + sort(|E|)", "O(batch)", "WES")

    def __init__(self, *args, batch_edges: int = 1 << 18,
                 epsilon: float = 0.01, spill_dir: str | None = None,
                 fan_in: int = DEFAULT_FAN_IN,
                 spill_chunk: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batch_edges = batch_edges
        self.epsilon = epsilon
        self.spill_dir = spill_dir
        self.fan_in = fan_in
        #: Keys per merge-read chunk; defaults to
        #: ``batch_edges // fan_in`` (see :func:`merge_chunk_items`).
        self.spill_chunk = spill_chunk

    def estimated_peak_bytes(self) -> int:
        return self.batch_edges * BYTES_PER_EDGE_IN_MEMORY

    def iter_unique_key_chunks(self) -> Iterator[np.ndarray]:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        report = self.report
        target = int(self.num_edges * (1 + self.epsilon))
        chunk_items = merge_chunk_items(self.spill_chunk,
                                        self.batch_edges, self.fan_in)
        with tempfile.TemporaryDirectory(dir=self.spill_dir) as tmp:
            store = SpillStore(tmp)
            produced = 0
            with report.time_phase("generate"):
                while produced < target:
                    count = min(self.batch_edges, target - produced)
                    keys = rmat_key_batch(self.seed_matrix, self.scale,
                                          count, rng)
                    keys.sort()
                    store.add_run(keys)
                    produced += count
            emitted = 0
            with report.time_phase("external_sort"):
                for chunk in store.iter_unique(chunk_items=chunk_items,
                                               fan_in=self.fan_in):
                    emitted += int(chunk.size)
                    yield chunk
        report.duplicates_discarded = produced - emitted
        report.realized_edges = emitted
        report.peak_memory_bytes = self.estimated_peak_bytes()
