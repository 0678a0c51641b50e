"""FastKronecker — SNAP's RMAT-like Kronecker generator (Section 3.1).

FastKronecker generates each edge by recursive *region* selection with an
``n x n`` seed matrix (``log_n |V|`` recursion steps per edge) and keeps all
edges in memory for duplicate elimination — the same O(|E| log|V|) /
O(|E|) profile as RMAT (Table 1), and equal to RMAT when ``n = 2``.
"""

from __future__ import annotations

import numpy as np

from ..core.seed import SeedMatrix
from ..errors import ConfigurationError, GenerationError
from ..util.external_sort import sorted_unique
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator)

__all__ = ["fast_kronecker_edge_batch", "FastKroneckerGenerator"]

_TAG_EDGES = 1
_MAX_ROUNDS = 200


def fast_kronecker_edge_batch(seed_matrix: SeedMatrix, depth: int,
                              count: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` edges by recursive n x n region selection.

    Each of the ``depth`` steps draws one uniform per edge, picks a cell of
    the seed matrix by inverse CDF over its ``n*n`` flattened entries, and
    appends one base-n digit to the source and destination IDs.
    """
    n = seed_matrix.order
    cum = np.cumsum(seed_matrix.entries.ravel())[:-1]
    u = np.zeros(count, dtype=np.int64)
    v = np.zeros(count, dtype=np.int64)
    for _ in range(depth):
        r = rng.random(count)
        cell = np.searchsorted(cum, r, side="right")
        u = u * n + cell // n
        v = v * n + cell % n
    return np.column_stack([u, v])


class FastKroneckerGenerator(ScopeBasedGenerator):
    """The SNAP FastKronecker baseline (n x n recursive descent, WES)."""

    name = "FastKronecker"
    complexity = Complexity("O(|E| log|V|)", "O(|E|)", "WES")

    def __init__(self, scale: int, edge_factor: int = 16,
                 seed_matrix: SeedMatrix | None = None, **kwargs) -> None:
        super().__init__(scale, edge_factor, seed_matrix, **kwargs)
        order = self.seed_matrix.order
        # |V| = order ** depth must equal 2 ** scale.
        depth = self._depth_for(order)
        self.depth = depth

    def _depth_for(self, order: int) -> int:
        num_vertices = self.num_vertices
        depth = 0
        size = 1
        while size < num_vertices:
            size *= order
            depth += 1
        if size != num_vertices:
            raise ConfigurationError(
                f"|V| = 2^{self.scale} is not a power of the seed order "
                f"{order}; FastKronecker requires |V| = n^k")
        return depth

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        report = self.report
        keys = np.empty(0, dtype=np.int64)
        shortfall = self.num_edges
        with report.time_phase("generate"):
            for _ in range(_MAX_ROUNDS):
                batch = fast_kronecker_edge_batch(
                    self.seed_matrix, self.depth, shortfall, rng)
                new = np.sort(self.pack_edges(batch))
                merged = np.sort(np.concatenate([keys, new]))
                unique = sorted_unique(merged)
                report.duplicates_discarded += merged.size - unique.size
                keys = unique
                shortfall = self.num_edges - keys.size
                if shortfall <= 0:
                    break
            else:
                raise GenerationError(
                    "FastKronecker failed to collect |E| distinct edges")
        report.realized_edges = keys.size
        report.peak_memory_bytes = keys.size * BYTES_PER_EDGE_IN_MEMORY
        return self.unpack_edges(keys)
