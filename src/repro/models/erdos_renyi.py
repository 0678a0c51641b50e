"""Erdős–Rényi random graphs (related work, Section 8).

G(n, M)-style: |E| distinct uniformly random directed edges.  The paper
notes ER is exactly the RMAT model with the uniform seed
``alpha = beta = gamma = delta = 0.25``; a test verifies the equivalence.
"""

from __future__ import annotations

import numpy as np

from ..errors import GenerationError
from ..util.external_sort import sorted_unique
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator)

__all__ = ["ErdosRenyiGenerator"]

_TAG_EDGES = 1
_MAX_ROUNDS = 200


class ErdosRenyiGenerator(ScopeBasedGenerator):
    """Uniform random directed graph with exactly |E| distinct edges."""

    name = "Erdos-Renyi"
    complexity = Complexity("O(|E|)", "O(|E|)", "WES")

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        report = self.report
        n = np.int64(self.num_vertices)
        keys = np.empty(0, dtype=np.int64)
        shortfall = self.num_edges
        with report.time_phase("generate"):
            for _ in range(_MAX_ROUNDS):
                new = rng.integers(0, n * n, size=shortfall,
                                   dtype=np.int64)
                merged = np.sort(np.concatenate([keys, new]))
                unique = sorted_unique(merged)
                report.duplicates_discarded += merged.size - unique.size
                keys = unique
                shortfall = self.num_edges - keys.size
                if shortfall <= 0:
                    break
            else:
                raise GenerationError(
                    "Erdos-Renyi failed to collect |E| distinct edges")
        report.realized_edges = keys.size
        report.peak_memory_bytes = keys.size * BYTES_PER_EDGE_IN_MEMORY
        return self.unpack_edges(keys)
