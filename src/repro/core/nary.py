"""AVS generation for n x n seed matrices (general SKG).

The paper implements the recursive vector model for 2 x 2 seeds (RMAT) and
notes that SKG generalizes RMAT to ``n x n`` probability parameters.  This
module extends the AVS approach to that full generality: vertex IDs become
base-``n`` digit strings of length ``depth`` (``|V| = n**depth``), Lemma 1
becomes a product of per-digit row sums, and edge determination factorizes
per digit — the base-``n`` analogue of the ``bitwise`` sampler, i.e. the
destination's digit at position ``d`` is drawn from the categorical
distribution ``K[u_d, :] / rowsum(K[u_d, :])``.

For ``n = 2`` this reduces exactly to the main generator's process
(verified by tests).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, GenerationError
from .rng import stream
from .scope import sample_scope_sizes
from .seed import SeedMatrix
from .topup import dedup_topup, record_exact_fallback

__all__ = ["NAryRecursiveVectorGenerator"]

_TAG_DEGREE = 301
_TAG_EDGE = 302


class NAryRecursiveVectorGenerator:
    """Scope-per-source-vertex generation under an ``n x n`` seed.

    Parameters
    ----------
    seed_matrix:
        ``n x n`` seed (n >= 2).
    depth:
        Number of recursion levels; ``|V| = n ** depth``.
    num_edges:
        Target edge count (defaults to ``16 * |V|``).
    dedup:
        Per-scope duplicate elimination (Algorithm 2 semantics).
    """

    def __init__(self, seed_matrix: SeedMatrix, depth: int, *,
                 num_edges: int | None = None, dedup: bool = True,
                 seed: int = 0, block_size: int = 4096) -> None:
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        self.seed_matrix = seed_matrix
        self.order = seed_matrix.order
        self.depth = depth
        self.num_vertices = self.order ** depth
        if self.num_vertices > 2 ** 56:
            raise ConfigurationError("graph too large for int64 packing")
        self.num_edges = (num_edges if num_edges is not None
                          else 16 * self.num_vertices)
        if self.num_edges < 1:
            raise ConfigurationError("num_edges must be positive")
        self.dedup = dedup
        self.seed = seed
        self.block_size = block_size
        entries = seed_matrix.entries
        self._row_sums = entries.sum(axis=1)            # (n,)
        if np.any(self._row_sums <= 0):
            raise ConfigurationError(
                "every seed row needs positive mass for AVS scoping")
        # Conditional digit CDF per source digit: (n, n).
        self._digit_cdf = np.cumsum(entries / self._row_sums[:, None],
                                    axis=1)

    # ------------------------------------------------------------------

    def _digits(self, vertices: np.ndarray) -> np.ndarray:
        """Base-n digits, shape ``(m, depth)``, position 0 = least
        significant digit."""
        v = np.asarray(vertices, dtype=np.int64)
        out = np.empty((v.size, self.depth), dtype=np.int64)
        for d in range(self.depth):
            out[:, d] = v % self.order
            v = v // self.order
        return out

    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """Generalized Lemma 1: ``P(u->) = prod_d rowsum(u_d)``."""
        digits = self._digits(sources)
        return np.prod(self._row_sums[digits], axis=1)

    def block_degrees(self, block_index: int) -> np.ndarray:
        sources = self._block_sources(block_index)
        probs = self.row_probabilities(sources)
        rng = stream(self.seed, _TAG_DEGREE, block_index)
        max_size = self.num_vertices if self.dedup else None
        return sample_scope_sizes(probs, self.num_edges, rng,
                                  max_size=max_size)

    def degrees(self) -> np.ndarray:
        return np.concatenate([
            self.block_degrees(b) for b in range(self._num_blocks())])

    # ------------------------------------------------------------------

    def _sample_destinations(self, src_digits: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
        """Digit-factorized destination sampling (base-n bitwise)."""
        total = src_digits.shape[0]
        dest = np.zeros(total, dtype=np.int64)
        scale = 1
        for d in range(self.depth):
            cdf_rows = self._digit_cdf[src_digits[:, d]]     # (m, n)
            r = rng.random(total)
            digit = (cdf_rows < r[:, None]).sum(axis=1)
            np.minimum(digit, self.order - 1, out=digit)
            dest += digit * scale
            scale *= self.order
        return dest

    def _sample_scope_exact(self, u: int, size: int,
                            rng: np.random.Generator,
                            reason: str) -> np.ndarray:
        """PPSWOR fallback for scopes whose top-up stalled or ran out of
        rounds (mirrors the binary generator's); ``reason`` names which."""
        if self.num_vertices > 1 << 26:
            raise GenerationError(
                f"cannot finish the scope of source vertex {u} (size "
                f"{size}) at depth {self.depth} (|V| = {self.order}^"
                f"{self.depth}): {reason}, and the exact path would "
                f"materialize a {self.num_vertices}-cell row PMF (refused "
                f"above 2^26 cells)")
        digits = self._digits(np.array([u]))[0]
        # Build the row PMF digit-by-digit, least significant first: the
        # step-d digit lands at index place n^d, so the final index IS the
        # vertex ID.
        pmf = np.array([1.0])
        for d in range(self.depth):
            row = (self.seed_matrix.entries[digits[d]]
                   / self._row_sums[digits[d]])
            pmf = np.concatenate([pmf * p for p in row])
        record_exact_fallback(pmf.nbytes)
        size = min(size, int(np.count_nonzero(pmf)))
        with np.errstate(divide="ignore"):
            scores = np.log(pmf) - np.log(-np.log(rng.random(pmf.size)))
        top = np.argpartition(scores, pmf.size - size)[pmf.size - size:]
        return np.sort(top).astype(np.int64)

    # ------------------------------------------------------------------

    def _num_blocks(self) -> int:
        return (self.num_vertices + self.block_size - 1) // self.block_size

    def _block_sources(self, block_index: int) -> np.ndarray:
        lo = block_index * self.block_size
        hi = min(lo + self.block_size, self.num_vertices)
        if lo >= self.num_vertices:
            raise ValueError(f"block {block_index} out of range")
        return np.arange(lo, hi, dtype=np.int64)

    def generate_block(self, block_index: int) -> np.ndarray:
        """All edges of one block as an ``(m, 2)`` array."""
        sources = self._block_sources(block_index)
        degrees = self.block_degrees(block_index)
        rng = stream(self.seed, _TAG_EDGE, block_index)

        def sample(rows: np.ndarray) -> np.ndarray:
            return self._sample_destinations(self._digits(sources[rows]),
                                             rng)

        if not self.dedup:
            rows = np.repeat(np.arange(sources.size, dtype=np.int64),
                             degrees)
            return np.column_stack([sources[rows], sample(rows)])

        def finish(row: int, reason: str) -> np.ndarray:
            return self._sample_scope_exact(int(sources[row]),
                                            int(degrees[row]), rng, reason)

        span = np.int64(self.num_vertices)
        keys, _ = dedup_topup(degrees, span, sample, finish)
        return np.column_stack([sources[keys // span], keys % span])

    def edges(self) -> np.ndarray:
        parts = [self.generate_block(b) for b in range(self._num_blocks())]
        return (np.concatenate(parts) if parts
                else np.empty((0, 2), dtype=np.int64))
