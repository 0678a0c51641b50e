"""Closed-form edge and row probabilities for the Kronecker process.

Implements Proposition 1 (probability of a single edge ``u -> v``),
Lemma 1 (row probability ``P(u->)``), and the per-bit conditional
probabilities that justify the ``bitwise`` destination sampler.

Factorization note (used by the bitwise sampler)
------------------------------------------------
Proposition 1 writes ``K[u,v] = prod_i K[u[i], v[i]]`` over bit positions
``i``.  Dividing by Lemma 1's ``P(u->) = prod_i (K[u[i],0] + K[u[i],1])``
shows the conditional distribution of the destination given the source
factorizes across bits::

    P(v | u) = prod_i  K[u[i], v[i]] / (K[u[i], 0] + K[u[i], 1])

so each destination bit is an independent Bernoulli draw with success
probability ``K[u[i],1] / (K[u[i],0] + K[u[i],1])``.  Sampling those bits
directly is distributionally identical to inverting the CDF with Theorem 2;
``tests/core/test_engines_agree.py`` checks this empirically.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import bits, bits_array, ilog2, mask
from .seed import SeedMatrix

__all__ = [
    "edge_probability",
    "row_probability",
    "row_probabilities",
    "column_probability",
    "destination_bit_probabilities",
    "expected_degree",
    "log_row_probabilities",
    "total_row_probability_check",
    "brute_force_row_probability",
    "brute_force_cdf",
]


def edge_probability(seed: SeedMatrix, u: int, v: int, levels: int) -> float:
    """Probability of the cell ``(u, v)`` in ``K^{⊗levels}`` (Proposition 1).

    ``K[u,v] = alpha^Bits(~u & ~v) * beta^Bits(~u & v) *
    gamma^Bits(u & ~v) * delta^Bits(u & v)`` with popcounts taken over
    ``levels`` bits.
    """
    a, b, c, d = seed.as_tuple()
    m = mask(levels)
    if u > m or v > m:
        raise ValueError(f"vertex id out of range for {levels} levels")
    nu, nv = ~u & m, ~v & m
    return (a ** bits(nu & nv) * b ** bits(nu & v) *
            c ** bits(u & nv) * d ** bits(u & v))


def row_probability(seed: SeedMatrix, u: int, levels: int) -> float:
    """Row probability ``P(u->) = (alpha+beta)^Bits(~u) * (gamma+delta)^Bits(u)``
    (Lemma 1): the total probability mass of all edges out of ``u``."""
    ab, cd = (float(x) for x in seed.row_sums())
    m = mask(levels)
    if u > m:
        raise ValueError(f"vertex id {u} out of range for {levels} levels")
    ones = bits(u)
    return ab ** (levels - ones) * cd ** ones


def column_probability(seed: SeedMatrix, v: int, levels: int) -> float:
    """Column probability ``P(->v) = (alpha+gamma)^Bits(~v) * (beta+delta)^Bits(v)``,
    the AVS-I analogue of Lemma 1."""
    ac, bd = (float(x) for x in seed.col_sums())
    m = mask(levels)
    if v > m:
        raise ValueError(f"vertex id {v} out of range for {levels} levels")
    ones = bits(v)
    return ac ** (levels - ones) * bd ** ones


def row_probabilities(seed: SeedMatrix, vertices: np.ndarray,
                      levels: int) -> np.ndarray:
    """Vectorized Lemma 1 over an array of source vertex IDs."""
    ab, cd = (float(x) for x in seed.row_sums())
    ones = bits_array(np.asarray(vertices, dtype=np.uint64)).astype(np.int64)
    return np.power(ab, levels - ones) * np.power(cd, ones)


def log_row_probabilities(seed: SeedMatrix, vertices: np.ndarray,
                          levels: int) -> np.ndarray:
    """Natural log of Lemma 1, stable at very large ``levels`` where the
    direct product underflows float64 (relevant past scale ~700 only for
    pathological seeds, but cheap insurance for the cost model)."""
    ab, cd = (float(x) for x in seed.row_sums())
    ones = bits_array(np.asarray(vertices, dtype=np.uint64)).astype(np.float64)
    return (levels - ones) * math.log(ab) + ones * math.log(cd)


def destination_bit_probabilities(seed: SeedMatrix, u: int,
                                  levels: int) -> np.ndarray:
    """Per-level probability that the destination bit is 1, given source ``u``.

    Returns an array ``p`` of length ``levels`` indexed by bit position
    (LSB = index 0): ``p[i] = K[u[i],1] / (K[u[i],0] + K[u[i],1])``.
    This is the Bernoulli parameter used by the ``bitwise`` sampler and also
    equals the paper's scale-symmetry ratio ``sigma_{u[k]}`` normalized:
    ``sigma = p / (1 - p)`` (Lemma 3).
    """
    a, b, c, d = seed.as_tuple()
    p0 = b / (a + b)
    p1 = d / (c + d)
    out = np.empty(levels, dtype=np.float64)
    for i in range(levels):
        out[i] = p1 if (u >> i) & 1 else p0
    return out


def expected_degree(seed: SeedMatrix, u: int, levels: int,
                    num_edges: int) -> float:
    """Expected out-degree of ``u``: ``|E| * P(u->)`` (mean of Theorem 1)."""
    return num_edges * row_probability(seed, u, levels)


def total_row_probability_check(seed: SeedMatrix, levels: int) -> float:
    """Sum of ``P(u->)`` over all ``u``; equals 1.0 exactly.

    ``sum_u (ab)^(L-Bits(u)) (cd)^Bits(u) = (ab + cd)^L = 1``.
    Exposed for tests; evaluated in closed form, not by enumeration.
    """
    ab, cd = (float(x) for x in seed.row_sums())
    return (ab + cd) ** levels


def brute_force_row_probability(seed: SeedMatrix, u: int,
                                levels: int) -> float:
    """O(|V|) cross-check of Lemma 1 by summing Proposition 1 over all v.

    Test-support only; do not call at scale (this is exactly the AES cost
    the paper's Lemma 1 avoids).
    """
    n = 1 << levels
    return sum(edge_probability(seed, u, v, levels) for v in range(n))


def brute_force_cdf(seed: SeedMatrix, u: int, levels: int) -> np.ndarray:
    """The naive CDF vector ``F_u`` of Section 4.2 (positions 1..|V|).

    ``F_u(r) = sum_{v=0}^{r-1} P(u->v)``, returned as an array of length
    ``|V| + 1`` with ``F_u(0) = 0``.  This is the O(|V|)-space structure
    whose cost Table 2 compares against RecVec.
    """
    n = 1 << levels
    pmf = np.array(
        [edge_probability(seed, u, v, levels) for v in range(n)])
    cdf = np.concatenate([[0.0], np.cumsum(pmf)])
    return cdf
