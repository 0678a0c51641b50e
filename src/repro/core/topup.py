"""Per-scope distinct-destination sampling with stochastic top-up.

Algorithm 2 keeps each scope a *set*: repeat edges are dropped and the
scope is topped up by drawing again until it holds ``d+(u)`` distinct
destinations.  :func:`dedup_topup` runs that loop for a whole block of
scopes at once and is shared by every batched sampler (the binary
generator's ``recvec`` and ``bitwise`` samplers and the base-n
generator).

Cost model: the first pass sorts the block's keys once.  After that, a
top-up round costs O(shortfall · log block): the per-row counts are
updated from the round's new keys only, and the new keys go to a small
sorted side array that is merged into the block's keys once, at the end.
See the "Top-up cost" section of ``docs/kernel.md``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..telemetry import registry
from ..util.external_sort import sorted_unique

__all__ = [
    "MAX_TOPUP_ROUNDS",
    "SATURATED",
    "STALLED",
    "dedup_topup",
    "record_exact_fallback",
]

#: Top-up rounds before the remaining short scopes go to the exact path.
MAX_TOPUP_ROUNDS = 200

#: Why a scope went to the exact (PMF-materializing) path; the reason is
#: part of the error when the exact path refuses a scale.
SATURATED = "the scope is saturated (size > |V|/4)"
STALLED = "the top-up stalled (a round drew no new destination)"
_EXHAUSTED = f"the top-up ran out of rounds ({MAX_TOPUP_ROUNDS})"

#: Bucket bounds of the ``generator.topup_rounds`` histogram.
_ROUND_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    float(MAX_TOPUP_ROUNDS))


def dedup_topup(degrees: np.ndarray, span: np.int64,
                sample: Callable[[np.ndarray], np.ndarray],
                finish: Callable[[int, str], np.ndarray]
                ) -> tuple[np.ndarray, int]:
    """Draw ``degrees[r]`` distinct destinations for every row ``r``.

    ``sample(rows)`` draws one destination per entry of ``rows``;
    ``finish(row, reason)`` returns the sorted distinct destinations of
    one scope drawn exactly.  Rows whose top-up stalls (a round with no
    new key: the last few distinct draws of a very skewed scope turn
    into a coupon-collector problem) or runs out of rounds are finished
    exactly, in row order.

    Returns the sorted packed keys ``row * span + dest`` and the number
    of duplicates discarded.  The random stream is consumed exactly as
    by the textbook loop that re-sorts the whole block every round.
    """
    rows = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    dests = sample(rows)
    # Pack in place: ``rows`` becomes the keys, ``dests`` goes at once.
    rows *= span
    rows += dests
    del dests
    rows.sort()
    keys = sorted_unique(rows)
    duplicates = rows.size - keys.size
    del rows
    bounds = np.arange(degrees.size + 1, dtype=np.int64) * span
    have = np.diff(np.searchsorted(keys, bounds))
    side = np.empty(0, dtype=np.int64)
    reason = _EXHAUSTED
    rounds = 0
    for _ in range(MAX_TOPUP_ROUNDS):
        short = np.flatnonzero(have < degrees)
        if short.size == 0:
            break
        rounds += 1
        refill = np.repeat(short, degrees[short] - have[short])
        candidates = refill * span
        candidates += sample(refill)
        candidates.sort()
        candidates = sorted_unique(candidates)
        fresh = candidates[~(_contains(keys, candidates)
                             | _contains(side, candidates))]
        duplicates += refill.size - fresh.size
        if fresh.size == 0:
            reason = STALLED
            break
        have += np.bincount(fresh // span, minlength=degrees.size)
        side = np.insert(side, np.searchsorted(side, fresh), fresh)
    reg = registry()
    if reg.enabled:
        reg.histogram("generator.topup_rounds",
                      bounds=_ROUND_BUCKETS).observe(rounds)
    if side.size:
        # Two sorted runs: the stable sort (timsort) merges them in one
        # pass.
        keys = np.concatenate([keys, side])
        keys.sort(kind="stable")
    short = np.flatnonzero(have < degrees)
    if short.size:
        keys = _replace_rows(keys, short, span, finish, reason)
    return keys, duplicates


def _replace_rows(keys: np.ndarray, short: np.ndarray, span: np.int64,
                  finish: Callable[[int, str], np.ndarray],
                  reason: str) -> np.ndarray:
    """Swap each short row's keys for its exact sample (row order)."""
    pieces: list[np.ndarray] = []
    start = 0
    for row in short:
        exact = finish(int(row), reason)
        lo, hi = np.searchsorted(keys, [row * span, (row + 1) * span])
        pieces += [keys[start:lo], row * span + exact]
        start = hi
    pieces.append(keys[start:])
    return np.concatenate(pieces)


def _contains(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership mask of ``queries`` in the sorted array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(queries.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, queries)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    return sorted_keys[pos] == queries


def record_exact_fallback(pmf_bytes: int) -> None:
    """Count one scope finished on the exact path and the bytes of row
    PMF it materialized."""
    reg = registry()
    if reg.enabled:
        reg.counter("generator.exact_fallbacks").inc()
        reg.counter("generator.exact_fallback_bytes").inc(pmf_bytes)
