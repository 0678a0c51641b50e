"""Destination-sampling kernel benchmarks: the per-level bitwise peel vs
the inverse-CDF recursive-vector translation.

``bitwise`` draws every destination bit as an independent Bernoulli in
one vectorized pass per level; ``recvec`` translates one uniform per
edge through the RecVec (Algorithm 5).  See ``docs/kernel.md``.

Artifacts:

- ``test_bitwise_beats_recvec`` is the CI perf-smoke gate: the bitwise
  sampler must generate >= 2x the recvec edges/s at scale 18 (same
  graph parameters, generation only, no I/O).
- ``test_emit_bench_json`` writes ``BENCH_kernel.json`` at the repo
  root (scale, sampler, edges/s, seconds, recursions/edge) so later
  PRs have a kernel-perf trajectory to compare against.
"""

import json
import time
from pathlib import Path

from repro.core.generator import RecursiveVectorGenerator, _popcount64

SMOKE_SCALE = 18
EDGE_FACTOR = 16
SEED = 9

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _time_generation(sampler, scale=SMOKE_SCALE, count_recursions=False):
    """Seconds to materialize every block (generation only, no I/O).

    With ``count_recursions`` the per-edge translation counts are
    accumulated from destination popcounts inside the loop — O(edges)
    numpy per block, applied uniformly to every sampler so the timing
    stays comparable.
    """
    gen = RecursiveVectorGenerator(scale, EDGE_FACTOR, seed=SEED,
                                   sampler=sampler)
    t0 = time.perf_counter()
    edges = 0
    recursions = 0
    for block in gen.iter_blocks():
        dests = block.destinations
        edges += dests.shape[0]
        if count_recursions:
            recursions += int(_popcount64(dests).sum())
    seconds = time.perf_counter() - t0
    return edges, seconds, recursions


def test_bitwise_beats_recvec(table):
    """CI perf smoke: the per-level bitwise kernel must beat the
    inverse-CDF recvec translation by >= 2x edges/s at scale 18 — and
    both must agree on the edge count (degree sampling is shared)."""
    rates = {}
    edges_by_sampler = {}
    for sampler in ("recvec", "bitwise"):
        edges, seconds, _ = _time_generation(sampler)
        rates[sampler] = edges / seconds
        edges_by_sampler[sampler] = edges
    speedup = rates["bitwise"] / rates["recvec"]
    table(f"Bitwise vs recvec (scale {SMOKE_SCALE}, generation only)",
          ["sampler", "edges", "edges/s", "speedup"],
          [[s, edges_by_sampler[s], f"{rates[s]:,.0f}",
            f"{rates[s] / rates['recvec']:.2f}x"]
           for s in ("recvec", "bitwise")])
    assert edges_by_sampler["bitwise"] == edges_by_sampler["recvec"]
    assert speedup >= 2.0, (
        f"bitwise sampler only {speedup:.2f}x over recvec at scale "
        f"{SMOKE_SCALE}; the per-level kernel regressed")


def test_emit_bench_json(table):
    """Record the kernel-perf trajectory for the two batched destination
    samplers into ``BENCH_kernel.json`` at the repo root."""
    records = []
    for sampler in ("recvec", "bitwise"):
        edges, seconds, recursions = _time_generation(
            sampler, count_recursions=True)
        per_edge = recursions / edges if edges else 0.0
        records.append({
            "scale": SMOKE_SCALE,
            "edge_factor": EDGE_FACTOR,
            "sampler": sampler,
            "edges": edges,
            "seconds": round(seconds, 4),
            "edges_per_second": round(edges / seconds),
            "recursions_per_edge": round(per_edge, 3),
        })
    (_REPO_ROOT / "BENCH_kernel.json").write_text(
        json.dumps(records, indent=2) + "\n")
    table(f"BENCH_kernel.json (scale {SMOKE_SCALE}, generation only)",
          ["sampler", "edges/s", "seconds", "recursions/edge"],
          [[r["sampler"], f"{r['edges_per_second']:,}", r["seconds"],
            r["recursions_per_edge"]] for r in records])
    assert all(r["edges_per_second"] > 0 for r in records)
