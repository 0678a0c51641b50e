"""Dedup/top-up: draw accounting, slow-path counters, refusal messages
and the rounds-exhausted finish (see :mod:`repro.core.topup`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import RecursiveVectorGenerator
from repro.core import topup
from repro.core.nary import NAryRecursiveVectorGenerator
from repro.core.seed import SeedMatrix
from repro.errors import GenerationError

SEED3 = SeedMatrix(np.array([[0.30, 0.12, 0.08],
                             [0.12, 0.10, 0.05],
                             [0.08, 0.05, 0.10]]))
# Nearly all mass on the 0-quadrant: a hub scope of a few hundred edges
# runs out of fresh destinations within a round or two.
SKEWED = SeedMatrix.rmat(0.97, 0.01, 0.01, 0.01)
SKEWED3 = SeedMatrix(np.array([[0.90, 0.01, 0.01],
                               [0.01, 0.02, 0.01],
                               [0.01, 0.01, 0.02]]))


@pytest.fixture
def telemetry():
    from repro.telemetry import enable_telemetry, registry
    enable_telemetry(True)
    registry().reset()
    yield registry()
    registry().reset()
    enable_telemetry(None)


def value(snap, name):
    return snap.get(name, {}).get("value", 0)


class TestDrawAccounting:
    def test_bitwise_counts_first_pass_and_topup_draws(self, telemetry):
        # Block 2 at scale 14 tops up for ~15 rounds and never falls
        # back to the exact path, so every destination drawn is either
        # an edge or a discarded duplicate, at one uniform per level.
        g = RecursiveVectorGenerator(14, 16, sampler="bitwise", seed=1)
        block = g.generate_block(2)
        snap = telemetry.snapshot()
        assert value(snap, "generator.exact_fallbacks") == 0
        assert snap["generator.topup_rounds"]["sum"] >= 2
        assert g.stats.random_draws == 14 * (
            block.num_edges + g.stats.duplicates_discarded)

    def test_exact_path_counts_one_uniform_per_pmf_cell(self):
        # Every destination is 0, so each scope of two or more edges
        # stalls after one top-up round and is finished on the exact
        # path.  No level is random, so the exact path's uniforms are
        # the only draws.
        all_zero = SeedMatrix.rmat(0.6, 0.0, 0.4, 0.0)
        g = RecursiveVectorGenerator(6, 2, all_zero, sampler="bitwise",
                                     seed=3)
        g.generate_block(0)
        stalled = int((g.degrees() > 1).sum())
        assert stalled
        assert g.stats.random_draws == stalled * g.num_vertices

    def test_degenerate_levels_consume_no_draws(self):
        all_zero = SeedMatrix.rmat(0.6, 0.0, 0.4, 0.0)
        g = RecursiveVectorGenerator(8, 4, all_zero, sampler="bitwise",
                                     dedup=False, seed=3)
        edges = sum(b.num_edges for b in g.iter_blocks())
        assert edges and g.stats.random_draws == 0


class TestSlowPathCounters:
    def test_hub_block_rounds_and_fallbacks(self, telemetry):
        g = RecursiveVectorGenerator(14, 16, sampler="bitwise", seed=1)
        g.generate_block(0)
        snap = telemetry.snapshot()
        rounds = snap["generator.topup_rounds"]
        assert rounds["count"] == 1          # one observation per block
        assert rounds["sum"] >= 2
        assert value(snap, "generator.exact_fallbacks") == 4
        # Each exact scope materializes a float64 row PMF over |V| cells.
        assert value(snap, "generator.exact_fallback_bytes") == \
            4 * 8 * (1 << 14)

    def test_one_rounds_observation_per_block(self, telemetry):
        g = RecursiveVectorGenerator(10, 8, sampler="recvec", seed=2,
                                     block_size=128)
        blocks = sum(1 for _ in g.iter_blocks())
        hist = telemetry.snapshot()["generator.topup_rounds"]
        assert hist["count"] == blocks

    def test_nary_fallbacks(self, telemetry):
        g = NAryRecursiveVectorGenerator(SEED3, 8, seed=1)
        g.generate_block(0)
        snap = telemetry.snapshot()
        assert snap["generator.topup_rounds"]["count"] == 1
        assert value(snap, "generator.exact_fallbacks") == 2
        assert value(snap, "generator.exact_fallback_bytes") == \
            2 * 8 * 3 ** 8


class TestRefusalNamesTheCause:
    @pytest.mark.parametrize("sampler", ["recvec", "bitwise"])
    def test_stalled_hub_at_scale_27(self, sampler):
        g = RecursiveVectorGenerator(27, num_edges=200, seed_matrix=SKEWED,
                                     sampler=sampler, block_size=1, seed=0)
        size = int(g.block_degrees(0)[0])
        with pytest.raises(GenerationError) as err:
            g.generate_block(0)
        msg = str(err.value)
        assert "vertex 0" in msg
        assert f"size {size}" in msg
        assert "scale 27" in msg
        assert "stalled" in msg and "saturated" not in msg

    def test_saturated_hub_at_scale_27(self):
        g = RecursiveVectorGenerator(27, 16, seed_matrix=SKEWED,
                                     sampler="bitwise", block_size=1,
                                     seed=0)
        size = int(g.block_degrees(0)[0])
        assert size > g.num_vertices >> 2
        with pytest.raises(GenerationError) as err:
            g.generate_block(0)
        msg = str(err.value)
        assert "vertex 0" in msg and f"size {size}" in msg
        assert "scale 27" in msg
        assert "saturated" in msg and "stalled" not in msg

    def test_nary_stalled_hub(self):
        g = NAryRecursiveVectorGenerator(SKEWED3, 17, num_edges=200,
                                         block_size=1, seed=0)
        size = int(g.block_degrees(0)[0])
        with pytest.raises(GenerationError) as err:
            g.generate_block(0)
        msg = str(err.value)
        assert "vertex 0" in msg and f"size {size}" in msg
        assert "depth 17" in msg and "3^17" in msg
        assert "stalled" in msg


class TestRoundsExhausted:
    def test_nary_finishes_short_scopes_exactly(self, monkeypatch):
        # With no top-up rounds at all, every scope the first pass left
        # short must still reach its drawn size, via the exact path.
        monkeypatch.setattr(topup, "MAX_TOPUP_ROUNDS", 0)
        g = NAryRecursiveVectorGenerator(SEED3, 5, seed=4)
        edges = g.generate_block(0)
        counts = np.bincount(edges[:, 0], minlength=g.num_vertices)
        np.testing.assert_array_equal(counts, g.block_degrees(0))
        keys = edges[:, 0] * g.num_vertices + edges[:, 1]
        assert np.unique(keys).size == keys.size

    def test_generator_finishes_short_scopes_exactly(self, monkeypatch):
        monkeypatch.setattr(topup, "MAX_TOPUP_ROUNDS", 0)
        g = RecursiveVectorGenerator(8, 8, sampler="bitwise", seed=4)
        block = g.generate_block(0)
        np.testing.assert_array_equal(block.degrees, g.block_degrees(0))
