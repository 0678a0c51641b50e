"""Equivalence of the branch-free RMAT key kernel with the searchsorted
quadrant loop it replaced.

``rmat_key_batch`` must draw the same uniforms in the same order and turn
each into the same quadrant, so every RMAT-family baseline keeps its
bytes.  The reference below is a verbatim copy of the loop the kernel
replaced; the quadrant step is also checked on hand-built uniforms that
land exactly on the cumulative-sum thresholds, which random draws would
almost never hit.
"""

import numpy as np
import pytest

from repro.core.seed import GRAPH500, UNIFORM, SeedMatrix
from repro.errors import ConfigurationError
from repro.models.rmat import (rmat_edge_batch, rmat_key_batch,
                               rmat_quadrant_bits)

ZERO_ENTRY = SeedMatrix(np.array([[0.5, 0.0], [0.25, 0.25]]))
ONE_ENTRY = SeedMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
SEED_MATRICES = {"graph500": GRAPH500, "uniform": UNIFORM,
                 "zero-entry": ZERO_ENTRY, "one-entry": ONE_ENTRY}


def searchsorted_keys(seed_matrix, levels, count, rng):
    """The replaced kernel: one searchsorted per level, packed after."""
    cum = np.cumsum(seed_matrix.entries.ravel())[:-1]
    u = np.zeros(count, dtype=np.int64)
    v = np.zeros(count, dtype=np.int64)
    for _ in range(levels):
        r = rng.random(count)
        quadrant = np.searchsorted(cum, r, side="right")
        u = (u << 1) | (quadrant >> 1)
        v = (v << 1) | (quadrant & 1)
    return u * np.int64(1 << levels) + v


@pytest.mark.parametrize("name", sorted(SEED_MATRICES))
@pytest.mark.parametrize("levels", [1, 18, 31])
@pytest.mark.parametrize("count", [0, 1, 10_000])
def test_keys_match_searchsorted_loop(name, levels, count):
    seed_matrix = SEED_MATRICES[name]
    got = rmat_key_batch(seed_matrix, levels, count,
                         np.random.default_rng(levels * 7 + count))
    want = searchsorted_keys(seed_matrix, levels, count,
                             np.random.default_rng(levels * 7 + count))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_rng_consumption_unchanged():
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    rmat_key_batch(GRAPH500, 18, 1000, rng_a)
    searchsorted_keys(GRAPH500, 18, 1000, rng_b)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("name", sorted(SEED_MATRICES))
def test_quadrant_bits_on_threshold_uniforms(name):
    cum = np.cumsum(SEED_MATRICES[name].entries.ravel())[:-1]
    edges = np.concatenate([cum, np.nextafter(cum, -np.inf),
                            np.nextafter(cum, np.inf), [0.0, 0.5]])
    r = np.clip(edges, 0.0, np.nextafter(1.0, 0.0))
    src, dst = rmat_quadrant_bits(cum, r)
    quadrant = np.searchsorted(cum, r, side="right")
    np.testing.assert_array_equal(src, quadrant >> 1)
    np.testing.assert_array_equal(dst, quadrant & 1)


def test_quadrant_bits_fill_given_buffers():
    cum = np.cumsum(GRAPH500.entries.ravel())[:-1]
    r = np.array([0.0, cum[0], cum[1], cum[2], 0.999])
    out = tuple(np.empty(r.size, dtype=bool) for _ in range(3))
    src, dst = rmat_quadrant_bits(cum, r, out)
    assert src is out[0] and dst is out[1]
    np.testing.assert_array_equal(src, [0, 0, 1, 1, 1])
    np.testing.assert_array_equal(dst, [0, 1, 0, 1, 1])


def test_edge_batch_unpacks_the_keys():
    keys = rmat_key_batch(GRAPH500, 12, 500, np.random.default_rng(9))
    edges = rmat_edge_batch(GRAPH500, 12, 500, np.random.default_rng(9))
    np.testing.assert_array_equal(edges[:, 0] * (1 << 12) + edges[:, 1],
                                  keys)
    assert edges.max() < 1 << 12


def test_levels_beyond_int64_keys_rejected():
    with pytest.raises(ConfigurationError):
        rmat_key_batch(GRAPH500, 32, 1, np.random.default_rng(0))
