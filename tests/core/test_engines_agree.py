"""Cross-sampler distributional agreement.

The three samplers (reference / recvec / bitwise) implement the same
stochastic process by different means; these tests verify their outputs are
statistically indistinguishable (chi-square on destination histograms) and
that the process matches the exact conditional distribution P(v | u).
"""

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.generator import RecursiveVectorGenerator
from repro.core.probability import edge_probability, row_probability
from repro.core.recvec import build_recvec, determine_edges
from repro.core.seed import GRAPH500, SeedMatrix

FIG3 = SeedMatrix.rmat(0.5, 0.2, 0.2, 0.1)


def destination_histogram(sampler: str, scale: int, seed: int) -> np.ndarray:
    g = RecursiveVectorGenerator(scale, 16, seed=seed, sampler=sampler)
    e = g.edges()
    return np.bincount(e[:, 1], minlength=1 << scale)


class TestSamplerMatchesExactDistribution:
    def test_recvec_sampler_chi_square(self):
        """Theorem 2 sampling reproduces P(v|u) (chi-square GOF)."""
        levels, u, n = 5, 11, 200000
        rv = build_recvec(GRAPH500, u, levels)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, rv[-1], size=n)
        vs = determine_edges(xs, rv)
        counts = np.bincount(vs, minlength=1 << levels)
        p_row = row_probability(GRAPH500, u, levels)
        expected = np.array(
            [edge_probability(GRAPH500, u, v, levels) / p_row
             for v in range(1 << levels)]) * n
        keep = expected > 5
        chi2 = (((counts[keep] - expected[keep]) ** 2)
                / expected[keep]).sum()
        dof = int(keep.sum()) - 1
        assert sps.chi2.sf(chi2, dof) > 1e-4

    def test_bitwise_sampler_chi_square(self):
        from repro.core.generator import _BitwiseSampler
        from repro.core.process import PlainProcess
        levels, u, n = 5, 11, 200000
        proc = PlainProcess(GRAPH500, levels)
        sampler = _BitwiseSampler(
            proc.bit_probabilities(np.array([u], dtype=np.uint64)), levels)
        rng = np.random.default_rng(1)
        vs = sampler.sample(np.zeros(n, dtype=np.int64), rng)
        counts = np.bincount(vs, minlength=1 << levels)
        p_row = row_probability(GRAPH500, u, levels)
        expected = np.array(
            [edge_probability(GRAPH500, u, v, levels) / p_row
             for v in range(1 << levels)]) * n
        keep = expected > 5
        chi2 = (((counts[keep] - expected[keep]) ** 2)
                / expected[keep]).sum()
        dof = int(keep.sum()) - 1
        assert sps.chi2.sf(chi2, dof) > 1e-4


class TestEnginesAgree:
    @pytest.mark.parametrize("other", ["bitwise", "reference"])
    def test_destination_distributions_match(self, other):
        """Two-sample chi-square between samplers' destination histograms."""
        h1 = destination_histogram("recvec", 9, seed=100)
        h2 = destination_histogram(other, 9, seed=200)
        # Pool cells with small expectation.
        keep = (h1 + h2) > 20
        a, b = h1[keep].astype(float), h2[keep].astype(float)
        na, nb = a.sum(), b.sum()
        pooled = (a + b) / (na + nb)
        chi2 = (((a - na * pooled) ** 2) / (na * pooled)
                + ((b - nb * pooled) ** 2) / (nb * pooled)).sum()
        dof = int(keep.sum()) - 1
        assert sps.chi2.sf(chi2, dof) > 1e-4

    def test_out_degree_distributions_match(self):
        g1 = RecursiveVectorGenerator(10, 16, seed=300, sampler="recvec")
        g2 = RecursiveVectorGenerator(10, 16, seed=301, sampler="bitwise")
        d1 = np.bincount(g1.edges()[:, 0], minlength=1024)
        d2 = np.bincount(g2.edges()[:, 0], minlength=1024)
        # Kolmogorov-Smirnov on the degree samples.
        stat = sps.ks_2samp(d1, d2)
        assert stat.pvalue > 1e-4
