"""Unit tests for repro.core.probability (Proposition 1, Lemma 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probability import (brute_force_cdf,
                                    brute_force_row_probability,
                                    column_probability,
                                    destination_bit_probabilities,
                                    edge_probability, expected_degree,
                                    log_row_probabilities,
                                    row_probabilities, row_probability,
                                    total_row_probability_check)
from repro.core.seed import GRAPH500, UNIFORM, SeedMatrix

# The worked example of the paper's Figure 3: K = [0.5, 0.2; 0.2, 0.1].
FIG3 = SeedMatrix.rmat(0.5, 0.2, 0.2, 0.1)


class TestEdgeProbability:
    def test_figure3_corner(self):
        # K[0,0] over 3 levels = alpha^3
        assert math.isclose(edge_probability(FIG3, 0, 0, 3), 0.5**3)

    def test_figure3_p2_to_5(self):
        # Appears in the Lemma 3 example: P(2->5) = 0.008.
        assert math.isclose(edge_probability(FIG3, 2, 5, 3), 0.008)

    def test_figure3_p2_to_1(self):
        # Also from the Lemma 3 example: P(2->1) = 0.02.
        assert math.isclose(edge_probability(FIG3, 2, 1, 3), 0.02)

    def test_matches_kronecker_power(self):
        k3 = FIG3.kronecker_power(3)
        for u in range(8):
            for v in range(8):
                assert math.isclose(edge_probability(FIG3, u, v, 3),
                                    float(k3[u, v]), rel_tol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            edge_probability(FIG3, 8, 0, 3)

    def test_total_mass_is_one(self):
        total = sum(edge_probability(GRAPH500, u, v, 4)
                    for u in range(16) for v in range(16))
        assert math.isclose(total, 1.0, abs_tol=1e-12)


class TestRowProbability:
    def test_figure3_p2(self):
        # The paper states P(2->) = 0.147 for Figure 3.
        assert math.isclose(row_probability(FIG3, 2, 3), 0.147)

    def test_matches_brute_force(self):
        for u in range(8):
            assert math.isclose(row_probability(FIG3, u, 3),
                                brute_force_row_probability(FIG3, u, 3),
                                rel_tol=1e-12)

    def test_vectorized_matches_scalar(self):
        us = np.arange(16, dtype=np.uint64)
        vec = row_probabilities(GRAPH500, us, 4)
        for u in range(16):
            assert math.isclose(float(vec[u]),
                                row_probability(GRAPH500, u, 4))

    def test_log_version(self):
        us = np.arange(16, dtype=np.uint64)
        logp = log_row_probabilities(GRAPH500, us, 4)
        p = row_probabilities(GRAPH500, us, 4)
        assert np.allclose(np.exp(logp), p)

    def test_rows_sum_to_one(self):
        us = np.arange(64, dtype=np.uint64)
        assert math.isclose(
            float(row_probabilities(GRAPH500, us, 6).sum()), 1.0,
            abs_tol=1e-12)
        assert math.isclose(total_row_probability_check(GRAPH500, 6), 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            row_probability(FIG3, 8, 3)

    def test_uniform_rows_equal(self):
        ps = row_probabilities(UNIFORM, np.arange(32, dtype=np.uint64), 5)
        assert np.allclose(ps, 1.0 / 32)


class TestColumnProbability:
    def test_symmetric_seed_column_equals_row(self):
        for v in range(8):
            assert math.isclose(column_probability(GRAPH500, v, 3),
                                row_probability(GRAPH500, v, 3))

    def test_matches_brute_force(self):
        k = SeedMatrix.rmat(0.5, 0.3, 0.1, 0.1)
        k3 = k.kronecker_power(3)
        for v in range(8):
            assert math.isclose(column_probability(k, v, 3),
                                float(k3[:, v].sum()), rel_tol=1e-12)


class TestBitProbabilities:
    def test_factorization_reconstructs_conditional(self):
        """P(v|u) must equal the product of per-bit Bernoulli terms —
        the correctness claim of the bitwise sampler."""
        levels = 4
        u = 0b1010
        p = destination_bit_probabilities(GRAPH500, u, levels)
        p_row = row_probability(GRAPH500, u, levels)
        for v in range(16):
            direct = edge_probability(GRAPH500, u, v, levels) / p_row
            prod = 1.0
            for i in range(levels):
                bit = (v >> i) & 1
                prod *= p[i] if bit else (1.0 - p[i])
            assert math.isclose(direct, prod, rel_tol=1e-12)

    def test_bits_reflect_source(self):
        p = destination_bit_probabilities(GRAPH500, 0b0101, 4)
        p0 = 0.19 / 0.76
        p1 = 0.05 / 0.24
        assert np.allclose(p, [p1, p0, p1, p0])


class TestExpectedDegree:
    def test_hub_has_largest_expectation(self):
        # Vertex 0 (all-zero bits) has the largest row probability when
        # alpha + beta > gamma + delta.
        degs = [expected_degree(GRAPH500, u, 6, 1024) for u in range(64)]
        assert degs[0] == max(degs)

    def test_sum_matches_num_edges(self):
        total = sum(expected_degree(GRAPH500, u, 6, 1024)
                    for u in range(64))
        assert math.isclose(total, 1024, rel_tol=1e-9)


class TestBruteForceCdf:
    def test_monotone_and_complete(self):
        cdf = brute_force_cdf(FIG3, 2, 3)
        assert cdf[0] == 0.0
        assert np.all(np.diff(cdf) >= 0)
        assert math.isclose(float(cdf[-1]), 0.147)

    def test_paper_cdf_values(self):
        # F_2(4) = 0.105 and F_2(6) = 0.133 from the Lemma 4 example.
        cdf = brute_force_cdf(FIG3, 2, 3)
        assert math.isclose(float(cdf[4]), 0.105)
        assert math.isclose(float(cdf[6]), 0.133)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**6 - 1))
def test_lemma1_property(levels, u):
    """Lemma 1 equals brute-force summation for arbitrary (levels, u)."""
    u = u & ((1 << levels) - 1)
    assert math.isclose(row_probability(GRAPH500, u, levels),
                        brute_force_row_probability(GRAPH500, u, levels),
                        rel_tol=1e-10)
