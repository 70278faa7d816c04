"""Tests for code-parameter derivation."""

import pytest

from repro.rq.params import (
    MAX_SOURCE_SYMBOLS,
    MIN_SOURCE_SYMBOLS,
    for_k,
    is_prime,
    next_prime,
)


class TestPrimes:
    def test_is_prime_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for value in range(25):
            assert is_prime(value) == (value in primes)

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(8) == 11
        assert next_prime(11) == 11
        assert next_prime(90) == 97


class TestParameterDerivation:
    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64, 100, 128, 200, 256])
    def test_structural_invariants(self, k):
        params = for_k(k)
        assert params.num_source_symbols == k
        assert params.num_intermediate_symbols == (
            k + params.num_ldpc_symbols + params.num_hdpc_symbols
        )
        assert params.num_lt_symbols + params.num_pi_symbols == params.num_intermediate_symbols
        assert params.lt_non_ldpc_symbols == params.num_lt_symbols - params.num_ldpc_symbols
        assert params.lt_non_ldpc_symbols >= 1
        assert is_prime(params.num_ldpc_symbols)
        assert is_prime(params.pi_prime)
        assert params.pi_prime >= params.num_pi_symbols
        assert params.num_hdpc_symbols >= 6

    @pytest.mark.parametrize("k", [4, 16, 64, 128])
    def test_systematic_seed_gives_invertible_matrix(self, k):
        from repro.rq.matrix import build_constraint_matrix
        from tests.rq.oracle import gaussian_rank

        params = for_k(k)
        matrix = build_constraint_matrix(params)
        assert gaussian_rank(matrix) == params.num_intermediate_symbols

    def test_overhead_recommendation(self):
        assert for_k(16).overhead_symbols == 2

    def test_k_alias(self):
        assert for_k(10).k == 10

    def test_caching_returns_same_object(self):
        assert for_k(20) is for_k(20)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            for_k(MIN_SOURCE_SYMBOLS - 1)

    def test_rejects_too_large(self):
        with pytest.raises(ValueError):
            for_k(MAX_SOURCE_SYMBOLS + 1)

    def test_ldpc_count_grows_with_k(self):
        assert for_k(256).num_ldpc_symbols > for_k(16).num_ldpc_symbols
