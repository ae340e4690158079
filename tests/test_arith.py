import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ramclass.arith import (
    invariant_factors,
    omega_sieve,
    prime_factors,
    segmented_squarefree,
    sieve_primes,
    valuation,
)
from ramclass.dirichlet import segmented_primes


def _squarefree_slow(n):
    return n != 0 and all(valuation(n, p) == 1 for p in prime_factors(n))


@given(st.integers(0, 5000), st.integers(0, 2000))
def test_sieve_primes_matches_segmented_primes(lo, width):
    hi = lo + width
    primes = sieve_primes(hi)
    assert primes.dtype == np.int64
    assert [int(p) for p in primes if p >= lo] == segmented_primes(lo, hi)


@given(st.integers(0, 5000), st.data())
def test_omega_sieve_matches_trial_division(limit, data):
    omega = omega_sieve(limit)
    assert omega.shape == (limit,)
    picks = [0, 1, limit - 1] + data.draw(st.lists(st.integers(0, max(limit - 1, 0)),
                                                   max_size=30))
    for n in picks:
        if 0 <= n < limit:
            assert omega[n] == len(prime_factors(n)), n
    # a longer sieve extends a shorter one
    shorter = data.draw(st.integers(0, limit))
    assert np.array_equal(omega_sieve(shorter), omega[:shorter])


@given(st.integers(0, 5000), st.integers(1, 1500), st.data())
def test_segmented_squarefree_matches_trial_division(lo, width, data):
    hi = lo + width
    flags = segmented_squarefree(lo, hi)
    for n in [lo, hi - 1] + data.draw(st.lists(st.integers(lo, hi - 1), max_size=30)):
        assert flags[n - lo] == _squarefree_slow(n), n
    mid = data.draw(st.integers(lo, hi))
    split = np.concatenate([segmented_squarefree(lo, mid), segmented_squarefree(mid, hi)])
    assert np.array_equal(split, flags)


def test_small_values():
    assert list(omega_sieve(13)) == [0, 0, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2]
    assert [n for n in range(13) if segmented_squarefree(0, 13)[n]] == \
        [1, 2, 3, 5, 6, 7, 10, 11]
    assert list(sieve_primes(3)) == [2] and len(sieve_primes(2)) == 0


@settings(max_examples=200)
@given(st.lists(st.integers(1, 200), min_size=1, max_size=6))
def test_invariant_factors_chain(orders):
    factors = invariant_factors(orders)
    assert math.prod(factors) == math.prod(orders)
    assert all(d > 1 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    # the same number of factors and of orders is divisible by each p^k
    for p in {p for m in orders for p in prime_factors(m)}:
        for k in range(1, max(valuation(m, p) for m in orders) + 1):
            assert (sum(1 for d in factors if d % p ** k == 0)
                    == sum(1 for m in orders if m % p ** k == 0)), (p, k)
