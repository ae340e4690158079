import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramclass.arith import (
    class_progressions,
    invariant_factors,
    is_prime,
    omega_sieve,
    prime_counts_mod,
    prime_factors,
    progression_counts,
    segmented_squarefree,
    sieve_primes,
    valuation,
)
from ramclass.dirichlet import segmented_primes
from ramclass.errors import CapExceeded


def _squarefree_slow(n):
    return n != 0 and all(valuation(n, p) == 1 for p in prime_factors(n))


@given(st.integers(0, 5000), st.integers(0, 2000))
def test_sieve_primes_matches_segmented_primes(lo, width):
    hi = lo + width
    primes = sieve_primes(hi)
    assert primes.dtype == np.int64
    assert [int(p) for p in primes if p >= lo] == segmented_primes(lo, hi)


def _floor_values(n):
    root = math.isqrt(n)
    return [n // i for i in range(1, root + 1)] + list(range(n // root - 1, 0, -1))


def _check_prime_counts(n, e):
    table = prime_counts_mod(n, e)
    assert sorted(table) == [c for c in range(e) if math.gcd(c, e) == 1]
    primes = sieve_primes(n + 1)
    values = np.array(_floor_values(n) if n else [], dtype=np.int64)
    for c, counts in table.items():
        assert counts.dtype == np.int64 and len(counts) == len(values)
        in_class = primes[primes % e == c]
        want = np.searchsorted(in_class, values, side="right")
        assert counts.tolist() == want.tolist(), (n, e, c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 * 10 ** 5 - 1), st.integers(1, 64))
def test_prime_counts_mod_matches_the_sieve_at_every_floor_value(n, e):
    _check_prime_counts(n, e)


def test_prime_counts_mod_at_every_small_n():
    # every prime square and its neighbours is an n here, and a floor value
    for n in range(0, 300):
        for e in (1, 2, 3, 4, 5, 7, 12, 30):
            _check_prime_counts(n, e)


def test_prime_counts_mod_exact_values():
    # pi(1e9) = 50 847 534: the odd primes, then the prime 2
    assert prime_counts_mod(10 ** 9, 2)[1][0] + 1 == 50_847_534
    # below 1e8 the class 2 mod 3 leads; with the prime 3, pi(1e8) = 5 761 455
    split = prime_counts_mod(10 ** 8 - 1, 3)
    assert (split[1][0], split[2][0]) == (2_880_517, 2_880_937)
    with pytest.raises(CapExceeded):
        prime_counts_mod(2 ** 63, 2)


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


def _omega_slow(limit):
    return [0, 0][:limit] + [len(prime_factors(n)) for n in range(2, limit)]


def test_omega_sieve_exact_at_every_small_limit():
    # the whole array at every limit, so every small/large split below 1500 is crossed
    want = _omega_slow(1500)
    for limit in range(1500):
        assert omega_sieve(limit).tolist() == want[:limit], limit


def test_omega_sieve_exact_around_prime_squares():
    # at p * p - 1, p * p and p * p + 1 the prime p crosses isqrt(limit - 1), and the
    # last cofactor step has m * q just below the limit
    want = _omega_slow(97 * 97 + 2)
    for p in sieve_primes(100).tolist():
        for limit in (p * p - 1, p * p, p * p + 1):
            assert omega_sieve(limit).tolist() == want[:limit], limit


def test_sieve_primes_exact():
    for limit in range(2000):
        assert sieve_primes(limit).tolist() == segmented_primes(0, limit), limit
    assert len(sieve_primes(10 ** 7)) == 664_579
    assert len(sieve_primes(10 ** 8)) == 5_761_455


@given(st.integers(0, 5000), st.integers(1, 1500), st.data())
def test_segmented_squarefree_matches_trial_division(lo, width, data):
    hi = lo + width
    flags = segmented_squarefree(lo, hi)
    for n in [lo, hi - 1] + data.draw(st.lists(st.integers(lo, hi - 1), max_size=30)):
        assert flags[n - lo] == _squarefree_slow(n), n
    mid = data.draw(st.integers(lo, hi))
    split = np.concatenate([segmented_squarefree(lo, mid), segmented_squarefree(mid, hi)])
    assert np.array_equal(split, flags)


@given(st.integers(0, 3000), st.integers(0, 300),
       st.lists(st.tuples(st.integers(-100, 3500), st.integers(1, 80)), max_size=12))
def test_progression_counts_matches_python_count(lo, width, progressions):
    # starts fall below lo, inside the window and above hi
    hi = lo + width
    counts = progression_counts(lo, hi, progressions)
    assert counts.shape == (width,) and counts.dtype == np.int8
    assert counts.tolist() == [sum(1 for start, step in progressions
                                   if n >= start and (n - start) % step == 0)
                               for n in range(lo, hi)]


@settings(deadline=None)
@given(st.sampled_from([1, 4, 16, 12]), st.data(), st.integers(0, 400), st.integers(0, 200),
       st.lists(st.tuples(st.integers(-100, 5000), st.integers(1, 6), st.integers(1, 40)),
                max_size=12))
def test_class_progressions_match_the_unrestricted_counts(m, data, lo, width, drawn):
    # steps are k times 1, 2, 3, 4, 8 or 16, so most share a factor with some m and
    # often miss the class; starts fall below the window
    r = data.draw(st.integers(0, m - 1))
    progressions = [(start, (1, 2, 3, 4, 8, 16)[f - 1] * k) for start, f, k in drawn]
    hi = lo + width
    got = progression_counts(lo, hi, class_progressions(progressions, r, m))
    full = progression_counts(r + m * lo, r + m * hi, progressions)
    assert got.tolist() == full[::m].tolist()


def test_class_progressions_drop_empty_intersections():
    # n = 1 mod 4 and even n never meet 3 mod 4; odd n meets it every other term
    assert class_progressions([(1, 4), (2, 6), (5, 8)], 3, 4) == []
    assert class_progressions([(1, 2)], 3, 4) == [(0, 1)]
    assert class_progressions([(7, 10), (-3, 12)], 0, 1) == [(7, 10), (-3, 12)]


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


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if prime_factors(n) == [n]]


@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 2152302898747,
                               3474749660383, 341550071728321, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(100000000000031) and is_prime(1000000000000037)
    assert not is_prime(100000000000031 * 1000003)
    with pytest.raises(CapExceeded):
        is_prime(3317044064679887385961981)
