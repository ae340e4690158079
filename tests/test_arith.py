import bisect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramclass import arith
from ramclass.arith import (
    bulk_pairs,
    class_progressions,
    cube_root,
    floor_index,
    floor_values,
    invariant_factors,
    is_prime,
    odd_squarefree,
    omega_sieve,
    prime_counts_mod,
    prime_factors,
    prime_windows,
    progression_counts,
    segmented_squarefree,
    primitive_root,
    sieve_primes,
    unit_generators,
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
    assert floor_values(n).dtype == np.int64 and floor_values(n).tolist() == values.tolist()
    for c, counts in table.items():
        assert counts.dtype == np.int64 and len(counts) == len(values)
        in_class = primes[primes % e == c]
        want = np.searchsorted(in_class, values, side="right")
        assert counts.tolist() == want.tolist(), (n, e, c)


def test_floor_index_is_the_last_entry_at_least_v():
    rng = random.Random(3)
    for n in list(range(1, 400)) + [rng.randrange(400, 10 ** 9) for _ in range(30)]:
        values = floor_values(n)
        assert floor_index(n, values).tolist() == list(range(len(values)))
        probes = range(1, n + 1) if n < 400 else [rng.randrange(1, n + 1) for _ in range(200)]
        for v in probes:
            assert int(floor_index(n, v)) == np.searchsorted(-values, -v, side="right") - 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 * 10 ** 5 - 1), st.integers(1, 64))
def test_prime_counts_mod_matches_the_sieve_at_every_floor_value(n, e):
    _check_prime_counts(n, e)


def test_prime_counts_mod_at_every_small_n():
    # every prime square and its neighbours is an n here, and a floor value
    for n in range(0, 300):
        for e in (1, 2, 3, 4, 5, 7, 12, 30):
            _check_prime_counts(n, e)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 7, 12, 30])
def test_prime_counts_mod_at_the_cube_root_seam(e):
    # at n = p^3 + {-1, 0, 1} the prime p moves between the one-by-one primes and bulk_pairs
    for p in sieve_primes(62).tolist():
        for n in (p ** 3 - 1, p ** 3, p ** 3 + 1):
            _check_prime_counts(n, e)


def test_cube_root_is_exact():
    rng = random.Random(29)
    for m in list(range(2000)) + [rng.randrange(2 ** 21) for _ in range(500)] + [2 ** 21 - 1]:
        for n in (m ** 3 - 1, m ** 3, m ** 3 + 1):
            if n >= 0:
                k = cube_root(n)
                assert k ** 3 <= n < (k + 1) ** 3, n
    assert cube_root(2 ** 63 - 1) == 2 ** 21 - 1 and cube_root(2 ** 63) == 2 ** 21


def _pairs_by_definition(n, primes):
    """(j, p) for every floor index j of n and p in primes with p^3 > n and p * p <= v_j."""
    return [(j, p) for j, v in enumerate(floor_values(n).tolist())
            for p in primes.tolist() if p ** 3 > n and p * p <= v]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 4096])
def test_bulk_pairs_lists_every_pair_once_in_chunks(size):
    rng = random.Random(size)
    ns = list(range(1, 200)) + [p ** 3 + d for p in (11, 13, 29) for d in (-1, 0, 1)]
    for n in ns + [rng.randrange(200, 3 * 10 ** 5) for _ in range(20)]:
        primes = sieve_primes(math.isqrt(n) + 1)
        # every prime, and a subset as a caller that drops classes passes it
        for chosen in (primes, primes[primes % 3 != 1]):
            got = []
            for j, p, starts in bulk_pairs(n, chosen, size):
                assert 0 < len(j) <= max(size, 1) and j.dtype == p.dtype == np.int64
                assert starts.tolist() == [i for i in range(len(j)) if i == 0 or j[i] != j[i - 1]]
                got += zip(j.tolist(), p.tolist())
            assert got == _pairs_by_definition(n, chosen), (n, size)


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


def test_sieve_primes_across_window_seams():
    # every limit within 2 of the ends of the first three windows of odd n
    seams = [2 * k * arith.SIEVE_WINDOW + d for k in (1, 2, 3) for d in range(-2, 3)]
    want = np.array(segmented_primes(0, seams[-1]), dtype=np.int64)
    for limit in seams:
        got = sieve_primes(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, want[:np.searchsorted(want, limit)]), limit


def test_sieve_primes_in_small_windows(monkeypatch):
    # 64 flags a window: a seam every 128 n, and the base primes come from many windows
    monkeypatch.setattr(arith, "SIEVE_WINDOW", 64)
    want = segmented_primes(0, 5001)
    for limit in range(5001):
        assert sieve_primes(limit).tolist() == want[:bisect.bisect_left(want, limit)], limit


def _joined_windows(limit):
    """prime_windows(limit) end to end, after checking that window j holds n in [2jW, 2(j+1)W)."""
    windows, width = list(prime_windows(limit)), 2 * arith.SIEVE_WINDOW
    for j, window in enumerate(windows):
        assert window.dtype == np.int64
        assert np.all((j * width <= window) & (window < (j + 1) * width)), (limit, j)
    return np.concatenate(windows).tolist() if windows else []


def test_prime_windows_join_across_seams():
    # the windows, end to end, at every limit within 2 of the ends of the first three windows
    seams = [2 * k * arith.SIEVE_WINDOW + d for k in (1, 2, 3) for d in range(-2, 3)]
    want = segmented_primes(0, seams[-1])
    for limit in seams:
        assert _joined_windows(limit) == want[:bisect.bisect_left(want, limit)], limit


def test_prime_windows_in_small_windows(monkeypatch):
    # 64 flags a window: the base primes up to 70 come from two windows
    monkeypatch.setattr(arith, "SIEVE_WINDOW", 64)
    want = segmented_primes(0, 5001)
    for limit in range(5001):
        assert _joined_windows(limit) == want[:bisect.bisect_left(want, limit)], limit


def test_omega_sieve_in_small_chunks(monkeypatch):
    # half a 64-flag window: 32 large primes a cofactor step
    monkeypatch.setattr(arith, "SIEVE_WINDOW", 64)
    want = _omega_slow(3000)
    for limit in list(range(0, 3000, 7)) + [2999]:
        assert omega_sieve(limit).tolist() == want[:limit], limit


def test_sieve_primes_memory(traced_peak):
    # the output at its bound, 6.0 MiB at 1e7, and one window of flags; no flag per odd n
    assert traced_peak(sieve_primes, 10 ** 7) <= 7 * 2 ** 20


def test_omega_sieve_memory(traced_peak):
    # one int8 per n and the primes, and no int64 product per prime above sqrt(limit)
    assert traced_peak(omega_sieve, 10 ** 7) <= 16 * 2 ** 20


def test_omega_sieve_memory_from_windows(traced_peak):
    # one int8 per n, 9.5 MiB at 1e7, and one window: no list of the primes below the limit
    assert traced_peak(omega_sieve, 10 ** 7) <= 11 * 2 ** 20


def test_sieve_primes_guards_physical_memory(monkeypatch, traced_peak):
    # the output bound, 1.25506 x / log x int64, against physical memory, before any array
    monkeypatch.setattr(arith, "physical_memory", lambda: 10 ** 5)

    def refused():
        with pytest.raises(CapExceeded, match="physical memory"):
            sieve_primes(10 ** 7)

    assert traced_peak(refused) < 2 ** 14
    assert len(sieve_primes(10 ** 4)) == 1229  # a bound of 1 363 primes, 10.9 kB, fits


@given(st.integers(0, 5000), st.integers(1, 1500), st.data())
def test_segmented_squarefree_matches_trial_division(lo, width, data):
    hi = lo + width
    flags = segmented_squarefree(lo, hi)
    for n in [lo, hi - 1] + data.draw(st.lists(st.integers(lo, hi - 1), max_size=30)):
        assert flags[n - lo] == _squarefree_slow(n), n
    mid = data.draw(st.integers(lo, hi))
    split = np.concatenate([segmented_squarefree(lo, mid), segmented_squarefree(mid, hi)])
    assert np.array_equal(split, flags)


def test_odd_squarefree_sieves_once_per_power_of_two(monkeypatch):
    sieved = []

    def counted(limit):
        sieved.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr(arith, "sieve_primes", counted)
    arith.square_progressions.cache_clear()
    r, m, width, top = 3, 4, 1000, 10 ** 5
    windows = [odd_squarefree(lo, lo + width, r, m) for lo in range(0, top, width)]
    # the last n of the windows, 3 999 to 399 999, pass 8 powers of two: 2^12 to 2^19
    assert len(sieved) == 8
    assert np.array_equal(np.concatenate(windows), odd_squarefree(0, top, r, m))


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


def _orders_of_elements(orders):
    """How many elements of the product of the C_m have each order, counted one by one."""
    counts = {}
    for element in itertools.product(*(range(m) for m in orders)):
        order = math.lcm(*(m // math.gcd(m, c) for m, c in zip(orders, element)))
        counts[order] = counts.get(order, 0) + 1
    return counts


@pytest.mark.parametrize("seed", range(100))
def test_invariant_factors_give_the_same_group(seed):
    """A divisibility chain whose product has as many elements of each order as the input's."""
    rng = random.Random(seed)
    orders = []
    for m in (rng.randint(1, 30) for _ in range(rng.randint(0, 6))):
        if math.prod(orders) * m <= 2000:
            orders.append(m)
    factors = invariant_factors(orders)
    assert all(d > 1 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert _orders_of_elements(factors) == _orders_of_elements(orders), orders


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


def _subgroup_of_units(gens, m):
    seen, frontier = {1 % m}, [1 % m]
    while frontier:
        x = frontier.pop()
        for a in gens:
            if x * a % m not in seen:
                seen.add(x * a % m)
                frontier.append(x * a % m)
    return seen


def test_unit_generators_generate_every_unit_group():
    for m in range(1, 400):
        gens = unit_generators(m)
        assert all(1 <= a < m and math.gcd(a, m) == 1 for a in gens)
        units = {a % m for a in range(1, m + 1) if math.gcd(a, m) == 1}
        assert _subgroup_of_units(gens, m) == units, m
    assert unit_generators(8) == [7, 5] and unit_generators(4) == [3] and unit_generators(2) == []


def test_primitive_root_generates_mod_every_odd_prime_power():
    # 5 is the least primitive root mod 40487 but not one mod 40487^2
    assert primitive_root(40487) == 5 and primitive_root(40487, 2) == 5 + 40487
    for p in (3, 5, 7, 11, 13, 29, 37, 40487):
        for k in (1, 2, 3):
            g, pk = primitive_root(p, k), p ** k
            order = pk - pk // p
            assert pow(g, order, pk) == 1
            assert all(pow(g, order // r, pk) != 1 for r in prime_factors(order)), (p, k)
