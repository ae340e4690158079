import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramclass import abelian_fields, arith
from ramclass.abelian_fields import (
    AbelianGroupSpec,
    FieldCountRecord,
    automorphism_count,
    brute_force_total,
    count_fields_exact,
    count_fields_total,
    count_stratified,
    enumerate_records,
    local_budget,
    ratio_trend,
    subgroup_moebius,
    tame_local_budget,
    wild_local_budget,
)
from ramclass.arith import prime_counts_mod, prime_factors, valuation
from ramclass.dirichlet import segmented_primes
from ramclass.errors import CapExceeded, EmptyRange, NotClosed, TamePrime, WildPrime
from ramclass.permgroup import omega_set, parse_group_spec

C2 = AbelianGroupSpec([2])
C3 = AbelianGroupSpec([3])
C4 = AbelianGroupSpec([4])
V4 = AbelianGroupSpec([2, 2])


def nontrivial(group):
    return frozenset(g for g in group.elements() if g != group.identity)


# -- group spec ------------------------------------------------------------------


def test_invariant_factor_canonicalization():
    assert AbelianGroupSpec([2, 3]).invariant_factors == (6,)
    assert AbelianGroupSpec([2, 4]).invariant_factors == (2, 4)
    assert AbelianGroupSpec([6, 2]).invariant_factors == (2, 6)
    assert AbelianGroupSpec([12]).exponent == 12


def test_order_cap():
    with pytest.raises(CapExceeded):
        AbelianGroupSpec([128])


def test_omega_subset_matches_permgroup_regular_action():
    c6 = AbelianGroupSpec([6])
    perm = parse_group_spec("C6")
    for q, l in [(2, 1), (3, 1), (2, math.inf), (3, math.inf)]:
        by_order = {c6.element_order(g) for g in c6.omega_subset(q, l)}
        by_perm = {perm.element_order[g] for g in omega_set(perm, q, l)}
        assert by_order == by_perm


# -- subgroup lattice --------------------------------------------------------------


def test_moebius_cp():
    lat = subgroup_moebius(C3)
    trivial = frozenset([C3.identity])
    full = frozenset(C3.elements())
    assert lat.moebius[full] == 1
    assert lat.moebius[trivial] == -1


def test_moebius_c4():
    lat = subgroup_moebius(C4)
    assert len(lat.subgroups) == 3
    sizes = {len(h): lat.moebius[h] for h in lat.subgroups}
    assert sizes == {4: 1, 2: -1, 1: 0}


def test_moebius_klein():
    lat = subgroup_moebius(V4)
    assert len(lat.subgroups) == 5
    trivial = frozenset([V4.identity])
    assert lat.moebius[trivial] == 2
    assert sum(1 for h in lat.subgroups if len(h) == 2) == 3


def test_moebius_defining_recursion():
    for group in [C4, V4, AbelianGroupSpec([2, 4]), AbelianGroupSpec([6]),
                  AbelianGroupSpec([2, 2, 2, 2]), AbelianGroupSpec([4, 4]),
                  AbelianGroupSpec([2, 2, 4]), AbelianGroupSpec([3, 3]),
                  AbelianGroupSpec([2, 4, 8]), AbelianGroupSpec([2, 2, 2, 2, 2])]:
        lat = subgroup_moebius(group)
        for h in lat.subgroups:
            total = sum(mu for k, mu in lat.moebius.items() if h <= k)
            assert total == (1 if h == frozenset(group.elements()) else 0)


def invariant_factor_chains(max_order, prefix=()):
    """Every chain d1 | d2 | ... with d1 >= 2 and product <= max_order."""
    step = prefix[-1] if prefix else 1
    for d in range(max(step, 2), max_order // math.prod(prefix) + 1, step):
        yield prefix + (d,)
        yield from invariant_factor_chains(max_order, prefix + (d,))


def test_lattice_lists_every_subgroup():
    # Gaussian-binomial sums: the number of subspaces of F_p^k
    for k, count in zip(range(1, 6), [2, 5, 16, 67, 374]):
        assert len(subgroup_moebius(AbelianGroupSpec([2] * k)).subgroups) == count
    assert len(subgroup_moebius(AbelianGroupSpec([3, 3, 3])).subgroups) == 28
    # a finite subset holding 0 and closed under + is a subgroup
    for factors in SMALL_GROUPS:
        group = AbelianGroupSpec(factors)
        others = [g for g in group.elements() if g != group.identity]
        closed = set()
        for mask in range(1 << len(others)):
            subset = {group.identity} | {g for i, g in enumerate(others) if mask >> i & 1}
            if all(group.add(a, b) in subset for a in subset for b in subset):
                closed.add(frozenset(subset))
        assert set(subgroup_moebius(group).subgroups) == closed, factors


def hillar_rhea_aut(factors):
    """|Aut(G)| from Hillar and Rhea, Amer. Math. Monthly 114 (2007), per p-part."""
    total = 1
    for p in {p for d in factors for p in prime_factors(d)}:
        e = sorted(valuation(d, p) for d in factors if d % p == 0)
        n = len(e)
        for k in range(1, n + 1):
            d_k = max(l for l in range(1, n + 1) if e[l - 1] == e[k - 1])
            c_k = min(l for l in range(1, n + 1) if e[l - 1] == e[k - 1])
            total *= (p ** d_k - p ** (k - 1)) * p ** (e[k - 1] * (n - d_k)) \
                * p ** ((e[k - 1] - 1) * (n - c_k + 1))
    return total


def test_automorphism_count_matches_hillar_rhea():
    chains = list(invariant_factor_chains(32))
    assert len(chains) == 54  # the abelian groups of order 2..32
    for chain in chains:
        assert automorphism_count(AbelianGroupSpec(chain)) == hillar_rhea_aut(chain), chain


# -- local budgets ------------------------------------------------------------------


def test_tame_budget_examples():
    b = tame_local_budget(5, C2)
    assert b.total_nontrivial == 1
    assert tame_local_budget(7, C3).total_nontrivial == 2
    assert tame_local_budget(5, C3).total_nontrivial == 0
    with pytest.raises(WildPrime):
        tame_local_budget(2, C2)


def test_wild_budget_examples():
    b = wild_local_budget(2, C2)
    assert sum(cnt for _, cnt in b.maps()) == 4
    assert b.total_nontrivial == 3
    # at p = 3 into C3 the tame character is trivial and the pro-3 line gives 3 maps
    b = wild_local_budget(3, C3)
    assert sum(cnt for _, cnt in b.maps()) == 3
    assert b.total_nontrivial == 2
    assert local_budget(2, C3).total_nontrivial == 0
    with pytest.raises(TamePrime):
        wild_local_budget(5, C3)


def test_tame_budget_per_image_generator_counts():
    b = tame_local_budget(13, AbelianGroupSpec([4]))
    by_size = {len(img): cnt for img, cnt in b.maps()}
    assert by_size == {1: 1, 2: 1, 4: 2}


# -- exact counting -------------------------------------------------------------------


def test_c2_totals_small():
    assert count_fields_total(C2, 6) == 5
    assert count_fields_total(C2, 3) == 3  # ramified only at 2
    assert count_fields_total(C2, 2) == 0
    assert count_fields_total(C3, 2) == 0


def test_c2_ramified_only_at_2():
    recs = enumerate_records(C2, frozenset(), 3)
    assert recs == [FieldCountRecord(2, 0, 3)]


def test_c3_ramified_at_7_gives_two_pairs():
    recs = [r for r in enumerate_records(C3, frozenset(), 8) if r.n == 7]
    assert recs == [FieldCountRecord(7, 0, 2)]


def test_c3_wild_only_field():
    # the cyclic cubic field ramified only at 3: one field, two pairs
    assert count_fields_total(C3, 7) == 2
    assert count_fields_total(C3, 7, unit="fields") == 1
    assert count_fields_total(C3, 3) == 0


def test_records_match_stratified():
    omega = C3.omega_subset(3, math.inf)
    recs = enumerate_records(C3, omega, 2000)
    for r in range(4):
        agg = sum(rec.count for rec in recs if rec.r == r)
        assert agg == count_fields_exact(C3, omega, r, 2000)


def test_records_match_stratified_c2():
    omega = C2.omega_subset(2, math.inf)
    recs = enumerate_records(C2, omega, 3000)
    for r in range(5):
        agg = sum(rec.count for rec in recs if rec.r == r)
        assert agg == count_fields_exact(C2, omega, r, 3000)


@pytest.mark.parametrize("group", [C4, V4], ids=["C4", "C2xC2"])
def test_moebius_sieve_matches_brute_force_small(group):
    for x in [50, 200, 1000]:
        assert count_fields_total(group, x) == brute_force_total(group, x)


def test_monotone_and_dominated():
    omega = C3.omega_subset(3, math.inf)
    checkpoints = [100, 1000, 10000]
    strat = count_stratified(C3, omega, checkpoints, 2)
    totals = count_stratified(C3, frozenset(), checkpoints, 0)[0]
    for r in range(3):
        assert strat[r] == sorted(strat[r])
        assert all(strat[r][k] <= totals[k] for k in range(3))


def test_pairs_divisible_by_automorphisms():
    assert automorphism_count(C2) == 1
    assert automorphism_count(C3) == 2
    assert automorphism_count(V4) == 6
    assert automorphism_count(AbelianGroupSpec([2, 4])) == 8
    for x in [100, 1000]:
        assert count_fields_total(C3, x) % 2 == 0
        assert count_fields_total(V4, x) % 6 == 0


def test_not_closed_rejected():
    gen = (1,)
    with pytest.raises(NotClosed):
        count_fields_exact(C4, frozenset([gen]), 0, 100)
    with pytest.raises(NotClosed):
        count_fields_exact(C2, frozenset([C2.identity]), 0, 100)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        count_fields_total(AbelianGroupSpec([2, 2, 2]), 10 ** 6)
    with pytest.raises(CapExceeded):
        enumerate_records(C2, frozenset(), 10 ** 7)


def test_unknown_semantics_is_refused():
    """Both counters refuse a semantics they do not know, rather than reading it as subgroup."""
    with pytest.raises(ValueError, match="unknown semantics"):
        count_stratified(C2, frozenset(), [100], 0, semantics="bogus")
    with pytest.raises(ValueError, match="unknown semantics"):
        enumerate_records(C2, frozenset(), 100, semantics="bogus")


def test_semantics_flag_differs():
    # Omega = {order-2 element} in C4: a tame 1 mod 4 prime mapping onto C4
    # meets Omega as a subgroup but its generator is outside Omega
    omega = frozenset(g for g in C4.elements() if C4.element_order(g) == 2)
    sub = count_fields_exact(C4, omega, 1, 200, semantics="subgroup_meets_omega")
    gen = count_fields_exact(C4, omega, 1, 200, semantics="generator_in_omega")
    assert sub != gen


def test_ratio_trend():
    omega = C3.omega_subset(3, math.inf)
    rows = ratio_trend(C3, omega, 0, [1000, 10000, 100000])
    assert all(0 <= ratio <= 1 for _, ratio in rows)
    assert rows[0][1] > rows[-1][1]
    empty_rows = ratio_trend(C3, frozenset(), 0, [100])
    assert empty_rows[0][1] == Fraction(1)
    with pytest.raises(EmptyRange):
        ratio_trend(C3, omega, 0, [2])


def test_stratified_checkpoints_consistent():
    omega = C2.omega_subset(2, math.inf)
    multi = count_stratified(C2, omega, [100, 500, 2000], 3)
    for k, x in enumerate([100, 500, 2000]):
        single = count_stratified(C2, omega, [x], 3)
        for r in range(4):
            assert multi[r][k] == single[r][0]


def test_engines_agree_randomized():
    # the floor-value recursion and the per-support enumerator are independent
    # paths to the same counts; sweep groups, omega choices, semantics, checkpoints
    import random

    rng = random.Random(2024)
    # C10 and C30 put a wild prime after admissible tame primes, so the
    # recursion meets a wild prime between tame ones
    groups = [C2, C3, C4, V4, AbelianGroupSpec([6]), AbelianGroupSpec([2, 4]),
              AbelianGroupSpec([2, 5]), AbelianGroupSpec([2, 3, 5])]
    for trial in range(20):
        group = rng.choice(groups)
        orders = sorted({group.element_order(g) for g in group.elements()} - {1})
        chosen = frozenset(rng.sample(orders, rng.randint(1, len(orders))))
        omega = frozenset(g for g in group.elements()
                          if group.element_order(g) in chosen)
        semantics = rng.choice(["subgroup_meets_omega", "generator_in_omega"])
        checkpoints = sorted(rng.sample(range(20, 2500), 3))
        strat = count_stratified(group, omega, checkpoints, 4,
                                 semantics=semantics)
        recs = enumerate_records(group, omega, checkpoints[-1],
                                 semantics=semantics)
        for r in range(5):
            for k, x in enumerate(checkpoints):
                agg = sum(rec.count for rec in recs if rec.r == r and rec.n < x)
                assert agg == strat[r][k], (trial, group.invariant_factors,
                                            sorted(chosen), semantics, r, x)


# every abelian group of order <= 12, as cyclic factors
SMALL_GROUPS = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
                (9,), (3, 3), (10,), (11,), (12,), (2, 6)]


@st.composite
def spill_cases(draw):
    group = AbelianGroupSpec(draw(st.sampled_from(SMALL_GROUPS)))
    # a closed Omega is a union of generator sets of nontrivial cyclic subgroups
    cyclic = sorted({group.cyclic_subgroup(g) for g in nontrivial(group)}, key=sorted)
    chosen = draw(st.lists(st.sampled_from(cyclic), unique=True))
    omega = frozenset(g for g in nontrivial(group)
                      if group.cyclic_subgroup(g) in chosen)
    semantics = draw(st.sampled_from(["subgroup_meets_omega", "generator_in_omega"]))
    r_max = draw(st.integers(0, 3))
    checkpoints = sorted(draw(st.sets(st.integers(2, 3000), min_size=1, max_size=4)))
    checkpoints[0] = min(checkpoints[0], 400)
    return group, omega, semantics, r_max, checkpoints


@settings(max_examples=25, deadline=None)
@given(spill_cases())
def test_spill_row_completes_the_total(case):
    group, omega, semantics, r_max, checkpoints = case
    strat = count_stratified(group, omega, checkpoints, r_max, semantics=semantics)
    assert len(strat) == r_max + 2
    columns = [sum(column) for column in zip(*strat)]
    assert columns == count_stratified(group, frozenset(), checkpoints, 0)[0]
    assert columns[0] == brute_force_total(group, checkpoints[0])
    recs = enumerate_records(group, omega, checkpoints[-1], semantics=semantics)
    for r in range(r_max + 1):
        for k, x in enumerate(checkpoints):
            assert strat[r][k] == sum(rec.count for rec in recs if rec.r == r and rec.n < x)


# the order-16 groups, where many Moebius terms share their local data and
# merge; in C2^4 the two semantics coincide, so it runs once
MERGE_CASES = [((2, 2, 2, 2), "subgroup_meets_omega")] + [
    (factors, semantics) for factors in [(4, 4), (2, 2, 4), (2, 8), (16,)]
    for semantics in ("subgroup_meets_omega", "generator_in_omega")]
# squares and their neighbours: a checkpoint x recurses over the primes p <= sqrt(x - 1);
# 17 * 19 = 323 < 18^2 is a two-prime support onto C16 and C2xC8 right at that edge
MERGE_CHECKPOINTS = [1, 2, 4, 9, 10, 25, 48, 49, 50, 120, 121, 324, 2000]


@pytest.mark.parametrize("factors, semantics", MERGE_CASES,
                         ids=[f"{'x'.join(f'C{d}' for d in f)}-{s[:3]}" for f, s in MERGE_CASES])
def test_merged_terms_match_records(factors, semantics):
    group = AbelianGroupSpec(factors)
    omega = group.omega_subset(2, 1)
    if factors == (2, 2, 2, 2):  # 2:1 is every element; keep half of them
        omega = frozenset(g for g in omega if g[0] == 1)
    r_max = 2
    recs = enumerate_records(group, omega, MERGE_CHECKPOINTS[-1], semantics=semantics)

    def want(r, x):
        return sum(rec.count for rec in recs if min(rec.r, r_max + 1) == r and rec.n < x)

    strat = count_stratified(group, omega, MERGE_CHECKPOINTS, r_max, semantics=semantics)
    assert strat == [[want(r, x) for x in MERGE_CHECKPOINTS] for r in range(r_max + 2)]
    k = MERGE_CHECKPOINTS.index(50)
    assert sum(row[k] for row in strat) == brute_force_total(group, 50)
    # each checkpoint as the top of its own count, so each one sets the sieve
    for x in MERGE_CHECKPOINTS:
        single = count_stratified(group, omega, [x], r_max, semantics=semantics)
        assert single == [[want(r, x)] for r in range(r_max + 2)], x


# groups with a wild prime other than 2, so for x up to 60 each wild prime
# is recursed over (p * p < x) at some tops and only a prime sum at others
WILD_CASES = [(factors, semantics) for factors in [(6,), (10,), (30,), (2, 6)]
              for semantics in ("subgroup_meets_omega", "generator_in_omega")]


@pytest.mark.parametrize("factors, semantics", WILD_CASES,
                         ids=[f"{'x'.join(f'C{d}' for d in f)}-{s[:3]}" for f, s in WILD_CASES])
def test_wild_primes_at_and_above_root(factors, semantics):
    group = AbelianGroupSpec(factors)
    r_max = 2
    tops = range(1, 61)
    for q in prime_factors(group.order):
        omega = group.omega_subset(q, math.inf)
        recs = enumerate_records(group, omega, tops[-1], semantics=semantics)
        for x in tops:
            want = [[sum(rec.count for rec in recs if min(rec.r, r_max + 1) == r and rec.n < x)]
                    for r in range(r_max + 2)]
            got = count_stratified(group, omega, [x], r_max, semantics=semantics)
            assert got == want, (q, x)


# x - 1 = p^3 + {-1, 0, 1}: the prime p moves between the walk and the bulk pass
SEAM_CHECKPOINTS = sorted({p ** 3 + d + 1 for p in (2, 3, 5, 7, 11, 13, 17) for d in (-1, 0, 1)})
SEAM_CASES = [((3,), "subgroup_meets_omega"), ((4,), "subgroup_meets_omega"),
              ((2, 2), "subgroup_meets_omega")] + WILD_CASES


def _rows_from_records(recs, checkpoints, r_max):
    return [[sum(rec.count for rec in recs if min(rec.r, r_max + 1) == r and rec.n < x)
             for x in checkpoints] for r in range(r_max + 2)]


@pytest.mark.parametrize("factors, semantics", SEAM_CASES,
                         ids=[f"{'x'.join(f'C{d}' for d in f)}-{s[:3]}" for f, s in SEAM_CASES])
def test_counts_at_the_cube_root_seam(factors, semantics):
    group = AbelianGroupSpec(factors)
    for q in prime_factors(group.order):
        omega = group.omega_subset(q, math.inf)
        recs = enumerate_records(group, omega, SEAM_CHECKPOINTS[-1], semantics=semantics)
        got = count_stratified(group, omega, SEAM_CHECKPOINTS, 2, semantics=semantics)
        assert got == _rows_from_records(recs, SEAM_CHECKPOINTS, 2), q


@pytest.mark.parametrize("block", [7, 97])
def test_recursions_equal_at_every_block_size(monkeypatch, block):
    # small blocks and chunks of one or a few pairs: every chunk seam falls inside a floor index
    cases = [(C3, C3.omega_subset(3, math.inf), 2), (V4, V4.omega_subset(2, 1), 1),
             (AbelianGroupSpec([12]), AbelianGroupSpec([12]).omega_subset(2, math.inf), 3)]
    xs = [2, 9, 28, 1332, 12345, 10 ** 5]
    want = [count_stratified(group, omega, xs, r_max) for group, omega, r_max in cases]
    tables = [prime_counts_mod(n, e) for n, e in ((10 ** 6 - 1, 12), (10 ** 7, 2))]
    monkeypatch.setattr(arith, "BLOCK", block)
    monkeypatch.setattr(abelian_fields, "BLOCK", block)
    assert [count_stratified(group, omega, xs, r_max) for group, omega, r_max in cases] == want
    for (n, e), table in zip(((10 ** 6 - 1, 12), (10 ** 7, 2)), tables):
        got = prime_counts_mod(n, e)
        assert all(got[c].tolist() == table[c].tolist() for c in table), (n, e)


def test_more_rows_than_a_block_holds():
    # rows > BLOCK: a bulk chunk still takes one pair; the rows past r = 3 sum to its spill row
    omega = C3.omega_subset(3, math.inf)
    want = count_stratified(C3, omega, [10 ** 4, 10 ** 5], 3)
    got = count_stratified(C3, omega, [10 ** 4, 10 ** 5], abelian_fields.BLOCK + 3)
    assert got[:4] == want[:4] and [sum(column) for column in zip(*got[4:])] == want[4]


def test_bench_size_c3_memory(traced_peak):
    # the abelian-primes C3 count at 1e8: 1.44 MiB traced with every prime walked one by one,
    # 1.40 MiB in chunks of BLOCK // rows pairs, 2.87 MiB with the bulk pass in one chunk
    omega = C3.omega_subset(3, math.inf)
    assert traced_peak(count_stratified, C3, omega, [10 ** 8], 2) <= 1.5 * 2 ** 20


def test_one_sieve_and_one_walk_per_count(monkeypatch):
    calls = {"sieve_primes": 0, "_checkpoint_counts": 0}
    for name in calls:
        inner = getattr(abelian_fields, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(abelian_fields, name, counted)
    for factors, ck in (((3,), [10 ** 4, 10 ** 5]), ((2, 2, 2), [1000]), ((2, 4), [1, 500, 500])):
        group = AbelianGroupSpec(factors)
        before = dict(calls)
        count_stratified(group, group.omega_subset(2 if group.order % 2 == 0 else 3, 1), ck, 2)
        assert calls == {"sieve_primes": before["sieve_primes"] + 1,
                         "_checkpoint_counts": before["_checkpoint_counts"] + len(set(ck))}, factors



def test_memory_guard_before_the_sieve(monkeypatch):
    want = count_fields_total(C2, 10 ** 4)
    sieve, sieved = abelian_fields.sieve_primes, []

    def counted(limit):
        sieved.append(limit)
        return sieve(limit)

    monkeypatch.setattr(abelian_fields, "sieve_primes", counted)
    monkeypatch.setattr(abelian_fields, "_physical_memory", lambda: 10 ** 4)
    with pytest.raises(CapExceeded, match="physical memory"):
        count_stratified(C2, frozenset(), [10 ** 4], 0)
    assert sieved == []
    # the estimate, about 82 kB for the sieve, tables, recursion and one bulk chunk, fits in 100 kB
    monkeypatch.setattr(abelian_fields, "_physical_memory", lambda: 10 ** 5)
    assert count_stratified(C2, frozenset(), [10 ** 4], 0)[0] == [want]
    assert sieved == [math.isqrt(10 ** 4 - 1) + 1]


# count_stratified(G, omega_subset(q, inf), PINNED_CHECKPOINTS, r_max) by the
# sieve of every integer below 1e9 and per-class prime arrays, the counter's
# path before the floor-value tables
PINNED_CHECKPOINTS = [10 ** 4, 10 ** 6, 12345678, 10 ** 8, 999999937, 10 ** 9]
PINNED_ROWS = {
    ((2,), 2, 1): [[3, 3, 3, 3, 3, 3],
                   [3232, 203108, 2081001, 14764853, 129915127, 129915131],
                   [6901, 810094, 10427795, 86556305, 883296685, 883296743]],
    ((3,), 3, 2): [[2, 2, 2, 2, 2, 2],
                   [2142, 135682, 1389976, 9861754, 86752824, 86752830],
                   [1988, 210388, 2484752, 19215088, 182174708, 182174720],
                   [200, 86320, 1462952, 14157808, 163421896, 163421904]],
}


@pytest.mark.parametrize("factors, q, r_max", list(PINNED_ROWS), ids=["C2", "C3"])
def test_rows_to_1e9_match_the_sieve_path(factors, q, r_max):
    group = AbelianGroupSpec(factors)
    got = count_stratified(group, group.omega_subset(q, math.inf), PINNED_CHECKPOINTS, r_max,
                           cap=10 ** 9)
    assert got == PINNED_ROWS[factors, q, r_max]


# rows past 1e9, from the support walk that counted before the floor-value recursion
ROWS_AT_1E10 = {((2,), 2, 1): [3, 1159915176, 8972203182],
                ((3,), 3, 2): [2, 774415018, 1727645628, 1821436416]}


@pytest.mark.parametrize("factors, q, r_max", list(ROWS_AT_1E10), ids=["C2", "C3"])
def test_rows_at_1e10(factors, q, r_max):
    group = AbelianGroupSpec(factors)
    got = count_stratified(group, group.omega_subset(q, math.inf), [10 ** 10], r_max,
                           cap=10 ** 10)
    assert [row[0] for row in got] == ROWS_AT_1E10[factors, q, r_max]


def _moebius(n: int):
    """mu(d) for d < n, by a numpy sieve of its own."""
    prime = np.ones(n, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if prime[p]:
            prime[p * p::p] = False
    mu = np.ones(n, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(prime).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def _odd_squarefree_up_to(y: int, mu) -> int:
    """Q(y) = sum over odd d with d^2 <= y of mu(d) * ceil(floor(y / d^2) / 2)."""
    d = np.arange(1, math.isqrt(max(y, 0)) + 1, 2)
    return int((mu[d] * ((y // (d * d) + 1) // 2)).sum())


def test_c2_total_equals_the_closed_form():
    # each odd squarefree m gives one field of radical m (D = m or -m, the one that is 1 mod 4)
    # and three of radical 2m (D = 4m or -4m, and 8m and -8m); m = 1 gives Q itself, so
    # N(x) = Q(x - 1) + 3 Q((x - 1) // 2) - 1, with no prime table
    mu = _moebius(10 ** 5 + 1)

    def closed(x):
        if x < 2:
            return 0
        return _odd_squarefree_up_to(x - 1, mu) + 3 * _odd_squarefree_up_to((x - 1) // 2, mu) - 1

    small = list(range(1, 3001))
    assert count_stratified(C2, frozenset(), small, 0)[0] == [closed(x) for x in small]
    rng = random.Random(27)
    xs = sorted(rng.randrange(1, 10 ** 9) for _ in range(20))
    assert count_stratified(C2, frozenset(), xs, 0)[0] == [closed(x) for x in xs]
    got = count_stratified(C2, frozenset(), [10 ** 10], 0, cap=10 ** 10)[0]
    assert got == [closed(10 ** 10)] == [10_132_118_361]


@pytest.mark.slow
def test_c2_total_at_1e12_equals_the_closed_form():
    x = 10 ** 12
    mu = _moebius(10 ** 6 + 1)
    closed = _odd_squarefree_up_to(x - 1, mu) + 3 * _odd_squarefree_up_to((x - 1) // 2, mu) - 1
    assert count_stratified(C2, frozenset(), [x], 0, cap=x)[0] == [closed] == [1_013_211_837_457]


@pytest.mark.slow
def test_c3_rows_at_1e11():
    got = count_stratified(C3, C3.omega_subset(3, math.inf), [10 ** 11], 2, cap=10 ** 11)
    assert got[2][0] == 16_410_533_560 and sum(row[0] for row in got) == 43_234_982_466


C2_6 = AbelianGroupSpec([2] * 6)


def test_counts_past_int64_are_exact():
    # 63 maps at each tame prime and 4095 at 2 push one term's spill row past
    # 2^63, so the recursion must count in Python ints; rows from the support walk
    got = count_stratified(C2_6, C2_6.omega_subset(2, math.inf), [10 ** 8], 5, cap=10 ** 8)
    assert [row[0] for row in got] == [0, 0, 0, 0, 54865657973145600, 1255730863920906240,
                                       14789452373186641920]


def test_cell_bound_at_the_primorials():
    # x (1 + 2) for the wild class 0 mod 3, times h = 2 at each of k tame primes, k the most
    # primes whose product is below x: at each primorial p# <= 2^63, p# - 1, p# + 1 and 2^63
    setups = [(1, {0: (1, 1), 1: (2, 0)})]
    primes = segmented_primes(0, 100)
    primorials = [math.prod(primes[:j]) for j in range(1, len(primes) + 1)]
    xs = [q + d for q in primorials if q <= 2 ** 63 for d in (-1, 0, 1)] + [2 ** 63]
    assert len(xs) == 46
    for x in xs:
        k = sum(1 for q in primorials if q < x)
        assert abelian_fields._cell_bound(setups, 3, x) == x * 3 * 2 ** k, x


@pytest.mark.parametrize("group, x, r_max", [(C3, 10 ** 8, 2), (C2, 10 ** 9, 1),
                                             (C2_6, 10 ** 6, 5)], ids=["C3", "C2", "C2^6"])
def test_memory_estimate_bounds_the_traced_peak(group, x, r_max):
    import tracemalloc

    omega = group.omega_subset(2 if group.order % 2 == 0 else 3, math.inf)
    subgroup_moebius(group)  # cached and independent of x, so outside the estimate
    setups = abelian_fields._build_setups(group, omega, "subgroup_meets_omega")
    big = abelian_fields._cell_bound(setups, group.exponent, x) >= 2 ** 63
    assert big == (group is C2_6)
    need = abelian_fields._memory_needed([x], group.exponent, r_max + 2, 48 if big else 8)
    tracemalloc.start()
    try:
        count_stratified(group, omega, [x], r_max, cap=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
