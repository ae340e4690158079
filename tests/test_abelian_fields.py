import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    for group in [C4, V4, AbelianGroupSpec([2, 4]), AbelianGroupSpec([6])]:
        lat = subgroup_moebius(group)
        for h in lat.subgroups:
            total = sum(mu for k, mu in lat.moebius.items() if h <= k)
            assert total == (1 if h == frozenset(group.elements()) else 0)


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
    # the bulk DFS and the per-support enumerator are independent paths to
    # the same counts; sweep groups, omega choices, semantics, checkpoints
    import random

    rng = random.Random(2024)
    # C10 and C30 put a wild prime after admissible tame primes in the
    # enumeration order, which exercises the bulk-zone wild handling
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
