"""The table engine of permgroup against a slow path that works one element at a time.

The slow path lives here, not in the package: closure by Permutation.__mul__,
Permutation.order(), orbit_gcd(g), conjugacy classes by conjugating with every
element, and closure under invertible powering by walking every power g^a,
a = 1 .. ord(g) - 1.  Both closure predicates run on random subsets, most of
them not closed, and on subsets closed under some units or generators only.
"""

import math
import random

import pytest

from ramclass.arith import euler_phi, prime_factors, valuation
from ramclass.cli import group_report
from ramclass.errors import NonTransitive
from ramclass.permgroup import (
    DihedralStructure,
    PermGroup,
    Permutation,
    closed_under_conjugation,
    closed_under_invertible_powering,
    non_random_primes,
    omega_set,
    orbit_gcd,
    parse_group_spec,
)

# -- the slow path ----------------------------------------------------------------


def slow_closure(generators):
    identity = Permutation.identity(generators[0].degree)
    seen, frontier = {identity}, [identity]
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = s * g
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return seen


def slow_powering_closed(omega):
    for g in omega:
        gamma, power = g.order(), g
        for a in range(1, gamma):
            if math.gcd(a, gamma) == 1 and power not in omega:
                return False
            power = power * g
    return True


def slow_conjugation_closed(generators, omega):
    return all(s * g * s.inverse() in omega for g in omega for s in generators)


def slow_class(elements, g):
    return frozenset(x * g * x.inverse() for x in elements)


# -- inputs -------------------------------------------------------------------------


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_generator_sets(count, seed):
    rng = random.Random(seed)
    return [[random_permutation(rng, n) for _ in range(rng.randint(1, 3))]
            for n in (rng.randint(2, 7) for _ in range(count))]


def random_subsets(rng, group, count):
    """Subsets of the group: random ones, and ones closed under one unit or one conjugation."""
    elements = list(group.elements)
    for _ in range(count):
        seeds = rng.sample(elements, rng.randint(1, min(4, len(elements))))
        kind = rng.randrange(4)
        if kind == 0:  # random: almost never closed
            yield frozenset(seeds)
            continue
        subset = set()
        for g in seeds:
            gamma = g.order()
            units = [a for a in range(1, gamma + 1) if math.gcd(a, gamma) == 1]
            if kind == 1:  # the orbit of g under one unit b: closed under b only
                b, power = rng.choice(units), g
                while power not in subset:
                    subset.add(power)
                    power = power ** b
            else:  # every g^a with a a unit: closed under powering
                subset.update(g ** a for a in units)
        if kind == 3:  # and under conjugation by some of the generators
            movers = rng.sample(group.generators, rng.randint(1, len(group.generators)))
            frontier = list(subset)
            while frontier:
                g = frontier.pop()
                for s in movers:
                    h = s * g * s.inverse()
                    if h not in subset:
                        subset.add(h)
                        frontier.append(h)
        yield frozenset(subset)


def named_group(spec):
    built = parse_group_spec(spec)
    return built.group if isinstance(built, DihedralStructure) else built


# the units mod 8 and 16 need both -1 and 5; C30 and C60 need the CRT lifts
NAMED = ["C7", "C8", "C9", "C12", "C16", "C30", "C60", "C64", "D8@reg", "A4@S6", "S5", "S6"]


# -- closure and per-element invariants ----------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_closure_and_invariants_match_the_slow_path(seed):
    rng = random.Random(100 + seed)
    for generators in random_generator_sets(20, seed):
        n = generators[0].degree
        slow = slow_closure(generators)
        if {g.apply(1) for g in slow} != set(range(1, n + 1)):
            with pytest.raises(NonTransitive):
                PermGroup.generate(generators)
            continue
        group = PermGroup.generate(generators)
        assert group.elements == tuple(sorted(slow))
        assert group.order == len(slow) and group.is_transitive()
        for g in group:
            assert g in group
            assert group.element_order[g] == g.order()
            assert group.orbit_gcd[g] == orbit_gcd(g)
        for g in rng.sample(group.elements, min(6, group.order)):
            assert group.class_size(g) == len(slow_class(group.elements, g))
        assert group.is_abelian() == all(a * b == b * a for a in slow for b in generators)
        for q in prime_factors(group.order):
            for l in [*range(1, valuation(group.order, q) + 1), math.inf]:
                expected = {g for g in slow if (valuation(orbit_gcd(g), q) == l if l != math.inf
                                                else orbit_gcd(g) % q == 0)}
                assert omega_set(group, q, l) == expected
        assert non_random_primes(group) == {q for g in slow for q in prime_factors(orbit_gcd(g))}


@pytest.mark.parametrize("spec", ["S4", "D6@S6", "D5@reg", "A4@S6", "C2xC4"])
def test_every_class_size_matches_the_brute_force_classes(spec):
    group = named_group(spec)
    for g in group:
        assert group.class_size(g) == len(slow_class(group.elements, g))


# -- the closure predicates ------------------------------------------------------------


def check_predicates(group, subsets):
    seen = {True: 0, False: 0}
    for omega in subsets:
        powered = slow_powering_closed(omega)
        assert closed_under_invertible_powering(group, omega) == powered, sorted(omega)
        assert closed_under_conjugation(group, omega) == \
            slow_conjugation_closed(group.generators, omega), sorted(omega)
        seen[powered] += 1
    return seen


@pytest.mark.parametrize("seed", range(3))
def test_closure_predicates_on_random_subsets_of_random_groups(seed):
    rng = random.Random(200 + seed)
    seen = {True: 0, False: 0}
    for generators in random_generator_sets(40, 50 + seed):
        try:
            group = PermGroup.generate(generators)
        except NonTransitive:
            continue
        for key, value in check_predicates(group, random_subsets(rng, group, 12)).items():
            seen[key] += value
    assert seen[True] and seen[False]  # both answers were exercised


@pytest.mark.parametrize("spec", NAMED)
def test_closure_predicates_on_random_subsets_of_named_groups(spec):
    group = named_group(spec)
    seen = check_predicates(group, random_subsets(random.Random(spec), group, 60))
    assert seen[True] and seen[False]


@pytest.mark.parametrize("m", [8, 16, 30, 60])
def test_powering_needs_every_unit_generator(m):
    """The orbit of a generator g under one unit b is closed under b but not under powering.

    At m = 8 and 16 the units -1 and 5 each leave the other out, and at 30 and 60
    each local generator must be lifted to a unit mod m.
    """
    group = named_group(f"C{m}")
    g = next(g for g in group if group.element_order[g] == m)
    for b in (a for a in range(2, m) if math.gcd(a, m) == 1):
        orbit, power = set(), g
        while power not in orbit:
            orbit.add(power)
            power = power ** b
        expected = len(orbit) == euler_phi(m)
        assert closed_under_invertible_powering(group, orbit) == expected, b
        assert slow_powering_closed(orbit) == expected


# -- closed forms for the regular cyclic group ------------------------------------------


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@pytest.mark.parametrize("m", [12, 36, 360, 500])
def test_cyclic_report_matches_closed_forms(m):
    """|Omega(q^l)| = sum of phi(d) over d | m with v_q(d) = l, beta_total = tau(m) - 1,
    beta_complement_q = tau(m / q^v_q(m)) - 1 for the regular Cm."""
    report = group_report(f"C{m}")
    primes = prime_factors(m)
    assert report["order"] == report["degree"] == m and report["abelian"]
    assert report["non_random_primes"] == primes
    expected_sets = {}
    for q in primes:
        for l in range(1, valuation(m, q) + 1):
            expected_sets[f"{q}^{l}"] = sum(euler_phi(d) for d in divisors(m)
                                            if valuation(d, q) == l)
        expected_sets[f"{q}^inf"] = m - m // q ** valuation(m, q)
    assert {key: len(names) for key, names in report["omega_sets"].items()} == expected_sets
    expected_betas = {"beta_total": len(divisors(m)) - 1}
    for q in primes:
        expected_betas[f"beta_complement_{q}"] = len(divisors(m // q ** valuation(m, q))) - 1
    assert report["betas"] == expected_betas
