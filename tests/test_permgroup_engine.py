"""The table engine of permgroup against a slow path that works one element at a time.

The slow path lives here, not in the package: closure by Permutation.__mul__,
Permutation.order(), orbit_gcd(g), conjugacy classes by conjugating with every
element, and closure under invertible powering by walking every power g^a,
a = 1 .. ord(g) - 1.  Both closure predicates run on random subsets, most of
them not closed, and on subsets closed under some units or generators only.
DihedralStructure is checked against the exhaustive product loops it once ran,
cyclic subgroups against the list of powers g^k, and h_p against the orders of
the elements it counts.  The group report, computed on row masks, is checked
against the public functions on Permutation sets.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ramclass.arith import euler_phi, prime_factors, valuation
from ramclass.cli import group_report
from ramclass.errors import NonTransitive, NotAbelian, NotSubset
from ramclass.permgroup import (
    DihedralStructure,
    PermGroup,
    Permutation,
    beta,
    beta_F,
    closed_under_conjugation,
    closed_under_invertible_powering,
    h_p,
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


def slow_dihedral(group, H, F):
    """Check G = H semidirect F, F inverting H, by every product of H x H, F x F and H x F."""
    H, F = frozenset(H), frozenset(F)
    members = frozenset(group.elements)
    if not (H <= members and F <= members):
        raise NotSubset("H and F must lie inside the group")
    identity = group.identity
    if identity not in H or identity not in F:
        raise ValueError("H and F must contain the identity")
    if len(H) * len(F) != group.order or (H & F) != {identity}:
        raise ValueError("H, F do not decompose the group")
    if len({h * f for h in H for f in F}) != group.order:
        raise ValueError("products h*f do not exhaust the group")
    for part in (H, F):
        for a in part:
            for b in part:
                if a * b not in part or a * b != b * a:
                    raise NotAbelian("H and F must be abelian subgroups")
    for f in F:
        if not f.is_identity():
            for h in H:
                if f * h * f.inverse() != h.inverse():
                    raise ValueError("F does not invert H")


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


# -- dihedral structures and cyclic subgroups ----------------------------------------------


DIHEDRAL = [f"D{n}@S{n}" for n in range(3, 13)] + [f"D{n}@reg" for n in range(3, 31)]


@pytest.mark.parametrize("spec", DIHEDRAL)
def test_dihedral_structure_matches_the_product_loops(spec):
    built = parse_group_spec(spec)
    group = built.group
    s, t = group.generators
    n = s.order()
    assert built.H == {s ** k for k in range(n)} and built.F == {group.identity, t}
    assert group.order == 2 * n and not built.f_trivial
    slow_dihedral(group, built.H, built.F)


@pytest.mark.parametrize("spec", ["C3", "C6"])
def test_abelian_dihedral_structure_matches_the_product_loops(spec):
    group = parse_group_spec(spec)
    structure = DihedralStructure(group, group.elements, [group.identity])
    assert structure.H == frozenset(group.elements) and structure.f_trivial
    slow_dihedral(group, group.elements, [group.identity])


def malformed_structures():
    """(name, group, H, F) that the product loops refuse, one per check they make."""
    d6 = named_group("D6@reg")
    s, t = d6.generators
    rotations = [s ** k for k in range(6)]
    d4 = named_group("D4@S4")
    c2xc4 = named_group("C2xC4")
    a, b = sorted(c2xc4.generators, key=lambda g: g.order())
    c6 = named_group("C6")
    g6 = next(g for g in c6 if g.order() == 6)
    c8 = named_group("C8")
    g8 = next(g for g in c8 if g.order() == 8)
    outside = Permutation.parse("(1 2)", 4)
    c2xc2 = named_group("C2xC2")
    x = c2xc2.generators[0]
    return [
        ("H outside G", d4, [d4.identity, outside], d4.elements[:4]),
        ("F outside G", d4, d4.elements[:4], [d4.identity, outside]),
        ("identity missing from H", d6, rotations[1:] + [t], [d6.identity, t]),
        ("identity missing from F", d6, rotations, [t]),
        ("|H||F| != |G|", d6, rotations[::2], [d6.identity, t]),
        ("H meets F", d6, rotations, [d6.identity, s ** 3]),
        ("H not a subgroup", d6, rotations[:5] + [s * t], [d6.identity, t]),
        ("t centralises H", c2xc4, [b ** k for k in range(4)], [c2xc4.identity, a]),
        ("t of order 2 centralises H of order 3", c6, [g6 ** k for k in (0, 2, 4)],
         [c6.identity, g6 ** 3]),
        ("F not a subgroup", c8, [g8 ** k for k in range(0, 8, 2)], [c8.identity, g8]),
        ("F = {id} over a non-abelian G", d4, d4.elements, [d4.identity]),
        # the only shape that passes every relation: t = s of order 2, |G| = 4
        ("F equal to H", c2xc2, [c2xc2.identity, x], [c2xc2.identity, x]),
    ]


@pytest.mark.parametrize("case", range(12))
def test_malformed_dihedral_structures_are_refused_like_the_product_loops(case):
    name, group, H, F = malformed_structures()[case]
    with pytest.raises(Exception) as slow:
        slow_dihedral(group, H, F)
    with pytest.raises(Exception) as fast:
        DihedralStructure(group, H, F)
    assert type(fast.value) is type(slow.value), name


def test_dihedral_shapes_beyond_the_relations_are_refused():
    """An F of order 4, or a non-cyclic H beside F, passes the product loops but is refused."""
    group = named_group("C2xC2xC2")
    x, y, z = group.generators
    for H, F in [([group.identity, x], [group.identity, y, z, y * z]),
                 ([group.identity, x, y, x * y], [group.identity, z])]:
        slow_dihedral(group, H, F)
        with pytest.raises(ValueError, match="only F of order 2 and a cyclic H"):
            DihedralStructure(group, H, F)


def test_dihedral_structure_makes_no_permutation(monkeypatch):
    """The checks run on rows: no value is made for <s>, the identity or t."""
    built = parse_group_spec("D60@reg")
    group = parse_group_spec("D60@reg").group  # a second group, none of whose rows has a value
    calls = []
    init, from_images = Permutation.__init__, Permutation._from_images.__func__
    monkeypatch.setattr(Permutation, "__init__",
                        lambda self, images: calls.append(1) or init(self, images))
    monkeypatch.setattr(Permutation, "_from_images", classmethod(
        lambda cls, images: calls.append(1) or from_images(cls, images)))
    structure = DihedralStructure(group, built.H, built.F)
    assert structure.group is group and calls == []


@pytest.mark.parametrize("spec", ["D7@reg", "D8@S8", "C12"])
def test_h_p_matches_the_element_orders(spec):
    rng, structure = random.Random(spec), parse_group_spec(spec)
    if not isinstance(structure, DihedralStructure):  # F = {id}
        structure = DihedralStructure(structure, structure.elements, [structure.identity])
    H = sorted(structure.H)
    for _ in range(20):
        subset = rng.sample(H, rng.randrange(len(H) + 1))
        for p in (2, 3, 5, 7, 11, 13, 29, 31, 97):
            want = sum(1 for h in subset if h.order() > 1 and (
                p % h.order() == 1 or not structure.f_trivial and (p + 1) % h.order() == 0))
            assert h_p(structure, p, subset) == want


def test_dihedral_structure_makes_no_permutation_products(monkeypatch):
    """The relations are read off the table; the product loops made 11 521 products for D60@reg."""
    calls = []
    multiply = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    assert parse_group_spec("D60@reg").group.order == 120
    assert len(calls) <= 4


@pytest.mark.parametrize("spec", ["S5", "D7@reg", "C2xC4", "A4@S6"])
def test_cyclic_subgroup_is_the_list_of_powers(spec):
    group = named_group(spec)
    for g in group:
        assert group.cyclic_subgroup(g) == {g ** k for k in range(g.order())}
    with pytest.raises(NotSubset):
        group.cyclic_subgroup(Permutation.identity(group.degree + 1))


# -- the report against the public functions --------------------------------------------

REPORTED = (["S3", "S4", "S5", "S6", "A4@S6"] + [f"D{n}@S{n}" for n in range(3, 9)]
            + [f"D{n}@reg" for n in range(3, 17)] + [f"C{m}" for m in range(2, 41)]
            + ["C2xC2", "C2xC4", "C3xC3", "C2xC2xC2", "C4xC4"])


@pytest.mark.parametrize("spec", REPORTED)
def test_report_matches_the_public_functions(spec):
    """Every Omega set of the report is omega_set's, named by repr, and every beta is
    beta or beta_F on Permutation sets made here; beta_F of F sums 1/phi(ord f)."""
    report = group_report(spec)
    built = parse_group_spec(spec)
    structure = built if isinstance(built, DihedralStructure) else None
    group = structure.group if structure else built
    primes = sorted(non_random_primes(group))
    assert report["non_random_primes"] == primes
    layers = {f"{q}^{l}": omega_set(group, q, l) for q in primes  # v_q(e(g)) <= v_q(|G|)
              for l in [*range(1, valuation(group.order, q) + 1), math.inf]}
    assert report["omega_sets"] == {key: sorted(map(repr, omega))
                                    for key, omega in layers.items() if omega}
    outside = {q: frozenset(group.elements) - layers[f"{q}^inf"] for q in primes}
    expected = {}
    if group.is_abelian():
        nontrivial = frozenset(g for g in group.elements if not g.is_identity())
        expected["beta_total"] = beta(group, nontrivial)
        for q, rest in outside.items():
            expected[f"beta_complement_{q}"] = beta(group, nontrivial & rest)
    elif structure:
        nontrivial = frozenset(h for h in structure.H if not h.is_identity())
        expected["beta_F_H"] = beta_F(structure, nontrivial)
        for q, rest in outside.items():
            expected[f"beta_F_complement_{q}"] = beta_F(structure, nontrivial & rest)
        expected["beta_F"] = sum(Fraction(1, euler_phi(f.order()))
                                 for f in structure.F if not f.is_identity())
    assert report["betas"] == expected


def test_membership_is_a_lookup_with_the_old_answers():
    """A Permutation of another degree, one outside G and a non-Permutation are not in G."""
    structure = parse_group_spec("D6@S6")
    group = structure.group
    wrong_degree, outside = Permutation.identity(7), Permutation.from_cycles([[1, 2]], 6)
    assert all(g in group for g in group) and len(group.elements) == 12
    for stranger in (wrong_degree, outside, (1, 2, 3, 4, 5, 6), "id", None, 1):
        assert stranger not in group
        with pytest.raises(NotSubset):
            closed_under_conjugation(group, [group.identity, stranger])
        with pytest.raises(NotSubset):
            DihedralStructure(group, structure.H | {stranger}, structure.F)
        with pytest.raises(NotSubset):
            DihedralStructure(group, structure.H, structure.F | {stranger})


# -- memory of the build ----------------------------------------------------------


def _traced_peak(build):
    """The tracemalloc peak, in MiB, of a call."""
    import tracemalloc

    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_closure_holds_no_duplicate_products():
    """C2^11: 2048 rows of 2048 points, an 8 MiB table; a level that kept every product of
    its 11 steps until it ended peaked at 53 MiB."""
    assert _traced_peak(lambda: parse_group_spec("x".join(["C2"] * 11))) <= 32


def test_cyclic_rows_are_one_walk_in_the_table_dtype():
    """<s> of D1000@reg: 1000 powers of 2000 points, 4 MiB as 16-bit rows; doubling the
    powers as 64-bit index rows peaked at 31 MiB."""
    group = parse_group_spec("D1000@reg").group
    s = int(np.flatnonzero(group._orders == 1000)[0])
    powers = []
    assert _traced_peak(lambda: powers.append(group._cyclic_rows(s))) <= 12
    assert len(np.unique(powers[0])) == 1000
