import math

import pytest

from ramclass.errors import (
    CapExceeded,
    DegreeMismatch,
    NonTransitive,
    NotAbelian,
    NotClosed,
    NotInH,
    NotPrime,
    NotSubset,
    ParseError,
    UnknownSpec,
)
from ramclass.permgroup import (
    DihedralStructure,
    PermGroup,
    Permutation,
    beta,
    beta_F,
    closed_under_conjugation,
    closed_under_invertible_powering,
    cyclic_factors,
    euler_phi,
    h_p,
    non_random_primes,
    omega_set,
    orbit_gcd,
    parse_group_spec,
    prime_factors,
)

P = Permutation


def cyc(text, degree):
    return Permutation.parse(text, degree)


# -- permutations --------------------------------------------------------------


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        P([1, 1, 3])


def test_composition_and_inverse():
    a = cyc("(1 2 3)", 3)
    b = cyc("(1 2)", 3)
    # function convention: (a*b)(1) = a(b(1)) = a(2) = 3
    assert (a * b).apply(1) == 3
    assert (a * a.inverse()).is_identity()
    assert a ** 3 == P.identity(3)
    assert a ** -1 == a.inverse()


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        cyc("(1 2)", 2) * cyc("(1 2)", 3)


def test_cycle_parse_roundtrip():
    g = cyc("(1 2 3 4)(5 6)", 6)
    assert Permutation.parse(repr(g), 6) == g
    assert Permutation.parse("id", 4) == P.identity(4)
    with pytest.raises(ParseError):
        Permutation.parse("(1 2", 4)
    with pytest.raises(ParseError):
        Permutation.parse("(1 9)", 4)


# -- closure -------------------------------------------------------------------


def test_generate_s3():
    g = PermGroup.generate([cyc("(1 2 3)", 3), cyc("(1 2)", 3)])
    assert g.order == 6


def test_generate_d4():
    g = PermGroup.generate([cyc("(1 2 3 4)", 4), cyc("(1 3)", 4)])
    assert g.order == 8


def test_generate_rejects_intransitive():
    with pytest.raises(NonTransitive):
        PermGroup.generate([cyc("(1 2)", 3)])


def test_generate_cap():
    with pytest.raises(CapExceeded):
        PermGroup.generate([cyc("(1 2 3)", 3), cyc("(1 2)", 3)], cap=4)


# -- orbit gcd / omega sets / non-random primes --------------------------------


def test_orbit_gcd_examples():
    assert orbit_gcd(cyc("(1 2 3)", 3)) == 3
    assert orbit_gcd(P.identity(5)) == 1
    assert orbit_gcd(cyc("(1 2)(3 4)", 4)) == 2


def d4():
    return PermGroup.generate([cyc("(1 2 3 4)", 4), cyc("(1 3)", 4)])


def s3():
    return PermGroup.generate([cyc("(1 2 3)", 3), cyc("(1 2)", 3)])


def test_omega_s3():
    assert omega_set(s3(), 3, 1) == {cyc("(1 2 3)", 3), cyc("(1 3 2)", 3)}


def test_omega_d4_2inf():
    sigma = cyc("(1 2 3 4)", 4)
    tau = cyc("(1 3)", 4)
    expected = {sigma, sigma ** 2, sigma ** 3, sigma * tau, sigma ** 3 * tau}
    assert omega_set(d4(), 2, math.inf) == expected
    # stratification: l = 2 picks the 4-cycles, l = 1 the double transpositions
    assert omega_set(d4(), 2, 2) == {sigma, sigma ** 3}
    assert omega_set(d4(), 2, 1) == {sigma ** 2, sigma * tau, sigma ** 3 * tau}


def test_omega_empty_for_coprime_q():
    assert omega_set(s3(), 5, math.inf) == frozenset()


def test_omega_rejects_nonprime():
    with pytest.raises(NotPrime):
        omega_set(s3(), 4, 1)


def test_non_random_primes_examples():
    assert non_random_primes(s3()) == {3}
    assert non_random_primes(d4()) == {2}
    a4s6 = parse_group_spec("A4@S6")
    assert a4s6.order == 12
    assert non_random_primes(a4s6) == {3}


def test_closure_checks():
    group = d4()
    sigma = cyc("(1 2 3 4)", 4)
    assert closed_under_invertible_powering(group, omega_set(group, 2, math.inf))
    assert not closed_under_invertible_powering(group, {sigma})
    assert closed_under_invertible_powering(group, frozenset())
    with pytest.raises(NotSubset):
        closed_under_invertible_powering(group, {cyc("(1 2)", 4)})


# -- beta ----------------------------------------------------------------------


def test_beta_examples():
    c2 = parse_group_spec("C2")
    assert beta(c2, [g for g in c2 if not g.is_identity()]) == 1
    assert beta(c2, frozenset()) == 0
    c3 = parse_group_spec("C3")
    assert beta(c3, [g for g in c3 if not g.is_identity()]) == 1


def test_beta_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        beta(s3(), frozenset())


def test_beta_rejects_unclosed():
    c4 = parse_group_spec("C4")
    gen = next(g for g in c4 if c4.element_order[g] == 4)
    with pytest.raises(NotClosed):
        beta(c4, {gen})


def test_beta_F_dq():
    d5 = parse_group_spec("D5@S5")
    nontrivial_h = frozenset(h for h in d5.H if not h.is_identity())
    assert beta_F(d5, nontrivial_h) == 2
    assert beta_F(d5, frozenset()) == 0


def test_beta_F_trivial_F_matches_beta():
    c6 = parse_group_spec("C6")
    structure = DihedralStructure(c6, c6.elements, [c6.identity])
    omega = frozenset(g for g in c6 if c6.element_order[g] in (2, 6))
    assert beta_F(structure, omega) == beta(c6, omega)


def test_beta_F_rejects_outside_H():
    d4s = parse_group_spec("D4@S4")
    tau = cyc("(1 3)", 4)
    with pytest.raises(NotInH):
        beta_F(d4s, {tau})


# -- h_p -----------------------------------------------------------------------


def test_h_p_all_congruences_satisfied():
    d5 = parse_group_spec("D5@S5")
    s = frozenset(h for h in d5.H if not h.is_identity())
    assert h_p(d5, 11, s) == 4  # 11 = 1 mod 5
    assert h_p(d5, 19, s) == 4  # 19 = -1 mod 5, F nontrivial
    assert h_p(d5, 7, s) == 0


def test_h_p_trivial_F_counts_plus_one_only():
    c3 = parse_group_spec("C3")
    structure = DihedralStructure(c3, c3.elements, [c3.identity])
    s = frozenset(g for g in c3 if not g.is_identity())
    assert h_p(structure, 7, s) == 2
    assert h_p(structure, 2, s) == 0  # 2 = -1 mod 3 but F is trivial


# -- spec parsing ----------------------------------------------------------------


def test_parse_examples():
    d4s = parse_group_spec("D4@S4")
    assert d4s.group.order == 8 and d4s.group.degree == 4
    klein = parse_group_spec("C2xC2")
    assert klein.order == 4 and klein.degree == 4 and klein.is_abelian()
    assert parse_group_spec("A4@S6").degree == 6
    assert parse_group_spec("S3").order == 6
    d5reg = parse_group_spec("D5@reg")
    assert d5reg.group.order == 10 and d5reg.group.degree == 10


def test_parse_failures():
    with pytest.raises(ParseError):
        parse_group_spec("Q8")
    with pytest.raises(UnknownSpec):
        parse_group_spec("D4@S5")
    with pytest.raises(UnknownSpec):
        parse_group_spec("C1")
    with pytest.raises(ParseError):
        parse_group_spec("")


# -- cross-cutting properties -----------------------------------------------------

CORPUS = ["S3", "D4@S4", "C6", "C2xC4", "D5@S5", "A4@S6"]


def corpus_group(spec):
    built = parse_group_spec(spec)
    return built.group if isinstance(built, DihedralStructure) else built


@pytest.mark.parametrize("spec", CORPUS)
def test_divisibility_chain(spec):
    group = corpus_group(spec)
    for g in group:
        e = orbit_gcd(g)
        gamma = group.element_order[g]
        assert gamma % e == 0
        assert group.order % gamma == 0


@pytest.mark.parametrize("spec", CORPUS)
def test_omega_stratification(spec):
    group = corpus_group(spec)
    for q in non_random_primes(group):
        layers = []
        l = 1
        while True:
            layer = omega_set(group, q, l)
            if not layer and all(q ** (l + k) > group.order for k in range(2)):
                break
            layers.append(layer)
            l += 1
            if q ** l > group.order:
                break
        union = frozenset().union(*layers) if layers else frozenset()
        assert union == omega_set(group, q, math.inf)
        for i, a in enumerate(layers):
            for b in layers[i + 1:]:
                assert not (a & b)


@pytest.mark.parametrize("spec", CORPUS)
def test_omega_closure_and_non_random_divisors(spec):
    group = corpus_group(spec)
    for q in non_random_primes(group):
        omega = omega_set(group, q, math.inf)
        assert closed_under_invertible_powering(group, omega)
        assert closed_under_conjugation(group, omega)
    assert non_random_primes(group) <= set(prime_factors(group.order))


@pytest.mark.parametrize("m", range(2, 25))
def test_cyclic_regular_action(m):
    group = parse_group_spec(f"C{m}")
    for g in group:
        assert orbit_gcd(g) == group.element_order[g]
    assert non_random_primes(group) == set(prime_factors(m))


def test_phi():
    assert [euler_phi(m) for m in [1, 2, 3, 4, 6, 12]] == [1, 1, 2, 2, 2, 4]


@pytest.mark.parametrize("spec", ["S4", "D4@S4", "D5@reg", "D6@S6", "A4@S6", "C2xC4"])
def test_class_sizes_and_element_invariants(spec):
    group = corpus_group(spec)
    classes = {}
    for g in group:
        brute = frozenset(x * g * x.inverse() for x in group)
        assert group.class_size(g) == len(brute)
        classes[min(brute)] = g
        assert group.orbit_gcd[g] == orbit_gcd(g)
        assert group.element_order[g] == g.order()
    assert sum(group.class_size(g) for g in classes.values()) == group.order


def test_orbits_cover_every_point():
    g = cyc("(2 5)(3 6 4)", 7)
    assert g.orbits() == [(1,), (2, 5), (3, 6, 4), (7,)]
    assert g.cycle_lengths() == [1, 2, 3, 1]
    assert g.cycles() == [(2, 5), (3, 6, 4)]


def test_cyclic_factors():
    assert cyclic_factors("C6") == [6]
    assert cyclic_factors("C2xC4xC8") == [2, 4, 8]
    for spec in ("S3", "D4@S4", "A4@S6", "C2x", "xC2", "foo"):
        assert cyclic_factors(spec) is None
    for spec in ("C1", "C2xC1", "C0"):
        with pytest.raises(UnknownSpec):
            cyclic_factors(spec)
