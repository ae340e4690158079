from fractions import Fraction

import pytest

from ramclass.bounds import (
    RamificationProfile,
    RamifiedPrimeRecord,
    RZInputs,
    canonical_d4,
    clm_predicted_moment,
    d4_bounds,
    e_K,
    genus_rank_lower_bound,
    indicator_omega_r,
    is_type,
    parse_profile,
    rz_lower_bound,
    rz_relative_lower_bound,
)
from ramclass.errors import (
    InvalidInputs,
    MissingAbelianRank,
    MissingGroup,
    NonPositive,
    NotClosed,
    ParseError,
    WrongGroup,
)
from ramclass.permgroup import PermGroup, Permutation, parse_group_spec
from ramclass.quadratic import class_group_data, enumerate_discriminants

S4_D4 = canonical_d4()
S3 = parse_group_spec("S3")


def rec(p, exps=None, cls=None, degree=None):
    if cls is not None:
        return RamifiedPrimeRecord(p, inertia_class=Permutation.parse(cls, degree))
    return RamifiedPrimeRecord(p, exponents=exps)


# -- e_K and typing ------------------------------------------------------------


def test_e_K_examples():
    assert e_K(rec(7, exps=(2, 1))) == 1
    assert e_K(rec(7, exps=(3,))) == 3
    assert e_K(rec(5, cls="(1 2 3 4)", degree=4), S4_D4) == 4
    with pytest.raises(MissingGroup):
        e_K(rec(5, cls="(1 2 3 4)", degree=4))


def test_is_type_examples():
    assert is_type(rec(7, exps=(3,)), 3, 1)
    assert not is_type(rec(7, exps=(2, 1)), 2, 1)
    assert is_type(rec(7, exps=(4,)), 2, 2)


def test_is_type_needs_q_at_least_2():
    for q in (1, 0, -3):
        with pytest.raises(InvalidInputs):
            is_type(rec(7, exps=(3,)), q, 1)


def test_record_validation():
    with pytest.raises(ValueError):
        RamifiedPrimeRecord(5)
    with pytest.raises(ValueError):
        RamifiedPrimeRecord(5, exponents=(0,))
    with pytest.raises(ValueError):
        RamifiedPrimeRecord(5, exponents=(2,),
                            inertia_class=Permutation.identity(2))


# -- genus bound ------------------------------------------------------------------


def cubic_profile(primes_1mod3, partial=()):
    records = [rec(p, exps=(3,)) for p in primes_1mod3]
    records += [rec(p, exps=(2, 1)) for p in partial]
    return RamificationProfile(3, records, abelian_subext_rank={3: 0})


def test_genus_bound_cubic_example():
    profile = cubic_profile([7, 13], partial=[5])
    raw, clamped, data = genus_rank_lower_bound(profile, 3)
    assert raw == 2 and clamped == 2
    assert data.abelian_part == (3, 3)


def test_genus_data_invariant_factors():
    # gcd factors {4, 2, 3} combine into the chain (2, 12)
    profile = RamificationProfile(
        12,
        [rec(5, exps=(4, 4, 4)), rec(3, exps=(2,) * 6), rec(7, exps=(3, 3, 3, 3))],
        abelian_subext_rank={2: 0, 3: 0})
    from ramclass.bounds import genus_data

    assert genus_data(profile).abelian_part == (2, 12)


def test_genus_bound_empty_profile():
    profile = RamificationProfile(3, [], abelian_subext_rank={3: 1})
    raw, clamped, _ = genus_rank_lower_bound(profile, 3)
    assert raw == -1 and clamped == 0


def test_genus_bound_needs_rank():
    profile = RamificationProfile(3, [rec(7, exps=(3,))])
    with pytest.raises(MissingAbelianRank):
        genus_rank_lower_bound(profile, 3)


def quadratic_profile(D):
    data = class_group_data(D)
    records = []
    n = abs(D)
    p = 2
    while p <= n:
        if n % p == 0:
            records.append(rec(p, exps=(2,)))
            while n % p == 0:
                n //= p
        p += 1
    return RamificationProfile(2, records, abelian_subext_rank={2: 1}), data


def test_genus_bound_on_quadratic_fields():
    for D in enumerate_discriminants("abs_disc", 400):
        profile, data = quadratic_profile(D)
        raw, clamped, _ = genus_rank_lower_bound(profile, 2)
        odd_count = sum(1 for r in profile.primes if r.p != 2)
        assert raw == odd_count - 1
        assert raw <= data.rk2  # theorem check
        if D % 2 != 0:
            assert raw == data.omega - 1


# -- RZ bounds ---------------------------------------------------------------------


def test_rz_cubic_seven_primes():
    profile = cubic_profile([7, 13, 19, 31, 37, 43, 61])
    report = rz_lower_bound(profile, 3)
    assert report["type_count"] == 7
    assert report["lower_bound_raw"] == 3
    assert report["lower_bound"] == 3
    assert report["upper_bound"] == 7


def test_rz_quadratic_weak_form():
    profile, data = quadratic_profile(-84)
    report = rz_lower_bound(profile, 2)
    assert report["lower_bound_raw"] == data.omega - 2


def test_rz_empty_profile_clamps():
    profile = RamificationProfile(3, [])
    report = rz_lower_bound(profile, 3)
    assert report["lower_bound_raw"] == -4 and report["lower_bound"] == 0


def test_rz_with_inputs():
    profile = cubic_profile([7, 13, 19])
    report = rz_lower_bound(profile, 3, inputs=RZInputs(1, 0, 0))
    assert report["lower_bound_raw"] == 2
    with pytest.raises(InvalidInputs):
        rz_lower_bound(profile, 3, inputs=RZInputs(5, 0, 0))
    with pytest.raises(InvalidInputs):
        RZInputs(1, 0, 2)


def test_rz_relative_d4_fixture():
    classes = ["(1 2 3 4)"] * 4 + ["(1 3)(2 4)"] * 3 + ["(1 2)(3 4)"] * 2
    records = [rec(p, cls=c, degree=4)
               for p, c in zip([3, 5, 7, 11, 13, 17, 19, 23, 29], classes)]
    profile = RamificationProfile(4, records, group=S4_D4)
    report = rz_relative_lower_bound(profile, 2, 1)
    assert report["type_count"] == 9
    assert report["lower_bound_raw"] == 3


def test_rz_relative_synthetic_c4():
    group = parse_group_spec("C4")
    gen = next(g for g in group if group.element_order[g] == 4)
    records = [RamifiedPrimeRecord(p, inertia_class=gen) for p in (5, 13, 17)]
    profile = RamificationProfile(4, records, group=group)
    report = rz_relative_lower_bound(profile, 2, 1)
    assert report["lower_bound_raw"] == 3 - 6
    assert report["lower_bound"] == 0


def test_rz_relative_needs_positive_degree():
    profile = cubic_profile([7, 13, 19])
    assert rz_relative_lower_bound(profile, 3, 1, n=1)["lower_bound_raw"] == 3
    for n in (0, -5):
        with pytest.raises(InvalidInputs):
            rz_relative_lower_bound(profile, 3, 1, n=n)


# -- D4 bounds ---------------------------------------------------------------------


def d4_profile(classes, primes=None):
    primes = primes or [3, 5, 7, 11, 13, 17, 19, 23, 29][:len(classes)]
    records = [rec(p, cls=c, degree=4) for p, c in zip(primes, classes)]
    return RamificationProfile(4, records, group=S4_D4)


def test_d4_tallies_example():
    report = d4_bounds(d4_profile(["(1 2 3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]))
    got = tuple(report[f"omega{i}"]["tally"] for i in (1, 2, 3, 4))
    assert got == (2, 3, 1, 1)


def test_d4_empty_profile():
    report = d4_bounds(d4_profile([]))
    for i in (1, 2, 3, 4):
        assert report[f"omega{i}"]["lower_bound_raw"] == -6
        assert report[f"omega{i}"]["lower_bound"] == 0


def test_d4_all_sigma_squared():
    report = d4_bounds(d4_profile(["(1 3)(2 4)"] * 4))
    assert report["omega1"]["tally"] == 0
    assert report["omega3"]["tally"] == 4


def test_d4_wild_two_excluded():
    profile = d4_profile(["(1 2 3 4)"], primes=[2])
    report = d4_bounds(profile)
    assert report["omega2"]["tally"] == 0


def test_d4_wrong_group():
    profile = RamificationProfile(3, [rec(7, cls="(1 2 3)", degree=3)], group=S3)
    with pytest.raises(WrongGroup):
        d4_bounds(profile)


@pytest.mark.parametrize("spec", ["D4@reg", "C8", "C2xC4", "conjugate"])
def test_d4_other_groups_of_order_8_are_refused(spec):
    if spec == "conjugate":  # another Sylow 2-subgroup of S4
        group = PermGroup.generate([Permutation.parse(c, 4) for c in ("(1 2 4 3)", "(1 4)")])
    else:
        built = parse_group_spec(spec)
        group = getattr(built, "group", built)
    assert group.order == 8
    with pytest.raises(WrongGroup):
        d4_bounds(RamificationProfile(group.degree, [], group=group))


def test_d4_containment_chain():
    import random

    rng = random.Random(7)
    reps = ["(1 2 3 4)", "(1 4 3 2)", "(1 3)(2 4)", "(1 3)", "(2 4)",
            "(1 2)(3 4)", "(1 4)(2 3)"]
    primes = [3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(25):
        classes = [rng.choice(reps) for _ in primes]
        report = d4_bounds(d4_profile(classes, primes=primes))
        t = {i: report[f"omega{i}"]["tally"] for i in (1, 2, 3, 4)}
        assert t[4] <= t[1] <= t[2]
        assert t[3] <= t[2]
        assert t[2] == t[1] + t[3]  # omega2 is the disjoint union of omega1, omega3


# -- indicator ----------------------------------------------------------------------


def s3_profile(classes, primes):
    records = [rec(p, cls=c, degree=3) for p, c in zip(primes, classes)]
    return RamificationProfile(3, records, group=S3)


def test_indicator_examples():
    omega = frozenset()
    profile = s3_profile(["(1 2 3)", "(1 3 2)"], [7, 13])
    assert indicator_omega_r(profile, omega, 0)
    assert not indicator_omega_r(profile, omega, 1)
    from ramclass.permgroup import omega_set

    omega3 = omega_set(S3, 3, 1)
    assert indicator_omega_r(profile, omega3, 2)
    assert not indicator_omega_r(profile, omega3, 1)


def test_indicator_partition():
    from ramclass.permgroup import omega_set

    omega3 = omega_set(S3, 3, 1)
    profile = s3_profile(["(1 2 3)", "(1 2)", "(1 3 2)"], [7, 5, 13])
    matches = [r for r in range(5) if indicator_omega_r(profile, omega3, r)]
    assert matches == [2]


def test_indicator_wild_primes_skipped():
    from ramclass.permgroup import omega_set

    omega3 = omega_set(S3, 3, 1)
    profile = s3_profile(["(1 2 3)"], [3])  # 3 divides |S3|
    assert indicator_omega_r(profile, omega3, 0)


def test_indicator_not_closed():
    sigma = Permutation.parse("(1 2 3 4)", 4)
    profile = d4_profile(["(1 2 3 4)"])
    with pytest.raises(NotClosed):
        indicator_omega_r(profile, frozenset([sigma]), 1)


def test_indicator_subgroup_semantics():
    # sigma-inertia meets {sigma^2} as a subgroup even though the generator differs
    sigma2 = Permutation.parse("(1 3)(2 4)", 4)
    profile = d4_profile(["(1 2 3 4)"])
    assert indicator_omega_r(profile, frozenset([sigma2]), 1)


# -- misc -----------------------------------------------------------------------------


def test_clm_moment():
    assert clm_predicted_moment(1) == 1
    assert clm_predicted_moment(4) == Fraction(1, 4)
    with pytest.raises(NonPositive):
        clm_predicted_moment(0)


def test_cross_representation_consistency():
    # the same splitting data expressed both ways answers typing identically
    pairs = [
        (rec(5, cls="(1 2 3 4)", degree=4), rec(5, exps=(4,))),
        (rec(13, cls="(1 3)(2 4)", degree=4), rec(13, exps=(2, 2))),
        (rec(17, cls="(1 3)", degree=4), rec(17, exps=(2, 1, 1))),
        (rec(7, cls="(1 2 3)", degree=3), rec(7, exps=(3,))),
    ]
    for by_class, by_exps in pairs:
        for q, l in [(2, 1), (2, 2), (3, 1)]:
            group = S4_D4 if by_class.inertia_class.degree == 4 else S3
            assert is_type(by_class, q, l, group) == is_type(by_exps, q, l)


def test_parse_profile_roundtrip():
    text = """
    degree: 4
    group: D4@S4
    3: class=(1 2 3 4)
    5: class=(1 3)(2 4)
    7: 2,2
    abelian_rank: 2=1
    """
    profile = parse_profile(text)
    assert profile.degree == 4
    assert profile.group.order == 8
    assert len(profile.primes) == 3
    assert profile.abelian_subext_rank == {2: 1}
    assert e_K(profile.primes[0], profile.group) == 4


def test_parse_profile_errors():
    with pytest.raises(ParseError):
        parse_profile("3: 2,1")
    with pytest.raises(ParseError):
        parse_profile("degree: 3\nseven: 2,1")
