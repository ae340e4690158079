"""Invariants that tie two modules together."""

import ast
import math
from pathlib import Path

import ramclass
from ramclass.abelian_fields import AbelianGroupSpec, count_stratified, tame_local_budget
from ramclass.bounds import RamificationProfile, RamifiedPrimeRecord, e_K, is_type
from ramclass.dirichlet import fit_asymptotic, predicted_shape
from ramclass.permgroup import beta, omega_set, parse_group_spec


def test_predicted_log_exp_matches_beta():
    # log_exp + 1 equals beta(G \ Omega) computed on the regular action
    for spec, q in [("C2", 2), ("C3", 3), ("C6", 2), ("C6", 3), ("C2xC4", 2)]:
        group = parse_group_spec(spec)
        omega = omega_set(group, q, math.inf)
        complement = [g for g in group if not g.is_identity() and g not in omega]
        b = beta(group, complement)
        shape = predicted_shape("abelian", beta_complement=b, r=1)
        assert shape.log_exp + 1 == b


def test_c2_totals_equal_both_sign_discriminant_counts():
    from ramclass.quadratic import enumerate_discriminants

    C2 = AbelianGroupSpec([2])
    for x in (10 ** 3, 10 ** 4):
        quadratic_count = len(enumerate_discriminants("radical", x, signs="both"))
        assert count_stratified(C2, frozenset(), [x], 0)[0][0] == quadratic_count


def test_c3_counts_regression_anchor():
    # frozen exact values at the headline checkpoints; any change to the
    # counting machinery that moves these must be deliberate
    C3 = AbelianGroupSpec([3])
    omega = C3.omega_subset(3, math.inf)
    checkpoints = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    strat = count_stratified(C3, omega, checkpoints, 2)
    totals = count_stratified(C3, frozenset(), checkpoints, 0)[0]
    assert strat[0] == [2, 2, 2, 2]
    assert strat[1] == [2142, 16652, 135682, 1142372]
    assert strat[2] == [1988, 21288, 210388, 2021156]
    assert totals == [4332, 43214, 432392, 4323530]


def test_c2_total_table_is_linear():
    # quadratic-field counts grow linearly in the radical bound: fitted
    # log-exponent stays within 0.3 of zero over four decades
    checkpoints = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    totals = count_stratified(AbelianGroupSpec([2]), frozenset(), checkpoints, 0)[0]
    fit = fit_asymptotic(list(zip(checkpoints, totals)), loglog_exp=0)
    assert abs(fit.log_exp) <= 0.3


def test_tame_budget_orders_match_orbit_gcd():
    # a tame local map's e_K(p) is the order of its inertia image, and the
    # permutation-side e of the same element in the regular action agrees
    group = AbelianGroupSpec([4])
    perm = parse_group_spec("C4")
    budget = tame_local_budget(13, group)
    image_orders = sorted(len(img) for img, cnt in budget.maps() for _ in range(cnt))
    assert image_orders == [1, 2, 4, 4]
    for g in perm:
        rec = RamifiedPrimeRecord(13, inertia_class=g)
        order = perm.element_order[g]
        assert e_K(rec, perm) == order
        for q, l in [(2, 1), (2, 2)]:
            assert is_type(rec, q, l, perm) == (order % q ** l == 0)


def test_indicator_matches_abelian_r_semantics():
    # bounds.indicator_omega_r and the counting module agree on what r means:
    # subgroup-level intersection over tame primes only
    from ramclass.bounds import indicator_omega_r

    perm = parse_group_spec("C4")
    omega = omega_set(perm, 2, 2)  # the two 4-cycles
    gen = next(g for g in perm if perm.element_order[g] == 4)
    half = next(g for g in perm if perm.element_order[g] == 2)
    profile = RamificationProfile(
        4,
        [RamifiedPrimeRecord(5, inertia_class=gen),
         RamifiedPrimeRecord(13, inertia_class=half),
         RamifiedPrimeRecord(2, inertia_class=gen)],  # wild, never counted
        group=perm)
    # gen hits; half's subgroup misses the 4-cycles; the wild prime is skipped
    assert indicator_omega_r(profile, omega, 1)
    assert not indicator_omega_r(profile, omega, 2)


def test_source_lines_at_most_100_characters():
    long = [f"{path.name}:{k}" for path in sorted(Path(ramclass.__file__).parent.glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == []


def test_source_imports_are_all_used():
    # every name a module imports is read in it; from __future__ import annotations aside
    unused = []
    for path in sorted(Path(ramclass.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []
