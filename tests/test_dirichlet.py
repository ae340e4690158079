import math
from fractions import Fraction

import numpy as np
import pytest

from ramclass.arith import is_squarefree, omega
from ramclass.dirichlet import (
    SINGULARITY_IDENTITY,
    APClass,
    AsymptoticShape,
    PrimeSieve,
    SingularityDescriptor,
    delange_ikehara_main_term,
    fit_asymptotic,
    mertens_ap,
    predicted_shape,
    primes_in_ap,
    segmented_primes,
    singularity_product,
    summatory_oracle,
)
from ramclass.errors import (
    BadResidue,
    CapExceeded,
    InsufficientData,
    MissingParam,
    UnsupportedSingularity,
)


@pytest.fixture(scope="module")
def sieve():
    return PrimeSieve(10 ** 6)


# -- sieve and progressions ------------------------------------------------------


def test_sieve_against_segmented_tail(sieve):
    lo, hi = sieve.limit - 10 ** 4, sieve.limit
    tail = [int(p) for p in sieve.primes[sieve.primes >= lo]]
    assert tail == segmented_primes(lo, hi)


def test_primes_in_ap_examples(sieve):
    assert primes_in_ap(sieve, APClass(4, 1), 30) == 4
    count, plist = primes_in_ap(sieve, APClass(4, 1), 30, want_list=True)
    assert plist == [5, 13, 17, 29]
    assert primes_in_ap(sieve, APClass(1, 1), 10) == 4
    assert primes_in_ap(sieve, APClass(4, 3), 3) == 0


def test_bad_residue():
    with pytest.raises(BadResidue):
        APClass(4, 2)


def test_residue_counts_partition(sieve):
    x = 10 ** 5
    total = sieve.count_below(x)
    for m in (3, 4, 5, 12):
        split = sum(primes_in_ap(sieve, APClass(m, n), x)
                    for n in range(1, m + 1) if math.gcd(m, n) == 1)
        dividing = sum(1 for p in (2, 3, 5) if m % p == 0)
        assert split == total - dividing


def test_mertens_small(sieve):
    rows = mertens_ap(sieve, APClass(1, 1), [3])
    assert rows[0][1] == pytest.approx(0.5)


def test_mertens_constant_at_1e6(sieve):
    rows = mertens_ap(sieve, APClass(1, 1), [10 ** 6])
    assert rows[0][2] == pytest.approx(0.2615, abs=0.002)


def test_mertens_ap_stabilizes(sieve):
    rows = mertens_ap(sieve, APClass(4, 1), [10 ** 5, 10 ** 6])
    assert abs(rows[1][2] - rows[0][2]) < 0.02


def test_mertens_halving_drift(sieve):
    # constant estimates at x and x/2 stay within 0.02 for x >= 1e6, m <= 12
    for m in range(1, 13):
        for n in range(1, m + 1):
            if math.gcd(m, n) != 1:
                continue
            rows = mertens_ap(sieve, APClass(m, n), [5 * 10 ** 5, 10 ** 6])
            assert abs(rows[1][2] - rows[0][2]) < 0.02, (m, n)


# -- Tauberian main terms -----------------------------------------------------------


def test_main_term_examples():
    assert delange_ikehara_main_term(SingularityDescriptor(1, 0, 1.0), 10 ** 4) == 10 ** 4
    value = delange_ikehara_main_term(SingularityDescriptor(2, 0, 1.0), 10 ** 3)
    assert value == pytest.approx(10 ** 3 * math.log(10 ** 3))
    value = delange_ikehara_main_term(SingularityDescriptor(0, 1, 1.0), 10 ** 4)
    assert value == pytest.approx(10 ** 4 / math.log(10 ** 4))


def test_main_term_unsupported():
    with pytest.raises(UnsupportedSingularity):
        delange_ikehara_main_term(SingularityDescriptor(0, 0, 1.0), 100)


def test_main_term_monotone():
    d = SingularityDescriptor(1, 2, 0.5)
    values = [delange_ikehara_main_term(d, x) for x in (10 ** 2, 10 ** 3, 10 ** 4)]
    assert values == sorted(values)


def test_singularity_product():
    d1 = SingularityDescriptor(1, 1, 2.0)
    d2 = SingularityDescriptor(2, 3, 0.5)
    prod = singularity_product(d1, d2)
    assert (prod.alpha, prod.b, prod.coeff) == (3, 4, 1.0)
    assert singularity_product(d1, SINGULARITY_IDENTITY) == d1
    assert singularity_product(d1, d2) == singularity_product(d2, d1)
    d3 = SingularityDescriptor(Fraction(1, 2), 0, 3.0)
    left = singularity_product(singularity_product(d1, d2), d3)
    right = singularity_product(d1, singularity_product(d2, d3))
    assert left == right


# -- predicted shapes -----------------------------------------------------------------


def test_predicted_shape_abelian():
    shape = predicted_shape("abelian", beta_complement=0, r=3)
    assert (shape.log_exp, shape.loglog_exp) == (-1, 3)


def test_predicted_shape_abelian_empty_omega():
    shape = predicted_shape("abelian", beta_complement=1, omega_empty=True)
    assert (shape.log_exp, shape.loglog_exp) == (0, 0)


def test_predicted_shape_dihedral():
    shape = predicted_shape("dihedral_upper", beta_F_complement=0, beta_F=1,
                            beta1=0, r=2)
    assert (shape.log_exp, shape.loglog_exp) == (Fraction(1, 2), 2)
    shape = predicted_shape("dq_upper", r=3)
    assert (shape.log_exp, shape.loglog_exp) == (Fraction(1, 2), Fraction(5, 2))


def test_predicted_shape_missing_param():
    with pytest.raises(MissingParam):
        predicted_shape("abelian", r=1)
    with pytest.raises(MissingParam):
        predicted_shape("unknown", r=1)


def test_shape_scale_string():
    shape = AsymptoticShape(Fraction(-1), Fraction(2))
    assert shape.scale() == "x * (log x)^-1 * (log log x)^2"


# -- fitting ----------------------------------------------------------------------------


def synthetic_rows(log_exp, loglog_exp, lo_decade=3, hi_decade=7, per_decade=3):
    rows = []
    k = lo_decade * per_decade
    while k <= hi_decade * per_decade:
        x = 10 ** (k / per_decade)
        rows.append((x, x * math.log(x) ** log_exp * math.log(math.log(x)) ** loglog_exp))
        k += 1
    return rows


def test_fit_recovers_synthetic():
    fit = fit_asymptotic(synthetic_rows(-1.0, 2.0))
    assert fit.log_exp == pytest.approx(-1.0, abs=0.2)
    assert fit.loglog_exp == pytest.approx(2.0, abs=0.2)
    assert fit.max_rel_residual < 1e-9


def test_fit_fixed_loglog():
    fit = fit_asymptotic(synthetic_rows(0.5, 1.0), loglog_exp=1)
    assert fit.loglog_exp == 1.0
    assert fit.log_exp == pytest.approx(0.5, abs=1e-9)


def test_fit_recovers_main_term_data():
    d = SingularityDescriptor(2, 1, 3.0)
    rows = [(x, delange_ikehara_main_term(d, x))
            for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7)]
    fit = fit_asymptotic(rows)
    assert fit.log_exp == pytest.approx(1.0, abs=0.2)
    assert fit.loglog_exp == pytest.approx(1.0, abs=0.2)


def test_fit_insufficient():
    with pytest.raises(InsufficientData):
        fit_asymptotic([(10 ** 3, 5.0), (10 ** 7, 9.0)])
    with pytest.raises(InsufficientData):
        fit_asymptotic([(10 ** 3, 1.0), (10 ** 4, 1.0), (10 ** 5, 1.0), (10 ** 5.5, 1.0)])
    with pytest.raises(InsufficientData):
        fit_asymptotic([(10 ** 3, 0.0), (10 ** 4, 1.0), (10 ** 5, 2.0), (10 ** 6, 3.0)])


def test_fit_rejects_non_finite_rows_and_overflowing_shapes():
    rows = [(10.0 ** k, 10.0 ** k / k) for k in range(3, 8)]
    for bad in ((math.nan, 5.0), (math.inf, 5.0), (10.0 ** 4, math.inf), (10.0 ** 4, math.nan)):
        with pytest.raises(InsufficientData):
            fit_asymptotic(rows + [bad])
    # four points off any power law: the free fit's exponents run to about -269
    # and 739, and the fitted shape overflows a float at the checkpoints
    wild = [(1e6, 408248.29046386306), (1e7, 3779644.730092272), (1e8, 35355339.05932737),
            (1e9, 12345679.01234568)]
    with pytest.raises(InsufficientData):
        fit_asymptotic(wild)


# -- summatory oracle ---------------------------------------------------------------------


def test_summatory_ones_matches_main_term():
    x = 10 ** 6
    s = summatory_oracle("ones", x)
    main = delange_ikehara_main_term(SingularityDescriptor(1, 0, 1.0), x)
    assert abs(s - main) / main < 0.001


def test_summatory_2_omega_window_and_stabilization():
    s6 = summatory_oracle("squarefree_2_omega", 10 ** 6)
    ratio6 = s6 / (10 ** 6 * math.log(10 ** 6))
    assert 0.3 <= ratio6 <= 1.2
    s5 = summatory_oracle("squarefree_2_omega", 10 ** 5)
    ratio5 = s5 / (10 ** 5 * math.log(10 ** 5))
    s7 = summatory_oracle("squarefree_2_omega", 10 ** 7)
    ratio7 = s7 / (10 ** 7 * math.log(10 ** 7))
    assert abs(ratio6 - ratio5) / ratio5 < 0.1
    assert abs(ratio7 - ratio5) / ratio5 < 0.1


def test_summatory_2_omega_exact():
    assert [summatory_oracle("squarefree_2_omega", x) for x in (10 ** 5, 10 ** 6, 10 ** 7)] \
        == [414_813, 4_808_081, 54_684_335]
    # every x <= 2000 against 2^omega(n) summed over squarefree n < x by trial division
    terms = [1 << omega(n) if is_squarefree(n) else 0 for n in range(2000)]
    for x in range(2001):
        assert summatory_oracle("squarefree_2_omega", x) == sum(terms[:x]), x


def test_summatory_harmonic_ratio():
    # with S(x) ~ x, the weighted sum over n < x of 1/n approaches log x / Gamma(2)
    x = 10 ** 7
    harmonic = float(np.sum(1.0 / np.arange(1, x, dtype=np.float64)))
    assert abs(harmonic / math.log(x) - 1.0) < 0.15


def test_summatory_ap_product_small():
    # primes = 1 mod 3 with weight 2, r = 1: sum over p < 30 in {7, 13, 19} of 2
    s = summatory_oracle("squarefree_ap_product", 30, m=3, class_values={1: 2.0}, r=1)
    assert s == 6.0


def test_summatory_custom_matches_ap_product():
    got = summatory_oracle("custom", 500, weight=lambda p: 2.0 if p % 3 == 1 else 0.0, r=2)
    want = summatory_oracle("squarefree_ap_product", 500, m=3, class_values={1: 2.0}, r=2)
    assert got == want


def test_summatory_bounded_shift_keeps_exponents():
    # shifted Euler factors p/(p + b_p) with 0 <= b_p <= 1 leave the shape alone:
    # fitted exponents agree and the ratio of the two sums levels off
    xs = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    plain = [(x, summatory_oracle("custom", x, weight=lambda p: 1.0, r=2)) for x in xs]
    shifted = [(x, summatory_oracle("custom", x, weight=lambda p: p / (p + 1.0), r=2))
               for x in xs]
    f0 = fit_asymptotic(plain, loglog_exp=1)
    f1 = fit_asymptotic(shifted, loglog_exp=1)
    assert f1.log_exp == pytest.approx(f0.log_exp, abs=0.25)
    ratios = [s[1] / p[1] for s, p in zip(shifted, plain)]
    steps = [b - a for a, b in zip(ratios, ratios[1:])]
    assert all(0 < later < earlier for earlier, later in zip(steps, steps[1:]))


def test_summatory_cap_and_unknown():
    with pytest.raises(CapExceeded):
        summatory_oracle("ones", 10 ** 8)
    with pytest.raises(MissingParam):
        summatory_oracle("nope", 100)
    with pytest.raises(MissingParam):
        summatory_oracle("custom", 100)
