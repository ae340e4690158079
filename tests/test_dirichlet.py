import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ramclass import arith, dirichlet
from ramclass.arith import (
    euler_phi,
    is_squarefree,
    omega,
    omega_sieve,
    segmented_squarefree,
    sieve_primes,
)
from ramclass.dirichlet import (
    SINGULARITY_IDENTITY,
    SUMMATORY_CAP,
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


@pytest.mark.parametrize("checkpoints, message", [([1, 10 ** 3], "at least 2"),
                                                  ([], "at least one checkpoint")])
def test_mertens_rejects_bad_checkpoints(sieve, checkpoints, message):
    with pytest.raises(ValueError, match=message):
        mertens_ap(sieve, APClass(4, 1), checkpoints)


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


def test_count_below_refuses_past_the_limit():
    small = PrimeSieve(100)
    assert small.count_below(100) == 25 and small.count_below(2) == 0
    # past the limit the sieve would count only the 25 primes it holds
    with pytest.raises(CapExceeded, match="beyond sieve limit"):
        small.count_below(1000)
    with pytest.raises(CapExceeded, match="beyond sieve limit"):
        primes_in_ap(small, APClass(4, 1), 101)


def test_prime_sieve_holds_int32_primes():
    rng = random.Random(26)
    for limit in [2, 3, 4, 2 ** 18 + 1] + [rng.randrange(5, 3 * 10 ** 6) for _ in range(12)]:
        primes = PrimeSieve(limit).primes
        assert primes.dtype == np.int32
        assert np.array_equal(primes, sieve_primes(limit)), limit


def test_prime_sieve_memory(traced_peak):
    # the bound, 778 680 int32 primes in 3.0 MiB, and one window; int64 primes trace 6.6 MiB
    assert traced_peak(PrimeSieve, 10 ** 7) <= 4 * 2 ** 20


@pytest.mark.parametrize("limit, size", [(2 ** 31 - 1, 4), (2 ** 31, 8)])
def test_prime_sieve_guards_physical_memory(monkeypatch, traced_peak, limit, size):
    # the bound, 1.25506 x / log x primes, at 4 bytes below 2^31 and 8 from there on; memory
    # just short of 4 bytes a prime refuses both, and the message tells the size apart
    bound = int(1.25506 * limit / math.log(limit)) + 1
    need = size * bound
    monkeypatch.setattr(arith, "physical_memory", lambda: 4 * bound - 1)

    def refused():
        with pytest.raises(CapExceeded, match=f"need up to {need / 2 ** 30:.1f} GiB"):
            PrimeSieve(limit)

    assert traced_peak(refused) < 2 ** 14
    assert len(PrimeSieve(10 ** 4).primes) == 1229


def test_modulus_past_the_int32_range():
    # every prime below the limit is its own residue mod 2^40
    small = PrimeSieve(100)
    assert primes_in_ap(small, APClass(2 ** 40, 5), 100, want_list=True) == (1, [5])
    assert mertens_ap(small, APClass(2 ** 40, 7), [7, 8])[1][1] == 1 / 7


def _mertens_reference(sieve, ap, checkpoints):
    """mertens_ap's rows from one cumsum over every class prime."""
    primes = sieve.primes[sieve.primes % ap.m == ap.n % ap.m]
    cumulative = np.cumsum(np.reciprocal(primes, dtype=np.float64))
    rows = []
    for x in sorted(checkpoints):
        idx = int(np.searchsorted(primes, x, side="left"))
        s = float(cumulative[idx - 1]) if idx else 0.0
        rows.append((x, s, s - math.log(math.log(x)) / euler_phi(ap.m)))
    return rows


@pytest.mark.parametrize("window", [64, None], ids=["64", "default"])
def test_mertens_rows_equal_one_cumsum(sieve, monkeypatch, window):
    # checkpoints at every chunk's first and last prime and their neighbours, for every
    # class mod m <= 12; 64 puts a seam every 32 primes, the default one at 65 536
    if window:
        monkeypatch.setattr(dirichlet, "SIEVE_WINDOW", window)
    chunk = dirichlet.SIEVE_WINDOW // 2
    primes = sieve.primes[:8 * chunk] if window else sieve.primes
    ends = {int(p) + d for p in np.concatenate([primes[chunk - 1::chunk], primes[::chunk]])
            for d in (-1, 0, 1)}
    checkpoints = sorted(ends - {1} | {3, sieve.limit})
    for m in range(1, 13):
        for n in range(m):
            if math.gcd(m, n) == 1:
                ap = APClass(m, n)
                want = _mertens_reference(sieve, ap, checkpoints)
                assert mertens_ap(sieve, ap, checkpoints) == want, (m, n)


@pytest.mark.parametrize("a", [1, 3])
def test_class_selection_memory(sieve_10m, traced_peak, a):
    # half a window of primes at a time, not a residue, a mask and a copy of all 664 579
    checkpoints = range(10 ** 6, 10 ** 7 + 1, 10 ** 6)
    assert traced_peak(mertens_ap, sieve_10m, APClass(4, a), checkpoints) <= 1.5 * 2 ** 20
    assert traced_peak(primes_in_ap, sieve_10m, APClass(4, a), 10 ** 7) <= 1.5 * 2 ** 20


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
    terms = _two_omega_terms(2000)
    for x in range(2001):
        assert summatory_oracle("squarefree_2_omega", x) == sum(terms[:x]), x


def _two_omega_terms(top):
    """2^omega(n) on squarefree n, 0 elsewhere, for n < top, by trial division."""
    return [1 << omega(n) if is_squarefree(n) else 0 for n in range(top)]


def test_summatory_2_omega_across_window_seams():
    # every x in (2000, 6000], past test_summatory_2_omega_exact's loop, so the steps of the
    # quotients (x - 1) // m and y // i up there are crossed too
    prefix = np.cumsum([0] + _two_omega_terms(6000))
    for x in range(2001, 6001):
        assert summatory_oracle("squarefree_2_omega", x) == prefix[x], x


@pytest.mark.parametrize("roots", [list(range(2, 64)), segmented_primes(0, 51)],
                         ids=["64", "default"])
def test_summatory_2_omega_where_the_root_changes(roots):
    # isqrt(x - 1), isqrt(y) of every quotient y and isqrt(n // b^3) step at x = k^2 + 1: every
    # k < 64, and the primes p < 51, where p * p must not count as p times c = p
    prefix = np.cumsum([0] + _two_omega_terms(max(roots) ** 2 + 1))
    for x in sorted({k * k + d for k in roots for d in (-1, 0, 1)}):
        assert summatory_oracle("squarefree_2_omega", x) == prefix[x], x


def _two_omega_prefix(top):
    """prefix[x] = the sum of 2^omega(n) over squarefree n < x, x <= top, by one numpy sieve."""
    terms = np.left_shift(1, omega_sieve(top), dtype=np.int64) * segmented_squarefree(0, top)
    return np.concatenate([[0], np.cumsum(terms)])


def test_summatory_2_omega_matches_a_numpy_sieve():
    prefix = _two_omega_prefix(2 * 10 ** 5)
    rng = random.Random(28)
    for x in [rng.randrange(2, 2 * 10 ** 5 + 1) for _ in range(200)]:
        assert summatory_oracle("squarefree_2_omega", x) == prefix[x], x


def test_summatory_2_omega_around_the_support_of_g():
    # g of zeta(s)^-2 prod (1 + 2 p^-s) lives on m = a^2 b^3, a and b squarefree and coprime;
    # the quotient (x - 1) // m of each such m steps between x = m and x = m + 1
    top = 2 * 10 ** 5
    prefix = _two_omega_prefix(top + 2)
    support = {a * a * b ** 3 for a in range(1, math.isqrt(top) + 1)
               for b in range(1, round(top ** (1 / 3)) + 2)
               if a * a * b ** 3 < top and math.gcd(a, b) == 1
               and is_squarefree(a) and is_squarefree(b)}
    assert len(support) > 100
    for x in sorted({m + d for m in support for d in (-1, 0, 1)}):
        assert summatory_oracle("squarefree_2_omega", x) == prefix[x], x


def test_summatory_2_omega_reads_no_prime_table(monkeypatch):
    # the oracle checks the abelian counter, so it must not share that counter's prime tables
    def refuse(*args):
        raise AssertionError("the 2^omega oracle read a prime table")

    for module in (arith, dirichlet):
        monkeypatch.setattr(module, "prime_counts_mod", refuse, raising=False)
    monkeypatch.setattr(dirichlet, "sieve_primes", refuse)
    assert summatory_oracle("squarefree_2_omega", SUMMATORY_CAP) == 54_684_335


def test_summatory_2_omega_memory_with_no_window(traced_peak):
    # the terms of g and the runs of quotients of every D(y): about 0.9 MiB at the cap
    assert traced_peak(summatory_oracle, "squarefree_2_omega", SUMMATORY_CAP) <= 2 * 2 ** 20


def test_summatory_2_omega_memory_at_the_cap():
    import tracemalloc

    tracemalloc.start()
    try:
        summatory_oracle("squarefree_2_omega", SUMMATORY_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the windows and the O(sqrt x) tables, not the 20 MB that x-sized arrays take
    assert peak <= 6 * 10 ** 6


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


def _product_values_per_prime(x, weight):
    """The product oracle's values[n], n < x, by one scatter per prime below x."""
    values = np.zeros(x, dtype=np.float64)
    values[1] = 1.0
    for p in segmented_primes(0, x):
        w = weight(p)
        if w:
            mult = np.arange(p, x, p)
            values[mult] += values[mult // p] * w
    return values


@pytest.mark.parametrize("r", [None, 2])
def test_summatory_ap_product_matches_per_prime_loop(r):
    # bit for bit: the primes above sqrt(x) are counted by cofactor, the rest per prime
    class_values = {1: 1.3, 3: 0.7}  # 2 has weight 0
    weight = lambda p: class_values.get(p % 4, 0.0)
    for top, xs in ((2000, range(2001)), (10 ** 5, [10 ** 5])):
        values = _product_values_per_prime(top, weight)
        mask = segmented_squarefree(0, top)
        if r is not None:
            mask &= omega_sieve(top) == r
        mask[1] = r is None
        for x in xs:
            want = float(values[:x][mask[:x]].sum())
            got = summatory_oracle("squarefree_ap_product", x, m=4, class_values=class_values, r=r)
            assert got == want, x
        assert summatory_oracle("custom", top, weight=weight, r=r) == want


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
