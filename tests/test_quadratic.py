import functools
import itertools
import os
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramclass import quadratic
from ramclass.arith import SIEVE_WINDOW, odd_squarefree, prime_factors, segmented_squarefree
from ramclass.errors import CapExceeded, EmptyRange, NotFundamental
from ramclass.quadratic import (
    ENUMERATION_CAP,
    SCAN_ORDERS,
    QuadraticFieldRecord,
    ambiguous_count,
    ambiguous_reduced_forms,
    class_group_data,
    enumerate_discriminants,
    enumerate_with_radicals,
    genus_check,
    genus_sweep,
    is_fundamental,
    moment_scan,
    omega,
    radical,
    radical_counts_both_signs,
    rank_probability_scan,
    reduced_forms,
    segmented_ambiguous,
)


# -- fundamentality and enumeration ---------------------------------------------


def test_is_fundamental():
    for D in (-3, -4, -7, -8, 5, 8, 12, -20, -23):
        assert is_fundamental(D)
    for D in (0, 1, -1, -9, -12, -18, 16, -27):
        assert not is_fundamental(D)


def test_enumerate_abs_disc():
    assert enumerate_discriminants("abs_disc", 10) == [-3, -4, -7, -8]
    assert enumerate_discriminants("abs_disc", 3) == []


def test_enumerate_radical():
    assert enumerate_discriminants("radical", 3) == [-4, -8]
    # radical 3 precedes radical 5; ties by |D|, imaginary before real
    both = enumerate_discriminants("radical", 6, signs="both")
    assert both == [-4, -8, 8, -3, 5]


def test_enumeration_matches_bruteforce_fundamental_test():
    got = set(enumerate_discriminants("abs_disc", 500, signs="both"))
    expected = {D for D in range(-499, 500) if D and is_fundamental(D)}
    assert got == expected


def test_radicals_from_shapes_match_factorization():
    for D, P in enumerate_with_radicals("radical", 300, signs="both"):
        assert P == radical(D)
    # radical(D) >= |D| / 4, so every D of radical below 300 has |D| < 1200
    brute = sorted((radical(D), abs(D), D > 0, D)
                   for D in range(-1199, 1200) if is_fundamental(D) and radical(D) < 300)
    assert enumerate_with_radicals("radical", 300, "both") == [(D, P) for P, _, _, D in brute]


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_with_radicals("abs_disc", ENUMERATION_CAP + 1)


# -- class data -------------------------------------------------------------------


def test_class_group_data_examples():
    rec = class_group_data(-4)
    assert (rec.h, rec.rk2, rec.P, rec.omega) == (1, 0, 2, 1)
    rec = class_group_data(-23)
    assert (rec.h, rec.rk2, rec.P, rec.omega) == (3, 0, 23, 1)
    rec = class_group_data(-84)
    assert (rec.h, rec.rk2, rec.P, rec.omega) == (4, 2, 42, 3)


def test_reduced_forms_minus84():
    assert reduced_forms(-84) == [(1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5)]
    assert len(ambiguous_reduced_forms(-84)) == 4


def test_class_group_data_rejects():
    with pytest.raises(NotFundamental):
        class_group_data(-12)
    with pytest.raises(NotFundamental):
        class_group_data(5)


def test_genus_check():
    assert genus_check(class_group_data(-4))
    assert genus_check(class_group_data(-84))
    assert not genus_check(QuadraticFieldRecord(-1, 1, 3, 2, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 5), st.integers(1, 15), st.integers(1, 500))
def test_fundamentals_on_windows_off_the_16_grid(q, r, width):
    lo = 16 * q + r
    hi = lo + width
    D, P = quadratic._fundamentals(lo, hi, "both")
    want = sorted(d for n in range(lo, hi) for d in (-n, n) if is_fundamental(d))
    assert sorted(D.tolist()) == want
    assert P.tolist() == [radical(d) for d in D.tolist()]
    imaginary, _ = quadratic._fundamentals(lo, hi, "imaginary")
    assert sorted(imaginary.tolist()) == [d for d in want if d < 0]


# every fundamental D with radical below 5 000, so with |D| below 20 000, and its radical
@functools.lru_cache(maxsize=1)
def _fields_by_radical():
    return [(d, radical(d)) for n in range(1, 20_000) for d in (-n, n)
            if is_fundamental(d) and radical(d) < 5000]


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 4500), st.integers(-5, 500))
def test_fundamentals_in_radical_order_on_key_ranges(lo, width):
    hi = lo + width
    D, P = quadratic._fundamentals(lo, hi, "both", "radical")
    want = sorted(d for d, p in _fields_by_radical() if lo <= p < hi)
    assert sorted(D.tolist()) == want
    assert P.tolist() == [radical(d) for d in D.tolist()]
    imaginary, _ = quadratic._fundamentals(lo, hi, "imaginary", "radical")
    assert sorted(imaginary.tolist()) == [d for d in want if d < 0]


@pytest.mark.parametrize("segment", [1, 7, 97])
def test_walks_equal_at_every_window_size(monkeypatch, segment):
    def results():
        return (genus_sweep(3 * 10 ** 4),
                [enumerate_with_radicals(kind, 3000, signs)
                 for kind in ("abs_disc", "radical") for signs in ("imaginary", "both")],
                radical_counts_both_signs(3000).tolist())

    want = results()
    monkeypatch.setattr(quadratic, "SEGMENT", segment)
    assert results() == want


def test_every_walk_takes_the_class_windows(monkeypatch):
    real, calls = quadratic._class_windows, []

    def recorded(lo, hi, cls, order="absdisc"):
        calls.append((cls, order))
        return real(lo, hi, cls, order)

    monkeypatch.setattr(quadratic, "_class_windows", recorded)

    def each_class(order, signs="imaginary"):
        tables = quadratic.IMAGINARY_CLASSES + quadratic.REAL_CLASSES * (signs == "both")
        return sorted((cls, order) for cls in set(tables))  # 8 mod 16 is walked once

    walks = [(lambda: moment_scan([1000], "absdisc"), each_class("absdisc")),
             (lambda: rank_probability_scan([1000], 1), each_class("radical")),
             (lambda: genus_sweep(1000), each_class("absdisc")),
             (lambda: enumerate_with_radicals("radical", 1000, "both"),
              each_class("radical", "both")),
             (lambda: enumerate_discriminants("abs_disc", 1000), each_class("absdisc")),
             (lambda: radical_counts_both_signs(1000), each_class("radical", "both"))]
    for walk, want in walks:
        calls.clear()
        walk()
        assert sorted(calls) == want


@pytest.mark.parametrize("cls", quadratic.IMAGINARY_CLASSES + quadratic.REAL_CLASSES)
@pytest.mark.parametrize("order", SCAN_ORDERS)
def test_class_windows_tile_the_key_range(monkeypatch, cls, order):
    monkeypatch.setattr(quadratic, "SEGMENT", 5)
    r, m, d = cls
    key = (lambda i: (r + m * i) // d) if order == "radical" else (lambda i: r + m * i)
    for lo, hi in [(-7, -1), (0, 0), (5, 5), (9, 3), (0, 1), (0, 40), (17, 200), (-3, 61)]:
        windows = quadratic._class_windows(lo, hi, cls, order)
        assert windows and all(0 <= b - a <= 5 for a, b in windows)
        assert all(b == c for (_, b), (c, _) in zip(windows, windows[1:]))
        indices = [i for a, b in windows for i in range(a, b)]
        assert indices == [i for i in range(4 * max(hi, 0) + 1) if lo <= key(i) < hi]


def test_ambiguous_count_matches_form_enumeration():
    for D in enumerate_discriminants("abs_disc", 3000):
        assert ambiguous_count(D) == len(ambiguous_reduced_forms(D)), D


def test_segmented_ambiguous_matches_divisor_sweep():
    seg = segmented_ambiguous(0, 5000)
    for D in enumerate_discriminants("abs_disc", 5000):
        assert int(seg[-D]) == ambiguous_count(D), D
    # segment split must agree with the full run
    t1, t2 = segmented_ambiguous(0, 2500), segmented_ambiguous(2500, 5000)
    assert np.array_equal(np.concatenate([t1, t2]), seg)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 12), st.integers(0, 10 ** 5)), st.integers(0, 150))
def test_segmented_ambiguous_matches_divisor_sweep_on_segments(lo, half_width):
    hi = lo + 2 * half_width + 1
    seg = segmented_ambiguous(lo, hi)
    assert [int(c) for c in seg] == [ambiguous_count(-n) for n in range(lo, hi)]


def _odd_squarefree_slow(n):
    return n != 0 and all(n % (p * p) for p in prime_factors(n) if p > 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(quadratic.IMAGINARY_CLASSES + quadratic.REAL_CLASSES),
       st.integers(0, 10 ** 4), st.integers(0, 300), st.integers(2, 16),
       st.lists(st.integers(1, 100), min_size=2, max_size=6),
       st.sampled_from(["ascending", "descending", "interleaved"]))
def test_class_sieves_read_the_full_sieves_at_their_class(cls, lo, width, k, widths, order):
    r, m, _ = cls
    hi = lo + width
    first, stop = r + m * lo, r + m * hi
    full = segmented_ambiguous(first, stop)[::m]
    assert segmented_ambiguous(lo, hi, r, m).tolist() == full.tolist()
    assert odd_squarefree(lo, hi, r, m).tolist() == odd_squarefree(first, stop)[::m].tolist()
    # windows around the index where n passes 2^k, and with it the power of two whose
    # square progressions odd_squarefree shares, each sieved in the drawn order
    start = max(-((r - 2 ** k) // m) - sum(widths) // 2, 0)
    cuts = list(itertools.accumulate(widths, initial=start))
    windows = list(zip(cuts, cuts[1:]))
    if order == "descending":
        windows.reverse()
    elif order == "interleaved":  # from both ends inwards, so each window evicts the last
        windows = [w for pair in zip(windows, windows[::-1]) for w in pair][:len(windows)]
    for a, b in windows:
        assert odd_squarefree(a, b, r, m).tolist() == [
            _odd_squarefree_slow(r + m * i) for i in range(a, b)], (a, b)


def test_ambiguous_counts_exact_for_every_n():
    # every n, not only fundamental |D|: b = 0, a = b and a = c share forms at n = 12, 16, 27, ...
    N = 3000
    seg = segmented_ambiguous(0, N)
    assert int(seg[0]) == ambiguous_count(0) == 0
    for n in range(1, N):
        want = len(ambiguous_reduced_forms(-n))
        assert int(seg[n]) == ambiguous_count(-n) == want, n


def test_segmented_squarefree():
    flags = segmented_squarefree(0, 200)
    for n in range(1, 200):
        assert flags[n] == _naive_squarefree(n)
    split = np.concatenate([segmented_squarefree(0, 77), segmented_squarefree(77, 200)])
    assert np.array_equal(split, flags)


def _naive_squarefree(n):
    return all(n % (d * d) for d in range(2, int(n ** 0.5) + 1))


def test_two_rank_power_of_two_and_divides_h():
    for D in enumerate_discriminants("abs_disc", 2000):
        rec = class_group_data(D)
        assert rec.h % (1 << rec.rk2) == 0


def test_classical_class_numbers():
    # the nine class-number-one fields plus textbook small odd/even values
    for absd in (3, 4, 7, 8, 11, 19, 43, 67, 163):
        assert class_group_data(-absd).h == 1, absd
    known = {-15: 2, -20: 2, -23: 3, -24: 2, -31: 3, -35: 2, -40: 2,
             -47: 5, -71: 7, -103: 5, -199: 9}
    for D, h in known.items():
        assert class_group_data(D).h == h, D


# -- scans --------------------------------------------------------------------------


def test_moment_scan_small():
    rows = moment_scan([5])
    assert rows == [(5, 3, 1.0)]


def test_moment_scan_empty():
    with pytest.raises(EmptyRange):
        moment_scan([2])


def test_moment_scan_increasing():
    rows = moment_scan([10 ** 3, 10 ** 4, 10 ** 5])
    values = [row[2] for row in rows]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_probability_scan_small():
    rows = rank_probability_scan([5], 0)
    assert rows == [(5, 3, 1.0)]
    rows = rank_probability_scan([10 ** 3], 64)
    assert rows[0][2] == 1.0


def test_probability_scan_negative_r_counts_nothing():
    # a negative r must not wrap round to the top 2-ranks
    for r in (-1, -3, -20):
        assert [row[2] for row in rank_probability_scan([10 ** 3, 10 ** 4], r)] == [0.0, 0.0]


def test_probability_scan_decreasing():
    rows = rank_probability_scan([10 ** 3, 10 ** 5], 0)
    assert rows[0][2] > rows[-1][2]


def test_scan_jobs_deterministic(monkeypatch):
    ck = [100, 1000, 5000]
    assert moment_scan(ck, jobs=1) == moment_scan(ck, jobs=3)
    assert rank_probability_scan(ck, 1, jobs=1) == rank_probability_scan(ck, 1, jobs=4)
    # these checkpoints fit in one default segment; split them into many
    want = {order: (moment_scan(ck, order), rank_probability_scan(ck, 1, order))
            for order in SCAN_ORDERS}
    monkeypatch.setattr(quadratic, "SEGMENT", 997)
    for order in SCAN_ORDERS:
        for jobs in (1, 2):
            got = (moment_scan(ck, order, jobs), rank_probability_scan(ck, 1, order, jobs))
            assert got == want[order], (order, jobs)


def test_scan_workers_bounded(monkeypatch, serial_pool):
    monkeypatch.setattr(quadratic, "SEGMENT", 997)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    ck = [100, 1000, 5000]
    want = moment_scan(ck)
    assert serial_pool == []  # jobs = 1 runs in-process
    assert moment_scan(ck, jobs=10 ** 6) == want  # 5 class windows (2 + 1 + 2), 4 CPUs
    rank_probability_scan([1000], 1, order="absdisc", jobs=10 ** 6)  # 3 class windows
    rank_probability_scan(ck, 1, jobs=2)
    assert serial_pool == [4, 3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert moment_scan(ck, jobs=8) == want
    assert serial_pool == [4, 3, 2]  # unknown CPU count: in-process


def _grid_from_records(checkpoints, order):
    """(checkpoint, rk2) counts from is_fundamental, radical and ambiguous_count, n by n."""
    top = checkpoints[-1] * (4 if order == "radical" else 1)
    cells = []
    for n in range(3, top):
        if is_fundamental(-n):
            key = radical(n) if order == "radical" else n
            rk2 = ambiguous_count(-n).bit_length() - 1
            cells.append((key, rk2))
    keys, rk2 = np.array(cells).T
    below = keys[None, :] < np.array(checkpoints)[:, None]
    return np.stack([(below & (rk2 == v)).sum(axis=1) for v in range(16)], axis=1)


@pytest.mark.parametrize("segment", [quadratic.SEGMENT, 997])
@pytest.mark.parametrize("order", SCAN_ORDERS)
def test_scan_grid_exact_at_every_x_to_3000(monkeypatch, segment, order):
    monkeypatch.setattr(quadratic, "SEGMENT", segment)
    first = 3 if order == "radical" else 4  # the first x with a field below it: -4 or -3
    with pytest.raises(EmptyRange):
        quadratic._scan([first - 1], order)
    checkpoints = list(range(first, 3001))
    _, counts, grid = quadratic._scan(checkpoints, order)
    want = _grid_from_records(checkpoints, order)
    assert np.array_equal(grid, want)
    assert np.array_equal(counts, want.sum(axis=1))


# the keys in [4, 600] that imaginary fundamental |D| have, as radicals or as |D|
_FIELD_KEYS = {order: sorted({key for n in range(3, 2400) if is_fundamental(-n)
                              for key in [radical(n) if order == "radical" else n] if 4 <= key <= 600})
               for order in SCAN_ORDERS}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCAN_ORDERS), st.sampled_from([1, 2, 3, 16, 97, 997]), st.data())
def test_scan_grid_matches_records_at_keys_and_duplicates(order, segment, data):
    # checkpoints drawn freely, equal to field keys (a field counts only above its key)
    # and repeated; every window size must give the same grid
    free = data.draw(st.lists(st.integers(4, 600), min_size=1, max_size=5))
    at_keys = data.draw(st.lists(st.sampled_from(_FIELD_KEYS[order]), max_size=5))
    repeats = data.draw(st.lists(st.sampled_from(free + at_keys), max_size=3))
    checkpoints = sorted(free + at_keys + repeats)
    with patch.object(quadratic, "SEGMENT", segment):
        got, counts, grid = quadratic._scan(checkpoints, order)
    want = _grid_from_records(checkpoints, order)
    assert got == checkpoints
    assert np.array_equal(grid, want)
    assert np.array_equal(counts, want.sum(axis=1))


@pytest.mark.parametrize("bad", [0, 3])
def test_scan_rejects_an_ambiguous_count_not_a_power_of_two(monkeypatch, bad):
    real = quadratic.segmented_ambiguous

    def corrupted(lo, hi, r=0, m=1):
        counts = real(lo, hi, r, m)
        fields = np.flatnonzero(odd_squarefree(lo, hi, r, m))
        counts[fields[len(fields) // 2]] = bad  # a field's count
        return counts

    monkeypatch.setattr(quadratic, "segmented_ambiguous", corrupted)
    for order in SCAN_ORDERS:
        with pytest.raises(AssertionError, match="power of two"):
            quadratic._scan([1000], order)
    with pytest.raises(AssertionError, match="power of two"):
        genus_sweep(1000)


def test_scan_absdisc_order():
    rows = moment_scan([100], order="absdisc")
    want = [class_group_data(D) for D in enumerate_discriminants("abs_disc", 100)]
    assert rows[0][1] == len(want)
    assert rows[0][2] == pytest.approx(sum(2 ** r.rk2 for r in want) / len(want))


def test_scan_rows_match_records_at_every_checkpoint():
    # checkpoints equal to keys of fields: a field with key x counts only above x
    ck = [4, 7, 8, 15, 31, 120, 300]
    for order, kind in zip(SCAN_ORDERS, ("radical", "abs_disc")):
        recs = [class_group_data(D) for D in enumerate_discriminants(kind, ck[-1])]
        keys = [r.P if order == "radical" else -r.D for r in recs]
        below = [[r for r, key in zip(recs, keys) if key < x] for x in ck]
        want = [(x, len(b), sum(2 ** r.rk2 for r in b) / len(b)) for x, b in zip(ck, below)]
        assert moment_scan(ck, order) == want
        for rk in range(3):
            want = [(x, len(b), sum(r.rk2 <= rk for r in b) / len(b)) for x, b in zip(ck, below)]
            assert rank_probability_scan(ck, rk, order) == want


def test_scan_matches_per_field_records():
    rows = moment_scan([400])
    recs = [class_group_data(D) for D in enumerate_discriminants("radical", 400)]
    assert rows[0][1] == len(recs)
    assert rows[0][2] == pytest.approx(sum(2 ** r.rk2 for r in recs) / len(recs))


# (N, the sum of 2^rk2, the fields with rk2 <= 1) at 1e3, 12345 and 1e5, by order
SCAN_SUMS_TO_1E5 = {"radical": ([509, 6256, 50666], [1399, 21618, 204968], [324, 3133, 21587]),
                    "absdisc": ([305, 3756, 30392], [665, 10514, 99932], [239, 2397, 16769])}


def test_scans_build_no_list_of_progressions():
    xs = [10 ** 3, 12345, 10 ** 5]
    for order, (counts, moments, low) in SCAN_SUMS_TO_1E5.items():
        assert moment_scan(xs, order) == [(x, n, s / n) for x, n, s in zip(xs, counts, moments)]
        assert rank_probability_scan(xs, 1, order) == [
            (x, n, c / n) for x, n, c in zip(xs, counts, low)]
    assert genus_sweep(10 ** 5) == (30392, [])


def test_rank2_tally_holds_no_window_sized_temporary(traced_peak):
    # a SEGMENT-long int16 window is 1 MiB; its comparisons with each 2^v go in chunks
    fields, amb = quadratic._class_ambiguous(0, quadratic.SEGMENT, quadratic.IMAGINARY_CLASSES[0])
    assert len(amb) == quadratic.SEGMENT and amb.dtype == np.int16
    assert traced_peak(quadratic._rank2_histogram, amb, np.count_nonzero(fields)) \
        <= 2 * SIEVE_WINDOW


@pytest.mark.slow
def test_moment_scan_at_the_scan_cap():
    [(x, n, e_hat)] = moment_scan([quadratic.SCAN_CAP])
    assert (x, n, f"{e_hat:.12g}") == (10 ** 9, 506_605_934, "6.65138414664")


# -- genus sweep ----------------------------------------------------------------------


def test_genus_sweep_small():
    checked, violations = genus_sweep(10 ** 4)
    assert violations == []
    assert checked == len(enumerate_discriminants("abs_disc", 10 ** 4 + 1))


def test_radical_counts_profile():
    counts = radical_counts_both_signs(30)
    # odd squarefree radical: one field; even radical 2j: three fields
    assert counts[2] == 3 and counts[3] == 1 and counts[5] == 1
    assert counts[6] == 3 and counts[10] == 3 and counts[15] == 1
    assert counts[4] == 0 and counts[9] == 0 and counts[12] == 0


def test_radical_counts_below_one_are_empty():
    for x in (-5, -1, 0):
        assert radical_counts_both_signs(x).tolist() == []
    assert radical_counts_both_signs(1).tolist() == [0]


def test_radical_counts_memory(traced_peak):
    # each class sieved only up to radical 1e6, in windows; no |D| up to 4e6 and no filter
    assert traced_peak(radical_counts_both_signs, 10 ** 6) <= 40 * 2 ** 20


def test_radical_counts_hold_one_count_array(traced_peak):
    # the int64 counts (7.6 MiB at 1e6) and one class window: no D array, no concatenation
    assert traced_peak(radical_counts_both_signs, 10 ** 6) <= 16 * 2 ** 20


def test_enumerate_discriminants_builds_no_pairs(traced_peak):
    # the sorted arrays and one list of ints: no (D, radical) tuples (162.6 MiB at 1e6)
    assert traced_peak(enumerate_discriminants, "radical", 10 ** 6, "both") <= 64 * 2 ** 20


def test_genus_sweep_memory(traced_peak):
    # one int8 omega per |D| (9.5 MiB at 1e7) and one class window, not a whole class
    assert traced_peak(genus_sweep, 10 ** 7) <= 18 * 2 ** 20
