"""Imaginary quadratic fields through binary quadratic forms.

Class numbers come from exhaustive reduced-form enumeration and 2-ranks from
counting ambiguous reduced forms of discriminant -n in two disjoint families,
(a, 0, c) with n = 4ac and the factorisations n = uv with u < v and
u + v = 0 mod 4, so the genus inequality omega - 1 <= rk2 <= omega is tested
against two independent computations.  Fundamental D lie in a few residue
classes (|D| = 3 mod 4, 4 or 8 mod 16 for D < 0), each sieved alone over the
index i of n = |D| = r + m * i.  The key of n, its radical n / d or n itself,
grows with i, so _class_windows turns a key range into windows of at most
SEGMENT indices; the enumeration, the radical counts, genus_sweep and the
scans all walk them, and each class stops where its key reaches x.  A scan
window holds a flag byte and an int16 ambiguous count per index and no
per-field array: each checkpoint is an index bound, and the run between two
bounds is tallied by rk2.  So a scan's memory is bounded by the window size,
not by x (40 MB peak RSS at x = 1e9); its time is not, so scans stop at
SCAN_CAP.  --jobs only spreads the windows over worker processes, and the
grids are exact integer sums, so the output is the same for every --jobs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .arith import (SIEVE_WINDOW, cut_to_class, is_squarefree, odd_squarefree, omega,
                    omega_sieve, progression_counts, radical)
from .errors import CapExceeded, EmptyRange, NotFundamental

SCAN_ORDERS = ("radical", "absdisc")


def is_fundamental(D: int) -> bool:
    """Fundamental discriminant test, both signs; 1 is excluded."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


@dataclass(frozen=True)
class QuadraticFieldRecord:
    D: int
    h: int
    rk2: int
    P: int
    omega: int


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced forms (a, b, c) of discriminant D < 0."""
    if D >= 0:
        raise ValueError("imaginary discriminants only")
    forms = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            forms.append((a, b, c))
        a += 1
    return forms


def ambiguous_reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Reduced forms with b = 0, a = b, or a = c (order <= 2 classes)."""
    return [f for f in reduced_forms(D) if f[1] == 0 or f[0] == f[1] or f[0] == f[2]]


def ambiguous_count(D: int) -> int:
    """Count ambiguous reduced forms of D < 0 by divisor test (no enumeration).

    With n = -D they fall into two disjoint families.  Family 1 is (a, 0, c)
    with n = 4ac and a <= c.  Family 2 is every factorisation n = uv with
    u < v and u + v = 0 mod 4: v >= 3u gives (a, a, c) with a = u and
    c = (u + v)/4, and v < 3u gives (a, b, a) with a = (u + v)/4 and
    b = (v - u)/2.  v = 3u is (a, a, a), counted once; u = v would be
    (a, 0, a), which already sits in family 1.
    """
    n = -D
    count = 0
    if n % 4 == 0:
        k = n // 4
        count += sum(1 for a in range(1, math.isqrt(k) + 1) if k % a == 0)
    count += sum(1 for u in range(1, math.isqrt(max(n - 1, 0)) + 1)
                 if n % u == 0 and (u + n // u) % 4 == 0)
    return count


def class_group_data(D: int) -> QuadraticFieldRecord:
    """Class number, 2-rank, and ramified-prime data of an imaginary field."""
    if D >= 0 or not is_fundamental(D):
        raise NotFundamental(f"{D} is not an imaginary fundamental discriminant")
    h = len(reduced_forms(D))
    amb = ambiguous_count(D)
    assert amb & (amb - 1) == 0, f"ambiguous count {amb} is not a power of two"
    rk2 = amb.bit_length() - 1
    P = radical(D)
    return QuadraticFieldRecord(D, h, rk2, P, omega(P))


def genus_check(rec: QuadraticFieldRecord) -> bool:
    """The two-sided genus inequality omega - 1 <= rk2 <= omega."""
    return rec.omega - 1 <= rec.rk2 <= rec.omega


# -- discriminant enumeration ---------------------------------------------------

# largest x that enumerate_with_radicals lists; the list holds Python tuples
ENUMERATION_CAP = 10 ** 6


# (r, m, d): D = -n is fundamental for n = r mod m with no odd prime square factor,
# and its radical is n / d; REAL_CLASSES gives D = n the same way (n = 1 excluded)
IMAGINARY_CLASSES = ((3, 4, 1), (4, 16, 2), (8, 16, 4))
REAL_CLASSES = ((1, 4, 1), (12, 16, 2), (8, 16, 4))


def _index_bound(x, cls, order: str = "absdisc"):
    """The least index i of class (r, m, d) whose key reaches x: key < x iff i < this.

    The key of n = r + m * i is n / d (radical order) or n, so it grows with i.
    """
    r, m, d = cls
    return -((r - (d if order == "radical" else 1) * x) // m)


def _class_windows(lo: int, hi: int, cls, order: str = "absdisc") -> list[tuple[int, int]]:
    """Index windows [a, b), at most SEGMENT long, of the class's n with key in [lo, hi).

    Keys grow with the index; an empty key range gives one empty window, not none.
    """
    start = max(_index_bound(lo, cls, order), 0)
    stop = max(_index_bound(hi, cls, order), start)
    return [(a, min(a + SEGMENT, stop)) for a in range(start, max(stop, start + 1), SEGMENT)]


def _class_fields(lo: int, hi: int, signs: str, order: str = "absdisc"):
    """Per class window: (the signs it gives, its fundamental n = |D| with key in [lo, hi), d).

    The radical of n is n // d.  A class in both tables (8 mod 16) is sieved once
    and gives both signs.
    """
    tables = [(-1, IMAGINARY_CLASSES)] + [(1, REAL_CLASSES)] * (signs == "both")
    signs_of: dict[tuple[int, int, int], list[int]] = {}
    for sign, classes in tables:
        for cls in classes:
            signs_of.setdefault(cls, []).append(sign)
    for (r, m, d), class_signs in signs_of.items():
        for a, b in _class_windows(max(lo, 2), hi, (r, m, d), order):  # key 1 is n = 1, no field
            yield class_signs, r + m * (a + np.flatnonzero(odd_squarefree(a, b, r, m))), d


def _fundamentals(lo: int, hi: int, signs: str,
                  order: str = "absdisc") -> tuple[np.ndarray, np.ndarray]:
    """Fundamental D with key (|D|, or the radical) in [lo, hi) and their radicals, by class."""
    parts = [(sign * n, n // d) for class_signs, n, d in _class_fields(lo, hi, signs, order)
             for sign in class_signs]
    return np.concatenate([D for D, _ in parts]), np.concatenate([P for _, P in parts])


def _sorted_fundamentals(bound_kind: str, x: int, signs: str) -> tuple[np.ndarray, np.ndarray]:
    """The arrays (D, radical) that enumerate_with_radicals lists, in its order."""
    if bound_kind not in ("abs_disc", "radical"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    if signs not in ("imaginary", "both"):
        raise ValueError(f"unknown signs {signs!r}")
    if x > ENUMERATION_CAP:
        raise CapExceeded(f"x = {x} exceeds enumeration cap {ENUMERATION_CAP}")
    D, P = _fundamentals(0, x, signs, "radical" if bound_kind == "radical" else "absdisc")
    order = np.lexsort((D > 0, np.abs(D), P if bound_kind == "radical" else np.abs(D)))
    return D[order], P[order]


def enumerate_with_radicals(bound_kind: str, x: int,
                            signs: str = "imaginary") -> list[tuple[int, int]]:
    """(D, radical) pairs sorted by the chosen key, ties by |D|, imaginary first.

    Raises CapExceeded above ENUMERATION_CAP.
    """
    D, P = _sorted_fundamentals(bound_kind, x, signs)
    return list(zip(D.tolist(), P.tolist()))


def enumerate_discriminants(bound_kind: str, x: int, signs: str = "imaginary") -> list[int]:
    """The D of enumerate_with_radicals, in its order: |D| < x (abs_disc) or radical(|D|) < x."""
    return _sorted_fundamentals(bound_kind, x, signs)[0].tolist()


def radical_counts_both_signs(x: int) -> np.ndarray:
    """counts[n] = number of fundamental discriminants (both signs) of radical n < x."""
    counts = np.zeros(max(x, 0), dtype=np.int64)
    for class_signs, n, d in _class_fields(0, x, "both", "radical"):
        counts[n // d] += len(class_signs)  # one window's radicals are distinct
    return counts


# -- segmented batch machinery ---------------------------------------------------

# indices i per window of a class |D| = r + m * i, at 3 bytes each in a scan (a flag byte and
# an int16 ambiguous count, tallied SIEVE_WINDOW at a time): 1.5 MB, and 34 MB peak RSS to 1e8.
# Each window repeats the O(sqrt(|D|)) strides of segmented_ambiguous, so smaller is slower.
SEGMENT = 1 << 19
# the largest checkpoint a moment or probability scan takes: time grows a little
# faster than x, about 1.7 s at 1e8 and 34 s at 1e9 on one core (21 s with --jobs 2)
SCAN_CAP = 10 ** 9


def segmented_ambiguous(lo: int, hi: int, r: int = 0, m: int = 1) -> np.ndarray:
    """Ambiguous reduced-form counts for discriminants -n, n = r + m * i, i in [lo, hi).

    The two families of ambiguous_count as arithmetic progressions in n:
    family 1 is n = 4a * c for c >= a, family 2 is n = u * v for v > u with
    v = -u mod 4, so the least v is u + 2 for odd u and u + 4 for even u.
    Both are cut to the class n = r mod m.
    """
    top = max(r + m * (hi - 1), 0)
    a, u = (np.arange(1, math.isqrt(k) + 1, dtype=np.int64) for k in (top // 4, top))
    strides = [np.stack([4 * a * a, 4 * a], 1), np.stack([u * (u + 4 - 2 * (u % 2)), 4 * u], 1)]
    return progression_counts(lo, hi, cut_to_class(np.concatenate(strides), r, m), np.int16)


_POWERS_OF_TWO = 1 << np.arange(16, dtype=np.int64)


def _rank2_histogram(amb: np.ndarray, fields: int) -> np.ndarray:
    """hist[v] = entries of amb equal to 2^v, v < 16; amb is 0 off its `fields` fields.

    Asserts that every field's count is a power of two: 0 or 3 matches no 2^v.  amb is
    compared SIEVE_WINDOW entries at a time, so no temporary is as long as amb.
    """
    hist = np.zeros(16, dtype=np.int64)
    for lo in range(0, len(amb), SIEVE_WINDOW):
        part = amb[lo:lo + SIEVE_WINDOW]
        for v in range(int(part.max(initial=0)).bit_length()):
            hist[v] += np.count_nonzero(part == 1 << v)
    assert hist.sum() == fields, "ambiguous count must be a power of two"
    return hist


def _class_ambiguous(lo: int, hi: int, cls) -> tuple[np.ndarray, np.ndarray]:
    """Field flags of the class window i in [lo, hi), and the ambiguous counts, 0 off the fields."""
    r, m, _ = cls
    fields = odd_squarefree(lo, hi, r, m)
    amb = segmented_ambiguous(lo, hi, r, m)
    amb *= fields  # in place: one int16 and one flag byte per index
    return fields, amb


def _tally_segment(args):
    """Cumulative grid[j, v]: fields of the window with key < checkpoints[j] and rk2 = v.

    The key grows with the index, so each checkpoint is an index bound, and the
    window is tallied run by run between consecutive bounds.
    """
    lo, hi, cls, order, checkpoints = args
    fields, amb = _class_ambiguous(lo, hi, cls)
    grid = np.zeros((len(checkpoints), 16), dtype=np.int64)
    start, hist = lo, np.zeros(16, dtype=np.int64)
    for j, x in enumerate(checkpoints):
        end = min(max(_index_bound(x, cls, order), lo), hi)
        if end > start:
            run = slice(start - lo, end - lo)
            hist = hist + _rank2_histogram(amb[run], np.count_nonzero(fields[run]))
            start = end
        grid[j] = hist
    return grid


def _scan(checkpoints, order: str = "radical", jobs: int = 1):
    checkpoints = sorted(int(x) for x in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    max_key = checkpoints[-1]
    if max_key > SCAN_CAP:
        raise CapExceeded(f"x = {max_key} exceeds the scan cap {SCAN_CAP}")
    tasks = [(lo, hi, cls, order, checkpoints) for cls in IMAGINARY_CLASSES
             for lo, hi in _class_windows(0, max_key, cls, order)]
    workers = min(int(jobs), len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here, not at the top: multiprocessing adds about 2 MB and 0.03 s to
        # the start-up of every command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grid = sum(pool.map(_tally_segment, tasks))
    else:
        grid = sum(map(_tally_segment, tasks))
    counts = grid.sum(axis=1)
    if counts.min() == 0:
        bad = checkpoints[int(np.argmin(counts))]
        raise EmptyRange(f"no fields below checkpoint {bad}")
    return checkpoints, counts, grid


def moment_scan(checkpoints, order: str = "radical", jobs: int = 1):
    """Cumulative (x, N, E_hat) rows with E_hat the average of 2^rk2."""
    xs, counts, grid = _scan(checkpoints, order, jobs)
    return [(x, int(n), m / n) for x, n, m in zip(xs, counts, grid @ _POWERS_OF_TWO)]


def rank_probability_scan(checkpoints, r: int, order: str = "radical", jobs: int = 1):
    """Cumulative (x, N, P_hat) rows with P_hat the share of fields with rk2 <= r."""
    xs, counts, grid = _scan(checkpoints, order, jobs)
    le_counts = grid[:, :max(int(r) + 1, 0)].sum(axis=1)
    return [(x, int(n), c / n) for x, n, c in zip(xs, counts, le_counts)]


def genus_sweep(max_abs_d: int) -> tuple[int, list[int]]:
    """Check the genus inequality on every imaginary fundamental |D| <= bound.

    Returns (number checked, violating discriminants by increasing |D|).  Each class
    window reads rk2 from the ambiguous-form sieve and omega as a slice of one omega sieve.
    The ambiguous count is 2^rk2, so the inequality says it is 2^omega or 2^(omega - 1).
    """
    w = omega_sieve(max_abs_d + 1)
    checked, bad = 0, []
    for cls in IMAGINARY_CLASSES:
        r, m, _ = cls
        for lo, hi in _class_windows(0, max_abs_d + 1, cls):
            fields, amb = _class_ambiguous(lo, hi, cls)
            checked += int(_rank2_histogram(amb, np.count_nonzero(fields)).sum())
            power = 1 << w[r + m * lo:r + m * hi:m].astype(amb.dtype)
            bad.append(r + m * (lo + np.flatnonzero(fields & (amb != power) & (amb != power >> 1))))
    return checked, [-int(n) for n in np.sort(np.concatenate(bad))]
