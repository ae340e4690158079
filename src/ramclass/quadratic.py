"""Imaginary quadratic fields through binary quadratic forms.

Class numbers come from exhaustive reduced-form enumeration and 2-ranks from
counting ambiguous reduced forms of discriminant -n in two disjoint families,
(a, 0, c) with n = 4ac and the factorisations n = uv with u < v and
u + v = 0 mod 4, so the genus inequality omega - 1 <= rk2 <= omega is tested
against two independent computations.  One array function lists the
fundamental discriminants of a |D| range with their radicals from one table
of residue classes: D < 0 has |D| = 3 mod 4, 4 mod 16 or 8 mod 16, so each
class n = r mod m is sieved alone over the index i = (n - r) / m, and
enumeration, radical counts and scans read that table.  Scans over the family
ordered by product of ramified primes (or by |D|) stop each class where its
key reaches x, and walk it in windows of SEGMENT indices, so their memory is
bounded by the window size, not by x; their time is not, so they stop at
SCAN_CAP.  Each window gives one cumulative count grid over (checkpoint, rk2);
--jobs only spreads the windows over worker processes, and the grids are
exact integer sums, so the output is the same for every --jobs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import (class_progressions, is_squarefree, odd_squarefree, omega, omega_sieve,
                    progression_counts, radical, segmented_squarefree)
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


def _class_fields(lo: int, hi: int, cls) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The i in [lo, hi) whose n = r + m * i no odd prime square divides, n and n / d."""
    r, m, d = cls
    i = lo + np.flatnonzero(odd_squarefree(lo, hi, r, m))
    return i, r + m * i, r // d + m // d * i


def _fundamentals(lo: int, hi: int, signs: str) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental D with |D| in [lo, hi) and their radicals, as int64 arrays, by class.

    A class in both tables (8 mod 16) is sieved once and gives both signs.
    """
    tables = [(-1, IMAGINARY_CLASSES)] + [(1, REAL_CLASSES)] * (signs == "both")
    signs_of: dict[tuple[int, int, int], list[int]] = {}
    for sign, classes in tables:
        for cls in classes:
            signs_of.setdefault(cls, []).append(sign)
    parts = [(sign * n[n > 1], P[n > 1]) for (r, m, d), class_signs in signs_of.items()
             for _, n, P in [_class_fields(-((r - lo) // m), -((r - hi) // m), (r, m, d))]
             for sign in class_signs]
    return np.concatenate([D for D, _ in parts]), np.concatenate([P for _, P in parts])


def enumerate_with_radicals(bound_kind: str, x: int,
                            signs: str = "imaginary") -> list[tuple[int, int]]:
    """(D, radical) pairs sorted by the chosen key, ties by |D|, imaginary first.

    Raises CapExceeded above ENUMERATION_CAP.
    """
    if bound_kind not in ("abs_disc", "radical"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    if signs not in ("imaginary", "both"):
        raise ValueError(f"unknown signs {signs!r}")
    if x > ENUMERATION_CAP:
        raise CapExceeded(f"x = {x} exceeds enumeration cap {ENUMERATION_CAP}")
    D, P = _fundamentals(0, max(4 * x if bound_kind == "radical" else x, 0), signs)
    key = P if bound_kind == "radical" else np.abs(D)
    D, P, key = D[key < x], P[key < x], key[key < x]
    order = np.lexsort((D > 0, np.abs(D), key))
    return list(zip(D[order].tolist(), P[order].tolist()))


def enumerate_discriminants(bound_kind: str, x: int, signs: str = "imaginary") -> list[int]:
    """Fundamental discriminants with |D| < x (abs_disc) or radical(|D|) < x."""
    return [D for D, _ in enumerate_with_radicals(bound_kind, x, signs)]


def radical_counts_both_signs(x: int) -> np.ndarray:
    """counts[n] = number of fundamental discriminants (both signs) of radical n < x."""
    _, P = _fundamentals(0, 4 * x, "both")
    return np.bincount(P[P < x], minlength=x)


# -- segmented batch machinery ---------------------------------------------------

# indices i per window of a class |D| = r + m * i.  It bounds the scan's memory; each window
# repeats the O(sqrt(|D|)) strides of segmented_ambiguous, so smaller is slower.
SEGMENT = 1 << 19
# the largest checkpoint a moment or probability scan takes: time grows a little
# faster than x, about 4 s at 1e8 and 66 s at 1e9 on one core (37 s with --jobs 2)
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
    return progression_counts(lo, hi, class_progressions(np.concatenate(strides), r, m), np.int16)


_POWERS_OF_TWO = 1 << np.arange(16, dtype=np.int64)


def _segment_fields(lo: int, hi: int, cls, order: str):
    """Imaginary fundamental |D| = r + m * i, i in [lo, hi), of one class (r, m, d).

    Returns (absD, key, rk2) arrays; the key is the radical (or |D|).
    """
    i, n, P = _class_fields(lo, hi, cls)
    mantissa, exponent = np.frexp(segmented_ambiguous(lo, hi, cls[0], cls[1])[i - lo])
    assert (mantissa == 0.5).all(), "ambiguous count must be a power of two"
    return n, P if order == "radical" else n, exponent - 1


def _tally_segment(args):
    """Cumulative grid[j, v]: fields of the window with key < checkpoints[j] and rk2 = v."""
    lo, hi, cls, order, checkpoints = args
    _, key, rk2 = _segment_fields(lo, hi, cls, order)
    cells = np.searchsorted(checkpoints, key, side="right") * 16 + rk2  # rk2 < 16
    return np.bincount(cells, minlength=len(checkpoints) * 16).reshape(-1, 16).cumsum(axis=0)


def _scan(checkpoints, order: str = "radical", jobs: int = 1):
    checkpoints = sorted(int(x) for x in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    max_key = checkpoints[-1]
    if max_key > SCAN_CAP:
        raise CapExceeded(f"x = {max_key} exceeds the scan cap {SCAN_CAP}")
    # each class stops at the first |D| whose key reaches max_key
    tops = [(-((r - (d if order == "radical" else 1) * max_key) // m), (r, m, d))
            for r, m, d in IMAGINARY_CLASSES]
    tasks = [(lo, min(lo + SEGMENT, top), cls, order, checkpoints)
             for top, cls in tops for lo in range(0, top, SEGMENT)]
    workers = min(int(jobs), len(tasks), os.cpu_count() or 1)
    zero = np.zeros((len(checkpoints), 16), dtype=np.int64)  # a small x leaves no window
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grid = sum(pool.map(_tally_segment, tasks), zero)
    else:
        grid = sum(map(_tally_segment, tasks), zero)
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

    Returns (number checked, violating discriminants by increasing |D|); rk2
    comes from the ambiguous-form sieve, omega from the omega sieve.
    """
    fields = [_segment_fields(0, -((r - max_abs_d - 1) // m), (r, m, d), "absdisc")
              for r, m, d in IMAGINARY_CLASSES]
    absd, rk2 = (np.concatenate([f[k] for f in fields]) for k in (0, 2))
    w = omega_sieve(max_abs_d + 1)[absd]
    bad = np.sort(absd[(rk2 < w - 1) | (rk2 > w)])
    return len(absd), [-int(n) for n in bad]
