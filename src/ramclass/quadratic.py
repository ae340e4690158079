"""Imaginary quadratic fields through binary quadratic forms.

Class numbers come from exhaustive reduced-form enumeration and 2-ranks from
counting ambiguous reduced forms of discriminant -n in two disjoint families,
(a, 0, c) with n = 4ac and the factorisations n = uv with u < v and
u + v = 0 mod 4, so the genus inequality omega - 1 <= rk2 <= omega is tested
against two independent computations.  One array function lists the
fundamental discriminants of a |D| range with their radicals from one
squarefree sieve pass; enumeration, radical counts and scans read it.
Scans over the family ordered by product of ramified primes (or by |D|) walk
|D| in fixed segments of SEGMENT values, so their memory is bounded by the
segment size, not by x; their time is not, so they stop at SCAN_CAP.  Each
segment gives one cumulative count grid over (checkpoint, rk2); --jobs only
spreads the segments over worker processes, and the grids are summed in
segment order, so the output is the same for every --jobs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import (is_squarefree, odd_squarefree, omega, omega_sieve, progression_counts,
                    radical, segmented_squarefree)
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


def _fundamentals(lo: int, hi: int, signs: str) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental D with |D| in [lo, hi) and their radicals, as int64 arrays.

    One sieve flags the n = |D| that no odd prime square divides.  Odd n > 1
    gives D = -n for n = 3 mod 4 and D = n for n = 1 mod 4, of radical n.
    n = 4k has k squarefree: n = 4 mod 16 gives -n and n = 12 mod 16 gives n,
    of radical n/2 (k odd); n = 8 mod 16 gives -n and n, of radical n/4
    (k = 2 mod 4).  With signs = "imaginary" only the D < 0 are listed.
    """
    flags = odd_squarefree(lo, hi)

    def pick(r, m):
        """The n = r mod m in [lo, hi) that the sieve flags."""
        start = lo + (r - lo) % m
        return np.arange(start, hi, m, dtype=np.int64)[flags[start - lo::m]]

    n3, n4, n8 = pick(3, 4), pick(4, 16), pick(8, 16)
    pairs = [(-n3, n3), (-n4, n4 // 2), (-n8, n8 // 4)]
    if signs == "both":
        n1, n12 = pick(1, 4), pick(12, 16)
        n1 = n1[n1 > 1]
        pairs += [(n1, n1), (n12, n12 // 2), (n8, n8 // 4)]
    return np.concatenate([D for D, _ in pairs]), np.concatenate([P for _, P in pairs])


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

# |D| values per scan segment.  It bounds the scan's memory; each segment also
# repeats the O(sqrt(hi)) strides of segmented_ambiguous, so smaller is slower.
SEGMENT = 1 << 21
# the largest checkpoint a moment or probability scan takes: time grows
# linearly in x, about 26 s at 1e8 on one core, so 1e9 is some minutes
SCAN_CAP = 10 ** 9


def segmented_ambiguous(lo: int, hi: int) -> np.ndarray:
    """Ambiguous reduced-form counts for discriminants -n, n in [lo, hi).

    The two families of ambiguous_count as arithmetic progressions in n:
    family 1 is n = 4a * c for c >= a, family 2 is n = u * v for v > u with
    v = -u mod 4, so the least v is u + 2 for odd u and u + 4 for even u.
    """
    strides = [(4 * a * a, 4 * a) for a in range(1, math.isqrt(max(hi - 1, 0) // 4) + 1)]
    strides += [(u * (u + 4 - 2 * (u % 2)), 4 * u)
                for u in range(1, math.isqrt(max(hi - 1, 0)) + 1)]
    return progression_counts(lo, hi, strides, np.int16)


_POWERS_OF_TWO = 1 << np.arange(16, dtype=np.int64)


def _segment_fields(lo: int, hi: int, max_key: int, order: str):
    """Imaginary fundamental |D| in [lo, hi) with key < max_key.

    Returns (absD, key, rk2) arrays; the key is the radical (or |D|).
    """
    D, P = _fundamentals(lo, hi, "imaginary")
    key = P if order == "radical" else -D
    absd, key = -D[key < max_key], key[key < max_key]
    amb = segmented_ambiguous(lo, hi)[absd - lo].astype(np.int64)
    assert int((amb & (amb - 1)).max(initial=0)) == 0, "ambiguous count must be a power of two"
    return absd, key, np.searchsorted(_POWERS_OF_TWO, amb)


def _tally_segment(args):
    """Cumulative grid[j, v]: fields of the segment with key < checkpoints[j] and rk2 = v."""
    lo, hi, max_key, order, checkpoints = args
    _, key, rk2 = _segment_fields(lo, hi, max_key, order)
    cells = np.searchsorted(checkpoints, key, side="right") * 16 + rk2  # rk2 < 16
    return np.bincount(cells, minlength=len(checkpoints) * 16).reshape(-1, 16).cumsum(axis=0)


def _scan(checkpoints, order: str = "radical", jobs: int = 1):
    checkpoints = sorted(int(x) for x in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    max_key = checkpoints[-1]
    if max_key > SCAN_CAP:
        raise CapExceeded(f"x = {max_key} exceeds the scan cap {SCAN_CAP}")
    hi = 4 * max_key if order == "radical" else max_key
    tasks = [(lo, min(lo + SEGMENT, hi), max_key, order, checkpoints)
             for lo in range(0, hi, SEGMENT)]
    workers = min(int(jobs), len(tasks), os.cpu_count() or 1)
    if workers > 1:
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

    Returns (number checked, violating discriminants by increasing |D|); rk2
    comes from the ambiguous-form sieve, omega from the omega sieve.
    """
    absd, _, rk2 = _segment_fields(0, max_abs_d + 1, max_abs_d + 1, "absdisc")
    w = omega_sieve(max_abs_d + 1)[absd]
    bad = np.sort(absd[(rk2 < w - 1) | (rk2 > w)])
    return len(absd), [-int(n) for n in bad]
