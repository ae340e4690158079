"""Imaginary quadratic fields through binary quadratic forms.

Class numbers come from exhaustive reduced-form enumeration and 2-ranks from
counting ambiguous reduced forms (b = 0, a = b, or a = c), so the genus
inequality omega - 1 <= rk2 <= omega is tested against two independent
computations.  Scans over the family ordered by product of ramified primes
are segmented by |D| range and merged by ordered summation, which keeps them
deterministic under --jobs parallelism.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import is_squarefree, omega, omega_sieve, radical, segmented_squarefree
from .errors import EmptyRange, NotFundamental

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
    """Count ambiguous reduced forms of D < 0 by divisor sweep (no enumeration).

    Shapes: (a,0,c) with 4ac = |D|; (a,a,c) with a(4c-a) = |D|; (a,b,a) with
    (2a-b)(2a+b) = |D|.  For fundamental D the shapes only overlap at
    D = -4 ((1,0,1)) and D = -3 ((1,1,1)).
    """
    n = -D
    count = 0
    if n % 4 == 0:
        k = n // 4
        a = 1
        while a * a <= k:
            if k % a == 0:
                count += 1
            a += 1
    a = 1
    while 3 * a * a <= n:
        if n % a == 0 and (n // a + a) % 4 == 0:
            count += 1
        a += 1
    u = 1
    while u * u <= n:
        if n % u == 0:
            v = n // u
            if v <= 3 * u and (u + v) % 4 == 0:
                count += 1
        u += 1
    if n in (3, 4):
        count -= 1
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


def enumerate_with_radicals(bound_kind: str, x: int,
                            signs: str = "imaginary") -> list[tuple[int, int]]:
    """(D, radical) pairs sorted by the chosen key, ties by |D|, imaginary first.

    Radicals fall out of the fundamental-discriminant shapes: odd |D| is its
    own radical, |D| = 4k has radical 2k for odd k and k for k = 2j.
    """
    if bound_kind not in ("abs_disc", "radical"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    if signs not in ("imaginary", "both"):
        raise ValueError(f"unknown signs {signs!r}")
    sf = segmented_squarefree(0, max(x + 2, 6))
    items = []

    def push(D, P):
        if D > 0 and signs == "imaginary":
            return
        key = abs(D) if bound_kind == "abs_disc" else P
        if key < x:
            items.append((key, abs(D), 0 if D < 0 else 1, D, P))

    for n in range(3, x, 2):
        if sf[n]:
            push(n if n % 4 == 1 else -n, n)
    for k in range(1, x):
        if not sf[k]:
            continue
        if k % 4 == 1:
            push(-4 * k, 2 * k)
        elif k % 4 == 3:
            push(4 * k, 2 * k)
        elif k % 4 == 2:
            push(-4 * k, k)
            push(4 * k, k)
    items.sort()
    return [(item[3], item[4]) for item in items]


def enumerate_discriminants(bound_kind: str, x: int, signs: str = "imaginary") -> list[int]:
    """Fundamental discriminants with |D| < x (abs_disc) or radical(|D|) < x."""
    return [D for D, _ in enumerate_with_radicals(bound_kind, x, signs)]


def radical_counts_both_signs(x: int) -> np.ndarray:
    """counts[n] = number of fundamental discriminants (both signs) of radical n < x."""
    counts = np.zeros(x, dtype=np.int64)
    for _, P in enumerate_with_radicals("radical", x, signs="both"):
        counts[P] += 1
    return counts


# -- segmented batch machinery ---------------------------------------------------


def _bump(arr: np.ndarray, lo: int, hi: int, start: int, step: int,
          last: int | None = None) -> None:
    """arr[n - lo] += 1 for n = start, start+step, ... below hi (and <= last)."""
    stop = hi if last is None else min(hi, last + 1)
    if start < lo:
        start += step * ((lo - start + step - 1) // step)
    if start >= stop:
        return
    arr[start - lo:stop - lo:step] += 1


def segmented_ambiguous(lo: int, hi: int) -> np.ndarray:
    """Ambiguous reduced-form counts for discriminants -n, n in [lo, hi)."""
    counts = np.zeros(hi - lo, dtype=np.int16)
    # (a, 0, c): n = 4ac, c >= a
    a = 1
    while 4 * a * a < hi:
        _bump(counts, lo, hi, 4 * a * a, 4 * a)
        a += 1
    # (a, a, c): n = 4ac - a^2, c >= a
    a = 1
    while 3 * a * a < hi:
        _bump(counts, lo, hi, 3 * a * a, 4 * a)
        a += 1
    # (a, b, a): n = (2a - b)(2a + b) = uv with u <= v <= 3u, u + v = 0 mod 4
    u = 1
    while u * u < hi:
        v0 = u + ((-2 * u) % 4)
        _bump(counts, lo, hi, u * v0, 4 * u, last=3 * u * u)
        u += 1
    for special in (3, 4):  # (1,0,1) and (1,1,1) are double-counted
        if lo <= special < hi:
            counts[special - lo] -= 1
    return counts


_POWERS_OF_TWO = 1 << np.arange(16, dtype=np.int64)


def _rk2_from_counts(counts: np.ndarray) -> np.ndarray:
    counts = counts.astype(np.int64)
    assert int((counts & (counts - 1)).max(initial=0)) == 0, \
        "ambiguous count must be a power of two"
    return np.searchsorted(_POWERS_OF_TWO, counts).astype(np.int64)


def _segment_fields(lo: int, hi: int, max_key: int, order: str):
    """Imaginary fundamental |D| in [lo, hi) with key < max_key.

    Returns (absD, key, rk2) arrays; the key is the radical (or |D|).
    """
    amb = segmented_ambiguous(lo, hi)
    chunks = []

    def keep(absd, p):
        key = p if order == "radical" else absd
        sel = key < max_key
        if sel.any():
            absd_sel = absd[sel]
            chunks.append((absd_sel, key[sel], _rk2_from_counts(amb[absd_sel - lo])))

    sf = segmented_squarefree(lo, hi)
    n = np.arange(lo, hi, dtype=np.int64)
    n_odd = n[(n % 4 == 3) & sf]
    if len(n_odd):
        keep(n_odd, n_odd)

    klo, khi = (lo + 3) // 4, (hi - 1) // 4 + 1
    if khi > klo:
        ks = np.arange(klo, khi, dtype=np.int64)
        sf_k = segmented_squarefree(klo, khi)
        k1 = ks[(ks % 4 == 1) & sf_k]
        if len(k1):
            keep(4 * k1, 2 * k1)
        k2 = ks[(ks % 4 == 2) & sf_k]
        if len(k2):
            keep(4 * k2, k2)

    if not chunks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return tuple(np.concatenate([c[i] for c in chunks]) for i in range(3))


def _tally_segment(args):
    lo, hi, max_key, order, checkpoints, r_values = args
    _, key, rk2 = _segment_fields(lo, hi, max_key, order)
    n_ck = len(checkpoints)
    counts = np.zeros(n_ck, dtype=np.int64)
    moments = np.zeros(n_ck, dtype=np.int64)
    le_counts = np.zeros((len(r_values), n_ck), dtype=np.int64)
    for j, x in enumerate(checkpoints):
        mask = key < x
        counts[j] = int(mask.sum())
        moments[j] = int((np.int64(1) << rk2[mask]).sum())
        for i, r in enumerate(r_values):
            le_counts[i, j] = int((rk2[mask] <= r).sum())
    return counts, moments, le_counts


def _scan(checkpoints, r_values, order: str = "radical", jobs: int = 1):
    checkpoints = sorted(int(x) for x in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    max_key = checkpoints[-1]
    hi = 4 * max_key if order == "radical" else max_key
    jobs = max(1, int(jobs))
    bounds = np.linspace(0, hi, jobs + 1).astype(int)
    tasks = [(int(bounds[i]), int(bounds[i + 1]), max_key, order, checkpoints, r_values)
             for i in range(jobs) if bounds[i] < bounds[i + 1]]
    if len(tasks) == 1:
        results = [_tally_segment(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            results = list(pool.map(_tally_segment, tasks))
    counts = sum(r[0] for r in results)
    moments = sum(r[1] for r in results)
    le_counts = sum(r[2] for r in results)
    if len(counts) == 0 or counts.min() == 0:
        bad = checkpoints[int(np.argmin(counts))]
        raise EmptyRange(f"no fields below checkpoint {bad}")
    return checkpoints, counts, moments, le_counts


def moment_scan(checkpoints, order: str = "radical", jobs: int = 1):
    """Cumulative (x, N, E_hat) rows with E_hat the average of 2^rk2."""
    xs, counts, moments, _ = _scan(checkpoints, [], order, jobs)
    return [(x, int(n), m / n) for x, n, m in zip(xs, counts, moments)]


def rank_probability_scan(checkpoints, r: int, order: str = "radical", jobs: int = 1):
    """Cumulative (x, N, P_hat) rows with P_hat the share of fields with rk2 <= r."""
    xs, counts, _, le_counts = _scan(checkpoints, [int(r)], order, jobs)
    return [(x, int(n), c / n) for x, n, c in zip(xs, counts, le_counts[0])]


def genus_sweep(max_abs_d: int) -> tuple[int, list[int]]:
    """Check the genus inequality on every imaginary fundamental |D| <= bound.

    Returns (number checked, violating discriminants by increasing |D|); rk2
    comes from the ambiguous-form sieve, omega from the omega sieve.
    """
    absd, _, rk2 = _segment_fields(0, max_abs_d + 1, max_abs_d + 1, "absdisc")
    w = omega_sieve(max_abs_d + 1)[absd]
    bad = np.sort(absd[(rk2 < w - 1) | (rk2 > w)])
    return len(absd), [-int(n) for n in bad]
