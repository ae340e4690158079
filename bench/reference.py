"""Reference counts computed apart from ramclass.

Every function here uses numpy and the definitions only: a prime sieve, a
squarefree sieve, omega by trial division of sieved cofactors, and the
classification of fundamental discriminants.  Nothing imports ramclass, so a
fault in one of its engines cannot leak into the numbers that check it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def primes_below(limit: int) -> np.ndarray:
    """All primes p < limit, ascending, by an odd-only Eratosthenes sieve."""
    if limit <= 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones(limit // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(limit - 1) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


def squarefree_flags(limit: int) -> np.ndarray:
    """squarefree[n] for n in [0, limit)."""
    flags = np.ones(limit, dtype=bool)
    flags[0] = False
    for p in primes_below(math.isqrt(max(limit - 1, 0)) + 1).tolist():
        flags[p * p::p * p] = False
    return flags


def omega_squarefree(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(omega, squarefree) for n in [0, limit).

    omega[n] is exact wherever squarefree[n] is true: every prime up to
    sqrt(limit) is divided out once, and a squarefree n < limit has at most
    one prime factor left above that.
    """
    squarefree = squarefree_flags(limit)
    omega = np.zeros(limit, dtype=np.int8)
    cofactor = np.arange(limit, dtype=np.int32 if limit < 2 ** 31 else np.int64)
    for p in primes_below(math.isqrt(max(limit - 1, 0)) + 1).tolist():
        omega[p::p] += 1
        cofactor[p::p] //= p
    omega += (cofactor > 1).astype(np.int8)
    return omega, squarefree


def _cumulative_at(keys: np.ndarray, values: np.ndarray, checkpoints) -> list[int]:
    """sum(values[keys < x]) for each x, with keys ascending."""
    acc = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return [int(acc[np.searchsorted(keys, x, side="left")]) for x in checkpoints]


# -- abelian fields ------------------------------------------------------------------


def c3_pair_counts(checkpoints) -> dict[int, list[int]]:
    """Cyclic cubic pairs (K, psi) of radical n < x, by the number r of tame primes.

    n is squarefree and built from 3 and primes p = 1 mod 3; each prime
    dividing n carries two order-3 characters, so n contributes 2^omega(n),
    and r counts the primes other than 3.  Returns {r: [count per x]}.
    """
    xs = sorted(int(x) for x in checkpoints)
    xmax = xs[-1]
    primes = primes_below(xmax)
    tame = primes[primes % 3 == 1]
    tame_list = tame.tolist()
    counts: dict[int, np.ndarray] = {}
    xs_arr = np.asarray(xs, dtype=np.int64)

    def add(r, values):
        counts[r] = counts.get(r, 0) + values

    def extend(start, prod, r, weight):
        # close n = prod * p with one more tame prime p >= tame[start]
        hi = np.searchsorted(tame, (xs_arr - 1) // prod, side="right")
        add(r + 1, 2 * weight * np.maximum(hi - start, 0))
        j = start
        while j + 1 < len(tame_list) and prod * tame_list[j] * tame_list[j + 1] < xmax:
            extend(j + 1, prod * tame_list[j], r + 1, 2 * weight)
            j += 1

    extend(0, 1, 0, 1)
    add(0, 2 * (xs_arr > 3))  # n = 3
    extend(0, 3, 0, 2)
    return {r: [int(v) for v in values] for r, values in sorted(counts.items())}


def fundamental_discriminant_counts(checkpoints) -> list[int]:
    """Fundamental discriminants D != 1 of both signs with radical(|D|) < x.

    D runs over d and 4d for squarefree d != 1: D = d when d = 1 mod 4,
    D = 4d otherwise, so the radical is |d|, or 2|d| for odd d = 3 mod 4.
    """
    xs = sorted(int(x) for x in checkpoints)
    m = np.flatnonzero(squarefree_flags(xs[-1]))
    keys = []
    for sign in (1, -1):
        d = sign * m
        d = d[d != 1]
        keys.append(np.where(d % 4 == 3, 2 * np.abs(d), np.abs(d)))
    keys = np.sort(np.concatenate(keys))
    return [int(np.searchsorted(keys, x, side="left")) for x in xs]


def automorphism_count(invariant_factors) -> int:
    """|Aut(G)| for G = Z/d1 x ... x Z/dk, by testing every image of the generators."""
    dims = tuple(invariant_factors)
    elements = list(itertools.product(*(range(d) for d in dims)))

    def order(g):
        return math.lcm(*(d // math.gcd(d, x) for x, d in zip(g, dims)))

    candidates = [[g for g in elements if d % order(g) == 0] for d in dims]
    count = 0
    for images in itertools.product(*candidates):
        seen = set()
        for coeffs in elements:
            seen.add(tuple(sum(c * img[i] for c, img in zip(coeffs, images)) % d
                           for i, d in enumerate(dims)))
        if len(seen) == len(elements):
            count += 1
    return count


def elementary2_pair_counts(rank: int, checkpoints, r: int) -> tuple[list[int], list[int]]:
    """Pairs with group (Z/2)^rank, radical n < x: (count with r odd primes, total).

    Each odd prime has |V| - 1 nontrivial maps into a subspace V and the prime
    2 has |V|^2 - 1 (its unit group is Z/2 x Z_2).  Surjections follow from
    Moebius inversion over the subspace lattice of F_2^rank, where
    mu(V, F_2^rank) = (-1)^c 2^(c(c-1)/2) for V of codimension c and there are
    Gaussian-binomial many such V.  Every odd prime's nontrivial map has
    order 2, so with Omega = the elements of 2-power order, r = omega(odd n).
    """
    xs = sorted(int(x) for x in checkpoints)
    omega, squarefree = omega_squarefree(xs[-1])
    n = np.flatnonzero(squarefree)
    even = n % 2 == 0
    odd_primes = omega[n].astype(np.int64) - even
    strata = (np.ones(len(n), dtype=bool), odd_primes == r)
    results = ([0] * len(xs), [0] * len(xs))
    for c in range(rank + 1):
        size = 2 ** (rank - c)
        mu = (-1) ** c * 2 ** (c * (c - 1) // 2) * _gaussian_binomial(rank, c, 2)
        weight = np.where(even, size * size - 1, 1) * (size - 1) ** odd_primes
        for out, mask in zip(results, strata):
            for k, v in enumerate(_cumulative_at(n[mask], weight[mask], xs)):
                out[k] += mu * v
    return results[1], results[0]


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# -- imaginary quadratic fields ------------------------------------------------------


def _imaginary_classes(limit: int):
    """Imaginary fundamental D = -m (m = 3 mod 4) or -4m (m = 1, 2 mod 4), m squarefree.

    Yields (m, omega(D), |D| / m, radical / m) per class, m ascending, for m < limit.
    """
    omega, squarefree = omega_squarefree(limit)
    m = np.flatnonzero(squarefree)
    w = omega[m].astype(np.int64)
    for residue, extra, disc_mult, rad_mult in ((3, 0, 1, 1), (1, 1, 4, 2), (2, 0, 4, 1)):
        sel = m % 4 == residue
        yield m[sel], w[sel] + extra, disc_mult, rad_mult


def imaginary_genus_stats(checkpoints, order: str, r: int = 0):
    """Per x: (N, sum of 2^rk2, #{rk2 <= r}) over imaginary fundamental D with key < x.

    The key is the radical of |D| (``radical``) or |D| (``absdisc``).  Genus
    theory gives rk2 = omega(D) - 1 for every imaginary fundamental D.
    """
    xs = sorted(int(x) for x in checkpoints)
    n_total, moment, low_rank = [0] * len(xs), [0] * len(xs), [0] * len(xs)
    for m, w, disc_mult, rad_mult in _imaginary_classes(xs[-1]):
        mult = rad_mult if order == "radical" else disc_mult
        keys = m * mult
        rk2 = w - 1
        for out, values in ((n_total, np.ones(len(m), dtype=np.int64)),
                            (moment, np.left_shift(1, rk2)),
                            (low_rank, (rk2 <= r).astype(np.int64))):
            for k, v in enumerate(_cumulative_at(keys, values, xs)):
                out[k] += v
    return [(x, n, s, c) for x, n, s, c in zip(xs, n_total, moment, low_rank)]


def imaginary_fundamental_count(max_abs_d: int) -> int:
    """Number of imaginary fundamental discriminants with |D| <= max_abs_d."""
    return sum(int(np.count_nonzero(m * disc_mult <= max_abs_d))
               for m, _, disc_mult, _ in _imaginary_classes(max_abs_d + 1))


def squarefree_two_omega_sum(x: int) -> int:
    """Sum of 2^omega(n) over squarefree 1 <= n < x."""
    omega, squarefree = omega_squarefree(x)
    return int(np.left_shift(1, omega[squarefree].astype(np.int64)).sum())


def reciprocal_prime_sums(modulus: int, residue: int, checkpoints) -> list[float]:
    """Sum of 1/p over primes p < x with p = residue mod modulus, ascending order."""
    xs = sorted(int(x) for x in checkpoints)
    primes = primes_below(xs[-1])
    primes = primes[primes % modulus == residue % modulus]
    acc = np.concatenate(([0.0], np.cumsum(1.0 / primes.astype(np.float64))))
    return [float(acc[np.searchsorted(primes, x, side="left")]) for x in xs]
