"""Number-theory primitives shared by every engine.

This module holds the one implementation of each sieve and factoriser in the
package: the prime sieve, the squarefree sieve, the omega sieve, trial
division and the invariant-factor form of a product of cyclic groups.  The
engines import them from here.  The independent oracles that test them
(``dirichlet.segmented_primes``, ``quadratic.reduced_forms``, ...) stay with
their engines on purpose.
"""

from __future__ import annotations

import math

import numpy as np


def sieve_primes(limit: int) -> np.ndarray:
    """All primes below ``limit``, ascending, by the sieve of Eratosthenes."""
    if limit <= 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).astype(np.int64)


def segmented_squarefree(lo: int, hi: int) -> np.ndarray:
    """Squarefree flags for n in [lo, hi); 0 is not squarefree."""
    flags = np.ones(hi - lo, dtype=bool)
    if lo == 0 < hi:
        flags[0] = False
    d = 2
    while d * d < hi:
        sq = d * d
        start = sq * ((lo + sq - 1) // sq)
        if start < hi:
            flags[start - lo:hi - lo:sq] = False
        d += 1
    return flags


def omega_sieve(limit: int) -> np.ndarray:
    """omega(n), the number of distinct prime divisors, for every n < limit.

    Primes up to sqrt(limit) are added by strided writes and divided out of
    a running cofactor; a cofactor above 1 is the one prime left over.
    omega(0) reads 0.
    """
    omega = np.zeros(limit, dtype=np.int8)
    rem = np.arange(limit, dtype=np.int32)
    for p in map(int, sieve_primes(math.isqrt(max(limit - 1, 0)) + 1)):
        omega[p::p] += 1
        pk = p
        while pk < limit:
            rem[pk::pk] //= p
            pk *= p
    omega += rem > 1
    return omega


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of |n|, ascending, by trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def valuation(n: int, q: int) -> int:
    """Largest l with q^l | n (n nonzero)."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def radical(n: int) -> int:
    """Product of the distinct primes dividing n."""
    return math.prod(prime_factors(n))


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(prime_factors(n))


def euler_phi(m: int) -> int:
    """Euler totient (exact, small arguments only)."""
    if m < 1:
        raise ValueError(f"phi undefined for {m}")
    result = m
    for p in prime_factors(m):
        result -= result // p
    return result


def is_prime(q: int) -> bool:
    return q >= 2 and prime_factors(q) == [q]


def is_squarefree(n: int) -> bool:
    """True iff no square above 1 divides n; 0 is not squarefree."""
    return n != 0 and radical(n) == abs(n)


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Canonical divisibility chain d1 | d2 | ... for a product of cyclic groups."""
    exponents: dict[int, list[int]] = {}
    for m in cyclic_orders:
        for p in prime_factors(m):
            exponents.setdefault(p, []).append(valuation(m, p))
    for p in exponents:
        exponents[p].sort(reverse=True)
    width = max((len(v) for v in exponents.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, exps in exponents.items():
            if i < len(exps):
                d *= p ** exps[i]
        factors.append(d)
    return tuple(sorted(factors))
