"""Number-theory primitives shared by every engine.

This module holds the one implementation of each sieve and factoriser in the
package: the prime sieve, the prime counts per residue class at the floor
values of n, the one strided-count loop behind the squarefree, omega and
ambiguous-form sieves (and the map that cuts its progressions to one residue
class), trial division, Miller-Rabin and invariant factors.
The two sieves over all of [0, x) hold about one byte per n: the prime sieve
keeps one flag per odd n only, and the omega sieve keeps its int8 counts and
no cofactor array, counting the one prime above sqrt(x) by its cofactor.
The engines import them from here.  The independent oracles that test them
(``dirichlet.segmented_primes``, ``quadratic.reduced_forms``, ...) stay with
their engines on purpose.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded


def sieve_primes(limit: int) -> np.ndarray:
    """All primes below ``limit``, ascending, by the sieve of Eratosthenes on odd n.

    One flag per odd n: flag i stands for 2i + 1, so the sieve holds limit // 2
    bytes.  Flag 0, for n = 1, is left set and becomes the prime 2, so the primes
    are made in place from the one array of flag indices.
    """
    if limit <= 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit - 1) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2::p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def prime_counts_mod(n: int, e: int) -> dict[int, np.ndarray]:
    """pi(v; e, c) at every floor value v of n, for each class c prime to e.

    The floor values are n // i for i = 1 .. isqrt(n), then n // isqrt(n) - 1
    down to 1, so entry i - 1 holds pi(n // i; e, c) for i <= sqrt(n) and
    entry len - v holds pi(v; e, c) for v <= sqrt(n).  Legendre's sieve in
    Lucy's form: S(v, c) starts as the integers in [2, v] that are c mod e,
    and each prime p <= sqrt(n) not dividing e removes the multiples p * m
    with m free of primes below p, S(v, c) -= S(v // p, c / p) - S(p - 1, c / p)
    for v >= p * p, every class read before any is updated.  O(n^(3/4)) time
    and O(phi(e) sqrt(n)) memory.
    """
    if n >= 2 ** 63:
        raise CapExceeded(f"n = {n} is beyond the int64 prime-count tables")
    classes = [c for c in range(e) if math.gcd(c, e) == 1]
    if n < 1:
        return {c: np.zeros(0, dtype=np.int64) for c in classes}
    root = math.isqrt(n)
    small_top = n // root  # the least of the n // i; the values below it are 1 .. small_top - 1
    values = np.concatenate([n // np.arange(1, root + 1, dtype=np.int64),
                             np.arange(small_top - 1, 0, -1, dtype=np.int64)])
    size, ascending = len(values), -values
    # the integers in [1, v] that are c mod e, less 1 itself in its class
    table = np.array([(values - c) // e - (-c) // e - (c == 1 % e) for c in classes])
    row = {c: j for j, c in enumerate(classes)}
    for p in sieve_primes(root + 1).tolist():
        if e % p == 0:
            continue
        k = int(np.searchsorted(ascending, -p * p, side="right"))  # the v >= p * p
        q = values[:k] // p
        at = np.where(q < small_top, size - q, n // q - 1)
        src = [row[c * pow(p, -1, e) % e] for c in classes]
        table[:, :k] -= table[np.ix_(src, at)] - table[src, size - (p - 1)][:, None]
    return dict(zip(classes, table))


def progression_counts(lo: int, hi: int, progressions, dtype=np.int8) -> np.ndarray:
    """For every n in [lo, hi), how many progressions start, start + step, ... hit n.

    The package's one strided-add loop.  A start below lo moves up into the
    window; dtype must hold the largest count.
    """
    counts = np.zeros(max(hi - lo, 0), dtype=dtype)
    for start, step in progressions:
        if start < lo:
            start += step * -((start - lo) // step)
        counts[start - lo::step] += 1
    return counts


def class_progressions(progressions, r: int, m: int) -> list[tuple[int, int]]:
    """The progressions (start, step) of n cut to the class n = r mod m, in i = (n - r) / m.

    With g = gcd(step, m), a progression meets the class only if start = r mod g; it then
    hits every (m / g)-th term from the first hit, one of the first m terms (m is small).
    """
    start, step = np.asarray(progressions, dtype=np.int64).reshape(-1, 2).T
    g = np.gcd(step, m)
    meets = (start - r) % g == 0
    start, step, g = start[meets], step[meets], g[meets]
    k = np.argmax((start[:, None] + step[:, None] * np.arange(m) - r) % m == 0, axis=1)
    return list(zip(((start + k * step - r) // m).tolist(), (step // g).tolist()))


def odd_squarefree(lo: int, hi: int, r: int = 0, m: int = 1) -> np.ndarray:
    """Flags for n = r + m * i, i in [lo, hi), that no odd prime square divides; 0 is excluded."""
    squares = sieve_primes(math.isqrt(max(r + m * (hi - 1), 0)) + 1)[1:] ** 2
    flags = progression_counts(lo, hi, class_progressions(np.stack([squares] * 2, 1), r, m))
    flags = np.logical_not(flags, out=flags.view(bool))  # in place: one byte per n
    if r == lo == 0 < hi:
        flags[0] = False
    return flags


def segmented_squarefree(lo: int, hi: int) -> np.ndarray:
    """Squarefree flags for n in [lo, hi); 0 is not squarefree."""
    flags = odd_squarefree(lo, hi)
    flags[-lo % 4::4] = False
    return flags


def omega_sieve(limit: int) -> np.ndarray:
    """omega(n), the number of distinct prime divisors, for every n < limit.

    Primes p up to isqrt(limit - 1) are counted as progressions p, 2p, ....
    Any other prime q dividing n < limit has q * q >= limit, so it is the only
    one, and n = q * m with m < q: for each cofactor m, one vectorised step
    counts every such q with q * m < limit.  No cofactor array is kept, so the
    sieve holds one byte per n besides the primes.  omega(0) reads 0.
    """
    primes = sieve_primes(limit)
    split = int(np.searchsorted(primes, math.isqrt(max(limit - 1, 0)), side="right"))
    omega = progression_counts(0, limit, [(p, p) for p in primes[:split].tolist()])
    large = primes[split:]
    multiples = np.empty_like(large)  # reused by every step: no product array per step
    m = 1
    while len(large) and m * int(large[0]) < limit:
        k = int(np.searchsorted(large, (limit - 1) // m, side="right"))
        omega[np.multiply(large[:k], m, out=multiples[:k])] += 1
        m += 1
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
    """Deterministic Miller-Rabin over the prime bases 2 ... 41.

    Those bases admit no strong pseudoprime below 3 317 044 064 679 887 385
    961 981 (Sorenson and Webster, 2015), so the answer is exact below it;
    above it CapExceeded is raised.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if q < 2:
        return False
    if q >= 3_317_044_064_679_887_385_961_981:
        raise CapExceeded(f"q = {q} is beyond the exact Miller-Rabin range")
    if any(q % p == 0 for p in bases):
        return q in bases
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


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
