"""Number-theory primitives shared by every engine.

This module holds the one implementation of each sieve and factoriser in the
package: the prime sieve, the prime counts per residue class at the floor
values of n, the one strided-count loop behind the squarefree, omega and
ambiguous-form sieves (and the map that cuts its progressions to one residue
class), trial division, Miller-Rabin and invariant factors.
The prime sieve yields its primes window by window (``prime_windows``) and
holds one window of SIEVE_WINDOW flags, one per odd n, and the primes up to
sqrt(x); ``sieve_primes`` gathers the windows into one int64 array, and
``dirichlet.PrimeSieve`` into one int32 array below 2^31.  The omega sieve over
[0, x) keeps its int8 counts, one byte per n, and no list of the primes: it
counts the one prime above sqrt(x) by its cofactor, window by window, in
chunks of at most half a window.
The prime counts per class take the primes above n^(1/3) in one vectorised
pass over ``bulk_pairs``, which the abelian counter's second phase shares.
The engines import them from here.  The independent oracles that test them
(``dirichlet.segmented_primes``, ``quadratic.reduced_forms``, ...) stay with
their engines on purpose.
"""

from __future__ import annotations

import bisect
import functools
import math
import os

import numpy as np

from .errors import CapExceeded

SIEVE_WINDOW = 2 ** 17  # flags, one per odd n, per window of sieve_primes: 128 KB
BLOCK = 4096  # cells per step of the floor-value recursions, a block of floor values or
# a bulk_pairs chunk of pairs times rows: their temporaries stay this small


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def prime_windows(limit: int):
    """The primes below ``limit``, ascending, one int64 array per window of SIEVE_WINDOW odd n.

    A segmented sieve of Eratosthenes on odd n (Bays and Hudson, 1977): flag i
    stands for 2i + 1.  Each window is sieved first by the base primes, the odd
    primes up to isqrt(limit - 1) that earlier windows found, each from its first
    odd multiple in the window, then by the primes of the window whose squares fall
    in it, from p * p (only the first window has any).  Flag 0, for n = 1, is left
    set and becomes the prime 2.  Besides the window it yields, the generator holds
    one window of flags and the base primes, a list of about 2 sqrt(limit) / log limit
    ints.
    """
    if limit <= 2:
        return
    root = math.isqrt(limit - 1)
    base = []  # the primes <= root found so far, ascending
    for lo in range(0, limit // 2, SIEVE_WINDOW):
        hi = min(lo + SIEVE_WINDOW, limit // 2)
        flags = np.ones(hi - lo, dtype=bool)
        # the base primes whose squares fall below the window's last n, 2 hi - 1; p's
        # odd multiples are the flags p // 2 + j p, and p lies in an earlier window, so
        # every one from the window's start on is composite
        for p in base[1:bisect.bisect_right(base, math.isqrt(2 * hi - 1))]:
            flags[(p // 2 - lo) % p::p] = False
        for i in range(max(lo, 1), hi):
            p = 2 * i + 1
            if p * p // 2 >= hi:
                break
            if flags[i - lo]:
                flags[p * p // 2 - lo::p] = False
        primes = np.flatnonzero(flags)
        primes += lo
        primes *= 2
        primes += 1
        if lo == 0:
            primes[0] = 2
        base += primes[:bisect.bisect_right(primes, root)].tolist()
        yield primes


def _gather_primes(limit: int, dtype) -> np.ndarray:
    """prime_windows(limit) written into one array of ``dtype``, allocated once.

    The array is sized by the Rosser-Schoenfeld bound of the prime count, its
    pages stay untouched until written, and it is cut to the count in place at
    the end.  A bound whose bytes at dtype's size exceed physical memory raises
    CapExceeded before any array exists.
    """
    if limit <= 2:
        return np.zeros(0, dtype=dtype)
    # pi(x) < 1.25506 x / log x for x > 1 (Rosser and Schoenfeld, 1962); + 1 for the rounding
    bound = int(1.25506 * limit / math.log(limit)) + 1
    need, have = np.dtype(dtype).itemsize * bound, physical_memory()
    if need > have:
        raise CapExceeded(f"the primes below {limit} need up to {need / 2 ** 30:.1f} GiB, "
                          f"more than the {have / 2 ** 30:.1f} GiB of physical memory")
    primes = np.empty(bound, dtype=dtype)
    count = 0
    for window in prime_windows(limit):
        primes[count:count + len(window)] = window
        count += len(window)
    primes.resize(count, refcheck=False)
    return primes


def sieve_primes(limit: int) -> np.ndarray:
    """All primes below ``limit``, ascending, as int64: prime_windows gathered in one array.

    The sieve holds one window of flags and the base primes besides its output.
    """
    return _gather_primes(limit, np.int64)


def floor_values(n: int) -> np.ndarray:
    """The distinct values of n // i for i >= 1, descending, as int64.

    They are n // i for i = 1 .. isqrt(n), then n // isqrt(n) - 1 down to 1;
    floor_index finds a value's entry.  Empty for n < 1.
    """
    if n < 1:
        return np.zeros(0, dtype=np.int64)
    root = math.isqrt(n)
    return np.concatenate([n // np.arange(1, root + 1, dtype=np.int64),
                           np.arange(n // root - 1, 0, -1, dtype=np.int64)])


def floor_index(n: int, v):
    """The last entry of floor_values(n) that is at least v, for v >= 1 an int or an array.

    That is n // v - 1 for v >= n // isqrt(n), the least n // i, and len - v below it.
    """
    root = math.isqrt(n)
    return np.where(v < n // root, root + n // root - 1 - v, n // v - 1)


def cube_root(n: int) -> int:
    """The largest k with k^3 <= n, for 0 <= n < 2^120: the rounded float root, corrected."""
    k = round(n ** (1 / 3))
    return k - (k ** 3 > n)


def bulk_pairs(n: int, primes: np.ndarray, size: int):
    """Chunks (j, p, starts) of at most max(size, 1) pairs (j, p): a floor index j of n and
    a prime p > cube_root(n) of ``primes`` (ascending, int64, up to sqrt(n)), p * p <= v_j.

    The v_j >= p * p are n // (j + 1), j < n^(1/3), and each j's primes are a prefix of
    those above the cube root: the pairs come j-major, starts marks each j's first pair,
    so np.add.reduceat(d, starts) sums a chunk per j, and j[starts] are its j.
    """
    bulk = primes[np.searchsorted(primes, cube_root(n), side="right"):]
    if len(bulk) == 0:
        return
    counts = np.searchsorted(bulk * bulk, n // np.arange(1, n // bulk[0] ** 2 + 1), side="right")
    ends = np.cumsum(counts)
    total, size = int(ends[-1]), max(size, 1)
    for lo in range(0, total, size):
        pair = np.arange(lo, min(lo + size, total))
        j = np.searchsorted(ends, pair, side="right")
        p = bulk[pair - ends[j] + counts[j]]
        yield j, p, np.flatnonzero(np.diff(j, prepend=-1))


def prime_counts_mod(n: int, e: int) -> dict[int, np.ndarray]:
    """pi(v; e, c) at every floor value v of n, for each class c prime to e.

    Entry j holds pi(v; e, c) for v = floor_values(n)[j].  Legendre's sieve
    in Lucy's form: S(v, c) starts as the integers in [2, v] that are c mod e,
    and each prime p <= sqrt(n) not dividing e removes the multiples p * m
    with m free of primes below p, S(v, c) -= S(v // p, c / p) - S(p - 1, c / p)
    for v >= p * p, every class read before any is updated.  O(n^(3/4)) time
    and O(phi(e) sqrt(n)) memory.  A prime with p^3 > n reads S at v // p < n^(2/3)
    and p - 1, below the square of every such prime, which none of them writes: so
    they go at once, from bulk_pairs in chunks of BLOCK // phi(e) pairs, after the
    primes up to n^(1/3) (the split of Deleglise and Rivat, Math. Comp. 65, 1996).
    """
    if n >= 2 ** 63:
        raise CapExceeded(f"n = {n} is beyond the int64 prime-count tables")
    classes = [c for c in range(e) if math.gcd(c, e) == 1]
    if n < 1:
        return {c: np.zeros(0, dtype=np.int64) for c in classes}
    values = floor_values(n)
    # the integers in [1, v] that are c mod e, less 1 itself in its class
    table = np.array([(values - c) // e - (-c) // e - (c == 1 % e) for c in classes])
    src_of = np.zeros((len(classes), e), dtype=np.int64)  # column p mod e: the rows of c / p
    for r in classes:
        src_of[:, r] = [classes.index(c * pow(r, -1, e) % e) for c in classes]
    primes = sieve_primes(math.isqrt(n) + 1)
    primes = primes[e % primes != 0]
    for p in primes[:np.searchsorted(primes, cube_root(n), side="right")].tolist():
        k = int(floor_index(n, p * p)) + 1  # the v >= p * p
        at = floor_index(n, values[:k] // p)
        src = src_of[:, p % e]
        table[:, :k] -= table[np.ix_(src, at)] - table[src, int(floor_index(n, p - 1))][:, None]
    for j, p, starts in bulk_pairs(n, primes, BLOCK // len(classes)):
        src = src_of[:, p % e]
        d = table[src, floor_index(n, n // ((j + 1) * p))]
        d -= table[src, floor_index(n, p - 1)]
        table[:, j[starts]] -= np.add.reduceat(d, starts, axis=1)
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

    Terms repeat mod m after m steps, so a progression that meets the class has its first
    hit among its first m terms (m is small) and then hits every (m / gcd(step, m))-th term.
    """
    start, step = np.asarray(progressions, dtype=np.int64).reshape(-1, 2).T
    small = np.min_scalar_type(2 * m)  # holds a residue plus a step, and the hit index k < m
    residue, advance = ((start - r) % m).astype(small), (step % m).astype(small)
    k = np.zeros(len(start), dtype=small)
    found = residue == 0
    for _ in range(m - 1):  # one pass over 1-D arrays per term: no (progressions x m) matrix
        k += ~found
        residue += advance
        residue %= m
        found |= residue == 0
    start, step = start[found], step[found]
    return list(zip(((start + k[found] * step - r) // m).tolist(),
                    (step // np.gcd(step, m)).tolist()))


@functools.lru_cache(maxsize=1)  # a scan asks for the same top window after window
def square_progressions(top: int, r: int = 0, m: int = 1) -> tuple[tuple[int, int], ...]:
    """The multiples of the odd prime squares p^2 <= top as progressions of i, n = r + m * i.

    The progressions (start, step) come ascending by start.
    """
    squares = sieve_primes(math.isqrt(max(top, 0)) + 1)[1:] ** 2
    return tuple(sorted(class_progressions(np.stack([squares] * 2, 1), r, m)))


def odd_squarefree(lo: int, hi: int, r: int = 0, m: int = 1) -> np.ndarray:
    """Flags for n = r + m * i, i in [lo, hi), that no odd prime square divides; 0 is excluded.

    The squares are square_progressions' for the least power of two >= the last n, one
    list for a scan's windows up to it; only those that start below hi are walked.
    """
    squares = square_progressions(1 << max(r + m * (hi - 1) - 1, 0).bit_length(), r, m)
    # (hi,) sorts before every progression (hi, step)
    flags = progression_counts(lo, hi, squares[:bisect.bisect_left(squares, (hi,))])
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
    one, and n = q * m with m < q.  Those q come window by window from
    prime_windows; for each cofactor m, one vectorised step per half window of
    them counts every q with q * m < limit.  No list of the primes and no
    cofactor array is kept, and the products go to one buffer of at most half a
    window of int64, so the sieve holds one byte per n besides one window.
    omega(0) reads 0.
    """
    root = math.isqrt(max(limit - 1, 0))
    omega = progression_counts(0, limit, [(p, p) for p in sieve_primes(root + 1).tolist()])
    chunk = SIEVE_WINDOW // 2
    for primes in prime_windows(limit):
        large = primes[bisect.bisect_right(primes, root):]
        multiples = np.empty(min(len(large), chunk), dtype=np.int64)  # reused by every step
        m = 1
        while len(large) and m * int(large[0]) < limit:
            k = int(np.searchsorted(large, (limit - 1) // m, side="right"))
            for lo in range(0, k, chunk):
                part = large[lo:min(lo + chunk, k)]
                omega[np.multiply(part, m, out=multiples[:len(part)])] += 1
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


def primitive_root(p: int, k: int = 1) -> int:
    """The least primitive root g mod p, or g + p if g fails mod p^2: a generator mod p^k, p odd."""
    g = next(g for g in range(2, p + 1)
             if all(pow(g, (p - 1) // r, p) != 1 for r in prime_factors(p - 1)))
    return g + p if k >= 2 and pow(g, p - 1, p * p) == 1 else g


def unit_generators(m: int) -> list[int]:
    """Exponents a mod m that generate the unit group (Z/m)^x; none for m <= 2.

    (Z/m)^x is the product of the (Z/p^k)^x.  Each factor is generated by -1 and 5
    for 2^k >= 8, by -1 for 4, and by a primitive root for odd p^k.  Each local
    generator c is lifted by CRT to the a with a = c mod p^k and a = 1 mod m / p^k.
    """
    gens = []
    for p in prime_factors(m):
        k = valuation(m, p)
        pk, rest = p ** k, m // p ** k
        local = [primitive_root(p, k)] if p > 2 else [pk - 1, 5][:(k >= 2) + (k >= 3)]
        gens += [c + pk * ((1 - c) * pow(pk, -1, rest) % rest) for c in local]
    return gens


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
    """Canonical divisibility chain d1 | d2 | ... for a product of cyclic groups.

    C_a x C_b = C_gcd(a,b) x C_lcm(a,b).  Replacing each pair i < j in turn leaves
    every entry dividing the ones after it; the trivial factors are then dropped.
    """
    orders = list(cyclic_orders)
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            orders[i], orders[j] = math.gcd(orders[i], orders[j]), math.lcm(orders[i], orders[j])
    return tuple(d for d in orders if d != 1)
