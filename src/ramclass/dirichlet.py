"""Primes in progressions, Mertens-type sums, and Tauberian main-term tools.

Counting sides are exact sieve arithmetic; analytic sides evaluate the
summatory main term attached to a Dirichlet-series singularity
(s-1)^(-alpha) log^b(1/(s-1)) and fit the resulting x (log x)^e (log log x)^f
shapes by least squares in (log log x, log log log x) coordinates.

The summatory oracles are the exact counts those main terms are checked
against.  The 2^omega oracle holds no array of length x and reads no
prime-count table: it convolves the divisor function with the coefficients of
zeta(s)^-2 prod_p (1 + 2 p^-s), which live on m = a^2 b^3, from omega and the
squarefree flags up to sqrt(x), in O(sqrt(x) log x) time and memory.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    SIEVE_WINDOW,
    _gather_primes,
    euler_phi,
    omega_sieve,
    segmented_squarefree,
    sieve_primes,
)
from .errors import (
    BadResidue,
    CapExceeded,
    InsufficientData,
    MissingParam,
    UnsupportedSingularity,
)

SUMMATORY_CAP = 10 ** 7


class PrimeSieve:
    """All primes below ``limit``, from ``arith.prime_windows``, in 4 bytes each below 2^31.

    ``primes`` is int32 for a limit below 2^31 and int64 from there on, written
    window by window into one array, so no int64 copy of the primes exists; the
    memory guard weighs the bound at that size.  Products of two primes, p * p
    among them, overflow int32 past 46 340: cast before multiplying.  Every
    ``searchsorted`` on ``primes`` takes a key of the array's own dtype, since a
    Python int key makes NumPy search an int64 copy of the array.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("limit must be at least 2")
        self.limit = limit
        self.primes = _gather_primes(limit, np.int32 if limit < 2 ** 31 else np.int64)

    def count_below(self, x: int) -> int:
        """pi(x - 1); x beyond the limit, where the sieve would undercount, raises CapExceeded."""
        if x > self.limit:
            raise CapExceeded(f"x = {x} beyond sieve limit {self.limit}")
        return int(np.searchsorted(self.primes, self.primes.dtype.type(max(x, 0)), side="left"))


def segmented_primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by a segmented sieve; independent of PrimeSieve."""
    if hi <= 2:
        return []
    lo = max(lo, 2)
    flags = bytearray(b"\x01" * (hi - lo))
    d = 2
    while d * d < hi:
        start = max(d * d, d * ((lo + d - 1) // d))
        for m in range(start, hi, d):
            flags[m - lo] = 0
        d += 1
    return [lo + i for i, f in enumerate(flags) if f]


@dataclass(frozen=True)
class APClass:
    """The progression p = n mod m, gcd(m, n) = 1."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or math.gcd(self.m, self.n) != 1:
            raise BadResidue(f"residue {self.n} mod {self.m} is not coprime")


def _class_chunks(primes: np.ndarray, ap: APClass):
    """The entries of ``primes`` in the class of ``ap``, ascending, one array per chunk.

    A chunk is half a sieve window of primes, so no mask or residue array is
    longer than that, whatever the length of ``primes``.
    """
    chunk = SIEVE_WINDOW // 2
    # every prime lies below the dtype's top, so p % m is p for a modulus past it, as for the top
    m = min(ap.m, int(np.iinfo(primes.dtype).max))
    for lo in range(0, len(primes), chunk):
        part = primes[lo:lo + chunk]
        yield part[part % m == ap.n % ap.m]


def primes_in_ap(sieve: PrimeSieve, ap: APClass, x: int,
                 want_list: bool = False):
    """Exact count (and optionally the list) of primes p < x with p = n mod m."""
    chunks = _class_chunks(sieve.primes[:sieve.count_below(x)], ap)
    if want_list:
        found = [p for part in chunks for p in part.tolist()]
        return len(found), found
    return sum(len(part) for part in chunks)


def mertens_ap(sieve: PrimeSieve, ap: APClass, checkpoints):
    """Rows (x, S(x), S(x) - loglog(x)/phi(m)) for S(x) the sum of 1/p in the class.

    A checkpoint past the sieve's limit raises CapExceeded.  The class primes
    below the last checkpoint are summed in ascending order, a chunk at a time:
    each chunk's reciprocals take the running sum into their first entry and
    are cumulated in place.  np.cumsum adds in sequence, so every partial sum
    is bitwise that of one cumsum over the whole class.
    """
    checkpoints = sorted(int(x) for x in checkpoints)
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be at least 2")
    sums, total = [], 0.0
    for part in _class_chunks(sieve.primes[:sieve.count_below(checkpoints[-1])], ap):
        if not len(part):
            continue
        run = np.reciprocal(part, dtype=np.float64)
        run[0] += total
        np.cumsum(run, out=run)
        # the checkpoints x <= the chunk's last prime: every class prime below x is summed
        for x in checkpoints[len(sums):bisect.bisect_right(checkpoints, int(part[-1]))]:
            j = int(np.searchsorted(part, part.dtype.type(x), side="left"))
            sums.append(float(run[j - 1]) if j else total)
        total = float(run[-1])
    sums += [total] * (len(checkpoints) - len(sums))
    phi = euler_phi(ap.m)
    return [(x, s, s - math.log(math.log(x)) / phi) for x, s in zip(checkpoints, sums)]


@dataclass(frozen=True)
class SingularityDescriptor:
    """Leading singularity g0(1) (s-1)^(-alpha) log^b(1/(s-1)) at s = 1."""

    alpha: Fraction
    b: int
    coeff: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha < 0:
            raise ValueError("pole order must be nonnegative")
        if self.b < 0:
            raise ValueError("log power must be nonnegative")
        if self.coeff <= 0:
            raise ValueError("leading coefficient must be positive")


def delange_ikehara_main_term(d: SingularityDescriptor, x: float) -> float:
    """Summatory main term for the singularity: the two Tauberian branches.

    alpha > 0: (c / Gamma(alpha)) x (log x)^(alpha-1) (log log x)^b;
    alpha = 0, b >= 1: b c x (log log x)^(b-1) / log x.
    """
    if x < math.e ** 2:
        raise ValueError("x must be at least e^2")
    lx = math.log(x)
    llx = math.log(lx)
    if d.alpha > 0:
        return d.coeff / math.gamma(float(d.alpha)) * x * lx ** (float(d.alpha) - 1) * llx ** d.b
    if d.b >= 1:
        return d.b * d.coeff * x * llx ** (d.b - 1) / lx
    raise UnsupportedSingularity("alpha = 0 with b = 0 has no main term")


def singularity_product(d1: SingularityDescriptor,
                        d2: SingularityDescriptor) -> SingularityDescriptor:
    """Leading-order product: pole orders add, log powers add, coefficients multiply."""
    return SingularityDescriptor(d1.alpha + d2.alpha, d1.b + d2.b, d1.coeff * d2.coeff)


SINGULARITY_IDENTITY = SingularityDescriptor(Fraction(0), 0, 1.0)


@dataclass(frozen=True)
class AsymptoticShape:
    """x (log x)^log_exp (log log x)^loglog_exp, with an optional constant."""

    log_exp: Fraction
    loglog_exp: Fraction
    constant: float | None = None

    def scale(self) -> str:
        parts = ["x"]
        if self.log_exp:
            parts.append(f"(log x)^{self.log_exp}")
        if self.loglog_exp:
            parts.append(f"(log log x)^{self.loglog_exp}")
        return " * ".join(parts)


def predicted_shape(kind: str, **params) -> AsymptoticShape:
    """Exponent pair predicted for a counting function.

    abelian:        needs beta_complement (= beta(G \\ Omega)) and r;
                    pass omega_empty=True for the empty-Omega branch.
    dihedral_upper: needs beta_F_complement (= beta(F, H \\ Omega)),
                    beta_F, beta1, r.
    dq_upper:       needs r.
    """
    def need(name):
        if name not in params:
            raise MissingParam(f"{kind} shape needs {name}")
        return params[name]

    if kind == "abelian":
        beta_c = Fraction(need("beta_complement"))
        if params.get("omega_empty"):
            return AsymptoticShape(beta_c - 1, Fraction(0))
        r = need("r")
        return AsymptoticShape(beta_c - 1, Fraction(r - (1 if beta_c == -1 else 0)))
    if kind == "dihedral_upper":
        beta_fc = Fraction(need("beta_F_complement"))
        beta_f = Fraction(need("beta_F"))
        beta1 = Fraction(need("beta1"))
        r = need("r")
        return AsymptoticShape(beta_fc + (beta_f + beta1) / 2, Fraction(r, 2) + 1)
    if kind == "dq_upper":
        r = need("r")
        return AsymptoticShape(Fraction(1, 2), Fraction(r, 2) + 1)
    raise MissingParam(f"unknown shape kind {kind!r}")


@dataclass(frozen=True)
class FitResult:
    log_exp: float
    loglog_exp: float
    constant: float
    max_rel_residual: float


def fit_asymptotic(rows, loglog_exp=None) -> FitResult:
    """Least squares for N ~ C x (log x)^a (log log x)^b on (x, N) rows.

    Fits log(N/x) against log log x and (if ``loglog_exp`` is None)
    log log log x.  Requires at least 4 points over 3 decades with N > 0.
    """
    rows = sorted((float(x), float(n)) for x, n in rows)
    if len(rows) < 4:
        raise InsufficientData("need at least 4 checkpoints")
    xs = np.array([r[0] for r in rows])
    ns = np.array([r[1] for r in rows])
    if not np.all(np.isfinite(xs) & np.isfinite(ns) & (ns > 0) & (xs > math.e ** math.e)):
        raise InsufficientData("need finite positive counts at finite x > e^e")
    if xs[-1] / xs[0] < 10 ** 3:
        raise InsufficientData("checkpoints must span at least 3 decades")
    y = np.log(ns / xs)
    u = np.log(np.log(xs))
    v = np.log(np.log(np.log(xs)))
    # a fixed b moves b log log log x to the left-hand side and out of the design
    free = loglog_exp is None
    design = np.column_stack([u, v, np.ones_like(u)] if free else [u, np.ones_like(u)])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise InsufficientData("degenerate design matrix")
    sol, *_ = np.linalg.lstsq(design, y if free else y - float(loglog_exp) * v, rcond=None)
    a, c = sol[0], sol[-1]
    b = sol[1] if free else float(loglog_exp)
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = xs * np.exp(c) * np.log(xs) ** a * np.log(np.log(xs)) ** b
        max_rel = float(np.max(np.abs(fitted - ns) / ns))
    if not math.isfinite(max_rel):
        raise InsufficientData("the fitted shape overflows at the checkpoints")
    return FitResult(float(a), float(b), float(math.exp(c)), max_rel)


# -- summatory oracle -----------------------------------------------------------


def summatory_oracle(kind: str, x: int, **params) -> float:
    """Exact partial sum of a nonnegative coefficient family below x.

    kinds: ``ones`` (a_n = 1); ``squarefree_2_omega`` (a_n = 2^omega(n) on
    squarefree n); ``squarefree_ap_product`` (multiplicative over squarefree n
    with per-residue prime weights mod m, optionally fixed omega(n) = r);
    ``custom`` (per-prime weight function, the shifted-Euler-factor surrogate).

    ``squarefree_2_omega``: prod_p (1 + 2 p^-s) = zeta(s)^2 prod_p (1 - 3 p^-2s + 2 p^-3s),
    so the sum over n <= N = x - 1 is that of g(m) D(N // m), D(y) the sum of the
    divisor function up to y and g(m) = (-3)^omega(a) 2^omega(b) on m = a^2 b^3 (a and
    b squarefree and coprime), 0 elsewhere.  O(sqrt(x) log x) time and memory, one
    int64 per quotient y // i of the D(y); the sum is exact in int64, made a float once.
    """
    if x > SUMMATORY_CAP:
        raise CapExceeded(f"x = {x} exceeds {SUMMATORY_CAP}")
    if x < 2:
        return 0.0
    if kind == "ones":
        return float(x - 1)
    if kind == "squarefree_2_omega":
        n = x - 1
        root = math.isqrt(n)
        squarefree = np.flatnonzero(segmented_squarefree(0, root + 1))
        omega = omega_sieve(root + 1).astype(np.int64)
        # the support of g: m = a^2 b^3 <= n with a and b squarefree and coprime
        quotients, g = [], []
        for b in squarefree.tolist():
            if b ** 3 > n:
                break
            a = squarefree[:np.searchsorted(squarefree, math.isqrt(n // b ** 3), side="right")]
            a = a[np.gcd(a, b) == 1]
            quotients.append(n // (a * a * b ** 3))
            g.append(np.power(-3, omega[a]) * 2 ** int(omega[b]))
        y = np.concatenate(quotients)
        # D(y) = 2 sum_{i <= sqrt y} y // i - isqrt(y)^2, every y's run of i in one flat array
        r = np.sqrt(y).astype(np.int64)  # isqrt(y): a rounded float sqrt floors right below 2^52
        starts = np.cumsum(r) - r
        i = np.arange(1, int(r.sum()) + 1) - np.repeat(starts, r)
        divisor_sums = 2 * np.add.reduceat(np.repeat(y, r) // i, starts) - r * r
        return float(int(np.concatenate(g) @ divisor_sums))
    if kind in ("squarefree_ap_product", "custom"):
        if kind == "squarefree_ap_product":
            m = params.get("m")
            class_values = params.get("class_values")
            if m is None or class_values is None:
                raise MissingParam("squarefree_ap_product needs m and class_values")
            weight = lambda p: float(class_values.get(p % m, 0.0))
        else:
            weight = params.get("weight")
            if weight is None:
                raise MissingParam("custom needs a weight function")
        r = params.get("r")
        values = np.zeros(x, dtype=np.float64)
        values[1] = 1.0
        primes = sieve_primes(x)
        split = int(np.searchsorted(primes, math.isqrt(x - 1), side="right"))
        for p in primes[:split].tolist():
            w = weight(p)
            if w:
                mult = np.arange(p, x, p)
                # gather precedes scatter, so each squarefree support
                # accumulates its product exactly once in ascending order
                values[mult] += values[mult // p] * w
        # a prime q above sqrt(x) is the largest prime of each n = q * c < x, and c < q,
        # so values[c] is final: count every such q at once for each cofactor c
        weights = np.array([weight(q) for q in primes[split:].tolist()], dtype=np.float64)
        large, weights = primes[split:][weights != 0], weights[weights != 0]
        c = 1
        while len(large) and c * int(large[0]) < x:
            k = int(np.searchsorted(large, (x - 1) // c, side="right"))
            values[large[:k] * c] += values[c] * weights[:k]
            c += 1
        mask = segmented_squarefree(0, x)
        if r is not None:
            mask &= omega_sieve(x) == r
            mask[1] = r == 0
        else:
            mask[1] = True
        return float(values[mask].sum())
    raise MissingParam(f"unknown summatory kind {kind!r}")
