"""Primes in progressions, Mertens-type sums, and Tauberian main-term tools.

Counting sides are exact sieve arithmetic; analytic sides evaluate the
summatory main term attached to a Dirichlet-series singularity
(s-1)^(-alpha) log^b(1/(s-1)) and fit the resulting x (log x)^e (log log x)^f
shapes by least squares in (log log x, log log log x) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import euler_phi, omega_sieve, segmented_squarefree, sieve_primes
from .errors import (
    BadResidue,
    CapExceeded,
    InsufficientData,
    MissingParam,
    UnsupportedSingularity,
)

SUMMATORY_CAP = 10 ** 7


class PrimeSieve:
    """All primes below ``limit``, from ``arith.sieve_primes``."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("limit must be at least 2")
        self.limit = limit
        self.primes = sieve_primes(limit)

    def count_below(self, x: int) -> int:
        return int(np.searchsorted(self.primes, x, side="left"))


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


def primes_in_ap(sieve: PrimeSieve, ap: APClass, x: int,
                 want_list: bool = False):
    """Exact count (and optionally the list) of primes p < x with p = n mod m."""
    if x > sieve.limit:
        raise CapExceeded(f"x = {x} beyond sieve limit {sieve.limit}")
    primes = sieve.primes[sieve.primes < x]
    sel = primes[primes % ap.m == ap.n % ap.m]
    if want_list:
        return len(sel), [int(p) for p in sel]
    return len(sel)


def mertens_ap(sieve: PrimeSieve, ap: APClass, checkpoints):
    """Rows (x, S(x), S(x) - loglog(x)/phi(m)) for S(x) the sum of 1/p in the class.

    Accumulation runs over primes in ascending order.
    """
    checkpoints = sorted(int(x) for x in checkpoints)
    if checkpoints[-1] > sieve.limit:
        raise CapExceeded(f"checkpoint {checkpoints[-1]} beyond sieve limit")
    primes = sieve.primes[sieve.primes % ap.m == ap.n % ap.m]
    inv = 1.0 / primes.astype(np.float64)
    cumulative = np.cumsum(inv)
    phi = euler_phi(ap.m)
    rows = []
    for x in checkpoints:
        idx = int(np.searchsorted(primes, x, side="left"))
        s = float(cumulative[idx - 1]) if idx else 0.0
        rows.append((x, s, s - math.log(math.log(x)) / phi))
    return rows


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


def _delta_minus_one(value) -> int:
    return 1 if value == -1 else 0


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
        return AsymptoticShape(beta_c - 1, Fraction(r - _delta_minus_one(beta_c)))
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
    if loglog_exp is None:
        design = np.column_stack([u, v, np.ones_like(u)])
        if np.linalg.matrix_rank(design) < 3:
            raise InsufficientData("degenerate design matrix")
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        a, b, c = sol
    else:
        b = float(loglog_exp)
        design = np.column_stack([u, np.ones_like(u)])
        if np.linalg.matrix_rank(design) < 2:
            raise InsufficientData("degenerate design matrix")
        sol, *_ = np.linalg.lstsq(design, y - b * v, rcond=None)
        a, c = sol
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
    """
    if x > SUMMATORY_CAP:
        raise CapExceeded(f"x = {x} exceeds {SUMMATORY_CAP}")
    if x < 2:
        return 0.0
    if kind == "ones":
        return float(x - 1)
    if kind == "squarefree_2_omega":
        # omega(n) + 1 on squarefree n and 0 elsewhere, built in place and tallied
        # per value: a masked copy, or bincount's cast to int64, costs more than the sieve
        shifted = omega_sieve(x)
        shifted += 1
        shifted *= segmented_squarefree(0, x)
        return float(sum(np.count_nonzero(shifted == w + 1) << w for w in range(int(shifted.max()))))
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
        for p in map(int, sieve_primes(x)):
            w = weight(p)
            if w:
                mult = np.arange(p, x, p)
                # gather precedes scatter, so each squarefree support
                # accumulates its product exactly once in ascending order
                values[mult] += values[mult // p] * w
        mask = segmented_squarefree(0, x)
        if r is not None:
            mask &= omega_sieve(x) == r
            mask[1] = r == 0
        else:
            mask[1] = True
        return float(values[mask].sum())
    raise MissingParam(f"unknown summatory kind {kind!r}")
