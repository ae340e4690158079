"""Rank inequalities on ramification profiles.

A profile lists, for each ramified rational prime, either its exponent
vector or a tame inertia class inside an attached permutation group.  The
calculators turn that data into genus-group and invariant-part lower bounds
on class-group q-ranks, the four D4-specific bounds, and the (Omega, r)
indicator used by the counting statistics.  Bounds are reported raw (possibly
negative) and clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import invariant_factors, valuation
from .errors import (
    InvalidInputs,
    MissingAbelianRank,
    MissingGroup,
    NonPositive,
    NotClosed,
    ParseError,
    WrongGroup,
)
from .permgroup import (
    PermGroup,
    Permutation,
    closed_under_invertible_powering,
    orbit_gcd,
    parse_group_spec,
)


@dataclass(frozen=True)
class RamifiedPrimeRecord:
    """One ramified prime: exponent vector (e1, ..., em) or a tame inertia class."""

    p: int
    exponents: tuple[int, ...] | None = None
    inertia_class: Permutation | None = None

    def __post_init__(self):
        if (self.exponents is None) == (self.inertia_class is None):
            raise ValueError("exactly one of exponents / inertia_class required")
        if self.exponents is not None:
            if not self.exponents or any(e < 1 for e in self.exponents):
                raise ValueError("exponents must be positive and nonempty")
            object.__setattr__(self, "exponents", tuple(self.exponents))


@dataclass
class RamificationProfile:
    degree: int
    primes: list[RamifiedPrimeRecord]
    group: PermGroup | None = None
    abelian_subext_rank: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        for rec in self.primes:
            if rec.exponents is not None and max(rec.exponents) > self.degree:
                raise ValueError(f"exponent exceeds degree at p = {rec.p}")
            if rec.inertia_class is not None:
                if self.group is None:
                    raise MissingGroup(f"inertia class at p = {rec.p} needs a group")
                if rec.inertia_class not in self.group:
                    raise ValueError(f"inertia class at p = {rec.p} not in group")


@dataclass(frozen=True)
class RZInputs:
    """Unit rank, v_q of the radical-subfield degree, and the delta flag."""

    unit_rank: int
    vq_nq: int
    delta: int

    def __post_init__(self):
        if self.unit_rank < 0 or self.vq_nq < 0 or self.delta not in (0, 1):
            raise InvalidInputs("unit_rank, vq_nq >= 0 and delta in {0, 1} required")

    def validate(self, n: int, q: int) -> None:
        if self.unit_rank > n - 1:
            raise InvalidInputs(f"unit rank {self.unit_rank} exceeds n - 1 = {n - 1}")
        if self.vq_nq > valuation(n, q):
            raise InvalidInputs(f"v_q(n_q) = {self.vq_nq} exceeds v_q(n)")
        if self.unit_rank + self.vq_nq + self.delta > 2 * (n - 1):
            raise InvalidInputs("inputs exceed the 2(n-1) envelope")

    @property
    def total(self) -> int:
        return self.unit_rank + self.vq_nq + self.delta


@dataclass(frozen=True)
class GenusData:
    """Invariant factors of the tame genus product."""

    abelian_part: tuple[int, ...]


def e_K(rec: RamifiedPrimeRecord, group: PermGroup | None = None) -> int:
    """gcd of ramification exponents; orbit gcd for inertia-class records."""
    if rec.exponents is not None:
        return math.gcd(*rec.exponents)
    if group is None:
        raise MissingGroup("inertia-class record needs the attached group")
    if rec.inertia_class not in group:
        raise MissingGroup("inertia class is not an element of the group")
    return orbit_gcd(rec.inertia_class)


def is_type(rec: RamifiedPrimeRecord, q: int, l: int,
            group: PermGroup | None = None) -> bool:
    """True iff q^l divides e_K(p); q must be at least 2."""
    if q < 2:
        raise InvalidInputs(f"q must be at least 2, got {q}")
    return valuation(e_K(rec, group), q) >= l


def genus_data(profile: RamificationProfile) -> GenusData:
    """Abelian part of the genus group read off the tame ramified primes."""
    factors = []
    for rec in profile.primes:
        e = e_K(rec, profile.group)
        if e % rec.p != 0:
            g = math.gcd(rec.p - 1, e)
            if g > 1:
                factors.append(g)
    return GenusData(invariant_factors(factors))


def _abelian_rank(profile: RamificationProfile, q: int) -> int:
    if q in profile.abelian_subext_rank:
        return profile.abelian_subext_rank[q]
    if profile.group is not None and profile.group.is_abelian():
        return profile.group.q_rank().get(q, 0)
    raise MissingAbelianRank(f"rk_{q} of the maximal abelian subextension required")


def genus_rank_lower_bound(profile: RamificationProfile, q: int, l: int = 1):
    """Genus-group bound: #{p of type q^l with p = 1 mod q} - rk_q Gal(K0/Q).

    Returns (raw, clamped, GenusData).
    """
    rank = _abelian_rank(profile, q)
    count = sum(1 for rec in profile.primes
                if is_type(rec, q, l, profile.group) and rec.p % q == 1)
    raw = count - rank
    return raw, max(raw, 0), genus_data(profile)


def rz_lower_bound(profile: RamificationProfile, q: int, l: int = 1,
                   inputs: RZInputs | None = None) -> dict:
    """Invariant-part bounds: type count minus the unit-rank budget.

    Uses the weak 2(n-1) budget when no RZInputs are supplied; the type count
    itself is the matching upper bound.
    """
    n = profile.degree
    if inputs is not None:
        inputs.validate(n, q)
        budget = inputs.total
    else:
        budget = 2 * (n - 1)
    count = sum(1 for rec in profile.primes if is_type(rec, q, l, profile.group))
    raw = count - budget
    return {
        "q": q,
        "l": l,
        "type_count": count,
        "lower_bound_raw": raw,
        "lower_bound": max(raw, 0),
        "upper_bound": count,
    }


def rz_relative_lower_bound(profile: RamificationProfile, q: int, l: int,
                            n: int | None = None) -> dict:
    """Relative-class-group bound #{type q^l} - 2(n-1).

    The caller asserts that q^l exactly divides the relative degree [K:K'];
    that hypothesis is not derivable from the profile.
    """
    n = profile.degree if n is None else n
    if n < 1:
        raise InvalidInputs(f"the relative degree must be positive, got {n}")
    count = sum(1 for rec in profile.primes if is_type(rec, q, l, profile.group))
    raw = count - 2 * (n - 1)
    return {
        "q": q,
        "l": l,
        "type_count": count,
        "lower_bound_raw": raw,
        "lower_bound": max(raw, 0),
    }


# -- D4 -------------------------------------------------------------------------


def canonical_d4() -> PermGroup:
    return parse_group_spec("D4@S4").group


def _d4_omegas(group: PermGroup):
    sigma = Permutation.parse("(1 2 3 4)", 4)
    tau = Permutation.parse("(1 3)", 4)
    omega1 = frozenset({sigma, sigma ** 3, sigma * tau, sigma ** 3 * tau})
    omega3 = frozenset({sigma ** 2})
    omega2 = omega1 | omega3
    omega4 = frozenset({sigma, sigma ** 3})
    return omega1, omega2, omega3, omega4


def d4_bounds(profile: RamificationProfile) -> dict:
    """The four D4 tallies and bounds; wild prime 2 stays out of every tally.

    A prime counts toward Omega_i when its inertia generator lies in
    Omega_i; that is the reading under which a sigma^2-inertia prime is
    unramified in the quadratic subfield.
    """
    group = canonical_d4()
    if profile.group is None or frozenset(profile.group.elements) != frozenset(group.elements):
        raise WrongGroup("profile group must be the canonical D4 in S4")
    omegas = _d4_omegas(group)
    tallies = [0, 0, 0, 0]
    for rec in profile.primes:
        if rec.p == 2:
            continue
        if rec.inertia_class is None:
            raise MissingGroup(f"D4 bounds need inertia classes (p = {rec.p})")
        for i, omega in enumerate(omegas):
            if rec.inertia_class in omega:
                tallies[i] += 1
    report = {}
    for i, tally in enumerate(tallies, start=1):
        entry = {
            "tally": tally,
            "lower_bound_raw": tally - 6,
            "lower_bound": max(tally - 6, 0),
        }
        if i in (1, 4):
            entry["upper_bound"] = tally
        report[f"omega{i}"] = entry
    return report


def indicator_omega_r(profile: RamificationProfile, omega, r: int) -> bool:
    """1_{(Omega, r)}: exactly r tame primes whose inertia subgroup meets Omega."""
    group = profile.group
    if group is None:
        raise MissingGroup("indicator needs a profile with an attached group")
    omega = frozenset(omega)
    if not closed_under_invertible_powering(group, omega):
        raise NotClosed("omega is not closed under invertible powering")
    hits = 0
    for rec in profile.primes:
        if group.order % rec.p == 0:
            continue
        if rec.inertia_class is None:
            raise MissingGroup(f"indicator needs inertia classes (p = {rec.p})")
        generated = {rec.inertia_class ** k for k in range(group.element_order[rec.inertia_class])}
        if generated & omega:
            hits += 1
    return hits == r


def clm_predicted_moment(fixed_points: int) -> Fraction:
    """The heuristic's finite surjection moment 1 / |M^{Gamma_infinity}|."""
    if fixed_points < 1:
        raise NonPositive("fixed-point count must be a positive integer")
    return Fraction(1, fixed_points)


# -- profile files ----------------------------------------------------------------


def parse_profile(text: str) -> RamificationProfile:
    """Profile format: ``degree: n`` header, optional ``group: <spec>`` line,
    then one ``p: e1,e2,...`` or ``p: class=<cycles>`` line per prime.

    A malformed line or an inconsistent profile raises ParseError.
    """
    degree = None
    group = None
    ranks: dict[int, int] = {}
    records = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if not rest:
            raise ParseError(f"bad profile line: {raw_line!r}")
        if key == "group":
            built = parse_group_spec(rest)
            group = built if isinstance(built, PermGroup) else built.group
            continue
        try:
            if key == "degree":
                degree = int(rest)
            elif key == "abelian_rank":
                q_text, _, r_text = rest.partition("=")
                ranks[int(q_text)] = int(r_text)
            elif rest.startswith("class="):
                if degree is None:
                    raise ParseError("degree header must precede class records")
                perm = Permutation.parse(rest[len("class="):], degree)
                records.append(RamifiedPrimeRecord(int(key), inertia_class=perm))
            else:
                exps = tuple(int(tok) for tok in rest.replace(",", " ").split())
                records.append(RamifiedPrimeRecord(int(key), exponents=exps))
        except ValueError as exc:
            raise ParseError(f"bad profile line: {raw_line!r}") from exc
    if degree is None:
        raise ParseError("profile needs a degree header")
    try:
        return RamificationProfile(degree, records, group=group,
                                   abelian_subext_rank=ranks)
    except ValueError as exc:
        raise ParseError(f"bad profile: {exc}") from exc
