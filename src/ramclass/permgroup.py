"""Finite transitive permutation groups and their ramification invariants.

Everything here is exact integer combinatorics on small groups: element
orders, orbit gcds e(sigma), the Omega(G, q^l) sets, non-random primes,
and the beta exponents that drive the field-counting asymptotics.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product as _iproduct

from .arith import euler_phi, is_prime, prime_factors, valuation
from .errors import (
    CapExceeded,
    DegreeMismatch,
    NonTransitive,
    NotAbelian,
    NotClosed,
    NotInH,
    NotPrime,
    NotSubset,
    ParseError,
    UnknownSpec,
)

DEFAULT_CLOSURE_CAP = 10_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A permutation of {1, ..., n} stored as its image sequence.

    ``images[i-1]`` is the image of the point ``i``.  Composition follows
    function convention: ``(a * b)(i) == a(b(i))``.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images!r}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not (1 <= a <= degree):
                    raise ValueError(f"point {a} outside 1..{degree}")
                images[a - 1] = b
        perm = cls(images)
        return perm

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation like ``(1 2 3)(4 5)``; ``id`` or ``()`` is the identity."""
        text = text.strip()
        if text in ("id", "()", "e", "1"):
            return cls.identity(degree)
        consumed = "".join(_CYCLE_RE.findall(text))
        if _CYCLE_RE.sub("", text).strip():
            raise ParseError(f"bad cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(text):
            pts = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if len(pts) != len(set(pts)):
                raise ParseError(f"repeated point in cycle: ({body})")
            if pts:
                cycles.append(pts)
        if not consumed.strip():
            raise ParseError(f"bad cycle notation: {text!r}")
        try:
            return cls.from_cycles(cycles, degree)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees {self.degree} != {other.degree}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def orbits(self) -> list[tuple[int, ...]]:
        """Every <g>-orbit on the points, fixed points included, each from its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            orbit, pt = [], start
            while not seen[pt - 1]:
                seen[pt - 1] = True
                orbit.append(pt)
                pt = self.images[pt - 1]
            out.append(tuple(orbit))
        return out

    def cycle_lengths(self) -> list[int]:
        """Sizes of all <g>-orbits on the points, fixed points included."""
        return [len(orbit) for orbit in self.orbits()]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        return [orbit for orbit in self.orbits() if len(orbit) > 1]

    def order(self) -> int:
        return math.lcm(*self.cycle_lengths())

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.degree + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def orbit_gcd(g: Permutation) -> int:
    """gcd of the <g>-orbit sizes on the points: the invariant e(g)."""
    return math.gcd(*g.cycle_lengths())


class PermGroup:
    """A finite transitive permutation group with each element's order and e(g) precomputed."""

    def __init__(self, elements, generators, degree: int):
        elements = tuple(sorted(elements))
        self.degree = degree
        self.elements = elements
        self.generators = tuple(generators)
        self._members = frozenset(elements)
        self.element_order, self.orbit_gcd = {}, {}
        for g in elements:
            sizes = g.cycle_lengths()
            self.element_order[g] = math.lcm(*sizes)
            self.orbit_gcd[g] = math.gcd(*sizes)

    @classmethod
    def generate(cls, generators, degree: int | None = None,
                 cap: int = DEFAULT_CLOSURE_CAP) -> "PermGroup":
        """Breadth-first closure of the generators; rejects non-transitive results."""
        generators = list(generators)
        if not generators:
            raise ParseError("no generators")
        if degree is None:
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        identity = Permutation.identity(degree)
        seen = {identity}
        frontier = [identity]
        while frontier:
            new = []
            for g in frontier:
                for s in generators:
                    h = s * g
                    if h not in seen:
                        seen.add(h)
                        new.append(h)
                        if len(seen) > cap:
                            raise CapExceeded(f"closure exceeds {cap} elements")
            frontier = new
        group = cls(seen, generators, degree)
        if not group.is_transitive():
            raise NonTransitive(f"orbit of 1 has size {len(group._orbit(1, Permutation.apply))}, "
                                f"degree {degree}")
        return group

    def _orbit(self, start, act) -> set:
        """Orbit of start under the generators s, each acting as x -> act(s, x)."""
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for s in self.generators:
                y = act(s, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return orbit

    def is_transitive(self) -> bool:
        return len(self._orbit(1, Permutation.apply)) == self.degree

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, g: Permutation) -> bool:
        return g in self._members

    def __iter__(self):
        return iter(self.elements)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def class_size(self, g: Permutation) -> int:
        """Size of g's conjugacy class: its orbit under conjugation by the generators."""
        return len(self._orbit(g, lambda s, h: s * h * s.inverse()))

    def q_rank(self) -> dict[int, int]:
        """q-rank of an abelian group for every prime q dividing its order."""
        if not self.is_abelian():
            raise NotAbelian("q_rank needs an abelian group")
        ranks = {}
        for q in prime_factors(self.order):
            torsion = sum(1 for g in self.elements if self.element_order[g] in (1, q))
            rank = 0
            while q ** (rank + 1) <= torsion:
                rank += 1
            assert q ** rank == torsion, "q-torsion count must be a power of q"
            ranks[q] = rank
        return ranks


def omega_set(group: PermGroup, q: int, l) -> frozenset[Permutation]:
    """Omega(G, q^l): elements whose e(sigma) has q-adic valuation exactly l.

    ``l`` may be ``math.inf`` for the union over all l >= 1.
    """
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if l is not math.inf and (not isinstance(l, int) or l < 1):
        raise ValueError(f"l must be a positive integer or inf, got {l!r}")
    members = []
    for g in group.elements:
        v = valuation(group.orbit_gcd[g], q)
        if (v >= 1) if l is math.inf else (v == l):
            members.append(g)
    omega = frozenset(members)
    assert group.identity not in omega
    assert closed_under_invertible_powering(group, omega)
    assert closed_under_conjugation(group, omega)
    return omega


def non_random_primes(group: PermGroup) -> set[int]:
    """Primes q with q | e(sigma) for some element sigma."""
    primes: set[int] = set()
    for g in group.elements:
        primes.update(prime_factors(group.orbit_gcd[g]))
    assert all(group.order % q == 0 for q in primes)
    return primes


def closed_under_invertible_powering(group: PermGroup, omega) -> bool:
    """True iff g^a stays in omega for every g in omega and a coprime to ord(g)."""
    omega = frozenset(omega)
    if not omega <= group._members:
        raise NotSubset("omega is not a subset of the group")
    for g in omega:
        gamma = group.element_order[g]
        power = g
        for a in range(1, gamma):
            if math.gcd(a, gamma) == 1 and power not in omega:
                return False
            power = power * g
    return True


def closed_under_conjugation(group: PermGroup, omega) -> bool:
    omega = frozenset(omega)
    if not omega <= group._members:
        raise NotSubset("omega is not a subset of the group")
    return all(s * g * s.inverse() in omega for g in omega for s in group.generators)


def weighted_beta(group: PermGroup, omega, weight) -> int:
    """Sum of weight(h)/phi(ord(h)) over non-identity h in omega; NotClosed unless integral."""
    total = Fraction(0)
    for h in omega:
        if not h.is_identity():
            total += Fraction(weight(h), euler_phi(group.element_order[h]))
    if total.denominator != 1:
        raise NotClosed(f"weight sum {total} is not an integer")
    return int(total)


def beta(group: PermGroup, omega) -> int:
    """Sum of 1/phi(ord(h)) over non-identity h in omega (an integer when closed)."""
    if not group.is_abelian():
        raise NotAbelian("beta is defined for abelian groups")
    if not closed_under_invertible_powering(group, omega):
        raise NotClosed("omega is not closed under invertible powering")
    return weighted_beta(group, omega, lambda h: 1)


class DihedralStructure:
    """G = H semidirect F with every nontrivial f in F inverting H.

    Abelian groups are the degenerate case F = {id}.  The decomposition is
    checked exhaustively at construction.
    """

    def __init__(self, group: PermGroup, H, F):
        H = frozenset(H)
        F = frozenset(F)
        if not (H <= group._members and F <= group._members):
            raise NotSubset("H and F must lie inside the group")
        identity = group.identity
        if identity not in H or identity not in F:
            raise ValueError("H and F must contain the identity")
        if len(H) * len(F) != group.order or (H & F) != {identity}:
            raise ValueError("H, F do not decompose the group")
        if len({h * f for h in H for f in F}) != group.order:
            raise ValueError("products h*f do not exhaust the group")
        for a in H:
            for b in H:
                if a * b not in H or a * b != b * a:
                    raise NotAbelian("H must be an abelian subgroup")
        for a in F:
            for b in F:
                if a * b not in F or a * b != b * a:
                    raise NotAbelian("F must be an abelian subgroup")
        for f in F:
            if f.is_identity():
                continue
            for h in H:
                if f * h * f.inverse() != h.inverse():
                    raise ValueError("F does not invert H")
        self.group = group
        self.H = H
        self.F = F

    @property
    def f_trivial(self) -> bool:
        return len(self.F) == 1


def beta_F(structure: DihedralStructure, omega) -> int:
    """Conjugacy-weighted beta over a subset of H (integer when closed)."""
    omega = frozenset(omega)
    if not omega <= structure.H:
        raise NotInH("omega must be a subset of H")
    group = structure.group
    if not closed_under_invertible_powering(group, omega):
        raise NotClosed("omega is not closed under invertible powering")
    if not closed_under_conjugation(group, omega):
        raise NotClosed("omega is not closed under conjugation")
    return weighted_beta(group, omega, group.class_size)


def h_p(structure: DihedralStructure, p: int, subset) -> int:
    """Count non-identity h in the subset of H with p = +-1 mod ord(h).

    Only the +1 congruence counts when F is trivial.
    """
    count = 0
    for h in subset:
        if h.is_identity():
            continue
        gamma = structure.group.element_order[h]
        if p % gamma == 1 % gamma:
            count += 1
        elif not structure.f_trivial and p % gamma == (-1) % gamma:
            count += 1
    return count


# -- spec-string construction -------------------------------------------------

_PRODUCT_RE = re.compile(r"C\d+(?:xC\d+)*")
_SYM_RE = re.compile(r"^S(\d+)$")
_DIH_RE = re.compile(r"^D(\d+)@(S(\d+)|reg)$")


def cyclic_factors(text: str) -> list[int] | None:
    """The factors m, n, ... of a spec ``Cm`` or ``CmxCn...``; None for any other spec."""
    if not _PRODUCT_RE.fullmatch(text):
        return None
    factors = [int(part[1:]) for part in text.split("x")]
    if any(f < 2 for f in factors):
        raise UnknownSpec(f"cyclic factors must be >= 2: {text!r}")
    return factors


def _regular_abelian(factors: list[int], cap: int) -> PermGroup:
    order = math.prod(factors)
    if order > cap:
        raise CapExceeded(f"group order {order} exceeds cap {cap}")
    points = list(_iproduct(*(range(m) for m in factors)))
    index = {t: i + 1 for i, t in enumerate(points)}
    gens = []
    for i, m in enumerate(factors):
        images = []
        for t in points:
            shifted = list(t)
            shifted[i] = (shifted[i] + 1) % m
            images.append(index[tuple(shifted)])
        gens.append(Permutation(images))
    return PermGroup.generate(gens, degree=order, cap=cap)


def _dihedral_natural(n: int, cap: int) -> DihedralStructure:
    sigma = Permutation([i % n + 1 for i in range(1, n + 1)])
    # reflection fixing the point n (for n = 4 this is the pinned tau = (1 3))
    tau = Permutation([((n - 1 - i) % n) + 1 for i in range(1, n + 1)])
    group = PermGroup.generate([sigma, tau], degree=n, cap=cap)
    H = frozenset(sigma ** k for k in range(n))
    F = frozenset([group.identity, tau])
    return DihedralStructure(group, H, F)


def _dihedral_regular(n: int, cap: int) -> DihedralStructure:
    # points 1..2n stand for s^i t^eps with i in 0..n-1, eps in {0, 1}
    def idx(i, eps):
        return i % n + eps * n + 1

    s_images = [0] * (2 * n)
    t_images = [0] * (2 * n)
    for i in range(n):
        for eps in (0, 1):
            s_images[idx(i, eps) - 1] = idx(i + 1, eps)
            t_images[idx(i, eps) - 1] = idx(-i, 1 - eps)
    s = Permutation(s_images)
    t = Permutation(t_images)
    group = PermGroup.generate([s, t], degree=2 * n, cap=cap)
    H = frozenset(s ** k for k in range(n))
    F = frozenset([group.identity, t])
    return DihedralStructure(group, H, F)


def parse_group_spec(text: str, cap: int = DEFAULT_CLOSURE_CAP):
    """Build the group named by a spec string.

    Grammar: ``Cm`` and products ``C2xC4`` (regular action), ``Sn`` (natural
    action), ``Dn@Sn`` (degree-n dihedral), ``Dn@reg`` (regular dihedral),
    and the fixed embedding ``A4@S6``.  Dihedral specs return a
    DihedralStructure; everything else returns a PermGroup.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty group spec")
    if text == "A4@S6":
        # degree-6 action of A4 with point stabilizer of order 2; the image of
        # (12)(34) fixes two points, the image of (123) is a pair of 3-cycles
        a = Permutation.from_cycles([[3, 6], [4, 5]], 6)
        b = Permutation.from_cycles([[1, 3, 4], [2, 6, 5]], 6)
        return PermGroup.generate([a, b], degree=6, cap=cap)
    factors = cyclic_factors(text)
    if factors is not None:
        return _regular_abelian(factors, cap)
    m = _SYM_RE.match(text)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise UnknownSpec(f"symmetric group degree must be >= 2: {text!r}")
        if math.factorial(n) > cap:
            raise CapExceeded(f"|S{n}| = {math.factorial(n)} exceeds cap {cap}")
        gens = [Permutation([i % n + 1 for i in range(1, n + 1)])]
        if n > 2:
            gens.append(Permutation.from_cycles([[1, 2]], n))
        return PermGroup.generate(gens, degree=n, cap=cap)
    m = _DIH_RE.match(text)
    if m:
        n = int(m.group(1))
        if n < 3:
            raise UnknownSpec(f"dihedral spec needs n >= 3: {text!r}")
        if m.group(2) == "reg":
            return _dihedral_regular(n, cap)
        if int(m.group(3)) != n:
            raise UnknownSpec(f"dihedral natural action must be Dn@Sn: {text!r}")
        return _dihedral_natural(n, cap)
    raise ParseError(f"unrecognized group spec: {text!r}")
