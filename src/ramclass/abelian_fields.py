"""Exact enumeration of abelian extensions of Q ordered by product of ramified primes.

The count of pairs (K, psi) with Galois group G and radical n equals the
number of surjections from the product of local unit groups onto G whose
ramified support multiplies to n.  Local budgets are tabulated per prime
(tame: one map per element of order dividing p-1; wild: tame character times
a map from the pro-p line), and joint surjectivity is enforced by Moebius
inversion over the subgroup lattice.  Subgroups with the same local data are
merged into one term.  Primes enter by residue class mod the exponent e.
Each distinct checkpoint x is counted by one recursion over the floor values
v of x - 1, the second phase of the Min_25 sieve: it starts from the tables
of pi(v; e, c) (arith.prime_counts_mod, Lucy's form of Legendre's sieve, as
in Deleglise and Rivat, Math. Comp. 65, 1996) and adds the supports by
their least prime, over the primes below sqrt(x), sieved once for all
checkpoints; memory is O((phi(e) + r) sqrt(x)).  In both recursions the
primes above the cube root of x - 1 read only entries none of them writes,
so they go at once, in chunks from arith.bulk_pairs; the others one by one.
A wild prime p divides e, so it is the only prime of its class p mod e and
enters as [v >= p].
enumerate_records and brute_force_total sieve every integer below x; they
are the slow, independent checks of that recursion.  The lattice is listed
by joining cyclic subgroups, its Moebius function comes from P. Hall's
closed form for abelian groups, and it is built once per group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

import numpy as np

from . import arith
from .arith import (BLOCK, SIEVE_WINDOW, bulk_pairs, cube_root, euler_phi, floor_index,
                    floor_values, invariant_factors, prime_counts_mod, prime_factors,
                    sieve_primes, valuation)
from .arith import physical_memory as _physical_memory  # a module name tests can replace
from .errors import CapExceeded, EmptyRange, NotClosed, TamePrime, WildPrime

DEFAULT_ORDER_CAP = 64
RECORD_MODE_CAP = 10 ** 6

Element = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroupSpec:
    """A finite abelian group in invariant-factor form.

    Construct with any list of cyclic orders; the canonical chain
    d1 | d2 | ... | dk is derived.  Elements are coordinate tuples.
    """

    invariant_factors: tuple[int, ...]

    def __init__(self, cyclic_orders):
        orders = list(cyclic_orders)
        if not orders or any(d < 2 for d in orders):
            raise ValueError(f"cyclic orders must be >= 2, got {cyclic_orders!r}")
        if math.prod(orders) > DEFAULT_ORDER_CAP:  # before factoring a huge order
            raise CapExceeded(f"group order {math.prod(orders)} exceeds cap {DEFAULT_ORDER_CAP}")
        object.__setattr__(self, "invariant_factors", invariant_factors(orders))

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return max(self.invariant_factors)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.invariant_factors)

    def elements(self) -> list[Element]:
        return list(_iproduct(*(range(d) for d in self.invariant_factors)))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def element_order(self, a: Element) -> int:
        return math.lcm(*(d // math.gcd(d, x) for x, d in zip(a, self.invariant_factors)))

    def cyclic_subgroup(self, g: Element) -> frozenset[Element]:
        out = {self.identity}
        h = g
        while h != self.identity:
            out.add(h)
            h = self.add(h, g)
        return frozenset(out)

    def join(self, a, b) -> frozenset[Element]:
        """The subgroup generated by subgroups a and b: their coset sum a + b."""
        return frozenset(self.add(x, y) for x in a for y in b)

    def omega_subset(self, q: int, l) -> frozenset[Element]:
        """Omega(G, q^l) under the regular action, where e(g) = ord(g)."""
        out = []
        for g in self.elements():
            v = valuation(self.element_order(g), q)
            if (v >= 1) if l is math.inf else (v == l):
                out.append(g)
        return frozenset(out)


@dataclass(frozen=True)
class SubgroupLattice:
    group: AbelianGroupSpec
    subgroups: tuple[frozenset[Element], ...]
    moebius: dict


@functools.cache
def subgroup_moebius(group: AbelianGroupSpec) -> SubgroupLattice:
    """All subgroups of G, largest first, with the Moebius function mu(H, G).

    Every subgroup is a join of cyclic ones, so joining each cyclic subgroup
    into every subgroup found so far lists them all.  By P. Hall's closed form
    for abelian G, mu(H, G) = 0 unless H contains the Frattini subgroup
    rad(|G|) G, and is otherwise the product of (-1)^k p^(k(k-1)/2) over
    p^k || [G : H].  Cached, so each group's lattice is built once.
    """
    subgroups = {frozenset([group.identity])}
    for c in {group.cyclic_subgroup(g) for g in group.elements()}:
        subgroups |= {h if c <= h else group.join(h, c) for h in subgroups}
    rad = math.prod(prime_factors(group.order))
    frattini = {tuple((x * rad) % d for x, d in zip(g, group.invariant_factors))
                for g in group.elements()}
    ordered = sorted(subgroups, key=lambda s: (-len(s), sorted(s)))
    moebius: dict = {}
    for h in ordered:
        index = group.order // len(h)
        ks = [(p, valuation(index, p)) for p in prime_factors(index)]
        moebius[h] = (math.prod((-1) ** k * p ** math.comb(k, 2) for p, k in ks)
                      if frattini <= h else 0)
    return SubgroupLattice(group, tuple(ordered), moebius)


@dataclass(frozen=True)
class LocalHomBudget:
    """Continuous homomorphisms from the local unit group at p into G, by image."""

    p: int
    group: AbelianGroupSpec
    per_image: dict
    total_nontrivial: int
    wild: bool

    def maps(self):
        """(image subgroup, count) pairs, trivial image included."""
        return self.per_image.items()


def tame_local_budget(p: int, group: AbelianGroupSpec) -> LocalHomBudget:
    """Budget at a prime not dividing |G|: one map per g with ord(g) | p - 1."""
    if group.order % p == 0:
        raise WildPrime(f"{p} divides |G| = {group.order}")
    per_image: dict = {}
    total = 0
    for g in group.elements():
        if (p - 1) % group.element_order(g) == 0:
            image = group.cyclic_subgroup(g)
            per_image[image] = per_image.get(image, 0) + 1
            if g != group.identity:
                total += 1
    return LocalHomBudget(p, group, per_image, total, wild=False)


def wild_local_budget(p: int, group: AbelianGroupSpec) -> LocalHomBudget:
    """Budget at p | |G|: pairs (tame character image, pro-p image).

    The local unit group is (cyclic of order p-1) x (pro-p line) for odd p
    and (order 2) x (pro-2 line) for p = 2, so a map is a pair (t, u) with
    ord(t) | p-1 (resp. 2) and u of p-power order; its image is <t, u>.
    """
    if group.order % p != 0:
        raise TamePrime(f"{p} does not divide |G| = {group.order}")
    tame_modulus = p - 1 if p % 2 == 1 else 2
    tame_choices = [g for g in group.elements() if tame_modulus % group.element_order(g) == 0]
    wild_choices = [g for g in group.elements()
                    if set(prime_factors(group.element_order(g))) <= {p}]
    per_image: dict = {}
    total = 0
    for t in tame_choices:
        for u in wild_choices:
            image = group.join(group.cyclic_subgroup(t), group.cyclic_subgroup(u))
            per_image[image] = per_image.get(image, 0) + 1
            if not (t == group.identity and u == group.identity):
                total += 1
    return LocalHomBudget(p, group, per_image, total, wild=True)


def local_budget(p: int, group: AbelianGroupSpec) -> LocalHomBudget:
    if group.order % p == 0:
        return wild_local_budget(p, group)
    return tame_local_budget(p, group)


@dataclass(frozen=True)
class FieldCountRecord:
    """Pairs (K, psi) with radical n and exactly r tame primes meeting Omega."""

    n: int
    r: int
    count: int


def default_cap(group: AbelianGroupSpec) -> int:
    if group.order <= 3:
        return 10 ** 9
    if group.order < 8:
        return 10 ** 6
    return 10 ** 5


def _check_omega(group: AbelianGroupSpec, omega, semantics: str) -> frozenset[Element]:
    """Omega as a frozenset, checked, with the semantics its hits are read by."""
    if semantics not in ("subgroup_meets_omega", "generator_in_omega"):
        raise ValueError(f"unknown semantics {semantics!r}")
    omega = frozenset(omega)
    if group.identity in omega:
        raise NotClosed("omega must not contain the identity")
    if not omega <= set(group.elements()):
        raise NotClosed("omega contains elements outside the group")
    # the invertible powers of g are the elements of <g> of the order of g
    if any(h not in omega for g in omega for h in group.cyclic_subgroup(g)
           if group.element_order(h) == group.element_order(g)):
        raise NotClosed("omega is not closed under invertible powering")
    return omega


def _hit(group: AbelianGroupSpec, g: Element, omega, semantics: str) -> bool:
    if semantics == "generator_in_omega":
        return g in omega
    return bool(group.cyclic_subgroup(g) & omega)


def _checkpoint_counts(x, r_max, setups, exponent, primes, dtype):
    """Pair counts below x by row r = 0..r_max and the spill row, summed over the terms.

    Over the floor values v of n = x - 1, S(v) sums the weight f(m) of every
    support 1 < m <= v, a row polynomial: f(p) = b + a t for a prime p whose
    class has a hits and b misses, where t moves a count one row up and the
    spill row keeps every count that reaches it.  S starts as the prime sums,
    from the pi(v; e, c) table of n, a wild prime p counting [v >= p].  Then
    the primes p <= sqrt(n) add the supports whose least prime is p, from the
    largest p down: S(v) += f(p) (S(v // p) - S(p)) for v >= p * p, since
    S(v // p) - S(p) then sums the supports above 1 of primes > p.  A p with
    p^3 > n reads S at v // p < n^(2/3) and at p, below the square of every
    such prime, where S still holds the prime sums: so these primes go first,
    at once, from bulk_pairs in chunks of BLOCK // rows pairs weighted by
    b + a t of their class (a class with no data weighs 0 and is left out).
    The primes up to the cube root follow, in blocks of BLOCK floor values
    from the largest v down, and each reads S at v // p < v, where no block
    has written yet.  The counts, as Python ints, are sum(mu S(n)); the empty
    support adds sum(mu) = 0, as G != 1.
    """
    n, rows = x - 1, r_max + 2
    column = [0] * rows
    if n < 1:
        return column
    table = prime_counts_mod(n, exponent)
    values = floor_values(n)
    wild = {p % exponent: p for p in prime_factors(exponent)}
    roots = primes[:np.searchsorted(primes, math.isqrt(n), side="right")]
    walk = roots[:np.searchsorted(roots, cube_root(n), side="right")].tolist()[::-1]
    for mu, class_ab in setups:
        S = np.zeros((rows, len(values)), dtype=dtype)
        a_of, b_of = np.zeros((2, exponent), dtype=np.int64)
        for c, (a, b) in class_ab.items():
            primes_to_v = (values >= wild[c] if c in wild else table[c]).astype(dtype, copy=False)
            S[0] += b * primes_to_v
            S[1] += a * primes_to_v
            a_of[c], b_of[c] = a, b
        # the primes above the cube root read only prime sums, so they go first, at once
        for j, p, starts in bulk_pairs(n, roots[(a_of + b_of)[roots % exponent] > 0],
                                       BLOCK // rows):
            d = S[:, floor_index(n, n // ((j + 1) * p))]
            d -= S[:, floor_index(n, p)]
            at = j[starts]
            S[:, at] += np.add.reduceat(d * b_of[p % exponent], starts, axis=1)
            d = np.add.reduceat(d * a_of[p % exponent], starts, axis=1)
            S[1:, at] += d[:-1]
            S[-1, at] += d[-1]
        for p in walk:
            if (ab := class_ab.get(p % exponent)) is None:
                continue
            a, b = ab
            at_p = int(floor_index(n, p))
            top = int(floor_index(n, p * p)) + 1  # the v >= p * p
            for lo in range(0, top, BLOCK):
                q = values[lo:min(lo + BLOCK, top)] // p
                d = S[:, floor_index(n, q)]
                d -= S[:, at_p, None]
                block = S[:, lo:lo + len(q)]
                if b:
                    block += d if b == 1 else b * d
                if a:
                    d *= a
                    block[1:] += d[:-1]
                    block[-1] += d[-1]
        for r in range(rows):
            column[r] += mu * int(S[r, 0])
    return column


def _build_setups(group, omega, semantics):
    """Moebius terms (mu, per-class hit/miss counts) of the lattice.

    Classes are residues mod the exponent e.  A wild prime p divides e, so it
    is the only prime of its class p mod e; its local map is a pair (t, u)
    with ord(t) | p - 1 (2 at p = 2) and ord(u) a power of p, whose image
    <t, u> lies in H exactly when t and u do, so the class counts no hit and
    the product of the two counts in H, less the trivial map, as misses.
    Subgroups with the same local data count the same supports, so their
    terms are merged by adding mu; merged terms with mu = 0 are dropped, and so
    is the term with no class data, the trivial subgroup's, whose counts stay 0.
    """
    lattice = subgroup_moebius(group)
    exponent = group.exponent
    wild = {p % exponent: p for p in prime_factors(exponent)}
    local = {g: (group.element_order(g), _hit(group, g, omega, semantics))
             for g in group.elements() if g != group.identity}
    merged: dict = {}
    for H in lattice.subgroups:
        mu = lattice.moebius[H]
        if mu == 0:
            continue
        members = [local[g] for g in H if g != group.identity]
        orders = [1] + [gamma for gamma, _ in members]
        class_ab = []
        for c in range(exponent):
            if c in wild:
                p = wild[c]
                ab = (0, sum(1 for o in orders if max(p - 1, 2) % o == 0)
                      * sum(1 for o in orders if o == p ** valuation(o, p)) - 1)
            elif math.gcd(c, exponent) == 1:
                ab = (sum(1 for gamma, hit in members if (c - 1) % gamma == 0 and hit),
                      sum(1 for gamma, hit in members if (c - 1) % gamma == 0 and not hit))
            else:
                continue
            if ab != (0, 0):
                class_ab.append((c, ab))
        key = tuple(class_ab)
        merged[key] = merged.get(key, 0) + mu
    return [(mu, dict(class_ab)) for class_ab, mu in merged.items() if mu and class_ab]


def _cell_bound(setups, exponent, xmax) -> int:
    """An upper bound of every cell that _checkpoint_counts holds below xmax.

    A cell sums fewer than xmax supports, each weighted by the product of its
    primes' local map counts: at most 1 + w_p at a wild prime p with w_p
    nontrivial maps, and at most h, the largest count at a tame prime, at each
    of at most k tame primes, k the most primes whose product is below xmax, counted
    over the primes below 64 (their product, 1.2e23, passes every x <= 2^63), taken
    from arith and not through this module's sieve_primes, the sieve below sqrt(xmax).
    """
    wild = {p % exponent for p in prime_factors(exponent)}
    weights = [(c, a + b) for _, class_ab in setups for c, (a, b) in class_ab.items()]
    bound = xmax
    for c in wild:
        bound *= 1 + max((w for d, w in weights if d == c), default=0)
    h = max((w for c, w in weights if c not in wild), default=1)
    k, prod = 0, 1
    for p in arith.sieve_primes(64).tolist():
        prod *= p
        k += prod < xmax
    return bound * h ** k


def _memory_needed(checkpoints, exponent, rows, cell) -> int:
    """Bytes that count_stratified allocates at its peak, an upper bound.

    The sieve below s = sqrt(xmax): its int64 output, as pi(s) < 1.26 s / log s
    (Rosser and Schoenfeld), one window of at most SIEVE_WINDOW flags, each with
    an int64 index, and 128 bytes per base prime up to sqrt(s), in five int64 and
    two bool arrays and two lists of Python ints (their own sieve ends before the
    windows start); then, for the largest checkpoint x, at most 2 sqrt(x) + 1 floor values:
    the phi(e) int64 table of pi(v; e, c), with 2 phi(e) + 6 such rows of
    temporaries while it is built, the floor values and the prime sums that
    start S; S itself, rows by floor values of ``cell`` bytes (8 in int64,
    about 48 as a Python int); and per block, four S-sized rows by BLOCK and
    six int64 index arrays; and one bulk chunk, four arrays of at most BLOCK
    cells and ten int64 per pair, for at most BLOCK // min(rows, phi(e)) pairs
    and below n / a^2 + n / 2a + 1, n = x - 1 and a = cube_root(n) + 1, the
    sum of n // p^2 over the (odd, once n >= 8) primes p >= a.  Only what grows
    with x is counted; the subgroup lattice stays a few MB below order 64.
    """
    s = math.isqrt(checkpoints[-1] - 1) + 1
    primes, base = (int(1.26 * v / math.log(max(v, 3))) + 1 for v in (s, math.isqrt(s)))
    size = 2 * math.isqrt(checkpoints[-1]) + 1
    block = min(size, BLOCK)
    phi, n = euler_phi(exponent), checkpoints[-1] - 1
    a = cube_root(n) + 1
    pairs = min(BLOCK // min(rows, phi), n // a ** 2 + n // (2 * a) + 1)
    return (9 * min(s // 2, SIEVE_WINDOW) + 8 * primes + 128 * base + 8 * (3 * phi + 9) * size
            + cell * rows * (size + 4 * block) + 48 * block
            + 4 * cell * min(max(BLOCK, rows), max(rows, phi) * pairs) + 80 * pairs)


def count_stratified(group: AbelianGroupSpec, omega, checkpoints, r_max: int,
                     semantics: str = "subgroup_meets_omega",
                     cap: int | None = None) -> list[list[int]]:
    """N(S(G), P; (Omega, r); x) for r = 0..r_max at each checkpoint (pair counts).

    Row r holds the counts for r = 0..r_max; one more row, index r_max + 1,
    holds every pair with more than r_max primes meeting Omega.  Each column
    therefore sums to the empty-Omega total N(S(G), P; x), from the same pass.
    The primes below sqrt(max x) are sieved once; each distinct checkpoint is
    counted by one floor-value recursion per Moebius term, in int64 while a
    closed-form bound of every cell stays below 2^63 and in Python ints past
    it.  Before the sieve, x > 2^63 and an estimated peak above physical
    memory raise CapExceeded.
    """
    omega = _check_omega(group, omega, semantics)
    if r_max < 0:
        raise ValueError(f"r_max must be nonnegative, got {r_max}")
    checkpoints = sorted(int(x) for x in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive")
    xmax = checkpoints[-1]
    limit = cap if cap is not None else default_cap(group)
    if xmax > limit:
        raise CapExceeded(f"x = {xmax} exceeds cap {limit}")
    if xmax > 2 ** 63:
        raise CapExceeded(f"x = {xmax} is beyond the int64 prime-count tables (x <= 2^63)")
    setups = _build_setups(group, omega, semantics)
    big = _cell_bound(setups, group.exponent, xmax) >= 2 ** 63
    need = _memory_needed(checkpoints, group.exponent, r_max + 2, 48 if big else 8)
    have = _physical_memory()
    if need > have:
        raise CapExceeded(f"x = {xmax} needs {need / 2 ** 30:.1f} GiB of counting tables, "
                          f"more than the {have / 2 ** 30:.1f} GiB of physical memory")

    primes = sieve_primes(math.isqrt(xmax - 1) + 1)
    columns = {x: _checkpoint_counts(x, r_max, setups, group.exponent, primes,
                                     object if big else np.int64)
               for x in sorted(set(checkpoints))}
    return [[columns[x][r] for x in checkpoints] for r in range(r_max + 2)]


def enumerate_records(group: AbelianGroupSpec, omega, x: int,
                      semantics: str = "subgroup_meets_omega",
                      cap: int | None = None) -> list[FieldCountRecord]:
    """Per-radical pair counts, Moebius-inverted support by support.

    Exact but linear in the number of squarefree supports below x; meant for
    small x and for cross-checking the stratified counter.
    """
    omega = _check_omega(group, omega, semantics)
    limit = min(cap if cap is not None else default_cap(group), RECORD_MODE_CAP)
    if x > limit:
        raise CapExceeded(f"x = {x} exceeds record-mode cap {limit}")
    lattice = subgroup_moebius(group)
    setups = [(H, mu) for H in lattice.subgroups
              if (mu := lattice.moebius[H]) != 0]

    budgets = {}
    admissible = []
    for p in map(int, sieve_primes(x)):
        budget = local_budget(p, group)
        if budget.total_nontrivial > 0:
            budgets[p] = budget
            admissible.append(p)
    local = {g: (group.element_order(g), _hit(group, g, omega, semantics))
             for g in group.elements() if g != group.identity}

    records: list[FieldCountRecord] = []

    def weights_at(H, p):
        """(hit, miss) counts of nontrivial maps at p with image inside H."""
        budget = budgets[p]
        if budget.wild:
            inside = sum(cnt for img, cnt in budget.maps() if img <= H) - 1
            return 0, inside
        hit_flags = [local[g][1] for g in H if g in local and (p - 1) % local[g][0] == 0]
        return sum(hit_flags), len(hit_flags) - sum(hit_flags)

    def count_support(support):
        by_r: dict[int, int] = {}
        for H, mu in setups:
            poly = {0: mu}
            for p in support:
                hits, misses = weights_at(H, p)
                if hits + misses == 0:
                    poly = {}
                    break
                nxt: dict[int, int] = {}
                for r, w in poly.items():
                    if misses:
                        nxt[r] = nxt.get(r, 0) + w * misses
                    if hits:
                        nxt[r + 1] = nxt.get(r + 1, 0) + w * hits
                poly = nxt
            for r, w in poly.items():
                by_r[r] = by_r.get(r, 0) + w
        n = math.prod(support) if support else 1
        for r in sorted(by_r):
            if by_r[r]:
                records.append(FieldCountRecord(n, r, by_r[r]))

    def extend(start, prod, support):
        if support:
            count_support(support)
        for i in range(start, len(admissible)):
            p = admissible[i]
            if prod * p >= x:
                break
            support.append(p)
            extend(i + 1, prod * p, support)
            support.pop()

    extend(0, 1, [])
    records.sort(key=lambda rec: (rec.n, rec.r))
    return records


def automorphism_count(group: AbelianGroupSpec) -> int:
    """|Aut(G)| by counting surjections G -> G over the subgroup lattice."""
    lattice = subgroup_moebius(group)
    total = 0
    for H in lattice.subgroups:
        mu = lattice.moebius[H]
        if mu == 0:
            continue
        orders = [group.element_order(g) for g in H]
        homs = 1
        for d in group.invariant_factors:
            homs *= sum(1 for o in orders if d % o == 0)
        total += mu * homs
    return total


def count_fields_exact(group: AbelianGroupSpec, omega, r: int, x: int,
                       semantics: str = "subgroup_meets_omega",
                       cap: int | None = None) -> int:
    """N(S(G), P; (Omega, r); x): exact pair count below x."""
    return count_stratified(group, omega, [x], r, semantics, cap)[r][0]


def count_fields_total(group: AbelianGroupSpec, x: int, cap: int | None = None,
                       unit: str = "pairs") -> int:
    """Total count below x with the empty-Omega convention (indicator ignored)."""
    total = count_stratified(group, frozenset(), [x], 0, cap=cap)[0][0]
    if unit == "fields":
        aut = automorphism_count(group)
        assert total % aut == 0, "pair count must be divisible by |Aut(G)|"
        return total // aut
    if unit != "pairs":
        raise ValueError(f"unknown unit {unit!r}")
    return total


def ratio_trend(group: AbelianGroupSpec, omega, r: int, checkpoints,
                semantics: str = "subgroup_meets_omega",
                cap: int | None = None) -> list[tuple[int, Fraction]]:
    """(x, N(Omega, r; x) / N_total(x)) per checkpoint; exact rationals."""
    checkpoints = sorted(int(x) for x in checkpoints)
    strat = count_stratified(group, omega, checkpoints, r, semantics, cap)
    totals = [sum(column) for column in zip(*strat)]
    out = []
    for k, x in enumerate(checkpoints):
        if totals[k] == 0:
            raise EmptyRange(f"no fields below {x}")
        out.append((x, Fraction(strat[r][k], totals[k])))
    return out


def brute_force_total(group: AbelianGroupSpec, x: int) -> int:
    """Surjectivity by explicit joint-image check over all local-map tuples.

    Independent of the Moebius sieve: walks every tuple of nontrivial local
    maps on every squarefree support and tests that the joint image is all
    of G.  Joins of subgroups are memoized so each tuple step is a lookup.
    """
    full = frozenset(group.elements())
    budgets = {}
    admissible = []
    for p in map(int, sieve_primes(x)):
        budget = local_budget(p, group)
        if budget.total_nontrivial > 0:
            # one entry per nontrivial map, carrying its image
            images = []
            for img, cnt in budget.maps():
                take = cnt - (1 if img == frozenset([group.identity]) else 0)
                images.extend([img] * take)
            budgets[p] = images
            admissible.append(p)

    join = functools.cache(group.join)

    total = 0

    def tuples(prefix_span, idx):
        nonlocal total
        if idx < 0:
            if prefix_span == full:
                total += 1
            return
        for img in budgets[stack[idx]]:
            tuples(join(prefix_span, img), idx - 1)

    stack: list[int] = []

    def extend(start, prod):
        if stack:
            tuples(frozenset([group.identity]), len(stack) - 1)
        for i in range(start, len(admissible)):
            p = admissible[i]
            if prod * p >= x:
                break
            stack.append(p)
            extend(i + 1, prod * p)
            stack.pop()

    extend(0, 1)
    return total
