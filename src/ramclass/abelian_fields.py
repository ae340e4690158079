"""Exact enumeration of abelian extensions of Q ordered by product of ramified primes.

The count of pairs (K, psi) with Galois group G and radical n equals the
number of surjections from the product of local unit groups onto G whose
ramified support multiplies to n.  Local budgets are tabulated per prime
(tame: one map per element of order dividing p-1; wild: tame character times
a map from the pro-p line), and joint surjectivity is enforced by Moebius
inversion over the subgroup lattice.  Subgroups with the same local data are
merged into one term, and the counter walks the squarefree supports once for
all terms.  Primes enter by residue class mod the exponent e: the walk's
primes, those below sqrt(x), come from one sieve to sqrt(x), and every
larger prime is only counted, from one table of pi(y; e, c) at the floor
values y of x - 1 per checkpoint (arith.prime_counts_mod), so memory is
O(phi(e) sqrt(x)).  A wild prime p divides e, so it is the only prime of its
class p mod e and needs no path of its own.  enumerate_records and
brute_force_total sieve every integer below x; they are the slow, independent
checks of that walk.  The
lattice is listed by joining cyclic subgroups, its Moebius function comes
from P. Hall's closed form for abelian groups, and it is built once per group.
"""

from __future__ import annotations

import functools
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product as _iproduct

import numpy as np

from .arith import (euler_phi, invariant_factors, prime_counts_mod, prime_factors, sieve_primes,
                    valuation)
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

    def __init__(self, cyclic_orders, order_cap: int = DEFAULT_ORDER_CAP):
        orders = list(cyclic_orders)
        if not orders or any(d < 2 for d in orders):
            raise ValueError(f"cyclic orders must be >= 2, got {cyclic_orders!r}")
        if math.prod(orders) > order_cap:  # before factoring a huge order
            raise CapExceeded(f"group order {math.prod(orders)} exceeds cap {order_cap}")
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

    def is_closed_under_invertible_powering(self, omega) -> bool:
        omega = frozenset(omega)
        for g in omega:
            gamma = self.element_order(g)
            for a in range(2, gamma):
                if math.gcd(a, gamma) == 1:
                    powered = tuple((x * a) % d for x, d in zip(g, self.invariant_factors))
                    if powered not in omega:
                        return False
        return True


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


def _check_omega(group: AbelianGroupSpec, omega) -> frozenset[Element]:
    omega = frozenset(omega)
    if group.identity in omega:
        raise NotClosed("omega must not contain the identity")
    if not omega <= set(group.elements()):
        raise NotClosed("omega contains elements outside the group")
    if not group.is_closed_under_invertible_powering(omega):
        raise NotClosed("omega is not closed under invertible powering")
    return omega


def _hit(group: AbelianGroupSpec, g: Element, omega, semantics: str) -> bool:
    if semantics == "generator_in_omega":
        return g in omega
    return bool(group.cyclic_subgroup(g) & omega)


def _setup_counts(checkpoints, r_max, setups, class_primes):
    """Cumulative per-(r, checkpoint) pair counts, summed over the Moebius terms.

    Rows r = 0..r_max, then one spill row for every r > r_max, so the column
    sums are the count with the indicator ignored.  One depth-first walk over
    squarefree supports in ascending prime order serves every term: a node
    carries one weight row per term still alive on it, starting at the term's
    mu, and each support adds the sum over terms.  Every prime, wild ones
    included (each is alone in its class), enters through its residue class.
    Only primes p with p * p < x can be extended, so they alone make up the
    walk; every prime that can only close a support is counted in bulk per
    class, and a support has at most one prime >= sqrt(x), so none is counted
    twice.  A bulk count reads pi(y; e, c) at y = (x - 1) // prod: below the
    root of the largest checkpoint by bisecting the class primes, and from
    there on in the floor-value table of x - 1, one per distinct checkpoint.
    A wild prime's class is always bisected.
    """
    n_ck = len(checkpoints)
    xmax = checkpoints[-1]
    root_break = math.isqrt(xmax - 1) + 1  # the least p with p * p >= xmax
    # a y >= root_break is (x - 1) // prod for some prod <= sqrt(x - 1), so it
    # is the table entry (x - 1) // y - 1
    tables = {x: prime_counts_mod(x - 1, class_primes.exponent)
              for x in set(checkpoints) if x - 1 >= root_break}
    universe = []  # (p, index into class_lists) for the class primes below root_break
    class_lists = []  # (primes, top, per-checkpoint table or None, per-term (hit, miss))
    for j, c in enumerate(sorted(set().union(*(class_ab for _, class_ab in setups)))):
        ab = tuple(class_ab.get(c, (0, 0)) for _, class_ab in setups)
        primes = class_primes[c]
        universe.extend((p, j) for p in primes[:np.searchsorted(primes, root_break)].tolist())
        counts = [tables.get(x, {}).get(c) for x in checkpoints]
        top = int(primes[-1]) if len(primes) else 0  # the largest prime a count can reach
        if any(table is not None for table in counts):
            top = xmax  # the tables reach past the class primes
        class_lists.append((primes.tolist(), top, counts, ab))
    universe.sort(key=lambda entry: entry[0])
    n_universe, n_classes = len(universe), len(class_lists)
    rows = r_max + 2
    # a hit moves a support one row up; the spill row absorbs every r > r_max
    up = list(range(1, rows)) + [rows - 1]
    bucket = [[0] * n_ck for _ in range(rows)]

    def step(weights, ab):
        """The live terms' rows after one more prime of (hit, miss) counts ab."""
        out = []
        for t, row in weights:
            a, b = ab[t]
            if a or b:
                new = [x * b for x in row]
                if a:
                    for r, x in enumerate(row):
                        new[up[r]] += x * a
                out.append((t, new))
        return out

    def deposit(k, weights, scale=1):
        for _, row in weights:
            for r, x in enumerate(row):
                bucket[r][k] += x * scale

    def dfs(start, prod, weights):
        k = bisect_right(checkpoints, prod)
        if k < n_ck:
            deposit(k, weights)
        # the rows after one more prime, by class: the same for every prime of it
        stepped = [None] * n_classes
        i = start
        while i < n_universe:
            p, j = universe[i]
            if prod * p * p >= xmax:
                break
            new = stepped[j]
            if new is None:
                new = stepped[j] = step(weights, class_lists[j][3])
            if new:
                dfs(i + 1, prod * p, new)
            i += 1
        # bulk zone: no prime from v_break on can be extended further; the
        # class primes left out of the universe start at root_break
        v_break = universe[i][0] if i < n_universe else root_break
        # the checkpoints from k0 on have (x - 1) // prod >= v_break
        k0 = bisect_right(checkpoints, v_break * prod)
        if k0 == n_ck:
            return
        ys = [(x - 1) // prod for x in checkpoints[k0:]]
        for j, (primes, top, counts, ab) in enumerate(class_lists):
            if top < v_break:
                continue
            prev = bisect_left(primes, v_break)
            for k, y in enumerate(ys, k0):
                table = counts[k]
                # Python ints: the mu-weighted rows may pass the int64 range
                hi = (bisect_right(primes, y) if y < root_break or table is None
                      else table.item((checkpoints[k] - 1) // y - 1))
                if hi > prev:
                    if stepped[j] is None:
                        stepped[j] = step(weights, ab)
                    deposit(k, stepped[j], hi - prev)
                    prev = hi

    first = [0] * (rows - 1)
    dfs(0, 1, [(t, [mu] + first) for t, (mu, _) in enumerate(setups)])
    return [list(accumulate(row)) for row in bucket]


def _build_setups(group, omega, semantics):
    """Moebius terms (mu, per-class hit/miss counts) of the lattice.

    Classes are residues mod the exponent e.  A wild prime p divides e, so it
    is the only prime of its class p mod e; its local map is a pair (t, u)
    with ord(t) | p - 1 (2 at p = 2) and ord(u) a power of p, whose image
    <t, u> lies in H exactly when t and u do, so the class counts no hit and
    the product of the two counts in H, less the trivial map, as misses.
    Subgroups with the same local data count the same supports, so their
    terms are merged by adding mu; merged terms with mu = 0 are dropped.
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
    return [(mu, dict(class_ab)) for class_ab, mu in merged.items() if mu]


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class _ClassPrimes(dict):
    """Sorted prime arrays by residue class mod ``exponent``: the primes below
    the root of the largest checkpoint, and a wild prime whatever its size."""

    def __init__(self, exponent: int, classes: dict):
        super().__init__(classes)
        self.exponent = exponent


def _class_prime_lists(setups, exponent, xmax):
    """The primes below sqrt(xmax) by the residue classes mod the exponent that
    the terms use; a wild prime's class holds that prime alone."""
    primes = sieve_primes(math.isqrt(xmax - 1) + 1)
    residues = primes % exponent
    wild = {p % exponent: p for p in prime_factors(exponent)}
    used = set().union(*(class_ab for _, class_ab in setups))
    return _ClassPrimes(exponent, {c: np.array([wild[c]], dtype=np.int64) if c in wild
                                   else primes[residues == c] for c in used})


def _memory_needed(checkpoints, exponent) -> int:
    """Bytes that count_stratified allocates at its peak, an upper bound.

    The sieve below sqrt(xmax) (a flag byte per n, and an int64 per prime in
    the sieve, the class arrays and their residues, with under 200 bytes per
    prime for the walk's Python lists), as pi(s) < 1.26 s / log s (Rosser and
    Schoenfeld); then phi(e) int64 tables of under 2 sqrt(x) + 1 entries per
    distinct checkpoint x, and the build's temporaries: 2 phi(e) + 6 more
    such rows for the largest table.  Only what grows with x is counted; the
    subgroup lattice and the walk's weight rows stay a few MB below order 64.
    """
    s = math.isqrt(checkpoints[-1] - 1) + 1
    primes = int(1.26 * s / math.log(max(s, 3))) + 1
    phi = euler_phi(exponent)
    rows = [2 * math.isqrt(x) + 1 for x in set(checkpoints)]
    return s + 224 * primes + 8 * (phi * sum(rows) + (2 * phi + 6) * max(rows))


def count_stratified(group: AbelianGroupSpec, omega, checkpoints, r_max: int,
                     semantics: str = "subgroup_meets_omega",
                     cap: int | None = None) -> list[list[int]]:
    """N(S(G), P; (Omega, r); x) for r = 0..r_max at each checkpoint (pair counts).

    Row r holds the counts for r = 0..r_max; one more row, index r_max + 1,
    holds every pair with more than r_max primes meeting Omega.  Each column
    therefore sums to the empty-Omega total N(S(G), P; x), from the same pass.
    The primes below sqrt(max x) are sieved once, the larger ones are counted
    from one floor-value table per checkpoint, and every Moebius term is
    counted in one support walk.  Before anything is allocated, x > 2^63 and
    an estimated peak above physical memory raise CapExceeded.
    """
    omega = _check_omega(group, omega)
    if semantics not in ("subgroup_meets_omega", "generator_in_omega"):
        raise ValueError(f"unknown semantics {semantics!r}")
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
    need, have = _memory_needed(checkpoints, group.exponent), _physical_memory()
    if need > have:
        raise CapExceeded(f"x = {xmax} needs {need / 2 ** 30:.1f} GiB of prime tables, "
                          f"more than the {have / 2 ** 30:.1f} GiB of physical memory")

    setups = _build_setups(group, omega, semantics)
    class_primes = _class_prime_lists(setups, group.exponent, xmax)
    return _setup_counts(checkpoints, r_max, setups, class_primes)


def enumerate_records(group: AbelianGroupSpec, omega, x: int,
                      semantics: str = "subgroup_meets_omega",
                      cap: int | None = None) -> list[FieldCountRecord]:
    """Per-radical pair counts, Moebius-inverted support by support.

    Exact but linear in the number of squarefree supports below x; meant for
    small x and for cross-checking the stratified counter.
    """
    omega = _check_omega(group, omega)
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
