"""Exact enumeration of abelian extensions of Q ordered by product of ramified primes.

The count of pairs (K, psi) with Galois group G and radical n equals the
number of surjections from the product of local unit groups onto G whose
ramified support multiplies to n.  Local budgets are tabulated per prime
(tame: one map per element of order dividing p-1; wild: tame character times
a map from the pro-p line), and joint surjectivity is enforced by Moebius
inversion over the subgroup lattice.  Subgroups with the same local data are
merged into one term, and the counter sieves the primes once and walks the
squarefree supports once for all terms; enumerate_records and
brute_force_total are the slow, independent checks of that walk.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

import numpy as np

from .arith import invariant_factors, prime_factors, sieve_primes, valuation
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
        factors = invariant_factors(orders)
        if math.prod(factors) > order_cap:
            raise CapExceeded(f"group order {math.prod(factors)} exceeds cap {order_cap}")
        object.__setattr__(self, "invariant_factors", factors)

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

    def span(self, gens) -> frozenset[Element]:
        out = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = self.add(a, g)
                if b not in out:
                    out.add(b)
                    frontier.append(b)
        return frozenset(out)

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


def subgroup_moebius(group: AbelianGroupSpec) -> SubgroupLattice:
    """All subgroups of G with the Moebius function mu(H, G) of the lattice."""
    full = frozenset(group.elements())
    subgroups = {frozenset([group.identity]), full}
    subgroups |= {group.cyclic_subgroup(g) for g in group.elements()}
    changed = True
    while changed:
        changed = False
        current = list(subgroups)
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                if a <= b or b <= a:
                    continue
                join = group.span(a | b)
                if join not in subgroups:
                    subgroups.add(join)
                    changed = True
    # mu(G,G) = 1 and sum over H <= K <= G of mu(K,G) = 0, solved top-down
    ordered = sorted(subgroups, key=lambda s: (-len(s), sorted(s)))
    moebius: dict = {}
    for h in ordered:
        if h == full:
            moebius[h] = 1
        else:
            moebius[h] = -sum(mu for k, mu in moebius.items() if h < k)
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
            image = group.span([t, u])
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
        return 10 ** 7
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
    mu, and each support adds the sum over terms.  Only primes p with
    p * p < x can be extended, so they alone make up the walk; every prime
    that can only close a support is counted in bulk per residue class.
    """
    n_ck = len(checkpoints)
    xmax = checkpoints[-1]
    root_break = math.isqrt(xmax - 1) + 1  # the least p with p * p >= xmax
    universe = []  # (p, per-term wild weights, None) or (p, None, per-term (hit, miss))
    for column in zip(*(wild for _, wild, _ in setups)):
        p, ws = column[0][0], tuple(w for _, w in column)
        if any(ws) and p < xmax:
            universe.append((p, ws, None))
    class_lists = []
    for c in sorted(set().union(*(class_ab for _, _, class_ab in setups))):
        ab = tuple(class_ab.get(c, (0, 0)) for _, _, class_ab in setups)
        plist = class_primes[c]
        universe.extend((p, None, ab) for p in plist[:bisect_left(plist, root_break)])
        class_lists.append((plist, ab))
    universe.sort(key=lambda entry: entry[0])
    wild_entries = [(idx, p, ws) for idx, (p, ws, _) in enumerate(universe) if ws]
    rows = r_max + 2
    # a hit moves a support one row up; the spill row absorbs every r > r_max
    up = list(range(1, rows)) + [rows - 1]
    bucket = [[0] * n_ck for _ in range(rows)]

    def step(weights, ws, ab):
        """The live terms' rows after one more prime: wild weights or tame (hit, miss)."""
        if ws:
            return [(t, [x * ws[t] for x in row]) for t, row in weights if ws[t]]
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
        i = start
        while i < len(universe):
            p, ws, ab = universe[i]
            if prod * p >= xmax or (ab and prod * p * p >= xmax):
                break
            new = step(weights, ws, ab)
            if new:
                dfs(i + 1, prod * p, new)
            i += 1
        # bulk zone: no prime from v_break on can be extended further; the
        # class primes left out of the universe start at root_break
        v_break = min(universe[i][0], root_break) if i < len(universe) else root_break
        for idx, p, ws in wild_entries:
            if idx >= i and prod * p < xmax:
                k = bisect_right(checkpoints, prod * p)
                if k < n_ck:
                    deposit(k, step(weights, ws, None))
        for plist, ab in class_lists:
            prev = bisect_left(plist, v_break)
            stepped = None
            for k in range(n_ck):
                hi = bisect_right(plist, (checkpoints[k] - 1) // prod, lo=prev)
                if hi > prev:
                    stepped = stepped or step(weights, None, ab)
                    deposit(k, stepped, hi - prev)
                prev = hi

    first = [0] * (rows - 1)
    dfs(0, 1, [(t, [mu] + first) for t, (mu, _, _) in enumerate(setups)])
    for row in bucket:
        acc = 0
        for k in range(n_ck):
            acc += row[k]
            row[k] = acc
    return bucket


def _build_setups(group, omega, semantics):
    """Moebius terms (mu, wild weights, per-class hit/miss counts) of the lattice.

    Subgroups with the same local data count the same supports, so their
    terms are merged by adding mu; merged terms with mu = 0 are dropped.
    """
    lattice = subgroup_moebius(group)
    exponent = group.exponent
    wild_primes = prime_factors(group.order)
    wild_budgets = {p: wild_local_budget(p, group) for p in wild_primes}
    merged: dict = {}
    for H in lattice.subgroups:
        mu = lattice.moebius[H]
        if mu == 0:
            continue
        wild = tuple((p, sum(cnt for img, cnt in wild_budgets[p].maps() if img <= H) - 1)
                     for p in wild_primes)
        members = [(group.element_order(g), _hit(group, g, omega, semantics))
                   for g in H if g != group.identity]
        class_ab = []
        for c in range(1, exponent + 1):
            if math.gcd(c, exponent) != 1:
                continue
            a = sum(1 for gamma, hit in members if (c - 1) % gamma == 0 and hit)
            b = sum(1 for gamma, hit in members if (c - 1) % gamma == 0 and not hit)
            if a + b:
                class_ab.append((c, (a, b)))
        key = (wild, tuple(class_ab))
        merged[key] = merged.get(key, 0) + mu
    return [(mu, wild, dict(class_ab)) for (wild, class_ab), mu in merged.items() if mu]


def _class_prime_lists(setups, exponent, xmax):
    """Primes below xmax by the residue classes mod the exponent that the terms use.

    A wild prime divides the exponent, so it lies in no class prime to it.
    """
    primes = sieve_primes(xmax)
    residues = primes % exponent
    used = set().union(*(class_ab for _, _, class_ab in setups))
    return {c: primes[residues == c].tolist() for c in used}


def count_stratified(group: AbelianGroupSpec, omega, checkpoints, r_max: int,
                     semantics: str = "subgroup_meets_omega",
                     cap: int | None = None) -> list[list[int]]:
    """N(S(G), P; (Omega, r); x) for r = 0..r_max at each checkpoint (pair counts).

    Row r holds the counts for r = 0..r_max; one more row, index r_max + 1,
    holds every pair with more than r_max primes meeting Omega.  Each column
    therefore sums to the empty-Omega total N(S(G), P; x), from the same pass.
    The primes are sieved once and every Moebius term is counted in one
    support walk.
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

    records: list[FieldCountRecord] = []

    def weights_at(H, p):
        """(hit, miss) counts of nontrivial maps at p with image inside H."""
        budget = budgets[p]
        if budget.wild:
            inside = sum(cnt for img, cnt in budget.maps() if img <= H) - 1
            return 0, inside
        hits = misses = 0
        for g in H:
            if g == group.identity or (p - 1) % group.element_order(g) != 0:
                continue
            if _hit(group, g, omega, semantics):
                hits += 1
            else:
                misses += 1
        return hits, misses

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
                       cap: int | None = None, records: bool = False):
    """N(S(G), P; (Omega, r); x): exact pair count below x.

    With ``records=True``, returns the per-radical FieldCountRecord list
    restricted to the requested r instead of the aggregate.
    """
    if records:
        recs = enumerate_records(group, omega, x, semantics, cap)
        return [rec for rec in recs if rec.r == r]
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

    joins: dict = {}

    def join(a, b):
        key = (a, b)
        found = joins.get(key)
        if found is None:
            found = group.span(a | b)
            joins[key] = found
        return found

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
