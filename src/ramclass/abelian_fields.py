"""Exact enumeration of abelian extensions of Q ordered by product of ramified primes.

The count of pairs (K, psi) with Galois group G and radical n equals the
number of surjections from the product of local unit groups onto G whose
ramified support multiplies to n.  Local budgets are tabulated per prime
(tame: one map per element of order dividing p-1; wild: tame character times
a map from the pro-p line), and joint surjectivity is enforced by Moebius
inversion over the subgroup lattice.
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


def _setup_counts(checkpoints, r_max, wild, class_ab, class_primes):
    """Cumulative per-(r, checkpoint) support counts for one subgroup.

    Rows r = 0..r_max, then one spill row for every r > r_max, so the column
    sums are the count with the indicator ignored.  Enumerates squarefree
    supports depth-first in ascending prime order; any prime that can only
    close a support is counted in bulk per residue class, so the recursion
    visits extensible prefixes only.
    """
    n_ck = len(checkpoints)
    xmax = checkpoints[-1]
    universe = []  # (p, a, b, wild_weight); wild entries have a = b = 0
    for p, w in wild:
        if w > 0 and p < xmax:
            universe.append((p, 0, 0, w))
    for c, (a, b) in class_ab.items():
        universe.extend((p, a, b, 0) for p in class_primes[c])
    universe.sort()
    wild_entries = [(idx, p, w) for idx, (p, _, _, w) in enumerate(universe) if w > 0]
    class_lists = [(class_primes[c], a, b) for c, (a, b) in class_ab.items()]
    rows = r_max + 2
    # a hit moves a support one row up; the spill row absorbs every r > r_max
    up = list(range(1, rows)) + [rows - 1]
    bucket = [[0] * n_ck for _ in range(rows)]

    def record(prod, weights):
        k = bisect_right(checkpoints, prod)
        if k == n_ck:
            return
        for r, w in enumerate(weights):
            if w:
                bucket[r][k] += w

    def dfs(start, prod, weights):
        record(prod, weights)
        i = start
        while i < len(universe):
            p, a, b, w = universe[i]
            if prod * p >= xmax:
                break
            if w > 0:
                dfs(i + 1, prod * p, [x * w for x in weights])
                i += 1
                continue
            if prod * p * p >= xmax:
                break
            new = [0] * rows
            for r, x in enumerate(weights):
                if not x:
                    continue
                if b:
                    new[r] += x * b
                if a:
                    new[up[r]] += x * a
            if any(new):
                dfs(i + 1, prod * p, new)
            i += 1
        if i >= len(universe):
            return
        # bulk zone: no prime from index i on can be extended further
        v_break = universe[i][0]
        for idx, p, w in wild_entries:
            if idx >= i and prod * p < xmax:
                k = bisect_right(checkpoints, prod * p)
                if k < n_ck:
                    for r, x in enumerate(weights):
                        if x:
                            bucket[r][k] += x * w
        for plist, a, b in class_lists:
            lo = bisect_left(plist, v_break)
            if lo >= len(plist):
                continue
            prev = lo
            for k in range(n_ck):
                hi = bisect_right(plist, (checkpoints[k] - 1) // prod, lo=prev)
                cnt = hi - prev
                if cnt:
                    for r, x in enumerate(weights):
                        if not x:
                            continue
                        if b:
                            bucket[r][k] += x * b * cnt
                        if a:
                            bucket[up[r]][k] += x * a * cnt
                prev = hi

    root = [0] * rows
    root[0] = 1
    dfs(0, 1, root)
    for row in bucket:
        acc = 0
        for k in range(n_ck):
            acc += row[k]
            row[k] = acc
    return bucket


def _build_setups(group, omega, semantics):
    """Per-subgroup (mu, wild weights, per-class hit/miss counts)."""
    lattice = subgroup_moebius(group)
    exponent = group.exponent
    wild_primes = prime_factors(group.order)
    wild_budgets = {p: wild_local_budget(p, group) for p in wild_primes}
    setups = []
    for H in lattice.subgroups:
        mu = lattice.moebius[H]
        if mu == 0:
            continue
        wild = []
        for p in wild_primes:
            w = sum(cnt for img, cnt in wild_budgets[p].maps() if img <= H) - 1
            wild.append((p, w))
        members = [(group.element_order(g), _hit(group, g, omega, semantics))
                   for g in H if g != group.identity]
        class_ab = {}
        for c in range(1, exponent + 1):
            if math.gcd(c, exponent) != 1:
                continue
            a = sum(1 for gamma, hit in members if (c - 1) % gamma == 0 and hit)
            b = sum(1 for gamma, hit in members if (c - 1) % gamma == 0 and not hit)
            if a + b:
                class_ab[c] = (a, b)
        setups.append((mu, wild, class_ab))
    return setups


def _class_prime_lists(setups, exponent, wild_primes, xmax):
    primes = sieve_primes(xmax)
    residues = primes % exponent if exponent > 1 else np.ones(len(primes), dtype=np.int64)
    used = set()
    for _, _, class_ab in setups:
        used.update(class_ab)
    wild_set = set(wild_primes)
    return {c: [int(p) for p in primes[residues == (c % exponent)]
                if int(p) not in wild_set]
            for c in used}


def _stratified_worker(payload):
    factors, checkpoints, r_max, wild, class_ab = payload
    group = AbelianGroupSpec(factors)
    class_primes = _class_prime_lists([(1, wild, class_ab)], group.exponent,
                                      [p for p, _ in wild], checkpoints[-1])
    return _setup_counts(checkpoints, r_max, wild, class_ab, class_primes)


def count_stratified(group: AbelianGroupSpec, omega, checkpoints, r_max: int,
                     semantics: str = "subgroup_meets_omega",
                     cap: int | None = None, jobs: int = 1) -> list[list[int]]:
    """N(S(G), P; (Omega, r); x) for r = 0..r_max at each checkpoint (pair counts).

    Row r holds the counts for r = 0..r_max; one more row, index r_max + 1,
    holds every pair with more than r_max primes meeting Omega.  Each column
    therefore sums to the empty-Omega total N(S(G), P; x), from the same pass.
    With jobs > 1 the Moebius terms run in worker processes; the merge is an
    ordered mu-weighted sum, so results are identical to the serial run.
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
    n_ck = len(checkpoints)
    totals = [[0] * n_ck for _ in range(r_max + 2)]

    if jobs > 1 and len(setups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        payloads = [(group.invariant_factors, checkpoints, r_max, wild, class_ab)
                    for _, wild, class_ab in setups]
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            buckets = list(pool.map(_stratified_worker, payloads))
    else:
        class_primes = _class_prime_lists(setups, group.exponent,
                                          prime_factors(group.order), xmax)
        buckets = [_setup_counts(checkpoints, r_max, wild, class_ab, class_primes)
                   for _, wild, class_ab in setups]

    for (mu, _, _), bucket in zip(setups, buckets):
        for row, counts in zip(totals, bucket):
            for k in range(n_ck):
                row[k] += mu * counts[k]
    return totals


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
