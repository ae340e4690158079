"""Finite transitive permutation groups and their ramification invariants.

Everything here is exact integer combinatorics on small groups: element
orders, orbit gcds e(sigma), the Omega(G, q^l) sets, non-random primes,
and the beta exponents that drive the field-counting asymptotics.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import euler_phi, is_prime, prime_factors, unit_generators
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
        bodies = _CYCLE_RE.findall(text)
        if _CYCLE_RE.sub("", text).strip() or not "".join(bodies).strip():
            raise ParseError(f"bad cycle notation: {text!r}")
        try:
            cycles = [[int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
                      for body in bodies]
            if any(len(pts) != len(set(pts)) for pts in cycles):
                raise ParseError(f"repeated point in cycle: {text!r}")
            return cls.from_cycles(cycles, degree)
        except ValueError as exc:  # a point that is no integer, or one outside 1..degree
            raise ParseError(f"bad cycle notation {text!r}: {exc}") from exc

    @classmethod
    def _from_images(cls, images) -> "Permutation":
        """A permutation from images known to be a bijection, without the check."""
        perm = object.__new__(cls)
        perm.images = tuple(images)
        return perm

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
        images = self.images
        seen = bytearray(len(images) + 1)
        out = []
        for start in range(1, len(images) + 1):
            if seen[start]:
                continue
            orbit, pt = [start], images[start - 1]
            while pt != start:
                orbit.append(pt)
                seen[pt] = 1
                pt = images[pt - 1]
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


# entries per block of rows when a pass over the table makes several index-sized temporaries
_BLOCK = 1 << 16


def _keys(rows: np.ndarray) -> np.ndarray:
    """One byte string per row, its entries as big-endian unsigned ints.

    Bytes compare like the rows' tuples, so sorting and searching the keys
    orders and finds the rows.  Big-endian contiguous rows are viewed, not copied.
    """
    wide = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return wide.view(np.dtype((np.void, wide.shape[1] * wide.itemsize))).ravel()


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which keys occur in the sorted keys."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def _blocks(rows: int, width: int):
    """Slices of at most about _BLOCK entries that cover rows of the given width."""
    step = max(1, _BLOCK // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _offsets(rows: np.ndarray) -> np.ndarray:
    """The flat index of each row's first entry, as a column.

    Adding it turns image rows into one index map on all their entries, in which
    composing every row with its partner is a single gather: (a * b)[i] = a[b[i]].
    """
    return np.arange(0, rows.size, max(rows.shape[1], 1), dtype=np.intp)[:, None]


def _power(rows: np.ndarray, k: int) -> np.ndarray:
    """Each image row raised to the power k >= 1, by repeated squaring."""
    offsets = _offsets(rows)
    base, result = (rows + offsets).ravel(), None
    while True:
        if k & 1:
            result = base if result is None else result[base]
        k >>= 1
        if not k:
            return result.reshape(rows.shape) - offsets
        base = base[base]


def _cycle_invariants(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order and e(g) of every row: the lcm and gcd of its cycle lengths.

    Pointer doubling labels each point with the least point of its cycle: after
    t steps label[i] is the least of i, g(i), ..., g^(2^t - 1)(i) and jump is
    g^(2^t).  A bincount of the labels then gives every cycle's length.
    """
    rows, n = table.shape
    orders = np.empty(rows, dtype=np.int64)
    gcds = np.empty(rows, dtype=np.int64)
    for block in _blocks(rows, n):
        chunk = table[block]
        jump = (chunk + _offsets(chunk)).ravel()
        label = np.arange(jump.size, dtype=np.intp)
        reach = 1
        while reach < n:
            np.minimum(label, label[jump], out=label)
            jump = jump[jump]
            reach *= 2
        lengths = np.bincount(label, minlength=label.size)[label].reshape(chunk.shape)
        orders[block] = np.lcm.reduce(lengths, axis=1)
        gcds[block] = np.gcd.reduce(lengths, axis=1)
    return orders, gcds


class PermGroup:
    """A finite transitive permutation group, held as an (order x degree) table.

    Row r of the table lists the images of the r-th element, 0-based, and the
    rows are sorted in the elements' tuple order.  Every element's order and
    e(g) are computed for all rows at once, membership is a lookup of rows, and
    subsets are row masks.  Permutation values are made only where a public
    function returns them, or to name rows in the report.
    """

    def __init__(self, table: np.ndarray, generators):
        self._keys = _keys(table)  # a view of big-endian rows, so this sorts them in place
        self._keys.sort()
        self._table = self._keys.view(table.dtype.newbyteorder(">")).reshape(table.shape)
        self.degree = table.shape[1]
        self.generators = tuple(generators)
        self._orders, self._gcds = _cycle_invariants(self._table)

    @classmethod
    def generate(cls, generators, cap: int = DEFAULT_CLOSURE_CAP) -> "PermGroup":
        """Breadth-first closure of the generators; rejects non-transitive results.

        The steps are the generators and their inverses, so each level's products
        s * g lie in the previous, the current or the next level.  A level is made
        one step at a time: s applied to the whole frontier has no repeated row, as
        s is a bijection, and only rows in neither known level nor an earlier step's
        share of the new level are kept.
        """
        generators = list(generators)
        if not generators:
            raise ParseError("no generators")
        degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        # big-endian, so the rows are their own keys
        dtype = np.min_scalar_type(max(degree - 1, 0)).newbyteorder(">")
        steps = (np.array([g.images for g in generators]
                          + [g.inverse().images for g in generators]) - 1).astype(dtype)
        steps = steps[np.unique(_keys(steps), return_index=True)[1]]
        frontier = np.arange(degree, dtype=dtype)[None, :]
        levels, previous = [frontier], frontier[:0]
        total = 1
        while len(frontier):
            seen = np.concatenate([_keys(previous), _keys(frontier)])
            seen.sort()
            fresh = []
            for s in steps:
                products = s[frontier]
                fresh.append(products[~_contains(seen, _keys(products))])
                seen = np.concatenate([seen, _keys(fresh[-1])])
                seen.sort()
            previous, frontier = frontier, np.concatenate(fresh, dtype=dtype)
            total += len(frontier)
            if total > cap:
                raise CapExceeded(f"closure exceeds {cap} elements")
            levels.append(frontier)
        table = np.concatenate(levels, dtype=dtype)
        del levels, previous  # so that the table is the one copy of the rows while it is sorted
        group = cls(table, generators)
        if not group.is_transitive():
            raise NonTransitive(f"orbit of 1 has size {group._orbit_of_one()}, degree {degree}")
        return group

    def _orbit_of_one(self) -> int:
        """Size of the orbit of the point 1: the distinct images of 1 over all elements."""
        return int(np.count_nonzero(np.bincount(self._table[:, 0], minlength=self.degree)))

    def is_transitive(self) -> bool:
        return self._orbit_of_one() == self.degree

    @property
    def order(self) -> int:
        return len(self._table)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(self._elements(np.arange(self.order)))

    @cached_property
    def element_order(self) -> dict[Permutation, int]:
        return dict(zip(self.elements, self._orders.tolist()))

    @cached_property
    def orbit_gcd(self) -> dict[Permutation, int]:
        return dict(zip(self.elements, self._gcds.tolist()))

    def __contains__(self, g) -> bool:
        return self._rows([g]) is not None

    def __iter__(self):
        return iter(self.elements)

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Row indices of image rows that are elements of the group."""
        return np.searchsorted(self._keys, _keys(rows.astype(self._table.dtype, copy=False)))

    def _rows(self, perms) -> np.ndarray | None:
        """The rows of some Permutations, or None unless all lie in the group."""
        perms = list(perms)
        if not all(isinstance(g, Permutation) and g.degree == self.degree for g in perms):
            return None
        rows = np.array([g.images for g in perms], dtype=np.min_scalar_type(self.degree))
        keys = _keys((rows.reshape(len(perms), self.degree) - 1).astype(self._table.dtype))
        return np.searchsorted(self._keys, keys) if _contains(self._keys, keys).all() else None

    def _mask(self, perms) -> np.ndarray:
        """The rows of some Permutations, as a mask; NotSubset unless all lie in the group."""
        rows = self._rows(perms)
        if rows is None:
            raise NotSubset("omega is not a subset of the group")
        return np.bincount(rows, minlength=self.order) > 0

    def _elements(self, rows: np.ndarray):
        """Fresh Permutations of some rows, made a block at a time as they are taken; the
        images of all of them are the ints of one shared array of points."""
        points = np.arange(1, self.degree + 1).astype(object)
        for block in _blocks(len(rows), self.degree):
            for images in points[self._table[rows[block]]].tolist():
                yield Permutation._from_images(images)

    def _valuations(self, q: int) -> np.ndarray:
        """The q-adic valuation of e(g) for every row."""
        rest = self._gcds.copy()
        v = np.zeros(self.order, dtype=np.int64)
        while True:
            hit = rest % q == 0
            if not hit.any():
                return v
            v += hit
            rest[hit] //= q

    @cached_property
    def _power_maps(self) -> tuple[np.ndarray, ...]:
        """Map j sends row g to g^a for the j-th a in unit_generators(ord g), or to g."""
        exponents = {gamma: unit_generators(gamma) for gamma in set(self._orders.tolist())}
        maps = tuple(np.arange(self.order) for _ in range(max(map(len, exponents.values()))))
        for gamma, exps in exponents.items():
            rows = np.flatnonzero(self._orders == gamma)
            for target, a in zip(maps, exps):
                for block in _blocks(len(rows), self.degree):
                    target[rows[block]] = self._find(_power(self._table[rows[block]], a))
        return maps

    @cached_property
    def _conjugation_maps(self) -> tuple[np.ndarray, ...]:
        """For each generator s, the row of s * g * s^-1 for every row g."""
        maps = []
        for s in self.generators:
            image = np.array(s.images, dtype=np.intp) - 1
            inverse = np.array(s.inverse().images, dtype=np.intp) - 1
            conj = np.empty(self.order, dtype=np.intp)
            for block in _blocks(self.order, self.degree):
                conj[block] = self._find(image[self._table[block][:, inverse]])
            maps.append(conj)
        return tuple(maps)

    @cached_property
    def _class_sizes(self) -> np.ndarray:
        """Size of every row's conjugacy class, the orbits of the conjugation maps.

        Each row is labelled by a member of its class; a label moves to the least
        label across each map and then to its own label's label, until no label
        changes, when the labels are constant on each class.
        """
        label = np.arange(self.order)
        while True:
            new = label
            for conj in self._conjugation_maps:
                new = np.minimum(new, new[conj])
            new = new[new]
            if np.array_equal(new, label):
                return np.bincount(label, minlength=self.order)[label]
            label = new

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def class_size(self, g: Permutation) -> int:
        """Size of g's conjugacy class; g must lie in the group."""
        return int(self._class_sizes[self._mask([g])][0])

    def cyclic_subgroup(self, g: Permutation) -> frozenset[Permutation]:
        """<g> as a set of the group's Permutations; NotSubset for a g outside the group."""
        row = int(np.flatnonzero(self._mask([g]))[0])
        return frozenset(self._elements(self._cyclic_rows(row)))

    def _cyclic_rows(self, row: int) -> np.ndarray:
        """The rows of <g>: g^k for k < ord g, each made as g * g^(k-1)."""
        g = self._table[row]
        powers = np.empty((int(self._orders[row]), self.degree), dtype=g.dtype)
        powers[0] = np.arange(self.degree)
        for k in range(1, len(powers)):
            powers[k] = g[powers[k - 1]]
        return self._find(powers)

    def q_rank(self) -> dict[int, int]:
        """q-rank of an abelian group for every prime q dividing its order."""
        if not self.is_abelian():
            raise NotAbelian("q_rank needs an abelian group")
        ranks = {}
        for q in prime_factors(self.order):
            torsion = int(np.count_nonzero((self._orders == 1) | (self._orders == q)))
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
    return frozenset(group._elements(np.flatnonzero(_omega_mask(group, q, l))))


def _omega_mask(group: PermGroup, q: int, l) -> np.ndarray:
    """Omega(G, q^l) as a mask over the rows, checked closed and free of the identity."""
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if l is not math.inf and (not isinstance(l, int) or l < 1):
        raise ValueError(f"l must be a positive integer or inf, got {l!r}")
    v = group._valuations(q)
    mask = v >= 1 if l is math.inf else v == l
    assert _closed(mask, group._power_maps + group._conjugation_maps)
    assert not mask[group._orders == 1].any()
    return mask


def non_random_primes(group: PermGroup) -> set[int]:
    """Primes q with q | e(sigma) for some element sigma."""
    primes: set[int] = set()
    for e in set(group._gcds.tolist()):
        primes.update(prime_factors(e))
    assert all(group.order % q == 0 for q in primes)
    return primes


def _closed(mask: np.ndarray, maps) -> bool:
    """True iff every index map sends the rows under mask into the mask."""
    rows = np.flatnonzero(mask)
    return all(mask[image[rows]].all() for image in maps)


def closed_under_invertible_powering(group: PermGroup, omega) -> bool:
    """True iff g^a stays in omega for every g in omega and a coprime to ord(g).

    g^a has the order of g, so closure under generators of the unit group gives
    closure under every product of them, which is every a prime to ord(g).
    """
    return _closed(group._mask(omega), group._power_maps)


def closed_under_conjugation(group: PermGroup, omega) -> bool:
    """True iff s * g * s^-1 stays in omega for every g in omega and generator s."""
    return _closed(group._mask(omega), group._conjugation_maps)


def _beta(group: PermGroup, mask: np.ndarray, by_class=False) -> int:
    """Sum of w(h)/phi(ord h) over the non-identity rows h under mask, w(h) the class size
    or 1; NotClosed unless closed under powering (and conjugation, by_class) and integral."""
    if not _closed(mask, group._power_maps):
        raise NotClosed("omega is not closed under invertible powering")
    if by_class and not _closed(mask, group._conjugation_maps):
        raise NotClosed("omega is not closed under conjugation")
    orders = group._orders
    weights = group._class_sizes if by_class else np.ones_like(orders)
    total = sum((Fraction(int(weights[mask & (orders == gamma)].sum()), euler_phi(gamma))
                 for gamma in set(orders[mask].tolist()) - {1}), Fraction(0))
    if total.denominator != 1:
        raise NotClosed(f"weight sum {total} is not an integer")
    return int(total)


def beta(group: PermGroup, omega) -> int:
    """Sum of 1/phi(ord(h)) over non-identity h in omega (an integer when closed)."""
    if not group.is_abelian():
        raise NotAbelian("beta is defined for abelian groups")
    return _beta(group, group._mask(omega))


class DihedralStructure:
    """G = H semidirect F with H abelian and every nontrivial f in F inverting H.

    Abelian groups are the degenerate case F = {id}, which needs H = G abelian.
    Otherwise F = {id, t} and H = <s> is cyclic; then t^2 = id and s * t * s = t,
    with |H| |F| = |G| and H meet F = {id}, give every other fact of the
    decomposition, and they are checked on the table, not by products of H and F.
    An F of order above 2, or a non-cyclic H beside a nontrivial F, is refused.
    """

    def __init__(self, group: PermGroup, H, F):
        H, F = frozenset(H), frozenset(F)
        h_rows, f_rows = group._rows(H), group._rows(F)
        if h_rows is None or f_rows is None:
            raise NotSubset("H and F must lie inside the group")
        if 0 not in h_rows or 0 not in f_rows:  # row 0, the least image row, is the identity
            raise ValueError("H and F must contain the identity")
        if len(H) * len(F) != group.order or len(np.intersect1d(h_rows, f_rows)) != 1:
            raise ValueError("H, F do not decompose the group")
        if len(F) == 1 and not group.is_abelian():
            raise NotAbelian("H must be an abelian subgroup")
        if len(F) > 1:
            s = h_rows[group._orders[h_rows] == len(H)][:1]  # of order |H|
            if len(F) > 2 or not len(s) or not np.array_equal(
                    np.sort(group._cyclic_rows(int(s[0]))), np.sort(h_rows)):
                raise ValueError("beside a nontrivial F, only F of order 2 and a cyclic H")
            s, t = group._table[[s[0], f_rows[f_rows != 0][0]]].astype(np.intp)  # 0-based images
            if not np.array_equal(t[t], np.arange(group.degree)):
                raise NotAbelian("F must be an abelian subgroup")
            if not np.array_equal(s[t[s]], t):
                raise ValueError("F does not invert H")
        self.group, self.H, self.F = group, H, F

    @property
    def f_trivial(self) -> bool:
        return len(self.F) == 1


def beta_F(structure: DihedralStructure, omega) -> int:
    """Conjugacy-weighted beta over a subset of H (integer when closed)."""
    omega = frozenset(omega)
    if not omega <= structure.H:
        raise NotInH("omega must be a subset of H")
    return _beta(structure.group, structure.group._mask(omega), by_class=True)


def report(spec: str) -> dict:
    """The ``group`` report of a spec: its Omega(G, q^l) sets in cycle notation and betas.

    Each set is a mask of table rows, checked as in omega_set, beta and beta_F, and
    each element of an Omega set is named once, from its row.
    """
    built = parse_group_spec(spec)
    structure = built if isinstance(built, DihedralStructure) else None
    group = structure.group if structure else built
    abelian, primes = group.is_abelian(), sorted(non_random_primes(group))
    rows = np.flatnonzero(group._gcds > 1)  # the union of every Omega(G, q^inf)
    names = dict(zip(rows.tolist(), map(repr, group._elements(rows))))  # no Permutation is kept
    omega_sets, outside, betas = {}, {}, {}
    for q in primes:
        for l in [*sorted(set(group._valuations(q).tolist()) - {0}), math.inf]:
            mask = _omega_mask(group, q, l)
            omega_sets[f"{q}^{l}"] = sorted(names[r] for r in np.flatnonzero(mask).tolist())
        outside[q] = ~mask  # the last mask is Omega(G, q^inf)
    if abelian or structure:
        h, prefix, whole = group._orders > 1, "beta", "beta_total"
        if not abelian:
            h, prefix, whole = h & group._mask(structure.H), "beta_F", "beta_F_H"
            betas["beta_F"] = _beta(group, group._mask(structure.F))
        betas[whole] = _beta(group, h, by_class=not abelian)
        for q in primes:
            betas[f"{prefix}_complement_{q}"] = _beta(group, h & outside[q], by_class=not abelian)
    return {"spec": spec, "degree": group.degree, "order": group.order, "abelian": abelian,
            "non_random_primes": primes, "omega_sets": omega_sets, "betas": betas}


def h_p(structure: DihedralStructure, p: int, subset) -> int:
    """Count non-identity h in the subset of H with p = +-1 mod ord(h), each h once.

    Only the +1 congruence counts when F is trivial.  NotSubset for an element
    outside the group.
    """
    group, count = structure.group, 0
    for gamma in group._orders[group._mask(subset)].tolist():
        if gamma > 1 and (p % gamma == 1 or not structure.f_trivial and p % gamma == gamma - 1):
            count += 1
    return count


# -- spec-string construction -------------------------------------------------

_PRODUCT_RE = re.compile(r"C\d+(?:xC\d+)*")
_SYM_RE = re.compile(r"^S(\d+)$")
_DIH_RE = re.compile(r"^D(\d+)@(S(\d+)|reg)$")
_HUGE_RE = re.compile(r"[1-9]\d{5,}")  # a number past 99 999, above every group-order cap


def cyclic_factors(text: str) -> list[int] | None:
    """The factors m, n, ... of a spec ``Cm`` or ``CmxCn...``; None for any other spec."""
    if huge := _HUGE_RE.search(text):  # unread; parse_group_spec asks here first for S, D too
        raise CapExceeded(f"a spec number of {len(huge[0])} digits exceeds every group-order cap")
    if not _PRODUCT_RE.fullmatch(text):
        return None
    factors = [int(part[1:]) for part in text.split("x")]
    if any(f < 2 for f in factors):
        raise UnknownSpec(f"cyclic factors must be >= 2: {text!r}")
    return factors


def _regular_abelian(factors: list[int]) -> PermGroup:
    order = math.prod(factors)
    if order > DEFAULT_CLOSURE_CAP:
        raise CapExceeded(f"group order {order} exceeds cap {DEFAULT_CLOSURE_CAP}")
    # the point of the coordinates (c_1, c_2, ...) is its row-major index plus 1, a Python
    # int shared by the images of every generator
    points = np.arange(1, order + 1).astype(object).reshape(factors)
    gens = [Permutation(np.roll(points, -1, axis=i).ravel().tolist()) for i in range(len(factors))]
    return PermGroup.generate(gens)


def _dihedral(s: Permutation, t: Permutation) -> DihedralStructure:
    """The dihedral group <s, t> with H = <s> and F = {id, t}."""
    group = PermGroup.generate([s, t])
    return DihedralStructure(group, group.cyclic_subgroup(s), [group.identity, t])


def _dihedral_natural(n: int) -> DihedralStructure:
    sigma = Permutation([i % n + 1 for i in range(1, n + 1)])
    # reflection fixing the point n (for n = 4 this is the pinned tau = (1 3))
    tau = Permutation([((n - 1 - i) % n) + 1 for i in range(1, n + 1)])
    return _dihedral(sigma, tau)


def _dihedral_regular(n: int) -> DihedralStructure:
    # the point i + eps * n + 1 stands for s^i t^eps, i in 0..n-1 and eps in {0, 1}
    points = [(i, eps) for eps in (0, 1) for i in range(n)]
    s = Permutation([(i + 1) % n + eps * n + 1 for i, eps in points])
    t = Permutation([-i % n + (1 - eps) * n + 1 for i, eps in points])
    return _dihedral(s, t)


def parse_group_spec(text: str):
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
        return PermGroup.generate([a, b])
    factors = cyclic_factors(text)
    if factors is not None:
        return _regular_abelian(factors)
    m = _SYM_RE.match(text)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise UnknownSpec(f"symmetric group degree must be >= 2: {text!r}")
        # stops at the first k with k! past the cap, so n! is never made
        if any(math.factorial(k) > DEFAULT_CLOSURE_CAP for k in range(n + 1)):
            raise CapExceeded(f"|S{n}| = {n}! exceeds cap {DEFAULT_CLOSURE_CAP}")
        gens = [Permutation([i % n + 1 for i in range(1, n + 1)])]
        if n > 2:
            gens.append(Permutation.from_cycles([[1, 2]], n))
        return PermGroup.generate(gens)
    m = _DIH_RE.match(text)
    if m:
        n = int(m.group(1))
        if n < 3:
            raise UnknownSpec(f"dihedral spec needs n >= 3: {text!r}")
        regular = m.group(2) == "reg"
        if not regular and int(m.group(3)) != n:
            raise UnknownSpec(f"dihedral natural action must be Dn@Sn: {text!r}")
        if 2 * n > DEFAULT_CLOSURE_CAP:
            raise CapExceeded(f"group order {2 * n} exceeds cap {DEFAULT_CLOSURE_CAP}")
        return _dihedral_regular(n) if regular else _dihedral_natural(n)
    raise ParseError(f"unrecognized group spec: {text!r}")
