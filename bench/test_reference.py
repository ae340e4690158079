"""The benchmark's reference counters against brute-force enumeration, at small x.

Needs numpy and pytest only, not ramclass:

    python3 -m pytest bench/test_reference.py -q
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import pytest

import reference
import tracer
import workloads


def factor(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factor(n).values())


def radical(n: int) -> int:
    return math.prod(factor(n))


def is_fundamental(D: int) -> bool:
    if D == 1 or D == 0:
        return False
    if D % 4 == 1:
        return squarefree(abs(D))
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree(abs(D // 4))


def test_primes_below():
    for limit in (0, 1, 2, 3, 4, 5, 100, 1001, 2048):
        want = [n for n in range(2, limit) if factor(n) == {n: 1}]
        assert reference.primes_below(limit).tolist() == want


def test_omega_squarefree():
    omega, sf = reference.omega_squarefree(3000)
    for n in range(3000):
        assert sf[n] == squarefree(n)
        if sf[n]:
            assert omega[n] == len(factor(n))


def test_c3_pair_counts():
    xs = [4, 50, 700, 10 ** 4]
    want = {}
    for n in range(2, xs[-1]):
        primes = factor(n)
        if not squarefree(n) or any(p != 3 and p % 3 != 1 for p in primes):
            continue
        r = sum(1 for p in primes if p != 3)
        row = want.setdefault(r, [0] * len(xs))
        for k, x in enumerate(xs):
            row[k] += 2 ** len(primes) if n < x else 0
    got = reference.c3_pair_counts(xs)
    assert {r: v for r, v in got.items() if any(v)} == want


def test_fundamental_discriminant_counts():
    xs = [3, 10, 97, 600]
    rads = [radical(abs(D)) for D in range(-4 * xs[-1], 4 * xs[-1]) if is_fundamental(D)]
    assert reference.fundamental_discriminant_counts(xs) == [
        sum(1 for r in rads if r < x) for x in xs]


def homomorphic_bijections(dims) -> int:
    elements = list(itertools.product(*(range(d) for d in dims)))

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, dims))

    count = 0
    for perm in itertools.permutations(elements):
        f = dict(zip(elements, perm))
        if all(f[add(a, b)] == add(f[a], f[b]) for a in elements for b in elements):
            count += 1
    return count


@pytest.mark.parametrize("dims", [(2,), (3,), (4,), (2, 2), (5,), (6,)])
def test_automorphism_count_small(dims):
    assert reference.automorphism_count(dims) == homomorphic_bijections(dims)


def test_automorphism_count_known():
    assert reference.automorphism_count((2, 2, 2)) == 168  # |GL_3(F_2)|
    assert reference.automorphism_count((2, 4)) == 8


def span_is_full(vectors, rank: int) -> bool:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return len(span) == 2 ** rank


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_elementary2_pair_counts(rank):
    xs = [10, 60, 230]
    r = 2
    nonzero = range(1, 2 ** rank)
    want_r, want_total = [0] * len(xs), [0] * len(xs)
    for n in range(2, xs[-1]):
        if not squarefree(n):
            continue
        odd = [p for p in factor(n) if p != 2]
        choices = [nonzero] * len(odd)
        if n % 2 == 0:  # the prime 2: a pair (t, u), not both trivial
            choices.append([(t, u) for t in range(2 ** rank) for u in range(2 ** rank)][1:])
        count = 0
        for maps in itertools.product(*choices):
            flat = [v for m in maps for v in (m if isinstance(m, tuple) else (m,))]
            count += span_is_full(flat, rank)
        for k, x in enumerate(xs):
            if n < x:
                want_total[k] += count
                want_r[k] += count if len(odd) == r else 0
    assert reference.elementary2_pair_counts(rank, xs, r) == (want_r, want_total)


def ambiguous_classes(D: int) -> int:
    """Reduced forms of discriminant D < 0 with b = 0, a = b or a = c."""
    n, count, a = -D, 0, 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            if (b * b + n) % (4 * a) == 0:
                c = (b * b + n) // (4 * a)
                if c >= a and not (b < 0 and a == c) and (b == 0 or a == b or a == c):
                    count += 1
        a += 1
    return count


@pytest.mark.parametrize("order", ["radical", "absdisc"])
def test_imaginary_genus_stats(order):
    xs = [5, 40, 300, 1500]
    fields = []
    for D in range(-1, -4 * xs[-1], -1):
        if is_fundamental(D):
            rk2 = int(math.log2(ambiguous_classes(D)))  # 2-rank from the forms
            fields.append((radical(-D) if order == "radical" else -D, rk2))
    want = []
    for x in xs:
        ranks = [rk2 for key, rk2 in fields if key < x]
        want.append((x, len(ranks), sum(2 ** rk for rk in ranks),
                     sum(1 for rk in ranks if rk <= 1)))
    assert reference.imaginary_genus_stats(xs, order, 1) == want


def test_imaginary_fundamental_count():
    for bound in (2, 3, 4, 20, 1000):
        assert reference.imaginary_fundamental_count(bound) == sum(
            1 for n in range(1, bound + 1) if is_fundamental(-n))


def test_squarefree_two_omega_sum():
    for x in (1, 2, 3, 100, 2500):
        assert reference.squarefree_two_omega_sum(x) == sum(
            2 ** len(factor(n)) for n in range(1, x) if squarefree(n))


def test_reciprocal_prime_sums():
    xs = [10, 100, 5000]
    primes = [p for p in range(2, xs[-1]) if factor(p) == {p: 1}]
    got = reference.reciprocal_prime_sums(4, 3, xs)
    for x, value in zip(xs, got):
        assert math.isclose(value, sum(1 / p for p in primes if p < x and p % 4 == 3),
                            rel_tol=1e-12)


def test_profile_bounds():
    text = "degree: 3\nabelian_rank: 3=1\n7: 3\n5: 1,2\n13: 3\n11: 3\n"
    # type 3: 7, 13, 11; of those 7 and 13 are 1 mod 3
    assert workloads.profile_bounds(text, 3, 1) == {
        "genus_raw": 1, "rz_type_count": 3, "rz_raw": -1}


def test_seed_draws_interior_checkpoints_only():
    for name in workloads.WORKLOADS:
        a, b = workloads.cli_ops(name, 1), workloads.cli_ops(name, 2)
        assert a == workloads.cli_ops(name, 1)
        for argv_a, argv_b in zip(a, b):
            ck_a = argv_a[argv_a.index("--checkpoints") + 1].split(",")
            ck_b = argv_b[argv_b.index("--checkpoints") + 1].split(",")
            assert len(ck_a) == len(ck_b)
            assert (ck_a[0], ck_a[-1]) == (ck_b[0], ck_b[-1])
            strip = [v for i, v in enumerate(argv_a) if i != argv_a.index("--checkpoints") + 1]
            assert strip == [v for i, v in enumerate(argv_b)
                             if i != argv_b.index("--checkpoints") + 1]
    rng = random.Random(0)
    for _ in range(200):
        values = workloads.interior(rng, 1000, 3000, 3)
        assert len(set(values)) == 3 and values == sorted(values)
        assert all(1000 < v < 3000 for v in values)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
