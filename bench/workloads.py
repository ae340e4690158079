"""The four workloads: their operations, drawn from the seed, and their checks.

The seed draws only the interior checkpoints of each scan.  The lowest and the
top checkpoint, the number of checkpoints and every other argument are fixed,
so every seed asks for the same work.  Checks compare each output with
``reference`` (numpy only) or with a property the mathematics forces; the
lattice checks also use ``brute_force_total``, the engine's independent
joint-image oracle, at a small x (see ``lattice_oracles.py``).
"""

from __future__ import annotations

import math
import random

import reference

WORKLOADS = {
    "abelian-primes": "C3 to 1e8 and C2 to 1e7: the prime sieve and per-class prime lists set time and peak RSS",
    "abelian-lattice": "C2xC2xC2 and C2xC4: 16 Moebius terms, so the support DFS, not the sieve, sets time",
    "quadratic-scan": "quadratic moment and probability scans to 1e7: one-segment ambiguous-form scan sets time and RSS",
    "library-oracles": "summatory oracle, genus sweep, sieve, fit, S7 report and bounds: dirichlet, permgroup, bounds",
}

# lowest fixed checkpoint, top checkpoint and interior count per lattice group
LATTICE_SCANS = {"C2xC2xC2": (1000, 3 * 10 ** 6, 2), "C2xC4": (2000, 10 ** 6, 2)}


# fit_asymptotic input: N = C x (log x)^a (log log x)^b exactly, a, b, C below
FIT_TRUTH = (-0.5, 1.0, 0.7)
FIT_XS = [10.0 ** k for k in range(3, 11)]

PROFILES = {
    "cubic": ("degree: 3\nabelian_rank: 3=1\n7: 3\n13: 3\n19: 3\n31: 3\n5: 1,2\n43: 3\n", 3, 1),
    "quartic": ("degree: 4\nabelian_rank: 2=1\n3: 2,2\n5: 4\n13: 2,1,1\n17: 2,2\n29: 4\n"
                "37: 4\n", 2, 1),
    "quartic_l2": ("degree: 4\nabelian_rank: 2=1\n5: 4\n13: 4\n17: 2,2\n29: 4\n", 2, 2),
    "sextic": ("degree: 6\nabelian_rank: 3=0\n7: 3,3\n13: 6\n19: 2,2,2\n31: 3,3\n37: 6\n"
               "43: 3,3\n61: 6\n", 3, 1),
}


def interior(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` distinct log-uniform values strictly between lo and hi, 3 digits."""
    picks: set[int] = set()
    while len(picks) < count:
        value = int(float(f"{10 ** rng.uniform(math.log10(lo), math.log10(hi)):.3g}"))
        if lo < value < hi:
            picks.add(value)
    return sorted(picks)


def _grid(seed: int, label: str, lo: int, hi: int, count: int) -> list[int]:
    return [lo] + interior(random.Random(f"{seed}:{label}"), lo, hi, count) + [hi]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def cli_ops(workload: str, seed: int) -> list[list[str]]:
    """argv lists (after ``ramclass``) of the workload's CLI operations."""
    if workload == "abelian-primes":
        return [
            ["abelian", "C3", "--checkpoints", _csv(_grid(seed, "C3", 10 ** 4, 10 ** 8, 3)),
             "--omega", "3:inf", "--r", "2", "--cap", str(10 ** 8), "--jobs", "1"],
            ["abelian", "C2", "--checkpoints", _csv(_grid(seed, "C2", 10 ** 4, 10 ** 7, 2)),
             "--jobs", "1"],
        ]
    if workload == "abelian-lattice":
        return [["abelian", spec, "--checkpoints", _csv(_grid(seed, spec, lo, hi, count)),
                 "--omega", "2:inf", "--r", "3", "--cap", str(hi), "--jobs", "1"]
                for spec, (lo, hi, count) in LATTICE_SCANS.items()]
    if workload == "quadratic-scan":
        return [
            ["quadratic", "moment", "--checkpoints",
             _csv(_grid(seed, "moment", 10 ** 5, 10 ** 7, 2)), "--jobs", "1"],
            ["quadratic", "probability", "--r", "1", "--order", "absdisc", "--checkpoints",
             _csv(_grid(seed, "probability", 10 ** 5, 10 ** 7, 2)), "--jobs", "1"],
        ]
    if workload == "library-oracles":
        return []
    raise KeyError(workload)


LIBRARY_CALLS = (["summatory_oracle", "genus_sweep", "prime_sieve", "mertens_ap_1_mod_4",
                  "mertens_ap_3_mod_4", "fit_asymptotic", "group_S7"]
                 + [f"bounds_{name}" for name in PROFILES])


def mertens_checkpoints(seed: int) -> list[int]:
    return _grid(seed, "mertens", 10 ** 3, 10 ** 7, 2)


# -- checks ---------------------------------------------------------------------------


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def _checkpoints_of(argv: list[str]) -> list[int]:
    return [int(v) for v in argv[argv.index("--checkpoints") + 1].split(",")]


def _check_abelian_rows(argv, text, aut, expected_pairs, expected_totals, r) -> list[str]:
    """Every row: x, r, pairs, pairs / |Aut G| and the printed ratio."""
    errors = []
    xs = _checkpoints_of(argv)
    rows = _rows(text, "x,r,count_pairs,count_fields,ratio")
    if len(rows) != len(xs):
        return [f"{len(rows)} rows for {len(xs)} checkpoints"]
    for k, (x, row) in enumerate(zip(xs, rows)):
        pairs = int(row[2])
        want = (str(x), str(r), str(pairs), str(pairs // aut))
        if tuple(row[:4]) != want or pairs % aut:
            errors.append(f"x={x}: row {row[:4]} is not {want} with {aut} | pairs")
        if expected_pairs[k] is not None and pairs != expected_pairs[k]:
            errors.append(f"x={x}: {pairs} pairs, reference {expected_pairs[k]}")
        total = expected_totals[k]
        if total is not None and row[4] != f"{pairs / total:.12g}":
            errors.append(f"x={x}: ratio {row[4]}, reference {pairs}/{total}")
    counts = [int(row[2]) for row in rows]
    if counts != sorted(counts):
        errors.append("pair counts decrease with x")
    return errors


def check_abelian_primes(ops, outputs) -> list[list[str]]:
    """Errors per operation; an output of None (a failed operation) is skipped."""
    (c3_argv, c2_argv), errors = ops, [[], []]
    if outputs[0] is not None:
        c3 = reference.c3_pair_counts(_checkpoints_of(c3_argv))
        c3_totals = [sum(col) for col in zip(*c3.values())]
        errors[0] = _check_abelian_rows(c3_argv, outputs[0], reference.automorphism_count((3,)),
                                        c3[2], c3_totals, 2)
    if outputs[1] is not None:
        c2 = reference.fundamental_discriminant_counts(_checkpoints_of(c2_argv))
        errors[1] = _check_abelian_rows(c2_argv, outputs[1], reference.automorphism_count((2,)),
                                        c2, c2, 0)
    return errors


def check_abelian_lattice(ops, outputs, oracles: dict) -> list[list[str]]:
    """Closed form for (Z/2)^3; |Aut G| divides pairs; brute force at the lowest x.

    ``oracles`` maps a spec to the library's results at its lowest checkpoint:
    the strata r = 0..r_max, the empty-Omega total and ``brute_force_total``.
    """
    errors = []
    for argv, text in zip(ops, outputs):
        if text is None:
            errors.append([])
            continue
        spec = argv[1]
        factors = tuple(int(tok[1:]) for tok in spec.split("x"))
        xs = _checkpoints_of(argv)
        pairs = [None] * len(xs)
        totals = [None] * len(xs)
        if set(factors) == {2}:
            pairs, totals = reference.elementary2_pair_counts(len(factors), xs, 3)
        found = oracles[spec]
        lowest = []
        if found["x"] != xs[0]:
            lowest.append(f"oracle at {found['x']}, lowest checkpoint {xs[0]}")
        if not (sum(found["strata"]) == found["total"] == found["brute_force"]):
            lowest.append(f"strata sum {sum(found['strata'])}, total {found['total']}, "
                          f"brute force {found['brute_force']}")
        if totals[0] not in (None, found["brute_force"]):
            lowest.append(f"closed form {totals[0]}, brute force {found['brute_force']}")
        pairs[0], totals[0] = found["strata"][3], found["brute_force"]
        errors.append(lowest + _check_abelian_rows(
            argv, text, reference.automorphism_count(factors), pairs, totals, 3))
    return errors


def check_quadratic_scan(ops, outputs) -> list[list[str]]:
    errors = []
    for argv, text in zip(ops, outputs):
        if text is None:
            errors.append([])
            continue
        kind = argv[1]
        order = argv[argv.index("--order") + 1] if "--order" in argv else "radical"
        r = int(argv[argv.index("--r") + 1]) if "--r" in argv else 0
        xs = _checkpoints_of(argv)
        header = "x,N,E_hat" if kind == "moment" else "x,N,P_hat"
        want = []
        for x, n, moment, low in reference.imaginary_genus_stats(xs, order, r):
            stat = moment / n if kind == "moment" else low / n
            want.append([str(x), str(n), f"{stat:.12g}"])
        rows = _rows(text, header)
        errors.append([] if rows == want else [f"rows {rows}, reference {want}"])
    return errors


def check_library(seed: int, results: dict) -> list[str]:
    """Checks of the library sequence's results, keyed like ``library_oracles.CALLS``."""
    errors = []

    def expect(name, ok, detail):
        if name not in results:
            errors.append(f"{name}: no result")
        elif not ok(results[name]):
            errors.append(f"{name}: {results[name]!r}, {detail}")

    x = 10 ** 7
    expect("summatory_oracle", lambda v: v == float(reference.squarefree_two_omega_sum(x)),
           "reference sum of 2^omega over squarefree n < 1e7")
    expect("genus_sweep", lambda v: v == [reference.imaginary_fundamental_count(10 ** 6), []],
           "every imaginary fundamental |D| <= 1e6 checked, no violations")
    expect("prime_sieve", lambda v: v == [664579, 664579], "pi(1e7) = 664579")
    xs = mertens_checkpoints(seed)
    for (m, a) in ((4, 1), (4, 3)):
        sums = reference.reciprocal_prime_sums(m, a, xs)
        expect(f"mertens_ap_{a}_mod_{m}",
               lambda v: [row[0] for row in v] == xs and all(
                   math.isclose(row[1], s, rel_tol=1e-12) and
                   math.isclose(row[2], s - math.log(math.log(row[0])) / 2, rel_tol=1e-9)
                   for row, s in zip(v, sums)),
               "reference sum of 1/p over the class")
    expect("fit_asymptotic", lambda v: all(math.isclose(v[k], w, rel_tol=1e-8, abs_tol=1e-8)
                                            for k, w in (("log_exp", FIT_TRUTH[0]),
                                                         ("loglog_exp", FIT_TRUTH[1]),
                                                         ("constant", FIT_TRUTH[2]))),
           f"exponents and constant {FIT_TRUTH} of the synthetic data")
    expect("group_S7", lambda v: v == {"order": 5040, "degree": 7, "abelian": False},
           "S7 has order 7! = 5040")
    for name, (text, q, l) in PROFILES.items():
        expect(f"bounds_{name}", lambda v, text=text, q=q, l=l: v == profile_bounds(text, q, l),
               "bounds recomputed from the exponent vectors")
    return errors


def profile_bounds(text: str, q: int, l: int) -> dict:
    """Genus and Roquette-Zassenhaus numbers read off a profile of exponent vectors.

    A prime is of type q^l when q^l divides the gcd of its exponents; the genus
    bound counts those with p = 1 mod q less the abelian q-rank, and the RZ
    bound counts all of them less 2(n - 1).
    """
    degree, rank, typed = 0, 0, []
    for line in text.strip().splitlines():
        key, _, rest = (part.strip() for part in line.partition(":"))
        if key == "degree":
            degree = int(rest)
        elif key == "abelian_rank":
            rank = int(rest.partition("=")[2])
        else:
            e = math.gcd(*(int(tok) for tok in rest.split(",")))
            if e % q ** l == 0:
                typed.append(int(key))
    genus = sum(1 for p in typed if p % q == 1) - rank
    rz = len(typed) - 2 * (degree - 1)
    return {"genus_raw": genus, "rz_type_count": len(typed), "rz_raw": rz}
