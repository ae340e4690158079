"""The library-oracles sequence: fixed ramclass library calls in one interpreter.

Run as ``python3 bench/library_oracles.py --seed N`` with ``src`` on
PYTHONPATH; prints one JSON object with each call's result, keyed by call,
and the names of the calls that raised.  ``traced.py`` runs the same calls
in-process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import workloads


def calls(seed: int) -> list[tuple[str, object]]:
    """(name, thunk) per operation; each thunk returns a JSON-ready result."""
    from ramclass import bounds, cli, dirichlet, quadratic

    sieve_box = {}

    def prime_sieve():
        sieve = sieve_box["sieve"] = dirichlet.PrimeSieve(10 ** 7)
        return [sieve.count_below(10 ** 7), len(sieve.primes)]

    def mertens(a):
        return lambda: [list(row) for row in dirichlet.mertens_ap(
            sieve_box["sieve"], dirichlet.APClass(4, a), workloads.mertens_checkpoints(seed))]

    def fit():
        a, b, c = workloads.FIT_TRUTH
        rows = [(x, c * x * math.log(x) ** a * math.log(math.log(x)) ** b)
                for x in workloads.FIT_XS]
        res = dirichlet.fit_asymptotic(rows)
        return {"log_exp": res.log_exp, "loglog_exp": res.loglog_exp, "constant": res.constant}

    def group_s7():
        report = cli.group_report("S7")
        return {key: report[key] for key in ("order", "degree", "abelian")}

    def profile(text, q, l):
        def run():
            parsed = bounds.parse_profile(text)
            genus_raw = bounds.genus_rank_lower_bound(parsed, q, l)[0]
            rz = bounds.rz_lower_bound(parsed, q, l)
            return {"genus_raw": genus_raw, "rz_type_count": rz["type_count"],
                    "rz_raw": rz["lower_bound_raw"]}
        return run

    return [
        ("summatory_oracle",
         lambda: dirichlet.summatory_oracle("squarefree_2_omega", 10 ** 7)),
        ("genus_sweep", lambda: list(quadratic.genus_sweep(10 ** 6))),
        ("prime_sieve", prime_sieve),
        ("mertens_ap_1_mod_4", mertens(1)),
        ("mertens_ap_3_mod_4", mertens(3)),
        ("fit_asymptotic", fit),
        ("group_S7", group_s7),
    ] + [(f"bounds_{name}", profile(*spec)) for name, spec in workloads.PROFILES.items()]


def run_calls(seed: int) -> dict:
    """Run every call; a call that raises is named in ``failed`` and has no result."""
    results, failed, seconds = {}, [], {}
    for name, thunk in calls(seed):
        t0 = time.perf_counter()
        try:
            results[name] = thunk()
        except Exception as exc:  # one failed call must not hide the others
            failed.append(name)
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds[name] = time.perf_counter() - t0
    return {"results": results, "failed": failed, "seconds": seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(run_calls(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
