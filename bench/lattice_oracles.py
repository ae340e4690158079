"""Library oracles for the abelian-lattice checks, at each scan's lowest checkpoint.

Run as ``python3 bench/lattice_oracles.py`` with ``src`` on PYTHONPATH.  For
every group in ``workloads.LATTICE_SCANS`` it prints the strata r = 0..R_MAX
from ``count_stratified``, the empty-Omega total and ``brute_force_total``,
which walks every tuple of local maps and tests the joint image.  At these x
no support has more than R_MAX primes, so the strata must sum to the total.
"""

from __future__ import annotations

import json
import math

import workloads

R_MAX = 8


def main() -> None:
    from ramclass import abelian_fields

    found = {}
    for spec, (x, _, _) in workloads.LATTICE_SCANS.items():
        group = abelian_fields.AbelianGroupSpec([int(tok[1:]) for tok in spec.split("x")])
        omega = group.omega_subset(2, math.inf)
        strata = abelian_fields.count_stratified(group, omega, [x], R_MAX, cap=x)
        total = abelian_fields.count_stratified(group, frozenset(), [x], 0, cap=x)[0][0]
        found[spec] = {"x": x, "strata": [row[0] for row in strata], "total": total,
                       "brute_force": abelian_fields.brute_force_total(group, x)}
    print(json.dumps(found))


if __name__ == "__main__":
    main()
