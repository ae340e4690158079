"""One workload's operations in a single interpreter, with or without tracing.

Run as ``python3 bench/traced.py --workload W --seed N --wrap 0|1 --out PATH``
with ``src`` on PYTHONPATH.  CLI operations call ``ramclass.cli.main(argv)``
with stdout captured; the library workload runs ``library_oracles.run_calls``.
With ``--wrap 1`` a ``Tracer`` is installed first; with ``--wrap 0`` nothing
is wrapped, which gives the baseline for the tracing overhead.  Writes one
JSON document to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wrap", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    # timed first, before anything here imports numpy
    t0 = time.perf_counter()
    import ramclass.cli as cli
    import_s = time.perf_counter() - t0

    import workloads

    tracer = None
    if args.wrap:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    ops, library = [], None
    t0 = time.perf_counter()
    if args.workload == "library-oracles":
        import library_oracles

        library = library_oracles.run_calls(args.seed)
    else:
        for argv in workloads.cli_ops(args.workload, args.seed):
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # a crash is one failed operation, not a lost run
                print(f"{argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
            ops.append({"argv": argv, "exit": code, "output": buf.getvalue(),
                        "s": time.perf_counter() - start})
    wall_s = time.perf_counter() - t0

    record = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "library": library,
        "layers": tracer.metrics() if tracer else None,
        "absent": tracer.absent if tracer else None,
    }
    if tracer:
        tracer.uninstall()
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
