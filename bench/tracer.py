"""Per-layer tracing from outside the program: wrap ramclass functions by name.

``Tracer.install`` replaces each function named in ``LAYERS`` with a timing
wrapper, in its own module and in every ramclass module that bound the same
object with ``from .module import name``.  A class is traced through its
``__init__``.  A name the package no longer has is listed in ``absent`` and
reads 0.  Nothing here runs unless a traced run installs it.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("main", "_emit", "cmd_abelian", "cmd_quadratic"),
    "abelian_fields": ("count_stratified", "_build_setups", "subgroup_moebius",
                       "_class_prime_lists", "_sieve_primes", "_setup_counts",
                       "automorphism_count"),
    "quadratic": ("_scan", "_tally_segment", "_segment_fields", "segmented_ambiguous",
                  "_bump", "segmented_squarefree", "genus_sweep", "omega"),
    "dirichlet": ("summatory_oracle", "_omega_and_squarefree", "PrimeSieve", "mertens_ap",
                  "fit_asymptotic"),
    "permgroup": ("parse_group_spec", "omega_set", "non_random_primes"),
    "bounds": ("parse_profile", "genus_rank_lower_bound", "rz_lower_bound"),
}

# functions that also record the rise of the process's peak RSS during the call
RSS_GAIN = ("abelian_fields._sieve_primes", "abelian_fields._class_prime_lists",
            "abelian_fields._setup_counts", "quadratic._segment_fields",
            "quadratic.segmented_ambiguous", "dirichlet._omega_and_squarefree")


def _entries(stat, args, result):
    stat["entries"] += sum(len(primes) for primes in result.values())


def _max_span(stat, args, result):
    stat["max_span"] = max(stat["max_span"], args[1] - args[0])


def _bytes(stat, args, result):
    stat["bytes"] += len(args[0].encode())


# counts computed from a call's arguments and return value
EXTRAS = {
    "abelian_fields._class_prime_lists": ("entries", "count", _entries),
    "quadratic._segment_fields": ("max_span", "count", _max_span),
    "cli._emit": ("bytes", "bytes", _bytes),
}

# metrics of the run as a whole, filled in by run.py
RUN_METRICS = (("import_s", "s"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
               ("trace.overhead_s", "s"))


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for module, names in LAYERS.items():
        for name in names:
            key = f"{module}.{name}"
            out += [(f"{key}.calls", "count"), (f"{key}.s", "s"), (f"{key}.self_s", "s")]
            if key in RSS_GAIN:
                out.append((f"{key}.rss_gain_mb", "MB"))
            if key in EXTRAS:
                stat, unit, _ = EXTRAS[key]
                out.append((f"{key}.{stat}", unit))
    return out + list(RUN_METRICS)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Inclusive time, self time and call counts per wrapped function."""

    def __init__(self):
        self.stats: dict[str, defaultdict] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "ramclass" or name.startswith("ramclass.")]
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"ramclass.{module}")
            for name in names:
                key = f"{module}.{name}"
                orig = getattr(mod, name, None)
                if orig is None:
                    self.absent.append(key)
                    continue
                if isinstance(orig, type):
                    self._set(orig, "__init__", self._wrap(key, orig.__init__))
                    continue
                wrapper = self._wrap(key, orig)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._set(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, defaultdict(float))
        extra = EXTRAS.get(key, (None, None, None))[2]
        track_rss = key in RSS_GAIN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            depth = self._depth[key]
            self._depth[key] = depth + 1
            rss0 = _peak_rss_mb() if track_rss else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._depth[key] = depth
                self._stack.pop()
                stat["calls"] += 1
                stat["self_s"] += elapsed - child[0]
                if depth == 0:  # a recursive call's time is already inside its caller's
                    stat["s"] += elapsed
                if self._stack:
                    self._stack[-1][0] += elapsed
                if track_rss:
                    stat["rss_gain_mb"] += _peak_rss_mb() - rss0
            if extra is not None:
                extra(stat, args, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every per-function metric of ``metric_names``; absent functions read 0."""
        out = {}
        for name, _ in metric_names():
            key, _, stat = name.rpartition(".")
            if key.partition(".")[0] in LAYERS:
                out[name] = float(self.stats.get(key, {}).get(stat, 0.0))
        return out
