"""Batch command-line front end.

Subcommands: group | quadratic | abelian | asymptotic | bounds.  Tabular
scans emit CSV, structured reports emit JSON; identical configurations give
byte-identical output (sets sorted, floats pinned to 12 significant digits).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import abelian_fields, bounds, dirichlet, permgroup, quadratic
from .arith import is_prime
from .errors import CapExceeded, EmptyRange, InsufficientData, ParseError, RamclassError

EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_CAP = 4
EXIT_DATA = 5
# every other library error comes from bad input and exits EXIT_PARSE
EXIT_CODES = ((EmptyRange, EXIT_EMPTY), (CapExceeded, EXIT_CAP), (InsufficientData, EXIT_DATA))


def _fnum(value: float) -> float:
    return float(f"{value:.12g}")


def _frac(value) -> str:
    frac = Fraction(value)
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def _emit(text: str, out) -> None:
    out.write(text)


def _write(chunks, out_path: str | None) -> None:
    """Each text chunk through _emit, to the file at out_path or else to stdout."""
    try:
        with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as out:
            for chunk in chunks:
                _emit(chunk, out)
    except OSError as exc:
        raise ParseError(f"cannot write {out_path or 'stdout'}: {exc}") from exc


def _emit_json(payload: dict, out_path: str | None) -> None:
    """The bytes of json.dumps(payload, sort_keys=True, indent=2) and a newline."""
    encoder = json.JSONEncoder(sort_keys=True, indent=2)
    _write(itertools.chain(encoder.iterencode(payload), ["\n"]), out_path)


def _emit_table(header: str, rows, args) -> None:
    """Tabular output: CSV by default, JSON rows on request."""
    if args.format == "json":
        payload = {"header": header.split(","),
                   "rows": [[cell for cell in row] for row in rows]}
        _emit_json(payload, args.out)
        return
    lines = [header] + [",".join(str(cell) for cell in row) for row in rows]
    _write(["\n".join(lines) + "\n"], args.out)


def _number(text: str, what: str, whole: bool = False):
    """An exact number: an int, a fraction such as -3/2 or a decimal such as 1e4 or 2.5.

    Refused outside float range, and unless whole when whole is set.  A literal with
    an exponent is read as a Decimal first, which keeps the exponent apart, so one
    out of range costs no power of ten.
    """
    try:
        value = Decimal(text) if "e" in text.lower() else Fraction(text)
        # out of range, float() gives 0.0, or inf or OverflowError
        if not value or 0 < abs(float(value)) < math.inf:
            value = Fraction(value)
            if not whole or value.denominator == 1:
                return int(value) if whole else value
    except (ArithmeticError, ValueError):  # bad syntax, a NaN or a zero denominator
        pass
    raise ParseError(f"bad {what} {text!r}: not a{' whole' * whole} number in float range")


def _checkpoints(text: str) -> list[int]:
    values = [_number(tok, "checkpoint", whole=True) for tok in text.split(",") if tok.strip()]
    if not values or values != sorted(values):
        raise ParseError("checkpoints must be ascending")
    if values[0] < 1:
        raise ParseError("checkpoints must be positive")
    return values


# -- group ------------------------------------------------------------------------


def group_report(spec: str) -> dict:
    return permgroup.report(spec)


def cmd_group(args) -> None:
    _emit_json(group_report(args.spec), args.out)


# -- quadratic ----------------------------------------------------------------------

# largest x for `quadratic fields`: it lists every reduced form of every
# discriminant, so its time grows as x^2 (radical order to 5e4: about 65 s)
FIELDS_CAP = 5 * 10 ** 4


def cmd_quadratic(args) -> None:
    checkpoints = _checkpoints(args.checkpoints)
    if args.r is not None and args.kind != "probability":
        raise ParseError(f"--r applies only to probability scans, not to {args.kind}")
    if args.r is not None and args.r < 0:
        raise ParseError(f"--r must be nonnegative, got {args.r}")
    if args.kind == "moment":
        rows = quadratic.moment_scan(checkpoints, order=args.order, jobs=args.jobs)
        table = [(x, n, f"{e:.12g}") for x, n, e in rows]
        _emit_table("x,N,E_hat", table, args)
    elif args.kind == "probability":
        if args.r is None:
            raise ParseError("probability scan needs --r")
        rows = quadratic.rank_probability_scan(checkpoints, args.r,
                                               order=args.order, jobs=args.jobs)
        table = [(x, n, f"{p:.12g}") for x, n, p in rows]
        _emit_table("x,N,P_hat", table, args)
    else:  # fields
        if checkpoints[-1] > FIELDS_CAP:
            raise CapExceeded(f"x = {checkpoints[-1]} exceeds the fields cap {FIELDS_CAP}")
        bound_kind = "radical" if args.order == "radical" else "abs_disc"
        rows = []
        for D in quadratic.enumerate_discriminants(bound_kind, checkpoints[-1]):
            rec = quadratic.class_group_data(D)
            rows.append((rec.D, rec.h, rec.rk2, rec.P, rec.omega,
                         str(quadratic.genus_check(rec)).lower()))
        _emit_table("D,h,rk2,P,omega,genus_ok", rows, args)


# -- abelian ------------------------------------------------------------------------


def _abelian_group_from_spec(spec: str) -> abelian_fields.AbelianGroupSpec:
    factors = permgroup.cyclic_factors(spec.strip())
    if factors is None:
        raise ParseError(f"abelian counting needs a spec Cm or CmxCn..., got {spec!r}")
    return abelian_fields.AbelianGroupSpec(factors)


def _omega_selector(group: abelian_fields.AbelianGroupSpec, text: str | None):
    if not text:
        return frozenset()
    q_text, _, l_text = text.partition(":")
    try:
        q = int(q_text)
        l = math.inf if l_text in ("inf", "linf", "") else int(l_text)
    except ValueError as exc:
        raise ParseError(f"bad omega selector {text!r}") from exc
    if not is_prime(q) or l < 1:
        raise ParseError(f"omega selector {text!r} needs a prime q and l >= 1")
    omega = group.omega_subset(q, l)
    if not omega:
        raise ParseError(f"omega selector {text!r} selects no element of the group")
    return omega


def cmd_abelian(args) -> None:
    group = _abelian_group_from_spec(args.spec)
    checkpoints = _checkpoints(args.checkpoints)
    if args.r is not None and not args.omega:
        raise ParseError("--r needs --omega")
    if args.r is not None and args.r < 0:
        raise ParseError(f"--r must be nonnegative, got {args.r}")
    omega = _omega_selector(group, args.omega)
    semantics = ("generator_in_omega" if args.semantics == "generator"
                 else "subgroup_meets_omega")
    r = args.r if args.r is not None else 0
    cap = _number(args.cap, "--cap", whole=True) if args.cap is not None else None
    if cap is not None and cap < 0:
        raise ParseError(f"--cap must be nonnegative, got {args.cap}")
    strat = abelian_fields.count_stratified(group, omega, checkpoints, r,
                                            semantics=semantics, cap=cap)
    # the strata and the spill row above r partition the total
    totals = [sum(column) for column in zip(*strat)]
    aut = abelian_fields.automorphism_count(group)
    rows = []
    for k, x in enumerate(checkpoints):
        pairs = strat[r][k]
        assert pairs % aut == 0, "pair count must be divisible by |Aut(G)|"
        ratio = pairs / totals[k] if totals[k] else 0.0
        rows.append((x, r, pairs, pairs // aut, f"{ratio:.12g}"))
    _emit_table("x,r,count_pairs,count_fields,ratio", rows, args)


# -- asymptotic ---------------------------------------------------------------------


def _parse_params(text: str | None) -> dict:
    params: dict = {}
    if not text:
        return params
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        key, _, value = chunk.partition("=")
        if not value:
            raise ParseError(f"bad parameter {chunk!r}")
        key = key.strip()
        value = value.strip()
        if value in ("true", "false"):
            params[key] = value == "true"
        else:
            params[key] = _number(value, f"parameter {key}")
    return params


def cmd_asymptotic(args) -> None:
    if args.mode == "predict":
        shape = dirichlet.predicted_shape(args.kind, **_parse_params(args.params))
        payload = {
            "kind": args.kind,
            "log_exp": _frac(shape.log_exp),
            "loglog_exp": _frac(shape.loglog_exp),
            "scale": shape.scale(),
        }
        _emit_json(payload, args.out)
        return
    try:
        with open(args.csv) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {args.csv}: {exc}") from exc
    data_lines = lines[1:] if lines and not lines[0][0].isdigit() else lines
    rows = []
    for line in data_lines:
        cells = line.split(",")
        try:
            rows.append((float(cells[0]), float(cells[1])))
        except (IndexError, ValueError) as exc:
            raise ParseError(f"bad fit row {line!r}") from exc
    fixed = (_number(args.loglog_exp, "--loglog-exp")
             if args.loglog_exp is not None else None)
    fit = dirichlet.fit_asymptotic(rows, loglog_exp=fixed)
    payload = {
        "log_exp": _fnum(fit.log_exp),
        "loglog_exp": _fnum(fit.loglog_exp),
        "constant": _fnum(fit.constant),
        "max_rel_residual": _fnum(fit.max_rel_residual),
    }
    _emit_json(payload, args.out)


# -- bounds ------------------------------------------------------------------------


def cmd_bounds(args) -> None:
    if not is_prime(args.q) or args.l < 1:
        raise ParseError(f"--q must be prime and --l positive, got q = {args.q}, l = {args.l}")
    try:
        with open(args.profile) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.profile}: {exc}") from exc
    profile = bounds.parse_profile(text)
    payload: dict = {"degree": profile.degree, "q": args.q, "l": args.l}
    rz_inputs = None
    if args.rz_inputs:
        try:
            rk, vq, delta = (int(tok) for tok in args.rz_inputs.split(","))
        except ValueError as exc:
            raise ParseError(f"bad --rz-inputs {args.rz_inputs!r}") from exc
        rz_inputs = bounds.RZInputs(rk, vq, delta)
    payload["rz"] = bounds.rz_lower_bound(profile, args.q, args.l, inputs=rz_inputs)
    try:
        raw, clamped, data = bounds.genus_rank_lower_bound(profile, args.q, args.l)
        payload["genus"] = {
            "lower_bound_raw": raw,
            "lower_bound": clamped,
            "abelian_part": list(data.abelian_part),
        }
    except RamclassError:
        payload["genus"] = None
    if args.relative is not None:
        payload["relative"] = bounds.rz_relative_lower_bound(
            profile, args.q, args.l, n=args.relative)
    if args.d4:
        payload["d4"] = bounds.d4_bounds(profile)
    _emit_json(payload, args.out)


# -- driver -------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other user error
        self.exit(EXIT_PARSE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ramclass",
        description="ramification-driven class group statistics")
    sub = parser.add_subparsers(dest="command", required=True)

    def scan_options(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("group", help="group invariants report")
    p.add_argument("spec")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("quadratic", help="quadratic-field scans")
    p.add_argument("kind", choices=["moment", "probability", "fields"])
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--order", choices=list(quadratic.SCAN_ORDERS), default="radical")
    scan_options(p)
    p.set_defaults(func=cmd_quadratic)

    p = sub.add_parser("abelian", help="exact abelian field counts")
    p.add_argument("spec")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--omega", help="q:l selector, e.g. 3:inf or 2:1")
    p.add_argument("--r", type=int)
    p.add_argument("--semantics", choices=["subgroup", "generator"],
                   default="subgroup")
    p.add_argument("--cap", help="largest x allowed, e.g. 1e6")
    scan_options(p)
    p.set_defaults(func=cmd_abelian)

    p = sub.add_parser("asymptotic", help="shape prediction and fitting")
    p.add_argument("mode", choices=["predict", "fit"])
    p.add_argument("--kind", choices=["abelian", "dihedral_upper", "dq_upper"])
    p.add_argument("--params")
    p.add_argument("--csv")
    p.add_argument("--loglog-exp", dest="loglog_exp")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("bounds", help="rank bounds from a profile file")
    p.add_argument("profile")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--relative", type=int)
    p.add_argument("--d4", action="store_true")
    p.add_argument("--rz-inputs", dest="rz_inputs")
    p.set_defaults(func=cmd_bounds)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--loglog-exp -3/2`` as ``--loglog-exp=-3/2``.

    argparse takes only plain negative numbers such as -1 or -0.5 for values;
    it reads -3/2 as an option and stops with "expected one argument".
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--loglog-exp" and re.match(r"-\.?\d", arg):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    try:
        if "jobs" in args and args.jobs < 1:
            raise ParseError(f"--jobs must be positive, got {args.jobs}")
        if args.command == "asymptotic":
            if args.mode == "predict" and not args.kind:
                raise ParseError("predict needs --kind")
            if args.mode == "fit" and not args.csv:
                raise ParseError("fit needs --csv")
        args.func(args)
    except RamclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in EXIT_CODES if isinstance(exc, kind)), EXIT_PARSE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
