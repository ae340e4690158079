"""Randomised argv for every command: every run ends in a documented exit code.

Exit 0 prints to stdout only; every other exit prints nothing on stdout and a
single ``error:`` line on stderr, never a traceback.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from ramclass.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
# abelian specs with a prime dividing the order, so q:inf and q:1 select elements
ABELIAN = {"C2": 2, "C3": 3, "C4": 2, "C2xC2": 2, "C6": 3, "C2xC4": 2, "C7": 7}
# malformed, non-positive, overflowing or out-of-order checkpoint tokens
BAD_TOKENS = ["0", "-3", "1e400", "nan", "inf", "abc", "", "1e3", "1e-9999999"]


def _pick(draw, valid, invalid):
    """A drawn value: usually a valid one, sometimes an invalid one."""
    return draw(invalid if draw(st.integers(0, 7)) == 0 else valid)


def _option(draw, name, valid, invalid):
    """[] (the option left out) a third of the time, else [name, value]."""
    if draw(st.integers(0, 2)) == 0:
        return []
    return [name, str(_pick(draw, valid, invalid))]


def _checkpoints(draw, top):
    tokens = [str(x) for x in sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=3)))]
    if draw(st.integers(0, 3)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
    return ["--checkpoints", ",".join(tokens)] if draw(st.integers(0, 9)) else []


def _scan_options(draw):
    return (_option(draw, "--jobs", st.integers(1, 3), st.integers(-2, 0))
            + _option(draw, "--format", st.sampled_from(["csv", "json"]), st.just("xml")))


@st.composite
def abelian_argv(draw):
    spec = _pick(draw, st.sampled_from(sorted(ABELIAN)),
                 st.sampled_from(["C1", "C65", "S3", "D4@S4", "A4@S6", "C2xS3", "Cx", "C2x",
                                  "", "G"]))
    q = ABELIAN.get(spec, 2)
    return (["abelian", spec] + _checkpoints(draw, 10 ** 4)
            + _option(draw, "--omega", st.sampled_from([f"{q}:inf", f"{q}:1", f"{q}:2"]),
                      st.sampled_from(["5:inf", "4:inf", "2:0", "2:-1", "x:y", "2:", ":", "7"]))
            + _option(draw, "--r", st.integers(0, 4), st.integers(-3, -1))
            + _option(draw, "--semantics", st.sampled_from(["subgroup", "generator"]),
                      st.just("bogus"))
            + _option(draw, "--cap", st.integers(10 ** 4, 10 ** 5), st.integers(-10, 10 ** 4))
            + _scan_options(draw))


@st.composite
def quadratic_argv(draw):
    kind = _pick(draw, st.sampled_from(["moment", "probability", "fields"]), st.just("nosuch"))
    # fields lists every reduced form of every D, so its range stays small
    top = 300 if kind == "fields" else 10 ** 4
    return (["quadratic", kind] + _checkpoints(draw, top)
            + _option(draw, "--r", st.integers(0, 4), st.integers(-3, -1))
            + _option(draw, "--order", st.sampled_from(["radical", "absdisc"]), st.just("bogus"))
            + _scan_options(draw))


GROUP_SPECS = ["C2", "C3", "C6", "C2xC2", "C2xC4", "S3", "S4", "D4@S4", "D5@S5", "D4@reg",
               "A4@S6"]
BAD_GROUP_SPECS = ["C1", "C0", "S1", "D2@S2", "D4@S5", "C2xS3", "", "G", "C100000", "S99", "Cx",
                   "D@S", "A5@S6", "S1559", "S99999999999999999999"] + [
    spec.format("9" * 5000) for spec in ("C{}", "S{}", "D{}@reg", "D3@S{}")]


@st.composite
def group_argv(draw):
    spec = _pick(draw, st.sampled_from(GROUP_SPECS), st.sampled_from(BAD_GROUP_SPECS))
    # group takes no scan options, so these are argparse errors
    extra = draw(st.sampled_from([[], [], [], ["--format", "csv"], ["--jobs", "2"]]))
    return ["group", spec] + extra


# fractions, flags, malformed values and a zero denominator for --params
PARAM_VALUES = ["1", "0", "-1", "2", "1/2", "-3/4", "true", "false", "1/0", "abc", "2.5", "1e3",
                "1e999999", "1e-999999"]
PARAM_KEYS = ["beta_complement", "r", "omega_empty", "beta_F_complement", "beta_F", "beta1",
              "bogus"]


@st.composite
def predict_argv(draw):
    chunks = draw(st.lists(st.one_of(
        st.builds(lambda k, v: f"{k}={v}", st.sampled_from(PARAM_KEYS),
                  st.sampled_from(PARAM_VALUES)),
        st.sampled_from(["r", "=1", "", " ", "r=", "r==1"])), max_size=5))
    return (["asymptotic", "predict"]
            + _option(draw, "--kind", st.sampled_from(["abelian", "dihedral_upper", "dq_upper"]),
                      st.just("bogus"))
            + (["--params", ",".join(chunks)] if draw(st.booleans()) else []))


# x and N cells of a fit table: mostly a clean power law, sometimes a value the
# fit must reject (zero, negative, below e^e, not finite, not a number)
BAD_CELLS = ["0", "-5", "10", "nan", "inf", "-inf", "1e400", "abc", ""]


@st.composite
def fit_table(draw):
    rows = []
    for k in sorted(draw(st.sets(st.integers(2, 12), min_size=3, max_size=8))):
        x = 10.0 ** k
        n = x / k ** draw(st.sampled_from([0.5, 1, 2]))
        cells = [repr(x), repr(n)]
        if draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_CELLS))
        if draw(st.integers(0, 19)) == 0:
            cells = cells[:1]
        rows.append(",".join(cells))
    header = ["x,N"] if draw(st.booleans()) else []
    return "\n".join(header + rows) + "\n"


@st.composite
def fit_argv(draw):
    argv = ["asymptotic", "fit"]
    if draw(st.integers(0, 9)):
        argv += ["--csv", draw(st.sampled_from(["{tmp}/fit.csv"] * 5 + ["{tmp}/missing.csv"]))]
    return argv + _option(draw, "--loglog-exp", st.sampled_from(["1", "0", "1/2", "-1"]),
                          st.sampled_from(["abc", "1/0", "", "1e400"]))


# profile lines: exponent vectors, inertia classes, ranks, groups and junk
PROFILE_LINES = ["7: 3", "13: 3", "19: 3", "5: 1,2", "3: 2,2", "5: 4", "17: 2,2", "2: 2",
                 "11: 2,1,1", "7: 3,3", "13: 6", "5: class=(1 2 3 4)", "7: class=(1 3)(2 4)",
                 "11: class=(1 2)(3 4)", "3: class=(1 2 3)", "13: class=(1 2)",
                 "abelian_rank: 3=1", "abelian_rank: 2=1", "abelian_rank: 2=0",
                 "group: D4@S4", "group: S3", "group: C4", "group: S4", "group: A4@S6"]
BAD_PROFILE_LINES = ["7: 0", "7: 9", "7:", "x: 3", "7: class=(1 9)", "7: class=(1 2",
                     "abelian_rank: 3", "abelian_rank: q=1", "group: bogus", "degree: four",
                     "degree: 0", "degree: -2", "7 3", "# a comment"]


@st.composite
def profile_text(draw):
    degree = _pick(draw, st.sampled_from([2, 3, 4, 6]), st.sampled_from([0, 1, -3]))
    lines = [_pick(draw, st.sampled_from(PROFILE_LINES), st.sampled_from(BAD_PROFILE_LINES))
             for _ in range(draw(st.integers(0, 8)))]
    if draw(st.integers(0, 9)):
        lines.insert(0, f"degree: {degree}")
    return "\n".join(lines) + "\n"


@st.composite
def bounds_argv(draw):
    argv = ["bounds", draw(st.sampled_from(["{tmp}/profile.txt"] * 9 + ["{tmp}/missing.txt"]))]
    if draw(st.integers(0, 9)):
        argv += ["--q", str(_pick(draw, st.sampled_from([2, 3, 5]), st.integers(-3, 4)))]
    return (argv + _option(draw, "--l", st.integers(1, 3), st.integers(-2, 0))
            + _option(draw, "--relative", st.integers(1, 6), st.integers(-5, 0))
            + (["--d4"] if draw(st.integers(0, 3)) == 0 else [])
            + _option(draw, "--rz-inputs",
                      st.builds(lambda *v: ",".join(map(str, v)), st.integers(0, 4),
                                st.integers(0, 2), st.integers(0, 1)),
                      st.sampled_from(["1,2", "a,b,c", "-1,0,0", "1,0,2", "9,0,0", ""])))


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out
    else:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


@settings(max_examples=120, deadline=None)
@given(st.one_of(abelian_argv(), quadratic_argv()))
def test_scan_argv_exit_codes(argv):
    _check(argv)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(group_argv(), predict_argv(), fit_argv(), bounds_argv()),
       fit_table(), profile_text())
def test_report_argv_exit_codes(tmp_path, argv, table, profile):
    """group, asymptotic and bounds; the fit table and the profile go to tmp_path."""
    (tmp_path / "fit.csv").write_text(table)
    (tmp_path / "profile.txt").write_text(profile)
    _check([arg.format(tmp=tmp_path) for arg in argv])
