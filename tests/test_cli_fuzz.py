"""Randomised argv for the scan commands: every run ends in a documented exit code.

Exit 0 prints to stdout only; every other exit prints nothing on stdout and a
single ``error:`` line on stderr, never a traceback.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from ramclass.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
# abelian specs with a prime dividing the order, so q:inf and q:1 select elements
ABELIAN = {"C2": 2, "C3": 3, "C4": 2, "C2xC2": 2, "C6": 3, "C2xC4": 2, "C7": 7}
# malformed, non-positive, overflowing or out-of-order checkpoint tokens
BAD_TOKENS = ["0", "-3", "1e400", "nan", "inf", "abc", "", "1e3"]


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


@settings(max_examples=120, deadline=None)
@given(st.one_of(abelian_argv(), quadratic_argv()))
def test_scan_argv_exit_codes(argv):
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
