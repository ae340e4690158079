import json
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from ramclass import abelian_fields, cli, permgroup, quadratic
from ramclass.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = resources.files("ramclass") / "schemas" / name
    return json.loads(path.read_text())


# -- group --------------------------------------------------------------------


def test_group_d4(capsys):
    code, out, _ = run(capsys, "group", "D4@S4")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("group_report.schema.json"))
    assert report["non_random_primes"] == [2]
    assert sorted(report["omega_sets"]["2^inf"]) == sorted(
        ["(1 2 3 4)", "(1 3)(2 4)", "(1 4 3 2)", "(1 4)(2 3)", "(1 2)(3 4)"])
    assert report["betas"]["beta_F"] == 1


def test_group_c2_beta(capsys):
    code, out, _ = run(capsys, "group", "C2")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("group_report.schema.json"))
    assert report["betas"]["beta_total"] == 1


def test_group_bad_spec_exit_2(capsys):
    code, _, err = run(capsys, "group", "Q8")
    assert code == 2
    assert "error" in err


# a spec number past the 4 300 digits that int() reads from a string
NINES = "9" * 5000


@pytest.mark.parametrize("spec", ["S8", "C10001", "C2xC5001", "D5001@reg", "D5001@S5001",
                                  "S1559", "S99999999999999999999"] + [
    pytest.param(spec.format(NINES), id=spec.format("9x5000"))
    for spec in ("C{}", "S{}", "D{}@reg", "D3@S{}", "C2xC{}")])
def test_group_order_cap_exit_4(capsys, monkeypatch, spec):
    """Each spec is refused by its order before its closure is built, Sn without making n!,
    which past S1558 has more digits than str() gives, and a number of thousands of digits
    before int() reads it."""
    reached = []

    def generate(*args, **kwargs):
        reached.append(spec)
        raise AssertionError("the closure was built")

    monkeypatch.setattr(permgroup.PermGroup, "generate", generate)
    code, out, err = run(capsys, "group", spec)
    assert code == 4 and out == "" and not reached
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_group_deterministic(capsys):
    _, out1, _ = run(capsys, "group", "A4@S6")
    _, out2, _ = run(capsys, "group", "A4@S6")
    assert out1 == out2


# -- quadratic ----------------------------------------------------------------


def test_quadratic_moment_csv(capsys):
    code, out, _ = run(capsys, "quadratic", "moment", "--checkpoints", "1e3,1e4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,N,E_hat"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1000" and float(first[2]) > 1


def test_quadratic_probability_requires_r(capsys):
    code, _, _ = run(capsys, "quadratic", "probability", "--checkpoints", "1e3")
    assert code == 2


def test_quadratic_empty_range_exit_3(capsys):
    code, _, _ = run(capsys, "quadratic", "moment", "--checkpoints", "2")
    assert code == 3


def test_quadratic_fields_csv(capsys):
    code, out, _ = run(capsys, "quadratic", "fields", "--checkpoints", "10",
                       "--order", "absdisc")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "D,h,rk2,P,omega,genus_ok"
    assert lines[1] == "-3,1,0,3,1,true"
    assert len(lines) == 5


def test_quadratic_jobs_deterministic(capsys):
    _, out1, _ = run(capsys, "quadratic", "moment", "--checkpoints", "1e3,5e3")
    _, out2, _ = run(capsys, "quadratic", "moment", "--checkpoints", "1e3,5e3",
                     "--jobs", "3")
    assert out1 == out2


# -- abelian ------------------------------------------------------------------


def test_abelian_totals_match_quadratic_radical_counts(capsys):
    code, out, _ = run(capsys, "abelian", "C2", "--checkpoints", "100,1000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,r,count_pairs,count_fields,ratio"
    from ramclass.quadratic import enumerate_discriminants

    for line in lines[1:]:
        x, _, pairs, fields, ratio = line.split(",")
        expected = len(enumerate_discriminants("radical", int(x), signs="both"))
        assert int(pairs) == expected == int(fields)
        assert ratio == "1"


def test_abelian_omega_table(capsys):
    code, out, _ = run(capsys, "abelian", "C3", "--checkpoints", "1e3,1e4",
                       "--omega", "3:inf", "--r", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert all(row[1] == "2" for row in rows)
    assert int(rows[0][2]) % 2 == 0  # pairs divisible by |Aut(C3)|
    assert 0 < float(rows[0][4]) < 1


def test_abelian_cap_exit_4(capsys):
    code, _, _ = run(capsys, "abelian", "C2xC4", "--checkpoints", "1e6")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["C128", "--checkpoints", "1e3"],
    ["C99999999999999999999999", "--checkpoints", "1e3"],  # refused before it is factored
    ["C2xC4", "--checkpoints", "1e3", "--cap", "0"],
    ["C2xC4", "--checkpoints", "1e5", "--cap", "1e4"],
    [f"C{NINES}", "--checkpoints", "100"],  # refused before int() reads it
])
def test_abelian_cap_cases_exit_4(capsys, argv):
    code, out, err = run(capsys, "abelian", *argv)
    assert code == 4 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_abelian_cap_takes_float_notation(capsys):
    argv = ["abelian", "C2xC4", "--checkpoints", "1e3,1e4", "--omega", "2:inf", "--r", "1"]
    code, out, _ = run(capsys, *argv, "--cap", "1e4")
    assert code == 0
    assert out == run(capsys, *argv, "--cap", "10000")[1]


# rows of the slow subgroup-lattice closure this engine replaced; the C2^5 rows
# also follow from the closed form for elementary abelian 2-groups
PINNED_ROWS = {
    "C2xC2xC2xC2xC2": ["1000,3,159989760,16,1", "10000,3,3539773440,354,0.2"],
    "C4xC4xC4": ["1000,3,19267584,224,0.666666666667",
                 "10000,3,1407823872,16367,0.563582521263"],
}


@pytest.mark.parametrize("spec", list(PINNED_ROWS))
def test_abelian_large_lattice_rows(capsys, spec):
    code, out, _ = run(capsys, "abelian", spec, "--checkpoints", "1e3,1e4",
                       "--omega", "2:inf", "--r", "3")
    assert code == 0
    assert out.strip().split("\n")[1:] == PINNED_ROWS[spec]


def test_one_lattice_build_per_command(capsys, monkeypatch):
    builds = []
    inner = abelian_fields.SubgroupLattice

    def counted(*args):
        builds.append(args[0])
        return inner(*args)

    monkeypatch.setattr(abelian_fields, "SubgroupLattice", counted)
    abelian_fields.subgroup_moebius.cache_clear()
    for spec in ("C2xC2xC2", "C4xC4"):
        code, _, _ = run(capsys, "abelian", spec, "--checkpoints", "1e3",
                         "--omega", "2:inf", "--r", "1")
        assert code == 0
    assert [group.invariant_factors for group in builds] == [(2, 2, 2), (4, 4)]


def test_abelian_rejects_nonabelian(capsys):
    code, _, _ = run(capsys, "abelian", "S3", "--checkpoints", "1e3")
    assert code == 2


def test_abelian_below_first_field_gives_zeros(capsys):
    code, out, _ = run(capsys, "abelian", "C2", "--checkpoints", "2")
    assert code == 0
    assert out.strip().split("\n")[1] == "2,0,0,0,0"


def test_abelian_jobs_deterministic(capsys):
    argv = ["abelian", "C3", "--checkpoints", "1e3,1e4", "--omega", "3:inf", "--r", "1"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert out1 == out2


def test_group_rejects_csv_format(capsys):
    code, _, _ = run(capsys, "group", "C2", "--format", "csv")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["group", "C2", "--jobs", "2"],
    ["asymptotic", "predict", "--kind", "abelian", "--format", "json"],
    ["bounds", "cubic.profile", "--q", "3", "--jobs", "1"],
])
def test_reports_take_no_scan_options(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_quadratic_fields_cap_exit_4(capsys):
    code, out, err = run(capsys, "quadratic", "fields", "--checkpoints", "1e9")
    assert code == 4 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_quadratic_fields_time_cap_exit_4(capsys):
    x = str(cli.FIELDS_CAP + 1)
    code, out, err = run(capsys, "quadratic", "fields", "--checkpoints", x)
    assert code == 4 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["probability", "--checkpoints", "1e3", "--r", "-1"],
    ["moment", "--checkpoints", "1e3", "--r", "1"],
    ["fields", "--checkpoints", "1e2", "--r", "0"],
])
def test_quadratic_r_only_for_probability_and_nonnegative(capsys, argv):
    code, out, err = run(capsys, "quadratic", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


# -- integer arguments ------------------------------------------------------------


def test_checkpoints_parse_exactly(capsys):
    # 2^53 + 1 is not a float; its cap error must quote it unchanged
    code, _, err = run(capsys, "abelian", "C2", "--checkpoints", "9007199254740993")
    assert code == 4 and "9007199254740993" in err
    code, out, _ = run(capsys, "abelian", "C2", "--checkpoints", "1.5e2,2e2", "--cap", "2.5E2")
    assert code == 0
    assert [row.split(",")[0] for row in out.split()[1:]] == ["150", "200"]


@pytest.mark.parametrize("argv", [
    ["abelian", "C2", "--checkpoints", "100.7"],
    ["quadratic", "moment", "--checkpoints", "1e3,2.5e3,1e-2"],
    ["abelian", "C2", "--checkpoints", "1e3", "--cap", "999.9"],
    ["abelian", "C2", "--checkpoints", "1e3", "--cap", "-5"],
    ["abelian", "C2", "--checkpoints", "1e3", "--cap", "nan"],
])
def test_non_integral_or_negative_values_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_abelian_sieve_beyond_physical_memory_exit_4(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(abelian_fields, "_physical_memory", lambda: 8 * 2 ** 30)
    monkeypatch.setattr(abelian_fields, "sieve_primes", no_sieve)
    code, out, err = run(capsys, "abelian", "C2", "--checkpoints", "1e18", "--cap", "1e18")
    assert code == 4 and out == ""
    assert err.startswith("error:") and "physical memory" in err
    assert len(err.splitlines()) == 1


def test_abelian_beyond_int64_exit_4(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(abelian_fields, "_physical_memory", lambda: 2 ** 80)
    monkeypatch.setattr(abelian_fields, "sieve_primes", no_sieve)
    x = str(2 ** 63 + 1)
    code, out, err = run(capsys, "abelian", "C3", "--checkpoints", x, "--cap", x)
    assert code == 4 and out == ""
    assert err.startswith("error:") and "int64" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["moment", "--checkpoints", "1e3,1e13"],
    ["probability", "--r", "1", "--checkpoints", "1000000001", "--order", "absdisc"],
])
def test_quadratic_scan_beyond_its_cap_exit_4(capsys, monkeypatch, argv):
    def no_scan(task):
        raise AssertionError(f"scanned {task[:2]}")

    monkeypatch.setattr(quadratic, "_tally_segment", no_scan)
    code, out, err = run(capsys, "quadratic", *argv)
    assert code == 4 and out == ""
    assert err.startswith("error:") and "scan cap" in err
    assert len(err.splitlines()) == 1


# -- asymptotic ---------------------------------------------------------------


def test_predict_abelian(capsys):
    code, out, _ = run(capsys, "asymptotic", "predict", "--kind", "abelian",
                       "--params", "beta_complement=0,r=3")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("predict_report.schema.json"))
    assert report["log_exp"] == "-1" and report["loglog_exp"] == "3"


def test_predict_dq(capsys):
    code, out, _ = run(capsys, "asymptotic", "predict", "--kind", "dihedral_upper",
                       "--params", "beta_F_complement=0,beta_F=1,beta1=0,r=2")
    report = json.loads(out)
    assert report["log_exp"] == "1/2" and report["loglog_exp"] == "2"


def test_fit_roundtrip(tmp_path, capsys):
    import math

    path = tmp_path / "table.csv"
    rows = ["x,N"]
    for k in range(9, 22):
        x = 10 ** (k / 3)
        rows.append(f"{x},{x * math.log(x) ** -1 * math.log(math.log(x)) ** 2}")
    path.write_text("\n".join(rows))
    code, out, _ = run(capsys, "asymptotic", "fit", "--csv", str(path))
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("fit_report.schema.json"))
    assert abs(report["log_exp"] + 1) < 0.2
    assert abs(report["loglog_exp"] - 2) < 0.2


@pytest.mark.parametrize("argv", [
    ["asymptotic", "fit", "--csv", "{tmp}", "--loglog-exp", "1e400"],
    ["asymptotic", "predict", "--kind", "abelian", "--params", "beta_complement=1e-999999,r=3"],
    ["asymptotic", "predict", "--kind", "abelian", "--params", "beta_complement=1e9999999,r=3"],
    ["asymptotic", "predict", "--kind", "dq_upper", "--params", "r=1e5000"],
    ["abelian", "C2", "--checkpoints", "1e-9999999"],
    ["abelian", "C2", "--checkpoints", "1e3", "--cap", "1e-9999999"],
])
def test_numbers_outside_float_range_are_refused_at_once(tmp_path, capsys, argv):
    """Each literal is too large for a float, or nonzero and below its range; read exactly, it
    overflowed a float later or took seconds per exponent digit to expand."""
    import time

    path = tmp_path / "table.csv"
    path.write_text("x,N\n1000,300\n10000,2500\n100000,21000\n1000000,180000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *(arg.format(tmp=path) for arg in argv))
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, value", [("1e6", 10 ** 6), ("1/2", Fraction(1, 2)),
                                         ("-3/2", Fraction(-3, 2)), ("2.5", Fraction(5, 2)),
                                         ("0.1", Fraction(1, 10)), ("0e-9999999", 0)])
def test_numbers_are_read_exactly(text, value):
    assert cli._number(text, "x") == value


@pytest.mark.parametrize("exponent", ["-3/2", "-1", "-.5"])
def test_fit_negative_loglog_exp_as_separate_token(tmp_path, capsys, exponent):
    path = tmp_path / "table.csv"
    path.write_text("x,N\n1000,300\n10000,2500\n100000,21000\n1000000,180000\n")
    outputs = []
    for tail in (["--loglog-exp", exponent], [f"--loglog-exp={exponent}"]):
        code, out, err = run(capsys, "asymptotic", "fit", "--csv", str(path), *tail)
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["loglog_exp"] == float(Fraction(exponent))


def test_fit_two_rows_exit_5(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("x,N\n1000,10\n1000000,20\n")
    code, _, _ = run(capsys, "asymptotic", "fit", "--csv", str(path))
    assert code == 5


def test_abelian_to_fit_pipeline(tmp_path, capsys):
    # counting output feeds the fitter end to end through files
    counts_path = tmp_path / "c3_r2.csv"
    code, _, _ = run(capsys, "abelian", "C3", "--omega", "3:inf", "--r", "2",
                     "--checkpoints", "1e4,1e5,1e6,1e7",
                     "--out", str(counts_path))
    assert code == 0
    table_path = tmp_path / "table.csv"
    rows = ["x,N"]
    for line in counts_path.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        rows.append(f"{cells[0]},{cells[2]}")
    table_path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "asymptotic", "fit", "--csv", str(table_path),
                       "--loglog-exp", "2")
    assert code == 0
    report = json.loads(out)
    assert abs(report["log_exp"] + 1) <= 0.4


# -- bounds ---------------------------------------------------------------------


CUBIC_PROFILE = """
degree: 3
abelian_rank: 3=0
7: 3
13: 3
19: 3
31: 3
37: 3
43: 3
61: 3
"""

D4_PROFILE = """
degree: 4
group: D4@S4
3: class=(1 2 3 4)
5: class=(1 3)(2 4)
7: class=(1 4)(2 3)
"""


def test_bounds_cubic(tmp_path, capsys):
    path = tmp_path / "cubic.profile"
    path.write_text(CUBIC_PROFILE)
    code, out, _ = run(capsys, "bounds", str(path), "--q", "3")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("bounds_report.schema.json"))
    assert report["rz"]["lower_bound"] == 3
    assert report["genus"]["lower_bound"] == 7


def test_bounds_d4(tmp_path, capsys):
    path = tmp_path / "d4.profile"
    path.write_text(D4_PROFILE)
    code, out, _ = run(capsys, "bounds", str(path), "--q", "2", "--relative", "4",
                       "--d4")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("bounds_report.schema.json"))
    assert report["d4"]["omega2"]["tally"] == 3
    assert report["relative"]["type_count"] == 3


def test_bounds_read_the_rank_off_an_abelian_group(tmp_path, capsys):
    # no abelian_rank line: rk_2 of the maximal abelian subextension is the group's own
    path = tmp_path / "klein.profile"
    path.write_text("degree: 4\ngroup: C2xC2\n5: class=(1 2)(3 4)\n13: class=(1 3)(2 4)\n"
                    "17: class=(1 4)(2 3)\n")
    code, out, _ = run(capsys, "bounds", str(path), "--q", "2")
    assert code == 0
    genus = json.loads(out)["genus"]
    assert genus["lower_bound_raw"] == 1 and genus["abelian_part"] == [2, 2, 2]


def test_bounds_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "bounds", "/nonexistent.profile", "--q", "2")
    assert code == 2


def test_bounds_out_file(tmp_path, capsys):
    src = tmp_path / "cubic.profile"
    src.write_text(CUBIC_PROFILE)
    dst = tmp_path / "report.json"
    code, out, _ = run(capsys, "bounds", str(src), "--q", "3", "--out", str(dst))
    assert code == 0 and out == ""
    report = json.loads(dst.read_text())
    assert report["rz"]["type_count"] == 7


def test_bounds_large_l_counts_no_type(tmp_path, capsys):
    path = tmp_path / "cubic.profile"
    path.write_text(CUBIC_PROFILE)
    code, out, _ = run(capsys, "bounds", str(path), "--q", "3", "--l", "10000000")
    assert code == 0
    assert json.loads(out)["rz"]["type_count"] == 0


def test_bounds_q_beyond_primality_range_exit_4(tmp_path, capsys):
    path = tmp_path / "cubic.profile"
    path.write_text(CUBIC_PROFILE)
    code, out, err = run(capsys, "bounds", str(path), "--q", "3317044064679887385961981")
    assert code == 4 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


# -- user errors -------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["abelian", "C3", "--checkpoints", "1e4", "--omega", "3:inf", "--r", "-1"],
    ["abelian", "C3", "--checkpoints", "0"],
    ["quadratic", "moment", "--checkpoints", "0"],
    ["asymptotic", "predict", "--kind", "abelian"],
    ["abelian", "C3", "--checkpoints", "1e3", "--jobs", "0"],
    ["quadratic", "moment", "--checkpoints", "1e3", "--jobs", "-3"],
    ["abelian", "C3", "--checkpoints", "1e3", "--omega", "5:inf", "--r", "1"],
    ["abelian", "C3", "--checkpoints", "1e3", "--omega", "4:inf"],
    ["abelian", "C3", "--checkpoints", "1e3", "--r", "1"],
    ["asymptotic", "fit", "--csv", "{tmp}/bad.csv"],
    ["asymptotic", "fit", "--csv", "{tmp}/good.csv", "--loglog-exp", "abc"],
    ["asymptotic", "predict", "--kind", "abelian", "--params", "beta_complement=1/0"],
    ["abelian", "C3", "--checkpoints", "1e400"],
    ["bounds", "{tmp}/bad.profile", "--q", "3"],
    ["bounds", "{tmp}/good.profile", "--q", "0"],
    ["bounds", "{tmp}/good.profile", "--q", "3", "--rz-inputs", "9,0,0"],
    ["bounds", "{tmp}/good.profile", "--q", "3", "--d4"],
    ["group", "C2", "--format", "csv"],
    ["abelian", "C3"],
    ["quadratic", "nosuch", "--checkpoints", "1e3"],
    ["abelian", "C1", "--checkpoints", "1e3"],
    ["abelian", "C2xC1", "--checkpoints", "1e3"],
    ["abelian", "S3", "--checkpoints", "1e3"],
    ["abelian", "D4@S4", "--checkpoints", "1e3"],
    ["abelian", "A4@S6", "--checkpoints", "1e3"],
    ["abelian", "foo", "--checkpoints", "1e3"],
    ["abelian", "C2xC4", "--checkpoints", "1e3", "--cap", "abc"],
    ["bounds", "{tmp}/good.profile", "--q", "3", "--relative", "0"],
    ["bounds", "{tmp}/good.profile", "--q", "3", "--relative", "-5"],
    ["group", "C2", "--out", "{tmp}/no/such/dir/x.json"],
    ["group", "S1"],
    ["group", "D2@S2"],
    ["bounds", "{tmp}/repeated_point.profile", "--q", "3"],
    ["bounds", "{tmp}/class_first.profile", "--q", "3"],
    ["bounds", "{tmp}/good.profile", "--q", "3", "--rz-inputs", "1,2"],
    ["asymptotic", "predict", "--kind", "abelian", "--params", "beta_complement"],
    ["abelian", "C3", "--checkpoints", "1e3", "--omega", "x:inf"],
    ["asymptotic", "fit", "--csv", "{tmp}/missing.csv"],
])
def test_user_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "bad.csv").write_text("x,N\n1000,10\n1e4,many\n")
    (tmp_path / "good.csv").write_text("x,N\n1000,10\n1e4,90\n1e5,800\n1e6,7000\n")
    (tmp_path / "bad.profile").write_text("degree: four\n7: 3\n")
    (tmp_path / "good.profile").write_text("degree: 3\n7: 3\n")
    (tmp_path / "repeated_point.profile").write_text("degree: 3\n7: class=(1 2 1)\n")
    (tmp_path / "class_first.profile").write_text("7: class=(1 2 3)\ndegree: 3\n")
    code, _, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
