import json
from importlib import resources

import jsonschema
import pytest

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
])
def test_user_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "bad.csv").write_text("x,N\n1000,10\n1e4,many\n")
    (tmp_path / "good.csv").write_text("x,N\n1000,10\n1e4,90\n1e5,800\n1e6,7000\n")
    (tmp_path / "bad.profile").write_text("degree: four\n7: 3\n")
    (tmp_path / "good.profile").write_text("degree: 3\n7: 3\n")
    code, _, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
