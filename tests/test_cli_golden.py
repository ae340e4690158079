"""Pinned stdout: the sha256 of each command's output, byte for byte.

A change that means to keep the CLI output byte-identical must keep these
hashes.  A change that alters output on purpose records the new hashes and
says why.
"""

import hashlib
import json

import pytest

from ramclass.cli import main
from ramclass.permgroup import PermGroup

GOLDEN = [
    ("quadratic moment --checkpoints 1e3,1e4,1e5",
     "d353efd2f4d1d9938026d5d91aafdf23f9c33ef6597fe412a6e4db7f40abd92d"),
    ("quadratic moment --checkpoints 1e3,1e4,1e5 --order absdisc",
     "c1f0969e6037f9359568f9261089aa13ef953033e3e9f7c0c14148eed8f96a91"),
    ("quadratic probability --r 1 --checkpoints 1e3,1e4,1e5",
     "92c80654fdde34d04c8c95bdcbc29b84b5cd922c4c2eafd7af0862904ac807a8"),
    ("quadratic probability --r 2 --checkpoints 1e3,1e4,1e5 --order absdisc",
     "80ee33b3ea8e8edc4a171712c642a5961af005be38ecdb93c6b502fc6fed7554"),
    ("quadratic fields --checkpoints 1e3",
     "769f1c1b4a4325aae91dee2f14f343f1b363824acfd16037844ae190fa4c33d2"),
    ("quadratic fields --checkpoints 1e3 --format json",
     "0261fd8e5fb19e755efa073b2e1fe5c9d50b2dad63b01a93f4c83df540a1b479"),
    ("abelian C3 --checkpoints 1e4,1e5 --omega 3:inf --r 2",
     "9c144acddc94b87e5e1be9fbf99408739613c0c3927c0e2f6e7123038d1e4e94"),
    ("group S4",
     "da8b173d09363fdb53b5ff443d22c181ec4506f2f02f290dd7a46a6f2ebe6399"),
    ("quadratic probability --r 0 --checkpoints 1e3,1e5,1e6 --jobs 2",
     "c28cc2717b47fe69a9e800cd3f5ae8ff71daf30f50ac99ef6a299388be15d1c7"),
    ("quadratic fields --checkpoints 1e3 --order absdisc",
     "5da5640d69767ca67643799f2f69fe7c9d28012cc245c017b12568c789dd777e"),
    ("group D4@S4", "3e3ac383c042b279699e716ae564586e10d186f8243396320c442741b1a5b221"),
    ("group C2xC4", "1a4ec952a94640d5f61d4dedc1b6b95e7917e928477e8e85cd6c2815988dbcce"),
    ("asymptotic predict --kind abelian --params beta_complement=-1,r=2",
     "2df63a287f716fe5333e30477e1fa07dccc5d3d31413fadab97f0219f65d56f6"),
    # a non-abelian report with no dihedral structure (S7, A4@S6), the regular
    # dihedral action, and abelian groups with two non-random primes (C12) or rank 3
    ("group S7", "7c0db70b4fb727a7f9b4bebdfd3d568c0806ba68a5f4cca39f62961cf063470e"),
    ("group A4@S6", "618b2bcf0a9895fd9bd7603da85531f713d6cb731c3a7a530b694caf27760adb"),
    ("group D6@reg", "9aced6d945b87d43decccb4966ee931e29a2bf5f4fa7d49a622775b1d9708dfb"),
    ("group C12", "e6505e465d66817271cf71ed3e22b64beb512d528ebe3aedba886d5fb6f38a3c"),
    ("group C2xC2xC2", "f5eb6fc803dbcd563bfb049a01b2810c8458934eb27dc73b4d17d08d1c5f86f6"),
    # dihedral groups for odd n, for a larger n, and in the natural action of degree 12
    ("group D9@reg", "ff2edd29624336cb22b4084ff18a3397ec06ddf3d9946d97c7cf6f61ad0723d9"),
    ("group D40@reg", "e97b4e5ebb611cdbe9eeb4b1677da63ff85820ed158b71c0e93ef72678ff1cfe"),
    ("group D12@S12", "fe17afd588f7086b20b64a633d7ad8d9188c86c6d4ef05412b1a56feb8f5f083"),
    # three non-random primes (C60), layers 2^1..2^3 and 3^1..3^2 (C360), rank 4, and
    # dihedral groups of odd n in the regular action and of degree 10 in the natural one
    ("group C60", "393d32a73819881eb42b4dd41c48401c18e656c4d2a67387774be6cd85ab5da7"),
    ("group C360", "0f517b1145887909ddcb5873587f78e4992e89e5a52950cc3a19e732aa04c561"),
    ("group C2xC2xC2xC2", "5c0ffd374a35b2c08e01b962c503b791978cb54d1308f9a3fe64846c02c5a7f1"),
    ("group D15@reg", "ffaa8fa18513b9a5825718e6ea50528dbf67999ba581d995b13f0c03611e4dc3"),
    ("group D10@S10", "f5f9d337e2935e4965e61569846a23a00d7b33b63a6f36a5e5a2dafe584a1f60"),
    # closures of three or more generators, whose levels take rows from several steps
    ("group C2xC2xC2xC2xC2xC2xC2",
     "93b29faffd22afc4d640f6de347d270f6e640ceffb4d2d83f77dbad324eebb97"),
    ("group C3xC3xC3", "eaeade9704a9a4bddb0442d9ab81e79a8c7e9a288243506c8cc9a9862109a9c1"),
    ("group C2xC4xC8", "2c3488c589a79e08d8ff32645222108e3f5064c26ed14768d2e02af395d1d00f"),
]

# inputs of the file-reading commands: the cubic and quartic profiles of the
# benchmark's bounds workload, a D4 profile with a wild prime 2 and primes in
# every inertia class of order 2 or 4, and the C3 counts with Omega = 3:inf, r = 2
FILES = {
    "cubic.profile":
        "degree: 3\nabelian_rank: 3=1\n7: 3\n13: 3\n19: 3\n31: 3\n5: 1,2\n43: 3\n",
    "quartic.profile":
        "degree: 4\nabelian_rank: 2=1\n3: 2,2\n5: 4\n13: 2,1,1\n17: 2,2\n29: 4\n37: 4\n",
    "d4.profile":
        "degree: 4\ngroup: D4@S4\nabelian_rank: 2=2\n2: class=(1 2 3 4)\n3: class=(1 2 3 4)\n"
        "5: class=(1 3)(2 4)\n7: class=(1 4)(2 3)\n11: class=(1 3)\n13: class=(1 4 3 2)\n",
    "counts.csv":
        "x,N\n10000,1988\n100000,21288\n1000000,210388\n10000000,2021156\n"
        "100000000,19215088\n",
}

GOLDEN_FILES = [
    ("bounds {tmp}/cubic.profile --q 3",
     "d8c43bf1c9304106ce2e7d6ce230430c6c6adb37ee829df93d2ea58791528085"),
    ("bounds {tmp}/cubic.profile --q 3 --relative 2 --rz-inputs 2,1,0",
     "f17cbe4aae40b60ec107c92acb660ccd2d7340c092b25a5e74d525130d4b8b4c"),
    ("bounds {tmp}/quartic.profile --q 2",
     "6813782b14df3449db8560459d46d5ebcc058378fbe0ade2beb43b3551239a94"),
    ("bounds {tmp}/quartic.profile --q 2 --l 2 --relative 4 --rz-inputs 3,2,1",
     "09026eee5be358290649db83024fb8217d70839381ce4349909cfa39e6ededce"),
    ("bounds {tmp}/d4.profile --q 2 --relative 4 --d4",
     "312baee7dd5fc763ddfe643f3842f9066e86a115d1993423664cff7982034401"),
    ("asymptotic fit --csv {tmp}/counts.csv",
     "a2e6a31d198c49d5288f99dabbff5487d2bcceaaba516d9d9ca13845d76c8d20"),
    ("asymptotic fit --csv {tmp}/counts.csv --loglog-exp 2",
     "3231c2dc088bb6289f97894e8fbedc29f11a45986c33ed6a8c72514472fa2842"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN)
def test_stdout_is_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", GOLDEN_FILES)
def test_stdout_on_files_is_pinned(tmp_path, capsys, argv, digest):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert main(argv.format(tmp=tmp_path).split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# stdout digests of `group SPEC`, pinned like GOLDEN, for a report that reads only the table
UNITERATED = {
    "C12": "e6505e465d66817271cf71ed3e22b64beb512d528ebe3aedba886d5fb6f38a3c",
    "C2xC4": "1a4ec952a94640d5f61d4dedc1b6b95e7917e928477e8e85cd6c2815988dbcce",
    "D7@reg": "a3237f28bf0e9888c1240f79b6b691de2549fb99d15549e38314b269cb9ab8f5",
    "D6@S6": "7b3aebba77df7cad8c15943a4e3b8a707d76e1fb8346f2e1c5e565eb038c561d",
    "S5": "27195280454a8a8ab918341185f6cd056164be75f35d8bf21ad8fb132eb3b122",
    "A4@S6": "618b2bcf0a9895fd9bd7603da85531f713d6cb731c3a7a530b694caf27760adb",
}


@pytest.mark.parametrize("spec", sorted(UNITERATED))
def test_group_report_does_not_iterate_the_group(monkeypatch, capsys, spec):
    """The report reads the table: with PermGroup.elements raising, its bytes are unchanged."""
    def refuse(group):
        raise AssertionError("the report iterated the group")
    monkeypatch.setattr(PermGroup, "elements", property(refuse))
    assert main(["group", spec]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == UNITERATED[spec]


@pytest.mark.parametrize("argv", [
    "group C12",
    "asymptotic predict --kind abelian --params beta_complement=-1,r=2",
    "quadratic moment --checkpoints 1e3,1e4 --format json",
    "abelian C3 --checkpoints 1e4 --format json",
    "bounds {tmp}/cubic.profile --q 3",
])
def test_json_through_out_is_stdout(tmp_path, capsys, argv):
    """The streamed JSON writer gives json.dumps's bytes, the same on stdout and in --out."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argv = argv.format(tmp=tmp_path).split()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out.json").read_text() == stdout
