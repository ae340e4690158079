"""Pinned stdout: the sha256 of each command's output, byte for byte.

A change that means to keep the CLI output byte-identical must keep these
hashes.  A change that alters output on purpose records the new hashes and
says why.
"""

import hashlib

import pytest

from ramclass.cli import main

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
]


@pytest.mark.parametrize("argv,digest", GOLDEN)
def test_stdout_is_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
