"""Pinned stdout bytes of rank-4 and rank-5 invocations, whose outputs run to
megabytes: the fast output paths (packed matrices, the JSON writer, the CSV
grid) must print exactly what they printed before."""

import hashlib

import pytest

from heckekl.cli import main

# (invocation, format, sha256 of stdout); every invocation exits 0
LARGE = [
    ("factorize --group A5", "json", "dab803c3b1c0ac006e2e6b1ab688e7cc412f2e288b916794c29ae3859694ae00"),
    ("factorize --group A5", "csv", "6999388653eacdefefae8391f33513c8e21dd90be49a089b8a0a9350e7f37300"),
    ("kl --group A4", "json", "ca4fa3fc457521589ec6ca17dfd76ea84ef3485be026751de106bacdd1b0b6d9"),
    ("kl --group A4", "csv", "ba6263d5b8f769d732e2697cf1541572e6d8779471dcc35b7f72b28a073b545c"),
    ("parabolic --group A5 --J 1,2,4", "json", "bf66523b1e3a1a4b7f0af7c8f7335e4db0e80a0d8dc96fde8e8991f1fe4bbf79"),
]


@pytest.mark.parametrize("invocation, fmt, digest", LARGE, ids=[f"{g[0]} [{g[1]}]" for g in LARGE])
def test_large_stdout_bytes(capsys, invocation, fmt, digest):
    assert main(invocation.split() + ["--format", fmt]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
