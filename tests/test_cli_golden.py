"""Pinned stdout bytes and exit codes of every subcommand in both formats,
and the --cache-dir lifecycle of every subcommand."""

import hashlib
import os

import pytest

from heckekl.cli import main

# (invocation, format, exit code, sha256 of stdout)
GOLDEN = [
    ("kl --group A3", "json", 0, "fbb62b68ca188a88a239926769c3137fab009e8de5b7ba14fc23174835af3088"),
    ("kl --group A3", "csv", 0, "d3f05cb4e8ac1dc52fc87164c9cd63ea48eb2c02ffac817f494ce2c8783e6d35"),
    ("kl --group B3 --w 1,2,3,2", "json", 0, "113d54ce25301e7eb120e7b1d16b4776456f10fb69a5a4c5bdbeb8c9194d4daa"),
    ("kl --group B3 --w 1,2,3,2", "csv", 0, "c59a16108443685d77dc74fb6572f2b4e78cd1f044ac56d5bc0d2d5307f1c5f9"),
    ("restrict --group A3 --J 1,2 --u e --w 2,1,3,2", "json", 0, "08971275b94a87587b40294ac76ac2cb2d14fb0adf3ab1cf49c061f1344d64ad"),
    ("restrict --group A3 --J 1,2 --u e --w 2,1,3,2", "csv", 0, "bbd259069a91e144f4bf80e452f326f683025b799fb6bf7f856f5a5295d9ae78"),
    # u = 1 is not minimal in its coset: exit 2, nothing on stdout
    ("restrict --group A3 --J 1,2 --u 1 --w 2,1,3,2", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("restrict --group A3 --J 1,2 --u 1 --w 2,1,3,2", "csv", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hybrid --group A3 --J 1,3 --w 1,2,1,3,2", "json", 0, "a5f129a867c2f35a127c5e788c24680288660d77ad2d6d00077f7ca9e3e32925"),
    ("hybrid --group A3 --J 1,3 --w 1,2,1,3,2", "csv", 0, "d775d3f070abcd5ad0ed1345c0b92f13b7975193ee568486bdadc63cd530994a"),
    ("hybrid --group B3 --J 1 --orientation CT --w 1,2,3,2,1", "json", 0, "1246c765362f34df501d9178e8e9ffaa509a0f6895248ee9e8ee89d1707b2ed1"),
    ("hybrid --group B3 --J 1 --orientation CT --w 1,2,3,2,1", "csv", 0, "ac54e332c4019bc489642cbe40eb9bea11d8784ca8eb67e47c67fef5019f0c66"),
    ("factorize --group B3", "json", 0, "916cd2d550cc25a9f5eaf2dbdec7efe7f6a06b0c2fbdc5e5323889bf5b630f84"),
    ("factorize --group B3", "csv", 0, "ea20e0e8cca0f333295f71793c0c18e068c5178c44fb9d277cb35de2d25fb3eb"),
    ("factorize --group A3 --chain @<1,3<1,2,3", "json", 0, "d731d7925ff4dabd833b1b5505e1c0cf165ff96ced5e80e7a0b5f2e968e49628"),
    ("factorize --group A3 --chain @<1,3<1,2,3", "csv", 0, "d1125224c8f232c3718980dea977f0a5f976a0a67a708d2fe412ade471790e0c"),
    ("parabolic --group B3 --J 1,2", "json", 0, "47bc0693cea1786fd061f5593b05686266e3f2c02fd11848023a5244e53cb7ed"),
    ("parabolic --group B3 --J 1,2", "csv", 0, "69d3ffa391de4d30c0ff2f06890eb71c3604f2b629027d0ee22315f31c39bb78"),
    ("parabolic --group A3 --J 2", "json", 0, "b85aa1759739f2c92841524b823a292fe4a02e34b57dcf4c6024073fd2403bcc"),
    ("parabolic --group A3 --J 2", "csv", 0, "7d2e62e96acac77cd49beced5f3ef831852f17ebf16bc34a6e2fc9f280cbfaf3"),
    ("verify --group A3", "json", 0, "01c1eb84fcdee2da5d84517663969652e5288151b49fc3e3c8442b39bb6eef8d"),
    ("verify --group A3", "csv", 0, "b50d60b1c7f82fae261acc12f874a28591f45246127a8c7780b3d28b891e5165"),
    ("verify --group I2(7) --suite oracles", "json", 0, "8215b2c865eaf51fd8763239633266a8064805be8b111f05423b60b07008fe81"),
    ("verify --group I2(7) --suite oracles", "csv", 0, "8e7fe081278eebbf256e386436fe18d3e07be625284f262dd7b66eabcbc7cd33"),
]


def run(capsys, argv):
    code = main(argv)
    out, _ = capsys.readouterr()
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "invocation, fmt, code, digest", GOLDEN, ids=[f"{g[0]} [{g[1]}]" for g in GOLDEN]
)
def test_stdout_bytes_and_exit_code(capsys, invocation, fmt, code, digest):
    assert run(capsys, invocation.split() + ["--format", fmt]) == (code, digest)


# the first successful JSON invocation of each subcommand
LIFECYCLE = [
    next(g for g in GOLDEN if g[0].split()[0] == cmd and g[2] == 0)
    for cmd in ("kl", "restrict", "hybrid", "factorize", "parabolic", "verify")
]


@pytest.mark.parametrize(
    "invocation, fmt, code, digest", LIFECYCLE, ids=[g[0].split()[0] for g in LIFECYCLE]
)
def test_cache_dir_cold_then_warm(tmp_path, capsys, invocation, fmt, code, digest):
    cache_dir = tmp_path / "caches"
    argv = invocation.split() + ["--format", fmt, "--cache-dir", str(cache_dir)]
    # a cold run writes <group>.klcache.gz and prints the pinned bytes
    assert run(capsys, argv) == (code, digest)
    (path,) = cache_dir.iterdir()
    assert path.name == f"{invocation.split()[2]}.klcache.gz"
    os.utime(path, ns=(10**18, 10**18))  # a stamp no rewrite can reproduce
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    # the warm run loads every column it needs, so it prints the same bytes
    # and leaves the file alone
    assert run(capsys, argv) == (code, digest)
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
