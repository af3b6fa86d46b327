"""Regenerate pinned.json, the digests that op outputs are checked against.

    python3 perfbench/pin.py

Run from the root of a checkout whose outputs are known to be right.  It
takes a few minutes: factorize_warm's stdout is pinned for every one of
the 120 generator orders a seed can choose, so any seed's op is checked
byte for byte.  A factorize run without a cache prints the same bytes as
one with a warm cache.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from itertools import permutations

from run import BENCH, OPCHILD, PY, WORK, chain_text, child_env, read_json


def stdout_sha(args) -> str:
    out = subprocess.run(args, env=child_env(), check=True, capture_output=True).stdout
    return hashlib.sha256(out).hexdigest()


def main() -> int:
    work = WORK / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = work / "fill.json"
    pinned: dict = {"kl_digest": {}, "verify_stdout": {}, "factorize_stdout": {}}
    for group in ("A5", "D5"):
        subprocess.run(
            [PY, OPCHILD, "fill", "--group", group, "--seed", "1", "--report", str(report)],
            env=child_env(), check=True,
        )
        pinned["kl_digest"][group] = read_json(report)["digest"]
    pinned["verify_stdout"]["D4"] = stdout_sha(
        [PY, "-m", "heckekl.cli", "verify", "--group", "D4", "--suite", "all"]
    )
    for perm in permutations(range(1, 6)):
        key = "".join(map(str, perm))
        pinned["factorize_stdout"][key] = stdout_sha(
            [PY, "-m", "heckekl.cli", "factorize", "--group", "A5", "--chain", chain_text(perm)]
        )
        print(key, pinned["factorize_stdout"][key], file=sys.stderr)
    (BENCH / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
