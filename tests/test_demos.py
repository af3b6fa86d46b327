"""Smoke tests: every demo script runs, and the laurent doctests pass."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckekl.laurent

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    got = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr


def test_laurent_doctests():
    result = doctest.testmod(heckekl.laurent)
    assert result.attempted > 0 and result.failed == 0
