"""Every demo script runs to completion against the package in src/ and
prints exactly its committed stdout, tests/data/demos/<stem>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "data" / "demos"


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(path.stem for path in EXPECTED.glob("*.txt")) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_committed_stdout(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (EXPECTED / f"{demo.stem}.txt").read_text(encoding="utf-8")
