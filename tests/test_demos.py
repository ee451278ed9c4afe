"""Every script under demos/ runs to completion against the package."""

import os
import pathlib
import subprocess
import sys

import pytest

import sizeramsey

SRC = pathlib.Path(sizeramsey.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    # an empty glob would otherwise parametrize into a skip
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    run = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                         timeout=60)
    assert run.returncode == 0, run.stderr
