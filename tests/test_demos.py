"""Every script in demos/ runs to the end with nothing on stderr."""

import pathlib
import subprocess
import sys

import pytest

from test_cli import cli_env

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
