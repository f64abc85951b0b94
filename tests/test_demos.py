import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcmpricer

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # each demo is a script against the public API; it must run to completion
    env = dict(os.environ, PYTHONPATH=str(Path(mcmpricer.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
