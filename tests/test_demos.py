import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # Each demo is a script against the public API; run it as a user would,
    # from an empty directory, so any file it writes lands in tmp_path.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # A demo states its checked claims as "<claim>: True"; a false one fails.
    false = [line for line in result.stdout.splitlines() if line.rstrip().endswith(": False")]
    assert not false, false
