"""Every script under examples/ runs to completion.

Each runs in its own process, as a reader would run it (``PYTHONPATH=src
python examples/<name>.py``), from a scratch directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO / "src"),
        "REPRO_COSTS_DIR": str(tmp_path / "costs"),
    }
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
