"""Every demo script runs to completion against the checkout's package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vbisnr

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # tmp_path is the demo's cwd and its TMPDIR, so any file a demo writes,
    # its temporary captures too, lands there; a demo must leave none behind.
    env = dict(os.environ, PYTHONPATH=str(Path(vbisnr.__file__).parents[1]), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert list(tmp_path.iterdir()) == []
