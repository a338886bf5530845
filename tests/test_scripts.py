"""Smoke tests of the command line scripts, run as subprocesses the way a
user runs them, with ``src`` on ``PYTHONPATH``."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_make_demo_image_reproduces_the_shipped_demo(tmp_path):
    done = run_script("make_demo_image.py", "--seed", "7", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name in ("demo.json", "demo.maps"):
        assert (tmp_path / name).read_bytes() == (REPO / "images" / name).read_bytes()

