"""Smoke tests of the command line scripts, run as subprocesses the way a
user runs them, with ``src`` on ``PYTHONPATH``."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from caveprobe.memspace import PAGE_SIZE

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


def test_retry_sweep_without_aborts_never_retries(tmp_path):
    out = tmp_path / "sweep.json"
    done = run_script("retry_sweep.py", "--pages", "32",
                      "--probabilities", "0", "0.3", "--out", str(out))
    assert done.returncode == 0, done.stderr
    rows = {row["abort-probability"]: row for row in json.loads(out.read_text())}
    assert set(rows) == {0.0, 0.3}
    assert rows[0.0]["retries"] == 0
    # a claw settles a writable page with its write; any other page pays
    # the faulting write and the tap after it
    spec = importlib.util.spec_from_file_location(
        "retry_sweep", REPO / "scripts" / "retry_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    space, start, end = sweep.build_layout(0, 32)
    pages = range(start, end, PAGE_SIZE)
    writable = sum(
        b in space.pages and space.pages[b].perms.writable for b in pages
    )
    assert rows[0.0]["probes"] == len(pages)
    assert rows[0.0]["transactions"] == writable + 2 * (len(pages) - writable)
