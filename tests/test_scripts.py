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



def test_make_demo_image_refuses_bad_values_in_one_line(tmp_path):
    # a size below 1, a size that is not plain ASCII decimal, and a seed in
    # another script's digits (int() would read U+0663 as 3)
    for flag, value in [
        ("--code-pages", "0"), ("--code-pages", "-1"), ("--cave-pages", "0"),
        ("--stack-pages", "0"), ("--stack-pages", "4.0"), ("--code-pages", "0x4"),
        ("--seed", "٣"), ("--seed", "9" * 5000),
    ]:
        done = run_script("make_demo_image.py", flag, value, "--out", str(tmp_path))
        assert done.returncode == 2, (flag, value, done.stderr)
        assert done.stderr.count("\n") == 1, (flag, value, done.stderr)
        assert done.stderr.startswith(f"make_demo_image.py: argument {flag}: not ")
        assert len(done.stderr.encode()) < 300
    assert list(tmp_path.iterdir()) == []


def test_make_demo_image_builds_one_page_regions(tmp_path):
    done = run_script("make_demo_image.py", "--code-pages", "1", "--cave-pages",
                      "1", "--stack-pages", "1", "--seed", "-3", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.json", "demo.maps"]
    assert "(0x1000 bytes)" in done.stdout  # the cave's one page


def test_make_demo_image_refuses_an_image_past_the_loader_cap_in_one_line(tmp_path):
    # refused before anything is drawn or allocated: 65,536 code pages and
    # 8 fixed ones, and a count of 4,000 digits that is not echoed
    for flag, value in [("--code-pages", "65536"), ("--stack-pages", "9" * 4000)]:
        done = run_script("make_demo_image.py", flag, value, "--out", str(tmp_path))
        assert done.returncode == 2, (flag, done.stderr)
        assert done.stderr == (
            "make_demo_image.py: the image would map more than the loader's "
            "65536 pages\n")
    assert list(tmp_path.iterdir()) == []


def test_make_demo_image_refuses_an_unknown_gadget_kind(tmp_path):
    done = run_script("make_demo_image.py", "--omit-gadget", "bogus",
                      "--out", str(tmp_path))
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith(
        "make_demo_image.py: argument --omit-gadget: invalid choice: 'bogus'")
    assert list(tmp_path.iterdir()) == []


def test_make_demo_image_names_an_out_it_cannot_write_in_one_line(tmp_path):
    # an existing file, a folder below one, and a name of 10,000 four-byte
    # characters (under the limit on one argument) whose echo is cut
    (tmp_path / "file").write_text("")
    for out in ("file", "file/sub", "\U0001F600" * 10_000):
        done = run_script("make_demo_image.py", "--out", str(tmp_path / out))
        assert done.returncode == 2, (out[:20], done.stderr)
        assert done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith("make_demo_image.py: cannot write ")
        assert len(done.stderr.encode()) < 300
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
