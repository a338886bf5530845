"""Shared builders for test address spaces, independent of the code under
test wherever they serve as oracles, and the rule every run of ``cli.main``
on a bad input must keep."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re

from caveprobe.cli import EXIT_STAGE_ERROR, main
from caveprobe.memspace import PAGE_SIZE, USER_TOP, AddressSpace, PagePermissions

# writability classes as plain strings, kept separate from the library's
# enum so oracle comparisons cannot accidentally share a bug
W = "writable"
RO = "readonly"
NONE = "inaccessible"


def make_space(*regions: tuple[int, int, str, bytes]) -> AddressSpace:
    """Build a space from (start, length, perms letters, data) tuples."""
    space = AddressSpace()
    for start, length, perms, data in regions:
        space.map_region(start, length, PagePermissions.from_rwxu(perms), data)
    return space


def is_mapped(space: AddressSpace, addr: int) -> bool:
    """Whether a page of ``space`` holds ``addr``."""
    return addr - addr % PAGE_SIZE in space.pages


def page_bytes(space: AddressSpace) -> dict[int, bytes]:
    """A copy of every page's bytes, keyed by page base."""
    return {base: bytes(page.data) for base, page in space.pages.items()}


def space_digest(space: AddressSpace) -> str:
    """SHA-256 over every page's base, permission flags and bytes: equal
    digests mean nothing in ``space`` changed."""
    h = hashlib.sha256()
    for base in sorted(space.pages):
        page = space.pages[base]
        p = page.perms
        h.update(base.to_bytes(8, "little"))
        h.update(bytes([p.readable, p.writable, p.executable, p.user_accessible]))
        h.update(page.data)
    return h.hexdigest()


def page_class(perms: PagePermissions) -> str:
    """Classify one mapped page the way a perfect observer would."""
    if not (perms.readable and perms.user_accessible):
        return NONE
    return W if perms.writable else RO


def random_permed_space(
    rng: random.Random,
    max_pages: int = 256,
    *,
    fill: str = "random",
) -> tuple[AddressSpace, dict[int, str], int, int]:
    """A random user-half space with holes and mixed permissions.

    Returns (space, truth, start, end) where ``truth`` maps every page base
    in [start, end) to its observer classification, including unmapped
    holes, and start/end bound the generated layout.
    """
    space = AddressSpace()
    truth: dict[int, str] = {}
    start = rng.randrange(0, 1 << 30) * PAGE_SIZE
    base = start
    total = 0
    while total < max_pages:
        hole = rng.randint(0, 6)
        for _ in range(hole):
            truth[base] = NONE
            base += PAGE_SIZE
        total += hole
        if total >= max_pages:
            break
        length = min(rng.randint(1, 8), max_pages - total)
        perms = rng.choice(
            (
                PagePermissions.from_rwxu("ru"),
                PagePermissions.from_rwxu("rwu"),
                PagePermissions.from_rwxu("rxu"),
                PagePermissions.from_rwxu("rwxu"),
                PagePermissions.from_rwxu("r"),   # mapped, not user visible
                PagePermissions(),                # guard style
            )
        )
        if fill == "random":
            data = rng.randbytes(length * PAGE_SIZE)
        elif fill == "zero":
            data = b""
        else:
            raise ValueError(fill)
        space.map_region(base, length * PAGE_SIZE, perms, data)
        for i in range(length):
            truth[base + i * PAGE_SIZE] = page_class(perms)
        base += length * PAGE_SIZE
        total += length
    return space, truth, start, base


def truth_class_runs(
    truth: dict[int, str], start: int, end: int
) -> list[tuple[int, int, str]]:
    """Coalesce a page-class dict into (start, end, class) runs; pages
    absent from the dict count as inaccessible."""
    runs: list[tuple[int, int, str]] = []
    for base in range(start, end, PAGE_SIZE):
        cls = truth.get(base, NONE)
        if runs and runs[-1][2] == cls and runs[-1][1] == base:
            runs[-1] = (runs[-1][0], base + PAGE_SIZE, cls)
        else:
            runs.append((base, base + PAGE_SIZE, cls))
    return runs


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` run in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# text of Python's own exceptions and codecs, which no message of the
# program holds
LEAKS = re.compile(
    r"Traceback|\b[A-Z][A-Za-z]*(Error|Exception)\b|codec|Errno|NoneType|"
    r"'(str|int|float|bool|dict|list|bytes|tuple)'|invalid literal|"
    r"unsupported operand|has no attribute|unhashable|not subscriptable|"
    r"not iterable|out of range|can't|object is not|positional argument|"
    r"null byte"
)


def error_fault(code: int, err: str) -> str | None:
    """Why a run that failed with exit ``code`` and stderr ``err`` breaks
    the rule for a failed run, or None.  The rule: exit 2 and exactly one
    stderr line that starts ``caveprobe: ``, holds no text of a Python
    exception or codec, and is under 300 bytes."""
    if code != EXIT_STAGE_ERROR:
        return f"exit {code}"
    if err.count("\n") != 1 or not err.startswith("caveprobe: "):
        return f"not one line: {err[:200]!r}"
    if LEAKS.search(err):
        return f"Python text: {err[:200]!r}"
    size = len(err.encode("utf-8", "backslashreplace"))
    if size >= 300:
        return f"{size} bytes: {err[:200]!r}"
    return None
