"""Public surface of ``src/`` that nothing but tests calls must not grow back.

Every public function, class and method defined in the package must appear,
as a whole word, somewhere in the program (``src/``, ``scripts/`` or
``perfbench/``) besides its own definition lines.  A word match is coarse:
a mention in a docstring counts, and two methods of one name share their
uses.  It still catches a name that only tests ever reach.

Every dataclass field in the package must be read as an attribute
(``obj.field``) somewhere in the program or the tests: a field that is only
ever set carries nothing.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "caveprobe"
PROGRAM = (REPO / "src", REPO / "scripts", REPO / "perfbench")
TESTS = REPO / "tests"

# qualified name -> why it stays without a caller in the program
ALLOWED = {
    "explorer.egg_hunt": "acceptance criterion 7 hunts a tag through probes",
    "cli._Parser.error": "argparse calls this hook on a bad flag",
}


def _definitions() -> list[tuple[str, str, Path, int]]:
    """(qualified name, name, file, def line) of every public function and
    class at module level and every public method of a module-level class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((f"{module}.{node.name}", node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        qual = f"{module}.{node.name}.{item.name}"
                        found.append((qual, item.name, path, item.lineno))
    return found


def _unused() -> list[str]:
    defs = _definitions()
    def_lines = {(path, line) for _, _, path, line in defs}
    lines = [
        (path, no, text)
        for root in PROGRAM
        for path in sorted(root.rglob("*.py"))
        for no, text in enumerate(path.read_text().splitlines(), start=1)
    ]
    unused = []
    for qual, name, _, _ in defs:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            (path, no) not in def_lines and word.search(text)
            for path, no, text in lines
        ):
            unused.append(qual)
    return unused


def test_every_public_name_has_a_caller_in_the_program():
    unused = [q for q in _unused() if q not in ALLOWED]
    assert not unused, f"nothing outside tests/ calls {unused}"


def test_allowlist_names_only_uncalled_definitions():
    # an allowlisted name that gained a caller, or was deleted, should leave
    # the list rather than excuse a later name of the same spelling
    defined = {qual for qual, _, _, _ in _definitions()}
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) <= set(_unused())


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    fields = [
        f"{path.stem}.{node.name}.{item.target.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert fields
    read = {
        node.attr
        for root in (*PROGRAM, TESTS)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f for f in fields if f.rsplit(".", 1)[1] not in read]
    assert not unread, f"nothing reads the fields {unread}"
