"""Public surface of ``src/`` that nothing but tests calls must not grow back.

Every public function, class and method defined in the package must be
named by code somewhere in the program (``src/``, ``scripts/`` or
``perfbench/``): as a name or an attribute in the syntax tree, or as an
attribute ``perfbench/spans.py``'s ``SPANNED`` gives as a string, which the
benchmark reaches by ``setattr``.  A mention in a docstring or a comment does
not count.  Two methods of one name share their uses, so the rule is still
coarse, but it catches a name that only tests ever reach.

Every dataclass field in the package must be read as an attribute
(``obj.field``) somewhere in the program or the tests: a field that is only
ever set carries nothing.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "caveprobe"
PROGRAM = (REPO / "src", REPO / "scripts", REPO / "perfbench")
TESTS = REPO / "tests"

# qualified name -> why it stays without a caller in the program
ALLOWED = {
    "cli._Parser.error": "argparse calls this hook on a bad flag",
}


def _definitions() -> list[tuple[str, str]]:
    """(qualified name, name) of every public function and class at module
    level and every public method of a module-level class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.append((f"{module}.{node.name}.{item.name}", item.name))
    return found


def _spanned() -> set[str]:
    """The attribute names in ``SPANNED``'s (owner, attribute, span) rows."""
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text())
    [rows] = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANNED"]]
    return {row.elts[1].value for row in rows.elts}


def _named_in_program() -> set[str]:
    """Every name and attribute the program's code uses."""
    named = _spanned()
    for root in PROGRAM:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    return named


def _unused() -> list[str]:
    named = _named_in_program()
    return [qual for qual, name in _definitions() if name not in named]


def test_every_public_name_has_a_caller_in_the_program():
    unused = [q for q in _unused() if q not in ALLOWED]
    assert not unused, f"nothing outside tests/ calls {unused}"


def test_allowlist_names_only_uncalled_definitions():
    # an allowlisted name that gained a caller, or was deleted, should leave
    # the list rather than excuse a later name of the same spelling
    defined = {qual for qual, _ in _definitions()}
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
