"""Every module-level public function, class and constant of src/dipolerg is
used by the program: referenced (as a name, an attribute or a `from ... import`) in
src/ or perfbench/*.py outside its own definition.  Code only tests use
lives beside them, in helpers.py."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dipolerg"
ALLOWED = set()


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _defined(stmt):
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_definition_has_a_program_reference():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))}
    refs = [(stmt, set(_names(stmt))) for tree in trees.values() for stmt in tree.body]
    dead = set()
    for path, tree in trees.items():
        # click registers the commands of cli.py
        if path.parent != PACKAGE or path.name == "cli.py":
            continue
        for stmt in tree.body:
            for name in _defined(stmt):
                if (not name.startswith("_")
                        and not any(name in names for s, names in refs if s is not stmt)):
                    dead.add(f"{path.stem}.{name}")
    assert sorted(dead) == sorted(ALLOWED)
