"""No module-level private name in ``src/spdcsim`` that nothing reads.

A private function, class or constant of a module is dead when no code in
the package names it: no load of the name, no attribute of that name and
no import of it.  Docstrings and comments do not count.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "spdcsim"


def private_definitions(tree):
    """The private names a module's top level defines or assigns."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [name.id for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def references(tree):
    """Every name a module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unused_private_names(source):
    trees = {path.relative_to(source).as_posix(): ast.parse(path.read_text()) for path in sorted(source.rglob("*.py"))}
    used = {name for tree in trees.values() for name in references(tree)}
    return [f"{module}: {name}" for module, tree in trees.items() for name in private_definitions(tree) if name not in used]


def test_every_private_module_name_is_read_somewhere():
    assert unused_private_names(SOURCE) == []


def test_a_private_name_read_only_by_a_docstring_is_unused(tmp_path):
    (tmp_path / "one.py").write_text(
        '"""Mentions ``_kept`` and ``_dead``."""\n'
        "from .two import _imported\n"
        "_LIMIT = 3\n"
        "def _dead():\n    return _LIMIT\n"
        "def _kept():\n    return 1\n"
        "class _Shape:\n    pass\n"
        "def public():\n    return _kept() + _imported + other._Shape\n"
    )
    (tmp_path / "two.py").write_text("_imported: int = 2\n_ORPHAN, _PAIRED = 1, 2\nvalue = _PAIRED\n")
    assert unused_private_names(tmp_path) == ["one.py: _dead", "two.py: _ORPHAN"]
