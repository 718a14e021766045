"""No module under ``src/repro`` imports a name it does not use.

A deletion that orphans an import leaves a dependency edge -- and often
a whole module load -- that nothing needs; a linter would say so, but
the image bakes in none, so this is the ``ast``-only version.  Package
``__init__`` files are skipped (their imports are re-exports) and so is
``__future__``; a name listed in ``__all__`` counts as used.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """Names ``source`` binds by import and never reads: sorted
    ``(line, name)`` pairs."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``.
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # ``__all__ = [...]`` re-exports by string.
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_every_import_is_used():
    dead = [f"{path.relative_to(SRC.parent)}:{line} {name}"
            for path in MODULES
            for line, name in unused_imports(path.read_text())]
    assert dead == []


def test_the_check_sees_a_dead_import():
    source = ("from __future__ import annotations\n"
              "import os.path, sys as system\n"
              "from a import used, dead, exported\n"
              "__all__ = ['exported']\n"
              "print(used, os.sep)\n")
    assert unused_imports(source) == [(2, "system"), (3, "dead")]
