"""Every function, class, method and property under ``src/repro`` is
named somewhere other than its own definition.

A definition nothing names is code nobody runs: a deletion that orphans
a helper, or a property kept "in case", leaves it behind, and no test
fails.  This is the ``ast``-only check (the image bakes in no dead-code
linter), in the style of ``test_unused_imports.py``.  A definition
counts as named when its name appears, in any module under ``src``,
``tests``, ``examples`` or ``benchmarks``, as a read name, an attribute,
an imported name, or a string constant that is exactly that name (an
``__all__`` entry, a lazy export, a ``getattr``).  Dunder names are
skipped: Python calls them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "examples", "benchmarks")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """``(line, name)`` of every non-dunder def and class in ``tree``."""
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, _DEFINITIONS)
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


def references(tree):
    """Every name ``tree`` reads, looks up, imports or spells out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def unused_definitions(modules, sources):
    """``modules``: ``{label: source}`` whose definitions are checked;
    ``sources``: every source that may name them.  Returns sorted
    ``"label:line name"`` strings."""
    named = set()
    for source in sources:
        named |= references(ast.parse(source))
    return sorted(f"{label}:{line} {name}"
                  for label, source in modules.items()
                  for line, name in definitions(ast.parse(source))
                  if name not in named)


def test_every_definition_is_named():
    sources = [path.read_text() for top in SCANNED
               for path in sorted((ROOT / top).rglob("*.py"))]
    modules = {str(path.relative_to(SRC.parent)): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    assert unused_definitions(modules, sources) == []


def test_the_check_sees_a_dead_definition():
    module = ("class Used:\n"
              "    def called(self): ...\n"
              "    @property\n"
              "    def dead_property(self): ...\n"
              "    def __repr__(self): ...\n"
              "def exported(): ...\n"
              "def dead(): ...\n"
              "class Dead: ...\n"
              "__all__ = ['exported']\n")
    caller = "from m import Used\nUsed().called()\n"
    assert unused_definitions({"m.py": module}, [module, caller]) == [
        "m.py:4 dead_property", "m.py:7 dead", "m.py:8 Dead"]
