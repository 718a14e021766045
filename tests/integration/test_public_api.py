"""Every name a ``repro`` module exports exists, and is exported once.

``__all__`` is a list of strings, so deleting a function leaves its
export behind silently: nothing fails until someone writes
``from repro.x import *`` or reads the list as documentation.  This
imports every module under ``src/repro`` and resolves its ``__all__``.
"""

import importlib
import pkgutil
import types

import repro


def export_problems(module):
    """What is wrong with ``module.__all__``: one string per name that
    is listed twice or does not resolve (none without an ``__all__``)."""
    exported = getattr(module, "__all__", ())
    problems = [f"{module.__name__}.{name} is listed twice"
                for name in sorted(set(exported))
                if exported.count(name) > 1]
    problems += [f"{module.__name__}.{name} does not exist"
                 for name in exported if not hasattr(module, name)]
    return problems


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")]
    assert len(names) > 50                   # the walk found the tree
    problems = [problem for name in ["repro", *names]
                for problem in export_problems(importlib.import_module(name))]
    assert problems == []


def test_the_check_sees_a_stale_export():
    planted = types.ModuleType("planted")
    planted.alive = planted.twice = 1
    planted.__all__ = ["alive", "twice", "pack_groups", "twice"]
    assert export_problems(planted) == [
        "planted.twice is listed twice",
        "planted.pack_groups does not exist"]
