"""No document points at a file that is gone.

README, the CI workflow and the verify skill name scripts, tests and
examples by path; a deletion or rename that misses one of them leaves a
recipe that cannot run.  Every ``benchmarks/`` / ``examples/`` /
``tests/`` / ``src/`` path and every bare ``bench_*.py`` /
``profile_*.py`` name they mention must exist in the tree (globs must
match something).  Paths under a directory ``.gitignore`` lists are
outputs a run creates and are skipped.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = ["README.md", ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md"]

_PATH = re.compile(r"(?<![\w./-])(?:benchmarks|examples|tests|src)/[\w./*-]*")
_BARE = re.compile(r"(?<![\w./*-])(?:bench|profile)_[\w*]*\.py")


def _output_dirs():
    lines = (ROOT / ".gitignore").read_text().split()
    return [line for line in lines if line.endswith("/") and "/" in line[:-1]]


def _missing(text):
    ignored = _output_dirs()
    missing = []
    for match in _PATH.finditer(text):
        path = match.group().rstrip(".")     # sentence-final full stop
        if any(path.startswith(prefix) for prefix in ignored):
            continue
        if not any(ROOT.glob(path.rstrip("/"))):
            missing.append(path)
    for match in _BARE.finditer(text):
        if not any(ROOT.glob("benchmarks/**/" + match.group())):
            missing.append(match.group())
    return missing


@pytest.mark.parametrize("doc", DOCS)
def test_every_mentioned_path_exists(doc):
    assert _missing((ROOT / doc).read_text()) == []


def test_the_check_sees_a_dangling_reference():
    text = ("run `benchmarks/bench_gone.py`, then profile_gone.py, see "
            "tests/engine/test_fastpath.py. Out: benchmarks/suite/out/x.json")
    assert _missing(text) == ["benchmarks/bench_gone.py", "profile_gone.py"]
