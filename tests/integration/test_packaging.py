"""``setup.py`` describes the package that is actually under ``src/``
(checked offline: metadata queries only, nothing is built or installed).
"""

import subprocess
import sys
from pathlib import Path

from setuptools import find_packages

import repro

ROOT = Path(__file__).resolve().parents[2]


def test_setup_reports_name_and_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        check=True, capture_output=True, text=True, timeout=120).stdout
    assert out.split()[-2:] == ["repro", repro.__version__]


def test_src_layout_exposes_the_serving_packages():
    packages = find_packages(str(ROOT / "src"))
    assert {"repro", "repro.engine.fastpath", "repro.serving"} <= set(packages)
