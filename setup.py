"""Packaging for the ``repro`` library under ``src/``; all metadata is here.

There is no pyproject.toml.  The sandbox lacks the `wheel` package, so
PEP 660 editable installs fail; `pip install -e . --no-build-isolation
--no-use-pep517` (or plain `python setup.py develop`) uses this file
instead.  Nothing needs an install: tests and examples run with
`PYTHONPATH=src`.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",                    # keep equal to repro.__version__
    description="numpy reproduction of HeatViT with a batched serving engine",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
