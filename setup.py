"""Legacy setup shim for offline editable installs (see pyproject.toml)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One source of truth for the version: repro.__version__.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "MOCA: Memory Object Classification and Allocation in Heterogeneous "
        "Memory Systems (IPDPS 2018) — trace-driven reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The replay kernel's C source (see pyproject.toml).
    package_data={"repro.memctrl": ["*.c"], "repro.trace": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
