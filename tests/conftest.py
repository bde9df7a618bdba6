"""Let the tests that start ``python -m ppx`` find the package in ``src``
without installing it, as ``pythonpath`` in pyproject.toml does in-process."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
