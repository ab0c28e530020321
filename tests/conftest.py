import os
from pathlib import Path

import hypothesis

hypothesis.settings.register_profile(
    "suite", max_examples=60, deadline=None)
hypothesis.settings.load_profile("suite")

# pytest puts src on its own import path (pyproject.toml); the CLI tests'
# subprocesses need it in their environment to import the same checkout
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
