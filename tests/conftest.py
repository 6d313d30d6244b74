"""Set-up shared by every test module."""
import os
from pathlib import Path

# pyproject.toml's ``pythonpath`` puts src/ on the import path of the pytest
# process only; tests that start ``python -m vimu.cli`` as a subprocess need
# it in the environment as well, so a checkout runs the suite without install.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
