"""Let subprocesses started by the tests (``python -m giwa.cli``) import giwa from src/.

pyproject.toml puts src/ on sys.path for the test process itself only.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
