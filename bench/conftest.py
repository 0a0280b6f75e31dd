"""Puts the repository's src/ on the import path for the benchmark tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
