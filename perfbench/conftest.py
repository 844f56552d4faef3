"""Lets ``python -m pytest perfbench`` import the harness and the library
from a plain checkout."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
