"""Imports the hsroots package from the src/ directory of this checkout.

The benchmark must measure the sources it ships with, never a copy installed
in site-packages, so a checkout without src/hsroots raises ImportError here.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "hsroots" / "__init__.py").is_file():
    raise ImportError(f"no hsroots sources under {SRC}")
sys.path.insert(0, str(SRC))

import hsroots  # noqa: E402

if Path(hsroots.__file__).resolve().parent != SRC / "hsroots":
    raise ImportError(f"hsroots was imported from {hsroots.__file__}, not from {SRC}")
