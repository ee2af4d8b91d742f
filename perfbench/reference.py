"""Reference outputs and the per-instance correctness gate.

The files under perfbench/reference/ hold the outputs of the commit that
defined this benchmark; `make_reference.py` rebuilds them.  An instance fails
the gate if its strip verdict differs from the reference, it did not
converge, its largest residual is above the solver tolerance, or one of its
roots moved from the reference by more than ROOT_TOL.  Byte-identity of
report.csv and roots.csv is reported beside the gate, not as a failure.
"""

import hashlib
import json
from pathlib import Path
from typing import Optional

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A root may move by at most ROOT_TOL * (1 + |reference root|).  Between
# solver seeds the roots of the benchmark pairs move by at most 1e-9 in this
# measure (at (15, 30) on the diagonal; 4e-12 elsewhere), and references are
# stored to 12 significant digits.  The margin leaves room for a different
# root finder that still meets the residual tolerance.
ROOT_TOL = 1e-6

# Sampled modulus ratios are sums of 2**x terms in doubles; a rewrite of the
# evaluator may change their last bits but not more.
RATIO_RTOL = 1e-9

CSV_FILES = ("report.csv", "roots.csv")


def load(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def root_displacement(expected, roots: np.ndarray) -> float:
    """Largest distance from a root to the nearest root of the other set,
    relative to 1 + |reference root|, taken both ways."""
    ref = np.array([complex(re, im) for re, im in expected])
    gap = np.abs(roots[:, None] - ref[None, :]) / (1.0 + np.abs(ref))[None, :]
    return float(max(gap.min(axis=1).max(), gap.min(axis=0).max()))


def check_roots(
    expected: Optional[dict],
    certified: bool,
    converged: bool,
    max_residual: float,
    tolerance: float,
    roots: Optional[np.ndarray],
) -> Optional[str]:
    """Reason the instance fails the gate, or None if it passes."""
    if expected is None:
        return "no reference for this instance"
    if certified != expected["certified"]:
        return f"strip verdict {certified}, reference {expected['certified']}"
    if not converged:
        return "did not converge"
    if not max_residual <= tolerance:
        return f"residual {max_residual:.3g} above tolerance {tolerance:.3g}"
    if roots is None or len(roots) != len(expected["roots"]):
        return "root count differs from the reference"
    moved = root_displacement(expected["roots"], roots)
    if not moved <= ROOT_TOL:
        return f"a root moved {moved:.3g} from the reference"
    return None


def check_bounds(expected: Optional[dict], result: dict) -> Optional[str]:
    """Reason a bounds instance fails the gate, or None if it passes."""
    if expected is None:
        return "no reference for this instance"
    for (ratio, passed, nudged), (ref_ratio, ref_passed, ref_nudged) in zip(
        result["edges"], expected["edges"]
    ):
        if passed != ref_passed or nudged != ref_nudged:
            return f"edge verdict ({passed}, nudged {nudged}) differs from the reference"
        if not abs(ratio - ref_ratio) <= RATIO_RTOL * abs(ref_ratio):
            return f"max ratio {ratio!r} differs from the reference {ref_ratio!r}"
    if len(result["edges"]) != len(expected["edges"]):
        return "edge count differs from the reference"
    if result["migi"] != expected["migi"] or result["hidari"] != expected["hidari"]:
        return "monotonicity verdicts differ from the reference"
    return None


def csv_digests(directory: Path) -> dict:
    return {
        name: hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
        for name in CSV_FILES
    }


def csv_identical(reference: dict, solver_seed: int, directory: Path) -> Optional[bool]:
    """Whether both CSVs match the reference bytes; None without a reference for the seed."""
    expected = reference.get("csv_sha256", {}).get(str(solver_seed))
    if expected is None:
        return None
    return csv_digests(directory) == expected
