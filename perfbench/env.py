"""Import set-up shared by the runner and the benchmark's tests.

The package is not installed: the benchmark imports it from the `src/`
directory of the checkout it sits in, so that each commit is measured on
its own code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> None:
    """Put the checkout's src/ first on sys.path and check that it is used."""
    # numpy >= 2.4 has no np.trapz, and the package's modules evaluate
    # getattr(np, "trapezoid", np.trapz) eagerly, so they cannot be imported
    # there.  The alias only lets that line run: the package then picks
    # np.trapezoid either way, so the measured code is unchanged, and the
    # alias is inert once the package stops naming np.trapz.
    if not hasattr(np, "trapz"):
        np.trapz = np.trapezoid
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import levyhjmm

    if Path(levyhjmm.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"levyhjmm was imported from {levyhjmm.__file__}, not from {SRC}")
