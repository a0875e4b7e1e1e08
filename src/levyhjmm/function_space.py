"""Weighted-space machinery: curves on a uniform x-grid, the exponentially
weighted L2/H1 norms and the embedding bound checks.  The shift semigroup
S_t h = h(t + .) is `grids.SolveGrid.shifted`, on the aligned grid.

A curve lives on x = k*dx, k = 0..n-1 together with the weight parameter
gamma; all integrals are trapezoidal on that grid and the tail beyond the
last node is treated as zero.  For norm accuracy of decaying curves pick the
truncation around horizon + 10/gamma, so the neglected weighted tail is
explicit and negligible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The trapezoid rule shared by the package.  numpy 2.0 added np.trapezoid and
# numpy 2.4 removed the old name that numpy 1.x still needs; only the branch
# taken is evaluated, so this line imports on every supported numpy.
trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def cumulative_trapezoid(y: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid along the last axis with zero at the first node,
    written into out (an array of y's shape, which may be y itself) when it
    is given.

    The terms are scaled by s, a power of two <= dx/2, before they are summed,
    so no partial sum tops the integral it builds: a finite integral of
    values near the double range never overflows on the way.  Scaling by a
    power of two is exact, so while the terms stay normal the result equals
    dx * cumsum((y[1:] + y[:-1]) / 2) bit for bit.
    """
    s = math.ldexp(1.0, math.frexp(dx)[1] - 2)
    terms = s * y[..., 1:] + s * y[..., :-1]
    if out is None:
        out = np.empty_like(y)
    out[..., 0] = 0.0
    np.cumsum(terms, axis=-1, out=out[..., 1:])
    out[..., 1:] *= 0.5 * dx / s
    return out


@dataclass(frozen=True)
class WeightedCurve:
    """A sampled curve with the weight e^{gamma x} attached."""

    dx: float
    values: np.ndarray
    gamma: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not 0.0 < self.dx < math.inf:
            raise ValueError(f"dx must be finite and positive, got {self.dx}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if values.ndim != 1 or values.size < 2:
            raise ValueError("curve needs a 1-D array of at least 2 values")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.values.size)

    def scaled(self, alpha: float) -> "WeightedCurve":
        return WeightedCurve(dx=self.dx, values=alpha * self.values, gamma=self.gamma)


def weighted_l2(
    y: np.ndarray, dx: float, weights: np.ndarray, bound: np.ndarray | float, off_panels: np.ndarray | None = None
) -> np.ndarray:
    """Trapezoidal (int |y|^2 w dx)^(1/2) of each row of y (its last axis).

    bound, broadcast against y.shape[:-1], is each row's size (its sup, or
    a stand-in held fixed): y is divided by the power of two just above it
    before it is squared, and the root multiplied back.  That is exact, so
    every finite, normal result has the unscaled formula's bits, and rows
    up to the top of the double range do not overflow.  off_panels marks
    trapezoid panels (of y[..., 1:]) to leave out, such as those beyond
    the triangle of a field that is NaN there.
    """
    e = np.frexp(bound)[1]  # bound < 2^e
    with np.errstate(over="ignore"):
        y = np.ldexp(y, -e[..., None])
        y *= y
        y *= weights
        panels = y[..., 1:] + y[..., :-1]
        panels *= dx
        panels /= 2.0
        if off_panels is not None:
            np.copyto(panels, 0.0, where=off_panels)
        return np.ldexp(np.sqrt(panels.sum(axis=-1)), e)


def norm_l2gamma(c: WeightedCurve) -> float:
    """Trapezoidal (int |h|^2 e^{gamma x} dx)^(1/2) over the grid."""
    return float(weighted_l2(c.values, c.dx, np.exp(c.gamma * c.x), np.max(np.abs(c.values))))


def norm_h1gamma(c: WeightedCurve) -> float:
    """(||h||^2 + ||h'||^2)^(1/2) in the weighted L2 norm, h' by differences."""
    if c.values.size < 3:
        raise ValueError("H1 norm needs at least 3 grid points")
    w = np.exp(c.gamma * c.x)
    d = np.gradient(c.values, c.dx)  # central inside, one-sided at the two boundary nodes
    total = trapezoid(c.values**2 * w, dx=c.dx) + trapezoid(d**2 * w, dx=c.dx)
    return math.sqrt(total)


class BoundCheck(NamedTuple):
    value: float
    bound: float
    holds: bool


def sup_bound_check(c: WeightedCurve, tol: float = 1e-6) -> BoundCheck:
    """sup |h| against the H1 embedding bound 2 gamma^(-1/2) ||h||_{H1,gamma}."""
    sup = float(np.max(np.abs(c.values)))
    bound = 2.0 / math.sqrt(c.gamma) * norm_h1gamma(c)
    return BoundCheck(sup, bound, sup <= bound + tol)


def l1_bound_check(c: WeightedCurve, tol: float = 1e-6) -> BoundCheck:
    """int |h| dx against the Cauchy-Schwarz bound gamma^(-1/2) ||h||_{L2,gamma}."""
    l1 = float(trapezoid(np.abs(c.values), dx=c.dx))
    bound = norm_l2gamma(c) / math.sqrt(c.gamma)
    return BoundCheck(l1, bound, l1 <= bound + tol)


# --- CSV curve format: header "x,value", one row per node from x = 0 --------


def read_curve_csv(path, gamma: float) -> WeightedCurve:
    with warnings.catch_warnings():
        # a file without data rows is rejected below, by name
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"curve file {path} has fewer than 2 data rows")
    if data.shape[1] != 2:
        raise ValueError(f"curve file {path} has {data.shape[1]} columns, not 2 (x,value)")
    xs, vals = data[:, 0], data[:, 1]
    dxs = np.diff(xs)
    if np.max(np.abs(dxs - dxs[0])) > 1e-9 * dxs[0]:
        raise ValueError(f"curve file {path} is not on a uniform grid")
    if abs(xs[0]) > 1e-9 * dxs[0]:
        raise ValueError(f"curve file {path} starts at x={float(xs[0])!r}, not at x=0")
    return WeightedCurve(dx=float(dxs[0]), values=vals, gamma=gamma)
