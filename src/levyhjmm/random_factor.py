"""The pathwise random factor of the equivalent integral equation.

Given a simulated path L and a volatility curve lambda, the field

    a(t,x) = r0(t+x) * exp(I1(t,x) - q/2 * int_0^t lambda^2(t-s+x) ds) * I2(t,x)

multiplies the nonlinear exponential in the fixed-point equation (q is the
variance of the Gaussian part of the path's model, as in the exponent J).
I1 is the stochastic integral int_0^t lambda(t-s+x) dL(s) evaluated through
the integration-by-parts identity

    I1(t,x) = lambda(x) L(t) + int_0^t lambda'(t-s+x) L(s) ds,

which is pathwise exact for drift+Brownian+jumps paths, and I2 is the finite
jump product prod (1 + lambda(t-s+x) dL(s)) exp(-lambda(t-s+x) dL(s)).

The grid enforces dt = dx so every moving-frame read r0(t+x), lambda(t-s+x)
lands exactly on a node; only the jump product evaluates lambda off-grid (at
exact jump offsets).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .function_space import WeightedCurve
from .grids import SolveGrid
from .path_sim import LevyPathRecord


# ---------------------------------------------------------------------------
# volatility specifications; all satisfy 0 < lambda <= lambda_bar, finite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantVol:
    value: float

    def __post_init__(self):
        if not 0.0 < self.value < np.inf:
            raise ValueError(f"lambda must be finite and positive, got {self.value}")

    @property
    def lambda_bar(self) -> float:
        return self.value

    @property
    def is_constant(self) -> bool:
        return True

    def lam(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def lam_prime(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ExpAffineVol:
    """lambda(x) = c0 + c1 * exp(-beta x), monotone between c0+c1 and c0."""

    c0: float
    c1: float
    beta: float

    def __post_init__(self):
        for name in ("c0", "c1", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if min(self.c0, self.c0 + self.c1) <= 0.0:
            raise ValueError("lambda must stay positive (need min(c0, c0+c1) > 0)")

    @property
    def lambda_bar(self) -> float:
        return max(self.c0, self.c0 + self.c1)

    @property
    def is_constant(self) -> bool:
        return self.c1 == 0.0

    def lam(self, x):
        return self.c0 + self.c1 * np.exp(-self.beta * np.asarray(x, dtype=float))

    def lam_prime(self, x):
        return -self.beta * self.c1 * np.exp(-self.beta * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TabulatedVol:
    """lambda sampled on a uniform grid; derivative by central differences.

    Reads beyond the table are flat-padded with the boundary values.
    """

    dx: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not 0.0 < self.dx < np.inf or values.ndim != 1 or values.size < 3:
            raise ValueError("tabulated volatility needs a finite dx > 0 and >= 3 samples")
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("tabulated volatility must be positive and finite")
        object.__setattr__(self, "values", values)

    @property
    def xs(self) -> np.ndarray:
        return self.dx * np.arange(self.values.size)

    @property
    def lambda_bar(self) -> float:
        return float(np.max(self.values))

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.values == self.values[0]))

    def lam(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)

    def lam_prime(self, x):
        d = np.gradient(self.values, self.dx, edge_order=2)
        return np.interp(np.asarray(x, dtype=float), self.xs, d)


Volatility = ConstantVol | ExpAffineVol | TabulatedVol


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomFactorField:
    """a(t,x) of one path with its constituents on the aligned grid (NaN
    beyond the triangle), and the path, volatility and r0 it was built
    from.  lam_w is lambda on the wide x-grid."""

    grid: SolveGrid
    I1: np.ndarray
    I2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    b_bar: float
    r0: WeightedCurve
    positivity_ok: bool
    lam_w: np.ndarray
    path: LevyPathRecord
    vol: Volatility


def _I1(paths: list[LevyPathRecord], vol: Volatility, lam_w: np.ndarray, grid: SolveGrid) -> np.ndarray:
    """Integration-by-parts form of int_0^t lambda(t-s+x) dL(s), trapezoid in
    s, stacked along a leading path axis; lam_w is lambda on the wide x-grid."""
    L = np.stack([p.grid_values[: grid.n_t + 1] for p in paths])[..., None]
    out = lam_w * L
    if not vol.is_constant:
        out = out + grid.dt * grid.sum_along_t(vol.lam_prime(grid.x_wide) * L)
    return np.where(grid.valid_mask(), out, np.nan)


def _I2(paths: list[LevyPathRecord], vol: Volatility, grid: SolveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Finite jump product prod_{s<=t} (1+lambda(t-s+x) dL) exp(-lambda(t-s+x) dL).

    Returns (field, positivity_ok), stacked as in _I1; a factor
    1 + lambda dL <= 0 on the triangle lowers that path's flag, and the
    field value is still recorded.
    """
    mask = grid.valid_mask()
    out = np.repeat(np.where(mask, 1.0, np.nan)[None], len(paths), axis=0)
    positivity_ok = np.ones(len(paths), dtype=bool)
    for k, path in enumerate(paths):
        # each jump enters at its row, the first one at or after it, as in L(t)
        for i0, s_m, y_m in zip(path.jump_rows.tolist(), path.jump_times, path.jump_sizes):
            if i0 > grid.n_t:
                break
            lam_v = vol.lam((grid.t[i0:, None] - s_m) + grid.x_wide)
            factor = 1.0 + lam_v * y_m
            if np.any((factor <= 0.0) & mask[i0:]):
                positivity_ok[k] = False
            out[k, i0:] *= factor * np.exp(-lam_v * y_m)
    return out, positivity_ok


def compute_a(
    paths: LevyPathRecord | Sequence[LevyPathRecord],
    vol: Volatility,
    r0: WeightedCurve,
    grid: SolveGrid,
) -> RandomFactorField | list[RandomFactorField]:
    """Assemble the random factor a(t,x) = r0(t+x) exp(I1 - q/2 Q) I2, q of
    each path's model.

    paths is one LevyPathRecord, which gives its field, or a sequence of
    paths on the grid, which gives the list of their fields: views into one
    stacked computation, equal path by path to the single-path fields.
    Only the jump product is a loop over paths; lambda on the grid, Q and
    the shifted r0 are built once.
    """
    stack = [paths] if isinstance(paths, LevyPathRecord) else list(paths)
    if not stack:
        raise ValueError("no paths given")
    for path in stack:
        if abs(path.dt - grid.dt) > 1e-12 * grid.dt:
            raise ValueError(f"path dt={path.dt} does not match grid dt={grid.dt}")
        if path.grid_values.size < grid.n_t + 1:
            raise ValueError("path horizon shorter than the grid horizon")
    if abs(r0.dx - grid.dt) > 1e-12 * grid.dt:
        raise ValueError(f"r0 grid dx={r0.dx} does not match grid dt={grid.dt}")
    if r0.values.size < grid.n_w + 1:
        raise ValueError(
            f"r0 grid too short: need {grid.n_w + 1} nodes covering x_max + t_star, "
            f"got {r0.values.size}"
        )
    lam_w = vol.lam(grid.x_wide)
    I1 = _I1(stack, vol, lam_w, grid)
    I2, positivity_ok = _I2(stack, vol, grid)

    lam_sq = lam_w**2
    if vol.is_constant:
        # trapezoid of a constant is exact; I1 is NaN beyond the triangle, so b is too
        Q = lam_sq[0] * grid.t[:, None]
    else:
        Q = grid.dt * grid.sum_along_t(lam_sq)
    # q Q is 0 on the triangle for q = 0, so such a path's I1 keeps its bits
    q = np.array([path.model.q for path in stack])[:, None, None]

    with np.errstate(over="ignore"):
        b = np.exp(I1 - 0.5 * q * Q) * I2
    a = grid.shifted(r0.values) * b
    b_bar = np.nanmax(b, axis=(-2, -1)).tolist()
    fields = [
        RandomFactorField(grid, I1[k], I2[k], a[k], b[k], b_bar[k], r0, ok, lam_w, path, vol)
        for k, (path, ok) in enumerate(zip(stack, positivity_ok.tolist()))
    ]
    return fields[0] if isinstance(paths, LevyPathRecord) else fields
