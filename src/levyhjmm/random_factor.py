"""The pathwise random factor of the equivalent integral equation.

Given a simulated path L and a volatility curve lambda, the field

    a(t,x) = r0(t+x) * exp(I1(t,x) - q^2/2 * int_0^t lambda^2(t-s+x) ds) * I2(t,x)

multiplies the nonlinear exponential in the fixed-point equation.  I1 is the
stochastic integral int_0^t lambda(t-s+x) dL(s) evaluated through the
integration-by-parts identity

    I1(t,x) = lambda(x) L(t) + int_0^t lambda'(t-s+x) L(s) ds,

which is pathwise exact for drift+Brownian+jumps paths, and I2 is the finite
jump product prod (1 + lambda(t-s+x) dL(s)) exp(-lambda(t-s+x) dL(s)).

The grid enforces dt = dx so every moving-frame read r0(t+x), lambda(t-s+x)
lands exactly on a node; only the jump product evaluates lambda off-grid (at
exact jump offsets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .function_space import WeightedCurve
from .grids import SolveGrid
from .path_sim import LevyPathRecord


# ---------------------------------------------------------------------------
# volatility specifications; all satisfy 0 < lambda_low <= lambda <= lambda_bar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantVol:
    value: float

    def __post_init__(self):
        if self.value <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.value}")

    @property
    def lambda_low(self) -> float:
        return self.value

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
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if min(self.c0, self.c0 + self.c1) <= 0.0:
            raise ValueError("lambda must stay positive (need min(c0, c0+c1) > 0)")

    @property
    def lambda_low(self) -> float:
        return min(self.c0, self.c0 + self.c1)

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
        if self.dx <= 0.0 or values.ndim != 1 or values.size < 3:
            raise ValueError("tabulated volatility needs dx > 0 and >= 3 samples")
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("tabulated volatility must be positive and finite")
        object.__setattr__(self, "values", values)

    @property
    def xs(self) -> np.ndarray:
        return self.dx * np.arange(self.values.size)

    @property
    def lambda_low(self) -> float:
        return float(np.min(self.values))

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
    """a(t,x) with its constituents on the aligned grid (NaN beyond triangle)."""

    grid: SolveGrid
    I1: np.ndarray
    I2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    b_bar: float
    r0: WeightedCurve
    positivity_ok: bool


def _check_grid_alignment(path: LevyPathRecord, grid: SolveGrid) -> None:
    if abs(path.dt - grid.dt) > 1e-12 * grid.dt:
        raise ValueError(f"path dt={path.dt} does not match grid dt={grid.dt}")
    if path.grid_values.size < grid.n_t + 1:
        raise ValueError("path horizon shorter than the grid horizon")


def compute_I1(path: LevyPathRecord, vol: Volatility, grid: SolveGrid) -> np.ndarray:
    """Integration-by-parts form of int_0^t lambda(t-s+x) dL(s), trapezoid in s."""
    _check_grid_alignment(path, grid)
    L = path.grid_values[: grid.n_t + 1, None]
    out = vol.lam(grid.x_wide) * L
    if not vol.is_constant:
        out = out + grid.dt * grid.sum_along_t(vol.lam_prime(grid.x_wide) * L)
    return np.where(grid.valid_mask(), out, np.nan)


def compute_I2(
    path: LevyPathRecord,
    vol: Volatility,
    grid: SolveGrid,
    expect_positive: bool = False,
) -> tuple[np.ndarray, bool]:
    """Finite jump product prod_{s<=t} (1+lambda(t-s+x) dL) exp(-lambda(t-s+x) dL).

    Returns (field, positivity_ok); a factor <= 0 while positivity was
    expected lowers the flag but the field value is still recorded.
    """
    _check_grid_alignment(path, grid)
    mask = grid.valid_mask()
    out = np.where(mask, 1.0, np.nan)
    positivity_ok = True
    for s_m, y_m in zip(path.jump_times, path.jump_sizes):
        if s_m > grid.t_star:
            break
        i0 = int(np.searchsorted(grid.t, s_m - 1e-15 * max(1.0, s_m), side="left"))
        lam_v = vol.lam((grid.t[i0:, None] - s_m) + grid.x_wide)
        if expect_positive and np.any((1.0 + lam_v * y_m <= 0.0) & mask[i0:]):
            positivity_ok = False
        out[i0:] *= (1.0 + lam_v * y_m) * np.exp(-lam_v * y_m)
    return out, positivity_ok


def compute_a(
    path: LevyPathRecord,
    vol: Volatility,
    r0: WeightedCurve,
    q: float,
    grid: SolveGrid,
    expect_positive: bool = False,
) -> RandomFactorField:
    """Assemble the random factor a(t,x) = r0(t+x) exp(I1 - q^2/2 Q) I2."""
    _check_grid_alignment(path, grid)
    if abs(r0.dx - grid.dt) > 1e-12 * grid.dt:
        raise ValueError(f"r0 grid dx={r0.dx} does not match grid dt={grid.dt}")
    if r0.values.size < grid.n_w + 1:
        raise ValueError(
            f"r0 grid too short: need {grid.n_w + 1} nodes covering x_max + t_star, "
            f"got {r0.values.size}"
        )
    I1 = compute_I1(path, vol, grid)
    I2, positivity_ok = compute_I2(path, vol, grid, expect_positive=expect_positive)

    mask = grid.valid_mask()
    lam_sq = vol.lam(grid.x_wide) ** 2
    if q == 0.0:
        Q = np.where(mask, 0.0, np.nan)
    elif vol.is_constant:
        # trapezoid of a constant is exact
        Q = np.where(mask, lam_sq[0] * grid.t[:, None], np.nan)
    else:
        Q = grid.dt * grid.sum_along_t(np.broadcast_to(lam_sq, mask.shape))

    with np.errstate(over="ignore"):
        b = np.exp(I1 - 0.5 * q * q * Q) * I2
    a = grid.shifted(r0.values) * b
    b_bar = float(np.nanmax(np.where(mask, b, np.nan)))
    return RandomFactorField(
        grid=grid, I1=I1, I2=I2, a=a, b=b, b_bar=b_bar, r0=r0, positivity_ok=positivity_ok
    )


def write_factor_csv(fh, field: RandomFactorField) -> None:
    """Field dump to the open text stream fh: t,x,I1,I2,a rows over the valid triangle."""
    g = field.grid
    t, x = [repr(v) for v in g.t.tolist()], [repr(v) for v in g.x_wide.tolist()]
    I1, I2, a = field.I1.tolist(), field.I2.tolist(), field.a.tolist()
    fh.write("t,x,I1,I2,a\n")
    for i in range(g.n_t + 1):
        for j in range(g.row_width(i) + 1):
            fh.write(f"{t[i]},{x[j]},{I1[i][j]!r},{I2[i][j]!r},{a[i][j]!r}\n")
