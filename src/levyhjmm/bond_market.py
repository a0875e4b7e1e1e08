"""Financial layer: frame conversions, bond prices, short rate, the
no-arbitrage drift condition and discounted-price martingale diagnostics.

Moving frame stores r(t, x) with x the time to maturity; natural frame
stores f(t, T) with T the maturity date, related by f(t,T) = r(t, T-t).
On the aligned dt = dx grid the conversion is a lossless index remap, the
same one the solver sums along (`SolveGrid.to_natural`, `to_moving`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .function_space import WeightedCurve, trapezoid
from .grids import SolveGrid
from .levy_analysis import ExponentHandle
from .hjmm_solver import (
    STATUS_CONVERGED,
    STATUS_EXPLOSION,
    SolverConfig,
    solve_monotone,
)
from .path_sim import SimConfig, simulate
from .random_factor import Volatility, compute_a

FRAME_MOVING = "Moving"
FRAME_NATURAL = "Natural"


@dataclass(frozen=True)
class ForwardField:
    """Forward-rate field in one of the two frames (NaN outside its domain)."""

    frame: str
    values: np.ndarray
    grid: SolveGrid
    gamma: float

    def __post_init__(self):
        if self.frame not in (FRAME_MOVING, FRAME_NATURAL):
            raise ValueError(f"unknown frame {self.frame!r}")
        expected = (self.grid.n_t + 1, self.grid.n_w + 1)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")


def to_natural_frame(field: ForwardField) -> ForwardField:
    """f(t_i, T_j) = r(t_i, T_j - t_i); triangular storage, T >= t."""
    if field.frame != FRAME_MOVING:
        raise ValueError("to_natural_frame expects a moving-frame field")
    g = field.grid
    return ForwardField(frame=FRAME_NATURAL, values=g.to_natural(field.values), grid=g, gamma=field.gamma)


def to_moving_frame(field: ForwardField) -> ForwardField:
    """r(t_i, x_j) = f(t_i, t_i + x_j); exact inverse of to_natural_frame."""
    if field.frame != FRAME_NATURAL:
        raise ValueError("to_moving_frame expects a natural-frame field")
    g = field.grid
    return ForwardField(frame=FRAME_MOVING, values=g.to_moving(field.values), grid=g, gamma=field.gamma)


def _time_index(grid: SolveGrid, t: float, what: str) -> int:
    i = int(round(t / grid.dt))
    if abs(i * grid.dt - t) > 1e-9 * max(1.0, t) or not 0 <= i <= grid.n_t:
        raise ValueError(f"{what}={t} is not on the time grid [0, {grid.t_star}]")
    return i


def bond_price(field: ForwardField, t: float, T: float) -> float:
    """P(t,T) = exp(-int_0^{T-t} r(t,v) dv) by trapezoid on the grid."""
    if field.frame != FRAME_MOVING:
        raise ValueError("bond_price expects a moving-frame field")
    if T < t:
        raise ValueError(f"maturity T={T} before t={t}")
    g = field.grid
    i = _time_index(g, t, "t")
    j = int(round((T - t) / g.dt))
    if abs(j * g.dt - (T - t)) > 1e-9 * max(1.0, T) or j > g.row_width(i):
        raise ValueError(f"T-t={T - t} not within the grid for t={t}")
    if j == 0:
        return 1.0
    integral = float(trapezoid(field.values[i, : j + 1], dx=g.dt))
    return math.exp(-integral)


def short_rate(field: ForwardField, t: float) -> float:
    """v(t) = r(t, 0)."""
    if field.frame != FRAME_MOVING:
        raise ValueError("short_rate expects a moving-frame field")
    return float(field.values[_time_index(field.grid, t, "t"), 0])


def hjm_drift_check(
    field: ForwardField, vol: Volatility, exponent: ExponentHandle, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residual |int_t^T alpha(t,u) du - J(int_t^T sigma(t,u) du)| over T.

    The volatility is the linear-model one, sigma(t,T) = lambda(T-t) f(t,T),
    and the drift is reconstructed from the exponent derivative, so the
    residual only measures quadrature error of the calculus identity
    int J'(Sigma) dSigma = J(Sigma).  Returns (maturities, residuals).
    """
    if field.frame != FRAME_MOVING:
        raise ValueError("hjm_drift_check expects a moving-frame field")
    g = field.grid
    i = _time_index(g, t, "t")
    w = g.row_width(i)
    xs = g.x_wide[: w + 1]
    sigma = vol.lam(xs) * field.values[i, : w + 1]
    # Sigma(T) = int_t^T sigma(t,u) du, cumulative trapezoid from T = t
    Sigma = np.zeros(w + 1)
    Sigma[1:] = np.cumsum(0.5 * (sigma[1:] + sigma[:-1])) * g.dt
    jp = exponent.J_prime(Sigma)
    alpha = jp * sigma
    lhs = np.zeros(w + 1)
    lhs[1:] = np.cumsum(0.5 * (alpha[1:] + alpha[:-1])) * g.dt
    rhs = exponent.J(Sigma)
    return t + xs, np.abs(lhs - rhs)


@dataclass(frozen=True)
class MartingaleRow:
    maturity: float
    t_checkpoint: float
    mean_discounted: float
    std_error: float
    reference: float
    n_paths: int


@dataclass(frozen=True)
class MartingaleReport:
    rows: tuple[MartingaleRow, ...]
    n_paths: int
    n_exploded: int
    n_not_converged: int
    note: str = (
        "plain expectation-constancy check; a genuinely local (non-true) "
        "martingale could fail it"
    )

    @property
    def n_excluded_explosions(self) -> int:
        """Paths left out of the means: exploded plus not converged."""
        return self.n_exploded + self.n_not_converged


def martingale_mc(
    model,
    vol: Volatility,
    r0: WeightedCurve,
    grid: SolveGrid,
    solver_cfg: SolverConfig,
    n_paths: int,
    maturities,
    t_checkpoints,
    seed: int,
    n_threshold: int = 1000,
) -> MartingaleReport:
    """Monte Carlo check that discounted bond prices are constant in mean.

    Simulates n_paths, solves each path, forms the discounted price
    P^(t,T) = exp(-int_0^t v(s) ds) P(t,T) and compares its cross-path mean
    at each checkpoint against P(0,T).  Paths that explode or reach the
    iteration cap without converging are excluded and counted apart.
    """
    maturities = [float(T) for T in maturities]
    t_checkpoints = [float(t) for t in t_checkpoints]
    exponent = ExponentHandle(model)
    seeds = np.random.SeedSequence(seed).generate_state(n_paths, dtype=np.uint64)
    samples: dict[tuple[float, float], list[float]] = {
        (T, t): [] for T in maturities for t in t_checkpoints
    }
    reference: dict[float, float] = {}
    n_exploded = n_not_converged = 0
    for ps in seeds:
        path = simulate(
            model,
            SimConfig(t_star=grid.t_star, dt=grid.dt, seed=int(ps), n_threshold=n_threshold),
        )
        factor = compute_a(path, vol, r0, model.q, grid)
        rep = solve_monotone(factor, vol, exponent, solver_cfg)
        if rep.status != STATUS_CONVERGED:
            if rep.status == STATUS_EXPLOSION:
                n_exploded += 1
            else:
                n_not_converged += 1
            continue
        field = ForwardField(FRAME_MOVING, rep.field, grid, solver_cfg.gamma)
        if not reference:
            for T in maturities:
                reference[T] = bond_price(field, 0.0, T)
        v = rep.field[:, 0]  # the short rate r(t, 0)
        for t in t_checkpoints:
            i = _time_index(grid, t, "t_checkpoint")
            disc = math.exp(-float(trapezoid(v[: i + 1], dx=grid.dt))) if i > 0 else 1.0
            for T in maturities:
                samples[(T, t)].append(disc * bond_price(field, t, T))
    rows = []
    n_eff = n_paths - n_exploded - n_not_converged
    for T in maturities:
        for t in t_checkpoints:
            vals = np.array(samples[(T, t)])
            mean = float(np.mean(vals)) if vals.size else float("nan")
            se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else float("nan")
            rows.append(
                MartingaleRow(
                    maturity=T,
                    t_checkpoint=t,
                    mean_discounted=mean,
                    std_error=se,
                    reference=reference.get(T, float("nan")),
                    n_paths=n_eff,
                )
            )
    return MartingaleReport(
        rows=tuple(rows), n_paths=n_paths, n_exploded=n_exploded, n_not_converged=n_not_converged
    )
