"""Financial layer: bond prices, the no-arbitrage drift condition and
discounted-price martingale diagnostics.

A forward-rate field is stored in the moving frame, r(t, x) with x the time
to maturity; on the aligned dt = dx grid the natural frame f(t, T) =
r(t, T - t) is the same field stored in rows of n_w + 2 and read in rows of
n_w + 1, the reshape the solver sums along (`SolveGrid.sum_along_t`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .function_space import WeightedCurve, cumulative_trapezoid, trapezoid
from .grids import SolveGrid
from .levy_analysis import ExponentHandle
from .hjmm_solver import (
    STATUS_CONVERGED,
    STATUS_EXPLOSION,
    SolverConfig,
    solve_batch,
)
from .path_sim import N_THRESHOLD, jump_law, simulate_paths
from .random_factor import Volatility, compute_a

#: martingale_mc solves its paths in blocks of at most this many field
#: entries of the grid it solves on, paths x (n_t + 1) x (n_w + 1): enough
#: paths that the per-call cost of an iteration is shared (29 at dt = 1/16 on
#: [0, 1]^2, 107 on its crop to t <= 0.5, T <= 1), few enough that a block's
#: arrays (128 KB each) stay in cache; larger blocks measured no faster
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class ForwardField:
    """Forward-rate field in the moving frame (NaN outside its domain)."""

    values: np.ndarray
    grid: SolveGrid

    def __post_init__(self):
        expected = (self.grid.n_t + 1, self.grid.n_w + 1)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")


def _maturity_index(grid: SolveGrid, t: float, T: float) -> tuple[int, int]:
    """(i, j) with t = t_i and T - t = x_j, both on the grid."""
    if T < t:
        raise ValueError(f"maturity T={T} before t={t}")
    i = grid.node(t, grid.n_t, f"t={t} is not on the time grid [0, {grid.t_star}]")
    return i, grid.node(T - t, grid.row_width(i), f"T-t={T - t} not within the grid for t={t}")


def _resolve_points(grid: SolveGrid, maturities, t_checkpoints) -> tuple[dict, list]:
    """({T: j of P(0, T)}, [(t, i, [(T, j), ...]), ...]): the grid indices of
    every reference P(0, T), then of each checkpoint with its maturities, the
    order pricing meets them.  The first point off the grid raises ValueError,
    whose message starts "t_checkpoint=" if that point is a checkpoint."""
    ref_j = {T: _maturity_index(grid, 0.0, T)[1] for T in maturities}
    points = []
    for t in t_checkpoints:
        i = grid.node(t, grid.n_t, f"t_checkpoint={t} is not on the time grid [0, {grid.t_star}]")
        points.append((t, i, [(T, _maturity_index(grid, t, T)[1]) for T in maturities]))
    return ref_j, points


def exp_neg_integrals(rows: np.ndarray, dx: float) -> list[float]:
    """exp(-trapezoid(row)) for each row of a stack, 1.0 for a one-node row.

    A row of a moving-frame field cut after x_j prices P(t, t + x_j); its
    rows are summed one by one, so a stack of rows gives each row's price
    bit for bit.  math.exp, not np.exp: np.exp can differ from it in the
    last bit.
    """
    if rows.shape[-1] < 2:
        return [1.0] * rows.shape[0]
    return [math.exp(-x) for x in trapezoid(rows, dx=dx, axis=-1).tolist()]


def bond_price(field: ForwardField, t: float, T: float) -> float:
    """P(t,T) = exp(-int_0^{T-t} r(t,v) dv) by trapezoid on the grid."""
    i, j = _maturity_index(field.grid, t, T)
    return exp_neg_integrals(field.values[i : i + 1, : j + 1], field.grid.dt)[0]


def hjm_drift_check(
    field: ForwardField, vol: Volatility, exponent: ExponentHandle, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residual |int_t^T alpha(t,u) du - J(int_t^T sigma(t,u) du)| over T.

    The volatility is the linear-model one, sigma(t,T) = lambda(T-t) f(t,T),
    and the drift is reconstructed from the exponent derivative, so the
    residual only measures quadrature error of the calculus identity
    int J'(Sigma) dSigma = J(Sigma).  Returns (maturities, residuals).
    """
    g = field.grid
    i = g.node(t, g.n_t, f"t={t} is not on the time grid [0, {g.t_star}]")
    w = g.row_width(i)
    xs = g.x_wide[: w + 1]
    sigma = vol.lam(xs) * field.values[i, : w + 1]
    # Sigma(T) = int_t^T sigma(t,u) du, cumulative trapezoid from T = t
    Sigma = cumulative_trapezoid(sigma, g.dt)
    lhs = cumulative_trapezoid(exponent.J_prime(Sigma) * sigma, g.dt)
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
    n_iters_min: int
    n_iters_median: float
    n_iters_max: int
    region: tuple[float, float]
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
) -> MartingaleReport:
    """Monte Carlo check that discounted bond prices are constant in mean.

    Simulates n_paths, solves each path, forms the discounted price
    P^(t,T) = exp(-int_0^t v(s) ds) P(t,T) and compares its cross-path mean
    at each checkpoint against P(0,T), priced on the first converged path.
    Paths that explode or reach the iteration cap without converging are
    excluded and counted apart; the iteration counts of all paths are
    summarised by min, median and max.

    Pricing reads only t <= the last checkpoint and T = t + x <= the last
    maturity, and K is causal in t and in T, so each path is solved on
    `grid.crop(max(t_checkpoints), max(maturities))` only; the crop's
    (t_star, x_max + t_star) is the report's `region`.  The stop rules (cap
    from sup r0, tol, c1 and its domain probe) read the crop, so n_exploded
    and n_not_converged count what happens inside the region read: a path
    that explodes only beyond it is priced.

    Each path is simulated on the grid given from its own seed stream, with
    the model's jump law built once.  The paths then go through in blocks:
    one simulate_paths, one compute_a, one solve_batch and one pricing
    pass per block, with the same result as one path at a time, errors
    included: the first path that fails to simulate or to solve raises.
    Within a block, each distinct path (grid values and jumps) is assembled
    and solved once, and its copies share its report.  Copies are common:
    with q = 0 and a finite-activity measure, a fraction e^{-nu(R) T*} of
    the paths has no jump, and all of them have L(t) = (a - m_n) t.
    A checkpoint or maturity off the grid raises ValueError before any path
    is simulated.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    maturities = [float(T) for T in maturities]
    t_checkpoints = [float(t) for t in t_checkpoints]
    ref_j, points = _resolve_points(grid, maturities, t_checkpoints)  # before any path
    law = jump_law(model, N_THRESHOLD)
    seeds = np.random.SeedSequence(seed).generate_state(n_paths, dtype=np.uint64)
    crop = grid.crop(max(t_checkpoints), max(maturities))
    block = max(1, _BLOCK_ENTRIES // ((crop.n_t + 1) * (crop.n_w + 1)))
    samples: dict[tuple[float, float], list[float]] = {
        (T, t): [] for T in maturities for t in t_checkpoints
    }
    reference: dict[float, float] = {}
    n_exploded = n_not_converged = 0
    n_iters: list[int] = []

    for start in range(0, n_paths, block):
        # a path that fails to simulate ends the block; its error is raised
        # once the paths before it are solved, as one path at a time would
        paths, failure = simulate_paths(law, grid, seeds[start : start + block])
        fields = []
        if paths:
            # a path's a(t, x), and so its solve, reads only these three fields;
            # the distinct paths keep the order of their first copies, so the
            # lowest failing path is still the one whose error is raised
            keys = [(p.grid_values.tobytes(), p.jump_times.tobytes(), p.jump_sizes.tobytes()) for p in paths]
            first = {}
            for key, path in zip(keys, paths):
                first.setdefault(key, path)
            factors = compute_a(list(first.values()), vol, r0, crop)
            report_of = dict(zip(first, solve_batch(factors, solver_cfg)))
            for rep in map(report_of.__getitem__, keys):
                n_iters.append(rep.n_iters)
                if rep.status == STATUS_CONVERGED:
                    fields.append(rep.field)
                elif rep.status == STATUS_EXPLOSION:
                    n_exploded += 1
                else:
                    n_not_converged += 1
        if fields:
            if not reference:
                reference = {T: exp_neg_integrals(fields[0][:1, : j + 1], grid.dt)[0] for T, j in ref_j.items()}
            stack = np.stack(fields)
            for t, i, maturity_js in points:
                disc = exp_neg_integrals(stack[:, : i + 1, 0], grid.dt)  # of the short rate r(s, 0)
                for T, j in maturity_js:
                    prices = exp_neg_integrals(stack[:, i, : j + 1], grid.dt)
                    samples[(T, t)].extend(d * p for d, p in zip(disc, prices))
        if failure is not None:
            raise failure
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
        rows=tuple(rows),
        n_paths=n_paths,
        n_exploded=n_exploded,
        n_not_converged=n_not_converged,
        n_iters_min=min(n_iters),
        n_iters_median=float(np.median(n_iters)),
        n_iters_max=max(n_iters),
        region=(crop.t_star, crop.x_max + crop.t_star),
    )
