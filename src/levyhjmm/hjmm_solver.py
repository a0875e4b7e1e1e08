"""Monotone fixed-point solver for the pathwise integral equation.

The equation r = K(r) with

    K(h)(t,x) = a(t,x) * exp( int_0^t J'( int_0^{t-s+x} lambda(v) h(s,v) dv )
                              * lambda(t-s+x) ds )

is iterated from h_0 = 0.  Because J' is nondecreasing, lambda is positive
and a is nonnegative, the iterates increase pointwise; their limit is the
minimal nonnegative solution when it exists, and unbounded growth of the
iterates is the numerical signature of explosion (non-existence on the
horizon).  Everything is evaluated on the aligned dt = dx grid with
trapezoidal quadrature in the inner (v) and outer (s) variables; all frame
reads are grid-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .function_space import WeightedCurve, trapezoid
from .grids import SolveGrid
from .levy_analysis import ExponentDomainError, ExponentHandle
from .path_sim import LevyPathRecord, SimConfig, simulate
from .random_factor import RandomFactorField, Volatility, compute_a

STATUS_CONVERGED = "Converged"
STATUS_EXPLOSION = "ExplosionDetected"
STATUS_MAX_ITER = "MaxIterReached"

#: consecutive sup-norm growth factors above this for 3 iterations flag explosion
_GROWTH_FACTOR = 10.0
_GROWTH_STREAK = 3


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the monotone iteration.

    cap = None means 1e8 * (1 + sup r0), fixed when the solve starts.
    """

    tol: float = 1e-10
    max_iter: int = 200
    cap: float | None = None
    gamma: float = 1.0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")


@dataclass
class SolveReport:
    """Outcome of one monotone solve on one path."""

    status: str
    field: np.ndarray
    iterate_sup_norms: list[float]
    iterate_l2_norms: list[float]
    c1: float | None
    n_iters: int
    grid: SolveGrid
    gamma: float
    detail: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    iterates: list[np.ndarray] | None = None


def _cumtrapz_rows(mat: np.ndarray, dx: float) -> np.ndarray:
    """Row-wise cumulative trapezoid with zero at the first node."""
    out = np.empty_like(mat)
    out[:, 0] = 0.0
    avg = 0.5 * (mat[:, 1:] + mat[:, :-1])
    np.cumsum(avg, axis=1, out=out[:, 1:])
    out[:, 1:] *= dx
    return out


def _on_triangle(fn, z: np.ndarray, grid: SolveGrid, what: str | None = None) -> np.ndarray:
    """fn(z) in one call over the valid triangle, NaN beyond it.

    With `what` set, an infinite value raises ExponentDomainError at the
    first such z in row-major order.
    """
    mask = grid.valid_mask()
    zs = z[mask]
    vals = fn(zs)
    if what is not None:
        inf = np.isinf(vals)
        if np.any(inf):
            raise ExponentDomainError(zs[np.argmax(inf)], what=what)
    out = grid.empty_field()
    out[mask] = vals
    return out


def field_row_norms(field_mat: np.ndarray, grid: SolveGrid, gamma: float) -> np.ndarray:
    """Weighted L2 norm of each time slice over its valid x-range."""
    mask = grid.valid_mask()
    with np.errstate(over="ignore"):
        y = np.where(mask, field_mat * field_mat * np.exp(gamma * grid.x_wide), 0.0)
        # trapezoid per row; a panel counts when its right node is on the triangle
        panels = np.where(mask[:, 1:], grid.dt * (y[:, 1:] + y[:, :-1]) / 2.0, 0.0)
        return np.sqrt(panels.sum(axis=1))


def apply_K(
    h: np.ndarray,
    factor: RandomFactorField,
    vol: Volatility,
    exponent: ExponentHandle,
) -> np.ndarray:
    """One application of the fixed-point operator on the grid.

    Raises ExponentDomainError when J' is infinite at a needed argument.
    """
    grid = factor.grid
    lam_w = vol.lam(grid.x_wide)
    cum = _cumtrapz_rows(lam_w[None, :] * h, grid.dt)
    with np.errstate(over="ignore"):
        jp = _on_triangle(exponent.J_prime, cum, grid, what="J'")
        # row 0 sums nothing, so exp(0) keeps it equal to a(0, x)
        return factor.a * np.exp(grid.dt * grid.sum_along_t(jp * lam_w))


def a_priori_c1(
    b_bar: float,
    r0_norm: float,
    lambda_bar: float,
    t_star: float,
    gamma: float,
    exponent: ExponentHandle,
) -> float | None:
    """Iterate-invariant bound on the weighted L2 norms, when one exists.

    If J' <= 0 at every probed argument the bound is b_bar * ||r0||.
    Otherwise the smallest c on a log grid (60 points per decade up to 1e12)
    with  ln(b_bar ||r0||) + max(lambda_bar T* J'(lambda_bar c / sqrt(gamma)), 0)
    <= ln c  is returned; None when no grid point qualifies.
    """
    B = b_bar * r0_norm
    if B <= 0.0:
        return None
    cs = 10.0 ** (np.arange(-8 * 60, 12 * 60 + 1) / 60.0)
    zc = lambda_bar * cs / math.sqrt(gamma)
    jp = exponent.J_prime(zc)
    if np.all(jp <= 0.0):
        return B
    lhs = math.log(B) + np.maximum(lambda_bar * t_star * jp, 0.0)
    ok = np.isfinite(lhs) & (lhs <= np.log(cs))
    if not np.any(ok):
        return None
    return float(cs[np.argmax(ok)])


def solve_monotone(
    factor: RandomFactorField,
    vol: Volatility,
    exponent: ExponentHandle,
    cfg: SolverConfig,
    h0: str = "zero",
    keep_iterates: bool = False,
) -> SolveReport:
    """Iterate h_{n+1} = K(h_n) from h_0 = 0 to the minimal solution.

    Stops Converged when the relative sup change drops below tol,
    ExplosionDetected when an iterate tops the cap or the sup norm grows by
    more than a factor 10 for 3 consecutive iterations, MaxIterReached
    otherwise.  h0="factor" seeds the iteration at a instead (used by the
    two-start uniqueness check).
    """
    grid = factor.grid
    sup_r0 = float(np.max(np.abs(factor.r0.values[: grid.n_w + 1])))
    cap = cfg.cap if cfg.cap is not None else 1e8 * (1.0 + sup_r0)
    if cap <= sup_r0:
        raise ValueError(f"cap={cap} must exceed sup r0={sup_r0}")

    r0_vals = factor.r0.values[: grid.n_w + 1]
    r0_norm = math.sqrt(trapezoid(r0_vals**2 * np.exp(cfg.gamma * grid.x_wide), dx=grid.dt))
    c1 = a_priori_c1(
        factor.b_bar, r0_norm, vol.lambda_bar, grid.t_star, cfg.gamma, exponent
    )
    # fail fast if J' is unreachable on the region the iteration can visit
    z_probe = (
        vol.lambda_bar * c1 / math.sqrt(cfg.gamma)
        if c1 is not None
        else vol.lambda_bar * cap * grid.x_max
    )
    probe = exponent.J_prime(np.array([z_probe]))
    if np.any(np.isinf(probe)):
        raise ExponentDomainError(z_probe)

    if h0 == "zero":
        h = np.where(grid.valid_mask(), 0.0, np.nan)
    elif h0 == "factor":
        h = factor.a.copy()
    else:
        raise ValueError(f"h0 must be 'zero' or 'factor', got {h0!r}")

    sup_norms: list[float] = []
    l2_norms: list[float] = []
    iterates: list[np.ndarray] = []
    status = STATUS_MAX_ITER
    detail: dict = {"h0": h0, "cap": cap}
    growth_streak = 0
    n_iters = 0

    for n in range(cfg.max_iter):
        h_next = apply_K(h, factor, vol, exponent)
        n_iters = n + 1
        sup = grid.nan_sup(h_next)
        sup_norms.append(sup)
        l2_norms.append(float(np.max(field_row_norms(h_next, grid, cfg.gamma))))
        if keep_iterates:
            iterates.append(h_next.copy())

        if not math.isfinite(sup) or sup > cap:
            status = STATUS_EXPLOSION
            detail["rule"] = "cap"
            h = h_next
            break
        if n >= 1 and sup > _GROWTH_FACTOR * sup_norms[-2] > 0.0:
            growth_streak += 1
            if growth_streak >= _GROWTH_STREAK:
                status = STATUS_EXPLOSION
                detail["rule"] = f"growth-streak x{_GROWTH_FACTOR}"
                h = h_next
                break
        else:
            growth_streak = 0

        change = grid.nan_sup(h_next - h)
        h = h_next
        if change < cfg.tol * (1.0 + sup):
            status = STATUS_CONVERGED
            detail["last_change"] = change
            break

    return SolveReport(
        status=status,
        field=h,
        iterate_sup_norms=sup_norms,
        iterate_l2_norms=l2_norms,
        c1=c1,
        n_iters=n_iters,
        grid=grid,
        gamma=cfg.gamma,
        detail=detail,
        iterates=iterates if keep_iterates else None,
    )


# ---------------------------------------------------------------------------
# residual and uniqueness diagnostics
# ---------------------------------------------------------------------------


def mild_residual(
    report: SolveReport,
    path: LevyPathRecord,
    factor: RandomFactorField,
    vol: Volatility,
    exponent: ExponentHandle,
    r0: WeightedCurve,
) -> np.ndarray:
    """Weighted L2 distance, per grid time, between r and the discretized
    mild form (shifted initial curve + drift convolution + stochastic sum).

    The stochastic integral is a left-point sum over grid increments of the
    compensated drift+Brownian part plus the recorded jumps evaluated at
    field left limits.  First-order accurate in dt.
    """
    if report.status != STATUS_CONVERGED:
        raise RuntimeError("mild residual needs a converged report")
    grid = report.grid
    r = report.field
    model = path.model
    lam_w = vol.lam(grid.x_wide)
    cum = _cumtrapz_rows(lam_w[None, :] * r, grid.dt)
    dt = grid.dt
    weights = np.exp(report.gamma * grid.x_wide)

    dW = path.brownian_increments
    dLc = (model.a - path.m_n) * dt + dW[: grid.n_t] if dW.size else np.full(grid.n_t, (model.a - path.m_n) * dt)

    jp = _on_triangle(exponent.J_prime, cum, grid)
    lam_r = lam_w * r
    drift = dt * grid.sum_along_t(jp * lam_r)
    dLc_rows = np.append(dLc, 0.0)[:, None]
    rhs = grid.shifted(r0.values) + drift + grid.sum_along_t(lam_r * dLc_rows, rule="left")
    for s_m, y_m in zip(path.jump_times, path.jump_sizes):
        # the jump enters every row with t_i >= s_m, at the field's left limit
        i0 = int(np.searchsorted(grid.t, s_m, side="left"))
        k = max(i0 - 1, 0)
        wk = grid.row_width(k)
        args = (grid.t[i0:, None] - s_m) + grid.x_wide
        r_left = np.interp(args, grid.x_wide[: wk + 1], r[k, : wk + 1])
        rhs[i0:] += vol.lam(args) * r_left * y_m
    diff = (r - rhs)[:, : grid.n_x + 1]
    return np.sqrt(trapezoid(diff**2 * weights[: grid.n_x + 1], dx=dt, axis=1))


@dataclass(frozen=True)
class GronwallResult:
    holds_on_grid: bool
    witness: tuple[float, float] | None
    zero_within: float
    sup_d: float
    sup_d_le_bound: bool


def gronwall_check(
    d: np.ndarray, C: float, grid: SolveGrid, atol: float = 1e-9, n_induction: int = 10
) -> GronwallResult:
    """Verify d(t,x) <= C * int_0^t int_0^{t-s+x} d dv ds on the grid.

    When the inequality holds (within atol), the iterated bound
    M C^n (t(t+x))^n / (n!)^2 at n = n_induction is reported as zero_within,
    certifying that d vanishes up to that level.
    """
    if C <= 0.0:
        raise ValueError("C must be positive")
    mask = grid.valid_mask()
    dv = np.where(mask, d, np.nan)
    if np.nanmin(dv) < 0.0:
        raise ValueError("d must be nonnegative")
    inner = _cumtrapz_rows(np.where(mask, d, 0.0), grid.dt)
    dt = grid.dt
    rhs = grid.sum_along_t(inner) * dt
    bad = d > C * rhs + atol
    holds = not np.any(bad)
    witness = None
    if not holds:
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        witness = (float(grid.t[i]), float(grid.x_wide[j]))

    sup_d = float(np.nanmax(dv))
    n = n_induction
    i_idx = np.arange(grid.n_t + 1)[:, None]
    j_idx = np.arange(grid.n_w + 1)[None, :]
    uw = (i_idx * dt) * ((i_idx + j_idx) * dt)
    bound = sup_d * (C**n) * np.where(mask, uw, np.nan) ** n / math.factorial(n) ** 2
    zero_within = float(np.nanmax(bound)) if sup_d > 0 else 0.0
    return GronwallResult(
        holds_on_grid=holds,
        witness=witness,
        zero_within=zero_within,
        sup_d=sup_d,
        sup_d_le_bound=sup_d <= zero_within + atol,
    )


@dataclass(frozen=True)
class StrongResidual:
    sup: float
    l2: float
    per_t: np.ndarray


def strong_residual(
    report: SolveReport,
    r0: WeightedCurve,
    vol: Volatility,
    exponent: ExponentHandle,
    r0_prime: np.ndarray | None = None,
) -> StrongResidual:
    """Pointwise identity between d/dx r and its integral representation.

    Only supported for constant volatility; r0 must stay strictly positive.
    r0_prime supplies analytic derivative values on the wide grid (defaults
    to central differences of the sampled curve).
    """
    if report.status != STATUS_CONVERGED:
        raise RuntimeError("strong residual needs a converged report")
    if not vol.is_constant:
        raise ValueError("strong-form check supports constant volatility only")
    grid = report.grid
    lam = float(vol.lam(np.zeros(1))[0])
    r0v = r0.values[: grid.n_w + 1]
    if np.any(r0v <= 0.0):
        raise ValueError("r0 must be strictly positive for the strong-form check")
    if r0_prime is None:
        r0p = np.gradient(r0.values, grid.dt)[: grid.n_w + 1]
    else:
        r0p = np.asarray(r0_prime, dtype=float)[: grid.n_w + 1]

    r = report.field
    cum = _cumtrapz_rows(lam * np.where(grid.valid_mask(), r, 0.0), grid.dt)
    jpp = _on_triangle(exponent.J_second, cum, grid, what="J''")
    dt = grid.dt
    term = grid.sum_along_t(jpp * r) * (dt * lam * lam)
    rhs = r * (grid.shifted(r0p) / grid.shifted(r0v) + term)
    weights = np.exp(report.gamma * grid.x_wide)
    per_t = np.zeros(grid.n_t + 1)
    sup = 0.0
    for i in range(grid.n_t + 1):
        w = grid.row_width(i)
        # second-order one-sided boundaries keep the whole check O(dx^2)
        lhs = np.gradient(r[i, : w + 1], dt, edge_order=2 if w >= 2 else 1)
        diff = (lhs - rhs[i, : w + 1])[: grid.n_x + 1]
        per_t[i] = math.sqrt(trapezoid(diff**2 * weights[: grid.n_x + 1], dx=dt))
        sup = max(sup, float(np.max(np.abs(diff))))
    return StrongResidual(sup=sup, l2=float(np.max(per_t)), per_t=per_t)


def uniqueness_constant(
    factor: RandomFactorField,
    vol: Volatility,
    exponent: ExponentHandle,
    gamma: float,
    norms_a: float,
    norms_b: float,
) -> float:
    """The Gronwall constant from the uniqueness argument for two solutions
    with weighted-norm bounds norms_a, norms_b."""
    grid = factor.grid
    sup_r0 = float(np.max(factor.r0.values[: grid.n_w + 1]))
    B = factor.b_bar
    lb = vol.lambda_bar
    z = lb * max(norms_a, norms_b) / math.sqrt(gamma)
    jp = float(np.abs(exponent.J_prime(np.array([z])))[0])
    jpp0 = float(exponent.J_second(np.array([0.0]))[0])
    return sup_r0 * B * math.exp(lb * grid.t_star * jp) * jpp0 * lb * lb


# ---------------------------------------------------------------------------
# explosion sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    level: float
    status: str
    n_iters: int
    max_sup: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    first_explosion_level: float | None


def explosion_sweep(
    model,
    vol: Volatility,
    r0_levels,
    grid: SolveGrid,
    seed: int,
    tol: float = 1e-10,
    max_iter: int = 200,
    gamma: float = 1.0,
    n_threshold: int = 1000,
) -> SweepResult:
    """Solve with flat initial curves r0 = k over a level range, one path.

    Reports per-level status and the smallest exploding level, if any.
    """
    exponent = ExponentHandle(model)
    path = simulate(model, SimConfig(t_star=grid.t_star, dt=grid.dt, seed=seed, n_threshold=n_threshold))
    rows: list[SweepRow] = []
    first = None
    for k in sorted(float(k) for k in r0_levels):
        r0 = WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, k), gamma=gamma)
        factor = compute_a(path, vol, r0, model.q, grid)
        cfg = SolverConfig(tol=tol, max_iter=max_iter, cap=1e8 * (1.0 + k), gamma=gamma)
        rep = solve_monotone(factor, vol, exponent, cfg)
        rows.append(
            SweepRow(
                level=k,
                status=rep.status,
                n_iters=rep.n_iters,
                max_sup=rep.iterate_sup_norms[-1] if rep.iterate_sup_norms else float("nan"),
            )
        )
        if rep.status == STATUS_EXPLOSION and first is None:
            first = k
    return SweepResult(rows=tuple(rows), first_explosion_level=first)
