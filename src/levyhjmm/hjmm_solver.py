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
reads are grid-exact.  Independent paths are iterated together as one stack
(`solve_batch`), each with its own stopping rule; a single solve is a stack
of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .function_space import WeightedCurve, cumulative_trapezoid, weighted_l2
from .grids import SolveGrid
from .levy_analysis import ExponentDomainError, ExponentHandle
from .path_sim import simulate
from .random_factor import RandomFactorField, Volatility, compute_a

STATUS_CONVERGED = "Converged"
STATUS_EXPLOSION = "ExplosionDetected"
STATUS_MAX_ITER = "MaxIterReached"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the monotone iteration.

    cap = None means 1e8 * (1 + sup |r0|), fixed when the solve starts.
    """

    tol: float = 1e-10
    max_iter: int = 200
    cap: float | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.cap is not None and math.isnan(self.cap):
            raise ValueError("cap must not be NaN")


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
    iterates: list[np.ndarray] | None = None


def _domain_fault(z: np.ndarray, vals: np.ndarray, domain_sup: float) -> np.ndarray:
    """Where J' (or J'') is -inf, or +inf at z >= domain_sup; a +inf below
    domain_sup is a finite value beyond double range, not a fault."""
    fault = np.isinf(vals)
    if fault.any():
        fault &= (vals < 0.0) | (z >= domain_sup)
    return fault


def _on_triangle(fn, z: np.ndarray, grid: SolveGrid, what: str, domain_sup: float) -> np.ndarray:
    """fn(z) in one call over every field in z, NaN beyond the triangle: z is
    overwritten with NaN there first, and fn gives NaN at NaN.

    A field with a negative z (outside the domain the exponent is evaluated
    on) or a domain fault (`_domain_fault`) raises ExponentDomainError for
    `what`, at the first negative z of that field if it has one, else at
    its first fault, in row-major order.  For a stack of fields the lowest
    such field raises, and the error's `path` attribute is its index along
    the (flattened) leading axes.
    """
    np.copyto(z, np.nan, where=grid.off_mask)
    rows = z.reshape(-1, z.shape[-2] * z.shape[-1])
    has_neg = (rows < 0.0).any(axis=-1)
    n_ok = int(np.argmax(has_neg)) if has_neg.any() else rows.shape[0]
    # fields from the first one with a negative z on are not evaluated
    vals = fn(rows[:n_ok].ravel())
    fault = _domain_fault(rows[:n_ok].ravel(), vals, domain_sup)
    if np.any(fault):
        first = int(np.argmax(fault))
        path, z_bad = first // rows.shape[-1], rows[:n_ok].flat[first]
    elif n_ok < rows.shape[0]:
        path, z_bad = n_ok, rows[n_ok, int(np.argmax(rows[n_ok] < 0.0))]
    else:
        return vals.reshape(z.shape)
    err = ExponentDomainError(z_bad, what=what)
    err.path = path
    raise err


def apply_K(h: np.ndarray, factor: RandomFactorField, exponent: ExponentHandle, work=None) -> np.ndarray:
    """One application of the fixed-point operator on the grid.

    h may be a stack of fields over leading axes, with factor.a stacked
    alike, or one field for every path of the stack; lambda is read from
    factor.lam_w, and multiplies J' in every row.
    factor.a is NaN beyond the triangle, as compute_a makes it, and so is
    K(h).  Raises ExponentDomainError when a needed argument of J' is
    negative or J' has a domain fault there.

    work: three buffers at least as long as h's stack (h stacked along one
    leading axis), whose leading slices serve it in place of fresh arrays:
    the x-integral, holding anything, and a `SolveGrid.padded_pair` that
    only `sum_along_t` has written since.  K(h) never aliases them.
    """
    grid, lam_w = factor.grid, factor.lam_w
    if work is None:
        cum, padded = h * lam_w, None
    else:
        cum, *padded = (w[: len(h)] for w in work)
        np.multiply(h, lam_w, out=cum)
    cumulative_trapezoid(cum, grid.dt, out=cum)
    with np.errstate(over="ignore"):
        G = _on_triangle(exponent.J_prime, cum, grid, "J'", exponent.domain_sup)
        G *= lam_w
        # the x-integral is spent: its buffer takes dt times the t-sum, and
        # row 0 sums nothing, so exp(0) keeps it equal to a(0, x)
        np.multiply(grid.sum_along_t(G, work=padded), grid.dt, out=cum)
        np.exp(cum, out=cum)
        return factor.a * cum


#: a_priori_c1's log grid of c, 60 points per decade from 1e-8 to 1e12, and ln c
_C1_GRID = 10.0 ** (np.arange(-8 * 60, 12 * 60 + 1) / 60.0)
_LOG_C1_GRID = np.log(_C1_GRID)
_C1_GRID.flags.writeable = _LOG_C1_GRID.flags.writeable = False


def a_priori_c1(
    B: np.ndarray, lambda_bar: float, t_star: float, gamma: float, exponent: ExponentHandle
) -> list[float | None]:
    """Iterate-invariant bound on the weighted L2 norms for each product
    B = b_bar ||r0|| of an array, when one exists; one J' scan serves all.

    If J' <= 0 at every probed argument the bound is B itself (None for
    B <= 0).  Otherwise it is the smallest c on a log grid (60 points per
    decade up to 1e12) with
    ln B + max(lambda_bar T* J'(lambda_bar c / sqrt(gamma)), 0) <= ln c;
    None when no grid point qualifies.
    """
    zc = lambda_bar * _C1_GRID / math.sqrt(gamma)
    jp = exponent.J_prime(zc)
    if np.all(jp <= 0.0):
        return [b if b > 0.0 else None for b in B.tolist()]
    growth = np.maximum(lambda_bar * t_star * jp, 0.0)
    log_b = np.array([math.log(b) if b > 0.0 else math.nan for b in B.tolist()])
    lhs = log_b[:, None] + growth
    ok = np.isfinite(lhs) & (lhs <= _LOG_C1_GRID)
    return [float(_C1_GRID[np.argmax(row)]) if row.any() else None for row in ok]


def solve_monotone(
    factor: RandomFactorField, cfg: SolverConfig, h0: str = "zero", keep_iterates: bool = False
) -> SolveReport:
    """Iterate h_{n+1} = K(h_n) from h_0 = 0 to the minimal solution, with
    J' of the factor's path model and lambda of the factor.

    Stops ExplosionDetected when an iterate's sup norm is not finite or
    tops the cap, Converged when the relative sup change drops below tol,
    MaxIterReached otherwise; detail["rule"] names the rule that fired.
    h0="factor" seeds the iteration at a instead (used by the two-start
    uniqueness check).
    This is solve_batch on a batch of one.
    """
    return solve_batch([factor], cfg, h0=h0, keep_iterates=keep_iterates)[0]


def solve_batch(
    factors, cfg: SolverConfig, h0: str = "zero", keep_iterates: bool = False
) -> list[SolveReport]:
    """solve_monotone for several paths on one grid, iterated as one stack.

    Every path keeps its own cap, stopping rule and iteration count; a path
    that stops leaves the stack, and its report equals the one-path solve
    bit for bit.  Each report is made before the first iteration and filled
    in as its path iterates; every apply_K of the solve works in buffers
    held for the whole solve.  The factors must share one grid, one
    volatility, one model of their paths (J' is that model's) and one gamma
    of their r0 (the weighted norms, of the iterates' rows and of ||r0|| in
    c1, are those of r0's space).  When a path fails (cap below sup r0, or
    a domain fault of J' at its probe or during an iteration), it and every
    later path are dropped, and after the stack is done the error of the
    lowest failing path is raised, as solving the paths one after the
    other would.  A J' beyond double range inside the domain makes the
    iterate infinite: the path stops ExplosionDetected by the cap rule.
    """
    if h0 not in ("zero", "factor"):
        raise ValueError(f"h0 must be 'zero' or 'factor', got {h0!r}")
    if not factors:
        return []
    grid, lam_w, gamma = factors[0].grid, factors[0].lam_w, factors[0].r0.gamma
    lambda_bar, model = factors[0].vol.lambda_bar, factors[0].path.model
    if any(f.grid != grid for f in factors):
        raise ValueError("all factors of a batch must share one grid")
    if not all(
        f.lam_w is lam_w or (np.array_equal(f.lam_w, lam_w) and f.vol.lambda_bar == lambda_bar) for f in factors
    ):
        raise ValueError("all factors of a batch must share one volatility")
    if not all(f.path.model is model or f.path.model == model for f in factors):
        raise ValueError("all factors of a batch must share one path model")
    if any(f.r0.gamma != gamma for f in factors):
        raise ValueError("all factors of a batch must share one r0 gamma")
    exponent = ExponentHandle(model)
    n_paths = len(factors)
    # apply_K's work, held for the solve; leading slices serve the shrinking
    # stack.  Allocated before the solve's other arrays: after them, it left a
    # CLI solve with three to five times the minor page faults
    work = (np.empty((n_paths,) + grid.off_mask.shape), *grid.padded_pair((n_paths,)))
    error: Exception | None = None
    active = list(range(n_paths))

    def fail(k: int, err: Exception) -> None:
        """Record the error of active[k]; drop that path and every later one."""
        nonlocal error, active
        error, active = err, active[:k]

    r0 = np.stack([f.r0.values[: grid.n_w + 1] for f in factors])
    sup_r0 = np.max(np.abs(r0), axis=-1)
    caps = [cfg.cap if cfg.cap is not None else 1e8 * (1.0 + s) for s in sup_r0.tolist()]
    for p in range(n_paths):
        if caps[p] <= sup_r0[p]:
            fail(p, ValueError(f"cap={caps[p]} must exceed sup r0={sup_r0[p]}"))
            break

    # the weights of the norms, and each path's scale of them (sup r0), are fixed for the solve
    weights = np.exp(gamma * grid.x_wide)
    off_panels = grid.off_mask[:, 1:]
    B = np.array([f.b_bar for f in factors]) * weighted_l2(r0, grid.dt, weights, sup_r0)
    c1s = a_priori_c1(B, lambda_bar, grid.t_star, gamma, exponent)
    # fail fast if J' is unreachable on the region the iteration can visit
    z_probe = np.array([
        lambda_bar * c1 / math.sqrt(gamma) if c1 is not None else lambda_bar * cap * grid.x_max
        for c1, cap in zip(c1s, caps)
    ])[: len(active)]
    fault = _domain_fault(z_probe, exponent.J_prime(z_probe), exponent.domain_sup)
    if np.any(fault):
        # active is still 0 .. m-1 here, so k is also the path's index
        k = int(np.argmax(fault))
        fail(k, ExponentDomainError(z_probe[k]))

    # each path's report, filled in as it iterates: a stop rule sets its
    # status, rule, field and count, and a path that none stops keeps these
    reports = [
        SolveReport(
            status=STATUS_MAX_ITER, field=None, iterate_sup_norms=[], iterate_l2_norms=[], c1=c1,
            n_iters=cfg.max_iter, grid=grid, gamma=gamma, detail={"h0": h0, "cap": cap, "rule": "max_iter"},
            iterates=[] if keep_iterates else None,
        )
        for c1, cap in zip(c1s, caps)
    ]
    # a stack of one reads its factor's a in place: one field less held per solve
    a = factors[0].a[None] if n_paths == 1 else np.stack([f.a for f in factors])
    # h: the last iterate of the active paths, NaN beyond the triangle as K(h)
    # is, so its sup and change over the whole field are those over the
    # triangle.  h0 = 0 is one field for every path, so apply_K finds the
    # first exponent term once and broadcasts it against each path's a
    h = np.where(grid.valid_mask(), 0.0, np.nan)[None] if h0 == "zero" else a
    # h and the stack's a hold the active paths, in order: the stack is the first
    # factor with their a (apply_K reads no more of it), rebuilt as paths leave
    h, stack = h[: len(active)], replace(factors[0], a=a[: len(active)])
    for n in range(cfg.max_iter):
        h_next = None
        while active:
            try:
                h_next = apply_K(h, stack, exponent, work)
                break
            except ExponentDomainError as err:
                if err.path is None:  # not tied to one path: nothing to drop
                    raise
                fail(err.path, err)
                h, stack = h[: len(active)], replace(stack, a=stack.a[: len(active)])
        if h_next is None:
            break
        # the stop rules run per path on floats, one list of each norm per stack
        # fmax skips the NaNs beyond the triangle without copying the field
        sups = np.fmax.reduce(np.abs(h_next), axis=(-2, -1)).tolist()
        l2s = np.max(weighted_l2(h_next, grid.dt, weights, sup_r0[active, None], off_panels), axis=-1).tolist()
        with np.errstate(invalid="ignore"):  # inf - inf only where the cap was hit
            changes = np.fmax.reduce(np.abs(h_next - h), axis=(-2, -1)).tolist()
        keep = []
        for k, p in enumerate(active):
            rep, sup = reports[p], sups[k]
            rep.iterate_sup_norms.append(sup)
            rep.iterate_l2_norms.append(l2s[k])
            rep.detail["last_change"] = changes[k]
            if keep_iterates:
                rep.iterates.append(h_next[k].copy())
            if not math.isfinite(sup) or sup > caps[p]:
                del rep.detail["last_change"]
                rep.status, rep.detail["rule"] = STATUS_EXPLOSION, "cap"
            elif changes[k] < cfg.tol * (1.0 + sup):
                rep.status, rep.detail["rule"] = STATUS_CONVERGED, "tol"
            else:
                keep.append(k)
                continue
            rep.field, rep.n_iters = h_next[k], n + 1
        if len(keep) < len(active):
            active = [active[k] for k in keep]
            h_next, stack = h_next[keep], replace(stack, a=stack.a[keep])
        h = h_next
    for k, p in enumerate(active):
        reports[p].field = h[k]

    if error is not None:
        raise error
    return reports


# ---------------------------------------------------------------------------
# residual and uniqueness diagnostics
# ---------------------------------------------------------------------------


def mild_residual(report: SolveReport, factor: RandomFactorField) -> np.ndarray:
    """Weighted L2 distance, per grid time, between r and the discretized
    mild form (shifted initial curve + drift convolution + stochastic sum),
    for the path, volatility and r0 the factor was built from.

    The stochastic integral is a left-point sum over grid increments of the
    compensated drift+Brownian part plus the recorded jumps evaluated at
    field left limits.  First-order accurate in dt.
    """
    if report.status != STATUS_CONVERGED:
        raise RuntimeError("mild residual needs a converged report")
    grid = report.grid
    r = report.field
    path, model = factor.path, factor.path.model
    exponent = ExponentHandle(model)
    lam_r = factor.lam_w * r
    cum = cumulative_trapezoid(lam_r, grid.dt)
    dt = grid.dt

    # the path's n_t increments (zeros when q = 0), cut to the grid solved on
    dLc = (model.a - path.m_n) * dt + path.brownian_increments[: grid.n_t]

    jp = _on_triangle(exponent.J_prime, cum, grid, "J'", exponent.domain_sup)
    drift = dt * grid.sum_along_t(jp * lam_r)
    dLc_rows = np.append(dLc, 0.0)[:, None]
    rhs = grid.shifted(factor.r0.values) + drift + grid.sum_along_t(lam_r * dLc_rows, rule="left")
    for i0, s_m, y_m in zip(path.jump_rows.tolist(), path.jump_times, path.jump_sizes):
        if i0 > grid.n_t:
            break
        # the jump enters every row with t_i >= s_m, at the field's left limit
        k = max(i0 - 1, 0)
        wk = grid.row_width(k)
        args = (grid.t[i0:, None] - s_m) + grid.x_wide
        r_left = np.interp(args, grid.x_wide[: wk + 1], r[k, : wk + 1])
        rhs[i0:] += factor.vol.lam(args) * r_left * y_m
    diff = (r - rhs)[:, : grid.n_x + 1]
    weights = np.exp(report.gamma * grid.x_wide)[: grid.n_x + 1]
    return weighted_l2(diff, dt, weights, np.max(np.abs(diff), axis=1))


@dataclass(frozen=True)
class GronwallResult:
    holds_on_grid: bool
    witness: tuple[float, float] | None
    zero_within: float
    sup_d: float
    sup_d_le_bound: bool


def gronwall_check(
    d: np.ndarray, C: float, grid: SolveGrid, atol: float = 1e-9
) -> GronwallResult:
    """Verify d(t,x) <= C * int_0^t int_0^{t-s+x} d dv ds on the grid.

    When the inequality holds (within atol), the iterated bound
    M C^n (t(t+x))^n / (n!)^2 at n = 10 is reported as zero_within,
    certifying that d vanishes up to that level.
    """
    if C <= 0.0:
        raise ValueError("C must be positive")
    mask = grid.valid_mask()
    dv = np.where(mask, d, np.nan)
    if np.nanmin(dv) < 0.0:
        raise ValueError("d must be nonnegative")
    inner = cumulative_trapezoid(d, grid.dt)
    dt = grid.dt
    rhs = grid.sum_along_t(inner) * dt
    bad = d > C * rhs + atol
    holds = not np.any(bad)
    witness = None
    if not holds:
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        witness = (float(grid.t[i]), float(grid.x_wide[j]))

    sup_d = float(np.nanmax(dv))
    n = 10
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
    report: SolveReport, factor: RandomFactorField, r0_prime: np.ndarray | None = None
) -> StrongResidual:
    """Pointwise identity between d/dx r and its integral representation,
    for the path model, volatility and r0 the factor was built from.

    Only supported for constant volatility; r0 must stay strictly positive.
    r0_prime supplies analytic derivative values on the wide grid (defaults
    to central differences of the sampled curve).
    """
    if report.status != STATUS_CONVERGED:
        raise RuntimeError("strong residual needs a converged report")
    vol, r0, exponent = factor.vol, factor.r0, ExponentHandle(factor.path.model)
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
    cum = cumulative_trapezoid(lam * r, grid.dt)
    jpp = _on_triangle(exponent.J_second, cum, grid, "J''", exponent.domain_sup)
    dt = grid.dt
    term = grid.sum_along_t(jpp * r) * (dt * lam * lam)
    rhs = r * (grid.shifted(r0p) / grid.shifted(r0v) + term)
    n_t, n_x = grid.n_t, grid.n_x
    # d/dx r on x <= x_max of each row, as np.gradient of its whole valid
    # range gives it: below the last row the node at x_max has a right
    # neighbour, so only the last row has a one-sided end there; second-order
    # one-sided boundaries keep the whole check O(dx^2)
    lhs = np.empty((n_t + 1, n_x + 1))
    lhs[:n_t] = np.gradient(r[:n_t, : n_x + 2], dt, axis=1, edge_order=2)[:, : n_x + 1]
    lhs[n_t] = np.gradient(r[n_t, : n_x + 1], dt, edge_order=2 if n_x >= 2 else 1)
    diff = lhs - rhs[:, : n_x + 1]
    row_sups = np.max(np.abs(diff), axis=1)
    per_t = weighted_l2(diff, dt, np.exp(report.gamma * grid.x_wide)[: n_x + 1], row_sups)
    return StrongResidual(sup=float(np.max(row_sups)), l2=float(np.max(per_t)), per_t=per_t)


def uniqueness_constant(factor: RandomFactorField, norms_a: float, norms_b: float) -> float:
    """The Gronwall constant from the uniqueness argument for two solutions
    with bounds norms_a, norms_b in the weighted norm of the factor's r0,
    for the path model and volatility the factor was built from."""
    grid = factor.grid
    sup_r0 = float(np.max(np.abs(factor.r0.values[: grid.n_w + 1])))
    B = factor.b_bar
    lb = factor.vol.lambda_bar
    exponent = ExponentHandle(factor.path.model)
    z = lb * max(norms_a, norms_b) / math.sqrt(factor.r0.gamma)
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

    The levels are solved as one batch (solve_batch); each level's cap is
    the default one, 1e8 (1 + k).  Only a = r0(t + x) b depends on the
    level, so the factor is built once, on r0 = 1, and level k's is a = k b.
    Reports per-level status and the smallest exploding level, if any.
    """
    path = simulate(model, grid, seed, n_threshold)
    levels = sorted(float(k) for k in r0_levels)
    unit = WeightedCurve(dx=grid.dt, values=np.ones(grid.n_w + 1), gamma=gamma)
    base = compute_a(path, vol, unit, grid)
    factors = [replace(base, r0=unit.scaled(k), a=k * base.b) for k in levels]
    reports = solve_batch(factors, SolverConfig(tol=tol, max_iter=max_iter))
    rows = tuple(
        SweepRow(level=k, status=rep.status, n_iters=rep.n_iters, max_sup=rep.iterate_sup_norms[-1])
        for k, rep in zip(levels, reports)
    )
    first = next((row.level for row in rows if row.status == STATUS_EXPLOSION), None)
    return SweepResult(rows=rows, first_explosion_level=first)
