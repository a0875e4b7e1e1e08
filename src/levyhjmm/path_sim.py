"""Path simulation of the driving process on the t-nodes of a solve grid.

Small jumps below the threshold 1/n are dropped and compensated by the
deterministic drift -t*m_n with m_n = int_{1/n < |y| < 1} y nu(dy); the
band is open at 1 to match the compensation indicator 1_{(-1,1)} inside the
Laplace exponent.  All randomness comes from one counter-based generator
(numpy Philox) with a fixed draw order, so a model, threshold, grid and seed
map to a bit-identical path record.  The path is drawn on the grid the
equation is solved on (`SolveGrid`: t_star, dt and n_t; x_max is not read),
and the record says at which row each jump enters (`jump_rows`).

Draw order: jump count, jump times, jump components, jump size uniforms,
Brownian increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import SolveGrid
from .levy_model import (
    INF,
    DensityPart,
    Exponential,
    LevyMeasureSpec,
    LevyModel,
    PowerLaw,
    abs_support,
    moment_integral,
    _family_moment,
)

RNG_ALGORITHM = "numpy-philox-4x64-10"

#: a sampled jump count above this raises JumpCapacityError
MAX_JUMPS = 1_000_000

#: the default truncation n: jumps with |y| <= 1/n are compensated, not simulated
N_THRESHOLD = 1000


class JumpCapacityError(RuntimeError):
    """Sampled jump count exceeded the configured cap."""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


# ---------------------------------------------------------------------------
# restricted jump components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Component:
    sign: int
    intensity: float
    atom_size: float | None = None
    part: DensityPart | None = None
    lo: float = 0.0
    hi: float = 0.0

    def sizes(self, u: np.ndarray) -> np.ndarray:
        if self.atom_size is not None:
            return np.full(u.shape, self.atom_size)
        s = _inv_cdf(self.part, self.lo, self.hi, u)
        return self.sign * s


def _inv_cdf(part: DensityPart, lo: float, hi: float, u: np.ndarray) -> np.ndarray:
    """Quantile transform of the normalized restricted density on [lo, hi]."""
    if isinstance(part, PowerLaw):
        al = part.alpha
        if al == 0.0:
            return lo * (hi / lo) ** u
        top = 0.0 if hi == INF else hi**-al
        return (lo**-al + u * (top - lo**-al)) ** (-1.0 / al)
    if isinstance(part, Exponential):
        a = math.exp(-part.beta * lo)
        b = 0.0 if hi == INF else math.exp(-part.beta * hi)
        return -np.log(a + u * (b - a)) / part.beta
    return lo + u * (hi - lo)


def jump_components(nu: LevyMeasureSpec, threshold: float) -> list[_Component]:
    """Measure components restricted to |y| > threshold, with intensities."""
    comps: list[_Component] = []
    for y, m in nu.atoms:
        if abs(y) > threshold:
            comps.append(_Component(sign=1 if y > 0 else -1, intensity=m, atom_size=y))
    for part in nu.density_parts:
        sign, a, b = abs_support(part)
        lo = max(a, threshold)
        lam = _family_moment(part, 0, lo, b, 0.0) if lo < b else 0.0
        if lam > 0.0:
            comps.append(_Component(sign=sign, intensity=lam, part=part, lo=lo, hi=b))
    return comps


def compensator_m_n(model: LevyModel, n_threshold: int) -> float:
    """Signed mean of the simulated band: int_{1/n < |y| < 1} y nu(dy)."""
    thr = 1.0 / n_threshold
    if thr >= 1.0:
        return 0.0
    pos = moment_integral(model.nu, 1, (thr, 1.0), open_lo=True, open_hi=True)
    neg = moment_integral(model.nu, 1, (-1.0, -thr), open_lo=True, open_hi=True)
    return pos - neg


# ---------------------------------------------------------------------------
# path records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyPathRecord:
    """One simulated path: grid values, explicit jumps, Brownian increments."""

    t_star: float
    dt: float
    grid_values: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    brownian_increments: np.ndarray
    m_n: float
    model: LevyModel
    n_threshold: int
    seed: int

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(self.grid_values.size)

    @property
    def jump_rows(self) -> np.ndarray:
        """The row of each jump: the first node t_i at or after its time, the
        row from which L(t_i) includes it (len(t) for a jump past the last
        node)."""
        return np.searchsorted(self.t, self.jump_times, side="left")

    def value_at(self, t: float) -> float:
        """L(t), counting the jumps at times <= t; the Brownian part is
        linearly interpolated between nodes."""
        if not 0.0 <= t <= self.t_star + 1e-12:
            raise ValueError(f"t={t} outside [0, {self.t_star}]")
        w = float(np.interp(t, self.t, np.concatenate([[0.0], np.cumsum(self.brownian_increments)])))
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        jumps = float(np.sum(self.jump_sizes[:k]))
        return self.model.a * t - self.m_n * t + w + jumps


def _grid_values(
    model: LevyModel, dt: float, m_n: float, times: np.ndarray, sizes: np.ndarray, n_jumps: np.ndarray, dW: np.ndarray
) -> np.ndarray:
    """L on the grid t_i = i dt for a stack of paths, one row each: the drift
    (a - m_n) t, the Brownian sums of the rows of dW and, at each t_i, the
    sum of the path's jumps at times <= t_i.  times and sizes hold the jumps
    of every path, path after path, n_jumps of each, in time order.  Each
    row equals its path assembled alone bit for bit: every sum runs along
    its own row."""
    n_paths, n_steps = dW.shape
    t_grid = dt * np.arange(n_steps + 1)
    w_cum = np.zeros((n_paths, n_steps + 1))
    np.cumsum(dW, axis=-1, out=w_cum[:, 1:])
    # jump_cum[p, m]: the sum of path p's first m jumps (rows zero-padded)
    jump_cum = np.zeros((n_paths, n_jumps.max(initial=0) + 1))
    padded = np.zeros((n_paths, jump_cum.shape[1] - 1))
    padded[np.arange(padded.shape[1]) < n_jumps[:, None]] = sizes
    np.cumsum(padded, axis=-1, out=jump_cum[:, 1:])
    # the jumps at times <= t_i: count each jump at the first node at or after it
    first = np.searchsorted(t_grid, times, side="left") + np.repeat(np.arange(n_paths) * (n_steps + 2), n_jumps)
    counts = np.cumsum(np.bincount(first, minlength=n_paths * (n_steps + 2)).reshape(n_paths, -1), axis=-1)
    return model.a * t_grid - m_n * t_grid + w_cum + np.take_along_axis(jump_cum, counts[:, : n_steps + 1], axis=-1)


@dataclass(frozen=True)
class JumpLaw:
    """What simulate needs of a model at one threshold 1/n: the jump
    components beyond it, their total intensity and cumulative shares, and
    the compensator m_n.  It depends on nothing else, so a caller that
    simulates many paths builds it once (`jump_law`)."""

    model: LevyModel
    n_threshold: int
    comps: tuple[_Component, ...]
    lam_total: float
    cum: np.ndarray | None
    m_n: float


def jump_law(model: LevyModel, n_threshold: int) -> JumpLaw:
    if n_threshold < 1:
        raise ValueError(f"n_threshold must be >= 1 (threshold 1/n <= 1), got {n_threshold}")
    comps = tuple(jump_components(model.nu, 1.0 / n_threshold))
    lam_total = sum(c.intensity for c in comps)
    cum = np.cumsum([c.intensity for c in comps]) / lam_total if lam_total else None
    return JumpLaw(model, n_threshold, comps, lam_total, cum, compensator_m_n(model, n_threshold))


def simulate(model: LevyModel, grid: SolveGrid, seed: int, n_threshold: int = N_THRESHOLD) -> LevyPathRecord:
    """Simulate one truncated-compensated path on the grid's t-nodes;
    bit-reproducible per seed.

    Jump counts are Poisson with the restricted intensity, times uniform on
    (0, T*], sizes drawn by the inverse CDF of each normalized component;
    Brownian increments are N(0, q dt), q being the Gaussian variance.  A
    count above MAX_JUMPS raises JumpCapacityError rather than truncating
    silently.  This is simulate_paths on the one seed.
    """
    paths, failure = simulate_paths(jump_law(model, n_threshold), grid, [seed])
    if failure is not None:
        raise failure
    return paths[0]


def simulate_paths(law: JumpLaw, grid: SolveGrid, seeds) -> tuple[list[LevyPathRecord], JumpCapacityError | None]:
    """One path of the law's model and threshold per seed, on the grid's
    t-nodes t_i = i dt, i <= n_t, as (records, failure).

    Every path draws from its own generator, seeded by its seed, in the
    draw order of the module docstring; what is not random (jump sizes from
    their uniforms, time order, grid values) is then done for all paths at
    once.  Drawing stops at the first path whose jump count tops MAX_JUMPS:
    the records of the paths before it come back with that path's
    JumpCapacityError as failure, which is None otherwise.
    """
    model, lam_total, t_star = law.model, law.lam_total, grid.t_star
    seeds = [int(seed) for seed in seeds]
    uniforms, n_jumps, dW, failure = [], [], [], None
    for seed in seeds:
        rng = _rng(seed)
        n = int(rng.poisson(lam_total * t_star)) if lam_total > 0.0 else 0
        if n > MAX_JUMPS:
            failure = JumpCapacityError(
                f"sampled {n} jumps > MAX_JUMPS={MAX_JUMPS} (intensity {lam_total:.4g}, horizon {t_star})"
            )
            break
        uniforms.append(rng.random(3 * n))  # n each for times, components, sizes
        n_jumps.append(n)
        if model.q > 0.0:
            dW.append(rng.normal(0.0, math.sqrt(model.q * grid.dt), grid.n_t))
    n_paths = len(n_jumps)
    if not n_paths:
        return [], failure
    dW = np.stack(dW) if dW else np.zeros((n_paths, grid.n_t))
    n_jumps = np.array(n_jumps)
    ends = np.cumsum(n_jumps)
    starts = ends - n_jumps
    # the jumps of all paths, path after path: u[k] the first third of the
    # path's uniforms, u[k + n] and u[k + 2n] the second and third
    u = np.concatenate(uniforms)
    k = np.arange(ends[-1]) + np.repeat(2 * starts, n_jumps)
    n_rep = np.repeat(n_jumps, n_jumps)
    times = t_star * (1.0 - u[k])  # uniform on (0, T*]
    sizes = np.empty(k.size)
    if k.size:
        comp_idx = np.searchsorted(law.cum, u[k + n_rep], side="right")
        u_sizes = u[k + 2 * n_rep]
        for ci, comp in enumerate(law.comps):
            mask = comp_idx == ci
            if mask.any():
                sizes[mask] = comp.sizes(u_sizes[mask])
    # time order within each path, ties broken by generation order
    order = np.lexsort((times, np.repeat(np.arange(n_paths), n_jumps)))
    times, sizes = times[order], sizes[order]
    grid_values = _grid_values(model, grid.dt, law.m_n, times, sizes, n_jumps, dW)
    paths = [
        LevyPathRecord(
            t_star=t_star,
            dt=grid.dt,
            grid_values=grid_values[p],
            jump_times=times[a:b],
            jump_sizes=sizes[a:b],
            brownian_increments=dW[p],
            m_n=law.m_n,
            model=model,
            n_threshold=law.n_threshold,
            seed=seeds[p],
        )
        for p, (a, b) in enumerate(zip(starts.tolist(), ends.tolist()))
    ]
    return paths, failure


def refine_path(path: LevyPathRecord, seed: int) -> LevyPathRecord:
    """Same path on the dt/2 grid: jumps kept, Brownian bridged at midpoints."""
    n = path.brownian_increments.size
    rng = _rng(seed)
    dt2 = path.dt / 2.0
    dW2 = np.zeros(2 * n)
    if path.model.q > 0.0:
        half = path.brownian_increments / 2.0
        noise = rng.normal(0.0, math.sqrt(path.model.q * dt2) / math.sqrt(2.0), n)
        dW2[0::2] = half + noise
        dW2[1::2] = half - noise
    grid_values = _grid_values(
        path.model, dt2, path.m_n, path.jump_times, path.jump_sizes, np.array([path.jump_times.size]), dW2[None]
    )[0]
    return replace(path, dt=dt2, grid_values=grid_values, brownian_increments=dW2)


def sample_terminal(
    model: LevyModel, t: float, n_paths: int, seed: int, n_threshold: int = N_THRESHOLD
) -> np.ndarray:
    """Vectorized draws of L(t) (no path record); same scheme as simulate."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    rng = _rng(seed)
    law = jump_law(model, n_threshold)
    out = np.full(n_paths, (model.a - law.m_n) * t)
    for comp in law.comps:
        counts = rng.poisson(comp.intensity * t, n_paths)
        total = int(counts.sum())
        if total == 0:
            continue
        if comp.atom_size is not None:
            out += comp.atom_size * counts
        else:
            sizes = comp.sizes(rng.random(total))
            idx = np.repeat(np.arange(n_paths), counts)
            out += np.bincount(idx, weights=sizes, minlength=n_paths)
    if model.q > 0.0:
        out += rng.normal(0.0, math.sqrt(model.q * t), n_paths)
    return out
