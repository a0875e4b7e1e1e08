"""Path simulation of the driving process on [0, T*].

Small jumps below the threshold 1/n are dropped and compensated by the
deterministic drift -t*m_n with m_n = int_{1/n < |y| < 1} y nu(dy); the
band is open at 1 to match the compensation indicator 1_{(-1,1)} inside the
Laplace exponent.  All randomness comes from one counter-based generator
(numpy Philox) with a fixed draw order, so a (model, config) pair maps to a
bit-identical path record.

Draw order: jump count, jump times, jump components, jump size uniforms,
Brownian increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


class JumpCapacityError(RuntimeError):
    """Sampled jump count exceeded the configured cap."""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid, truncation threshold and seed."""

    t_star: float
    dt: float
    seed: int
    n_threshold: int = 1000
    max_jumps: int = 1_000_000

    def __post_init__(self):
        if self.t_star <= 0.0 or self.dt <= 0.0:
            raise ValueError("t_star and dt must be positive")
        n = round(self.t_star / self.dt)
        if n < 1 or abs(n * self.dt - self.t_star) > 1e-12 * max(1.0, self.t_star):
            raise ValueError(f"dt={self.dt} must divide t_star={self.t_star}")
        if self.n_threshold < 1:
            raise ValueError("n_threshold must be >= 1 (threshold 1/n <= 1)")
        if self.max_jumps < 1:
            raise ValueError("max_jumps must be positive")

    @property
    def n_steps(self) -> int:
        return round(self.t_star / self.dt)


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
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(self.grid_values.size)

    def _brownian_cum(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.brownian_increments)])

    def value_at(self, t: float) -> float:
        """L(t); the Brownian part is linearly interpolated between nodes."""
        return _value(self, t, "right")


def value_at_left_limit(path: LevyPathRecord, t: float) -> float:
    """L(t-): L(t) minus the jump at exactly t, if present."""
    return _value(path, t, "left")


def _value(path: LevyPathRecord, t: float, side: str) -> float:
    """L(t) counting the jumps at times <= t (side "right") or < t ("left")."""
    if not 0.0 <= t <= path.t_star + 1e-12:
        raise ValueError(f"t={t} outside [0, {path.t_star}]")
    w = float(np.interp(t, path.t, path._brownian_cum()))
    k = int(np.searchsorted(path.jump_times, t, side=side))
    jumps = float(np.sum(path.jump_sizes[:k]))
    return path.model.a * t - path.m_n * t + w + jumps


def _grid_from_parts(
    model: LevyModel,
    cfg_dt: float,
    n_steps: int,
    m_n: float,
    times: np.ndarray,
    sizes: np.ndarray,
    dW: np.ndarray,
) -> np.ndarray:
    t_grid = cfg_dt * np.arange(n_steps + 1)
    w_cum = np.concatenate([[0.0], np.cumsum(dW)]) if dW.size else np.zeros(n_steps + 1)
    counts = np.searchsorted(times, t_grid, side="right")
    jump_cum = np.concatenate([[0.0], np.cumsum(sizes)])
    return model.a * t_grid - m_n * t_grid + w_cum + jump_cum[counts]


def simulate(model: LevyModel, cfg: SimConfig) -> LevyPathRecord:
    """Simulate one truncated-compensated path; bit-reproducible per seed.

    Jump counts are Poisson with the restricted intensity, times uniform on
    (0, T*], sizes drawn by the inverse CDF of each normalized component;
    Brownian increments are N(0, q^2 dt).  A count above max_jumps raises
    JumpCapacityError rather than truncating silently.
    """
    rng = _rng(cfg.seed)
    comps = jump_components(model.nu, 1.0 / cfg.n_threshold)
    lam_total = sum(c.intensity for c in comps)

    n_jumps = int(rng.poisson(lam_total * cfg.t_star)) if lam_total > 0.0 else 0
    if n_jumps > cfg.max_jumps:
        raise JumpCapacityError(
            f"sampled {n_jumps} jumps > max_jumps={cfg.max_jumps} "
            f"(intensity {lam_total:.4g}, horizon {cfg.t_star})"
        )
    times = cfg.t_star * (1.0 - rng.random(n_jumps))  # uniform on (0, T*]
    if comps:
        cum = np.cumsum([c.intensity for c in comps]) / lam_total if lam_total else None
        comp_idx = np.searchsorted(cum, rng.random(n_jumps), side="right") if n_jumps else np.zeros(0, dtype=int)
        u_sizes = rng.random(n_jumps)
        sizes = np.empty(n_jumps)
        for ci, comp in enumerate(comps):
            mask = comp_idx == ci
            if np.any(mask):
                sizes[mask] = comp.sizes(u_sizes[mask])
    else:
        sizes = np.zeros(0)

    order = np.argsort(times, kind="stable")  # ties broken by generation order
    times, sizes = times[order], sizes[order]

    if model.q > 0.0:
        dW = rng.normal(0.0, model.q * math.sqrt(cfg.dt), cfg.n_steps)
    else:
        dW = np.zeros(cfg.n_steps)

    m_n = compensator_m_n(model, cfg.n_threshold)
    grid_values = _grid_from_parts(model, cfg.dt, cfg.n_steps, m_n, times, sizes, dW)
    return LevyPathRecord(
        t_star=cfg.t_star,
        dt=cfg.dt,
        grid_values=grid_values,
        jump_times=times,
        jump_sizes=sizes,
        brownian_increments=dW,
        m_n=m_n,
        model=model,
        n_threshold=cfg.n_threshold,
        seed=cfg.seed,
    )


def refine_path(path: LevyPathRecord, seed: int) -> LevyPathRecord:
    """Same path on the dt/2 grid: jumps kept, Brownian bridged at midpoints."""
    n = path.brownian_increments.size
    rng = _rng(seed)
    dt2 = path.dt / 2.0
    dW2 = np.zeros(2 * n)
    if path.model.q > 0.0:
        half = path.brownian_increments / 2.0
        noise = rng.normal(0.0, path.model.q * math.sqrt(dt2) / math.sqrt(2.0), n)
        dW2[0::2] = half + noise
        dW2[1::2] = half - noise
    grid_values = _grid_from_parts(
        path.model, dt2, 2 * n, path.m_n, path.jump_times, path.jump_sizes, dW2
    )
    return LevyPathRecord(
        t_star=path.t_star,
        dt=dt2,
        grid_values=grid_values,
        jump_times=path.jump_times,
        jump_sizes=path.jump_sizes,
        brownian_increments=dW2,
        m_n=path.m_n,
        model=path.model,
        n_threshold=path.n_threshold,
        seed=path.seed,
    )


def sample_terminal(
    model: LevyModel, t: float, n_paths: int, seed: int, n_threshold: int = 1000
) -> np.ndarray:
    """Vectorized draws of L(t) (no path record); same scheme as simulate."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    rng = _rng(seed)
    comps = jump_components(model.nu, 1.0 / n_threshold)
    m_n = compensator_m_n(model, n_threshold)
    out = np.full(n_paths, (model.a - m_n) * t)
    for comp in comps:
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
        out += rng.normal(0.0, model.q * math.sqrt(t), n_paths)
    return out


# --- optional CSV dump: grid rows plus a jump-list trailer ------------------


def write_path_csv(fh, record: LevyPathRecord) -> None:
    """Write the path to the open text stream fh, after any header already there."""
    import json

    fh.write("t,L\n")
    for t, v in zip(record.t, record.grid_values):
        fh.write(f"{float(t)!r},{float(v)!r}\n")
    jumps = [[float(s), float(y)] for s, y in zip(record.jump_times, record.jump_sizes)]
    fh.write("# jumps: " + json.dumps(jumps) + "\n")
