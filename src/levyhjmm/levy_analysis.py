"""Laplace exponent of the driving process and its regularity/growth conditions.

The exponent J is defined through E exp(-z L(t)) = exp(t J(z)) and carries
the explicit representation

    J(z) = -a z + q z^2 / 2 + int (exp(-z y) - 1 + z y 1_{(-1,1)}(y)) nu(dy),

with first derivative J'(z) = -a + q z + int y (1_{(-1,1)}(y) - exp(-z y)) nu(dy)
and second derivative J''(z) = q + int y^2 exp(-z y) nu(dy).  Internally every
evaluation runs through the four-piece split over (-inf,-1], (-1,0), (0,1),
[1,inf).  Atoms are summed in closed form here; every per-family integral
of a density part (moments, masses and the exponent's closed forms) belongs
to `levy_model`: exponential and uniform parts go through its
`pow_exp_integral` (vectorized over z), power-law parts use adaptive
quadrature with an analytic tail cut plus its symbolic power moments.
Divergence is decided symbolically and reported as +/-inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_model import (
    INF,
    TAIL_MASS_TOL,
    Exponential,
    LevyMeasureSpec,
    LevyModel,
    PowerLaw,
    abs_support,
    moment_integral,
    pow_exp_integral,
    small_jump_profile,
    support_lower_bound,
    _powerlaw_moment,
    _quad,
)

CONDITION_NAMES = ("B0", "B1", "B2", "B3", "B4", "B5", "L1", "L2")

HOLDS = "holds"
FAILS = "fails"
UNDECIDABLE = "undecidable"

#: largest w with exp(w) finite in double precision
_LOG_MAX = math.log(np.finfo(float).max)
#: rho-fit sample points x = 2^-k and goodness threshold
_RHO_KS = np.arange(3, 13)
RHO_FIT_RESIDUAL_MAX = 0.05
#: fitted exponents within this band of 1 count as the undecidable rho = 1 case
RHO_ONE_BAND = 0.05


class ExponentDomainError(ValueError):
    """J or a derivative was requested at a z where it is infinite."""

    def __init__(self, z: float, what: str = "J'"):
        self.z = float(z)
        self.what = what
        super().__init__(f"{what} is infinite at z={z!r}")


def _exp_tail_cut(z: float, e: float, coeff: float, start: float) -> float:
    """Upper cut S for int_S^inf s^e e^{-z s} ds so the dropped mass is < 1e-12.

    Uses the bound int_S^inf s^e e^{-z s} ds <= 2 S^e e^{-z S} / z, valid once
    z S >= 2 max(e, 0).
    """
    S = max(start, 2.0 * max(e, 0.0) / z, 1.0 / z)
    for _ in range(200):
        bound = 2.0 * coeff * S**e * math.exp(-z * S) / z
        if bound < TAIL_MASS_TOL:
            return S
        S *= 2.0
    return S


# ---------------------------------------------------------------------------
# per-part contributions (vectorized over z)
# ---------------------------------------------------------------------------


def _clip_comp(a: float, b: float) -> tuple[float, float]:
    return a, min(b, 1.0)


def _clip_uncomp(a: float, b: float) -> tuple[float, float]:
    return max(a, 1.0), b


def _powerlaw_piece(part: PowerLaw, zs: np.ndarray, qty: str, comp: bool) -> np.ndarray:
    """Power-law contribution on one side of the compensation boundary."""
    sign, a0, b0 = abs_support(part)
    l, u = _clip_comp(a0, b0) if comp else _clip_uncomp(a0, b0)
    out = np.zeros_like(zs)
    if l >= u:
        return out
    c, al = part.c, part.alpha

    def pow_moment(p: int) -> float:
        # c int_l^u s^(p-1-alpha) ds, +inf on symbolic divergence
        return _powerlaw_moment(c, al, p, l, u, 0.0)

    for idx, z in enumerate(zs.flat):
        if sign > 0:
            if z == 0.0:
                if qty == "J":
                    v = 0.0
                elif qty == "Jp":
                    v = 0.0 if comp else -pow_moment(1)
                else:
                    v = pow_moment(2)
            else:
                if qty == "J":
                    if comp:
                        v = c * _quad(lambda s: (math.expm1(-z * s) + z * s) * s ** (-1 - al), l, u)
                    else:
                        hi = u if u != INF else _exp_tail_cut(z, -1 - al, c, l)
                        v = c * _quad(lambda s: math.exp(-z * s) * s ** (-1 - al), l, hi)
                        v -= pow_moment(0)
                elif qty == "Jp":
                    if comp:
                        v = c * _quad(lambda s: -math.expm1(-z * s) * s**-al, l, u)
                    else:
                        hi = u if u != INF else _exp_tail_cut(z, -al, c, l)
                        v = -c * _quad(lambda s: math.exp(-z * s) * s**-al, l, hi)
                else:
                    hi = u if u != INF else _exp_tail_cut(z, 1.0 - al, c, l)
                    v = c * _quad(lambda s: math.exp(-z * s) * s ** (1.0 - al), l, hi)
        else:
            # negative side, weight e^{+z s}; unbounded support diverges for z > 0
            if z == 0.0:
                if qty == "J":
                    v = 0.0
                elif qty == "Jp":
                    v = 0.0 if comp else pow_moment(1)
                else:
                    v = pow_moment(2)
            elif u == INF or z * u > _LOG_MAX:
                # divergent tail, or an integrand that overflows a double
                v = INF
            else:
                if qty == "J":
                    if comp:
                        v = c * _quad(lambda s: (math.expm1(z * s) - z * s) * s ** (-1 - al), l, u)
                    else:
                        v = c * _quad(lambda s: math.expm1(z * s) * s ** (-1 - al), l, u)
                elif qty == "Jp":
                    if comp:
                        v = c * _quad(lambda s: math.expm1(z * s) * s**-al, l, u)
                    else:
                        v = c * _quad(lambda s: math.exp(z * s) * s**-al, l, u)
                else:
                    v = c * _quad(lambda s: math.exp(z * s) * s ** (1.0 - al), l, u)
        out.flat[idx] = v
    return out


def _smooth_piece(part, zs: np.ndarray, qty: str, comp: bool) -> np.ndarray:
    """Closed-form contribution of an Exponential or Uniform part."""
    sign, a0, b0 = abs_support(part)
    l, u = _clip_comp(a0, b0) if comp else _clip_uncomp(a0, b0)
    if l >= u:
        return np.zeros_like(zs)
    c = part.c
    beta = part.beta if isinstance(part, Exponential) else 0.0
    kappa = beta + zs if sign > 0 else beta - zs

    def moment(p: int, k) -> np.ndarray:
        return pow_exp_integral(p, k, l, u)

    m0, m1 = float(moment(0, beta)), float(moment(1, beta))
    if qty == "J":
        if comp:
            body = moment(0, kappa) - m0 + (zs * m1 if sign > 0 else -zs * m1)
        else:
            body = moment(0, kappa) - m0
    elif qty == "Jp":
        if comp:
            body = (m1 - moment(1, kappa)) if sign > 0 else (moment(1, kappa) - m1)
        else:
            body = -moment(1, kappa) if sign > 0 else moment(1, kappa)
    else:
        body = moment(2, kappa)
    return c * body


def _part_piece(part, zs: np.ndarray, qty: str, comp: bool) -> np.ndarray:
    if isinstance(part, PowerLaw):
        return _powerlaw_piece(part, zs, qty, comp)
    return _smooth_piece(part, zs, qty, comp)


def _atom_sum(nu: LevyMeasureSpec, zs: np.ndarray, qty: str, select=None) -> np.ndarray:
    atoms = nu.atoms if select is None else [am for am in nu.atoms if select(am[0])]
    out = np.zeros_like(zs)
    with np.errstate(over="ignore"):
        for y, m in atoms:
            comp = 1.0 if abs(y) < 1.0 else 0.0
            if qty == "J":
                out = out + m * (np.expm1(-zs * y) + zs * y * comp)
            elif qty == "Jp":
                out = out + m * y * (comp - np.exp(-zs * y))
            else:
                out = out + m * y * y * np.exp(-zs * y)
    return out


def _measure_quantity(nu: LevyMeasureSpec, zs: np.ndarray, qty: str) -> np.ndarray:
    out = _atom_sum(nu, zs, qty)
    for part in nu.density_parts:
        out = out + _part_piece(part, zs, qty, comp=True)
        out = out + _part_piece(part, zs, qty, comp=False)
    return out


def _check_z(zs: np.ndarray) -> np.ndarray:
    zs = np.asarray(zs, dtype=float)
    if np.any(zs < 0.0):
        raise ValueError("z must be nonnegative")
    return zs


def eval_J_vec(model: LevyModel, zs) -> np.ndarray:
    zs = _check_z(zs)
    return -model.a * zs + 0.5 * model.q * zs**2 + _measure_quantity(model.nu, zs, "J")


def eval_J_prime_vec(model: LevyModel, zs) -> np.ndarray:
    zs = _check_z(zs)
    return -model.a + model.q * zs + _measure_quantity(model.nu, zs, "Jp")


def eval_J_second_vec(model: LevyModel, zs) -> np.ndarray:
    zs = _check_z(zs)
    return model.q + _measure_quantity(model.nu, zs, "Jpp")


def eval_J(model: LevyModel, z: float) -> float:
    """J(z) for z >= 0; +inf when the negative-tail exponential moment diverges."""
    return float(eval_J_vec(model, np.array([z]))[0])


def eval_J_prime(model: LevyModel, z: float) -> float:
    """J'(z) for z >= 0; +/-inf per the divergence rules of the tail moments."""
    return float(eval_J_prime_vec(model, np.array([z]))[0])


def eval_J_second(model: LevyModel, z: float) -> float:
    """J''(z) = q + int y^2 e^{-zy} nu(dy) for z >= 0."""
    return float(eval_J_second_vec(model, np.array([z]))[0])


def eval_J_pieces(model: LevyModel, z: float) -> tuple[float, float, float, float]:
    """Jump-measure part of J split over (-inf,-1], (-1,0), (0,1), [1,inf)."""
    zs = _check_z(np.array([z]))
    j1 = _atom_sum(model.nu, zs, "J", select=lambda y: y <= -1.0)
    j2 = _atom_sum(model.nu, zs, "J", select=lambda y: -1.0 < y < 0.0)
    j3 = _atom_sum(model.nu, zs, "J", select=lambda y: 0.0 < y < 1.0)
    j4 = _atom_sum(model.nu, zs, "J", select=lambda y: y >= 1.0)
    for part in model.nu.density_parts:
        sign = abs_support(part)[0]
        comp = _part_piece(part, zs, "J", comp=True)
        uncomp = _part_piece(part, zs, "J", comp=False)
        if sign > 0:
            j3, j4 = j3 + comp, j4 + uncomp
        else:
            j2, j1 = j2 + comp, j1 + uncomp
    return float(j1[0]), float(j2[0]), float(j3[0]), float(j4[0])


def domain_sup(model: LevyModel) -> float:
    """Largest z with J(z) < inf (mathematically; sup of an open domain)."""
    sup = INF
    for part in model.nu.density_parts:
        sign, _, b = abs_support(part)
        if sign < 0 and b == INF:
            if isinstance(part, Exponential):
                sup = min(sup, part.beta)
            else:
                sup = min(sup, 0.0)
    return sup


@dataclass(frozen=True)
class ExponentHandle:
    """Vectorized J, J', J'' evaluation bound to one model.

    The handle is what grid-based consumers (the fixed-point solver, the
    drift-condition check) receive; it hides how each measure family is
    integrated.
    """

    model: LevyModel

    def J(self, zs) -> np.ndarray:
        return eval_J_vec(self.model, zs)

    def J_prime(self, zs) -> np.ndarray:
        return eval_J_prime_vec(self.model, zs)

    def J_second(self, zs) -> np.ndarray:
        return eval_J_second_vec(self.model, zs)

    @property
    def domain_sup(self) -> float:
        return domain_sup(self.model)


# ---------------------------------------------------------------------------
# named conditions and regime classification
# ---------------------------------------------------------------------------


def rho_fit(nu: LevyMeasureSpec) -> tuple[float, float] | None:
    """Least-squares exponent of int_0^x y^2 nu(dy) ~ x^rho near 0.

    Fits log-profile against log x on x = 2^-k, k = 3..12.  Returns
    (rho, rms residual), or None when the profile vanishes somewhere on the
    sample (no small-jump mass, no power behaviour to fit).
    """
    xs = 2.0 ** (-_RHO_KS.astype(float))
    vals = np.array([small_jump_profile(nu, x) for x in xs])
    if np.any(vals <= 0.0) or np.any(~np.isfinite(vals)):
        return None
    lx, lv = np.log(xs), np.log(vals)
    slope, intercept = np.polyfit(lx, lv, 1)
    resid = lv - (slope * lx + intercept)
    return float(slope), float(math.sqrt(np.mean(resid**2)))


def _finite(v: float) -> bool:
    return math.isfinite(v)


def check_condition(model: LevyModel, name: str, z0: float | None = None) -> str:
    """Decide one named condition; returns 'holds', 'fails' or 'undecidable'."""
    nu = model.nu
    if name == "B0":
        v = moment_integral(nu, 1, (1.0, INF), open_lo=True)
        w = moment_integral(nu, 1, (-INF, -1.0), open_hi=True)
        return HOLDS if _finite(v + w) else FAILS
    if name == "B1":
        ok = (
            model.q == 0.0
            and support_lower_bound(nu) >= 0.0
            and _finite(moment_integral(nu, 1, (0.0, INF), open_lo=True))
        )
        return HOLDS if ok else FAILS
    if name == "B2":
        ok = support_lower_bound(nu) >= 0.0 and _finite(
            moment_integral(nu, 2, (1.0, INF))
        )
        return HOLDS if ok else FAILS
    if name in ("L1", "L2"):
        if z0 is None:
            raise ValueError(f"{name} needs a configured z0")
        p = 2 if name == "L1" else 3
        neg = moment_integral(nu, p, (-INF, -1.0), exp_tilt=z0)
        pos = moment_integral(nu, p, (1.0, INF))
        return HOLDS if _finite(neg + pos) else FAILS
    if name == "B5":
        fit = rho_fit(nu)
        if fit is None or fit[1] >= RHO_FIT_RESIDUAL_MAX:
            return UNDECIDABLE
        return HOLDS
    if name == "B3":
        if model.q > 0.0 or nu.has_negative_mass():
            return HOLDS
        if check_condition(model, "B1") == HOLDS:
            return FAILS
        fit = rho_fit(nu)
        if fit is not None and fit[1] < RHO_FIT_RESIDUAL_MAX:
            if fit[0] < 1.0 - RHO_ONE_BAND:
                return HOLDS
            if fit[0] > 1.0 + RHO_ONE_BAND:
                return FAILS
        return UNDECIDABLE
    if name == "B4":
        if check_condition(model, "B1") == HOLDS:
            return HOLDS
        if model.q > 0.0 or nu.has_negative_mass():
            return FAILS
        fit = rho_fit(nu)
        if fit is not None and fit[1] < RHO_FIT_RESIDUAL_MAX:
            if fit[0] > 1.0 + RHO_ONE_BAND:
                return HOLDS
            if fit[0] < 1.0 - RHO_ONE_BAND:
                return FAILS
        # rho = 1 would need a slowly varying factor with M -> 0 and divergent
        # int M(x)/x dx; no family in this measure algebra produces one
        return UNDECIDABLE
    raise ValueError(f"unknown condition {name!r}")


REGIME_EXPLOSION = "ExplosionProne"
REGIME_GLOBAL = "GlobalSafe"
REGIME_INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ExponentReport:
    """Exponent table, condition flags, growth regime and rho-fit diagnostics."""

    domain_sup: float
    values: tuple[tuple[float, float, float, float], ...]
    flags: dict[str, str]
    regime: str
    rho_estimate: float | None = None
    rho_residual: float | None = None
    lambda_bar_t_star: float | None = None


def classify(
    model: LevyModel,
    z_grid=None,
    *,
    z0: float = 1.0,
    lambda_bar_t_star: float | None = None,
) -> ExponentReport:
    """Evaluate the exponent on a z-grid and decide every named condition.

    The regime is ExplosionProne when B3 holds, GlobalSafe when B4 holds and
    Indeterminate otherwise.  The product lambda_bar * T_star only enters the
    logarithmic growth condition through a limsup that is not numerically
    decidable; it is echoed in the report for manual inspection.
    """
    flags = {name: check_condition(model, name, z0=z0) for name in CONDITION_NAMES}
    if flags["B3"] == HOLDS:
        regime = REGIME_EXPLOSION
    elif flags["B4"] == HOLDS:
        regime = REGIME_GLOBAL
    else:
        regime = REGIME_INDETERMINATE
    fit = rho_fit(model.nu)
    values: tuple = ()
    if z_grid is not None:
        zs = np.asarray(z_grid, dtype=float)
        J = eval_J_vec(model, zs)
        Jp = eval_J_prime_vec(model, zs)
        Jpp = eval_J_second_vec(model, zs)
        values = tuple(
            (float(z), float(a), float(b), float(c))
            for z, a, b, c in zip(zs, J, Jp, Jpp)
        )
    return ExponentReport(
        domain_sup=domain_sup(model),
        values=values,
        flags=flags,
        regime=regime,
        rho_estimate=None if fit is None else fit[0],
        rho_residual=None if fit is None else fit[1],
        lambda_bar_t_star=lambda_bar_t_star,
    )


def check_positivity_linear(model: LevyModel, lambda_bar: float) -> bool:
    """Positivity preservation for linear diffusion: supp nu within [-1/lambda_bar, inf)."""
    if lambda_bar <= 0.0:
        raise ValueError(f"lambda_bar must be positive, got {lambda_bar}")
    return support_lower_bound(model.nu) >= -1.0 / lambda_bar


# ---------------------------------------------------------------------------
# grid verification of the general-diffusion positivity/regularity conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GSamples:
    """Tabulated volatility g(x, y) on a rectangular grid, y-grid containing 0."""

    xs: np.ndarray
    ys: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or g.shape != (xs.size, ys.size):
            raise ValueError("g must be sampled on the (xs, ys) grid")
        if xs.size < 3 or ys.size < 3:
            raise ValueError("grid too small for finite-difference partials")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if ys[0] != 0.0:
            raise ValueError("y-grid must start at 0 (g(x,0) is checked)")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class GConditionResult:
    holds: bool
    witness: tuple[float, float, str] | None
    constants: dict[str, float]


def check_G_conditions(
    g_samples: GSamples, nu_support_inf: float, variant: str = "G1"
) -> GConditionResult:
    """Grid verification (not a proof) of the volatility conditions.

    G1 checks g(x,0) = 0, g >= 0 and the positivity inequality
    y + g(x,y) u >= 0 at u = inf supp nu, and reports the empirical
    y-Lipschitz constant.  G2 adds g'_x(x,0) = 0 plus bounds of the partials;
    G3 adds the g <= c sqrt(y) envelope and second-partial bounds.  Returns
    the first failing grid point as a witness.
    """
    if variant not in ("G1", "G2", "G3"):
        raise ValueError(f"variant must be G1, G2 or G3, got {variant!r}")
    xs, ys, g = g_samples.xs, g_samples.ys, g_samples.g
    tol = 1e-12
    constants: dict[str, float] = {}

    def witness_of(mask: np.ndarray, check: str) -> GConditionResult:
        i, j = np.argwhere(mask)[0]
        return GConditionResult(False, (float(xs[i]), float(ys[j]), check), constants)

    bad = np.abs(g[:, 0]) > tol
    if np.any(bad):
        return witness_of(bad[:, None] & (ys == 0.0)[None, :], "g(x,0)=0")
    bad = g < -tol
    if np.any(bad):
        return witness_of(bad, "g>=0")
    u = nu_support_inf
    with np.errstate(invalid="ignore"):
        pos = ys[None, :] + g * u
        pos = np.where((g == 0.0) & np.isnan(pos), ys[None, :], pos)
    bad = pos < -tol
    if np.any(bad):
        return witness_of(bad, "y+g(x,y)u>=0")

    dgdy = np.gradient(g, ys, axis=1)
    constants["lipschitz_y"] = float(np.max(np.abs(dgdy)))

    if variant in ("G2", "G3"):
        dgdx = np.gradient(g, xs, axis=0)
        bad = np.abs(dgdx[:, 0]) > 1e-8
        if np.any(bad):
            return witness_of(bad[:, None] & (ys == 0.0)[None, :], "g'_x(x,0)=0")
        constants["sup_dg_dy"] = float(np.max(np.abs(dgdy)))
        constants["sup_dg_dx"] = float(np.max(np.abs(dgdx)))
        constants["lipschitz_dg_dx_y"] = float(np.max(np.abs(np.gradient(dgdx, ys, axis=1))))
        constants["lipschitz_dg_dy_y"] = float(np.max(np.abs(np.gradient(dgdy, ys, axis=1))))

    if variant == "G3":
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = g[:, 1:] / np.sqrt(ys[None, 1:])
        constants["sqrt_envelope_c"] = float(np.max(ratio))
        dgdx = np.gradient(g, xs, axis=0)
        constants["sup_d2g_dxdy"] = float(np.max(np.abs(np.gradient(dgdx, ys, axis=1))))
        constants["sup_d2g_dy2"] = float(np.max(np.abs(np.gradient(dgdy, ys, axis=1))))

    return GConditionResult(True, None, constants)


# ---------------------------------------------------------------------------
# Monte Carlo consistency of the exponent with the simulated process
# ---------------------------------------------------------------------------


def mgf_consistency(
    model: LevyModel,
    z_list,
    t: float,
    n_paths: int,
    seed: int,
    n_threshold: int = 1000,
) -> list[dict]:
    """Per-z gap |log E^ exp(-z L(t)) - t J(z)| with Monte Carlo standard errors.

    z values outside the exponent domain are reported as skipped.  Note the
    Gaussian convention: the exponent carries q z^2 / 2 while paths carry a
    Gaussian part with variance q^2 t, so the gap is only expected to vanish
    for q in {0, 1} (every scenario in this laboratory uses those).
    """
    from .path_sim import sample_terminal

    sup = domain_sup(model)
    rows: list[dict] = []
    samples = None
    for z in z_list:
        z = float(z)
        tJ = eval_J(model, z) * t
        if z > sup or not math.isfinite(tJ):
            rows.append({"z": z, "skipped": True, "reason": "outside exponent domain"})
            continue
        if samples is None:
            samples = sample_terminal(model, t, n_paths, seed, n_threshold=n_threshold)
        w = np.exp(-z * samples)
        mean = float(np.mean(w))
        se_mean = float(np.std(w, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        log_mean = math.log(mean)
        se_log = se_mean / mean if mean > 0 else INF
        rows.append(
            {
                "z": z,
                "skipped": False,
                "t_J": tJ,
                "log_mean": log_mean,
                "gap": abs(log_mean - tJ),
                "se": se_log,
                "n_paths": n_paths,
            }
        )
    return rows
