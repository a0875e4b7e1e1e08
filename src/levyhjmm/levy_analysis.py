"""Laplace exponent of the driving process and its regularity/growth conditions.

The exponent J is defined through E exp(-z L(t)) = exp(t J(z)) and carries
the explicit representation

    J(z) = -a z + q z^2 / 2 + int (exp(-z y) - 1 + z y 1_{(-1,1)}(y)) nu(dy),

with first derivative J'(z) = -a + q z + int y (1_{(-1,1)}(y) - exp(-z y)) nu(dy)
and second derivative J''(z) = q + int y^2 exp(-z y) nu(dy).  All three come
from one evaluator indexed by the derivative order d = 0, 1, 2, whose jump
integrand is (-y)^d (exp(-z y) - sum_{k<m} (-z y)^k / k!), m = max(2 - d, 0)
inside the unit ball and max(1 - d, 0) outside, for every density part.
Atoms are summed in closed form here; every per-family integral of a density
part belongs to `levy_model`, vectorized over z: exponential and uniform parts
go through `pow_exp_integral`, power-law parts through the fixed-node
`power_law_integral` plus symbolic power moments at z = 0.  Divergence is
decided symbolically and reported as +/-inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_model import (
    INF,
    Exponential,
    LevyMeasureSpec,
    LevyModel,
    PowerLaw,
    abs_support,
    moment_integral,
    pow_exp_integral,
    small_jump_profile,
    support_lower_bound,
    _LOG_MAX,
    _powerlaw_moment,
    power_law_integral,
)

CONDITION_NAMES = ("B0", "B1", "B2", "B3", "B4", "B5", "L1", "L2")

HOLDS = "holds"
FAILS = "fails"
UNDECIDABLE = "undecidable"

#: rho-fit sample points x = 2^-k and goodness threshold
_RHO_KS = np.arange(3, 13)
RHO_FIT_RESIDUAL_MAX = 0.05
#: fitted exponents within this band of 1 count as the undecidable rho = 1 case
RHO_ONE_BAND = 0.05


class ExponentDomainError(ValueError):
    """J or a derivative was requested at a z where it is infinite, or at a
    negative z, where it is not evaluated.

    When the z came from a stack of fields, `path` is the index of its field
    along the stack (set by the solver); otherwise it stays None.
    """

    path: int | None = None

    def __init__(self, z: float, what: str = "J'"):
        self.z = float(z)
        self.what = what
        if self.z < 0.0:
            super().__init__(f"{what} is only evaluated for z >= 0, got z={self.z!r}")
        else:
            super().__init__(f"{what} is infinite at z={self.z!r}")


# ---------------------------------------------------------------------------
# J and its derivatives, indexed by the order d = 0, 1, 2 (vectorized over z)
# ---------------------------------------------------------------------------


def _part_piece(part, zs: np.ndarray, d: int, comp: bool) -> np.ndarray:
    """d-th derivative's share of one density part inside (comp) or outside the unit ball.

    Over s = |y| in [l, u], with y = sign*s, zeta = sign*z, density rho(s) and
    m = max((2 if comp else 1) - d, 0), it is
    c (-sign)^d int s^d (e^{-zeta s} - sum_{k<m} (-zeta s)^k / k!) rho(s) ds.
    An exponential or uniform part (rho = e^{-beta s}, beta = 0 for uniform)
    gives M_d(beta + zeta) - sum_{k<m} (-zeta)^k / k! M_{d+k}(beta) with
    M_p = `pow_exp_integral(p, ., l, u)`; a power law (rho = s^(-1-alpha))
    gives (-zeta)^m int s^(d+m-1-alpha) F_m(zeta s) ds, one `power_law_integral`.
    """
    sign, a0, b0 = abs_support(part)
    l, u = (a0, min(b0, 1.0)) if comp else (max(a0, 1.0), b0)
    if l >= u:
        return np.zeros_like(zs)
    m = max((2 if comp else 1) - d, 0)
    c = part.c * (-sign) ** d
    if not isinstance(part, PowerLaw):
        beta = part.beta if isinstance(part, Exponential) else 0.0
        body = pow_exp_integral(d, beta + sign * zs, l, u)
        for k in range(m):
            body = body - (-sign * zs) ** k / math.factorial(k) * float(pow_exp_integral(d + k, beta, l, u))
        return c * body
    # at z = 0 only m = 0 leaves a term: the symbolic moment, +inf on divergence
    at_zero = (-sign) ** d * _powerlaw_moment(part.c, part.alpha, d, l, u, 0.0) if m == 0 else 0.0
    out = np.where(np.isfinite(zs), at_zero, np.nan)
    todo = np.isfinite(zs) & (zs != 0.0)
    if sign < 0:
        # weight e^{zs}: a divergent tail, or an integrand that overflows a double
        inf = zs > _LOG_MAX / u  # u = inf: every z > 0
        out[inf] = INF
        todo &= ~inf
    zeta = sign * zs[todo]
    integral = power_law_integral(m, d + m - 1.0 - part.alpha, zeta, l, u)
    # (-zeta)^m with the power of two of zeta split off: zeta^2 overflows past
    # 1e154, where the product need not (J is near 2z at alpha = 0.5 on (0, 1))
    frac, exp2 = np.frexp(-zeta)
    with np.errstate(over="ignore"):  # a value beyond double range is +/-inf
        out[todo] = np.ldexp(c * frac**m * integral, m * exp2)
    return out


def _atom_sum(atoms, zs: np.ndarray, d: int) -> np.ndarray:
    """The atoms' share of the d-th derivative: m (expm1(-zy) + zy comp),
    m y (comp - e^{-zy}) or m y y e^{-zy} per atom (y, m), each formed in one
    reused buffer by the operations of that expression, in its order."""
    out = np.zeros_like(zs)
    neg_zs, term = -zs, np.empty_like(zs)
    lin = np.empty_like(zs) if d == 0 else None
    with np.errstate(over="ignore"):
        for y, m in atoms:
            comp = 1.0 if abs(y) < 1.0 else 0.0
            np.multiply(neg_zs, y, out=term)
            if d == 0:
                np.expm1(term, out=term)
                np.multiply(zs, y, out=lin)
                lin *= comp
                term += lin
                term *= m
            elif d == 1:
                np.exp(term, out=term)
                np.subtract(comp, term, out=term)
                term *= m * y
            else:
                np.exp(term, out=term)
                term *= m * y * y
            out += term
    return out


def _eval(model: LevyModel, zs, d: int) -> np.ndarray:
    """The d-th derivative of J (d = 0, 1, 2) at every z of zs, all z >= 0."""
    zs = np.asarray(zs, dtype=float)
    neg = zs < 0.0
    if np.any(neg):
        raise ExponentDomainError(zs[neg].flat[0], what="J" + "'" * d)
    measure = _atom_sum(model.nu.atoms, zs, d)
    for part in model.nu.density_parts:
        measure = measure + _part_piece(part, zs, d, comp=True) + _part_piece(part, zs, d, comp=False)
    # plus the d-th derivative of -a z + q z^2 / 2
    a, q = model.a, model.q
    if d == 2:
        return q + measure
    drift = -a * zs if d == 0 else -a
    if q:  # left out at q = 0: q z^2 overflows at large z, and 0 * inf is nan
        drift = drift + (0.5 * q * zs**2 if d == 0 else q * zs)
    return drift + measure


def eval_J(model: LevyModel, z: float) -> float:
    """J(z) for z >= 0; +inf when the negative-tail exponential moment diverges."""
    return float(_eval(model, np.array([z]), 0)[0])


def eval_J_prime(model: LevyModel, z: float) -> float:
    """J'(z) for z >= 0; +/-inf per the divergence rules of the tail moments."""
    return float(_eval(model, np.array([z]), 1)[0])


def eval_J_second(model: LevyModel, z: float) -> float:
    """J''(z) = q + int y^2 e^{-zy} nu(dy) for z >= 0."""
    return float(_eval(model, np.array([z]), 2)[0])


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
        return _eval(self.model, zs, 0)

    def J_prime(self, zs) -> np.ndarray:
        return _eval(self.model, zs, 1)

    def J_second(self, zs) -> np.ndarray:
        return _eval(self.model, zs, 2)

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


def check_condition(model: LevyModel, name: str, z0: float | None = None) -> str:
    """Decide one named condition; returns 'holds', 'fails' or 'undecidable'."""
    nu = model.nu
    if name == "B0":
        v = moment_integral(nu, 1, (1.0, INF), open_lo=True)
        w = moment_integral(nu, 1, (-INF, -1.0), open_hi=True)
        return HOLDS if math.isfinite(v + w) else FAILS
    if name == "B1":
        ok = (
            model.q == 0.0
            and support_lower_bound(nu) >= 0.0
            and math.isfinite(moment_integral(nu, 1, (0.0, INF), open_lo=True))
        )
        return HOLDS if ok else FAILS
    if name == "B2":
        ok = support_lower_bound(nu) >= 0.0 and math.isfinite(
            moment_integral(nu, 2, (1.0, INF))
        )
        return HOLDS if ok else FAILS
    if name in ("L1", "L2"):
        if z0 is None:
            raise ValueError(f"{name} needs a configured z0")
        p = 2 if name == "L1" else 3
        # e^{z0|y|} is bounded on atoms and bounded parts, so their untilted
        # moment decides; only the parts unbounded below need the tilt
        tails = LevyMeasureSpec(density_parts=[d for d in nu.density_parts if d.support[0] == -INF])
        neg = moment_integral(nu, p, (-INF, -1.0)) + moment_integral(tails, p, (-INF, -1.0), exp_tilt=z0)
        pos = moment_integral(nu, p, (1.0, INF))
        return HOLDS if math.isfinite(neg + pos) else FAILS
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
        # the mirror of B3: B1 holding means q = 0 and no negative mass, so
        # B3's rules decide B4 with holds and fails swapped.  rho = 1 would
        # need a slowly varying factor with M -> 0 and divergent
        # int M(x)/x dx; no family in this measure algebra produces one
        return {HOLDS: FAILS, FAILS: HOLDS}.get(check_condition(model, "B3"), UNDECIDABLE)
    raise ValueError(f"unknown condition {name!r}")


REGIME_EXPLOSION = "ExplosionProne"
REGIME_GLOBAL = "GlobalSafe"
REGIME_INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ExponentReport:
    """Condition flags, growth regime and rho-fit diagnostics."""

    domain_sup: float
    flags: dict[str, str]
    regime: str
    rho_estimate: float | None = None
    rho_residual: float | None = None


def classify(model: LevyModel, *, z0: float = 1.0) -> ExponentReport:
    """Decide every named condition of the exponent.

    The regime is ExplosionProne when B3 holds, GlobalSafe when B4 holds and
    Indeterminate otherwise.
    """
    flags = {name: check_condition(model, name, z0=z0) for name in CONDITION_NAMES}
    if flags["B3"] == HOLDS:
        regime = REGIME_EXPLOSION
    elif flags["B4"] == HOLDS:
        regime = REGIME_GLOBAL
    else:
        regime = REGIME_INDETERMINATE
    fit = rho_fit(model.nu)
    return ExponentReport(
        domain_sup=domain_sup(model),
        flags=flags,
        regime=regime,
        rho_estimate=None if fit is None else fit[0],
        rho_residual=None if fit is None else fit[1],
    )


# ---------------------------------------------------------------------------
# Monte Carlo consistency of the exponent with the simulated process
# ---------------------------------------------------------------------------


def mgf_consistency(
    model: LevyModel,
    z_list,
    t: float,
    n_paths: int,
    seed: int,
) -> list[dict]:
    """Per-z gap |log E^ exp(-z L(t)) - t J(z)| with Monte Carlo standard errors.

    L(t) is sampled at the default truncation `path_sim.N_THRESHOLD`; z values
    outside the exponent domain are reported as skipped.
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
            samples = sample_terminal(model, t, n_paths, seed)
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
