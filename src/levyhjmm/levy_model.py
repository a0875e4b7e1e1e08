"""Levy triplet representation and moment integrals of the jump measure.

The jump measure is a finite sum of atoms and parametric density components
(power law, exponential, uniform), each living on a one-signed interval.
Every moment integral needed by the regularity/growth conditions admits
either a closed form or a single bounded 1-D quadrature; divergence is
always decided symbolically (by exponent comparison), never by inspecting
the size of a numerical result.  This module owns every per-family
integral: exponential and uniform parts reduce to the one kernel
`pow_exp_integral`, which the exponent (vectorized over z), the moment
integrals and the path intensities all call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

INF = math.inf

#: absolute tolerance target for adaptive quadrature
QUAD_ABS_TOL = 1e-10
#: neglected tail mass must be provably below this
TAIL_MASS_TOL = 1e-12


def _as_interval(support) -> tuple[float, float]:
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError(f"support must be a nondegenerate interval, got ({lo}, {hi})")
    if lo < 0.0 < hi:
        raise ValueError(
            f"support must be one-signed (within (0, inf) or (-inf, 0)), got ({lo}, {hi})"
        )
    return lo, hi


@dataclass(frozen=True)
class PowerLaw:
    """Density c*|y|^(-1-alpha) on a one-signed interval."""

    c: float
    alpha: float
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = _as_interval(self.support)
        object.__setattr__(self, "support", (lo, hi))
        if self.c <= 0:
            raise ValueError("PowerLaw coefficient c must be positive")
        touches_zero = lo == 0.0 or hi == 0.0
        unbounded = lo == -INF or hi == INF
        if touches_zero and self.alpha >= 2.0:
            raise ValueError(
                "PowerLaw with support touching 0 needs alpha < 2, "
                f"got alpha={self.alpha} (second moment near 0 diverges)"
            )
        if unbounded and self.alpha <= 0.0:
            raise ValueError(
                "PowerLaw with unbounded support needs alpha > 0, "
                f"got alpha={self.alpha} (tail mass diverges)"
            )


@dataclass(frozen=True)
class Exponential:
    """Density c*exp(-beta*|y|) on a one-signed interval."""

    c: float
    beta: float
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = _as_interval(self.support)
        object.__setattr__(self, "support", (lo, hi))
        if self.c <= 0:
            raise ValueError("Exponential coefficient c must be positive")
        if self.beta <= 0:
            raise ValueError("Exponential rate beta must be positive")


@dataclass(frozen=True)
class Uniform:
    """Constant density c on a bounded one-signed interval."""

    c: float
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = _as_interval(self.support)
        object.__setattr__(self, "support", (lo, hi))
        if self.c <= 0:
            raise ValueError("Uniform coefficient c must be positive")
        if lo == -INF or hi == INF:
            raise ValueError("Uniform support must be bounded (tail mass diverges)")


DensityPart = PowerLaw | Exponential | Uniform


def abs_support(part: DensityPart) -> tuple[int, float, float]:
    """Return (sign, a, b) with the support written as sign * [a, b], 0 <= a < b."""
    lo, hi = part.support
    if hi <= 0.0:
        return -1, -hi, -lo
    return 1, lo, hi


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Jump measure: atoms plus parametric density components.

    Parameters
    ----------
    atoms : sequence of (location, mass)
        Point masses; locations nonzero, masses positive.
    density_parts : sequence of PowerLaw | Exponential | Uniform
        Absolutely continuous components on one-signed intervals.

    The constructor rejects any measure violating the Levy integrability
    condition int (y^2 AND 1) nu(dy) < inf (the family-level constraints
    above are exactly that condition, checked symbolically).
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density_parts: tuple[DensityPart, ...] = ()

    def __post_init__(self):
        atoms = tuple((float(y), float(m)) for y, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density_parts", tuple(self.density_parts))
        for y, m in atoms:
            if y == 0.0 or not math.isfinite(y):
                raise ValueError(f"atom location must be finite and nonzero, got {y}")
            if m <= 0.0 or not math.isfinite(m):
                raise ValueError(f"atom mass must be positive and finite, got {m}")
        for part in self.density_parts:
            if not isinstance(part, (PowerLaw, Exponential, Uniform)):
                raise TypeError(f"unsupported density part {type(part).__name__}")

    def has_negative_mass(self) -> bool:
        """True iff nu charges (-inf, 0)."""
        if any(y < 0 for y, _ in self.atoms):
            return True
        return any(abs_support(p)[0] < 0 for p in self.density_parts)


@dataclass(frozen=True)
class LevyModel:
    """Levy triplet: drift a, Gaussian coefficient q >= 0, jump measure nu."""

    a: float = 0.0
    q: float = 0.0
    nu: LevyMeasureSpec = field(default_factory=LevyMeasureSpec)

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"Gaussian coefficient q must be >= 0, got {self.q}")


# ---------------------------------------------------------------------------
# elementary integrals
# ---------------------------------------------------------------------------


def _quad(f, a: float, b: float) -> float:
    """Adaptive quadrature on a bounded interval, absolute tolerance 1e-10."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = integrate.quad(f, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL, limit=400)
    return val


#: Taylor terms of int_0^1 u^j e^{-xu} du used for |x| < 1 (the n-th is below 1/n!)
_N_SERIES = 20


def _unit_pow_exp(j: int, x: np.ndarray) -> np.ndarray:
    """g_j(x) = int_0^1 u^j exp(-x*u) du, elementwise; +inf at x = -inf."""
    out = np.empty_like(x)
    small = np.abs(x) < 1.0
    pos = x >= 1.0
    neg = ~(small | pos)
    # sum_n (-x)^n / (n! (n+j+1)) in Horner form: no cancellation for |x| < 1
    xs = -x[small]
    acc = np.zeros_like(xs)
    for n in range(_N_SERIES, -1, -1):
        acc = acc * xs + 1.0 / (math.factorial(n) * (n + j + 1))
    out[small] = acc
    xp = x[pos]
    out[pos] = math.factorial(j) * special.gammainc(j + 1, xp) / xp ** (j + 1)
    # x <= -1: e^y sum_k (-1)^k j!/(j-k)! y^-(k+1) - (-1)^j j! y^-(j+1), y = -x
    y = -x[neg]
    poly = np.zeros_like(y)
    for k in range(j, -1, -1):
        poly = poly / y + (-1) ** k * math.perm(j, k)
    direct = np.exp(y) * poly / y - (-1) ** j * math.factorial(j) / y ** (j + 1)
    out[neg] = np.where(y == INF, INF, direct)
    return out


def pow_exp_integral(p: int, kappa, a: float, b: float) -> np.ndarray:
    """integral_a^b s^p exp(-kappa*s) ds for integer p >= 0, 0 <= a < b <= inf,
    elementwise over kappa (any sign).

    With L = b - a the integral is e^{-kappa a} sum_j C(p,j) a^(p-j) T_j,
    T_j = int_0^L t^j e^{-kappa t} dt = L^(j+1) g_j(kappa L); every term is
    nonnegative, so nothing cancels as kappa L -> 0.  The result is +inf
    exactly where b = inf and kappa <= 0.
    """
    kappa = np.asarray(kappa, dtype=float)
    L = b - a
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(p + 1) if a > 0.0 else (p,):
            if L == INF:
                t_j = np.where(kappa > 0.0, math.factorial(j) / kappa ** (j + 1), INF)
            else:
                t_j = L ** (j + 1) * _unit_pow_exp(j, kappa * L)
            total = total + math.comb(p, j) * a ** (p - j) * t_j
        if a > 0.0:
            total = np.exp(-kappa * a) * total
    return total


# ---------------------------------------------------------------------------
# moment integrals
# ---------------------------------------------------------------------------


def _atom_in_region(
    y: float, lo: float, hi: float, open_lo: bool, open_hi: bool
) -> bool:
    if open_lo:
        if not y > lo:
            return False
    elif not y >= lo:
        return False
    if open_hi:
        return y < hi
    return y <= hi


def _powerlaw_moment(
    c: float, alpha: float, p: int, lo: float, hi: float, tilt: float
) -> float:
    """integral_lo^hi s^(p-1-alpha) * exp(tilt*s) * c ds over s = |y| in [lo, hi]."""
    e = p - 1.0 - alpha
    if tilt > 0.0:
        if hi == INF:
            return INF
        if lo == 0.0 and e <= -1.0:
            return INF
        return c * _quad(lambda s: s**e * math.exp(tilt * s), lo, hi)
    if hi == INF and e >= -1.0:
        return INF
    if lo == 0.0 and e <= -1.0:
        return INF
    if e == -1.0:
        return c * math.log(hi / lo)
    top = 0.0 if hi == INF else hi ** (e + 1.0)
    return c * (top - lo ** (e + 1.0)) / (e + 1.0)


def _family_moment(part: DensityPart, p: int, lo: float, hi: float, tilt: float) -> float:
    """Moment of one density part over the abs-interval [lo, hi] with tilt weight."""
    if isinstance(part, PowerLaw):
        return _powerlaw_moment(part.c, part.alpha, p, lo, hi, tilt)
    beta = part.beta if isinstance(part, Exponential) else 0.0
    return part.c * float(pow_exp_integral(p, beta - tilt, lo, hi))


def moment_integral(
    nu: LevyMeasureSpec,
    p: int,
    region: tuple[float, float],
    exp_tilt: float = 0.0,
    *,
    open_lo: bool = False,
    open_hi: bool = False,
) -> float:
    """integral_region |y|^p * exp(exp_tilt*|y|*1_{y<0}) nu(dy), possibly +inf.

    The exponential tilt acts on the negative axis only.  Endpoint openness
    matters for atoms only (densities never charge single points).  Raises
    ValueError for an empty region.
    """
    lo, hi = float(region[0]), float(region[1])
    if not lo < hi:
        raise ValueError(f"empty region ({lo}, {hi})")
    if p < 0 or p != int(p):
        raise ValueError(f"p must be a nonnegative integer, got {p}")
    p = int(p)

    total = 0.0
    for y, m in nu.atoms:
        if _atom_in_region(y, lo, hi, open_lo, open_hi):
            w = math.exp(exp_tilt * abs(y)) if (y < 0 and exp_tilt != 0.0) else 1.0
            total += m * abs(y) ** p * w

    for part in nu.density_parts:
        sign, a, b = abs_support(part)
        if sign > 0:
            l = max(a, lo)
            u = min(b, hi)
            tilt = 0.0
        else:
            # y in [-b, -a]; region clips to s = -y in [max(a, -hi), min(b, -lo)]
            l = max(a, -hi)
            u = min(b, -lo)
            tilt = exp_tilt
        if l >= u:
            continue
        val = _family_moment(part, p, l, u, tilt)
        if val == INF:
            return INF
        total += val
    return total


def support_lower_bound(nu: LevyMeasureSpec) -> float:
    """Infimum of supp(nu); +inf for the zero measure, -inf allowed."""
    candidates = [y for y, _ in nu.atoms]
    candidates.extend(part.support[0] for part in nu.density_parts)
    return min(candidates) if candidates else INF


def small_jump_profile(nu: LevyMeasureSpec, x: float) -> float:
    """integral_(0,x] y^2 nu(dy) for x in (0, 1]."""
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    return moment_integral(nu, 2, (0.0, x), open_lo=True)


# ---------------------------------------------------------------------------
# JSON sub-schema
# ---------------------------------------------------------------------------

_PART_KINDS = {"power_law": PowerLaw, "exponential": Exponential, "uniform": Uniform}


def _endpoint_from_json(v, side: str) -> float:
    if v is None:
        return -INF if side == "lo" else INF
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return INF
        if s in ("-inf", "-infinity"):
            return -INF
        raise ValueError(f"bad interval endpoint {v!r}")
    return float(v)


def _endpoint_to_json(v: float):
    if v == INF or v == -INF:
        return None
    return v


def density_part_from_dict(d: dict) -> DensityPart:
    kind = d.get("kind")
    if kind not in _PART_KINDS:
        raise ValueError(f"unknown density part kind {kind!r}")
    sup = d.get("support")
    if not isinstance(sup, (list, tuple)) or len(sup) != 2:
        raise ValueError("density part support must be a 2-element interval")
    support = (_endpoint_from_json(sup[0], "lo"), _endpoint_from_json(sup[1], "hi"))
    if kind == "power_law":
        return PowerLaw(c=float(d["c"]), alpha=float(d["alpha"]), support=support)
    if kind == "exponential":
        return Exponential(c=float(d["c"]), beta=float(d["beta"]), support=support)
    return Uniform(c=float(d["c"]), support=support)


def density_part_to_dict(part: DensityPart) -> dict:
    lo, hi = part.support
    sup = [_endpoint_to_json(lo), _endpoint_to_json(hi)]
    if isinstance(part, PowerLaw):
        return {"kind": "power_law", "c": part.c, "alpha": part.alpha, "support": sup}
    if isinstance(part, Exponential):
        return {"kind": "exponential", "c": part.c, "beta": part.beta, "support": sup}
    return {"kind": "uniform", "c": part.c, "support": sup}


def levy_model_from_dict(d: dict) -> LevyModel:
    """Build a LevyModel from the JSON sub-schema 'levy_model'."""
    nu_d = d.get("nu", {}) or {}
    atoms = tuple((float(y), float(m)) for y, m in nu_d.get("atoms", []))
    parts = tuple(density_part_from_dict(pd) for pd in nu_d.get("density_parts", []))
    return LevyModel(
        a=float(d.get("a", 0.0)),
        q=float(d.get("q", 0.0)),
        nu=LevyMeasureSpec(atoms=atoms, density_parts=parts),
    )


def levy_model_to_dict(model: LevyModel) -> dict:
    return {
        "a": model.a,
        "q": model.q,
        "nu": {
            "atoms": [[y, m] for y, m in model.nu.atoms],
            "density_parts": [density_part_to_dict(p) for p in model.nu.density_parts],
        },
    }
