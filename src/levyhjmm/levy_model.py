"""Levy triplet representation and moment integrals of the jump measure.

The jump measure is a finite sum of atoms and parametric density components
(power law, exponential, uniform), each living on a one-signed interval.
Every moment integral needed by the regularity/growth conditions is a
closed form or a fixed-node Gauss rule; divergence is always decided
symbolically (by exponent comparison), never by inspecting the size of a
numerical result.  This module owns every per-family integral, in two
kernels vectorized over z: exponential and uniform parts reduce to
`pow_exp_integral`, power-law parts to `power_law_integral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

INF = math.inf

#: largest w with exp(w) finite in double precision
_LOG_MAX = math.log(np.finfo(float).max)


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
        if not 0 < self.c < INF:
            raise ValueError(f"PowerLaw coefficient c must be positive and finite, got {self.c}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"PowerLaw exponent alpha must be finite, got {self.alpha}")
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
        if not 0 < self.c < INF:
            raise ValueError(f"Exponential coefficient c must be positive and finite, got {self.c}")
        if not 0 < self.beta < INF:
            raise ValueError(f"Exponential rate beta must be positive and finite, got {self.beta}")


@dataclass(frozen=True)
class Uniform:
    """Constant density c on a bounded one-signed interval."""

    c: float
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = _as_interval(self.support)
        object.__setattr__(self, "support", (lo, hi))
        if not 0 < self.c < INF:
            raise ValueError(f"Uniform coefficient c must be positive and finite, got {self.c}")
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
    """Levy triplet: drift a, Gaussian variance q >= 0, jump measure nu."""

    a: float = 0.0
    q: float = 0.0
    nu: LevyMeasureSpec = field(default_factory=LevyMeasureSpec)

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"drift a must be finite, got {self.a}")
        if not 0 <= self.q < INF:
            raise ValueError(f"Gaussian variance q must be >= 0 and finite, got {self.q}")


# ---------------------------------------------------------------------------
# elementary integrals
# ---------------------------------------------------------------------------


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
    if pos.any():
        from scipy import special  # loaded on first use: atoms and Brownian parts never need it

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


#: Gauss nodes per panel of `power_law_integral`
_N_NODES = 20
#: past x = 45 + max(e, 0), x^e e^{-x} is below e^-45 (3e-20) of its peak
_EXP_CUT = 45.0
#: an unbounded tail at a smaller zeta is rescaled to this one (its cut stays finite)
_ZETA_MIN = 2.0**-1000
#: panels evaluated at once, which bounds the memory of one call
_PANEL_BLOCK = 4096


@lru_cache(maxsize=None)
def _jacobi_rule(e: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w with sum w f(t) ~ int_0^1 t^e f(t) dt: Gauss-Jacobi
    (Golub & Welsch), Gauss-Legendre at e = 0.  Built on first use per e."""
    from scipy import special

    x, w = special.roots_jacobi(_N_NODES, 0.0, e)
    t, w = 0.5 * (1.0 + x), w / 2.0 ** (e + 1.0)
    t.flags.writeable = w.flags.writeable = False  # shared by every later call
    return t, w


def _compensated_exp(m: int, x: np.ndarray) -> np.ndarray:
    """F_m(x) = (e^{-x} - sum_{k<m} (-x)^k / k!) / (-x)^m for m = 0, 1, 2,
    that is e^{-x}, g_0(x) and g_0(x) - g_1(x): no cancellation near x = 0."""
    if m == 0:
        return np.exp(-x)
    g0 = _unit_pow_exp(0, x)
    return g0 if m == 1 else g0 - _unit_pow_exp(1, x)


@np.errstate(over="ignore")  # a value beyond double range is +inf; far breakpoints clip
def power_law_integral(m: int, e: float, zeta, l: float, u: float) -> np.ndarray:
    """int_l^u s^e F_m(zeta s) ds elementwise over finite nonzero zeta, with
    F_m(x) = (e^{-x} - sum_{k<m} (-x)^k / k!) / (-x)^m and m in {0, 1, 2}.

    Needs 0 <= l < u <= inf, e > -1 when l = 0, and, when u = inf,
    zeta > 0 and either m = 0 or m = 1 and e < 0.  Fixed nodes: the panel
    [0, b0] that touches 0 is Gauss-Jacobi with weight s^e, every other one
    Gauss-Legendre.  Panels double in width from the end where e^{-zeta s}
    peaks, starting at 1/|zeta|, and double in s from l (from
    b0 = min(u, 1/|zeta|) when l = 0).  An unbounded tail is cut at
    l + (45 + max(e, 0))/zeta: for m = 0 the rest is below e^-45 of the
    peak, for m = 1 F_1(x) is 1/x beyond to within e^-45 (a closed form).
    Below zeta = 2^-1000 the tail is first rescaled to zeta = 2^-1000.
    """
    zeta = np.asarray(zeta, dtype=float)
    shape, zeta = zeta.shape, zeta.ravel()
    # int_l^inf s^e F(zeta s) ds = c^(e+1) int_{l/c}^inf r^e F(c zeta r) dr; c > 1 keeps the cut finite
    scale = np.maximum(_ZETA_MIN / zeta, 1.0) if u == INF else np.ones_like(zeta)
    zeta, lz = zeta * scale, l / scale
    width = 1.0 / np.abs(zeta)
    pos = zeta > 0.0
    top = lz + (_EXP_CUT + max(e, 0.0)) * width if u == INF else np.full_like(zeta, u)
    b0 = np.minimum(top, width) if l == 0.0 else lz
    n_exp = math.ceil(math.log2(np.max((top - lz) / width, initial=1.0)))
    n_pow = math.ceil(np.max(np.log2(top) - np.log2(b0), initial=0.0))
    first = np.where(pos, width, -width)[:, None]  # signed width of the panel at the peak
    from_peak = np.where(pos, lz, u)[:, None] + np.ldexp(first, np.arange(n_exp + 1))
    pts = np.hstack([from_peak, np.ldexp(b0[:, None], np.arange(n_pow + 1)), top[:, None]])
    pts = np.sort(np.clip(pts, b0[:, None], top[:, None]), axis=1)
    zi, pi = np.nonzero(pts[:, 1:] > pts[:, :-1])
    lo, span = pts[zi, pi], pts[zi, pi + 1] - pts[zi, pi]
    # nodes are summed by einsum, row by row (a BLAS matrix-vector product
    # rounds by row count), and the panels of each zeta in one bincount, so a
    # zeta's value does not depend on the other zetas of the call
    t, w = _jacobi_rule(0.0)
    panels = np.empty_like(span)
    for k in range(0, zi.size, _PANEL_BLOCK):
        blk = slice(k, k + _PANEL_BLOCK)
        s = lo[blk, None] + span[blk, None] * t
        panels[blk] = span[blk] * np.einsum("ij,j->i", s**e * _compensated_exp(m, zeta[zi[blk], None] * s), w)
    out = np.zeros_like(zeta)
    out += np.bincount(zi, weights=panels, minlength=zeta.size)
    if l == 0.0:
        t, w = _jacobi_rule(e)
        out += b0 ** (e + 1.0) * np.einsum("ij,j->i", _compensated_exp(m, (zeta * b0)[:, None] * t), w)
    if m == 1 and u == INF:
        out += top**e / (-e * zeta)
    return (scale ** (e + 1.0) * out).reshape(shape)


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
    # an integrand that overflows a double counts as divergent
    if lo == 0.0 and e <= -1.0 or hi == INF and (tilt > 0.0 or tilt == 0.0 and e >= -1.0) or tilt * hi > _LOG_MAX:
        return INF
    if tilt != 0.0:
        return c * float(power_law_integral(0, e, -tilt, lo, hi))
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

    The exponential tilt acts on the negative axis only; where the tilt
    weight overflows a double the result is +inf.  Endpoint openness
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
            tilt = exp_tilt * abs(y) if y < 0 else 0.0
            if tilt > _LOG_MAX:
                return INF
            total += m * abs(y) ** p * math.exp(tilt)

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
