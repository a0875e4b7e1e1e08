import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from levyhjmm.levy_model import (
    INF,
    Exponential,
    LevyMeasureSpec,
    LevyModel,
    PowerLaw,
    Uniform,
    moment_integral,
    pow_exp_integral,
    small_jump_profile,
    support_lower_bound,
)
from levyhjmm.scenario import levy_model_from_dict


class TestMomentIntegral:
    def test_atom_in_region(self):
        nu = LevyMeasureSpec(atoms=((1.0, 0.5),))
        assert moment_integral(nu, 1, (1.0, INF)) == 0.5

    def test_powerlaw_tail_closed_form(self):
        # density y^-2.5 on [1, inf): int_1^inf y^-1.5 dy = 2
        nu = LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(1.0, INF)),))
        assert moment_integral(nu, 1, (1.0, INF)) == pytest.approx(2.0, abs=1e-12)

    def test_powerlaw_tail_divergence_is_symbolic(self):
        nu = LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(1.0, INF)),))
        assert moment_integral(nu, 2, (1.0, INF)) == INF

    def test_powerlaw_near_zero(self):
        # int_0^x y^0.5 dy = x^1.5 / 1.5
        nu = LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),))
        got = moment_integral(nu, 2, (0.0, 1.0), open_lo=True)
        assert got == pytest.approx(1.0 / 1.5, abs=1e-6)

    def test_empty_region_rejected(self):
        nu = LevyMeasureSpec(atoms=((1.0, 1.0),))
        with pytest.raises(ValueError):
            moment_integral(nu, 1, (2.0, 2.0))
        with pytest.raises(ValueError):
            moment_integral(nu, 1, (3.0, 1.0))

    def test_additive_over_disjoint_regions(self):
        nu = LevyMeasureSpec(
            atoms=((0.3, 1.0), (2.0, 0.5)),
            density_parts=(
                Exponential(c=0.7, beta=2.0, support=(0.0, INF)),
                PowerLaw(c=0.2, alpha=0.5, support=(0.0, 1.0)),
            ),
        )
        whole = moment_integral(nu, 1, (0.0, INF), open_lo=True)
        left = moment_integral(nu, 1, (0.0, 1.0), open_lo=True)
        right = moment_integral(nu, 1, (1.0, INF), open_lo=True)
        assert whole == pytest.approx(left + right, rel=1e-10)

    def test_linear_in_measure_components(self):
        p1 = Exponential(c=0.7, beta=2.0, support=(0.0, INF))
        p2 = Uniform(c=0.3, support=(0.5, 2.0))
        both = moment_integral(LevyMeasureSpec(density_parts=(p1, p2)), 2, (0.0, INF), open_lo=True)
        single = moment_integral(LevyMeasureSpec(density_parts=(p1,)), 2, (0.0, INF), open_lo=True)
        other = moment_integral(LevyMeasureSpec(density_parts=(p2,)), 2, (0.0, INF), open_lo=True)
        assert both == pytest.approx(single + other, rel=1e-12)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_exponential_closed_form_matches_quadrature(self, p):
        # dual route: closed form vs adaptive quadrature, 1e-8 relative
        beta, c, lo, hi = 1.7, 0.9, 0.2, 6.0
        nu = LevyMeasureSpec(density_parts=(Exponential(c=c, beta=beta, support=(lo, hi)),))
        got = moment_integral(nu, p, (0.0, INF), open_lo=True)
        ref = quad(lambda y: y**p * c * math.exp(-beta * y), lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
        assert got == pytest.approx(ref, rel=1e-8)

    def test_negative_axis_exponential_tilt(self):
        beta, c = 3.0, 1.1
        nu = LevyMeasureSpec(density_parts=(Exponential(c=c, beta=beta, support=(-INF, -1.0)),))
        z0 = 1.5
        got = moment_integral(nu, 2, (-INF, -1.0), exp_tilt=z0)
        ref = quad(lambda s: s**2 * c * math.exp((z0 - beta) * s), 1.0, 80.0, epsabs=1e-13)[0]
        assert got == pytest.approx(ref, rel=1e-8)
        # tilt at/above the decay rate diverges, decided symbolically
        assert moment_integral(nu, 2, (-INF, -1.0), exp_tilt=3.0) == INF
        assert moment_integral(nu, 2, (-INF, -1.0), exp_tilt=4.0) == INF

    @pytest.mark.parametrize("atoms", [(), ((-2.0, 1.0),)])
    def test_tilt_weight_overflow_is_infinite(self, atoms):
        # e^{400 * 2} is beyond double range: +inf, not OverflowError
        nu = LevyMeasureSpec(
            atoms=atoms, density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(-2.0, -1.0)),)
        )
        assert moment_integral(nu, 2, (-INF, -1.0), exp_tilt=400.0) == INF
        assert math.isfinite(moment_integral(nu, 2, (-INF, -1.0), exp_tilt=1.0))


class TestPowExpIntegral:
    """int_a^b s^p e^{-kappa s} ds against references that share none of its algebra."""

    KAPPAS = [-5.0, -1.0, -0.3, 0.0, 1e-7, 1e-5, 1e-3, 1.0, 2.5, 10.0, 30.0]

    @staticmethod
    def _upper_gamma(p, kappa, a):
        # Gamma(p+1, kappa a) / kappa^(p+1) = p! e^{-kappa a} sum_j (kappa a)^j / j! / kappa^(p+1)
        x = kappa * a
        series = sum(x**j / math.factorial(j) for j in range(p + 1))
        return math.factorial(p) * math.exp(-x) * series / kappa ** (p + 1)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 1e-3), (0.2, 6.0), (0.5, 1.0), (1.0, 1.0001)])
    def test_bounded_matches_quadrature(self, p, a, b):
        got = pow_exp_integral(p, np.array(self.KAPPAS), a, b)
        for kappa, val in zip(self.KAPPAS, got):
            ref = quad(lambda s: s**p * math.exp(-kappa * s), a, b, epsabs=0.0, epsrel=1e-13)[0]
            assert val == pytest.approx(ref, rel=1e-12), (p, kappa, a, b)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("a", [0.0, 0.2, 1.0, 2.5])
    def test_unbounded_closed_form_and_divergence(self, p, a):
        got = pow_exp_integral(p, np.array(self.KAPPAS), a, INF)
        for kappa, val in zip(self.KAPPAS, got):
            if kappa <= 0.0:
                assert val == INF
            else:
                ref = math.factorial(p) / kappa ** (p + 1) if a == 0.0 else self._upper_gamma(p, kappa, a)
                assert val == pytest.approx(ref, rel=1e-12), (p, kappa, a)

    def test_scalar_kappa(self):
        assert float(pow_exp_integral(1, 0.0, 1.0, 3.0)) == pytest.approx(4.0, rel=1e-15)


class TestPinnedValues:
    """40-digit mpmath values where cancelling closed forms lost digits."""

    def test_small_jump_profile_weak_exponential(self):
        nu = LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=2e-4, support=(0.0, 1.0)),))
        assert small_jump_profile(nu, 0.5) == pytest.approx(0.04166354179166319, rel=1e-14)

    def test_tilted_cubic_moment(self):
        nu = LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=1e-9, support=(-1.0, -0.5)),))
        got = moment_integral(nu, 3, (-1.0, -0.5), exp_tilt=3e-4)
        assert got == pytest.approx(0.23443313218965115, rel=1e-14)

    def test_tilted_powerlaw_moment(self):
        # int_1^2 s^(1/2) e^{3 s} ds, summed as sum_k 3^k / k! int_1^2 s^(k+1/2) ds
        nu = LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(-2.0, -1.0)),))
        got = moment_integral(nu, 2, (-INF, 0.0), exp_tilt=3.0)
        assert got == pytest.approx(167.10426320310656081, rel=1e-12)

    @pytest.mark.parametrize(
        "support, want",
        [
            # mpmath gammainc(3/2, 1, 2) and gammainc(3/2, 1, inf): a negative
            # tilt damps the tail, so the unbounded one converges
            ((-2.0, -1.0), 0.27556568181079261653),
            ((-INF, -1.0), 0.50728223381177330985),
        ],
    )
    def test_negative_tilt_powerlaw_moment(self, support, want):
        nu = LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=support),))
        got = moment_integral(nu, 2, (-INF, 0.0), exp_tilt=-1.0)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestSupportLowerBound:
    def test_single_positive_atom(self):
        assert support_lower_bound(LevyMeasureSpec(atoms=((1.0, 1.0),))) == 1.0

    def test_mixed_atoms(self):
        nu = LevyMeasureSpec(atoms=((-0.25, 1.0), (2.0, 1.0)))
        assert support_lower_bound(nu) == -0.25

    def test_density_plus_atom(self):
        nu = LevyMeasureSpec(
            atoms=((-0.5, 1.0),),
            density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),),
        )
        assert support_lower_bound(nu) == -0.5

    def test_zero_measure(self):
        assert support_lower_bound(LevyMeasureSpec()) == INF


class TestSmallJumpProfile:
    def test_powerlaw_profile(self):
        nu = LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),))
        assert small_jump_profile(nu, 0.25) == pytest.approx(0.25**1.5 / 1.5, abs=1e-9)

    def test_atom_outside_window(self):
        nu = LevyMeasureSpec(atoms=((0.5, 1.0),))
        assert small_jump_profile(nu, 0.25) == 0.0

    def test_atom_inside_window(self):
        nu = LevyMeasureSpec(atoms=((0.5, 1.0),))
        assert small_jump_profile(nu, 0.75) == 0.25

    def test_nondecreasing_and_bounded(self):
        nu = LevyMeasureSpec(
            atoms=((0.3, 0.4),),
            density_parts=(PowerLaw(c=1.0, alpha=1.2, support=(0.0, 1.0)),),
        )
        xs = np.linspace(0.01, 1.0, 25)
        vals = [small_jump_profile(nu, x) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        top = moment_integral(nu, 2, (0.0, 1.0), open_lo=True)
        assert all(v <= top + 1e-12 for v in vals)


class TestConstructorValidation:
    def test_powerlaw_alpha_too_large_near_zero(self):
        with pytest.raises(ValueError):
            PowerLaw(c=1.0, alpha=2.0, support=(0.0, 1.0))

    def test_powerlaw_heavy_tail_rejected(self):
        with pytest.raises(ValueError):
            PowerLaw(c=1.0, alpha=0.0, support=(1.0, INF))

    def test_powerlaw_away_from_zero_allows_large_alpha(self):
        PowerLaw(c=1.0, alpha=3.0, support=(1.0, INF))

    def test_uniform_unbounded_rejected(self):
        with pytest.raises(ValueError):
            Uniform(c=1.0, support=(1.0, INF))

    def test_straddling_support_rejected(self):
        with pytest.raises(ValueError):
            Uniform(c=1.0, support=(-1.0, 1.0))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            LevyMeasureSpec(atoms=((1.0, 0.0),))
        with pytest.raises(ValueError):
            LevyMeasureSpec(atoms=((0.0, 1.0),))

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            LevyModel(q=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: LevyModel(a=v),
            lambda v: LevyModel(q=v),
            lambda v: PowerLaw(c=v, alpha=0.5, support=(0.0, 1.0)),
            lambda v: PowerLaw(c=1.0, alpha=v, support=(0.5, 1.0)),
            lambda v: Exponential(c=v, beta=1.0, support=(0.0, INF)),
            lambda v: Exponential(c=1.0, beta=v, support=(0.0, INF)),
            lambda v: Uniform(c=v, support=(0.0, 1.0)),
        ],
        ids=["a", "q", "power_law.c", "power_law.alpha", "exponential.c", "exponential.beta", "uniform.c"],
    )
    def test_non_finite_parameter_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build(bad)


class TestJsonSchema:
    def test_round_trip(self):
        model = LevyModel(
            a=0.5,
            q=0.2,
            nu=LevyMeasureSpec(
                atoms=((1.0, 0.5), (-0.25, 0.1)),
                density_parts=(
                    PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),
                    Exponential(c=0.4, beta=2.0, support=(0.0, INF)),
                    Uniform(c=0.3, support=(-0.5, -0.1)),
                ),
            ),
        )
        d = {
            "a": 0.5,
            "q": 0.2,
            "nu": {
                "atoms": [[1.0, 0.5], [-0.25, 0.1]],
                "density_parts": [
                    {"kind": "power_law", "c": 1.0, "alpha": 0.5, "support": [0.0, 1.0]},
                    {"kind": "exponential", "c": 0.4, "beta": 2.0, "support": [0.0, None]},
                    {"kind": "uniform", "c": 0.3, "support": [-0.5, -0.1]},
                ],
            },
        }
        assert levy_model_from_dict(d) == model

    def test_infinite_endpoint_spellings(self):
        d = {
            "a": 0.0,
            "q": 0.0,
            "nu": {
                "atoms": [],
                "density_parts": [
                    {"kind": "exponential", "c": 1.0, "beta": 2.0, "support": [0.0, None]},
                    {"kind": "exponential", "c": 1.0, "beta": 2.0, "support": ["-inf", -1.0]},
                ],
            },
        }
        model = levy_model_from_dict(d)
        assert model.nu.density_parts[0].support == (0.0, INF)
        assert model.nu.density_parts[1].support == (-INF, -1.0)


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_interpreter(script: str, *args: str) -> list[str]:
    """The words script prints, run with args in a new interpreter on the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_out_scipy_integrate(tmp_path):
    """Every integral is closed-form or fixed-node, so the package needs no
    adaptive quadrature; importing the CLI (every module) in a fresh
    interpreter must not load scipy.integrate.  scipy.special is loaded on
    first use, so a solve of an atom model loads no scipy at all, and the
    first power-law J' loads it."""
    script = "import sys, levyhjmm.cli; print('scipy.integrate' in sys.modules)"
    assert _fresh_interpreter(script) == ["False"]

    scenario = {
        "levy_model": {"a": 0.0, "q": 0.0, "nu": {"atoms": [[1.0, 0.5]], "density_parts": []}},
        "volatility": {"kind": "constant", "value": 0.3},
        "r0": {"kind": "exp_decay", "beta": 1.0},
        "grid": {"t_star": 1.0, "dt": 0.0625, "x_max": 1.0},
        "seed": 7,
    }
    (tmp_path / "ok.json").write_text(json.dumps(scenario))
    script = (
        "import math, sys\n"
        "import numpy as np\n"
        "from levyhjmm import cli\n"
        "from levyhjmm.levy_analysis import ExponentHandle\n"
        "from levyhjmm.levy_model import LevyMeasureSpec, LevyModel, PowerLaw\n"
        "print(cli.main(['solve', sys.argv[1], '--out-dir', sys.argv[2]]), 'scipy' in sys.modules)\n"
        "part = PowerLaw(c=1.0, alpha=1.5, support=(0.0, 1.0))\n"
        "jp = ExponentHandle(LevyModel(nu=LevyMeasureSpec(density_parts=(part,)))).J_prime(np.array([0.5]))\n"
        "print('scipy' in sys.modules, math.isfinite(jp[0]))\n"
    )
    assert _fresh_interpreter(script, str(tmp_path / "ok.json"), str(tmp_path / "out")) == ["0", "False", "True", "True"]
