import math

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
)
from levyhjmm.levy_analysis import (
    ExponentHandle,
    GSamples,
    check_condition,
    check_G_conditions,
    check_positivity_linear,
    classify,
    domain_sup,
    eval_J,
    eval_J_pieces,
    eval_J_prime,
    eval_J_second,
    mgf_consistency,
    rho_fit,
)

ATOM1 = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),)))
ATOM_HALF = LevyModel(nu=LevyMeasureSpec(atoms=((0.5, 1.0),)))
WIENER = LevyModel(q=1.0)
DRIFT = LevyModel(a=1.0)


class TestExponentValues:
    def test_pure_drift(self):
        assert eval_J(DRIFT, 1.0) == -1.0

    def test_atom_outside_compensation(self):
        assert eval_J(ATOM1, 1.0) == pytest.approx(math.exp(-1) - 1, abs=1e-14)

    def test_compensated_atom(self):
        assert eval_J(ATOM_HALF, 1.0) == pytest.approx(math.exp(-0.5) - 1 + 0.5, abs=1e-14)

    def test_prime_atom(self):
        assert eval_J_prime(ATOM1, 1.0) == pytest.approx(-math.exp(-1), abs=1e-14)

    def test_second_atom(self):
        assert eval_J_second(ATOM1, 1.0) == pytest.approx(math.exp(-1), abs=1e-14)

    def test_wiener_derivatives(self):
        for z in (0.0, 0.7, 3.0):
            assert eval_J_prime(WIENER, z) == z
            assert eval_J_second(WIENER, z) == 1.0

    def test_prime_compensated_atom(self):
        assert eval_J_prime(ATOM_HALF, 1.0) == pytest.approx(0.5 * (1 - math.exp(-0.5)), abs=1e-14)

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            eval_J(ATOM1, -0.5)
        with pytest.raises(ValueError):
            eval_J_prime(ATOM1, -0.5)


def _mixed_model():
    return LevyModel(
        a=0.3,
        q=0.4,
        nu=LevyMeasureSpec(
            atoms=((1.5, 0.2), (-0.25, 0.3), (0.5, 0.4)),
            density_parts=(
                Exponential(c=0.7, beta=2.0, support=(0.0, INF)),
                Uniform(c=0.5, support=(-0.8, -0.2)),
                PowerLaw(c=0.3, alpha=0.6, support=(0.0, 1.0)),
            ),
        ),
    )


class TestAgainstDirectQuadrature:
    """Independent oracle: integrate the defining formulas directly."""

    def _direct(self, model, z, f):
        total = 0.0
        for y, m in model.nu.atoms:
            total += m * f(y, z)
        for part in model.nu.density_parts:
            lo, hi = part.support
            if isinstance(part, PowerLaw):
                dens = lambda y: part.c * abs(y) ** (-1 - part.alpha)
            elif isinstance(part, Exponential):
                dens = lambda y: part.c * math.exp(-part.beta * abs(y))
            else:
                dens = lambda y: part.c
            hi_eff = min(hi, 80.0)
            lo_eff = max(lo, -80.0)
            total += quad(
                lambda y: f(y, z) * dens(y), lo_eff, hi_eff, epsabs=1e-12, epsrel=1e-12, limit=400
            )[0]
        return total

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.5])
    def test_J(self, z):
        model = _mixed_model()
        ref = -model.a * z + 0.5 * model.q * z**2 + self._direct(
            model, z, lambda y, z: math.exp(-z * y) - 1 + z * y * (abs(y) < 1)
        )
        assert eval_J(model, z) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.5])
    def test_J_prime(self, z):
        model = _mixed_model()
        ref = -model.a + model.q * z + self._direct(
            model, z, lambda y, z: y * ((abs(y) < 1) - math.exp(-z * y))
        )
        assert eval_J_prime(model, z) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.5])
    def test_J_second(self, z):
        model = _mixed_model()
        ref = model.q + self._direct(model, z, lambda y, z: y * y * math.exp(-z * y))
        assert eval_J_second(model, z) == pytest.approx(ref, abs=1e-8)

    def test_four_piece_decomposition(self):
        model = _mixed_model()
        for z in (0.2, 1.0, 2.0):
            pieces = eval_J_pieces(model, z)
            total = -model.a * z + 0.5 * model.q * z**2 + sum(pieces)
            assert eval_J(model, z) == pytest.approx(total, rel=1e-10, abs=1e-14)


class TestDerivativeConsistency:
    def test_finite_difference_cross_check(self):
        errs = {}
        for h in (1e-3, 1e-4):
            fd = (eval_J(ATOM1, 1.0 + h) - eval_J(ATOM1, 1.0 - h)) / (2 * h)
            errs[h] = abs(fd - eval_J_prime(ATOM1, 1.0))
        # central differences are O(h^2): Richardson ratio ~ 100 within factor 2
        ratio = errs[1e-3] / errs[1e-4]
        assert 50.0 <= ratio <= 200.0

    def test_prime_nondecreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model = LevyModel(
                a=rng.normal(),
                q=rng.uniform(0, 1),
                nu=LevyMeasureSpec(
                    atoms=tuple(
                        (rng.uniform(-0.9, 2.0) or 0.1, rng.uniform(0.1, 1.0))
                        for _ in range(rng.integers(1, 4))
                    )
                ),
            )
            z1, z2 = sorted(rng.uniform(0.0, 4.0, size=2))
            if z1 == z2:
                continue
            assert eval_J_prime(model, z1) <= eval_J_prime(model, z2) + 1e-12

    def test_second_derivative_nonnegative(self):
        model = _mixed_model()
        zs = np.linspace(0.0, 4.0, 17)
        handle = ExponentHandle(model)
        assert np.all(handle.J_second(zs) >= 0.0)

    def test_bounded_prime_under_b1(self):
        # subordinator with finite mean: J' bounded above by its z -> inf limit
        model = LevyModel(nu=LevyMeasureSpec(atoms=((0.5, 1.0), (2.0, 0.3))))
        assert check_condition(model, "B1") == "holds"
        limit = -model.a + moment_integral(model.nu, 1, (0.0, 1.0), open_lo=True, open_hi=True)
        zs = np.linspace(0.0, 50.0, 101)
        vals = ExponentHandle(model).J_prime(zs)
        assert np.all(np.isfinite(vals))
        assert np.max(vals) <= limit + 1e-12


class TestDomain:
    def test_negative_exponential_tail(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),))
        )
        assert domain_sup(model) == 2.0
        assert math.isfinite(eval_J(model, 1.0))
        assert eval_J(model, 2.5) == INF

    def test_negative_exponential_tail_derivatives(self):
        # past the domain every derivative diverges to +inf, never NaN
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),))
        )
        assert math.isfinite(eval_J_second(model, 1.0))
        for z in (2.5, 50.0):
            assert eval_J_prime(model, z) == INF
            assert eval_J_second(model, z) == INF

    @pytest.mark.parametrize("support", [(-2.0, -1.0), (-1.0, 0.0)])
    def test_negative_powerlaw_overflow_is_infinite(self, support):
        # e^{z s} leaves double range for z s > 709: +inf, not OverflowError
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=support),))
        )
        assert eval_J_prime(model, 800.0) == INF
        assert math.isfinite(eval_J_prime(model, 1.0))

    def test_uniform_second_derivative_near_zero(self):
        # 40-digit mpmath value of int_0^1 s^2 e^{-0.0011 s} ds
        model = LevyModel(nu=LevyMeasureSpec(density_parts=(Uniform(c=1.0, support=(0.0, 1.0)),)))
        assert eval_J_second(model, 0.0011) == pytest.approx(0.33305845429636982, rel=1e-14)

    def test_negative_powerlaw_tail(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(-INF, -1.0)),))
        )
        assert domain_sup(model) == 0.0
        assert eval_J(model, 0.0) == 0.0
        assert eval_J(model, 0.1) == INF


class TestConditions:
    def test_poisson_subordinator_global_safe(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),)))
        assert check_condition(model, "B1") == "holds"
        assert check_condition(model, "B4") == "holds"
        assert check_condition(model, "B3") == "fails"
        assert classify(model).regime == "GlobalSafe"

    def test_wiener_part_forces_explosive_growth(self):
        model = LevyModel(q=0.3, nu=LevyMeasureSpec(atoms=((1.0, 1.0),)))
        assert check_condition(model, "B3") == "holds"
        assert classify(model).regime == "ExplosionProne"

    def test_negative_jumps_force_explosive_growth(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((-0.25, 0.5),)))
        assert check_condition(model, "B3") == "holds"

    def test_small_jump_exponent_above_one(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),))
        )
        rho, resid = rho_fit(model.nu)
        assert rho == pytest.approx(1.5, abs=0.05)
        assert resid < 0.05
        assert check_condition(model, "B4") == "holds"
        assert classify(model).regime == "GlobalSafe"

    def test_small_jump_exponent_below_one(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(0.0, 1.0)),))
        )
        rho, resid = rho_fit(model.nu)
        assert rho == pytest.approx(0.5, abs=0.05)
        assert check_condition(model, "B3") == "holds"
        assert classify(model).regime == "ExplosionProne"

    def test_l_conditions_need_z0(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),))
        )
        with pytest.raises(ValueError):
            check_condition(model, "L1")
        assert check_condition(model, "L1", z0=1.0) == "holds"
        assert check_condition(model, "L1", z0=2.5) == "fails"

    def test_b1_implies_b0(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            atoms = tuple((rng.uniform(0.05, 3.0), rng.uniform(0.1, 1.0)) for _ in range(2))
            model = LevyModel(nu=LevyMeasureSpec(atoms=atoms))
            flags = classify(model).flags
            if flags["B1"] == "holds":
                assert flags["B0"] == "holds"

    def test_rho_one_undecidable(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.0, support=(0.0, 1.0)),))
        )
        assert check_condition(model, "B4") == "undecidable"
        assert classify(model).regime == "Indeterminate"

    def test_classify_exponent_table(self):
        zs = np.linspace(0.0, 3.0, 7)
        report = classify(ATOM1, z_grid=zs, lambda_bar_t_star=0.5)
        assert len(report.values) == 7
        for z, J, Jp, Jpp in report.values:
            assert J == pytest.approx(eval_J(ATOM1, z), abs=1e-14)
            assert Jp == pytest.approx(eval_J_prime(ATOM1, z), abs=1e-14)
            assert Jpp >= 0.0
        assert report.lambda_bar_t_star == 0.5
        assert report.domain_sup == math.inf


class TestPositivityLinear:
    def test_positive_support(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),)))
        assert check_positivity_linear(model, 2.0) is True

    def test_small_negative_atom_within_bound(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((-0.25, 1.0),)))
        assert check_positivity_linear(model, 2.0) is True

    def test_negative_atom_outside_bound(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((-0.75, 1.0),)))
        assert check_positivity_linear(model, 2.0) is False

    def test_bad_lambda_bar(self):
        with pytest.raises(ValueError):
            check_positivity_linear(ATOM1, 0.0)


def _sampled(f, xs, ys):
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return GSamples(xs=xs, ys=ys, g=f(X, Y))


class TestGConditions:
    XS = np.linspace(0.0, 3.0, 13)
    YS = np.linspace(0.0, 2.0, 11)

    def test_linear_g_holds(self):
        res = check_G_conditions(_sampled(lambda x, y: 0.5 * y, self.XS, self.YS), -1.0, "G1")
        assert res.holds and res.witness is None

    def test_constant_g_fails_at_zero(self):
        res = check_G_conditions(_sampled(lambda x, y: np.ones_like(y), self.XS, self.YS), -1.0, "G1")
        assert not res.holds
        assert res.witness[1] == 0.0 and res.witness[2] == "g(x,0)=0"

    def test_quadratic_g_fails_positivity(self):
        res = check_G_conditions(_sampled(lambda x, y: y**2, self.XS, self.YS), -2.0, "G1")
        assert not res.holds
        assert res.witness[2] == "y+g(x,y)u>=0"
        x, y, _ = res.witness
        assert y + y**2 * (-2.0) < 0

    def test_g2_reports_partial_bounds(self):
        res = check_G_conditions(_sampled(lambda x, y: 0.5 * y, self.XS, self.YS), -1.0, "G2")
        assert res.holds
        assert res.constants["sup_dg_dy"] == pytest.approx(0.5, abs=1e-9)

    def test_g3_sqrt_envelope(self):
        res = check_G_conditions(
            _sampled(lambda x, y: 0.3 * np.sqrt(y), self.XS, self.YS), -1.0, "G3"
        )
        assert res.holds
        assert res.constants["sqrt_envelope_c"] == pytest.approx(0.3, abs=1e-9)

    def test_malformed_grid(self):
        with pytest.raises(ValueError):
            GSamples(xs=self.XS, ys=self.YS, g=np.zeros((2, 2)))


class TestMgfConsistency:
    def test_pure_drift_exact(self):
        rows = mgf_consistency(DRIFT, [0.5, 1.0], t=1.0, n_paths=2000, seed=1)
        for row in rows:
            assert not row["skipped"]
            assert row["gap"] <= 1e-12

    def test_compound_poisson(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),)))
        (row,) = mgf_consistency(model, [1.0], t=1.0, n_paths=100_000, seed=42)
        assert row["gap"] < 3.0 * row["se"]

    def test_wiener(self):
        (row,) = mgf_consistency(WIENER, [1.0], t=1.0, n_paths=100_000, seed=43)
        assert row["t_J"] == pytest.approx(0.5)
        assert row["gap"] < 3.0 * row["se"]

    def test_infinite_activity_truncation(self):
        # small-jump truncation at 1/1000 leaves a bias of order
        # int_{y<=1e-3} y^2 nu(dy) ~ 2e-5, well inside the Monte Carlo band
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),))
        )
        (row,) = mgf_consistency(model, [1.0], t=1.0, n_paths=100_000, seed=44)
        assert row["gap"] < 3.0 * row["se"] + 1e-4

    def test_out_of_domain_skipped(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),))
        )
        rows = mgf_consistency(model, [3.0], t=1.0, n_paths=100, seed=1)
        assert rows[0]["skipped"]
