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
    ExponentDomainError,
    ExponentHandle,
    check_condition,
    classify,
    domain_sup,
    eval_J,
    eval_J_prime,
    eval_J_second,
    mgf_consistency,
    rho_fit,
    _atom_sum,
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
    def test_negative_argument_is_a_domain_error(self):
        # still a ValueError, but one the solver and the CLI handle by name
        for fn, what in ((eval_J, "J"), (eval_J_prime, "J'"), (eval_J_second, "J''")):
            with pytest.raises(ExponentDomainError) as excinfo:
                fn(ATOM1, -0.25)
            assert (excinfo.value.z, excinfo.value.what) == (-0.25, what)
            assert isinstance(excinfo.value, ValueError)
        with pytest.raises(ExponentDomainError) as excinfo:
            ExponentHandle(ATOM1).J_prime(np.array([0.0, 1.0, -1e-3, -2.0]))
        assert excinfo.value.z == -1e-3
        assert str(excinfo.value) == "J' is only evaluated for z >= 0, got z=-0.001"

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

    @pytest.mark.parametrize("z", [1e200, 1e300])
    def test_large_z_without_gaussian_part(self, z):
        # q z^2 / 2 and zeta^2 overflow here, yet J is near 2z
        j = eval_J(_power_law_model(0.5, (0.0, 1.0)), z)
        assert math.isfinite(j) and j > 0.0

    def test_negative_powerlaw_tail(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(-INF, -1.0)),))
        )
        assert domain_sup(model) == 0.0
        assert eval_J(model, 0.0) == 0.0
        assert eval_J(model, 0.1) == INF


def _power_law_model(alpha, support):
    return LevyModel(nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=alpha, support=support),)))


class TestPowerLawKernel:
    """The fixed-node power-law kernel against closed forms and J' monotonicity."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("support", [(0.0, 1.0), (0.5, 3.0), (1.0, INF), (-1.0, 0.0), (-2.0, -1.0)])
    def test_prime_nondecreasing_across_scales(self, alpha, support):
        # J'' >= 0, so J' may only move down by rounding, from z = 0 up to
        # 1e4 (the unbounded tail once fell from -1.996 to -1.989 and back),
        # through the smallest subnormal and normal z
        zs = np.concatenate([[0.0, 5e-324, 1e-308], np.logspace(-9, 4, 131)])
        jp = ExponentHandle(_power_law_model(alpha, support)).J_prime(zs)
        prev, nxt = jp[:-1], jp[1:]
        with np.errstate(invalid="ignore"):  # inf - inf once J' has overflowed
            ok = (nxt >= prev) | (nxt >= prev - 1e-12 * np.maximum(1.0, np.abs(prev)))
        assert ok.all(), list(zip(zs[1:][~ok], prev[~ok], nxt[~ok]))

    # 40-digit mpmath values from closed forms, not numerical quadrature:
    # upper incomplete gamma functions (mp.gammainc) for the (1, inf) tails,
    # e.g. J'(z) = -sqrt(z) Gamma(-1/2, z) at alpha = 1.5, and for the growing
    # density at alpha = -10, and the term-wise power series
    # sum_k (-z)^k / k! int s^(k+d-1-alpha) ds on the other bounded pieces
    @pytest.mark.parametrize(
        "alpha, support, fn, z, want",
        [
            (1.5, (1.0, INF), eval_J_prime, 1e-5, -1.9888100175338708755),
            (1.5, (1.0, INF), eval_J_prime, 1e-9, -1.9998879021756720411),
            (0.25, (1.0, INF), eval_J_prime, 5e-324, -3.6978160473555566354e242),
            (1.0, (1.0, INF), eval_J_prime, 5e-324, -743.86285625647972945),
            (0.25, (1.0, INF), eval_J_prime, 1e-9, -6891023.1904132239736),
            (1.0, (1.0, INF), eval_J, 1e-9, -2.114605017254487955e-8),
            (1.9, (1.0, INF), eval_J_second, 1e-9, 65.568477764103124013),
            (1.9, (0.0, 1.0), eval_J, 1.0, 4.8659415043842236584),
            (1.9, (-1.0, 0.0), eval_J, 1.0, 5.1744267421994100592),
            (0.5, (-1.0, 0.0), eval_J_prime, 2.0, 2.7289077856104185692),
            (0.5, (0.0, 1.0), eval_J_prime, 1e4, 1.9822754614909448397),
            (1.0, (0.5, 3.0), eval_J_prime, 7.0, 0.68617704073692892917),
            (1.9, (-2.0, -1.0), eval_J_second, 300.0, 6.7498467805048386468e257),
            (-10.0, (2.0, 40.0), eval_J_second, 3.0, 73.601383991428380244),
        ],
    )
    def test_pinned_values(self, alpha, support, fn, z, want):
        assert fn(_power_law_model(alpha, support), z) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_values_at_zero_are_the_symbolic_moments(self):
        model = _power_law_model(0.5, (0.5, 3.0))
        assert eval_J(model, 0.0) == 0.0
        assert eval_J_prime(model, 0.0) == -moment_integral(model.nu, 1, (1.0, INF))
        assert eval_J_second(model, 0.0) == moment_integral(model.nu, 2, (0.0, INF))
        # divergent first moment of the (1, inf) tail at alpha <= 1
        assert eval_J_prime(_power_law_model(1.0, (1.0, INF)), 0.0) == -INF


# J, J', J'' at z = 0, 1e-9, 0.3, 40 for each family, both signs, inside and
# outside the unit ball (parts with c = 0.7, a = q = 0), and for two atoms with
# a = 0.3, q = 0.4: exact doubles, compared with ==, so that any change in how
# a term is rounded or summed shows
_PINNED_MODELS = {
    "powerlaw+in": PowerLaw(c=0.7, alpha=1.5, support=(0.0, 1.0)),
    "powerlaw+out": PowerLaw(c=0.7, alpha=0.5, support=(1.0, INF)),
    "powerlaw-in": PowerLaw(c=0.7, alpha=1.5, support=(-1.0, 0.0)),
    "powerlaw-out": PowerLaw(c=0.7, alpha=0.5, support=(-3.0, -1.0)),
    "exponential+in": Exponential(c=0.7, beta=2.0, support=(0.0, 1.0)),
    "exponential+out": Exponential(c=0.7, beta=2.0, support=(1.0, INF)),
    "exponential-in": Exponential(c=0.7, beta=2.0, support=(-1.0, 0.0)),
    "exponential-out": Exponential(c=0.7, beta=2.0, support=(-3.0, -1.0)),
    "uniform+in": Uniform(c=0.7, support=(0.2, 0.9)),
    "uniform+out": Uniform(c=0.7, support=(1.0, 3.0)),
    "uniform-in": Uniform(c=0.7, support=(-0.9, -0.2)),
    "uniform-out": Uniform(c=0.7, support=(-3.0, -1.0)),
}
_PINNED_VALUES = {
    "powerlaw+in": (
        (0.0, 0.0, 1.4),
        (6.999999999222222e-19, 1.3999999997666663e-09, 1.3999999995333332),
        (0.06099060214758136, 0.40019552566191485, 1.271750027845847),
        (362.9726774910448, 14.293975405914162, 0.19617469257392584),
    ),
    "powerlaw+out": (
        (0.0, -INF, INF),
        (-7.84684770295712e-05, -39233.53851478596, 19617469257392.277),
        (-0.9589426131270737, -0.9934802034691316, 3.38437618737256),
        (-1.4000000000000001, -7.344971533128499e-20, 7.526432090924389e-20),
    ),
    "powerlaw-in": (
        (0.0, 0.0, 1.4),
        (7.000000000777778e-19, 1.4000000002333333e-09, 1.4000000004666666),
        (0.06519871320316759, 0.44233078369317874, 1.5535551904993088),
        (4402174912123962.0, 4284323728852500.5, 4172796216258508.5),
    ),
    "powerlaw-out": (
        (0.0, 1.024871130596428, 1.9582044639297616),
        (1.0248711315755304e-09, 1.0248711325546325, 1.9582044680145294),
        (0.41755057609048585, 1.8458856571252562, 3.714220982063306),
        (4.448402733458732e+49, 1.323256570538745e+50, 3.936547494234031e+50),
    ),
    "exponential+in": (
        (0.0, 0.0, 0.05658162716796389),
        (-6.454008525818553e-18, 5.658155055598968e-11, 0.056581627130458806),
        (0.0023863069769772772, 0.015404161366879684, 0.0464819301138411),
        (3.8719930678306116, 0.10355215090395287, 1.8896447467876026e-05),
    ),
    "exponential+out": (
        (0.0, -0.07105102369922166, 0.1184183728320361),
        (-7.10510317247781e-11, -0.07105102358080327, 0.11841837260704118),
        (-0.016853787999787213, -0.043780326843039064, 0.06858341056175685),
        (-0.04736734913281444, -9.810692752564407e-21, 1.0049712952516141e-20),
    ),
    "exponential-in": (
        (0.0, 0.0, 0.05658162716796389),
        (6.454008525818553e-18, 5.6581628271601396e-11, 0.056581627205469005),
        (0.0027247345738078506, 0.018794324578229188, 0.06918125583594155),
        (586819795525775.2, 571377169327732.8, 556747312929583.25),
    ),
    "exponential-out": (
        (0.0, 0.06801455228280537, 0.10757383205912079),
        (6.801455648686172e-11, 0.06801455239037921, 0.10757383224442468),
        (0.02621241662375603, 0.11046323620239334, 0.18258555051703082),
        (5.9550495625247395e+47, 1.7708436856981463e+48, 5.266342307024995e+48),
    ),
    "uniform+in": (
        (0.0, 0.0, 0.1682333333333333),
        (-2.2298530010173165e-17, 1.682333550245829e-10, 0.1682333332187958),
        (0.007081758243922937, 0.04566762828833262, 0.13732659024899294),
        (10.290005870595985, 0.2694986791159026, 3.0086804439658963e-07),
    ),
    "uniform+out": (
        (0.0, -2.8, 6.0666666666666655),
        (-2.799999920810592e-09, -2.799999993933333, 6.066666652666667),
        (-0.6200866911373895, -1.4822992596151825, 3.0726080578059776),
        (-1.4, -7.620485445429288e-20, 7.815644219031744e-20),
    ),
    "uniform-in": (
        (0.0, 0.0, 0.1682333333333333),
        (2.2298530010173165e-17, 1.6823339388238878e-10, 0.1682333334478708),
        (0.008115109771738075, 0.056017925579524785, 0.2066085636781055),
        (75446552074452.47, 66015733065192.016, 57810920527096.164),
    ),
    "uniform-out": (
        (0.0, 2.8, 6.0666666666666655),
        (2.800000231673039e-09, 2.800000006066667, 6.066666680666667),
        (1.1894033750222086, 5.436206643680612, 12.260617158747861),
        (2.282316537188856e+50, 6.789891698136847e+50, 2.020135424979286e+51),
    ),
    "atoms": (
        (0.0, 5.551115123125783e-17, 1.1),
        (5.500000924059625e-19, 1.1000000355032569e-09, 1.1000000005500001),
        (0.05237041352309156, 0.3601396674345218, 1.3209174775768404),
        (2.2840147796313684e+25, 3.4260221694470532e+25, 5.139033254170579e+25),
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_VALUES))
def test_exact_values(name):
    if name == "atoms":
        model = LevyModel(a=0.3, q=0.4, nu=LevyMeasureSpec(atoms=((0.5, 1.0), (-1.5, 0.2))))
    else:
        model = LevyModel(nu=LevyMeasureSpec(density_parts=(_PINNED_MODELS[name],)))
    got = [tuple(fn(model, z) for fn in (eval_J, eval_J_prime, eval_J_second)) for z in (0.0, 1e-9, 0.3, 40.0)]
    assert got == list(_PINNED_VALUES[name])


@pytest.mark.parametrize("d", [0, 1, 2])
def test_atom_sum_matches_plain_expressions(d):
    """_atom_sum forms each atom's term in a reused buffer; the plain
    expressions below are its reference, bit for bit."""
    atoms = ((1.0, 0.5), (-0.2, 0.3), (0.5, 2.0), (-1.5, 0.1), (3.0, 0.7))
    zs = np.concatenate(([0.0, 5e-324, 1e-12, 1e-9], np.geomspace(1e-6, 1e4, 301)))
    want = np.zeros_like(zs)
    with np.errstate(over="ignore"):  # exp(-z y) overflows at large z for y < 0
        for y, m in atoms:
            comp = 1.0 if abs(y) < 1.0 else 0.0
            if d == 0:
                want = want + m * (np.expm1(-zs * y) + zs * y * comp)
            elif d == 1:
                want = want + m * y * (comp - np.exp(-zs * y))
            else:
                want = want + m * y * y * np.exp(-zs * y)
    assert np.isinf(want[-1])
    got = _atom_sum(atoms, zs, d)
    assert got.tobytes() == want.tobytes()
    assert _atom_sum((), zs, d).tobytes() == np.zeros_like(zs).tobytes()


@pytest.mark.parametrize(
    "part", [PowerLaw(c=0.7, alpha=1.5, support=(0.0, 1.0)), PowerLaw(c=0.7, alpha=1.5, support=(1.0, INF))]
)
def test_power_law_values_do_not_depend_on_the_batch(monkeypatch, part):
    from levyhjmm import levy_model

    zs = np.linspace(0.0, 5.0, 4001)[1:]
    handle = ExponentHandle(LevyModel(nu=LevyMeasureSpec(density_parts=(part,))))
    panel_rows, real = [], levy_model._compensated_exp

    def counted(m, x):
        panel_rows.append(len(x))
        return real(m, x)

    monkeypatch.setattr(levy_model, "_compensated_exp", counted)
    whole = [handle.J(zs), handle.J_prime(zs)]
    if part.support[1] == INF:
        # no Gauss-Jacobi panel on (1, inf): every row is a panel, and they span more than one block
        assert sum(panel_rows) > 2 * levy_model._PANEL_BLOCK
    monkeypatch.undo()
    for fn, values in zip((handle.J, handle.J_prime), whole):
        assert values.tolist() == [fn(np.array([z]))[0] for z in zs]


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

    @pytest.mark.parametrize("atoms", [(), ((-2.0, 1.0),)])
    def test_l_conditions_bounded_negative_support_large_z0(self, atoms):
        # e^{z0 |y|} overflows a double at z0 = 400, |y| = 2, but on a bounded
        # support it is bounded, so the untilted moment decides
        model = LevyModel(
            nu=LevyMeasureSpec(
                atoms=atoms, density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(-2.0, -1.0)),)
            )
        )
        assert check_condition(model, "L1", z0=400.0) == "holds"
        assert check_condition(model, "L2", z0=400.0) == "holds"

    @pytest.mark.parametrize(
        "bounded",
        [
            {"atoms": ((-2.0, 1.0),)},
            {"density_parts": (PowerLaw(c=1.0, alpha=0.5, support=(-2.0, -1.0)),)},
        ],
    )
    def test_l_conditions_bounded_piece_with_light_unbounded_tail(self, bounded):
        # the bounded piece's tilt weight e^{800} overflows, but the tilted
        # moment is finite when the tail's e^{-beta |y|} beats e^{400 |y|}
        def with_tail(beta):
            tail = Exponential(c=1.0, beta=beta, support=(-INF, -3.0))
            parts = bounded.get("density_parts", ()) + (tail,)
            return LevyModel(nu=LevyMeasureSpec(atoms=bounded.get("atoms", ()), density_parts=parts))

        assert check_condition(with_tail(1000.0), "L1", z0=400.0) == "holds"
        assert check_condition(with_tail(1000.0), "L2", z0=400.0) == "holds"
        assert check_condition(with_tail(300.0), "L1", z0=400.0) == "fails"

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
        report = classify(ATOM1)
        assert report.domain_sup == math.inf


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

    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_gaussian_variance_convention(self, q):
        # J carries q z^2 / 2, so the paths must draw N(0, q t)
        (row,) = mgf_consistency(LevyModel(q=q), [1.0], t=1.0, n_paths=100_000, seed=45)
        assert row["t_J"] == pytest.approx(q / 2.0)
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
