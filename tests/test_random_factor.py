import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyhjmm.function_space import WeightedCurve
from levyhjmm.grids import SolveGrid
from levyhjmm.levy_model import INF, Exponential, LevyMeasureSpec, LevyModel
from levyhjmm.path_sim import LevyPathRecord, _grid_values, simulate
from levyhjmm.random_factor import (
    ConstantVol,
    ExpAffineVol,
    TabulatedVol,
    compute_a,
)

GRID = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)


def r0_exp(grid=GRID, gamma=1.0):
    return WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=gamma)


def manual_path(jump_times, jump_sizes, grid=GRID, model=None):
    model = model or LevyModel()
    t = grid.t
    vals = np.zeros(grid.n_t + 1)
    for s, y in zip(jump_times, jump_sizes):
        vals += np.where(t >= s, y, 0.0)
    return LevyPathRecord(
        t_star=grid.t_star,
        dt=grid.dt,
        grid_values=vals,
        jump_times=np.asarray(jump_times, dtype=float),
        jump_sizes=np.asarray(jump_sizes, dtype=float),
        brownian_increments=np.zeros(grid.n_t),
        m_n=0.0,
        model=model,
        n_threshold=1000,
        seed=0,
    )


def triangle_err(grid, field, expect):
    worst = 0.0
    for i in range(grid.n_t + 1):
        w = grid.row_width(i)
        ref = expect(grid.t[i], grid.x_wide[: w + 1])
        worst = max(worst, float(np.max(np.abs(field[i, : w + 1] - ref))))
    return worst


class TestVolatilitySpecs:
    def test_constant_bounds(self):
        v = ConstantVol(0.5)
        assert v.lambda_bar == 0.5

    def test_exp_affine_bounds(self):
        v = ExpAffineVol(c0=1.0, c1=1.0, beta=2.0)
        assert v.lambda_bar == 2.0
        np.testing.assert_allclose(v.lam(np.array([0.0])), [2.0])
        np.testing.assert_allclose(v.lam_prime(np.array([0.0])), [-2.0])

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ConstantVol(0.0)
        with pytest.raises(ValueError):
            ExpAffineVol(c0=0.5, c1=-0.5, beta=1.0)
        with pytest.raises(ValueError):
            TabulatedVol(dx=0.1, values=np.array([1.0, -0.5, 1.0]))

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: ConstantVol(v), "lambda"),
            (lambda v: ExpAffineVol(c0=v, c1=0.1, beta=1.0), "c0"),
            (lambda v: ExpAffineVol(c0=0.5, c1=v, beta=1.0), "c1"),
            (lambda v: ExpAffineVol(c0=0.5, c1=0.1, beta=v), "beta"),
            (lambda v: TabulatedVol(dx=v, values=np.ones(3)), "finite dx"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=name):
            make(value)


def I1_of(path, vol, grid=GRID):
    return compute_a(path, vol, r0_exp(grid), grid).I1


def I2_of(path, vol, grid=GRID):
    f = compute_a(path, vol, r0_exp(grid), grid)
    return f.I2, f.positivity_ok


class TestI1:
    def test_constant_vol_pure_drift(self):
        path = simulate(LevyModel(a=1.0), GRID, 0)
        I1 = I1_of(path, ConstantVol(2.0))
        assert triangle_err(GRID, I1, lambda t, xs: 2.0 * t * np.ones_like(xs)) < 1e-14

    def test_varying_vol_against_fine_quadrature(self):
        # pure drift L(s)=s: I1(t,x) = int_0^t lambda(t-s+x) ds, independent oracle
        dt = 1.0 / 512
        grid = SolveGrid(t_star=0.5, dt=dt, x_max=0.5)
        vol = ExpAffineVol(c0=1.0, c1=1.0, beta=1.0)
        path = simulate(LevyModel(a=1.0), grid, 0)
        I1 = I1_of(path, vol, grid)
        for (ti, xj) in [(8, 3), (32, 0), (64, 20)]:
            t, x = grid.t[ti], grid.x_wide[xj]
            ref = quad(lambda s: 1.0 + math.exp(-(t - s + x)), 0.0, t, epsabs=1e-12)[0]
            assert I1[ti, xj] == pytest.approx(ref, abs=1e-6)

    def test_single_jump_constant_vol(self):
        path = manual_path([0.5], [1.0])
        I1 = I1_of(path, ConstantVol(2.0))
        assert triangle_err(GRID, I1, lambda t, xs: np.where(t >= 0.5, 2.0, 0.0) * np.ones_like(xs)) == 0.0


class TestI2:
    def test_no_jumps(self):
        path = simulate(LevyModel(a=1.0), GRID, 0)
        I2, ok = I2_of(path, ConstantVol(1.0))
        assert ok
        assert triangle_err(GRID, I2, lambda t, xs: np.ones_like(xs)) == 0.0

    def test_single_jump_factor(self):
        path = manual_path([0.5], [1.0])
        I2, _ = I2_of(path, ConstantVol(1.0))
        expect = lambda t, xs: np.where(t >= 0.5, 2.0 * math.exp(-1.0), 1.0) * np.ones_like(xs)
        assert triangle_err(GRID, I2, expect) < 1e-15

    def test_two_jumps_multiplicative(self):
        both = I2_of(manual_path([0.3, 0.6], [1.0, 0.5]), ConstantVol(1.0))[0]
        first = I2_of(manual_path([0.3], [1.0]), ConstantVol(1.0))[0]
        second = I2_of(manual_path([0.6], [0.5]), ConstantVol(1.0))[0]
        np.testing.assert_allclose(both, first * second, rtol=1e-14)

    def test_jump_row_is_that_of_grid_values(self):
        # a jump enters I2, and so a(t, x), at the first row where the
        # simulator's L(t) has it: the first node at or after the jump
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        times, sizes = np.array([np.nextafter(0.5, 1.0)]), np.array([0.5])
        L = _grid_values(LevyModel(), grid.dt, 0.0, times, sizes, np.array([1]), np.zeros((1, grid.n_t)))[0]
        path = manual_path(times, sizes, grid=grid)
        path = dataclasses.replace(path, grid_values=L)
        I2 = compute_a(path, ConstantVol(0.3), r0_exp(grid), grid).I2
        first_L = int(np.argmax(L != 0.0))
        first_I2 = int(np.argmax(np.any((I2 != 1.0) & grid.valid_mask(), axis=-1)))
        assert first_I2 == first_L == 5

    def test_positivity_flag_lowered(self):
        path = manual_path([0.5], [-1.5])  # 1 + lambda*y = -0.5 < 0
        I2, ok = I2_of(path, ConstantVol(1.0))
        assert not ok
        assert np.isfinite(I2[GRID.n_t, 0])


class TestRandomFactor:
    def test_zero_noise_reduces_to_shifted_curve(self):
        path = simulate(LevyModel(), GRID, 1)
        f = compute_a(path, ConstantVol(0.5), r0_exp(), GRID)
        r0v = r0_exp().values
        worst = max(
            float(np.max(np.abs(f.a[i, : GRID.row_width(i) + 1] - r0v[i : i + GRID.row_width(i) + 1])))
            for i in range(GRID.n_t + 1)
        )
        assert worst == 0.0

    def test_pure_drift_closed_form(self):
        path = simulate(LevyModel(a=1.0), GRID, 1)
        f = compute_a(path, ConstantVol(0.5), r0_exp(), GRID)
        expect = lambda t, xs: np.exp(-(t + xs)) * math.exp(0.5 * t)
        assert triangle_err(GRID, f.a, expect) < 1e-13

    def test_exponential_martingale(self):
        # Wiener q=1, constant lambda: b is a unit-mean exponential martingale
        vals = []
        for seed in range(10_000):
            grid = SolveGrid(t_star=0.5, dt=1.0 / 8, x_max=0.5)
            path = simulate(LevyModel(q=1.0), grid, seed)
            f = compute_a(path, ConstantVol(1.0), r0_exp(grid), grid)
            vals.append(f.b[grid.n_t, 0])
        mean, se = np.mean(vals), np.std(vals) / math.sqrt(len(vals))
        assert abs(mean - 1.0) < 3 * se

    def test_initial_slice_is_r0(self):
        path = simulate(LevyModel(q=1.0, a=0.2), GRID, 3)
        f = compute_a(path, ConstantVol(1.0), r0_exp(), GRID)
        np.testing.assert_array_equal(f.a[0, :], r0_exp().values[: GRID.n_w + 1])

    def test_positivity_under_support_bound(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((-0.25, 2.0), (1.0, 1.0))))
        path = simulate(model, GRID, 8)
        f = compute_a(path, ConstantVol(2.0), r0_exp(), GRID)
        # supp nu >= -1/lambda_bar = -0.5, so every jump factor stays positive
        assert f.positivity_ok
        assert np.nanmin(np.where(GRID.valid_mask(), f.a, np.nan)) >= 0.0

    def test_constant_shortcut_equals_general_path(self):
        model = LevyModel(a=0.5, q=1.0, nu=LevyMeasureSpec(atoms=((0.5, 1.0),)))
        path = simulate(model, GRID, 4)
        f_const = compute_a(path, ConstantVol(0.7), r0_exp(), GRID)
        tab = TabulatedVol(dx=GRID.dt, values=np.full(GRID.n_w + 1, 0.7))
        f_tab = compute_a(path, tab, r0_exp(), GRID)
        assert np.nanmax(np.abs(f_const.a - f_tab.a)) <= 1e-12

    def test_bounded_fields_reported(self):
        model = LevyModel(a=0.1, q=0.5, nu=LevyMeasureSpec(atoms=((0.5, 2.0),)))
        path = simulate(model, GRID, 12)
        vol = ExpAffineVol(c0=0.8, c1=0.4, beta=1.5)
        f = compute_a(path, vol, r0_exp(), GRID)
        mask = GRID.valid_mask()
        assert np.isfinite(np.nanmax(np.abs(np.where(mask, f.I1, np.nan))))
        assert np.isfinite(np.nanmax(np.abs(np.where(mask, f.I2, np.nan))))
        assert math.isfinite(f.b_bar)

    def test_r0_too_short_rejected(self):
        short = WeightedCurve(dx=GRID.dt, values=np.ones(GRID.n_w), gamma=1.0)
        path = simulate(LevyModel(), GRID, 1)
        with pytest.raises(ValueError):
            compute_a(path, ConstantVol(1.0), short, GRID)

    def test_path_on_another_dt_rejected(self):
        path = simulate(LevyModel(), SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0), 1)
        with pytest.raises(ValueError, match=r"^path dt=0.125 does not match grid dt=0.0625$"):
            compute_a(path, ConstantVol(1.0), r0_exp(), GRID)

    def test_path_shorter_than_the_grid_rejected(self):
        path = simulate(LevyModel(), SolveGrid(t_star=0.5, dt=GRID.dt, x_max=1.0), 1)
        with pytest.raises(ValueError, match="^path horizon shorter than the grid horizon$"):
            compute_a([simulate(LevyModel(), GRID, 2), path], ConstantVol(1.0), r0_exp(), GRID)

    def test_r0_on_another_dx_rejected(self):
        coarse = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        with pytest.raises(ValueError, match=r"^r0 grid dx=0.125 does not match grid dt=0.0625$"):
            compute_a(simulate(LevyModel(), GRID, 1), ConstantVol(1.0), r0_exp(coarse), GRID)


class TestStackedFactor:
    """compute_a over a sequence of paths gives the fields of compute_a path
    by path, bit for bit."""

    VOLS = (
        ConstantVol(0.7),
        ExpAffineVol(c0=0.5, c1=0.3, beta=1.5),
        TabulatedVol(dx=GRID.dt, values=0.6 + 0.2 * np.cos(np.arange(GRID.n_w + 1))),
    )

    @pytest.mark.parametrize("q", [0.0, 0.25, "mixed"])
    @pytest.mark.parametrize("vol", VOLS, ids=["constant", "exp_affine", "tabulated"])
    def test_stack_equals_single_paths(self, vol, q):
        # jumps of both signs; the atom at -2 puts 1 + lambda y below 0.
        # "mixed": the paths alternate q = 0 and q = 0.25, and each path's
        # field takes q from its own model
        nu = LevyMeasureSpec(
            atoms=((0.5, 1.0), (-2.0, 0.3)),
            density_parts=(
                Exponential(c=1.0, beta=3.0, support=(0.0, INF)),
                Exponential(c=1.0, beta=3.0, support=(-INF, 0.0)),
            ),
        )
        models = [LevyModel(a=0.1, q=q_k, nu=nu) for q_k in ((0.0, 0.25) if q == "mixed" else (q,))]
        paths = [simulate(models[s % len(models)], GRID, s) for s in range(8)]
        sizes = np.concatenate([p.jump_sizes for p in paths])
        assert sizes.min() <= -2.0 and sizes.max() > 0.0
        fields = compute_a(paths, vol, r0_exp(), GRID)
        assert type(fields) is list and len(fields) == len(paths)
        for path, got in zip(paths, fields):
            one = compute_a(path, vol, r0_exp(), GRID)
            for name in ("I1", "I2", "a", "b"):
                assert getattr(got, name).shape == (GRID.n_t + 1, GRID.n_w + 1), name
                assert np.array_equal(getattr(got, name), getattr(one, name), equal_nan=True), name
                # NaN exactly beyond the triangle: b_bar is the nanmax of b itself
                assert np.array_equal(np.isnan(getattr(one, name)), GRID.off_mask), name
            assert one.b_bar == np.max(one.b[GRID.valid_mask()])
            assert type(got.b_bar) is float and type(got.positivity_ok) is bool
            assert (got.b_bar, got.positivity_ok) == (one.b_bar, one.positivity_ok)
            assert np.array_equal(got.lam_w, one.lam_w)
            # each field records the path and volatility it was built from
            assert got.path is one.path is path and got.vol is one.vol is vol
            (alone,) = compute_a([path], vol, r0_exp(), GRID)
            assert np.array_equal(alone.a, one.a, equal_nan=True)
        # the fields are views into one stacked computation, and share lambda
        assert all(f.a.base is fields[0].a.base is not None and f.lam_w is fields[0].lam_w for f in fields)
        assert 0 < sum(f.positivity_ok for f in fields) < len(paths)

    def test_single_path_has_no_path_axis(self):
        path = simulate(LevyModel(q=1.0), GRID, 2)
        f = compute_a(path, ConstantVol(1.0), r0_exp(), GRID)
        assert f.a.shape == (GRID.n_t + 1, GRID.n_w + 1)
        assert type(f.b_bar) is float and type(f.positivity_ok) is bool

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            compute_a([], ConstantVol(1.0), r0_exp(), GRID)
