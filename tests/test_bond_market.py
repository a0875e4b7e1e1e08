import math

import numpy as np
import pytest

from levyhjmm.function_space import WeightedCurve, l1_bound_check
from levyhjmm.grids import SolveGrid
from levyhjmm.levy_analysis import ExponentHandle
from levyhjmm.levy_model import LevyMeasureSpec, LevyModel
from levyhjmm.path_sim import SimConfig, simulate
from levyhjmm.random_factor import ConstantVol, compute_a
from levyhjmm.hjmm_solver import SolverConfig, solve_monotone
from levyhjmm.bond_market import (
    FRAME_MOVING,
    ForwardField,
    bond_price,
    hjm_drift_check,
    martingale_mc,
    short_rate,
    to_moving_frame,
    to_natural_frame,
)

GRID = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
POISSON = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),)))


def constant_field(value, grid=GRID, gamma=1.0):
    vals = np.where(grid.valid_mask(), value, np.nan)
    return ForwardField(FRAME_MOVING, vals, grid, gamma)


def solved_field(model, grid=GRID, seed=3, vol=ConstantVol(0.5), gamma=1.0):
    r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=gamma)
    path = simulate(model, SimConfig(t_star=grid.t_star, dt=grid.dt, seed=seed))
    factor = compute_a(path, vol, r0, model.q, grid)
    rep = solve_monotone(factor, vol, ExponentHandle(model), SolverConfig(gamma=gamma))
    assert rep.status == "Converged"
    return ForwardField(FRAME_MOVING, rep.field, grid, gamma), rep, r0, vol


class TestFrames:
    def test_constant_field_unchanged(self):
        f = constant_field(0.05)
        nat = to_natural_frame(f)
        for i in range(GRID.n_t + 1):
            w = GRID.row_width(i)
            np.testing.assert_array_equal(nat.values[i, i : i + w + 1], f.values[i, : w + 1])

    def test_linear_field_maps_to_maturity(self):
        g = GRID
        vals = np.where(g.valid_mask(), g.t[:, None] + g.x_wide[None, :], np.nan)
        nat = to_natural_frame(ForwardField(FRAME_MOVING, vals, g, 1.0))
        # r(t,x) = t + x means f(t,T) = T
        for i in range(g.n_t + 1):
            w = g.row_width(i)
            np.testing.assert_allclose(nat.values[i, i : i + w + 1], g.x_wide[i : i + w + 1], atol=1e-14)

    def test_round_trip_bit_identical(self):
        field, _, _, _ = solved_field(POISSON)
        back = to_moving_frame(to_natural_frame(field))
        a = np.nan_to_num(back.values, nan=-1.0)
        b = np.nan_to_num(field.values, nan=-1.0)
        np.testing.assert_array_equal(a, b)

    def test_frame_guards(self):
        field = constant_field(0.05)
        with pytest.raises(ValueError):
            to_moving_frame(field)
        with pytest.raises(ValueError):
            to_natural_frame(to_natural_frame(field))


class TestBondPrice:
    def test_zero_curve_unit_price(self):
        assert bond_price(constant_field(0.0), 0.0, 0.5) == 1.0

    def test_flat_curve_closed_form(self):
        grid = SolveGrid(t_star=0.5, dt=1.0 / 128, x_max=2.0)
        f = constant_field(0.05, grid)
        assert bond_price(f, 0.0, 2.0) == pytest.approx(math.exp(-0.1), abs=1e-10)

    def test_maturity_equals_time(self):
        field, _, _, _ = solved_field(POISSON)
        assert bond_price(field, 0.5, 0.5) == 1.0

    def test_lower_bound_from_weighted_norm(self):
        field, rep, r0, _ = solved_field(POISSON)
        g = field.grid
        for i in (0, g.n_t // 2, g.n_t):
            w = g.row_width(i)
            curve = WeightedCurve(dx=g.dt, values=field.values[i, : w + 1], gamma=field.gamma)
            check = l1_bound_check(curve)
            floor = math.exp(-check.bound)
            t = float(g.t[i])
            for j in range(0, min(w, g.n_x) + 1, 4):
                T = t + float(g.x_wide[j])
                assert bond_price(field, t, T) >= floor - 1e-12

    def test_nonincreasing_in_maturity(self):
        field, _, _, _ = solved_field(POISSON)
        prices = [bond_price(field, 0.0, T) for T in GRID.x]
        assert all(b <= a + 1e-15 for a, b in zip(prices, prices[1:]))
        assert all(0.0 < p <= 1.0 for p in prices)

    def test_bad_maturity(self):
        field = constant_field(0.05)
        with pytest.raises(ValueError):
            bond_price(field, 0.5, 0.25)


class TestShortRate:
    def test_exponential_curve(self):
        g = GRID
        vals = np.where(g.valid_mask(), np.exp(-(g.t[:, None] + g.x_wide[None, :])), np.nan)
        f = ForwardField(FRAME_MOVING, vals, g, 1.0)
        assert short_rate(f, 0.0) == 1.0
        assert short_rate(f, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-14)

    def test_flat(self):
        assert short_rate(constant_field(0.05), 0.25) == 0.05

    def test_degenerate_solved_field(self):
        field, _, _, _ = solved_field(LevyModel())
        for t in (0.0, 0.5, 1.0):
            assert short_rate(field, t) == pytest.approx(math.exp(-t), abs=1e-12)


class TestHjmDrift:
    def test_zero_volatility(self):
        model = LevyModel()
        field = constant_field(0.0)
        Ts, res = hjm_drift_check(field, ConstantVol(0.5), ExponentHandle(model), 0.5)
        assert np.max(res) == 0.0

    def test_pure_drift_linear_exponent_exact(self):
        model = LevyModel(a=1.0)
        field, _, _, vol = solved_field(model)
        _, res = hjm_drift_check(field, vol, ExponentHandle(model), 0.5)
        assert np.max(res) < 1e-12

    def test_solved_scenario_within_quadrature_allowance(self):
        field, _, _, vol = solved_field(POISSON)
        handle = ExponentHandle(POISSON)
        jpp_local = float(handle.J_second(np.array([0.0]))[0])
        _, res = hjm_drift_check(field, vol, handle, 0.5)
        assert np.max(res) <= 10.0 * GRID.dt * (1.0 + jpp_local)


class TestMartingale:
    def test_degenerate_field_constant(self):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=1.0)
        rep = martingale_mc(
            LevyModel(),
            ConstantVol(0.5),
            r0,
            grid,
            SolverConfig(),
            n_paths=3,
            maturities=[1.0],
            t_checkpoints=[0.5],
            seed=4,
        )
        row = rep.rows[0]
        # L == 0 makes the discounted price deterministic and constant in t
        assert row.std_error == pytest.approx(0.0, abs=1e-14)
        assert row.mean_discounted == pytest.approx(row.reference, abs=1e-12)

    def test_zero_rate_all_unit(self):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.zeros(grid.n_w + 1), gamma=1.0)
        rep = martingale_mc(
            LevyModel(),
            ConstantVol(0.5),
            r0,
            grid,
            SolverConfig(),
            n_paths=2,
            maturities=[1.0],
            t_checkpoints=[0.5],
            seed=4,
        )
        row = rep.rows[0]
        assert row.mean_discounted == 1.0 and row.reference == 1.0

    def test_poisson_small_mc(self):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=1.0)
        rep = martingale_mc(
            POISSON,
            ConstantVol(0.3),
            r0,
            grid,
            SolverConfig(),
            n_paths=400,
            maturities=[1.0],
            t_checkpoints=[0.5],
            seed=9,
        )
        row = rep.rows[0]
        gap = abs(row.mean_discounted - row.reference)
        assert gap < 3.0 * row.std_error + 10.0 * grid.dt
        assert rep.n_excluded_explosions == 0
        assert "local" in rep.note

    def test_not_converged_counted_apart(self):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=1.0)
        rep = martingale_mc(
            POISSON,
            ConstantVol(0.3),
            r0,
            grid,
            SolverConfig(max_iter=1),
            n_paths=5,
            maturities=[1.0],
            t_checkpoints=[0.5],
            seed=9,
        )
        assert rep.n_not_converged == rep.n_paths == 5
        assert rep.n_exploded == 0
        assert rep.n_excluded_explosions == 5
        assert rep.rows[0].n_paths == 0
