import numpy as np
import pytest

from levyhjmm.function_space import WeightedCurve
from levyhjmm.grids import SolveGrid
from levyhjmm.levy_analysis import ExponentDomainError, ExponentHandle
from levyhjmm.levy_model import INF, Exponential, LevyMeasureSpec, LevyModel
from levyhjmm.path_sim import SimConfig, refine_path, simulate
from levyhjmm.random_factor import ConstantVol, ExpAffineVol, compute_a
from levyhjmm.hjmm_solver import (
    STATUS_CONVERGED,
    STATUS_EXPLOSION,
    SolveReport,
    SolverConfig,
    _cumtrapz_rows,
    a_priori_c1,
    apply_K,
    explosion_sweep,
    gronwall_check,
    mild_residual,
    solve_monotone,
    strong_residual,
    uniqueness_constant,
)

GRID = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
POISSON = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 2.0),)))
VOL = ConstantVol(0.5)


def r0_exp(grid=GRID, gamma=1.0):
    return WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=gamma)


def setup(model, grid=GRID, seed=1, vol=VOL, gamma=1.0, r0=None):
    path = simulate(model, SimConfig(t_star=grid.t_star, dt=grid.dt, seed=seed))
    r0 = r0 or r0_exp(grid, gamma)
    factor = compute_a(path, vol, r0, model.q, grid)
    return path, factor, ExponentHandle(model), r0


def zero_field(grid):
    h = grid.empty_field()
    for i in range(grid.n_t + 1):
        h[i, : grid.row_width(i) + 1] = 0.0
    return h


def triangle_err(grid, field, expect):
    worst = 0.0
    for i in range(grid.n_t + 1):
        w = grid.row_width(i)
        ref = expect(grid.t[i], grid.x_wide[: w + 1])
        worst = max(worst, float(np.max(np.abs(field[i, : w + 1] - ref))))
    return worst


class TestApplyK:
    def test_degenerate_operator_is_constant(self):
        model = LevyModel()
        _, factor, handle, _ = setup(model)
        rng = np.random.default_rng(0)
        h = zero_field(GRID)
        mask = GRID.valid_mask()
        h[mask] = rng.uniform(0.0, 2.0, size=int(mask.sum()))
        out = apply_K(h, factor, VOL, handle)
        np.testing.assert_allclose(
            np.where(mask, out, 0.0), np.where(mask, factor.a, 0.0), atol=1e-14
        )

    def test_pure_drift_closed_form(self):
        model = LevyModel(a=1.0)
        _, factor, handle, _ = setup(model)
        out = apply_K(zero_field(GRID), factor, VOL, handle)
        assert triangle_err(GRID, out, lambda t, xs: np.exp(-(t + xs))) < 1e-13

    def test_monotone_in_argument(self):
        _, factor, handle, _ = setup(POISSON, seed=11)
        rng = np.random.default_rng(5)
        mask = GRID.valid_mask()
        for _ in range(5):
            h0 = zero_field(GRID)
            h0[mask] = rng.uniform(0.0, 1.0, size=int(mask.sum()))
            h1 = h0 + np.where(mask, rng.uniform(0.0, 1.0, size=mask.shape), 0.0)
            k0 = apply_K(h0, factor, VOL, handle)
            k1 = apply_K(h1, factor, VOL, handle)
            assert np.nanmin(np.where(mask, k1 - k0, np.nan)) >= -1e-12

    def test_domain_error_reported(self):
        # negative exponential tail: J' blows up past beta
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=0.5, support=(-INF, -1.0)),))
        )
        _, factor, handle, _ = setup(model, seed=2, vol=ConstantVol(1.0))
        h = zero_field(GRID)
        mask = GRID.valid_mask()
        h[mask] = 50.0  # pushes the inner integral far beyond beta
        with pytest.raises(ExponentDomainError) as excinfo:
            apply_K(h, factor, ConstantVol(1.0), handle)
        assert excinfo.value.what == "J'"
        assert np.isinf(handle.J_prime(np.array([excinfo.value.z]))[0])

    def test_domain_error_reported_for_second_derivative(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=0.5, support=(-INF, -1.0)),))
        )
        handle = ExponentHandle(model)
        field = np.where(GRID.valid_mask(), 50.0, np.nan)
        rep = SolveReport(
            status=STATUS_CONVERGED, field=field, iterate_sup_norms=[], iterate_l2_norms=[],
            c1=None, n_iters=1, grid=GRID, gamma=1.0,
        )
        with pytest.raises(ExponentDomainError) as excinfo:
            strong_residual(rep, r0_exp(), ConstantVol(1.0), handle)
        assert excinfo.value.what == "J''"
        assert np.isinf(handle.J_second(np.array([excinfo.value.z]))[0])


def loop_sum(grid, G, rule="trapezoid"):
    """sum_{k<=i} w_k G[k, i-k+j], one row and one k at a time."""
    out = grid.empty_field()
    for i in range(grid.n_t + 1):
        w = grid.row_width(i)
        E = np.zeros(w + 1)
        for k in range(i + 1 if rule == "trapezoid" else i):
            wt = 0.5 if rule == "trapezoid" and k in (0, i) else 1.0
            E += wt * G[k, i - k : i - k + w + 1]
        out[i, : w + 1] = E if i > 0 else 0.0
    return out


def loop_apply_K(h, factor, vol, exponent):
    """The fixed-point operator with one J' call per (row, k) pair."""
    grid = factor.grid
    lam_w = vol.lam(grid.x_wide)
    cum = _cumtrapz_rows(lam_w[None, :] * h, grid.dt)
    out = grid.empty_field()
    out[0, :] = factor.a[0, :]
    for i in range(1, grid.n_t + 1):
        w = grid.row_width(i)
        E = np.zeros(w + 1)
        for k in range(i + 1):
            sl = slice(i - k, i - k + w + 1)
            wt = 0.5 if k in (0, i) else 1.0
            E += wt * exponent.J_prime(cum[k, sl]) * lam_w[sl]
        out[i, : w + 1] = factor.a[i, : w + 1] * np.exp(grid.dt * E)
    return out


def assert_same_triangle(grid, got, want, rtol):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isnan(got), ~grid.valid_mask())
    mask = grid.valid_mask()
    scale = np.maximum(np.abs(want[mask]), 1e-300)
    assert np.max(np.abs(got[mask] - want[mask]) / scale) <= rtol


class TestNaturalFrameKernel:
    @pytest.mark.parametrize("dt", [1.0 / 4, 1.0 / 16, 1.0 / 128])
    @pytest.mark.parametrize("vol", [ConstantVol(0.3), ExpAffineVol(c0=0.2, c1=0.1, beta=1.0)])
    def test_apply_K_matches_loop(self, dt, vol):
        grid = SolveGrid(t_star=0.5, dt=dt, x_max=1.0)
        model = LevyModel(a=0.2, q=1.0, nu=LevyMeasureSpec(atoms=((1.0, 0.5), (-0.2, 0.3))))
        r0 = WeightedCurve(dx=dt, values=np.exp(-grid.x_wide), gamma=1.0)
        _, factor, handle, _ = setup(model, grid=grid, seed=3, vol=vol, r0=r0)
        rng = np.random.default_rng(int(1 / dt))
        for _ in range(2):
            h = np.where(grid.valid_mask(), rng.uniform(0.0, 2.0, size=grid.valid_mask().shape), np.nan)
            want = loop_apply_K(h, factor, vol, handle)
            assert_same_triangle(grid, apply_K(h, factor, vol, handle), want, 1e-14)

    @pytest.mark.parametrize("rule", ["trapezoid", "left"])
    def test_sum_along_t_matches_loop(self, rule):
        grid = SolveGrid(t_star=0.75, dt=0.125, x_max=0.5)
        G = np.random.default_rng(9).normal(size=grid.valid_mask().shape)
        assert_same_triangle(grid, grid.sum_along_t(G, rule=rule), loop_sum(grid, G, rule), 1e-14)

    def test_sum_along_t_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            GRID.sum_along_t(np.zeros(GRID.valid_mask().shape), rule="midpoint")

    def test_frame_round_trip(self):
        grid = SolveGrid(t_star=0.75, dt=0.125, x_max=0.5)
        mask = grid.valid_mask()
        r = np.where(mask, np.random.default_rng(4).normal(size=mask.shape), np.nan)
        nat = grid.to_natural(r)
        for i in range(grid.n_t + 1):
            assert np.all(np.isnan(nat[i, :i]))
            np.testing.assert_array_equal(nat[i, i:], r[i, : grid.row_width(i) + 1])
        np.testing.assert_array_equal(grid.to_moving(nat), r)
        np.testing.assert_array_equal(grid.to_natural(grid.to_moving(nat)), nat)

    def test_grid_caches(self):
        grid = SolveGrid(t_star=0.75, dt=0.125, x_max=0.5)
        assert (grid.n_t, grid.n_x, grid.n_w) == (6, 4, 10)
        mask = grid.valid_mask()
        assert mask is grid.valid_mask()
        with pytest.raises(ValueError):
            mask[0, 0] = False
        assert grid == SolveGrid(t_star=0.75, dt=0.125, x_max=0.5)
        assert hash(grid) == hash(SolveGrid(t_star=0.75, dt=0.125, x_max=0.5))
        with pytest.raises(ValueError):
            SolveGrid(t_star=0.7, dt=0.125, x_max=0.5)


class TestSolveMonotone:
    def test_degenerate_two_iterations_exact(self):
        model = LevyModel()
        _, factor, handle, r0 = setup(model)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        assert rep.status == STATUS_CONVERGED
        assert rep.n_iters <= 2
        assert triangle_err(GRID, rep.field, lambda t, xs: np.exp(-(t + xs))) < 1e-12

    def test_pure_drift_closed_form(self):
        model = LevyModel(a=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 256, x_max=1.0)
        _, factor, handle, _ = setup(model, grid=grid)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        assert rep.status == STATUS_CONVERGED
        assert triangle_err(grid, rep.field, lambda t, xs: np.exp(-(t + xs))) < 1e-9

    def test_wiener_explodes_for_large_flat_curve(self):
        model = LevyModel(q=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, 64.0), gamma=1.0)
        path = simulate(model, SimConfig(t_star=1.0, dt=grid.dt, seed=21))
        factor = compute_a(path, ConstantVol(1.0), r0, 1.0, grid)
        rep = solve_monotone(factor, ConstantVol(1.0), ExponentHandle(model), SolverConfig())
        assert rep.status == STATUS_EXPLOSION
        assert rep.detail["rule"] in ("cap", "growth-streak x10.0")

    def test_monotone_positive_iterates(self):
        _, factor, handle, _ = setup(POISSON, seed=11)
        rep = solve_monotone(factor, VOL, handle, SolverConfig(), keep_iterates=True)
        assert rep.status == STATUS_CONVERGED
        mask = GRID.valid_mask()
        prev = zero_field(GRID)
        for it in rep.iterates:
            assert np.nanmin(np.where(mask, it - prev, np.nan)) >= -1e-12
            assert np.nanmin(np.where(mask, it, np.nan)) >= 0.0
            prev = it

    def test_fixed_point_property(self):
        _, factor, handle, _ = setup(POISSON, seed=11)
        cfg = SolverConfig()
        rep = solve_monotone(factor, VOL, handle, cfg)
        again = apply_K(rep.field, factor, VOL, handle)
        gap = GRID.nan_sup(again - rep.field)
        assert gap <= cfg.tol * (1.0 + GRID.nan_sup(rep.field))

    def test_c1_bounds_iterate_norms(self):
        _, factor, handle, _ = setup(POISSON, seed=11)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        assert rep.c1 is not None
        assert max(rep.iterate_l2_norms) <= 1.01 * rep.c1

    def test_grid_refinement_consistency(self):
        base = simulate(POISSON, SimConfig(t_star=1.0, dt=1.0 / 32, seed=11))
        paths = [base, refine_path(base, seed=70)]
        fields = []
        for p in paths:
            grid = SolveGrid(t_star=1.0, dt=p.dt, x_max=1.0)
            r0 = r0_exp(grid)
            factor = compute_a(p, VOL, r0, 0.0, grid)
            rep = solve_monotone(factor, VOL, ExponentHandle(POISSON), SolverConfig())
            fields.append((grid, rep.field))
        g0, f0 = fields[0]
        g1, f1 = fields[1]
        diff = max(
            float(np.max(np.abs(f1[2 * i, : 2 * g0.row_width(i) + 1 : 2] - f0[i, : g0.row_width(i) + 1])))
            for i in range(g0.n_t + 1)
        )
        assert diff <= 1.0 * g0.dt

    def test_domain_prescan_fails_fast(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),))
        )
        _, factor, handle, _ = setup(model, seed=2, vol=ConstantVol(1.0))
        with pytest.raises(ExponentDomainError):
            solve_monotone(factor, ConstantVol(1.0), handle, SolverConfig())

    def test_tabulated_vol_tracks_analytic_form(self):
        # same solve with lambda given analytically vs sampled on the grid;
        # the only differences are finite-difference lambda' and jump-offset
        # interpolation, both O(dx^2)
        from levyhjmm.random_factor import ExpAffineVol, TabulatedVol

        grid = SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0)
        vol_a = ExpAffineVol(c0=0.5, c1=0.3, beta=1.0)
        xs_fine = (grid.dt / 4.0) * np.arange(4 * grid.n_w + 4 * grid.n_t + 1)
        vol_t = TabulatedVol(dx=grid.dt / 4.0, values=vol_a.lam(xs_fine))
        path = simulate(POISSON, SimConfig(t_star=1.0, dt=grid.dt, seed=11))
        r0 = r0_exp(grid)
        handle = ExponentHandle(POISSON)
        rep_a = solve_monotone(
            compute_a(path, vol_a, r0, 0.0, grid), vol_a, handle, SolverConfig()
        )
        rep_t = solve_monotone(
            compute_a(path, vol_t, r0, 0.0, grid), vol_t, handle, SolverConfig()
        )
        assert rep_a.status == rep_t.status == STATUS_CONVERGED
        sup_field = grid.nan_sup(rep_a.field)
        assert grid.nan_sup(rep_a.field - rep_t.field) < 1e-4 * (1.0 + sup_field)


class TestAPrioriC1:
    def test_nonpositive_prime_gives_product(self):
        handle = ExponentHandle(LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),))))
        assert a_priori_c1(1.3, 0.7, 0.5, 1.0, 1.0, handle) == pytest.approx(0.91)

    def test_wiener_has_no_bound(self):
        handle = ExponentHandle(LevyModel(q=1.0))
        assert a_priori_c1(1.0, 1.0, 1.0, 1.0, 1.0, handle) is None

    def test_zero_prime_unit_product(self):
        handle = ExponentHandle(LevyModel())
        assert a_priori_c1(1.0, 1.0, 1.0, 1.0, 1.0, handle) == 1.0


class TestMildResidual:
    def test_degenerate_zero(self):
        model = LevyModel()
        path, factor, handle, r0 = setup(model)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        res = mild_residual(rep, path, factor, VOL, handle, r0)
        assert np.max(res) < 1e-13

    def test_initial_row_is_zero(self):
        # at t = 0 the drift and stochastic integrals run over [0, 0]
        path, factor, handle, r0 = setup(POISSON)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        res = mild_residual(rep, path, factor, VOL, handle, r0)
        assert res[0] == 0.0
        assert np.max(res) > 0.0

    def test_pure_drift_first_order(self):
        model = LevyModel(a=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 64, x_max=1.0)
        path, factor, handle, r0 = setup(model, grid=grid)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        res = mild_residual(rep, path, factor, VOL, handle, r0)
        assert np.max(res) < 5.0 * grid.dt

    def test_compound_poisson_halving(self):
        base = simulate(POISSON, SimConfig(t_star=1.0, dt=1.0 / 32, seed=11))
        vals = []
        for path in (base, refine_path(base, seed=80)):
            grid = SolveGrid(t_star=1.0, dt=path.dt, x_max=1.0)
            r0 = r0_exp(grid)
            factor = compute_a(path, VOL, r0, 0.0, grid)
            rep = solve_monotone(factor, VOL, ExponentHandle(POISSON), SolverConfig())
            vals.append(np.max(mild_residual(rep, path, factor, VOL, ExponentHandle(POISSON), r0)))
        assert 0.4 <= vals[1] / vals[0] <= 0.6

    def test_requires_converged(self):
        model = LevyModel(q=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, 64.0), gamma=1.0)
        path = simulate(model, SimConfig(t_star=1.0, dt=grid.dt, seed=21))
        factor = compute_a(path, ConstantVol(1.0), r0, 1.0, grid)
        rep = solve_monotone(factor, ConstantVol(1.0), ExponentHandle(model), SolverConfig())
        with pytest.raises(RuntimeError):
            mild_residual(rep, path, factor, ConstantVol(1.0), ExponentHandle(model), r0)


class TestGronwall:
    def test_zero_field(self):
        d = np.where(GRID.valid_mask(), 0.0, np.nan)
        res = gronwall_check(d, 1.0, GRID)
        assert res.holds_on_grid and res.zero_within == 0.0

    def test_constant_field_fails(self):
        d = np.where(GRID.valid_mask(), 1.0, np.nan)
        res = gronwall_check(d, 1.0, GRID)
        assert not res.holds_on_grid
        # direct double integral at small t: C * t(t+2x)/2-ish << 1
        assert res.witness is not None

    def test_two_start_difference(self):
        path, factor, handle, r0 = setup(POISSON, seed=11)
        ra = solve_monotone(factor, VOL, handle, SolverConfig(), h0="zero")
        rb = solve_monotone(factor, VOL, handle, SolverConfig(), h0="factor")
        assert ra.status == rb.status == STATUS_CONVERGED
        d = np.abs(ra.field - rb.field)
        assert GRID.nan_sup(ra.field - rb.field) < 1e-8
        C = uniqueness_constant(
            factor, VOL, handle, 1.0, max(ra.iterate_l2_norms), max(rb.iterate_l2_norms)
        )
        res = gronwall_check(np.where(GRID.valid_mask(), d, np.nan), C, GRID, atol=1e-8)
        assert res.holds_on_grid
        assert res.sup_d_le_bound

    def test_negative_entries_rejected(self):
        d = np.where(GRID.valid_mask(), -1.0, np.nan)
        with pytest.raises(ValueError):
            gronwall_check(d, 1.0, GRID)


class TestStrongResidual:
    def test_degenerate_second_order(self):
        sups = []
        for dt_exp in (4, 5):
            grid = SolveGrid(t_star=1.0, dt=2.0**-dt_exp, x_max=1.0)
            model = LevyModel()
            _, factor, handle, r0 = setup(model, grid=grid)
            rep = solve_monotone(factor, VOL, handle, SolverConfig())
            sr = strong_residual(rep, r0, VOL, handle, r0_prime=-np.exp(-grid.x_wide))
            sups.append(sr.sup)
        assert sups[1] / sups[0] == pytest.approx(0.25, abs=0.1)

    def test_poisson_within_linear_bound(self):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0)
        _, factor, handle, r0 = setup(POISSON, grid=grid, seed=11)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        sr = strong_residual(rep, r0, VOL, handle, r0_prime=-np.exp(-grid.x_wide))
        assert sr.sup < 10.0 * grid.dt

    def test_nonconstant_vol_rejected(self):
        from levyhjmm.random_factor import ExpAffineVol

        _, factor, handle, r0 = setup(POISSON, seed=11)
        rep = solve_monotone(factor, VOL, handle, SolverConfig())
        with pytest.raises(ValueError):
            strong_residual(rep, r0, ExpAffineVol(c0=0.5, c1=0.1, beta=1.0), handle)

    def test_vanishing_r0_rejected(self):
        grid = GRID
        r0 = WeightedCurve(dx=grid.dt, values=np.zeros(grid.n_w + 1), gamma=1.0)
        path = simulate(LevyModel(), SimConfig(t_star=1.0, dt=grid.dt, seed=1))
        factor = compute_a(path, VOL, r0, 0.0, grid)
        rep = solve_monotone(factor, VOL, ExponentHandle(LevyModel()), SolverConfig())
        with pytest.raises(ValueError):
            strong_residual(rep, r0, VOL, ExponentHandle(LevyModel()))


class TestExplosionSweep:
    def test_subordinator_never_explodes(self):
        res = explosion_sweep(
            POISSON, VOL, [2.0**k for k in range(0, 9, 2)], GRID, seed=5
        )
        assert res.first_explosion_level is None
        assert all(r.status == STATUS_CONVERGED for r in res.rows)

    def test_wiener_explodes_somewhere(self):
        res = explosion_sweep(
            LevyModel(q=1.0), ConstantVol(1.0), [2.0**k for k in range(0, 13, 3)], GRID, seed=5
        )
        assert res.first_explosion_level is not None

    def test_degenerate_all_converge(self):
        res = explosion_sweep(LevyModel(), VOL, [1.0, 4.0, 16.0], GRID, seed=5)
        assert all(r.status == STATUS_CONVERGED for r in res.rows)
        assert res.first_explosion_level is None
