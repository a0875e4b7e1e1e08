import dataclasses
import math
import re

import numpy as np
import pytest

from levyhjmm import hjmm_solver
from levyhjmm.function_space import WeightedCurve, cumulative_trapezoid, norm_l2gamma, trapezoid
from levyhjmm.grids import SolveGrid
from levyhjmm.levy_analysis import (
    REGIME_EXPLOSION,
    REGIME_GLOBAL,
    ExponentDomainError,
    ExponentHandle,
    classify,
)
from levyhjmm.levy_model import INF, Exponential, LevyMeasureSpec, LevyModel, PowerLaw
from levyhjmm.path_sim import LevyPathRecord, refine_path, simulate
from levyhjmm.random_factor import ConstantVol, ExpAffineVol, TabulatedVol, compute_a
from levyhjmm.hjmm_solver import (
    STATUS_CONVERGED,
    STATUS_EXPLOSION,
    STATUS_MAX_ITER,
    SolveReport,
    SolverConfig,
    SweepResult,
    StrongResidual,
    a_priori_c1,
    apply_K,
    explosion_sweep,
    gronwall_check,
    mild_residual,
    solve_batch,
    solve_monotone,
    strong_residual,
    uniqueness_constant,
)

GRID = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
POISSON = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 2.0),)))
# the benchmark's explosion-prone power law and its jump diffusion
SWEEP_POWERLAW = LevyModel(nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(0.0, 1.0)),)))
JUMP_DIFFUSION = LevyModel(a=0.2, q=1.0, nu=LevyMeasureSpec(atoms=((1.0, 0.5), (-0.2, 0.3))))
VOL = ConstantVol(0.5)


def r0_exp(grid=GRID, gamma=1.0):
    return WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=gamma)


def setup(model, grid=GRID, seed=1, vol=VOL, gamma=1.0, r0=None):
    path = simulate(model, grid, seed)
    return compute_a(path, vol, r0 or r0_exp(grid, gamma), grid)


def nan_field(grid):
    return np.full(grid.valid_mask().shape, np.nan)


def zero_field(grid):
    h = nan_field(grid)
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
        factor = setup(model)
        handle = ExponentHandle(model)
        rng = np.random.default_rng(0)
        h = zero_field(GRID)
        mask = GRID.valid_mask()
        h[mask] = rng.uniform(0.0, 2.0, size=int(mask.sum()))
        out = apply_K(h, factor, handle)
        np.testing.assert_allclose(
            np.where(mask, out, 0.0), np.where(mask, factor.a, 0.0), atol=1e-14
        )

    def test_pure_drift_closed_form(self):
        model = LevyModel(a=1.0)
        factor = setup(model)
        handle = ExponentHandle(model)
        out = apply_K(zero_field(GRID), factor, handle)
        assert triangle_err(GRID, out, lambda t, xs: np.exp(-(t + xs))) < 1e-13

    def test_monotone_in_argument(self):
        factor = setup(POISSON, seed=11)
        handle = ExponentHandle(POISSON)
        rng = np.random.default_rng(5)
        mask = GRID.valid_mask()
        for _ in range(5):
            h0 = zero_field(GRID)
            h0[mask] = rng.uniform(0.0, 1.0, size=int(mask.sum()))
            h1 = h0 + np.where(mask, rng.uniform(0.0, 1.0, size=mask.shape), 0.0)
            k0 = apply_K(h0, factor, handle)
            k1 = apply_K(h1, factor, handle)
            assert np.nanmin(np.where(mask, k1 - k0, np.nan)) >= -1e-12

    def test_domain_error_reported(self):
        # negative exponential tail: J' blows up past beta
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=0.5, support=(-INF, -1.0)),))
        )
        factor = setup(model, seed=2, vol=ConstantVol(1.0))
        handle = ExponentHandle(model)
        h = zero_field(GRID)
        mask = GRID.valid_mask()
        h[mask] = 50.0  # pushes the inner integral far beyond beta
        with pytest.raises(ExponentDomainError) as excinfo:
            apply_K(h, factor, handle)
        assert excinfo.value.what == "J'"
        assert np.isinf(handle.J_prime(np.array([excinfo.value.z]))[0])

    def test_domain_error_reported_for_second_derivative(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=0.5, support=(-INF, -1.0)),))
        )
        factor = setup(model, seed=2, vol=ConstantVol(1.0))
        handle = ExponentHandle(model)
        field = np.where(GRID.valid_mask(), 50.0, np.nan)
        rep = SolveReport(
            status=STATUS_CONVERGED, field=field, iterate_sup_norms=[], iterate_l2_norms=[],
            c1=None, n_iters=1, grid=GRID, gamma=1.0,
        )
        with pytest.raises(ExponentDomainError) as excinfo:
            strong_residual(rep, factor)
        assert excinfo.value.what == "J''"
        assert np.isinf(handle.J_second(np.array([excinfo.value.z]))[0])

    def test_overflow_inside_the_domain_is_infinite(self):
        # J' of a negative atom is finite at every z but leaves double range
        # once 0.25 z > 709: apply_K returns +inf there instead of raising
        atom = ((-0.25, 0.5),)
        factor = setup(LevyModel(nu=LevyMeasureSpec(atoms=atom)), seed=2, vol=ConstantVol(1.0))
        handle = ExponentHandle(factor.path.model)
        assert handle.domain_sup == INF
        h = np.where(GRID.valid_mask(), 5000.0, np.nan)
        assert np.isposinf(GRID.nan_sup(apply_K(h, factor, handle)))
        # a negative exponential tail ends the domain at beta = 4000: the
        # overflow on (2837, 4000) still passes, a +inf from z = 4000 on raises
        tail = Exponential(c=1e-3, beta=4000.0, support=(-INF, -1.0))
        handle = ExponentHandle(LevyModel(nu=LevyMeasureSpec(atoms=atom, density_parts=(tail,))))
        assert handle.domain_sup == 4000.0
        with pytest.raises(ExponentDomainError) as excinfo:
            apply_K(h, factor, handle)
        assert excinfo.value.z >= 4000.0
        zs = np.array([3000.0, 3999.0])
        assert np.all(np.isposinf(handle.J_prime(zs)))


def loop_sum(grid, G, rule="trapezoid"):
    """sum_{k<=i} w_k G[k, i-k+j], one row and one k at a time."""
    out = nan_field(grid)
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
    cum = cumulative_trapezoid(lam_w[None, :] * h, grid.dt)
    out = nan_field(grid)
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
        factor = setup(model, grid=grid, seed=3, vol=vol, r0=r0)
        handle = ExponentHandle(model)
        rng = np.random.default_rng(int(1 / dt))
        for _ in range(2):
            h = np.where(grid.valid_mask(), rng.uniform(0.0, 2.0, size=grid.valid_mask().shape), np.nan)
            want = loop_apply_K(h, factor, vol, handle)
            assert_same_triangle(grid, apply_K(h, factor, handle), want, 1e-14)

    @pytest.mark.parametrize("dt", [1.0 / 8, 1.0 / 16])
    @pytest.mark.parametrize("stack", [False, True])
    def test_apply_K_is_causal(self, dt, stack):
        # K(h) on row i reads h on rows <= i of the triangle only, bit for bit
        grid = SolveGrid(t_star=1.0, dt=dt, x_max=1.0)
        model = LevyModel(a=0.2, q=1.0, nu=LevyMeasureSpec(atoms=((1.0, 0.5), (-0.2, 0.3))))
        vol = ExpAffineVol(c0=0.2, c1=0.1, beta=1.0)
        r0 = WeightedCurve(dx=dt, values=np.exp(-grid.x_wide), gamma=1.0)
        paths = [simulate(model, grid, seed) for seed in (3, 4, 5)]
        factors = compute_a(paths, vol, r0, grid)
        factor = dataclasses.replace(factors[0], a=np.stack([f.a for f in factors])) if stack else factors[0]
        handle = ExponentHandle(model)
        mask = grid.valid_mask()
        rng = np.random.default_rng(int(1 / dt))
        h, other = (np.where(mask, rng.uniform(0.0, 2.0, size=factor.a.shape), np.nan) for _ in range(2))
        K = apply_K(h, factor, handle)
        for i in range(grid.n_t):
            later = h.copy()
            later[..., i + 1 :, :] = other[..., i + 1 :, :]
            assert np.array_equal(apply_K(later, factor, handle)[..., : i + 1, :], K[..., : i + 1, :], equal_nan=True)
        for fill in (np.nan, np.inf, -np.inf, 1e308):
            with np.errstate(over="ignore"):  # the x-integral of 1e308 overflows beyond the triangle
                got = apply_K(np.where(mask, h, fill), factor, handle)
            assert np.array_equal(got, K, equal_nan=True)

    @pytest.mark.parametrize("rule", ["trapezoid", "left"])
    def test_sum_along_t_matches_loop(self, rule):
        for t_star, dt in [(0.75, 0.125), (0.5, 1.0 / 128), (1.0, 1.0 / 16)]:
            grid = SolveGrid(t_star=t_star, dt=dt, x_max=0.5)
            mask = grid.valid_mask()
            G = np.random.default_rng(9).normal(size=mask.shape)
            # beyond the triangle, values that poison any sum they enter
            junk = np.where(mask, G, np.resize([np.nan, np.inf, -np.inf, 1e308], mask.shape))
            for field in (G, junk):
                got = grid.sum_along_t(field, rule=rule)
                assert np.array_equal(got, loop_sum(grid, G, rule), equal_nan=True)
                assert np.array_equal(np.isnan(got), ~mask)

    def test_sum_along_t_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            GRID.sum_along_t(np.zeros(GRID.valid_mask().shape), rule="midpoint")

    def test_frame_round_trip(self):
        # triangle order is row-major, and sum_along_t reads each entry at its
        # place: with rule "left", the field that is one at (k, m) and zero
        # elsewhere on the triangle sums to one at (i, k + m - i) for
        # k < i <= k + m, and to zero at every other node of the triangle
        grid = SolveGrid(t_star=0.75, dt=0.125, x_max=0.5)
        mask = grid.valid_mask()
        r = np.where(mask, np.random.default_rng(4).normal(size=mask.shape), np.nan)
        np.testing.assert_array_equal(grid.triangle(r), r[mask])
        for k, m in zip(*np.nonzero(mask)):
            unit = np.where(mask, 0.0, np.nan)
            unit[k, m] = 1.0
            want = np.where(mask, 0.0, np.nan)
            for i in range(k + 1, min(k + m, grid.n_t) + 1):
                want[i, k + m - i] = 1.0
            np.testing.assert_array_equal(grid.sum_along_t(unit, rule="left"), want)
        curve = np.arange(grid.n_w + 1.0)
        i, j = np.indices(mask.shape)
        np.testing.assert_array_equal(grid.shifted(curve), np.where(mask, i + j, np.nan))

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

    def test_off_mask_is_cached_and_read_only(self):
        grid = SolveGrid(t_star=0.75, dt=0.125, x_max=0.5)
        off = grid.off_mask
        assert off is grid.off_mask
        np.testing.assert_array_equal(off, ~grid.valid_mask())
        with pytest.raises(ValueError):
            off[0, 0] = True

    @pytest.mark.parametrize(
        "cls, name",
        [(SolveGrid, "t_star"), (SolveGrid, "dt"), (SolveGrid, "x_max")],
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
    def test_grid_rejects_bad_span(self, cls, name, value):
        base = {"t_star": 1.0, "dt": 0.125, "x_max": 1.0}
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            cls(**{**base, name: value})


class TestSolverConfig:
    """A setting the solve cannot use is refused where it is made."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_iter", 2.5),
            ("max_iter", 2.0),
            ("max_iter", True),
            ("tol", math.nan),
            ("tol", math.inf),
            ("cap", math.nan),
        ],
    )
    def test_unusable_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})


class TestSolveMonotone:
    def test_degenerate_two_iterations_exact(self):
        model = LevyModel()
        factor = setup(model)
        rep = solve_monotone(factor, SolverConfig())
        assert rep.status == STATUS_CONVERGED
        assert rep.n_iters <= 2
        assert triangle_err(GRID, rep.field, lambda t, xs: np.exp(-(t + xs))) < 1e-12

    def test_pure_drift_closed_form(self):
        model = LevyModel(a=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 256, x_max=1.0)
        factor = setup(model, grid=grid)
        rep = solve_monotone(factor, SolverConfig())
        assert rep.status == STATUS_CONVERGED
        assert triangle_err(grid, rep.field, lambda t, xs: np.exp(-(t + xs))) < 1e-9

    def test_wiener_explodes_for_large_flat_curve(self):
        model = LevyModel(q=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, 64.0), gamma=1.0)
        path = simulate(model, grid, 21)
        factor = compute_a(path, ConstantVol(1.0), r0, grid)
        rep = solve_monotone(factor, SolverConfig())
        assert rep.status == STATUS_EXPLOSION
        assert_cap_stop(rep)

    def test_monotone_positive_iterates(self):
        factor = setup(POISSON, seed=11)
        rep = solve_monotone(factor, SolverConfig(), keep_iterates=True)
        assert rep.status == STATUS_CONVERGED
        mask = GRID.valid_mask()
        prev = zero_field(GRID)
        for it in rep.iterates:
            assert np.nanmin(np.where(mask, it - prev, np.nan)) >= -1e-12
            assert np.nanmin(np.where(mask, it, np.nan)) >= 0.0
            prev = it

    def test_fixed_point_property(self):
        factor = setup(POISSON, seed=11)
        handle = ExponentHandle(POISSON)
        cfg = SolverConfig()
        rep = solve_monotone(factor, cfg)
        again = apply_K(rep.field, factor, handle)
        gap = GRID.nan_sup(again - rep.field)
        assert gap <= cfg.tol * (1.0 + GRID.nan_sup(rep.field))

    def test_c1_bounds_iterate_norms(self):
        factor = setup(POISSON, seed=11)
        rep = solve_monotone(factor, SolverConfig())
        assert rep.c1 is not None
        assert max(rep.iterate_l2_norms) <= 1.01 * rep.c1

    def test_grid_refinement_consistency(self):
        base = simulate(POISSON, SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0), 11)
        paths = [base, refine_path(base, seed=70)]
        fields = []
        for p in paths:
            grid = SolveGrid(t_star=1.0, dt=p.dt, x_max=1.0)
            r0 = r0_exp(grid)
            factor = compute_a(p, VOL, r0, grid)
            rep = solve_monotone(factor, SolverConfig())
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
        factor = setup(model, seed=2, vol=ConstantVol(1.0))
        with pytest.raises(ExponentDomainError):
            solve_monotone(factor, SolverConfig())

    def test_tabulated_vol_tracks_analytic_form(self):
        # same solve with lambda given analytically vs sampled on the grid;
        # the only differences are finite-difference lambda' and jump-offset
        # interpolation, both O(dx^2)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0)
        vol_a = ExpAffineVol(c0=0.5, c1=0.3, beta=1.0)
        xs_fine = (grid.dt / 4.0) * np.arange(4 * grid.n_w + 4 * grid.n_t + 1)
        vol_t = TabulatedVol(dx=grid.dt / 4.0, values=vol_a.lam(xs_fine))
        path = simulate(POISSON, grid, 11)
        r0 = r0_exp(grid)
        rep_a = solve_monotone(compute_a(path, vol_a, r0, grid), SolverConfig())
        rep_t = solve_monotone(compute_a(path, vol_t, r0, grid), SolverConfig())
        assert rep_a.status == rep_t.status == STATUS_CONVERGED
        sup_field = grid.nan_sup(rep_a.field)
        assert grid.nan_sup(rep_a.field - rep_t.field) < 1e-4 * (1.0 + sup_field)


class TestAPrioriC1:
    def test_nonpositive_prime_gives_product(self):
        handle = ExponentHandle(LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),))))
        assert a_priori_c1(np.array([1.3 * 0.7]), 0.5, 1.0, 1.0, handle) == [pytest.approx(0.91)]

    def test_wiener_has_no_bound(self):
        handle = ExponentHandle(LevyModel(q=1.0))
        assert a_priori_c1(np.array([1.0]), 1.0, 1.0, 1.0, handle) == [None]

    def test_zero_prime_unit_product(self):
        handle = ExponentHandle(LevyModel())
        assert a_priori_c1(np.array([1.0, 0.0]), 1.0, 1.0, 1.0, handle) == [1.0, None]


class TestMildResidual:
    def test_degenerate_zero(self):
        model = LevyModel()
        factor = setup(model)
        rep = solve_monotone(factor, SolverConfig())
        res = mild_residual(rep, factor)
        assert np.max(res) < 1e-13

    def test_initial_row_is_zero(self):
        # at t = 0 the drift and stochastic integrals run over [0, 0]
        factor = setup(POISSON)
        rep = solve_monotone(factor, SolverConfig())
        res = mild_residual(rep, factor)
        assert res[0] == 0.0
        assert np.max(res) > 0.0

    def test_pure_drift_first_order(self):
        model = LevyModel(a=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 64, x_max=1.0)
        factor = setup(model, grid=grid)
        rep = solve_monotone(factor, SolverConfig())
        res = mild_residual(rep, factor)
        assert np.max(res) < 5.0 * grid.dt

    def test_compound_poisson_halving(self):
        base = simulate(POISSON, SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0), 11)
        vals = []
        for path in (base, refine_path(base, seed=80)):
            grid = SolveGrid(t_star=1.0, dt=path.dt, x_max=1.0)
            r0 = r0_exp(grid)
            factor = compute_a(path, VOL, r0, grid)
            rep = solve_monotone(factor, SolverConfig())
            vals.append(np.max(mild_residual(rep, factor)))
        assert 0.4 <= vals[1] / vals[0] <= 0.6

    def test_requires_converged(self):
        model = LevyModel(q=1.0)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        r0 = WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, 64.0), gamma=1.0)
        path = simulate(model, grid, 21)
        factor = compute_a(path, ConstantVol(1.0), r0, grid)
        rep = solve_monotone(factor, SolverConfig())
        with pytest.raises(RuntimeError):
            mild_residual(rep, factor)


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
        factor = setup(POISSON, seed=11)
        ra = solve_monotone(factor, SolverConfig(), h0="zero")
        rb = solve_monotone(factor, SolverConfig(), h0="factor")
        assert ra.status == rb.status == STATUS_CONVERGED
        d = np.abs(ra.field - rb.field)
        assert GRID.nan_sup(ra.field - rb.field) < 1e-8
        C = uniqueness_constant(factor, max(ra.iterate_l2_norms), max(rb.iterate_l2_norms))
        res = gronwall_check(np.where(GRID.valid_mask(), d, np.nan), C, GRID, atol=1e-8)
        assert res.holds_on_grid
        assert res.sup_d_le_bound

    def test_uniqueness_constant_reads_sup_abs_r0(self):
        # r0 = e^{-x} with its last node at -3: sup |r0| is 3 for r0 and -r0 alike
        values = np.exp(-GRID.x_wide)
        values[-1] = -3.0
        r0 = WeightedCurve(dx=GRID.dt, values=values, gamma=1.0)
        path = simulate(POISSON, GRID, 11)
        pos, neg = (compute_a(path, VOL, curve, GRID) for curve in (r0, r0.scaled(-1.0)))
        assert uniqueness_constant(pos, 1.0, 1.0) == uniqueness_constant(neg, 1.0, 1.0)

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
            factor = setup(model, grid=grid)
            rep = solve_monotone(factor, SolverConfig())
            sr = strong_residual(rep, factor, r0_prime=-np.exp(-grid.x_wide))
            sups.append(sr.sup)
        assert sups[1] / sups[0] == pytest.approx(0.25, abs=0.1)

    def test_poisson_within_linear_bound(self):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0)
        factor = setup(POISSON, grid=grid, seed=11)
        rep = solve_monotone(factor, SolverConfig())
        sr = strong_residual(rep, factor, r0_prime=-np.exp(-grid.x_wide))
        assert sr.sup < 10.0 * grid.dt

    def test_nonconstant_vol_rejected(self):
        factor = setup(POISSON, seed=11, vol=ExpAffineVol(c0=0.5, c1=0.1, beta=1.0))
        rep = solve_monotone(factor, SolverConfig())
        with pytest.raises(ValueError, match="constant volatility"):
            strong_residual(rep, factor)

    @pytest.mark.parametrize("r0_prime", [False, True])
    @pytest.mark.parametrize("model", [POISSON, LevyModel(a=0.2, q=1.0, nu=LevyMeasureSpec(atoms=((0.5, 1.0),)))])
    @pytest.mark.parametrize("n_x", [1, 2, 8])
    def test_matches_row_loop(self, n_x, model, r0_prime):
        # n_x = 1 leaves the last row two nodes, so a first-order end there
        grid = SolveGrid(t_star=0.5, dt=1.0 / 16, x_max=n_x / 16)
        factor = setup(model, grid=grid, seed=3)
        handle = ExponentHandle(model)
        rep = solve_monotone(factor, SolverConfig())
        assert rep.status == STATUS_CONVERGED
        r0p = -np.exp(-grid.x_wide) if r0_prime else None
        got = strong_residual(rep, factor, r0_prime=r0p)
        want = loop_strong_residual(rep, factor.r0, VOL, handle, r0_prime=r0p)
        assert (got.sup, got.l2) == (want.sup, want.l2)
        assert np.array_equal(got.per_t, want.per_t)

    def test_vanishing_r0_rejected(self):
        grid = GRID
        r0 = WeightedCurve(dx=grid.dt, values=np.zeros(grid.n_w + 1), gamma=1.0)
        path = simulate(LevyModel(), grid, 1)
        factor = compute_a(path, VOL, r0, grid)
        rep = solve_monotone(factor, SolverConfig())
        with pytest.raises(ValueError):
            strong_residual(rep, factor)


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

    def test_no_levels(self):
        assert explosion_sweep(POISSON, VOL, [], GRID, seed=5) == SweepResult(rows=(), first_explosion_level=None)

    def test_overflowing_negative_atom_explodes_by_the_cap(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((-0.25, 0.5),)))
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        path = simulate(model, grid, 1010)
        r0 = WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, 2.0**20), gamma=1.0)
        factor = compute_a(path, ConstantVol(0.3), r0, grid)
        rep = solve_monotone(factor, SolverConfig())
        assert (rep.status, rep.detail["rule"]) == (STATUS_EXPLOSION, "cap")

    @pytest.mark.parametrize(
        "model, vol, grid, n_threshold",
        [
            (SWEEP_POWERLAW, ConstantVol(0.3), SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0), 250),
            (JUMP_DIFFUSION, ExpAffineVol(c0=0.2, c1=0.1, beta=1.0), SolveGrid(t_star=0.5, dt=1.0 / 32, x_max=1.0), 1000),
        ],
        ids=["powerlaw", "jump_diffusion"],
    )
    def test_levels_equal_their_own_factors(self, monkeypatch, model, vol, grid, n_threshold):
        # the sweep builds one factor and scales it by each level: every
        # level's factor and report equal those of its own compute_a solve
        seen = []

        def record(factors, cfg):
            seen.append((factors, cfg, solve_batch(factors, cfg)))
            return seen[-1][2]

        monkeypatch.setattr(hjmm_solver, "solve_batch", record)
        levels = [2.0**k for k in range(0, 21, 4)]
        res = explosion_sweep(model, vol, levels, grid, seed=1010, n_threshold=n_threshold)
        monkeypatch.undo()
        (factors, cfg, reports), = seen
        path = simulate(model, grid, 1010, n_threshold)
        for k, row, got, rep in zip(levels, res.rows, factors, reports):
            r0 = WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, k), gamma=1.0)
            want = compute_a(path, vol, r0, grid)
            assert np.array_equal(got.r0.values, r0.values) and got.r0.gamma == r0.gamma
            assert np.array_equal(got.a, want.a, equal_nan=True)
            assert (got.b_bar, got.positivity_ok) == (want.b_bar, want.positivity_ok)
            assert_same_report(rep, solve_monotone(want, cfg))
            assert (row.status, row.n_iters) == (rep.status, rep.n_iters)
        if model is SWEEP_POWERLAW:
            assert {row.status for row in res.rows} == {STATUS_CONVERGED, STATUS_EXPLOSION}

    def test_top_of_the_double_range_converges(self):
        # flat r0 up to 2^1023 under atom jumps: finite integrals whose
        # trapezoid terms top the double range, with no overflow warning
        levels = [2.0**k for k in (1021, 1022, 1023)]
        with np.errstate(over="raise"):
            res = explosion_sweep(LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),))), ConstantVol(0.3), levels, GRID, seed=7)
        assert [row.status for row in res.rows] == [STATUS_CONVERGED] * 3


class TestJumpRows:
    def test_factor_and_mild_residual_read_the_path_rows(self, monkeypatch):
        # thousands of jumps, half of them beyond the horizon of the solve
        grid = SolveGrid(t_star=0.5, dt=1.0 / 8, x_max=1.0)
        path = simulate(SWEEP_POWERLAW, SolveGrid(t_star=1.0, dt=grid.dt, x_max=1.0), 1010, n_threshold=250)
        assert path.jump_times.size > 2000 and path.jump_rows[-1] > grid.n_t + 1
        vol = ConstantVol(0.3)
        r0 = WeightedCurve(dx=grid.dt, values=np.ones(grid.n_w + 1), gamma=1.0)

        def solve():
            factor = compute_a(path, vol, r0, grid)
            rep = solve_monotone(factor, SolverConfig())
            assert rep.status == STATUS_CONVERGED
            return factor, rep, mild_residual(rep, factor)

        factor, rep, mild = solve()
        # the jump product with each jump's row searched on the solve grid
        I2 = np.where(grid.valid_mask(), 1.0, np.nan)
        for s_m, y_m in zip(path.jump_times, path.jump_sizes):
            if s_m <= grid.t_star:
                i0 = int(np.searchsorted(grid.t, s_m, side="left"))
                lam_v = vol.lam((grid.t[i0:, None] - s_m) + grid.x_wide)
                I2[i0:] *= (1.0 + lam_v * y_m) * np.exp(-lam_v * y_m)
        assert np.array_equal(factor.I2, I2, equal_nan=True)
        monkeypatch.setattr(
            LevyPathRecord, "jump_rows", property(lambda p: np.searchsorted(grid.t, p.jump_times, side="left"))
        )
        want_factor, want_rep, want_mild = solve()
        assert np.array_equal(factor.a, want_factor.a, equal_nan=True)
        assert_same_report(rep, want_rep)
        assert np.array_equal(mild, want_mild)


# the explosion boundary across a family: classify (B3/B4 from J) against
# the solves of explosion_sweep; Indeterminate models are solved but not judged
FAMILY = {
    **{
        f"powerlaw-{alpha}": LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=alpha, support=(0.0, 1.0)),))
        for alpha in (0.25, 0.5, 1.0, 1.5, 1.75)
    },
    "exponential": LevyMeasureSpec(density_parts=(Exponential(c=1.0, beta=2.0, support=(0.0, INF)),)),
    "negative-atom": LevyMeasureSpec(atoms=((-0.25, 0.5),)),
    "negative-powerlaw": LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(-1.0, 0.0)),)),
}


@pytest.mark.parametrize("name", FAMILY)
def test_classify_agrees_with_explosion_sweep(name):
    model = LevyModel(nu=FAMILY[name])
    grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
    levels = [2.0**k for k in range(0, 21, 4)]
    res = explosion_sweep(model, ConstantVol(0.3), levels, grid, seed=1010, n_threshold=250)
    assert len(res.rows) == len(levels)
    report = classify(model)
    # B4 is B3's mirror: holds and fails swapped, undecidable kept
    assert report.flags["B4"] == {"holds": "fails", "fails": "holds"}.get(report.flags["B3"], "undecidable")
    regime = report.regime
    if regime == REGIME_GLOBAL:
        assert res.first_explosion_level is None, res.rows
    elif regime == REGIME_EXPLOSION:
        assert res.first_explosion_level is not None and res.first_explosion_level < 2.0**20, res.rows

# ---------------------------------------------------------------------------
# batched solve: every path must match a one-path-at-a-time reference loop
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# frozen reference: one step of the iteration and its bookkeeping as they were
# written with moving-frame fields throughout (J' values refilled into a NaN
# field, a remap to the natural frame and back per sum), so that the solver is
# compared with code it does not share
# ---------------------------------------------------------------------------


def ref_mask(grid):
    i = np.arange(grid.n_t + 1)[:, None]
    j = np.arange(grid.n_w + 1)[None, :]
    return i + j <= grid.n_w


def ref_nan_sup(field, grid):
    return float(np.nanmax(np.abs(field[ref_mask(grid)])))


def ref_sum_along_t(G, grid, rule="trapezoid"):
    i = np.arange(grid.n_t + 1)[:, None]
    j = np.arange(grid.n_w + 1)[None, :]
    Gn = np.where(j >= i, G[i, np.maximum(j - i, 0)], 0.0)
    if rule == "trapezoid":
        Gn[0, :] *= 0.5
    En = np.zeros_like(Gn)
    np.cumsum(Gn[:-1, :], axis=0, out=En[1:, :])
    if rule == "trapezoid":
        En[1:, :] += 0.5 * Gn[1:, :]
    return np.where(ref_mask(grid), En[i, np.minimum(i + j, grid.n_w)], np.nan)


def ref_on_triangle(fn, z, grid, what, domain_sup):
    mask = ref_mask(grid)
    zs = z[mask]
    bad = zs < 0.0
    if not bad.any():
        vals = fn(zs)
        bad = np.isinf(vals) & ((vals < 0.0) | (zs >= domain_sup))
    if bad.any():
        err = ExponentDomainError(zs[np.argmax(bad)], what=what)
        err.path = 0
        raise err
    out = np.full(mask.shape, np.nan)
    out[mask] = vals
    return out


def ref_apply_K(h, factor, exponent):
    grid, lam_w = factor.grid, factor.lam_w
    cum = cumulative_trapezoid(lam_w * h, grid.dt)
    with np.errstate(over="ignore"):
        jp = ref_on_triangle(exponent.J_prime, cum, grid, "J'", exponent.domain_sup)
        return factor.a * np.exp(grid.dt * ref_sum_along_t(jp * lam_w, grid))


def ref_l2_per_row(field_mat, grid, weights):
    outside = ~ref_mask(grid)
    with np.errstate(over="ignore"):
        y = field_mat * field_mat
        y *= weights
        np.copyto(y, 0.0, where=outside)
        panels = y[..., 1:] + y[..., :-1]
        panels *= grid.dt
        panels /= 2.0
        np.copyto(panels, 0.0, where=outside[:, 1:])
        return np.sqrt(panels.sum(axis=-1))


def loop_strong_residual(report, r0, vol, exponent, r0_prime=None):
    """strong_residual with d/dx r and the norms taken one row at a time, over
    each row's whole valid range."""
    grid, r, dt = report.grid, report.field, report.grid.dt
    lam = float(vol.lam(np.zeros(1))[0])
    r0v = r0.values[: grid.n_w + 1]
    if r0_prime is None:
        r0p = np.gradient(r0.values, dt)[: grid.n_w + 1]
    else:
        r0p = np.asarray(r0_prime, dtype=float)[: grid.n_w + 1]
    cum = cumulative_trapezoid(lam * np.where(ref_mask(grid), r, 0.0), dt)
    jpp = ref_on_triangle(exponent.J_second, cum, grid, "J''", exponent.domain_sup)
    term = ref_sum_along_t(jpp * r, grid) * (dt * lam * lam)
    rhs = r * (grid.shifted(r0p) / grid.shifted(r0v) + term)
    weights = np.exp(report.gamma * grid.x_wide)
    per_t = np.zeros(grid.n_t + 1)
    sup = 0.0
    for i in range(grid.n_t + 1):
        w = grid.n_w - i
        lhs = np.gradient(r[i, : w + 1], dt, edge_order=2 if w >= 2 else 1)
        diff = (lhs - rhs[i, : w + 1])[: grid.n_x + 1]
        per_t[i] = math.sqrt(trapezoid(diff**2 * weights[: grid.n_x + 1], dx=dt))
        sup = max(sup, float(np.max(np.abs(diff))))
    return StrongResidual(sup=sup, l2=float(np.max(per_t)), per_t=per_t)


def serial_solve(factor, vol, exponent, cfg, h0="zero", keep_iterates=False):
    """The monotone iteration for one path, written as a plain loop over the
    frozen reference step."""
    grid = factor.grid
    r0v = factor.r0.values[: grid.n_w + 1]
    sup_r0 = float(np.max(np.abs(r0v)))
    cap = cfg.cap if cfg.cap is not None else 1e8 * (1.0 + sup_r0)
    gamma = factor.r0.gamma
    r0_norm = math.sqrt(trapezoid(r0v**2 * np.exp(gamma * grid.x_wide), dx=grid.dt))
    (c1,) = a_priori_c1(np.array([factor.b_bar * r0_norm]), vol.lambda_bar, grid.t_star, gamma, exponent)
    z_probe = vol.lambda_bar * c1 / math.sqrt(gamma) if c1 is not None else vol.lambda_bar * cap * grid.x_max
    jp = exponent.J_prime(np.array([z_probe]))[0]
    if jp == -INF or (jp == INF and z_probe >= exponent.domain_sup):
        raise ExponentDomainError(z_probe)
    h = np.where(grid.valid_mask(), 0.0, np.nan) if h0 == "zero" else factor.a.copy()
    sups, l2s, iterates = [], [], []
    detail = {"h0": h0, "cap": cap}
    status = None
    for _ in range(cfg.max_iter):
        h_next = ref_apply_K(h, factor, exponent)
        sup = ref_nan_sup(h_next, grid)
        sups.append(sup)
        l2s.append(float(np.max(ref_l2_per_row(h_next, grid, np.exp(gamma * grid.x_wide)))))
        iterates.append(h_next.copy())
        if not math.isfinite(sup) or sup > cap:
            status, detail["rule"], h = STATUS_EXPLOSION, "cap", h_next
            break
        with np.errstate(invalid="ignore"):
            change = ref_nan_sup(h_next - h, grid)
        h = h_next
        if change < cfg.tol * (1.0 + sup):
            status, detail["rule"], detail["last_change"] = STATUS_CONVERGED, "tol", change
            break
    if status is None:
        status, detail["rule"], detail["last_change"] = STATUS_MAX_ITER, "max_iter", change
    return SolveReport(
        status=status, field=h, iterate_sup_norms=sups, iterate_l2_norms=l2s, c1=c1,
        n_iters=len(sups), grid=grid, gamma=gamma, detail=detail,
        iterates=iterates if keep_iterates else None,
    )


def assert_cap_stop(rep):
    """An exploded solve stops by the cap alone: its last sup norm is not
    finite or tops the cap."""
    assert rep.detail["rule"] == "cap"
    last = rep.iterate_sup_norms[-1]
    assert not math.isfinite(last) or last > rep.detail["cap"]


def assert_same_report(got, want):
    if got.status == STATUS_EXPLOSION:
        assert_cap_stop(got)
    assert (got.status, got.n_iters, got.c1, got.detail) == (want.status, want.n_iters, want.c1, want.detail)
    assert got.iterate_sup_norms == want.iterate_sup_norms
    assert got.iterate_l2_norms == want.iterate_l2_norms
    assert np.array_equal(got.field, want.field, equal_nan=True)
    assert (got.iterates is None) == (want.iterates is None)
    for a, b in zip(got.iterates or [], want.iterates or []):
        assert np.array_equal(a, b, equal_nan=True)


def path_factors(model, vol, grid, r0, n_paths=50, seed=1010):
    seeds = np.random.SeedSequence(seed).generate_state(n_paths, dtype=np.uint64)
    return [
        compute_a(simulate(model, grid, int(s)), vol, r0, grid)
        for s in seeds
    ]


MIXED = LevyModel(q=1.0, nu=LevyMeasureSpec(atoms=((0.5, 1.0),)))
FINE_GRID = SolveGrid(t_star=0.5, dt=1.0 / 32, x_max=1.0)
BATCH_SCENARIOS = {
    # criterion 10's Poisson set-up: every path converges
    "poisson": (LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),))), ConstantVol(0.3), GRID, 1.0, {}),
    # the benchmark's jump-diffusion model with exp-affine lambda
    "jump_diffusion": (
        LevyModel(a=0.2, q=1.0, nu=LevyMeasureSpec(atoms=((1.0, 0.5), (-0.2, 0.3)))),
        ExpAffineVol(c0=0.2, c1=0.1, beta=1.0), FINE_GRID, 1.0, {},
    ),
    # r0 = k e^{-x}: k = 3 and 6 mix Converged and ExplosionDetected paths
    "mixed_k1": (MIXED, ConstantVol(1.0), GRID, 1.0, {}),
    "mixed_k3": (MIXED, ConstantVol(1.0), GRID, 3.0, {}),
    "mixed_k6": (MIXED, ConstantVol(1.0), GRID, 6.0, {}),
    # mixes MaxIterReached and ExplosionDetected
    "mixed_k3_max_iter_4": (MIXED, ConstantVol(1.0), GRID, 3.0, {"max_iter": 4}),
}


class TestSolveBatch:
    @pytest.mark.parametrize("name", sorted(BATCH_SCENARIOS))
    def test_batch_matches_serial(self, name):
        model, vol, grid, k, cfg_kw = BATCH_SCENARIOS[name]
        r0 = WeightedCurve(dx=grid.dt, values=k * np.exp(-grid.x_wide), gamma=1.0)
        factors = path_factors(model, vol, grid, r0)
        cfg, handle = SolverConfig(**cfg_kw), ExponentHandle(model)
        reports = solve_batch(factors, cfg)
        for f, got in zip(factors, reports):
            assert_same_report(got, serial_solve(f, vol, handle, cfg))
            assert_same_report(solve_monotone(f, cfg), got)
        statuses = {rep.status for rep in reports}
        if name in ("mixed_k3", "mixed_k6"):
            assert statuses == {STATUS_CONVERGED, STATUS_EXPLOSION}
        if name == "mixed_k3_max_iter_4":
            assert statuses == {STATUS_MAX_ITER, STATUS_EXPLOSION}

    def test_factor_start_and_iterates(self):
        model, vol, grid, k, _ = BATCH_SCENARIOS["mixed_k3"]
        r0 = WeightedCurve(dx=grid.dt, values=k * np.exp(-grid.x_wide), gamma=1.0)
        factors = path_factors(model, vol, grid, r0, n_paths=12)
        cfg, handle = SolverConfig(), ExponentHandle(model)
        reports = solve_batch(factors, cfg, h0="factor", keep_iterates=True)
        for f, got in zip(factors, reports):
            assert_same_report(got, serial_solve(f, vol, handle, cfg, h0="factor", keep_iterates=True))

    @pytest.mark.parametrize("h0", ["zero", "factor"])
    @pytest.mark.parametrize("name", ["jump_diffusion", "mixed_k3"])
    def test_single_solve_matches_serial(self, name, h0):
        model, vol, grid, k, cfg_kw = BATCH_SCENARIOS[name]
        r0 = WeightedCurve(dx=grid.dt, values=k * np.exp(-grid.x_wide), gamma=1.0)
        cfg, handle = SolverConfig(**cfg_kw), ExponentHandle(model)
        for f in path_factors(model, vol, grid, r0, n_paths=6):
            want = serial_solve(f, vol, handle, cfg, h0=h0, keep_iterates=True)
            assert_same_report(solve_monotone(f, cfg, h0=h0, keep_iterates=True), want)

    def test_first_iterate_fault_is_path_zero(self):
        # J'(0) = -inf for a power law on (1, inf) with alpha < 1: the first
        # iterate from h0 = 0 faults at z = 0, on path 0 of any stack
        model = LevyModel(nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(1.0, INF)),)))
        handle, vol, cfg = ExponentHandle(model), ConstantVol(0.5), SolverConfig()
        assert handle.J_prime(np.array([0.0]))[0] == -INF
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        factors = path_factors(model, vol, grid, r0_exp(grid), n_paths=3, seed=4)
        with pytest.raises(ExponentDomainError) as excinfo:
            serial_solve(factors[0], vol, handle, cfg)
        want = excinfo.value
        for stack in (factors[:1], factors):
            with pytest.raises(ExponentDomainError) as excinfo:
                solve_batch(stack, cfg)
            got = excinfo.value
            assert (str(got), got.z, got.what, got.path) == (str(want), want.z, want.what, want.path)
            assert (str(got), got.z, got.path) == ("J' is infinite at z=0.0", 0.0, 0)

    def test_stopping_rule_named(self):
        factor = setup(POISSON, seed=11)
        rep = solve_monotone(factor, SolverConfig(max_iter=1))
        assert rep.status == STATUS_MAX_ITER
        assert rep.detail["rule"] == "max_iter"
        assert rep.detail["last_change"] > 0.0
        assert solve_monotone(factor, SolverConfig()).detail["rule"] == "tol"

    def test_sweep_matches_level_loop(self):
        model, vol = LevyModel(q=1.0), ConstantVol(1.0)
        levels = [2.0**k for k in range(0, 13, 3)]
        res = explosion_sweep(model, vol, levels, GRID, seed=5)
        path = simulate(model, GRID, 5)
        for k, row in zip(levels, res.rows):
            r0 = WeightedCurve(dx=GRID.dt, values=np.full(GRID.n_w + 1, k), gamma=1.0)
            factor = compute_a(path, vol, r0, GRID)
            rep = serial_solve(factor, vol, ExponentHandle(model), SolverConfig(cap=1e8 * (1.0 + k)))
            assert (row.level, row.status, row.n_iters, row.max_sup) == (
                k, rep.status, rep.n_iters, rep.iterate_sup_norms[-1]
            )
        assert {row.status for row in res.rows} == {STATUS_CONVERGED, STATUS_EXPLOSION}

    def test_cap_stop_matches_serial(self):
        # flat r0 = k under a power law on (0, 1]: level 16 converges, and
        # levels 32 and 64 stop by the cap; level 32's sup norm grows more
        # than tenfold in each of its last four iterations
        model = LevyModel(nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(0.0, 1.0)),)))
        vol, handle, cfg = ConstantVol(0.3), ExponentHandle(model), SolverConfig()
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        path = simulate(model, grid, 7, n_threshold=250)
        factors = [
            compute_a(path, vol, WeightedCurve(dx=grid.dt, values=np.full(grid.n_w + 1, k), gamma=1.0), grid)
            for k in (16.0, 32.0, 64.0)
        ]
        reports = solve_batch(factors, cfg)
        for f, got in zip(factors, reports):
            assert_same_report(got, serial_solve(f, vol, handle, cfg))
        assert [(rep.detail["rule"], rep.n_iters) for rep in reports] == [
            ("tol", 18), ("cap", 5), ("cap", 4)
        ]

    def test_lowest_failing_path_raises(self):
        # path 1 fails in an iteration (a scaled up; the a-priori bound and the
        # probe are unchanged), path 2 at its domain probe, which comes first
        # in time; a one-path-at-a-time loop raises the lowest path's error
        model = LevyModel(
            nu=LevyMeasureSpec(
                atoms=((1.0, 1.0),), density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),)
            )
        )
        vol, handle, cfg = ConstantVol(0.5), ExponentHandle(model), SolverConfig()
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        factors = path_factors(model, vol, grid, r0_exp(grid), n_paths=3, seed=3)
        factors[1] = dataclasses.replace(factors[1], a=factors[1].a * 40.0)
        factors[2] = dataclasses.replace(factors[2], b_bar=1e6)
        serial_solve(factors[0], vol, handle, cfg)
        errors = {}
        for p in (1, 2):
            with pytest.raises(ExponentDomainError) as excinfo:
                serial_solve(factors[p], vol, handle, cfg)
            errors[p] = excinfo.value
        assert errors[1].path is not None and errors[2].path is None  # iteration vs probe
        for order in ([0, 1, 2], [0, 2, 1], [2, 0, 1], [1, 2]):
            with pytest.raises(ExponentDomainError) as excinfo:
                solve_batch([factors[p] for p in order], cfg)
            want = errors[next(p for p in order if p in errors)]
            assert (excinfo.value.z, excinfo.value.what) == (want.z, want.what)

    def test_negative_argument_is_a_domain_error(self):
        # the jump below -1/lambda = -2 makes a(t, x) < 0 on seed 137, so the
        # inner integral of an iterate turns negative, where J' is not
        # evaluated; seed 1 converges and seed 113 fails the same way
        model = LevyModel(
            nu=LevyMeasureSpec(
                atoms=((1.0, 1.0),), density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),)
            )
        )
        vol, cfg = ConstantVol(0.5), SolverConfig()
        grid = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)
        paths = [simulate(model, grid, s) for s in (1, 137, 113)]
        factors = compute_a(paths, vol, r0_exp(grid), grid)
        assert np.nanmin(factors[1].a) < 0.0
        assert solve_monotone(factors[0], cfg).status == STATUS_CONVERGED
        errors = []
        for f in factors[1:]:
            with pytest.raises(ExponentDomainError) as excinfo:
                solve_monotone(f, cfg)
            errors.append(excinfo.value)
            assert excinfo.value.z < 0.0 and excinfo.value.what == "J'"
            assert "z >= 0" in str(excinfo.value)
        for order, want in (([0, 1, 2], errors[0]), ([0, 2, 1], errors[1]), ([2, 1], errors[1])):
            with pytest.raises(ExponentDomainError) as excinfo:
                solve_batch([factors[p] for p in order], cfg)
            assert (excinfo.value.z, excinfo.value.what) == (want.z, want.what)


def solve_fine_factor():
    """The random factor of the solve_fine benchmark's scenario (seed 1010)."""
    grid = SolveGrid(t_star=0.5, dt=1.0 / 128, x_max=1.0)
    return compute_a(simulate(JUMP_DIFFUSION, grid, 1010), ExpAffineVol(c0=0.2, c1=0.1, beta=1.0), r0_exp(grid), grid)


def mixed_stack():
    """Six paths that stop at different iterations, by both rules."""
    model, vol, grid, k, _ = BATCH_SCENARIOS["mixed_k3"]
    r0 = WeightedCurve(dx=grid.dt, values=k * np.exp(-grid.x_wide), gamma=1.0)
    return path_factors(model, vol, grid, r0, n_paths=6, seed=3)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestWorkBuffers:
    """The solve's held work buffers carry nothing from one iteration, stack
    or solve to the next."""

    @pytest.mark.parametrize("stack", [lambda: [solve_fine_factor()], mixed_stack])
    def test_each_iterate_is_the_public_K_of_the_last(self, stack):
        factors = stack()
        reports = solve_batch(factors, SolverConfig(), keep_iterates=True)
        if len(factors) > 1:
            assert len({rep.n_iters for rep in reports}) >= 3
            assert {rep.status for rep in reports} == {STATUS_CONVERGED, STATUS_EXPLOSION}
        for f, rep in zip(factors, reports):
            exponent = ExponentHandle(f.path.model)
            h = np.where(f.grid.valid_mask(), 0.0, np.nan)
            for it in rep.iterates:
                assert bits(apply_K(h, f, exponent)) == bits(it)
                h = it
            assert bits(rep.field) == bits(h)

    @pytest.mark.parametrize("case", ["full_stack", "shorter_stack", "zero_broadcast"])
    def test_lent_buffers_give_the_bits_of_fresh_ones(self, case):
        factors = mixed_stack()
        grid, exponent = factors[0].grid, ExponentHandle(factors[0].path.model)
        a = np.stack([f.a for f in factors])
        work = cum, Gp, Ep = (np.empty(a.shape), *grid.padded_pair((len(a),)))
        # what the buffers hold must not reach K(h): all of the x-integral and
        # of the second padded buffer, and the first on the triangle, the only
        # entries sum_along_t writes there (its zeros beyond stay zeros)
        junk = [np.nan, np.inf, -np.inf, 1e300]
        cum[...], Ep[...] = np.resize(junk, cum.shape), np.resize(junk, Ep.shape)
        np.copyto(Gp[..., :-1], np.resize(junk, cum.shape), where=grid.valid_mask())
        if case == "full_stack":
            h = a
        elif case == "shorter_stack":  # the buffers' leading slices serve it
            h, a = 0.5 * a[:4], a[:4]
        else:  # the first iterate from h0 = 0: one field against each path's a
            h = np.where(grid.valid_mask(), 0.0, np.nan)[None]
        stack = dataclasses.replace(factors[0], a=a)
        got = apply_K(h, stack, exponent, work)
        assert got.shape == a.shape
        assert bits(got) == bits(apply_K(h, stack, exponent))
        assert not any(np.shares_memory(got, w) for w in work)

    def test_solves_in_turn_match(self):
        def solve(factors):
            reports = solve_batch(factors, SolverConfig(), keep_iterates=True)
            kept = [(bits(rep.field), [bits(it) for it in rep.iterates]) for rep in reports]
            return reports, kept

        stack_a, stack_b = mixed_stack(), [solve_fine_factor()]
        assert stack_a[0].grid != stack_b[0].grid
        first, kept = solve(stack_a)
        solve(stack_b)
        again, _ = solve(stack_a)
        for got, want in zip(again, first):
            assert_same_report(got, want)
        # no report field or iterate is a view of a buffer a later solve wrote
        assert [(bits(rep.field), [bits(it) for it in rep.iterates]) for rep in first] == kept


class TestFactorIsTheOneSource:
    """A stack is solved with the model and lambda its factors were built from,
    so its factors must agree on both."""

    def test_stack_of_mixed_models_rejected(self):
        cfg = SolverConfig()
        paths = [simulate(m, GRID, 7) for m in (POISSON, LevyModel(q=1.0))]
        with pytest.raises(ValueError, match="model"):
            solve_batch(compute_a(paths, VOL, r0_exp(), GRID), cfg)
        # an equal model built apart is the same model
        twin = simulate(LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 2.0),))), GRID, 8)
        factors = compute_a([paths[0], twin], VOL, r0_exp(), GRID)
        for f, got in zip(factors, solve_batch(factors, cfg)):
            assert_same_report(got, solve_monotone(f, cfg))

    def test_stack_of_mixed_lambda_bar_rejected(self):
        # two tables equal on the grid but not beyond it: one lam_w, two lambda_bar
        n = GRID.n_w + 1
        vols = [TabulatedVol(dx=GRID.dt, values=np.append(np.full(n, 0.5), top)) for top in (0.5, 2.0)]
        path = simulate(POISSON, GRID, 7)
        factors = [compute_a(path, vol, r0_exp(), GRID) for vol in vols]
        assert np.array_equal(factors[0].lam_w, factors[1].lam_w)
        with pytest.raises(ValueError, match="volatility"):
            solve_batch(factors, SolverConfig())


class TestWeightedSpace:
    """The solve's weighted norms are those of r0's space: its gamma, and
    norm_l2gamma bit for bit."""

    MODEL = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),)))  # J' <= 0
    VOL = ConstantVol(0.3)

    def factor(self, r0):
        path = simulate(self.MODEL, GRID, 7)
        assert path.jump_times.size == 0  # so b = 1 and a(t, x) = r0(t + x)
        return compute_a(path, self.VOL, r0, GRID)

    def solve(self, r0):
        return solve_monotone(self.factor(r0), SolverConfig())

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0])
    def test_norms_are_those_of_r0(self, gamma):
        r0 = r0_exp(GRID, gamma)
        assert r0.values.size == GRID.n_w + 1
        rep = self.solve(r0)
        assert rep.gamma == gamma
        # c1 = b_bar ||r0|| = ||r0|| where J' <= 0; the first iterate is a,
        # whose largest row is row 0, r0 itself
        assert rep.iterate_l2_norms[0] == rep.c1 == norm_l2gamma(r0)

    def test_stack_of_mixed_gamma_rejected(self):
        factors = [self.factor(r0_exp(GRID, gamma)) for gamma in (1.0, 0.5)]
        with pytest.raises(ValueError, match="gamma"):
            solve_batch(factors, SolverConfig())

    def test_huge_r0_scales_exactly(self):
        # r0 = 2^600 e^{-x}: its squares leave double range, its norms do not
        reps = [self.solve(r0_exp(GRID).scaled(k)) for k in (1.0, 2.0**600)]
        assert reps[1].status == STATUS_CONVERGED
        assert reps[1].c1 == 2.0**600 * reps[0].c1
        assert reps[1].iterate_l2_norms[0] == 2.0**600 * reps[0].iterate_l2_norms[0]


class TestCrop:
    """A solve on `SolveGrid.crop` equals the whole grid's solve on the crop:
    K is causal in t and in the natural maturity T = t + x."""

    VOLS = {
        "constant": ConstantVol(0.5),
        "exp_affine": ExpAffineVol(c0=0.2, c1=0.3, beta=1.5),
        "tabulated": TabulatedVol(dx=GRID.dt, values=0.4 + 0.2 * np.cos(np.arange(GRID.n_w + 1) / 3.0)),
    }
    # (t_star, T_max) inside GRID: the middle, the whole t-range, the whole T-range, the edge cases
    CROPS = [(0.5, 1.0), (1.0, 1.25), (0.25, 2.0), (0.0, 0.5), (0.5, 0.5)]

    @pytest.mark.parametrize("n_paths", [1, 6])
    @pytest.mark.parametrize("vol", sorted(VOLS))
    def test_iterates_equal_the_whole_solve_on_the_crop(self, vol, n_paths):
        vol = self.VOLS[vol]
        cfg, r0 = SolverConfig(max_iter=8), r0_exp()
        paths = [simulate(JUMP_DIFFUSION, GRID, int(s)) for s in np.random.SeedSequence(27).generate_state(n_paths)]
        whole = solve_batch(compute_a(paths, vol, r0, GRID), cfg, keep_iterates=True)
        for t_star, T_max in self.CROPS:
            crop = GRID.crop(t_star, T_max)
            mask, rows, cols = crop.valid_mask(), crop.n_t + 1, crop.n_w + 1
            for w, c in zip(whole, solve_batch(compute_a(paths, vol, r0, crop), cfg, keep_iterates=True)):
                assert len(c.iterates) >= 4
                for h_crop, h_whole in zip(c.iterates, w.iterates):
                    assert h_crop[mask].tobytes() == h_whole[:rows, :cols][mask].tobytes()
                    assert np.isnan(h_crop[~mask]).all()

    def test_crop_sizes(self):
        # a checkpoint at t = 0 gives one t-cell, a maturity at the checkpoint one x-cell
        assert (GRID.crop(0.0, 0.5).n_t, GRID.crop(0.0, 0.5).n_x) == (1, 7)
        assert (GRID.crop(0.5, 0.5).n_t, GRID.crop(0.5, 0.5).n_x) == (8, 1)
        assert (GRID.crop(0.0, 0.0).n_t, GRID.crop(0.0, 0.0).n_x) == (1, 1)
        assert GRID.crop(0.5, 1.0) == SolveGrid(t_star=0.5, dt=GRID.dt, x_max=0.5)
        np.testing.assert_array_equal(GRID.crop(0.25, 2.0).x_wide, GRID.x_wide)
        # a crop that covers the grid is the grid itself
        assert GRID.crop(GRID.t_star, GRID.x_max + GRID.t_star) is GRID
        grid = SolveGrid(t_star=0.3, dt=0.1, x_max=0.7)
        assert grid.crop(grid.t_star, grid.x_max + grid.t_star) is grid

    @pytest.mark.parametrize("t_star, T_max", [(1.5, 2.0), (1.0, 2.5), (0.0, 2.5)])
    def test_crop_beyond_the_grid_rejected(self, t_star, T_max):
        with pytest.raises(ValueError, match="not inside the grid"):
            GRID.crop(t_star, T_max)

    @pytest.mark.parametrize(
        "t_star, T_max, error",
        [
            (-0.5, 1.0, "crop t_star=-0.5 is not inside the grid on a node"),
            (0.33, 1.0, "crop t_star=0.33 is not inside the grid on a node"),
            (0.5, 1.03, "crop T_max=1.03 is not inside the grid on a node"),
            (0.5, 0.25, "crop T_max=0.25 is before t_star=0.5"),
        ],
        ids=["negative_t_star", "off_node_t_star", "off_node_T_max", "T_max_before_t_star"],
    )
    def test_bad_point_rejected(self, t_star, T_max, error):
        # each was snapped to a node before: t_star 0.0625 and 0.3125, T_max 1.0, x_max = dt
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            GRID.crop(t_star, T_max)


class TestGridNodes:
    @pytest.mark.parametrize("dt", [0.4, 0.3])
    def test_dt_not_dividing_x_max_rejected(self, dt):
        # 0.4 and 0.3 would end the grid at 0.8 and 0.9, short of x_max = 1
        with pytest.raises(ValueError, match=f"dt={dt} must divide x_max=1.0"):
            SolveGrid(t_star=dt, dt=dt, x_max=1.0)

    def test_node_within_its_tolerance(self):
        # 3 * 0.1 is 0.30000000000000004, and 0.3 / 0.1 is 2.9999999999999996
        grid = SolveGrid(t_star=0.3, dt=0.1, x_max=0.7)
        assert grid.node(0.3, grid.n_t, "t") == grid.node(3 * 0.1, grid.n_t, "t") == 3
        assert grid.node(1.0 + 0.9e-9, grid.n_w, "T") == 10
        assert grid.node(-0.9e-9, 0, "t") == 0

    @pytest.mark.parametrize("t, last", [(1.0 + 1.1e-9, 10), (0.35, 10), (-0.1, 10), (0.4, 3)])
    def test_off_node_or_beyond_last_raises_the_given_error(self, t, last):
        with pytest.raises(ValueError, match="^t=.* is off$"):
            SolveGrid(t_star=0.3, dt=0.1, x_max=0.7).node(t, last, f"t={t} is off")
