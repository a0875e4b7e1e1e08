import math

import numpy as np
import pytest

from levyhjmm import path_sim
from levyhjmm.grids import SolveGrid
from levyhjmm.levy_model import (
    INF,
    Exponential,
    LevyMeasureSpec,
    LevyModel,
    PowerLaw,
    Uniform,
    moment_integral,
)
from levyhjmm.path_sim import (
    JumpCapacityError,
    LevyPathRecord,
    compensator_m_n,
    _grid_values,
    jump_law,
    refine_path,
    sample_terminal,
    simulate,
    simulate_paths,
)

POISSON = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),)))
MIXED = LevyModel(
    a=0.3,
    q=1.0,
    nu=LevyMeasureSpec(
        atoms=((1.0, 0.5), (-0.2, 0.4)),
        density_parts=(Exponential(c=1.0, beta=3.0, support=(0.0, INF)),),
    ),
)


def grid(t_star, dt):
    """The solve grid a path is simulated on; a path reads only its t-nodes."""
    return SolveGrid(t_star=t_star, dt=dt, x_max=t_star)


class TestCompensator:
    def test_atom_inside_band(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((0.5, 1.0),)))
        assert compensator_m_n(model, 4) == 0.5

    def test_empty_band(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((0.5, 1.0),)))
        assert compensator_m_n(model, 1) == 0.0

    def test_powerlaw_band(self):
        model = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),))
        )
        # int_{0.01}^{1} y^{-0.5} dy = 2 (1 - 0.1)
        assert compensator_m_n(model, 100) == pytest.approx(1.8, abs=1e-10)

    def test_unit_atom_not_compensated(self):
        # the exponent compensates on the open interval (-1, 1) only
        assert compensator_m_n(POISSON, 1000) == 0.0

    def test_signed_negative_band(self):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((-0.5, 2.0),)))
        assert compensator_m_n(model, 10) == -1.0


class TestSimulate:
    def test_pure_drift_grid(self):
        path = simulate(LevyModel(a=1.0), grid(1.0, 0.25), 0)
        np.testing.assert_allclose(path.grid_values, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert path.jump_times.size == 0

    def test_reproducible(self):
        a, b = simulate(MIXED, grid(1.0, 1.0 / 16), 42), simulate(MIXED, grid(1.0, 1.0 / 16), 42)
        np.testing.assert_array_equal(a.grid_values, b.grid_values)
        np.testing.assert_array_equal(a.jump_times, b.jump_times)
        np.testing.assert_array_equal(a.jump_sizes, b.jump_sizes)
        np.testing.assert_array_equal(a.brownian_increments, b.brownian_increments)

    def test_grid_reproduction_invariant(self):
        path = simulate(MIXED, grid(1.0, 1.0 / 16), 5)
        recon = np.array([path.value_at(t) for t in path.t])
        np.testing.assert_allclose(recon, path.grid_values, atol=1e-12)

    def test_jump_count_mean(self):
        # Poisson(0.5 T*) count over 10^4 paths
        counts = [
            simulate(POISSON, grid(2.0, 0.5), s).jump_times.size
            for s in range(10_000)
        ]
        mean, se = np.mean(counts), np.std(counts) / math.sqrt(len(counts))
        assert abs(mean - 1.0) < 3 * se

    def test_wiener_terminal_variance(self):
        vals = [
            simulate(LevyModel(q=1.0), grid(1.0, 1.0 / 8), s).grid_values[-1]
            for s in range(10_000)
        ]
        var = np.var(vals)
        se = math.sqrt(2.0 / len(vals))  # Var of sample variance of N(0,1)
        assert abs(var - 1.0) < 3 * se

    def test_jumps_respect_threshold_and_support(self):
        model = LevyModel(
            nu=LevyMeasureSpec(
                atoms=((1.5, 0.8),),
                density_parts=(
                    Uniform(c=2.0, support=(-0.5, -0.1)),
                    PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),
                ),
            )
        )
        n = 50
        path = simulate(model, grid(4.0, 0.5), 9, n_threshold=n)
        assert np.all(np.abs(path.jump_sizes) > 1.0 / n)
        for y in path.jump_sizes:
            ok = y == 1.5 or (-0.5 <= y <= -0.1) or (0.0 < y <= 1.0)
            assert ok
        assert np.all(np.diff(path.jump_times) >= 0)
        assert np.all((path.jump_times > 0) & (path.jump_times <= 4.0))

    def test_terminal_mean_matches_restricted_moments(self):
        model = MIXED
        n_thr = 1000
        thr = 1.0 / n_thr
        expected = (
            model.a
            - compensator_m_n(model, n_thr)
            + moment_integral(model.nu, 1, (thr, INF), open_lo=True)
            - moment_integral(model.nu, 1, (-INF, -thr), open_hi=True)
        )
        vals = sample_terminal(model, 1.0, 100_000, seed=17, n_threshold=n_thr)
        mean, se = np.mean(vals), np.std(vals) / math.sqrt(vals.size)
        assert abs(mean - expected) < 3 * se

    def test_log_uniform_sizes_at_alpha_zero(self):
        # alpha = 0: the restricted density 1/y on [lo, hi] has the quantile
        # lo (hi / lo)^u, so ln(size) is uniform on [ln lo, ln hi]
        lo, hi = 1e-3, 2.0
        nu = LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.0, support=(0.0, hi)),))
        (comp,) = path_sim.jump_components(nu, lo)
        assert (comp.lo, comp.hi) == (lo, hi)
        sizes = comp.sizes(np.random.default_rng(5).random(100_000))
        assert np.all((sizes >= lo) & (sizes <= hi))
        log_sizes = np.log(sizes)
        se = (math.log(hi) - math.log(lo)) / math.sqrt(12.0 * sizes.size)
        assert abs(np.mean(log_sizes) - 0.5 * (math.log(lo) + math.log(hi))) < 4 * se

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setattr(path_sim, "MAX_JUMPS", 10)
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 500.0),)))
        with pytest.raises(JumpCapacityError):
            simulate(model, grid(1.0, 0.5), 1)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            grid(1.0, 0.3)
        with pytest.raises(ValueError, match="n_threshold"):
            simulate(POISSON, grid(1.0, 0.25), 1, n_threshold=0)


OPPOSITE = LevyModel(nu=LevyMeasureSpec(atoms=((0.7, 2.0), (-0.4, 3.0))))


def assert_same_path(got, want):
    for name in ("grid_values", "jump_times", "jump_sizes", "brownian_increments"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.seed, got.m_n, got.dt, got.n_threshold) == (want.seed, want.m_n, want.dt, want.n_threshold)


class TestSimulatePaths:
    """Every record of a batch equals simulate on its own seed, bit for bit."""

    SEEDS = np.random.SeedSequence(2024).generate_state(24, dtype=np.uint64)

    @pytest.mark.parametrize("model", [MIXED, OPPOSITE, POISSON], ids=["mixed_q", "opposite_signs", "poisson"])
    @pytest.mark.parametrize("dt", [1.0 / 16, 1.0 / 10])
    def test_records_equal_simulate(self, model, dt):
        g = grid(1.0, dt)
        paths, failure = simulate_paths(jump_law(model, 1000), g, self.SEEDS)
        assert failure is None and len(paths) == self.SEEDS.size
        for seed, got in zip(self.SEEDS, paths):
            assert_same_path(got, simulate(model, g, int(seed)))
        n_jumps = [p.jump_times.size for p in paths]
        if model is POISSON:
            assert min(n_jumps) == 0 < max(n_jumps)  # paths without jumps among the others
        if model is OPPOSITE:
            sizes = np.concatenate([p.jump_sizes for p in paths])
            assert sizes.min() < 0.0 < sizes.max()

    def test_capacity_error_keeps_earlier_paths(self, monkeypatch):
        # from the third seed on, the jump counts run 0, 2, 3, ...: path 2 tops the cap
        monkeypatch.setattr(path_sim, "MAX_JUMPS", 2)
        g, seeds = grid(1.0, 1.0 / 16), self.SEEDS[2:]
        outcomes = []
        for seed in seeds:
            try:
                outcomes.append(simulate(MIXED, g, int(seed)))
            except JumpCapacityError as err:
                outcomes.append(err)
        k = next(i for i, out in enumerate(outcomes) if isinstance(out, JumpCapacityError))
        assert k == 2
        paths, failure = simulate_paths(jump_law(MIXED, 1000), g, seeds)
        assert type(failure) is JumpCapacityError and str(failure) == str(outcomes[k])
        assert len(paths) == k
        for got, want in zip(paths, outcomes):
            assert_same_path(got, want)


class TestLeftLimit:
    def test_at_jump(self):
        rec = LevyPathRecord(
            t_star=1.0,
            dt=0.25,
            grid_values=np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
            jump_times=np.array([0.5]),
            jump_sizes=np.array([1.0]),
            brownian_increments=np.zeros(4),
            m_n=0.0,
            model=LevyModel(),
            n_threshold=1,
            seed=0,
        )
        assert rec.value_at(0.5) == 1.0  # L is right-continuous: the jump at t counts

    def test_piecewise_constant_replay(self):
        rec = LevyPathRecord(
            t_star=1.0,
            dt=0.125,
            grid_values=np.zeros(9),
            jump_times=np.array([0.3, 0.7]),
            jump_sizes=np.array([1.0, -0.5]),
            brownian_increments=np.zeros(8),
            m_n=0.0,
            model=LevyModel(),
            n_threshold=1,
            seed=0,
        )
        # replay oracle: piecewise-constant reconstruction
        for t in np.linspace(0.0, 1.0, 21):
            expect = sum(y for s, y in [(0.3, 1.0), (0.7, -0.5)] if s <= t)
            assert rec.value_at(t) == pytest.approx(expect, abs=1e-15)

    def test_out_of_range(self):
        path = simulate(LevyModel(a=1.0), grid(1.0, 0.25), 0)
        with pytest.raises(ValueError):
            path.value_at(1.5)


class TestJumpRows:
    """A jump's row is the first at which grid_values includes it."""

    def test_on_a_node_between_nodes_and_in_the_last_cell(self):
        # sizes 1, 2, 4 tell the jumps apart in every sum of them
        times, sizes = np.array([0.25, 0.3, 0.9]), np.array([1.0, 2.0, 4.0])
        values = _grid_values(LevyModel(), 0.25, 0.0, times, sizes, np.array([3]), np.zeros((1, 4)))[0]
        rec = LevyPathRecord(
            t_star=1.0, dt=0.25, grid_values=values, jump_times=times, jump_sizes=sizes,
            brownian_increments=np.zeros(4), m_n=0.0, model=LevyModel(), n_threshold=1, seed=0,
        )
        assert rec.jump_rows.tolist() == [1, 2, 4]
        assert values.tolist() == [sizes[rec.jump_rows <= i].sum() for i in range(5)]

    def test_simulated_paths(self):
        # unit atoms, no drift and no Brownian part: L(t_i) counts the jumps up to row i
        g = grid(1.0, 1.0 / 16)
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 4.0),)))
        paths = [simulate(model, g, seed) for seed in range(20)]
        assert sum(p.jump_times.size for p in paths) > 40
        for path in paths:
            rows = path.jump_rows
            assert path.grid_values.tolist() == [float(np.sum(rows <= i)) for i in range(g.n_t + 1)]


class TestRefine:
    def test_coarse_nodes_preserved(self):
        base = simulate(MIXED, grid(1.0, 1.0 / 16), 42)
        fine = refine_path(base, seed=7)
        np.testing.assert_allclose(fine.grid_values[::2], base.grid_values, atol=1e-12)
        np.testing.assert_array_equal(fine.jump_times, base.jump_times)
        assert fine.dt == base.dt / 2

    def test_bridge_increment_variance(self):
        # conditionally on the coarse path, the midpoint has variance dt/4
        rng_vals = []
        base = simulate(LevyModel(q=1.0), grid(1.0, 1.0 / 4), 3)
        for s in range(4000):
            fine = refine_path(base, seed=s)
            rng_vals.append(fine.brownian_increments[0])
        var = np.var(rng_vals)
        assert var == pytest.approx(base.dt / 4, rel=0.15)
        assert np.mean(rng_vals) == pytest.approx(base.brownian_increments[0] / 2, abs=0.02)
