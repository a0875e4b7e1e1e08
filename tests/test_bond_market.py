import math

import numpy as np
import pytest

from levyhjmm.function_space import WeightedCurve, l1_bound_check
from levyhjmm.grids import SolveGrid
from levyhjmm import bond_market, path_sim
from levyhjmm.levy_analysis import ExponentDomainError, ExponentHandle
from levyhjmm.levy_model import INF, Exponential, LevyMeasureSpec, LevyModel
from levyhjmm.path_sim import JumpCapacityError, simulate
from levyhjmm.random_factor import ConstantVol, ExpAffineVol, compute_a
from levyhjmm.function_space import trapezoid
from levyhjmm.hjmm_solver import SolverConfig, solve_monotone
from levyhjmm.bond_market import (
    ForwardField,
    MartingaleReport,
    MartingaleRow,
    bond_price,
    hjm_drift_check,
    martingale_mc,
)

GRID = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
POISSON = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),)))


def constant_field(value, grid=GRID):
    return ForwardField(np.where(grid.valid_mask(), value, np.nan), grid)


def solved_field(model, grid=GRID, seed=3, vol=ConstantVol(0.5), gamma=1.0):
    r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=gamma)
    path = simulate(model, grid, seed)
    factor = compute_a(path, vol, r0, grid)
    rep = solve_monotone(factor, SolverConfig())
    assert rep.status == "Converged"
    return ForwardField(rep.field, grid), rep, r0, vol


class TestFrames:
    def test_frame_guards(self):
        # a field is stored in the moving frame; only SolveGrid.sum_along_t reads it in the natural frame
        vals = constant_field(0.05).values
        with pytest.raises(ValueError, match="field shape"):
            ForwardField(vals[:, :-1], GRID)


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
            curve = WeightedCurve(dx=g.dt, values=field.values[i, : w + 1], gamma=r0.gamma)
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

    def test_iteration_spread_matches_serial(self):
        # the benchmark's 16-path criterion-10 set-up; paths are simulated on
        # GRID and solved on the region priced
        r0 = WeightedCurve(dx=GRID.dt, values=np.exp(-GRID.x_wide), gamma=1.0)
        vol, cfg = ConstantVol(0.3), SolverConfig()
        rep = martingale_mc(POISSON, vol, r0, GRID, cfg, n_paths=16, maturities=[1.0], t_checkpoints=[0.5], seed=1010)
        crop = GRID.crop(0.5, 1.0)
        assert rep.region == (0.5, 1.0) and (crop.n_t, crop.n_x) == (8, 8)
        iters = []
        for ps in np.random.SeedSequence(1010).generate_state(16, dtype=np.uint64):
            path = simulate(POISSON, GRID, int(ps))
            factor = compute_a(path, vol, r0, crop)
            iters.append(solve_monotone(factor, cfg).n_iters)
        assert (rep.n_iters_min, rep.n_iters_median, rep.n_iters_max) == (
            min(iters), float(np.median(iters)), max(iters)
        )

    # seed 21 of this set-up: paths 1, 3 and 4 explode on the whole grid
    EXPLODING = (
        LevyModel(q=1.0, nu=LevyMeasureSpec(atoms=((0.5, 1.0),))),
        ConstantVol(1.0),
        WeightedCurve(dx=GRID.dt, values=3.0 * np.exp(-GRID.x_wide), gamma=1.0),
    )

    def test_blocks_do_not_change_the_report(self, monkeypatch):
        # 10 paths in blocks of 4 (the last one short) against one path per
        # block; checkpoint 1.0 makes the region read the whole grid
        model, vol, r0 = self.EXPLODING
        per_path = (GRID.n_t + 1) * (GRID.n_w + 1)
        reports = []
        for block in (4, 1):
            monkeypatch.setattr(bond_market, "_BLOCK_ENTRIES", block * per_path)
            reports.append(
                martingale_mc(model, vol, r0, GRID, SolverConfig(), n_paths=10, maturities=[1.0, 2.0],
                              t_checkpoints=[0.5, 1.0], seed=21)
            )
        assert reports[0] == reports[1]
        assert reports[0].region == (1.0, 2.0)
        assert 0 < reports[0].n_exploded < 10

    def test_exclusion_counts_only_the_region_read(self):
        # the paths of seed 21 that explode on the whole grid converge on the
        # region that checkpoint 0.5 reads, and are priced
        model, vol, r0 = self.EXPLODING
        cfg = SolverConfig()
        args = dict(n_paths=10, maturities=[1.0, 2.0], seed=21)
        whole = martingale_mc(model, vol, r0, GRID, cfg, t_checkpoints=[0.5, 1.0], **args)
        read = martingale_mc(model, vol, r0, GRID, cfg, t_checkpoints=[0.5], **args)
        assert (whole.n_exploded, read.n_exploded, read.n_not_converged) == (3, 0, 0)
        assert read.region == (0.5, 2.0) and read.rows[0].n_paths == 10
        crop = GRID.crop(0.5, 2.0)
        statuses = []
        for ps in np.random.SeedSequence(21).generate_state(10, dtype=np.uint64):
            path = simulate(model, GRID, int(ps))
            statuses.append(tuple(solve_monotone(compute_a(path, vol, r0, g), cfg).status for g in (GRID, crop)))
        assert [k for k, (on_grid, _) in enumerate(statuses) if on_grid == "ExplosionDetected"] == [1, 3, 4]
        assert all(on_crop == "Converged" for _, on_crop in statuses)

    # J' is infinite past z = 2 on this model; some paths fail their domain probe
    TAIL_MODEL = LevyModel(
        nu=LevyMeasureSpec(atoms=((1.0, 1.0),), density_parts=(Exponential(c=1.0, beta=2.0, support=(-INF, -1.0)),))
    )
    TAIL_GRID = SolveGrid(t_star=1.0, dt=1.0 / 8, x_max=1.0)

    def _serial_outcomes(self, seed, n_paths, maturity=1.0, checkpoint=0.5):
        """Per path: None, or the error one path at a time meets, solved on
        the region that _martingale's points read."""
        grid, model = self.TAIL_GRID, self.TAIL_MODEL
        r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=1.0)
        crop = grid.crop(checkpoint, maturity)
        outcomes = []
        for ps in np.random.SeedSequence(seed).generate_state(n_paths, dtype=np.uint64):
            try:
                factor = compute_a(simulate(model, grid, int(ps)), ConstantVol(0.5), r0, crop)
                solve_monotone(factor, SolverConfig())
                outcomes.append(None)
            except (ExponentDomainError, JumpCapacityError) as err:
                outcomes.append(err)
        return outcomes

    def _martingale(self, seed, n_paths, maturity=1.0, checkpoint=0.5):
        grid = self.TAIL_GRID
        r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=1.0)
        return martingale_mc(self.TAIL_MODEL, ConstantVol(0.5), r0, grid, SolverConfig(), n_paths=n_paths,
                             maturities=[maturity], t_checkpoints=[checkpoint], seed=seed)

    @pytest.mark.parametrize(
        "maturities, t_checkpoints, message",
        [
            ([1.0], [0.33], "t_checkpoint=0.33 is not on the time grid"),
            ([2.5], [0.5], "T-t=2.5 not within the grid for t=0.0"),
            ([0.25], [0.5], "maturity T=0.25 before t=0.5"),
        ],
    )
    def test_points_checked_before_any_path(self, monkeypatch, maturities, t_checkpoints, message):
        def no_paths(*args):
            raise AssertionError("simulate_paths called")

        monkeypatch.setattr(bond_market, "simulate_paths", no_paths)
        r0 = WeightedCurve(dx=GRID.dt, values=np.exp(-GRID.x_wide), gamma=1.0)
        with pytest.raises(ValueError, match=message):
            martingale_mc(POISSON, ConstantVol(0.3), r0, GRID, SolverConfig(), n_paths=4,
                          maturities=maturities, t_checkpoints=t_checkpoints, seed=1)

    def test_domain_error_matches_serial_loop(self):
        # maturity 2.0 and checkpoint 1.0 read the whole grid, where seed 3 meets J' at z = 1e8
        outcomes = self._serial_outcomes(3, 12, 2.0, 1.0)
        assert outcomes[0] is None and any(outcomes)
        want = next(err for err in outcomes if err is not None)
        assert want.z == 1e8
        with pytest.raises(ExponentDomainError) as excinfo:
            self._martingale(3, 12, 2.0, 1.0)
        assert (excinfo.value.z, excinfo.value.what) == (want.z, want.what)

    @pytest.mark.parametrize("max_jumps, kind", [(2, ExponentDomainError), (1, JumpCapacityError)])
    def test_simulation_error_keeps_path_order(self, monkeypatch, max_jumps, kind):
        # seed 4: path 4 (2 jumps) fails its domain probe and path 6 has 3
        # jumps, so the first error depends on max_jumps; all 12 paths share
        # one block, which simulates path 6 before it solves path 4; the
        # region read is the whole grid
        monkeypatch.setattr(path_sim, "MAX_JUMPS", max_jumps)
        want = next(err for err in self._serial_outcomes(4, 12, 2.0, 1.0) if err is not None)
        assert type(want) is kind
        with pytest.raises(kind) as excinfo:
            self._martingale(4, 12, 2.0, 1.0)
        assert str(excinfo.value) == str(want)
        if kind is ExponentDomainError:
            assert (excinfo.value.z, excinfo.value.what) == (want.z, want.what)


def serial_martingale(model, vol, r0, grid, cfg, n_paths, maturities, t_checkpoints, seed):
    """martingale_mc as a plain loop: simulate on the grid, then compute_a,
    solve_monotone and bond_price on the region priced, one path at a time."""
    samples = {(T, t): [] for T in maturities for t in t_checkpoints}
    reference, n_exploded, n_not_converged, n_iters = {}, 0, 0, []
    crop = grid.crop(max(t_checkpoints), max(maturities))
    for ps in np.random.SeedSequence(seed).generate_state(n_paths, dtype=np.uint64):
        path = simulate(model, grid, int(ps))
        rep = solve_monotone(compute_a(path, vol, r0, crop), cfg)
        n_iters.append(rep.n_iters)
        if rep.status == "ExplosionDetected":
            n_exploded += 1
        elif rep.status == "MaxIterReached":
            n_not_converged += 1
        if rep.status != "Converged":
            continue
        field = ForwardField(rep.field, crop)
        if not reference:
            reference = {T: bond_price(field, 0.0, T) for T in maturities}
        for t in t_checkpoints:
            i = round(t / grid.dt)
            disc = math.exp(-float(trapezoid(rep.field[: i + 1, 0], dx=grid.dt))) if i > 0 else 1.0
            for T in maturities:
                samples[(T, t)].append(disc * bond_price(field, t, T))
    rows = []
    for T in maturities:
        for t in t_checkpoints:
            vals = np.array(samples[(T, t)])
            rows.append(
                MartingaleRow(
                    maturity=T,
                    t_checkpoint=t,
                    mean_discounted=float(np.mean(vals)),
                    std_error=float(np.std(vals, ddof=1) / math.sqrt(vals.size)),
                    reference=reference[T],
                    n_paths=vals.size,
                )
            )
    return MartingaleReport(
        rows=tuple(rows),
        n_paths=n_paths,
        n_exploded=n_exploded,
        n_not_converged=n_not_converged,
        n_iters_min=min(n_iters),
        n_iters_median=float(np.median(n_iters)),
        n_iters_max=max(n_iters),
        region=(crop.t_star, crop.x_max + crop.t_star),
    )


class TestBlockPipeline:
    """martingale_mc (stacked compute_a, one solve and one pricing pass per
    block) against the one-path-at-a-time loop, compared with ==."""

    GRID32 = SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0)
    JUMP_DIFFUSION = LevyModel(a=0.2, q=1.0, nu=LevyMeasureSpec(atoms=((1.0, 0.5), (-0.2, 0.3))))

    @pytest.fixture
    def solved_per_call(self, monkeypatch):
        """The number of factors each solve_batch call of martingale_mc gets."""
        sizes, solve_batch = [], bond_market.solve_batch

        def spy(factors, *args, **kwargs):
            sizes.append(len(factors))
            return solve_batch(factors, *args, **kwargs)

        monkeypatch.setattr(bond_market, "solve_batch", spy)
        return sizes

    @pytest.mark.parametrize("block_paths", [None, 7])
    def test_jump_diffusion_equals_serial_loop(self, monkeypatch, solved_per_call, block_paths):
        grid = self.GRID32
        if block_paths is not None:
            monkeypatch.setattr(bond_market, "_BLOCK_ENTRIES", block_paths * (grid.n_t + 1) * (grid.n_w + 1))
        r0 = WeightedCurve(dx=grid.dt, values=np.exp(-grid.x_wide), gamma=1.0)
        vol, cfg = ExpAffineVol(c0=0.2, c1=0.1, beta=1.0), SolverConfig()
        # the checkpoints and maturities include t = 0 and T = t
        args = (self.JUMP_DIFFUSION, vol, r0, grid, cfg, 40, [1.0, 2.0], [0.0, 0.5, 1.0], 4242)
        got, want = martingale_mc(*args), serial_martingale(*args)
        assert got == want
        # at t = 0 every path prices the same r0
        assert got.rows[0].mean_discounted == pytest.approx(got.rows[0].reference, rel=1e-14)
        # with a Brownian part no two paths are equal: every path is solved
        assert sum(solved_per_call) == 40

    @pytest.mark.parametrize("block_paths", [None, 7])
    def test_repeated_paths_equal_serial_loop(self, monkeypatch, solved_per_call, block_paths):
        # q = 0 and one atom of mass 0.5: about e^{-0.5} of the paths have no
        # jump on [0, 1] and so the same L; each block solves such a path once
        if block_paths is not None:
            monkeypatch.setattr(bond_market, "_BLOCK_ENTRIES", block_paths * (GRID.n_t + 1) * (GRID.n_w + 1))
        r0 = WeightedCurve(dx=GRID.dt, values=np.exp(-GRID.x_wide), gamma=1.0)
        args = (POISSON, ConstantVol(0.3), r0, GRID, SolverConfig(), 40, [1.0, 2.0], [0.0, 0.5, 1.0], 1010)
        got, want = martingale_mc(*args), serial_martingale(*args)
        assert got == want
        block = bond_market._BLOCK_ENTRIES // ((GRID.n_t + 1) * (GRID.n_w + 1))
        assert len(solved_per_call) == -(-40 // block)
        assert sum(solved_per_call) < 40

    def test_exploding_paths_equal_serial_loop(self, monkeypatch):
        monkeypatch.setattr(bond_market, "_BLOCK_ENTRIES", 4 * (GRID.n_t + 1) * (GRID.n_w + 1))
        r0 = WeightedCurve(dx=GRID.dt, values=3.0 * np.exp(-GRID.x_wide), gamma=1.0)
        model, vol = LevyModel(q=1.0, nu=LevyMeasureSpec(atoms=((0.5, 1.0),))), ConstantVol(1.0)
        # checkpoint 1.0 makes the region read the whole grid
        args = (model, vol, r0, GRID, SolverConfig(), 10, [1.0, 2.0], [0.0, 0.5, 1.0], 21)
        got = martingale_mc(*args)
        assert got == serial_martingale(*args)
        assert 0 < got.n_exploded < 10

    def test_benchmark_report_pinned(self):
        # the 16-path criterion-10 set-up of the benchmark, seed 1010, solved on t <= 0.5, T <= 1
        r0 = WeightedCurve(dx=GRID.dt, values=np.exp(-GRID.x_wide), gamma=1.0)
        rep = martingale_mc(POISSON, ConstantVol(0.3), r0, GRID, SolverConfig(), n_paths=16,
                            maturities=[1.0], t_checkpoints=[0.5], seed=1010)
        assert rep.rows == (
            MartingaleRow(maturity=1.0, t_checkpoint=0.5, mean_discounted=0.5392688766635385,
                          std_error=0.005125556720530418, reference=0.5313542653330348, n_paths=16),
        )
        assert (rep.n_paths, rep.n_exploded, rep.n_not_converged) == (16, 0, 0)
        assert (rep.n_iters_min, rep.n_iters_median, rep.n_iters_max) == (5, 5.0, 5)
        assert rep.region == (0.5, 1.0)

    def test_negative_argument_error_keeps_path_order(self):
        # seed 36, on the whole grid: paths 9 and 11 reach J' at a negative
        # argument (a < 0 after a jump below -2), path 10 fails no check;
        # 0 .. 8 converge
        outcomes = TestMartingale()._serial_outcomes(36, 12, 2.0, 1.0)
        first = next(k for k, err in enumerate(outcomes) if err is not None)
        assert first == 9 and outcomes[9].z < 0.0 and outcomes[11].z < 0.0
        with pytest.raises(ExponentDomainError) as excinfo:
            TestMartingale()._martingale(36, 12, 2.0, 1.0)
        assert (excinfo.value.z, excinfo.value.what) == (outcomes[9].z, outcomes[9].what)
