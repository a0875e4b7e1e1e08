"""Acceptance suite.

Each numbered criterion runs at its stated tolerance inside a timed guard
that prints one PASS/FAIL line (run pytest with -s to see them inline).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from levyhjmm.bond_market import (
    ForwardField,
    bond_price,
    hjm_drift_check,
    martingale_mc,
)
from levyhjmm.cli import main as cli_main
from levyhjmm.function_space import (
    WeightedCurve,
    l1_bound_check,
    sup_bound_check,
)
from levyhjmm.grids import SolveGrid
from levyhjmm.levy_analysis import (
    ExponentHandle,
    classify,
    eval_J,
    eval_J_prime,
    eval_J_second,
    mgf_consistency,
)
from levyhjmm.levy_model import LevyMeasureSpec, LevyModel, PowerLaw
from levyhjmm.path_sim import refine_path, simulate
from levyhjmm.random_factor import ConstantVol, ExpAffineVol, compute_a
from levyhjmm.hjmm_solver import (
    STATUS_CONVERGED,
    SolverConfig,
    explosion_sweep,
    gronwall_check,
    mild_residual,
    solve_monotone,
    strong_residual,
    uniqueness_constant,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} [{elapsed:.2f}s < {budget_s:.0f}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


def exp_decay_r0(grid, gamma=1.0, scale=1.0):
    return WeightedCurve(dx=grid.dt, values=scale * np.exp(-grid.x_wide), gamma=gamma)


def solve_scenario(model, vol, grid, seed, r0=None, gamma=1.0, **cfg_kw):
    path = simulate(model, grid, seed)
    factor = compute_a(path, vol, r0 or exp_decay_r0(grid, gamma), grid)
    report = solve_monotone(factor, SolverConfig(**cfg_kw))
    return factor, ExponentHandle(model), report


def triangle_err(grid, field, expect):
    worst = 0.0
    for i in range(grid.n_t + 1):
        w = grid.row_width(i)
        ref = expect(grid.t[i], grid.x_wide[: w + 1])
        worst = max(worst, float(np.max(np.abs(field[i, : w + 1] - ref))))
    return worst


def random_subordinator_scenario(rng):
    """A GlobalSafe compound-Poisson setup with positive jumps."""
    n_atoms = int(rng.integers(1, 4))
    atoms = tuple(
        (float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 1.0))) for _ in range(n_atoms)
    )
    model = LevyModel(a=float(rng.uniform(0.0, 0.5)), nu=LevyMeasureSpec(atoms=atoms))
    if rng.random() < 0.5:
        vol = ConstantVol(float(rng.uniform(0.3, 1.0)))
    else:
        c0 = float(rng.uniform(0.3, 0.8))
        vol = ExpAffineVol(c0=c0, c1=float(rng.uniform(0.0, 0.4)), beta=1.0)
    scale = float(rng.uniform(0.5, 2.0))
    return model, vol, scale


def test_criterion_1_exponent_correctness():
    with criterion(1, "exponent correctness for the unit atom", 1.0):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),)))
        assert eval_J(model, 1.0) == pytest.approx(math.exp(-1) - 1, abs=1e-10)
        jp = eval_J_prime(model, 1.0)
        assert jp == pytest.approx(-math.exp(-1), abs=1e-9)
        h = 1e-5
        fd = (eval_J(model, 1.0 + h) - eval_J(model, 1.0 - h)) / (2 * h)
        assert fd == pytest.approx(jp, abs=1e-9)
        assert eval_J_second(model, 1.0) == pytest.approx(math.exp(-1), abs=1e-6)


def test_criterion_2_mgf_consistency():
    with criterion(2, "MGF consistency for atom and Wiener models", 30.0):
        atom = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),)))
        (row,) = mgf_consistency(atom, [1.0], t=1.0, n_paths=100_000, seed=202)
        assert row["gap"] < 3.0 * row["se"]
        wiener = LevyModel(q=1.0)
        (row,) = mgf_consistency(wiener, [1.0], t=1.0, n_paths=100_000, seed=203)
        assert row["t_J"] == pytest.approx(0.5)
        assert row["gap"] < 3.0 * row["se"]


def test_criterion_3_regime_classification():
    with criterion(3, "regime classification across the four model families", 5.0):
        poisson = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),)))
        rep = classify(poisson)
        assert rep.flags["B1"] == "holds" and rep.regime == "GlobalSafe"

        wiener_bit = LevyModel(q=0.3)
        assert classify(wiener_bit).regime == "ExplosionProne"

        shallow = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=0.5, support=(0.0, 1.0)),))
        )
        rep = classify(shallow)
        assert rep.regime == "GlobalSafe"
        assert rep.rho_estimate == pytest.approx(1.5, abs=0.05)

        steep = LevyModel(
            nu=LevyMeasureSpec(density_parts=(PowerLaw(c=1.0, alpha=1.5, support=(0.0, 1.0)),))
        )
        rep = classify(steep)
        assert rep.regime == "ExplosionProne"
        assert rep.rho_estimate == pytest.approx(0.5, abs=0.05)


def test_criterion_4_degenerate_exactness():
    with criterion(4, "degenerate scenarios recover closed forms", 10.0):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        _, _, rep = solve_scenario(LevyModel(), ConstantVol(0.5), grid, seed=1)
        assert rep.status == STATUS_CONVERGED and rep.n_iters <= 2
        assert triangle_err(grid, rep.field, lambda t, xs: np.exp(-(t + xs))) < 1e-12

        grid = SolveGrid(t_star=1.0, dt=1.0 / 256, x_max=1.0)
        _, _, rep = solve_scenario(LevyModel(a=1.0), ConstantVol(0.5), grid, seed=1)
        assert rep.status == STATUS_CONVERGED
        assert triangle_err(grid, rep.field, lambda t, xs: np.exp(-(t + xs))) < 1e-9


def test_criterion_5_monotone_iteration():
    with criterion(5, "monotone nonnegative iterates under the a-priori bound", 120.0):
        rng = np.random.default_rng(505)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        mask = grid.valid_mask()
        for case in range(20):
            model, vol, scale = random_subordinator_scenario(rng)
            assert classify(model).regime == "GlobalSafe"
            path = simulate(model, grid, int(rng.integers(1 << 30)))
            r0 = exp_decay_r0(grid, scale=scale)
            factor = compute_a(path, vol, r0, grid)
            rep = solve_monotone(factor, SolverConfig(), keep_iterates=True)
            assert rep.status == STATUS_CONVERGED, f"case {case} did not converge"
            prev = np.where(mask, 0.0, np.nan)
            for it in rep.iterates:
                assert np.nanmin(np.where(mask, it - prev, np.nan)) >= -1e-12
                assert np.nanmin(np.where(mask, it, np.nan)) >= 0.0
                prev = it
            if rep.c1 is not None:
                assert max(rep.iterate_l2_norms) <= 1.01 * rep.c1


def test_criterion_6_mild_residual_order():
    with criterion(6, "mild-form residual halves with dt (3 levels)", 120.0):
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 2.0),)))
        vol = ConstantVol(0.5)
        base = simulate(model, SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0), 11)
        paths = [base]
        for lvl in range(2):
            paths.append(refine_path(paths[-1], seed=600 + lvl))
        residuals = []
        for p in paths:
            grid = SolveGrid(t_star=1.0, dt=p.dt, x_max=1.0)
            r0 = exp_decay_r0(grid)
            factor = compute_a(p, vol, r0, grid)
            rep = solve_monotone(factor, SolverConfig())
            assert rep.status == STATUS_CONVERGED
            residuals.append(float(np.max(mild_residual(rep, factor))))
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 0.4 <= fine / coarse <= 0.6, f"residuals {residuals}"


def test_criterion_7_explosion_vs_existence():
    with criterion(7, "explosion dichotomy: Wiener explodes, subordinator never", 300.0):
        grid = SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0)
        levels = [2.0**k for k in range(0, 21)]
        wiener = explosion_sweep(
            LevyModel(q=1.0), ConstantVol(1.0), levels, grid, seed=700, max_iter=100
        )
        assert wiener.first_explosion_level is not None
        poisson = explosion_sweep(
            LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 1.0),))),
            ConstantVol(1.0),
            levels,
            grid,
            seed=700,
            max_iter=100,
        )
        assert poisson.first_explosion_level is None
        assert all(r.status == STATUS_CONVERGED for r in poisson.rows)


def test_criterion_8_uniqueness_two_start():
    with criterion(8, "two-start agreement and Gronwall certificate", 120.0):
        rng = np.random.default_rng(808)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        for case in range(10):
            model, vol, scale = random_subordinator_scenario(rng)
            path = simulate(model, grid, int(rng.integers(1 << 30)))
            r0 = exp_decay_r0(grid, scale=scale)
            factor = compute_a(path, vol, r0, grid)
            ra = solve_monotone(factor, SolverConfig(), h0="zero")
            rb = solve_monotone(factor, SolverConfig(), h0="factor")
            assert ra.status == rb.status == STATUS_CONVERGED
            sup_d = grid.nan_sup(ra.field - rb.field)
            assert sup_d < 1e-8, f"case {case}: two starts disagree by {sup_d}"
            C = uniqueness_constant(factor, max(ra.iterate_l2_norms), max(rb.iterate_l2_norms))
            d = np.where(grid.valid_mask(), np.abs(ra.field - rb.field), np.nan)
            res = gronwall_check(d, C, grid, atol=1e-8)
            assert res.holds_on_grid


def test_criterion_9_strong_residual():
    with criterion(9, "strong-form identity residuals", 120.0):
        vol = ConstantVol(0.5)
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 2.0),)))
        grid = SolveGrid(t_star=1.0, dt=1.0 / 32, x_max=1.0)
        factor, _, rep = solve_scenario(model, vol, grid, seed=11)
        sr = strong_residual(rep, factor, r0_prime=-np.exp(-grid.x_wide))
        assert sr.sup < 10.0 * grid.dt

        sups = []
        for dt_exp in (4, 5):
            grid = SolveGrid(t_star=1.0, dt=2.0**-dt_exp, x_max=1.0)
            factor, _, rep = solve_scenario(LevyModel(), vol, grid, seed=1)
            sr = strong_residual(rep, factor, r0_prime=-np.exp(-grid.x_wide))
            sups.append(sr.sup)
        assert 0.15 <= sups[1] / sups[0] <= 0.35  # O(dx^2)


def test_criterion_10_finance_layer():
    with criterion(10, "bond prices, drift condition and martingale check", 600.0):
        # P(t,t) = 1 exactly on a solved field
        model = LevyModel(nu=LevyMeasureSpec(atoms=((1.0, 0.5),)))
        vol = ConstantVol(0.3)
        grid = SolveGrid(t_star=1.0, dt=1.0 / 16, x_max=1.0)
        _, _, rep = solve_scenario(model, vol, grid, seed=10)
        field = ForwardField(rep.field, grid)
        assert bond_price(field, 0.5, 0.5) == 1.0

        # flat 5% curve, horizon 2
        gridf = SolveGrid(t_star=0.5, dt=1.0 / 128, x_max=2.0)
        flat = ForwardField(np.where(gridf.valid_mask(), 0.05, np.nan), gridf)
        assert bond_price(flat, 0.0, 2.0) == pytest.approx(math.exp(-0.1), abs=1e-10)

        # drift-condition residual at dt = 1e-3 on the pure-drift scenario
        gridd = SolveGrid(t_star=1.0, dt=1e-3, x_max=1.0)
        dmodel = LevyModel(a=1.0)
        _, handle, drep = solve_scenario(dmodel, ConstantVol(0.5), gridd, seed=1)
        dfield = ForwardField(drep.field, gridd)
        _, res = hjm_drift_check(dfield, ConstantVol(0.5), handle, 0.5)
        assert np.max(res) < 1e-8

        # martingale Monte Carlo on the Poisson scenario
        r0 = exp_decay_r0(grid)
        mrep = martingale_mc(
            model,
            vol,
            r0,
            grid,
            SolverConfig(),
            n_paths=10_000,
            maturities=[1.0],
            t_checkpoints=[0.5],
            seed=1010,
        )
        row = mrep.rows[0]
        gap = abs(row.mean_discounted - row.reference)
        assert gap < 3.0 * row.std_error + 10.0 * grid.dt
        assert mrep.n_excluded_explosions == 0


def test_criterion_11_embedding_inequalities():
    with criterion(11, "embedding inequalities on 50 random spline curves", 10.0):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(1111)
        dx, x_max = 1.0 / 256, 8.0
        xs = np.arange(int(round(x_max / dx)) + 1) * dx
        for _ in range(50):
            knots = np.linspace(0.0, x_max, int(rng.integers(5, 12)))
            vals = rng.uniform(0.0, 3.0, size=knots.size)
            vals[-1] = 0.0
            curve = WeightedCurve(
                dx=dx,
                values=np.clip(CubicSpline(knots, vals)(xs), 0.0, None),
                gamma=float(rng.uniform(0.5, 2.0)),
            )
            assert sup_bound_check(curve, tol=1e-6).holds
            assert l1_bound_check(curve, tol=1e-6).holds


def test_criterion_12_reproducibility(tmp_path):
    with criterion(12, "byte-identical outputs for identical scenario + seed", 60.0):
        scenario = {
            "levy_model": {
                "a": 0.2,
                "q": 1.0,
                "nu": {"atoms": [[1.0, 0.5], [-0.2, 0.3]], "density_parts": []},
            },
            "volatility": {"kind": "constant", "value": 0.4},
            "r0": {"kind": "exp_decay", "beta": 1.0},
            "grid": {"t_star": 1.0, "dt": 0.0625, "x_max": 1.0},
            "gamma": 1.0,
            "solver": {"tol": 1e-10, "max_iter": 200},
            "seed": 321,
        }
        scen_file = tmp_path / "scen.json"
        scen_file.write_text(json.dumps(scenario))
        outs = []
        for run in ("run1", "run2"):
            out = tmp_path / run
            assert cli_main(["solve", str(scen_file), "--out-dir", str(out)]) == 0
            assert (
                cli_main(["simulate-path", str(scen_file), "--out-dir", str(out)]) == 0
            )
            outs.append(out)
        a, b = outs
        assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()
        ra = json.loads((a / "solve_report.json").read_text())
        rb = json.loads((b / "solve_report.json").read_text())
        ra.pop("timestamp"), rb.pop("timestamp")
        assert ra == rb
