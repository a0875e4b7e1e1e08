import json

import pytest

from levyhjmm.cli import EXIT_NOT_CONVERGED, main

DEGENERATE = {
    "levy_model": {"a": 0.0, "q": 0.0, "nu": {"atoms": [], "density_parts": []}},
    "volatility": {"kind": "constant", "value": 0.5},
    "r0": {"kind": "exp_decay", "beta": 1.0},
    "grid": {"t_star": 1.0, "dt": 0.0625, "x_max": 1.0},
    "gamma": 1.0,
    "solver": {"tol": 1e-10, "max_iter": 200},
    "seed": 7,
}

WIENER = {
    **DEGENERATE,
    "levy_model": {"a": 0.0, "q": 1.0, "nu": {"atoms": [], "density_parts": []}},
    "volatility": {"kind": "constant", "value": 1.0},
}

POISSON = {
    **DEGENERATE,
    "levy_model": {"a": 0.0, "q": 0.0, "nu": {"atoms": [[1.0, 0.5]], "density_parts": []}},
}


def write_scenario(tmp_path, scenario, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(scenario))
    return str(p)


class TestSolve:
    def test_degenerate_scenario(self, tmp_path):
        scen = write_scenario(tmp_path, DEGENERATE)
        assert main(["solve", scen, "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["status"] == "Converged"
        assert report["n_iters"] <= 2
        assert report["detail"]["rule"] == "tol"
        assert (tmp_path / "out" / "field.csv").exists()

    def test_explosion_exit_code(self, tmp_path):
        scen = dict(WIENER)
        scen["r0"] = {"kind": "flat", "level": 64.0}
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 4
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["status"] == "ExplosionDetected"
        assert report["detail"]["rule"] in ("cap", "growth-streak x10.0")

    def test_exponent_domain_exit_code(self, tmp_path):
        # heavy negative exponential tail: J' is infinite beyond z = 0.2, and
        # no a-priori bound exists, so the solver's domain pre-scan trips
        scen = dict(DEGENERATE)
        scen["levy_model"] = {
            "a": 0.0,
            "q": 0.0,
            "nu": {
                "atoms": [],
                "density_parts": [
                    {"kind": "exponential", "c": 1.0, "beta": 0.2, "support": [None, -1.0]}
                ],
            },
        }
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 3

    def test_negative_exponent_argument_exit_code(self, tmp_path):
        # seed 137 draws a jump below -1/lambda, so a(t, x) < 0 and an
        # iterate asks for J' at a negative argument
        scen = dict(DEGENERATE, seed=137, grid={"t_star": 1.0, "dt": 0.125, "x_max": 1.0})
        scen["levy_model"] = {
            "a": 0.0,
            "q": 0.0,
            "nu": {
                "atoms": [[1.0, 1.0]],
                "density_parts": [
                    {"kind": "exponential", "c": 1.0, "beta": 2.0, "support": [None, -1.0]}
                ],
            },
        }
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("support", [[-2.0, -1.0], [-1.0, 0.0]])
    def test_negative_powerlaw_solves(self, tmp_path, support):
        # the a-priori bound probes J' up to z ~ 1e11, where e^{z s} overflows
        scen = dict(DEGENERATE)
        scen["levy_model"] = {
            "a": 0.0,
            "q": 0.0,
            "nu": {
                "atoms": [],
                "density_parts": [
                    {"kind": "power_law", "c": 1.0, "alpha": 0.5, "support": support}
                ],
            },
        }
        scen["volatility"] = {"kind": "constant", "value": 0.3}
        scen["grid"] = {"t_star": 1.0, "dt": 0.125, "x_max": 1.0}
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["status"] == "Converged"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"levy_model": {"a": "oops"}})
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "levy_model" in capsys.readouterr().err

    def test_missing_grid_field_path(self, tmp_path, capsys):
        scen = {k: v for k, v in DEGENERATE.items() if k != "grid"}
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "grid" in capsys.readouterr().err


class TestClassify:
    def test_wiener_explosion_prone(self, tmp_path):
        scen = write_scenario(tmp_path, WIENER)
        assert main(["classify", scen, "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert report["regime"] == "ExplosionProne"
        assert report["flags"]["B3"] == "holds"

    def test_poisson_global_safe(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        main(["classify", scen, "--out-dir", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert report["regime"] == "GlobalSafe"
        assert report["lambda_bar_t_star"] == 0.5


class TestSweep:
    def test_wiener_sweep_has_explosion(self, tmp_path):
        scen = write_scenario(tmp_path, WIENER)
        out = tmp_path / "out"
        assert (
            main(["sweep-explosion", scen, "--out-dir", str(out), "--k-max-exp", "6"]) == 0
        )
        text = (out / "sweep.csv").read_text()
        assert "ExplosionDetected" in text
        summary = json.loads((out / "sweep.json").read_text())
        assert summary["first_explosion_level"] is not None


    def test_negative_atom_sweep_reports_explosion(self, tmp_path):
        # J' of the atom at -0.2 leaves double range near z = 3550 although it
        # is finite at every z: the levels above the boundary explode (by the
        # cap rule) instead of ending the sweep in an exponent domain error
        scen = write_scenario(
            tmp_path,
            {
                "levy_model": {"a": 0.2, "q": 1.0, "nu": {"atoms": [[1.0, 0.5], [-0.2, 0.3]], "density_parts": []}},
                "volatility": {"kind": "exp_affine", "c0": 0.2, "c1": 0.1, "beta": 1.0},
                "r0": {"kind": "exp_decay", "beta": 1.0},
                "grid": {"t_star": 0.5, "dt": 0.03125, "x_max": 1.0},
                "gamma": 1.0,
                "solver": {"tol": 1e-10, "max_iter": 200},
                "seed": 1010,
            },
        )
        out = tmp_path / "out"
        assert main(["sweep-explosion", scen, "--out-dir", str(out), "--k-max-exp", "8"]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines() if line[:1].isdigit()]
        assert [(float(k), status) for k, status, *_ in rows] == [
            (2.0**k, "Converged" if k <= 5 else "ExplosionDetected") for k in range(9)
        ]
        assert json.loads((out / "sweep.json").read_text())["first_explosion_level"] == 64.0

class TestOtherCommands:
    def test_report_exponent(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        assert main(["report-exponent", scen, "--out-dir", str(out), "--n-z", "11"]) == 0
        lines = (out / "exponent.csv").read_text().splitlines()
        assert lines[1] == "z,J,J_prime,J_second"
        assert len(lines) == 13

    def test_simulate_path_with_factor_dump(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        assert main(["simulate-path", scen, "--out-dir", str(out), "--dump-factor"]) == 0
        text = (out / "path.csv").read_text()
        assert "# jumps:" in text
        factor_lines = (out / "factor.csv").read_text().splitlines()
        assert factor_lines[0].startswith("# scenario_hash=")
        assert factor_lines[1] == "t,x,I1,I2,a"

    def test_price_table(self, tmp_path):
        scen = write_scenario(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        assert main(["price", scen, "--out-dir", str(out)]) == 0
        rows = (out / "price.csv").read_text().splitlines()
        assert rows[1] == "t,T,price"
        first = rows[2].split(",")
        assert float(first[2]) == 1.0  # P(0,0) = 1

    def test_price_not_converged_exit_code(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        assert main(["price", scen, "--out-dir", str(out), "--max-iter", "2"]) == EXIT_NOT_CONVERGED == 5
        assert "solve status: MaxIterReached" in capsys.readouterr().err
        assert not (out / "price.csv").exists()
        # solve on the same scenario exits 0 and reports the status in its report
        assert main(["solve", scen, "--out-dir", str(out), "--max-iter", "2"]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert (report["status"], report["detail"]["rule"]) == ("MaxIterReached", "max_iter")

    def test_check_martingale(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        assert (
            main(["check-martingale", scen, "--out-dir", str(out), "--n-paths", "40"]) == 0
        )
        report = json.loads((out / "martingale.json").read_text())
        assert report["rows"][0]["n_paths"] == 40
        assert report["n_exploded"] == 0 and report["n_not_converged"] == 0
        assert 1 <= report["n_iters_min"] <= report["n_iters_median"] <= report["n_iters_max"]
        assert "note" in report


class TestCsvContents:
    """Every line of every CSV output, rebuilt from the library objects."""

    SCENARIO = {
        **DEGENERATE,
        "levy_model": {"a": 0.1, "q": 0.25, "nu": {"atoms": [[1.0, 2.0], [-0.2, 1.0]], "density_parts": []}},
        "volatility": {"kind": "exp_affine", "c0": 0.2, "c1": 0.1, "beta": 1.0},
        "grid": {"t_star": 0.5, "dt": 0.125, "x_max": 1.0},
        "seed": 2,  # four jumps of both signs
    }

    def test_every_line(self, tmp_path):
        import numpy as np

        from levyhjmm import __version__
        from levyhjmm.bond_market import FRAME_MOVING, ForwardField, bond_price
        from levyhjmm.hjmm_solver import SolverConfig, explosion_sweep, solve_monotone
        from levyhjmm.levy_analysis import ExponentHandle
        from levyhjmm.path_sim import SimConfig, simulate
        from levyhjmm.random_factor import compute_a
        from levyhjmm.scenario import load_scenario

        scen = write_scenario(tmp_path, self.SCENARIO)
        out = tmp_path / "out"
        for cmd in (
            ["solve"],
            ["price"],
            ["simulate-path", "--dump-factor"],
            ["report-exponent", "--n-z", "11"],
            ["sweep-explosion", "--k-max-exp", "4"],
        ):
            assert main([cmd[0], scen, "--out-dir", str(out), *cmd[1:]]) == 0

        sc = load_scenario(scen)
        g = sc.grid
        head = f"# scenario_hash={sc.scenario_hash} seed={sc.seed} version={__version__}"
        ts, xs = g.t.tolist(), g.x_wide.tolist()
        path = simulate(sc.model, SimConfig(t_star=g.t_star, dt=g.dt, seed=sc.seed))
        assert path.jump_times.size == 4
        factor = compute_a(path, sc.vol, sc.r0, sc.model.q, g)
        exponent = ExponentHandle(sc.model)
        cfg = SolverConfig(tol=sc.tol, max_iter=sc.max_iter, cap=sc.cap, gamma=sc.gamma)
        field = solve_monotone(factor, sc.vol, exponent, cfg).field
        moving = ForwardField(FRAME_MOVING, field, g, sc.gamma)
        I1, I2, a = factor.I1.tolist(), factor.I2.tolist(), factor.a.tolist()
        zs = np.linspace(0.0, 5.0, 11)
        J, Jp, Jpp = exponent.J(zs), exponent.J_prime(zs), exponent.J_second(zs)
        levels = [2.0**k for k in range(5)]
        sweep = explosion_sweep(
            sc.model, sc.vol, levels, g, seed=sc.seed, tol=sc.tol, max_iter=sc.max_iter, gamma=sc.gamma
        )
        jumps = [[float(s), float(y)] for s, y in zip(path.jump_times, path.jump_sizes)]
        rect = [(i, j) for i in range(g.n_t + 1) for j in range(g.n_x + 1)]
        expected = {
            "field.csv": [head, "t,x,r"]
            + [f"{ts[i]!r},{xs[j]!r},{float(field[i, j])!r}" for i, j in rect],
            "price.csv": [head, "t,T,price"]
            + [
                f"{ts[i]!r},{ts[i] + xs[j]!r},{float(bond_price(moving, ts[i], ts[i] + xs[j]))!r}"
                for i, j in rect
            ],
            "path.csv": [f"{head} rng={path.rng_algorithm}", "t,L"]
            + [f"{float(t)!r},{float(v)!r}" for t, v in zip(path.t, path.grid_values)]
            + ["# jumps: " + json.dumps(jumps)],
            "factor.csv": [head, "t,x,I1,I2,a"]
            + [
                f"{ts[i]!r},{xs[j]!r},{I1[i][j]!r},{I2[i][j]!r},{a[i][j]!r}"
                for i in range(g.n_t + 1)
                for j in range(g.row_width(i) + 1)
            ],
            "exponent.csv": [head, "z,J,J_prime,J_second"]
            + [",".join(repr(float(v)) for v in row) for row in zip(zs, J, Jp, Jpp)],
            "sweep.csv": [head, "k,status,n_iters,max_sup"]
            + [f"{r.level!r},{r.status},{r.n_iters},{float(r.max_sup)!r}" for r in sweep.rows],
        }
        for name, lines in expected.items():
            assert (out / name).read_text() == "\n".join(lines) + "\n", name


class TestScenarioInputs:
    def test_csv_initial_curve_and_tabulated_vol(self, tmp_path):
        import numpy as np
        from levyhjmm.function_space import WeightedCurve, write_curve_csv

        dt = 0.0625
        n_w = int(round((1.0 + 1.0) / dt))
        curve = WeightedCurve(dx=dt, values=np.exp(-dt * np.arange(n_w + 1)), gamma=1.0)
        curve_file = tmp_path / "r0.csv"
        write_curve_csv(curve_file, curve)
        scen = dict(POISSON)
        scen["r0"] = {"kind": "csv", "path": str(curve_file)}
        scen["volatility"] = {
            "kind": "tabulated",
            "dx": dt,
            "values": [0.5] * (n_w + 1),
        }
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["status"] == "Converged"

    def test_short_csv_curve_rejected(self, tmp_path):
        import numpy as np
        from levyhjmm.function_space import WeightedCurve, write_curve_csv

        curve = WeightedCurve(dx=0.0625, values=np.ones(5), gamma=1.0)
        curve_file = tmp_path / "short.csv"
        write_curve_csv(curve_file, curve)
        scen = dict(POISSON)
        scen["r0"] = {"kind": "csv", "path": str(curve_file)}
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 2


    @pytest.mark.parametrize("field", ["r0.path", "volatility.csv"])
    def test_csv_curve_not_starting_at_zero_rejected(self, tmp_path, capsys, field):
        import math

        from levyhjmm.scenario import ScenarioError, load_scenario

        dt = 0.0625
        curve_file = tmp_path / "offset.csv"
        curve_file.write_text(
            "x,value\n" + "".join(f"{0.5 + k * dt!r},{math.exp(-0.5 - k * dt)!r}\n" for k in range(33))
        )
        scen = dict(POISSON)
        if field == "r0.path":
            scen["r0"] = {"kind": "csv", "path": str(curve_file)}
        else:
            scen["volatility"] = {"kind": "tabulated", "csv": str(curve_file)}
        with pytest.raises(ScenarioError) as err:
            load_scenario(scen)
        assert err.value.field_path == field
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err


class TestOverrides:
    def test_seed_and_dt_override_change_hash(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["classify", scen, "--out-dir", str(out1)])
        main(["classify", scen, "--out-dir", str(out2), "--seed", "99"])
        h1 = json.loads((out1 / "classify.json").read_text())
        h2 = json.loads((out2 / "classify.json").read_text())
        assert h1["scenario_hash"] != h2["scenario_hash"]
        assert h2["seed"] == 99

    def test_tol_override(self, tmp_path):
        scen = write_scenario(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        assert main(["solve", scen, "--out-dir", str(out), "--tol", "1e-6"]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["config"]["tol"] == 1e-6
