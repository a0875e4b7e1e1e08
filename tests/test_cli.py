import json

import pytest

from levyhjmm.cli import main

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
        assert (tmp_path / "out" / "field.csv").exists()

    def test_explosion_exit_code(self, tmp_path):
        scen = dict(WIENER)
        scen["r0"] = {"kind": "flat", "level": 64.0}
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 4
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["status"] == "ExplosionDetected"

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

    def test_check_martingale(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        assert (
            main(["check-martingale", scen, "--out-dir", str(out), "--n-paths", "40"]) == 0
        )
        report = json.loads((out / "martingale.json").read_text())
        assert report["rows"][0]["n_paths"] == 40
        assert report["n_exploded"] == 0 and report["n_not_converged"] == 0
        assert "note" in report


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
