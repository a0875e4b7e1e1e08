import argparse
import json
import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from levyhjmm import __version__
from levyhjmm.cli import EXIT_NOT_CONVERGED, _grid_keys, _parser, _reprs, _write_csv, main

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


def options(command):
    """The option strings of a command's parser."""
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices[command]._option_string_actions)


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
        assert report["detail"]["rule"] == "cap"

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

    @pytest.mark.parametrize(
        "text, error",
        [
            (None, "<file>: cannot read scenario"),
            ('{"grid": ', "<file>: invalid JSON"),
            (json.dumps([DEGENERATE]), "<root>: scenario must be a JSON object"),
        ],
        ids=["missing_file", "invalid_json", "top_level_array"],
    )
    def test_scenario_file_errors(self, tmp_path, capsys, text, error):
        path = tmp_path / "scen.json"
        if text is not None:
            path.write_text(text)
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"scenario error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "scen.json"
        path.write_bytes(bytes.fromhex("fffe7b7d"))  # a UTF-16 byte order mark, then {}
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "scenario error: <file>: cannot read scenario: 'utf-8' codec" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_text_is_read_as_a_path(self, tmp_path, monkeypatch, capsys):
        # a scenario is a dict or a file: JSON text names no file, even here
        from levyhjmm.scenario import ScenarioError, load_scenario

        monkeypatch.chdir(tmp_path)
        text = json.dumps(DEGENERATE)
        with pytest.raises(ScenarioError, match="cannot read scenario") as err:
            load_scenario(text)
        assert err.value.field_path == "<file>"
        assert main(["solve", text, "--out-dir", "out"]) == 2
        assert "scenario error: <file>: cannot read scenario" in capsys.readouterr().err


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

    def test_z0_reads_only_the_solved_nodes(self, tmp_path):
        # r0 = 0.3 on the n_w + 1 nodes a solve reads (x <= 2), then out to
        # x = 4, where its last node is 50: z0 = lambda_bar t* sup r0 / sqrt(gamma)
        dt = DEGENERATE["grid"]["dt"]
        values = [0.3] * 64 + [50.0]
        curve_file = tmp_path / "r0.csv"
        curve_file.write_text("x,value\n" + "".join(f"{k * dt!r},{v!r}\n" for k, v in enumerate(values)))
        scen = write_scenario(tmp_path, {**POISSON, "r0": {"kind": "csv", "path": str(curve_file)}, "gamma": 0.25})
        assert main(["classify", scen, "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert report["z0"] == 0.5 * 1.0 * 0.3 / math.sqrt(0.25)


class TestHugeCurves:
    """A flat r0 of 1e200 is finite, and so are its weighted norms: they
    are taken without squaring past the double range (the suite turns the
    RuntimeWarning of an overflow into an error)."""

    def test_solve_writes_finite_norms(self, tmp_path):
        scen = write_scenario(tmp_path, {**POISSON, "r0": {"kind": "flat", "level": 1e200}})
        assert main(["solve", scen, "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["status"] == "Converged"
        # the path has no jump (b = 1) and J' <= 0, so c1 = ||r0|| = every iterate's norm
        assert math.isfinite(report["c1"]) and report["c1"] > 1e200
        assert report["iterate_l2_norms"] == [report["c1"]] * report["n_iters"]
        assert math.isfinite(report["residuals"]["mild_l2_max"])

    def test_sweep_at_2_to_the_600(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        argv = ["sweep-explosion", scen, "--k-min-exp", "600", "--k-max-exp", "600", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "sweep.csv").read_text().splitlines()[2].split(",")[1] == "Converged"


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
        # solved on t <= t*/2, T <= t*: the default checkpoint and maturity
        assert report["region"] == [0.5, 1.0]
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
        from levyhjmm.bond_market import ForwardField, bond_price
        from levyhjmm.hjmm_solver import explosion_sweep, solve_monotone
        from levyhjmm.levy_analysis import ExponentHandle
        from levyhjmm.path_sim import RNG_ALGORITHM, simulate
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
        path = simulate(sc.model, g, sc.seed)
        assert path.jump_times.size == 4
        factor = compute_a(path, sc.vol, sc.r0, g)
        exponent = ExponentHandle(sc.model)
        field = solve_monotone(factor, sc.solver).field
        moving = ForwardField(field, g)
        I1, I2, a = factor.I1.tolist(), factor.I2.tolist(), factor.a.tolist()
        zs = np.linspace(0.0, 5.0, 11)
        J, Jp, Jpp = exponent.J(zs), exponent.J_prime(zs), exponent.J_second(zs)
        levels = [2.0**k for k in range(5)]
        cfg = sc.solver
        sweep = explosion_sweep(
            sc.model, sc.vol, levels, g, seed=sc.seed, tol=cfg.tol, max_iter=cfg.max_iter, gamma=sc.r0.gamma
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
            "path.csv": [f"{head} rng={RNG_ALGORITHM}", "t,L"]
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
        import math

        dt = 0.0625
        n_w = int(round((1.0 + 1.0) / dt))
        curve_file = tmp_path / "r0.csv"
        curve_file.write_text("x,value\n" + "".join(f"{k * dt!r},{math.exp(-k * dt)!r}\n" for k in range(n_w + 1)))
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

    def test_tabulated_vol_from_csv_equals_inline(self, tmp_path):
        # the same table as a file and inline solves to the same field, bit for
        # bit; only the scenario hash in the comment line differs
        dt = 0.0625
        values = [0.4 + 0.1 * math.cos(k / 3.0) for k in range(33)]
        curve_file = tmp_path / "vol.csv"
        curve_file.write_text("x,value\n" + "".join(f"{k * dt!r},{v!r}\n" for k, v in enumerate(values)))
        fields = []
        for name, vol in (("csv", {"csv": str(curve_file)}), ("inline", {"dx": dt, "values": values})):
            path = write_scenario(tmp_path, {**POISSON, "volatility": {"kind": "tabulated", **vol}}, f"{name}.json")
            assert main(["solve", path, "--out-dir", str(tmp_path / name)]) == 0
            fields.append((tmp_path / name / "field.csv").read_text().splitlines())
        (csv_hash, *csv_body), (inline_hash, *inline_body) = fields
        assert csv_hash.startswith("# scenario_hash=") and csv_hash != inline_hash
        assert csv_body == inline_body

    def test_short_csv_curve_rejected(self, tmp_path):
        curve_file = tmp_path / "short.csv"
        curve_file.write_text("x,value\n" + "".join(f"{k * 0.0625!r},1.0\n" for k in range(5)))
        scen = dict(POISSON)
        scen["r0"] = {"kind": "csv", "path": str(curve_file)}
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("field", ["r0.path", "volatility.csv"])
    def test_one_row_csv_curve_rejected(self, tmp_path, capsys, field):
        # np.loadtxt reads one row as a 1-D array, not as a one-row table
        curve_file = tmp_path / "one_row.csv"
        curve_file.write_text("x,value\n0.0,1.0\n")
        scen = dict(POISSON)
        if field == "r0.path":
            scen["r0"] = {"kind": "csv", "path": str(curve_file)}
        else:
            scen["volatility"] = {"kind": "tabulated", "csv": str(curve_file)}
        path = write_scenario(tmp_path, scen)
        assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

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


class TestSections:
    """Every scenario section must be an object: anything else is a schema
    error naming it, with or without an override flag written into it."""

    @pytest.mark.parametrize(
        "section, value, flags, message",
        [
            ("volatility", 5, [], "volatility: expected an object, got int"),
            ("volatility", None, [], "volatility: expected an object, got NoneType"),
            ("r0", 5, [], "r0: expected an object, got int"),
            ("r0", None, [], "r0: expected an object, got NoneType"),
            ("r0", "flat", [], "r0: expected an object, got str"),
            ("grid", 5, [], "grid: expected an object, got int"),
            ("grid", 5, ["--grid-dt", "0.125"], "grid: expected an object, got int"),
            ("solver", 5, [], "solver: expected an object, got int"),
            ("solver", [1], [], "solver: expected an object, got list"),
            ("solver", [1], ["--tol", "1e-9"], "solver: expected an object, got list"),
            ("levy_model", 5, [], "levy_model: expected an object, got int"),
            (
                "levy_model",
                {"nu": {"density_parts": [5]}},
                [],
                "levy_model.nu.density_parts[0]: expected an object, got int",
            ),
            (
                "levy_model",
                {"nu": {"density_parts": [{"kind": "power_law", "c": 1.0, "alpha": 2.5, "support": [0.0, 1.0]}]}},
                [],
                "levy_model.nu.density_parts[0]: PowerLaw with support touching 0 needs alpha < 2",
            ),
        ],
        ids=[
            "volatility-int", "volatility-null", "r0-int", "r0-null", "r0-str", "grid-int", "grid-int-grid-dt",
            "solver-int", "solver-list", "solver-list-tol", "levy_model-int", "part-int", "part-rule",
        ],
    )
    def test_rejected_naming_the_section(self, tmp_path, capsys, section, value, flags, message):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {**POISSON, section: value})
        assert main(["solve", path, "--out-dir", str(out), *flags]) == 2
        assert f"scenario error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_levy_model_from_dict_names_the_section(self):
        from levyhjmm.scenario import ScenarioError, levy_model_from_dict

        with pytest.raises(ScenarioError, match=r"^levy_model: expected an object, got list$") as err:
            levy_model_from_dict([])
        assert err.value.field_path == "levy_model"


class TestOverrides:
    def test_seed_and_dt_override_change_hash(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        heads = []
        for out, flags in (("a", []), ("b", ["--seed", "99"]), ("c", ["--grid-dt", "0.125"])):
            assert main(["simulate-path", scen, "--out-dir", str(tmp_path / out), *flags]) == 0
            heads.append((tmp_path / out / "path.csv").read_text().split("\n", 1)[0])
        assert len({h.split()[1] for h in heads}) == 3  # three scenario hashes
        assert [h.split()[2] for h in heads] == ["seed=7", "seed=99", "seed=7"]

    @pytest.mark.parametrize("where", ["scenario", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, where):
        scen = write_scenario(tmp_path, {**POISSON, "seed": -1} if where == "scenario" else POISSON)
        flags = ["--seed", "-1"] if where == "flag" else []
        out = tmp_path / "out"
        assert main(["simulate-path", scen, "--out-dir", str(out), *flags]) == 2
        assert "scenario error: seed: expected a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_override(self, tmp_path):
        scen = write_scenario(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        assert main(["solve", scen, "--out-dir", str(out), "--tol", "1e-6"]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["config"]["tol"] == 1e-6


class TestSolverFields:
    """A solver field the solve cannot use is a schema error naming it: exit
    2, before the output directory is made."""

    @pytest.mark.parametrize("max_iter", [0.5, 2.5])
    def test_fractional_max_iter_rejected(self, tmp_path, capsys, max_iter):
        scen = write_scenario(tmp_path, {**POISSON, "solver": {"max_iter": max_iter}})
        out = tmp_path / "out"
        assert main(["solve", scen, "--out-dir", str(out)]) == 2
        assert f"solver.max_iter: must be an integer >= 1, got {max_iter}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_max_iter_accepted(self, tmp_path):
        scen = write_scenario(tmp_path, {**POISSON, "solver": {"max_iter": 2.0}})
        assert main(["solve", scen, "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert (report["n_iters"], report["config"]["max_iter"]) == (2, 2)

    @pytest.mark.parametrize("cap", ["0.5", "1.0"])
    @pytest.mark.parametrize("cmd", ["solve", "check-martingale"])
    def test_cap_not_above_sup_r0_rejected(self, tmp_path, capsys, cmd, cap):
        scen = write_scenario(tmp_path, POISSON)  # r0 = e^{-x}: sup 1 at x = 0
        out = tmp_path / "out"
        extra = ["--n-paths", "8"] if cmd == "check-martingale" else []
        assert main([cmd, scen, "--out-dir", str(out), "--cap", cap, *extra]) == 2
        assert f"solver.cap: cap={float(cap)} must exceed sup |r0|=1.0" in capsys.readouterr().err
        assert not out.exists()


class TestFlagValidation:
    """A flag value the command cannot use exits 2 with a message naming the
    flag, before the output directory is made."""

    @pytest.mark.parametrize(
        "cmd, flag",
        [
            (["check-martingale", "--n-paths", "0"], "--n-paths"),
            (["report-exponent", "--n-z", "-1"], "--n-z"),
            (["report-exponent", "--n-z", "0"], "--n-z"),
            (["sweep-explosion", "--k-min-exp", "3", "--k-max-exp", "1"], "--k-max-exp"),
            (["check-martingale", "--checkpoints", "0.33"], "--checkpoints"),
            (["check-martingale", "--maturities", "5"], "--maturities"),
            (["check-martingale", "--maturities", "0.25", "--checkpoints", "0.5"], "--maturities"),
            (["sweep-explosion", "--cap", "2"], "--cap"),
            # 2.0**k overflows from k = 1024 and is 0.0 below k = -1074
            (["sweep-explosion", "--k-max-exp", "1024"], "--k-max-exp"),
            (["sweep-explosion", "--k-min-exp", "-1075", "--k-max-exp", "0"], "--k-min-exp"),
            # a non-finite point is refused before it is rounded to a node
            (["check-martingale", "--maturities", "inf"], "--maturities"),
            (["check-martingale", "--checkpoints", "inf"], "--checkpoints"),
            (["check-martingale", "--checkpoints", "nan"], "--checkpoints"),
        ],
    )
    def test_bad_flag_exits_2(self, tmp_path, capsys, cmd, flag):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([cmd[0], scen, "--out-dir", str(out), *cmd[1:]])
        assert exc.value.code == 2
        # a flag the command does not take is argparse's unrecognized argument
        message = f"argument {flag}: " if flag in options(cmd[0]) else f"unrecognized arguments: {flag} "
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_scenario_cap(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, {**POISSON, "solver": {"cap": 2.0}})
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep-explosion", scen, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "error: solver.cap: " in capsys.readouterr().err
        assert not out.exists()

    def test_points_on_the_grid_accepted(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        args = ["--n-paths", "4", "--maturities", "0.25", "2.0", "--checkpoints", "0.0", "0.25"]
        assert main(["check-martingale", scen, "--out-dir", str(out), *args]) == 0
        rows = json.loads((out / "martingale.json").read_text())["rows"]
        assert [(r["T"], r["t"]) for r in rows] == [(0.25, 0.0), (0.25, 0.25), (2.0, 0.0), (2.0, 0.25)]


OVERRIDE_FLAGS = ("--seed", "--grid-dt", "--tol", "--max-iter", "--cap")

#: the override flags each command takes: the ones whose values it reads
FLAG_TABLE = {
    "report-exponent": (),
    "classify": (),
    "simulate-path": ("--seed", "--grid-dt"),
    "solve": OVERRIDE_FLAGS,
    "sweep-explosion": ("--seed", "--grid-dt", "--tol", "--max-iter"),
    "price": OVERRIDE_FLAGS,
    "check-martingale": OVERRIDE_FLAGS,
}
KEPT = [(cmd, flag) for cmd, flags in FLAG_TABLE.items() for flag in flags]
REMOVED = [(cmd, flag) for cmd, flags in FLAG_TABLE.items() for flag in OVERRIDE_FLAGS if flag not in flags]


class TestFlagSurface:
    """Each command takes the override flags it reads and no other."""

    #: Brownian part and frequent jumps, so every seed draws another path;
    #: on seed 2 the solution tops 1.01, the changed cap, where r0 tops at 1
    SCENARIO = {
        **DEGENERATE,
        "levy_model": {"a": 0.0, "q": 0.25, "nu": {"atoms": [[1.0, 2.0]], "density_parts": []}},
        "grid": {"t_star": 0.5, "dt": 0.0625, "x_max": 0.5},
        "seed": 2,
    }
    EXTRA = {"sweep-explosion": ["--k-max-exp", "3"], "check-martingale": ["--n-paths", "8"]}
    #: a value of each flag that the commands taking it must feel
    CHANGED = {"--seed": "3", "--grid-dt": "0.125", "--tol": "0.5", "--max-iter": "1", "--cap": "1.01"}

    def test_parser_matches_table(self):
        assert {cmd: tuple(f for f in OVERRIDE_FLAGS if f in options(cmd)) for cmd in FLAG_TABLE} == FLAG_TABLE
        assert (len(KEPT), len(REMOVED)) == (21, 14)

    @pytest.mark.parametrize("cmd, flag", REMOVED)
    def test_removed_flag_exits_2(self, tmp_path, capsys, cmd, flag):
        scen = write_scenario(tmp_path, POISSON)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([cmd, scen, "--out-dir", str(out), flag, "2"])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def effect(out, rc):
        """The exit code and every output file, less the hash line of each
        CSV and the meta keys and echoed settings of each JSON report."""
        files = {}
        for f in sorted(out.iterdir()):
            if f.suffix == ".csv":
                files[f.name] = f.read_text().split("\n", 1)[1]
            else:
                report = json.loads(f.read_text())
                for key in ("timestamp", "scenario_hash", "seed", "config"):
                    report.pop(key, None)
                report.get("detail", {}).pop("cap", None)
                files[f.name] = report
        return rc, files

    @pytest.mark.parametrize("cmd, flag", KEPT)
    def test_kept_flag_changes_the_outputs(self, tmp_path, cmd, flag):
        scen = write_scenario(tmp_path, self.SCENARIO)
        effects = []
        for out, flags in (("a", []), ("b", [flag, self.CHANGED[flag]])):
            rc = main([cmd, scen, "--out-dir", str(tmp_path / out), *self.EXTRA.get(cmd, []), *flags])
            effects.append(self.effect(tmp_path / out, rc))
        assert effects[0] != effects[1]


class TestNonFiniteNumbers:
    """json reads NaN and Infinity; a scenario number must be finite."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("solver.tol", math.nan),
            ("solver.tol", math.inf),
            ("solver.cap", math.nan),
            ("gamma", math.nan),
            ("gamma", math.inf),
            ("volatility.value", math.nan),
            ("volatility.value", math.inf),
            pytest.param("grid.x_max", 10**400, id="grid.x_max-int-beyond-float-range"),
        ],
    )
    def test_rejected_naming_the_field(self, tmp_path, capsys, field, value):
        scen = json.loads(json.dumps(POISSON))
        *parents, key = field.split(".")
        node = scen
        for name in parents:
            node = node[name]
        node[key] = value
        out = tmp_path / "out"
        assert main(["solve", write_scenario(tmp_path, scen), "--out-dir", str(out)]) == 2
        assert f"scenario error: {field}: must be finite, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, field", [("--tol", "solver.tol"), ("--cap", "solver.cap")])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag, field):
        out = tmp_path / "out"
        assert main(["solve", write_scenario(tmp_path, POISSON), "--out-dir", str(out), flag, "nan"]) == 2
        assert f"scenario error: {field}: must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()


class TestLevyModelFields:
    """Every number of the levy_model section is checked where it is read,
    and an error names its field path."""

    JUMPS = {
        **POISSON,
        "levy_model": {
            "a": 0.0,
            "q": 0.0,
            "nu": {
                "atoms": [[1.0, 0.5]],
                "density_parts": [{"kind": "exponential", "c": 1.0, "beta": 2.0, "support": [0.0, None]}],
            },
        },
    }
    PART = ("nu", "density_parts", 0)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            pytest.param(("a",), math.nan, "levy_model.a: must be finite, got nan", id="a-nan"),
            pytest.param(("a",), math.inf, "levy_model.a: must be finite, got inf", id="a-inf"),
            pytest.param(("q",), math.nan, "levy_model.q: must be finite, got nan", id="q-nan"),
            pytest.param(("a",), True, "levy_model.a: expected a number, got bool", id="a-bool"),
            pytest.param(("q",), "0.5", "levy_model.q: expected a number, got str", id="q-str"),
            pytest.param(
                ("nu", "atoms", 0, 1), math.nan, "levy_model.nu.atoms[0][1]: must be finite, got nan", id="atom-mass-nan"
            ),
            pytest.param(
                (*PART, "c"), math.nan, "levy_model.nu.density_parts[0].c: must be finite, got nan", id="part-c-nan"
            ),
            pytest.param(
                (*PART, "c"), math.inf, "levy_model.nu.density_parts[0].c: must be finite, got inf", id="part-c-inf"
            ),
            pytest.param(
                (*PART, "beta"), None, "levy_model.nu.density_parts[0].beta: missing required field", id="part-beta-missing"
            ),
            pytest.param(
                (*PART, "support", 0), math.nan, "levy_model.nu.density_parts[0].support[0]: must be finite",
                id="part-support-nan",
            ),
        ],
    )
    def test_rejected_naming_the_field(self, tmp_path, capsys, keys, value, message):
        scen = json.loads(json.dumps(self.JUMPS))
        node = scen["levy_model"]
        for key in keys[:-1]:
            node = node[key]
        if value is None:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        out = tmp_path / "out"
        assert main(["solve", write_scenario(tmp_path, scen), "--out-dir", str(out)]) == 2
        assert f"scenario error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_endpoint_accepted(self, tmp_path):
        scen = json.loads(json.dumps(self.JUMPS))
        scen["levy_model"]["nu"]["density_parts"][0]["support"] = [0.0, math.inf]
        assert main(["solve", write_scenario(tmp_path, scen), "--out-dir", str(tmp_path / "out")]) == 0


class TestParserReuse:
    """main builds its parser once per process; no call may leave state in it."""

    @staticmethod
    def outputs(out):
        report = json.loads((out / "solve_report.json").read_text())
        report.pop("timestamp")
        return (out / "field.csv").read_bytes(), report

    def test_calls_in_one_process_match_calls_alone(self, tmp_path):
        scen = write_scenario(tmp_path, POISSON)
        first = ["--seed", "3", "--max-iter", "50"]

        def solve(out, *flags):
            assert main(["solve", scen, "--out-dir", str(tmp_path / out), *flags]) == 0
            return self.outputs(tmp_path / out)

        in_turn = [solve("a", *first), solve("b")]
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit):
            main(["check-martingale", scen, "--n-paths", "0"])
        in_turn.append(solve("c"))
        alone = []
        for out, flags in (("a1", first), ("b1", [])):
            _parser.cache_clear()
            alone.append(solve(out, *flags))
        assert in_turn == [alone[0], alone[1], alone[1]]
        assert alone[0] != alone[1]


def ref_reprs(values):
    """The cells as they were formatted before: one float repr per value."""
    return [repr(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def ref_tx_cells(g, mask):
    """The writer's t and x cells as they were built before: the nonzero
    entries of a mask, through object arrays."""
    i, j = np.nonzero(mask)
    t, x = (np.array(ref_reprs(nodes), dtype=object) for nodes in (g.t, g.x_wide))
    return t[i].tolist(), x[j].tolist()


def ref_write_csv(path, sc, header, columns, note="", trailer=""):
    """The CSV writer as it was before: rows written in blocks of 1024."""
    with open(path, "w") as fh:
        fh.write(f"# scenario_hash={sc.scenario_hash} seed={sc.seed} version={__version__}{note}\n")
        fh.write(header + "\n")
        rows = map(",".join, zip(*columns))
        while block := list(islice(rows, 1024)):
            fh.write("\n".join(block) + "\n")
        fh.write(trailer)


class TestFrozenWriter:
    """field.csv, price.csv and factor.csv byte for byte against the frozen
    reference cells and writer above."""

    def test_grid_with_more_x_than_t_nodes(self, tmp_path):
        from levyhjmm.bond_market import exp_neg_integrals
        from levyhjmm.hjmm_solver import solve_monotone
        from levyhjmm.path_sim import simulate
        from levyhjmm.random_factor import compute_a
        from levyhjmm.scenario import load_scenario

        scen = write_scenario(tmp_path, {**POISSON, "grid": {"t_star": 0.5, "dt": 1 / 32, "x_max": 1.0}})
        out, ref = tmp_path / "out", tmp_path / "ref"
        for cmd in (["solve"], ["price"], ["simulate-path", "--dump-factor"]):
            assert main([cmd[0], scen, "--out-dir", str(out), *cmd[1:]]) == 0

        sc = load_scenario(scen)
        g = sc.grid
        assert (g.n_t, g.n_x) == (16, 32)
        path = simulate(sc.model, g, sc.seed)
        factor = compute_a(path, sc.vol, sc.r0, g)
        field = solve_monotone(factor, sc.solver).field
        rect = field[:, : g.n_x + 1]
        prices = np.array([exp_neg_integrals(field[:, : j + 1], g.dt) for j in range(g.n_x + 1)]).T
        ref.mkdir()
        t, x = ref_tx_cells(g, np.ones(rect.shape, bool))
        ref_write_csv(ref / "field.csv", sc, "t,x,r", [t, x, ref_reprs(rect)])
        ref_write_csv(ref / "price.csv", sc, "t,T,price", [t, ref_reprs(g.t[:, None] + g.x), ref_reprs(prices)])
        t, x = ref_tx_cells(g, g.valid_mask())
        I1, I2, a = (ref_reprs(g.triangle(v)) for v in (factor.I1, factor.I2, factor.a))
        ref_write_csv(ref / "factor.csv", sc, "t,x,I1,I2,a", [t, x, I1, I2, a])
        for name in ("field.csv", "price.csv", "factor.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.parametrize("n_rows", [0, 1, 1024, 2500])
    def test_body_sizes(self, tmp_path, n_rows):
        from levyhjmm.scenario import load_scenario

        sc = load_scenario(write_scenario(tmp_path, POISSON))
        columns = [ref_reprs(np.arange(n_rows) / 7), [str(k) for k in range(n_rows)]]
        trailer = "# trailer\n"
        _write_csv(tmp_path / "new.csv", sc, "v,k", row_major(columns), note=" rng=x", trailer=trailer)
        ref_write_csv(tmp_path / "ref.csv", sc, "v,k", columns, note=" rng=x", trailer=trailer)
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        assert len(text.splitlines()) == n_rows + 3


def row_major(columns):
    """The cells of str columns as the writer takes them: bytes, row by row."""
    return [c.encode() for row in zip(*columns) for c in row]


def row_join_csv(sc, header, columns, note="", trailer=""):
    """The text of a CSV as the row-join writer built it, from str columns."""
    lines = [f"# scenario_hash={sc.scenario_hash} seed={sc.seed} version={__version__}{note}", header]
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n" + trailer


#: values whose cells repr writes in exponent form, or orjson not at all
REPR_PATH = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-5, 1e16, 1e300]


class TestTemplateWriter:
    """The template writer against the row-join formula, byte for byte, on a
    grid whose own t and x nodes (multiples of 2^-14 < 1e-4) take repr's
    path, with value cells that take it too."""

    GRID = {"t_star": 2.0**-12, "dt": 2.0**-14, "x_max": 2.0**-12}

    @pytest.fixture
    def sc(self, tmp_path):
        from levyhjmm.scenario import load_scenario

        sc = load_scenario(write_scenario(tmp_path, {**POISSON, "grid": self.GRID}))
        assert (sc.grid.n_t, sc.grid.n_x) == (4, 4)
        return sc

    @staticmethod
    def values(shape, seed):
        """Every REPR_PATH value, then values of every size, in a random order."""
        rng = np.random.default_rng(seed)
        n = int(np.prod(shape))
        v = np.concatenate([REPR_PATH, np.exp(rng.uniform(-700.0, 700.0, n))])[:n]
        return rng.permutation(v * rng.choice([-1.0, 1.0], n)).reshape(shape)

    @staticmethod
    def check(tmp_path, sc, header, cells, keys, columns):
        """The writer's file from the cells and keys is the row-join text of
        the columns (str cells)."""
        note, trailer = " 5%", "# end %s\n"
        _write_csv(tmp_path / "new.csv", sc, header, cells, keys, note=note, trailer=trailer)
        want = row_join_csv(sc, header, columns, note=note, trailer=trailer)
        assert (tmp_path / "new.csv").read_bytes() == want.encode()

    def test_field(self, tmp_path, sc):
        g = sc.grid
        r = self.values((g.n_t + 1, g.n_x + 1), 1)
        i, j = np.indices(r.shape).reshape(2, -1)
        columns = [ref_reprs(g.t[i]), ref_reprs(g.x[j]), ref_reprs(r)]
        assert "6.103515625e-05" in columns[0] and "6.103515625e-05" in columns[1]
        self.check(tmp_path, sc, "t,x,r", _reprs(r), _grid_keys(g, [g.n_x + 1] * (g.n_t + 1)), columns)

    def test_price(self, tmp_path, sc):
        g = sc.grid
        T, price = g.t[:, None] + g.x, self.values((g.n_t + 1, g.n_x + 1), 2)
        i = np.repeat(np.arange(g.n_t + 1), g.n_x + 1)
        columns = [ref_reprs(g.t[i]), ref_reprs(T), ref_reprs(price)]
        keys = _grid_keys(g, [g.n_x + 1] * (g.n_t + 1), x=False)
        self.check(tmp_path, sc, "t,T,price", _reprs(np.stack([T, price], axis=-1)), keys, columns)

    def test_factor_triangle(self, tmp_path, sc):
        g = sc.grid
        fields = [g.triangle(self.values(g.valid_mask().shape, seed)) for seed in (3, 4, 5)]
        i, j = np.nonzero(g.valid_mask())
        columns = [ref_reprs(g.t[i]), ref_reprs(g.x_wide[j])] + [ref_reprs(f) for f in fields]
        keys = _grid_keys(g, [g.row_width(k) + 1 for k in range(g.n_t + 1)])
        self.check(tmp_path, sc, "t,x,I1,I2,a", _reprs(np.stack(fields, axis=-1)), keys, columns)

    def test_list_table(self, tmp_path, sc):
        levels, sups = self.values(9, 6), self.values(9, 7)
        statuses = ["Converged", "ExplosionDetected", "MaxIterReached"] * 3
        iters = [str(k) for k in range(0, 180, 20)]
        columns = [ref_reprs(levels), statuses, iters, ref_reprs(sups)]
        rows = zip(_reprs(levels), statuses, iters, _reprs(sups))
        cells = [c for k, st, n, s in rows for c in (k, st.encode(), n.encode(), s)]
        self.check(tmp_path, sc, "k,status,n_iters,max_sup", cells, None, columns)


def _neighbours(x):
    """x and the two floats next to it, both signs."""
    near = [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.array(near + [-v for v in near])


class TestReprs:
    """_reprs spells every cell as float repr does, in row-major order."""

    @staticmethod
    def assert_repr(v):
        assert _reprs(v) == [repr(float(x)).encode() for x in np.ravel(v)]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2024).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
        self.assert_repr(bits[np.isfinite(bits)])

    def test_log_uniform_where_orjson_is_used(self):
        rng = np.random.default_rng(2024)
        v = np.exp(rng.uniform(np.log(1e-4), np.log(1e16), 2 * 10**5))
        self.assert_repr(v * rng.choice([-1.0, 1.0], v.size))

    def test_zeros_and_non_finite(self):
        self.assert_repr(np.array([0.0, -0.0, np.nan, np.inf, -np.inf]))

    def test_subnormals(self):
        self.assert_repr(np.array([5e-324, -5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]))
        self.assert_repr(np.ldexp(1.0, np.arange(-1074, -1021)))

    @pytest.mark.parametrize("edge", [1e-4, 1e16])
    def test_neighbours_of_the_edges(self, edge):
        self.assert_repr(_neighbours(edge))

    def test_integers(self):
        powers = [float(2**k) for k in range(54)]
        self.assert_repr(np.array(powers + [float(2**53 - 1), 123456789.0, 10.0**15, 10.0**15 + 1]))
        self.assert_repr(np.random.default_rng(2024).integers(-(2**53), 2**53, 10**4, endpoint=True).astype(float))

    def test_shapes_and_types(self):
        assert _reprs(np.array([])) == [] and _reprs([]) == []
        self.assert_repr([0.25])
        m = np.arange(12.0).reshape(3, 4) / 7
        self.assert_repr(m)
        self.assert_repr(m[:, ::2])
        self.assert_repr(m.T)
        self.assert_repr([0.1, 2, 3e-5, float("nan")])

    def test_orjson_loaded_on_first_use(self):
        """Importing the CLI leaves orjson out, so a caller that writes no
        CSV (the martingale Monte Carlo, say) never loads it."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = (
            "import sys, levyhjmm.cli as c; print('orjson' in sys.modules); "
            "c._reprs([1.0]); print('orjson' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
