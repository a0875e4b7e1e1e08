"""Scenario-driven command line front end.

Subcommands: report-exponent, classify, simulate-path, solve,
sweep-explosion, price, check-martingale.  Every output embeds the
effective scenario hash, the seed and the tool version; JSON reports also
carry a timestamp field (the only part excluded from byte-identity).

Exit codes: 0 ok, 2 scenario schema error, 3 exponent-domain error,
4 explosion in a single solve (solve subcommand only).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bond_market import FRAME_MOVING, ForwardField, bond_price, martingale_mc
from .hjmm_solver import (
    STATUS_CONVERGED,
    STATUS_EXPLOSION,
    SolverConfig,
    explosion_sweep,
    mild_residual,
    solve_monotone,
)
from .levy_analysis import ExponentDomainError, ExponentHandle, classify
from .path_sim import RNG_ALGORITHM, SimConfig, simulate, write_path_csv
from .random_factor import compute_a, write_factor_csv
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_EXPONENT_DOMAIN = 3
EXIT_EXPLOSION = 4


def _meta(sc: Scenario) -> dict:
    return {
        "scenario_hash": sc.scenario_hash,
        "seed": sc.seed,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n")


def _csv_header(fh, sc: Scenario) -> None:
    fh.write(f"# scenario_hash={sc.scenario_hash} seed={sc.seed} version={__version__}\n")


def _solver_cfg(sc: Scenario) -> SolverConfig:
    return SolverConfig(tol=sc.tol, max_iter=sc.max_iter, cap=sc.cap, gamma=sc.gamma)


def _z0_for(sc: Scenario) -> float:
    sup_r0 = float(np.max(np.abs(sc.r0.values)))
    return sc.vol.lambda_bar * sc.grid.t_star * sup_r0 / math.sqrt(sc.gamma)


def _solve_scenario(sc: Scenario):
    path = simulate(
        sc.model, SimConfig(t_star=sc.grid.t_star, dt=sc.grid.dt, seed=sc.seed)
    )
    factor = compute_a(path, sc.vol, sc.r0, sc.model.q, sc.grid)
    exponent = ExponentHandle(sc.model)
    report = solve_monotone(factor, sc.vol, exponent, _solver_cfg(sc))
    return path, factor, exponent, report


def cmd_report_exponent(sc: Scenario, out: Path, args) -> int:
    zs = np.linspace(args.z_min, args.z_max, args.n_z)
    exponent = ExponentHandle(sc.model)
    J, Jp, Jpp = exponent.J(zs), exponent.J_prime(zs), exponent.J_second(zs)
    with open(out / "exponent.csv", "w") as fh:
        _csv_header(fh, sc)
        fh.write("z,J,J_prime,J_second\n")
        for row in zip(zs, J, Jp, Jpp):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return EXIT_OK


def cmd_classify(sc: Scenario, out: Path, args) -> int:
    report = classify(
        sc.model,
        z0=_z0_for(sc),
        lambda_bar_t_star=sc.vol.lambda_bar * sc.grid.t_star,
    )
    payload = {
        "flags": report.flags,
        "regime": report.regime,
        "rho_estimate": report.rho_estimate,
        "rho_residual": report.rho_residual,
        "domain_sup": None if report.domain_sup == math.inf else report.domain_sup,
        "lambda_bar_t_star": report.lambda_bar_t_star,
        "z0": _z0_for(sc),
        **_meta(sc),
    }
    _write_json(out / "classify.json", payload)
    return EXIT_OK


def cmd_simulate_path(sc: Scenario, out: Path, args) -> int:
    path = simulate(
        sc.model, SimConfig(t_star=sc.grid.t_star, dt=sc.grid.dt, seed=sc.seed)
    )
    with open(out / "path.csv", "w") as fh:
        fh.write(
            f"# scenario_hash={sc.scenario_hash} seed={sc.seed} version={__version__} "
            f"rng={path.rng_algorithm}\n"
        )
        write_path_csv(fh, path)
    if args.dump_factor:
        factor = compute_a(path, sc.vol, sc.r0, sc.model.q, sc.grid)
        with open(out / "factor.csv", "w") as fh:
            _csv_header(fh, sc)
            write_factor_csv(fh, factor)
    return EXIT_OK


def cmd_solve(sc: Scenario, out: Path, args) -> int:
    path, factor, exponent, report = _solve_scenario(sc)
    if report.status == STATUS_CONVERGED:
        res = mild_residual(report, path, factor, sc.vol, exponent, sc.r0)
        report.residuals["mild_l2_max"] = float(np.max(res))
    g = sc.grid
    t, x = [repr(v) for v in g.t.tolist()], [repr(v) for v in g.x.tolist()]
    with open(out / "field.csv", "w") as fh:
        _csv_header(fh, sc)
        fh.write("t,x,r\n")
        for ti, row in zip(t, report.field[:, : g.n_x + 1]):
            fh.write("".join(f"{ti},{xj},{v!r}\n" for xj, v in zip(x, row.tolist())))
    payload = {
        "status": report.status,
        "n_iters": report.n_iters,
        "iterate_sup_norms": report.iterate_sup_norms,
        "iterate_l2_norms": report.iterate_l2_norms,
        "c1": report.c1,
        "residuals": report.residuals,
        "detail": {k: v for k, v in report.detail.items() if k != "h0"},
        "rng_algorithm": path.rng_algorithm,
        "config": {
            "tol": sc.tol,
            "max_iter": sc.max_iter,
            "cap": report.detail.get("cap"),
            "gamma": sc.gamma,
            "grid": {"t_star": g.t_star, "dt": g.dt, "x_max": g.x_max},
        },
        **_meta(sc),
    }
    _write_json(out / "solve_report.json", payload)
    if report.status == STATUS_EXPLOSION:
        return EXIT_EXPLOSION
    return EXIT_OK


def cmd_sweep_explosion(sc: Scenario, out: Path, args) -> int:
    levels = [2.0**k for k in range(args.k_min_exp, args.k_max_exp + 1)]
    result = explosion_sweep(
        sc.model,
        sc.vol,
        levels,
        sc.grid,
        seed=sc.seed,
        tol=sc.tol,
        max_iter=sc.max_iter,
        gamma=sc.gamma,
    )
    with open(out / "sweep.csv", "w") as fh:
        _csv_header(fh, sc)
        fh.write("k,status,n_iters,max_sup\n")
        for row in result.rows:
            fh.write(f"{row.level!r},{row.status},{row.n_iters},{float(row.max_sup)!r}\n")
    _write_json(
        out / "sweep.json",
        {
            "first_explosion_level": result.first_explosion_level,
            "rng_algorithm": RNG_ALGORITHM,
            **_meta(sc),
        },
    )
    return EXIT_OK


def cmd_price(sc: Scenario, out: Path, args) -> int:
    _, _, _, report = _solve_scenario(sc)
    if report.status != STATUS_CONVERGED:
        print(f"solve status: {report.status}", file=sys.stderr)
        return EXIT_EXPLOSION if report.status == STATUS_EXPLOSION else 1
    g = sc.grid
    field = ForwardField(FRAME_MOVING, report.field, g, sc.gamma)
    ts, xs = g.t.tolist(), g.x_wide.tolist()
    with open(out / "price.csv", "w") as fh:
        _csv_header(fh, sc)
        fh.write("t,T,price\n")
        for i in range(g.n_t + 1):
            t = ts[i]
            for j in range(min(g.row_width(i), g.n_x) + 1):
                T = t + xs[j]
                fh.write(f"{t!r},{T!r},{float(bond_price(field, t, T))!r}\n")
    return EXIT_OK


def cmd_check_martingale(sc: Scenario, out: Path, args) -> int:
    maturities = args.maturities or [sc.grid.t_star]
    checkpoints = args.checkpoints or [sc.grid.t_star / 2.0]
    report = martingale_mc(
        sc.model,
        sc.vol,
        sc.r0,
        sc.grid,
        _solver_cfg(sc),
        n_paths=args.n_paths,
        maturities=maturities,
        t_checkpoints=checkpoints,
        seed=sc.seed,
    )
    payload = {
        "rows": [
            {
                "T": r.maturity,
                "t": r.t_checkpoint,
                "mean_discounted": r.mean_discounted,
                "std_error": r.std_error,
                "reference_P0T": r.reference,
                "n_paths": r.n_paths,
            }
            for r in report.rows
        ],
        "n_exploded": report.n_exploded,
        "n_not_converged": report.n_not_converged,
        "note": report.note,
        "rng_algorithm": RNG_ALGORITHM,
        **_meta(sc),
    }
    _write_json(out / "martingale.json", payload)
    return EXIT_OK


_COMMANDS = {
    "report-exponent": cmd_report_exponent,
    "classify": cmd_classify,
    "simulate-path": cmd_simulate_path,
    "solve": cmd_solve,
    "sweep-explosion": cmd_sweep_explosion,
    "price": cmd_price,
    "check-martingale": cmd_check_martingale,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="levyhjmm", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("scenario", help="scenario JSON file")
        sp.add_argument("--out-dir", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--grid-dt", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-iter", type=int, default=None)
        sp.add_argument("--cap", type=float, default=None)
        if name == "report-exponent":
            sp.add_argument("--z-min", type=float, default=0.0)
            sp.add_argument("--z-max", type=float, default=5.0)
            sp.add_argument("--n-z", type=int, default=51)
        if name == "simulate-path":
            sp.add_argument("--dump-factor", action="store_true")
        if name == "sweep-explosion":
            sp.add_argument("--k-min-exp", type=int, default=0)
            sp.add_argument("--k-max-exp", type=int, default=20)
        if name == "check-martingale":
            sp.add_argument("--n-paths", type=int, default=1000)
            sp.add_argument("--maturities", type=float, nargs="*", default=None)
            sp.add_argument("--checkpoints", type=float, nargs="*", default=None)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sc = load_scenario(
            args.scenario,
            overrides={
                "seed": args.seed,
                "grid_dt": args.grid_dt,
                "tol": args.tol,
                "max_iter": args.max_iter,
                "cap": args.cap,
            },
        )
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](sc, out, args)
    except ExponentDomainError as exc:
        print(f"exponent domain error: {exc}", file=sys.stderr)
        return EXIT_EXPONENT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
