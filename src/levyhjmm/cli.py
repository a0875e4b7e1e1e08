"""Scenario-driven command line front end.

Subcommands: report-exponent, classify, simulate-path, solve,
sweep-explosion, price, check-martingale.  The flags --seed --grid-dt --tol
--max-iter --cap override scenario fields, and each command takes only the
ones it reads: none for report-exponent and classify, --seed and --grid-dt
for simulate-path, all but --cap for sweep-explosion, all five for solve,
price and check-martingale.  Every output embeds the effective scenario
hash, the seed and the tool version; JSON reports also carry a timestamp
field (the only part excluded from byte-identity).

Exit codes: 0 ok, 2 a bad or unknown flag (the message names it; nothing
is computed or written) or a scenario schema error, 3 exponent-domain error,
4 explosion in a single solve (solve and price), 5 the solve reached its
iteration cap without converging (price only: solve exits 0 and reports
the status in solve_report.json).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bond_market import _resolve_points, exp_neg_integrals, martingale_mc
from .hjmm_solver import (
    STATUS_CONVERGED,
    STATUS_EXPLOSION,
    explosion_sweep,
    mild_residual,
    solve_monotone,
)
from .levy_analysis import ExponentDomainError, ExponentHandle, classify
from .path_sim import RNG_ALGORITHM, simulate
from .random_factor import compute_a
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_EXPONENT_DOMAIN = 3
EXIT_EXPLOSION = 4
EXIT_NOT_CONVERGED = 5


def _meta(sc: Scenario) -> dict:
    return {
        "scenario_hash": sc.scenario_hash,
        "seed": sc.seed,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n")


def _write_csv(path: Path, sc: Scenario, header: str, cells, keys=None, note: str = "", trailer: str = "") -> None:
    """The hash line (with `note` appended), the header, one line per row,
    then `trailer`.

    The file is one bytes template with a %s for each value cell, filled
    with the cells (bytes, row-major) by one `%`.  Without keys a row holds
    a cell for each column of the header.  keys = (t, x, widths) are the
    key cells of a grid table: row i of the grid gives the lines (i, j),
    j < widths[i], each led by t[i] and, unless x is None, x[j], and the
    columns after the keys hold value cells.
    """
    n_values = header.count(",") + 1
    if keys is None:
        rows = [(b"%s" + b",%s" * (n_values - 1) + b"\n") * (len(cells) // n_values)]
    else:
        t, x, widths = keys
        line = b",%s" * (n_values - 1 - (x is not None)) + b"\n"
        tails = [line] * max(widths) if x is None else [b"," + x_j + line for x_j in x]
        rows = [t_i + t_i.join(tails[:w]) for t_i, w in zip(t, widths)]
    head = f"# scenario_hash={sc.scenario_hash} seed={sc.seed} version={__version__}{note}\n{header}\n"
    # the head and trailer are literal text of the template: a % in them is doubled
    literal = [text.encode().replace(b"%", b"%%") for text in (head, trailer)]
    path.write_bytes(b"".join([literal[0], *rows, literal[1]]) % tuple(cells))


def _reprs(values) -> list[bytes]:
    """repr of each value, as a float, in row-major order.

    orjson writes the shortest round-trip digits that repr writes, spelt the
    same for 0 and 1e-4 <= |v| < 1e16; other values (non-finite ones, which
    it writes as null, and repr's exponent form) are formatted by repr.
    orjson is imported here, so importing the CLI does not load it.
    """
    import orjson

    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not v.size:
        return []
    # split at the commas, then drop the brackets: no copy of the whole text
    cells = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY).split(b",")
    cells[0] = cells[0][1:]
    cells[-1] = cells[-1][:-1]
    a = np.abs(v)
    redo = np.flatnonzero(~(((a >= 1e-4) & (a < 1e16)) | (a == 0.0)))
    for k, x in zip(redo.tolist(), v[redo].tolist()):
        cells[k] = repr(x).encode()
    return cells


def _grid_keys(g, widths, x: bool = True) -> tuple:
    """_write_csv's keys for rows t_i covering the first widths[i] x nodes:
    each t node, and each x node unless x is False, formatted once."""
    return _reprs(g.t), _reprs(g.x_wide) if x else None, widths


def _z0_for(sc: Scenario) -> float:
    # sup |r0| over the nodes a solve reads, x <= x_max + t_star
    sup_r0 = float(np.max(np.abs(sc.r0.values[: sc.grid.n_w + 1])))
    return sc.vol.lambda_bar * sc.grid.t_star * sup_r0 / math.sqrt(sc.r0.gamma)


def _solve_scenario(sc: Scenario):
    path = simulate(sc.model, sc.grid, sc.seed)
    factor = compute_a(path, sc.vol, sc.r0, sc.grid)
    return factor, solve_monotone(factor, sc.solver)


def cmd_report_exponent(sc: Scenario, out: Path, args) -> int:
    zs = np.linspace(args.z_min, args.z_max, args.n_z)
    exponent = ExponentHandle(sc.model)
    table = np.stack([zs, exponent.J(zs), exponent.J_prime(zs), exponent.J_second(zs)], axis=-1)
    _write_csv(out / "exponent.csv", sc, "z,J,J_prime,J_second", _reprs(table))
    return EXIT_OK


def cmd_classify(sc: Scenario, out: Path, args) -> int:
    report = classify(sc.model, z0=_z0_for(sc))
    payload = {
        "flags": report.flags,
        "regime": report.regime,
        "rho_estimate": report.rho_estimate,
        "rho_residual": report.rho_residual,
        "domain_sup": None if report.domain_sup == math.inf else report.domain_sup,
        # enters the log growth condition only through a limsup no grid decides
        "lambda_bar_t_star": sc.vol.lambda_bar * sc.grid.t_star,
        "z0": _z0_for(sc),
        **_meta(sc),
    }
    _write_json(out / "classify.json", payload)
    return EXIT_OK


def cmd_simulate_path(sc: Scenario, out: Path, args) -> int:
    path = simulate(sc.model, sc.grid, sc.seed)
    jumps = np.column_stack([path.jump_times, path.jump_sizes]).tolist()
    _write_csv(
        out / "path.csv", sc, "t,L", _reprs(np.stack([path.t, path.grid_values], axis=-1)),
        note=f" rng={RNG_ALGORITHM}", trailer="# jumps: " + json.dumps(jumps) + "\n",
    )
    if args.dump_factor:
        factor = compute_a(path, sc.vol, sc.r0, sc.grid)
        g = sc.grid
        keys = _grid_keys(g, [g.row_width(i) + 1 for i in range(g.n_t + 1)])
        table = np.stack([g.triangle(v) for v in (factor.I1, factor.I2, factor.a)], axis=-1)
        _write_csv(out / "factor.csv", sc, "t,x,I1,I2,a", _reprs(table), keys)
    return EXIT_OK


def cmd_solve(sc: Scenario, out: Path, args) -> int:
    factor, report = _solve_scenario(sc)
    residuals = {}
    if report.status == STATUS_CONVERGED:
        res = mild_residual(report, factor)
        residuals["mild_l2_max"] = float(np.max(res))
    g = sc.grid
    rect = report.field[:, : g.n_x + 1]
    _write_csv(out / "field.csv", sc, "t,x,r", _reprs(rect), _grid_keys(g, [g.n_x + 1] * (g.n_t + 1)))
    payload = {
        "status": report.status,
        "n_iters": report.n_iters,
        "iterate_sup_norms": report.iterate_sup_norms,
        "iterate_l2_norms": report.iterate_l2_norms,
        "c1": report.c1,
        "residuals": residuals,
        "detail": {k: v for k, v in report.detail.items() if k != "h0"},
        "rng_algorithm": RNG_ALGORITHM,
        "config": {
            "tol": sc.solver.tol,
            "max_iter": sc.solver.max_iter,
            "cap": report.detail.get("cap"),
            "gamma": report.gamma,
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
        tol=sc.solver.tol,
        max_iter=sc.solver.max_iter,
        gamma=sc.r0.gamma,
    )
    rows = result.rows
    levels, sups = _reprs([r.level for r in rows]), _reprs([r.max_sup for r in rows])
    cells = [c for k, r, s in zip(levels, rows, sups) for c in (k, r.status.encode(), b"%d" % r.n_iters, s)]
    _write_csv(out / "sweep.csv", sc, "k,status,n_iters,max_sup", cells)
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
    _, report = _solve_scenario(sc)
    if report.status != STATUS_CONVERGED:
        print(f"solve status: {report.status}", file=sys.stderr)
        return EXIT_EXPLOSION if report.status == STATUS_EXPLOSION else EXIT_NOT_CONVERGED
    g = sc.grid
    # every row reaches x_max, so column j prices P(t_i, t_i + x_j) for every i
    prices = np.array([exp_neg_integrals(report.field[:, : j + 1], g.dt) for j in range(g.n_x + 1)]).T
    table = np.stack([g.t[:, None] + g.x, prices], axis=-1)
    _write_csv(out / "price.csv", sc, "t,T,price", _reprs(table), _grid_keys(g, [g.n_x + 1] * (g.n_t + 1), x=False))
    return EXIT_OK


def _martingale_points(sc: Scenario, args) -> tuple[list[float], list[float]]:
    """The maturities and checkpoints of check-martingale, defaults filled in."""
    return args.maturities or [sc.grid.t_star], args.checkpoints or [sc.grid.t_star / 2.0]


def cmd_check_martingale(sc: Scenario, out: Path, args) -> int:
    maturities, checkpoints = _martingale_points(sc, args)
    report = martingale_mc(
        sc.model,
        sc.vol,
        sc.r0,
        sc.grid,
        sc.solver,
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
        "n_iters_min": report.n_iters_min,
        "n_iters_median": report.n_iters_median,
        "n_iters_max": report.n_iters_max,
        "region": list(report.region),
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

#: the scenario overrides (load_scenario's keys, each set by the flag
#: --key with _ for -) and the ones each command takes: those it reads
_OVERRIDE_TYPES = {"seed": int, "grid_dt": float, "tol": float, "max_iter": int, "cap": float}
_ALL_OVERRIDES = tuple(_OVERRIDE_TYPES)
_OVERRIDES = {
    "report-exponent": (),
    "classify": (),
    "simulate-path": ("seed", "grid_dt"),
    "solve": _ALL_OVERRIDES,
    "sweep-explosion": ("seed", "grid_dt", "tol", "max_iter"),
    "price": _ALL_OVERRIDES,
    "check-martingale": _ALL_OVERRIDES,
}


def _positive_int(text: str) -> int:
    """argparse type: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# parse_args leaves the parser as it is, so one per process serves every main call
@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="levyhjmm", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.set_defaults(usage_error=sp.error)
        sp.add_argument("scenario", help="scenario JSON file")
        sp.add_argument("--out-dir", default=".", help="output directory")
        for key in _OVERRIDES[name]:
            sp.add_argument("--" + key.replace("_", "-"), type=_OVERRIDE_TYPES[key], default=None)
        if name == "report-exponent":
            sp.add_argument("--z-min", type=float, default=0.0)
            sp.add_argument("--z-max", type=float, default=5.0)
            sp.add_argument("--n-z", type=_positive_int, default=51)
        if name == "simulate-path":
            sp.add_argument("--dump-factor", action="store_true")
        if name == "sweep-explosion":
            sp.add_argument("--k-min-exp", type=int, default=0)
            sp.add_argument("--k-max-exp", type=int, default=20)
        if name == "check-martingale":
            sp.add_argument("--n-paths", type=_positive_int, default=1000)
            sp.add_argument("--maturities", type=float, nargs="*", default=None)
            sp.add_argument("--checkpoints", type=float, nargs="*", default=None)
    return p


def _flag_error(sc: Scenario, args) -> str | None:
    """Why a flag's value cannot be used with the others or on the grid, if
    it cannot: the checks argparse cannot make alone."""
    if args.command == "sweep-explosion":
        if args.k_min_exp > args.k_max_exp:
            return f"argument --k-max-exp: {args.k_max_exp} is below --k-min-exp {args.k_min_exp}"
        for flag, k in (("--k-min-exp", args.k_min_exp), ("--k-max-exp", args.k_max_exp)):
            if not -1074 <= k <= 1023:  # 2.0**k is a positive finite double
                return f"argument {flag}: 2**{k} is not a positive finite double (k must lie in [-1074, 1023])"
        if sc.solver.cap is not None:
            return "solver.cap: sweep-explosion caps each level k at 1e8 (1 + k) and takes no cap"
    if args.command == "check-martingale":
        try:
            _resolve_points(sc.grid, *_martingale_points(sc, args))
        except ValueError as exc:
            flag = "--checkpoints" if str(exc).startswith("t_checkpoint=") else "--maturities"
            return f"argument {flag}: {exc}"
    return None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario, overrides={k: getattr(args, k) for k in _OVERRIDES[args.command]})
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if problem := _flag_error(sc, args):
        args.usage_error(problem)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](sc, out, args)
    except ExponentDomainError as exc:
        print(f"exponent domain error: {exc}", file=sys.stderr)
        return EXIT_EXPONENT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
