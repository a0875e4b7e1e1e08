"""Scenario files: JSON schema, validation with field-path messages, and
construction of the model/volatility/curve/grid objects they describe."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .function_space import WeightedCurve, read_curve_csv
from .grids import SolveGrid
from .hjmm_solver import SolverConfig
from .levy_model import INF, Exponential, LevyMeasureSpec, LevyModel, PowerLaw, Uniform
from .random_factor import ConstantVol, ExpAffineVol, TabulatedVol, Volatility


class ScenarioError(ValueError):
    """Schema violation; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return d[key]


def _number(v, path: str, positive: bool = False) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ScenarioError(path, f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an int beyond float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(path, f"must be finite, got {x}")
    if positive and x <= 0:
        raise ScenarioError(path, f"must be positive, got {v}")
    return x


@dataclass(frozen=True)
class Scenario:
    raw: dict
    model: LevyModel
    vol: Volatility
    grid: SolveGrid
    r0: WeightedCurve
    solver: SolverConfig
    seed: int

    @cached_property
    def scenario_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()[:16]


_PART_KINDS = {"power_law": PowerLaw, "exponential": Exponential, "uniform": Uniform}
_INF_SPELLINGS = {"inf": INF, "+inf": INF, "infinity": INF, "-inf": -INF, "-infinity": -INF}


def _endpoint(v, unbounded: float, path: str) -> float:
    """An interval endpoint: null is the unbounded side, and inf may also be
    spelled as a string or an infinite number."""
    if v is None:
        return unbounded
    if isinstance(v, str) and v.strip().lower() in _INF_SPELLINGS:
        return _INF_SPELLINGS[v.strip().lower()]
    if isinstance(v, float) and math.isinf(v):
        return v
    return _number(v, path)


def _build_part(d: dict, path: str):
    kind = _need(d, "kind", path)
    if kind not in _PART_KINDS:
        raise ScenarioError(f"{path}.kind", f"unknown density part kind {kind!r}")
    sup = _need(d, "support", path)
    if not isinstance(sup, list) or len(sup) != 2:
        raise ScenarioError(f"{path}.support", "must be a 2-element interval")
    support = (_endpoint(sup[0], -INF, f"{path}.support[0]"), _endpoint(sup[1], INF, f"{path}.support[1]"))
    cls = _PART_KINDS[kind]
    params = {f.name: _number(_need(d, f.name, path), f"{path}.{f.name}") for f in fields(cls) if f.name != "support"}
    return cls(support=support, **params)


def _section(path: str, d, build, *args):
    """build(d, path, *args) for the scenario section at path, an object: a
    ScenarioError inside keeps its own field path, any other bad value is the section's."""
    if not isinstance(d, dict):
        raise ScenarioError(path, f"expected an object, got {type(d).__name__}")
    try:
        return build(d, path, *args)
    except ScenarioError:
        raise
    except (ValueError, TypeError, AttributeError, OSError) as exc:
        raise ScenarioError(path, str(exc)) from exc


def _build_levy_model(d: dict, path: str) -> LevyModel:
    nu = d.get("nu") or {}
    atoms = tuple(
        (_number(y, f"{path}.nu.atoms[{i}][0]"), _number(m, f"{path}.nu.atoms[{i}][1]"))
        for i, (y, m) in enumerate(nu.get("atoms", []))
    )
    parts = tuple(
        _section(f"{path}.nu.density_parts[{i}]", pd, _build_part) for i, pd in enumerate(nu.get("density_parts", []))
    )
    return LevyModel(
        a=_number(d.get("a", 0.0), f"{path}.a"),
        q=_number(d.get("q", 0.0), f"{path}.q"),
        nu=LevyMeasureSpec(atoms=atoms, density_parts=parts),
    )


def levy_model_from_dict(d: dict) -> LevyModel:
    """Build a LevyModel from the scenario section 'levy_model'; an error is a
    ScenarioError naming the field, else its density part (a power law's support
    and alpha, say) or the section, and a section or part must be an object."""
    return _section("levy_model", d, _build_levy_model)


def _read_curve(d: dict, key: str, gamma: float, path: str) -> WeightedCurve:
    """The curve in the file named by d[key]; a bad file is that field's error."""
    name = _need(d, key, path)
    try:
        return read_curve_csv(name, gamma=gamma)
    except (ValueError, TypeError, OSError) as exc:
        raise ScenarioError(f"{path}.{key}", str(exc)) from exc


def _build_vol(d: dict, path: str) -> Volatility:
    kind = _need(d, "kind", path)
    if kind == "constant":
        return ConstantVol(_number(_need(d, "value", path), f"{path}.value", True))
    if kind == "exp_affine":
        return ExpAffineVol(
            c0=_number(_need(d, "c0", path), f"{path}.c0"),
            c1=_number(_need(d, "c1", path), f"{path}.c1"),
            beta=_number(_need(d, "beta", path), f"{path}.beta", True),
        )
    if kind == "tabulated":
        if "csv" in d:
            curve = _read_curve(d, "csv", 1.0, path)
            return TabulatedVol(dx=curve.dx, values=curve.values)
        return TabulatedVol(
            dx=_number(_need(d, "dx", path), f"{path}.dx", True),
            values=np.asarray(_need(d, "values", path), dtype=float),
        )
    raise ScenarioError(f"{path}.kind", f"unknown volatility kind {kind!r}")


def _build_grid(d: dict, path: str, overrides: dict) -> SolveGrid:
    if overrides.get("grid_dt") is not None:
        d["dt"] = float(overrides["grid_dt"])
    return SolveGrid(
        t_star=_number(_need(d, "t_star", path), f"{path}.t_star", True),
        dt=_number(_need(d, "dt", path), f"{path}.dt", True),
        x_max=_number(_need(d, "x_max", path), f"{path}.x_max", True),
    )


def _build_r0(d: dict, path: str, grid: SolveGrid, gamma: float) -> WeightedCurve:
    kind = _need(d, "kind", path)
    n = grid.n_w
    if kind == "flat":
        level = _number(_need(d, "level", path), f"{path}.level")
        return WeightedCurve(dx=grid.dt, values=np.full(n + 1, level), gamma=gamma)
    if kind == "exp_decay":
        beta = _number(_need(d, "beta", path), f"{path}.beta", True)
        scale = _number(d.get("scale", 1.0), f"{path}.scale")
        return WeightedCurve(dx=grid.dt, values=scale * np.exp(-beta * grid.x_wide), gamma=gamma)
    if kind == "csv":
        curve = _read_curve(d, "path", gamma, path)
        if abs(curve.dx - grid.dt) > 1e-12 * grid.dt:
            raise ScenarioError(f"{path}.path", f"curve dx={curve.dx} != grid dt={grid.dt}")
        if curve.values.size < n + 1:
            raise ScenarioError(f"{path}.path", f"curve too short: need {n + 1} nodes up to x_max + t_star")
        return curve
    raise ScenarioError(f"{path}.kind", f"unknown r0 kind {kind!r}")


def _build_solver(d: dict, path: str, grid: SolveGrid, r0: WeightedCurve, overrides: dict) -> SolverConfig:
    d.update((key, overrides[key]) for key in ("tol", "max_iter", "cap") if overrides.get(key) is not None)
    tol = _number(d.get("tol", 1e-10), f"{path}.tol", True)
    max_iter = _number(d.get("max_iter", 200), f"{path}.max_iter", True)
    if not max_iter.is_integer():
        raise ScenarioError(f"{path}.max_iter", f"must be an integer >= 1, got {max_iter}")
    cap = d.get("cap")
    if cap is not None:
        cap = _number(cap, f"{path}.cap", True)
        # the solver's own check, on the nodes it reads
        sup_r0 = float(np.max(np.abs(r0.values[: grid.n_w + 1])))
        if cap <= sup_r0:
            raise ScenarioError(f"{path}.cap", f"cap={cap} must exceed sup |r0|={sup_r0}")
    return SolverConfig(tol=tol, max_iter=int(max_iter), cap=cap)


def load_scenario(source, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario, given as a dict or as the path of a JSON file;
    each section goes through `_section`, so an error names its field or section.

    overrides: optional {seed, grid_dt, tol, max_iter, cap} from CLI flags, written
    into their sections once found to be objects, before the scenario is hashed.
    """
    if isinstance(source, dict):
        raw = json.loads(json.dumps(source))
    else:
        try:
            with open(str(source)) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError("<file>", f"cannot read scenario: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("<file>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")

    overrides = overrides or {}
    if overrides.get("seed") is not None:
        raw["seed"] = int(overrides["seed"])

    model = levy_model_from_dict(_need(raw, "levy_model", "<root>"))
    vol = _section("volatility", _need(raw, "volatility", "<root>"), _build_vol)
    grid = _section("grid", _need(raw, "grid", "<root>"), _build_grid, overrides)
    # the weight of r0's space, and so of every weighted norm of the solve
    r0 = _section("r0", _need(raw, "r0", "<root>"), _build_r0, grid, _number(raw.get("gamma", 1.0), "gamma", True))
    solver = _section("solver", raw.setdefault("solver", {}), _build_solver, grid, r0, overrides)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed", f"expected a non-negative integer, got {seed!r}")

    return Scenario(
        raw=raw,
        model=model,
        vol=vol,
        grid=grid,
        r0=r0,
        solver=solver,
        seed=seed,
    )
