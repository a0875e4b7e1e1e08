"""Call-site tracer for the benchmark's per-layer metrics.

The program carries no instrumentation of its own.  While a Tracer is
active, each target below is replaced by a wrapper at the place the caller
looks it up (a module global, or a class attribute for methods), and the
original is put back when the tracer closes.  A target that no longer
exists is recorded as absent instead of failing the run.

Spans of the "span" kind are kept in memory as records
(name, start, end, parent, run) and written out when the run ends.  The
high-frequency leaves (J', moment integrals, bond prices) are aggregated
into count and time totals instead, and their time is still charged to the
enclosing span so that self times stay correct.  row_width is only counted.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

SPAN, LEAF, COUNT = "span", "leaf", "count"

#: (module, attribute path, span name, kind); one span name may have several
#: call sites, one per module that imported the function under its own name.
TARGETS = (
    ("levyhjmm.levy_analysis", "ExponentHandle.J_prime", "levy_analysis.J_prime", LEAF),
    ("levyhjmm.path_sim", "moment_integral", "levy_model.moment_integral", LEAF),
    ("levyhjmm.levy_analysis", "moment_integral", "levy_model.moment_integral", LEAF),
    ("levyhjmm.grids", "SolveGrid.row_width", "grids.row_width", COUNT),
    ("levyhjmm.bond_market", "simulate", "path_sim.simulate", SPAN),
    ("levyhjmm.hjmm_solver", "simulate", "path_sim.simulate", SPAN),
    ("levyhjmm.cli", "simulate", "path_sim.simulate", SPAN),
    ("levyhjmm.bond_market", "compute_a", "random_factor.compute_a", SPAN),
    ("levyhjmm.hjmm_solver", "compute_a", "random_factor.compute_a", SPAN),
    ("levyhjmm.cli", "compute_a", "random_factor.compute_a", SPAN),
    ("levyhjmm.bond_market", "solve_monotone", "hjmm_solver.solve_monotone", SPAN),
    ("levyhjmm.hjmm_solver", "solve_monotone", "hjmm_solver.solve_monotone", SPAN),
    ("levyhjmm.cli", "solve_monotone", "hjmm_solver.solve_monotone", SPAN),
    ("levyhjmm.hjmm_solver", "apply_K", "hjmm_solver.apply_K", SPAN),
    ("levyhjmm.cli", "mild_residual", "hjmm_solver.mild_residual", SPAN),
    ("levyhjmm.hjmm_solver", "explosion_sweep", "hjmm_solver.explosion_sweep", SPAN),
    ("levyhjmm.bond_market", "bond_price", "bond_market.bond_price", LEAF),
    ("levyhjmm.cli", "bond_price", "bond_market.bond_price", LEAF),
    ("levyhjmm.bond_market", "martingale_mc", "bond_market.martingale_mc", SPAN),
    ("levyhjmm.cli", "load_scenario", "scenario.load_scenario", SPAN),
    ("levyhjmm.cli", "main", "cli.main", SPAN),
)

STATUSES = ("Converged", "ExplosionDetected", "MaxIterReached")


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, leaf = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    Set `run` to the repetition index before each repetition; spans carry it
    as their run id.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.run = 0
        self.spans: list[list] = []  # [name, start, end, parent, run, child_s]
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.points: dict[str, int] = defaultdict(int)
        self.solve_status: dict[str, int] = defaultdict(int)
        self.iters_by_status: dict[str, int] = defaultdict(int)
        self.jumps = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent = []
        for module_name, attr_path, name, kind in self.targets:
            site = _resolve(module_name, attr_path)
            if site is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            owner, leaf = site
            original = owner.__dict__[leaf] if leaf in vars(owner) else getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, kind))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    @property
    def present(self) -> set[str]:
        """Span names with at least one call site installed."""
        absent = set(self.absent)
        return {
            name
            for module_name, attr_path, name, _ in self.targets
            if f"{module_name}.{attr_path}" not in absent
        }

    def _wrap(self, fn, name: str, kind: str):
        if kind == COUNT:
            def counted(*args, **kwargs):
                self.leaf_calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == LEAF:
            count_points = name == "levy_analysis.J_prime"

            def leaf(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = time.perf_counter() - start
                    self.leaf_calls[name] += 1
                    self.leaf_s[name] += d
                    if count_points:
                        # J_prime(self, zs): the array is the second argument
                        self.points[name] += int(np.size(args[1] if len(args) > 1 else kwargs["zs"]))
                    if self._stack:
                        self.spans[self._stack[-1]][5] += d

            return leaf

        def span(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            rec = [name, time.perf_counter(), None, parent, self.run, 0.0]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][5] += rec[2] - rec[1]
            self._observe(name, result)
            return result

        return span

    def _observe(self, name: str, result) -> None:
        if name == "hjmm_solver.solve_monotone":
            self.solve_status[result.status] += 1
            self.iters_by_status[result.status] += result.n_iters
        elif name == "path_sim.simulate":
            self.jumps += int(result.jump_times.size)

    # -- results ------------------------------------------------------------

    def durations(self, name: str) -> np.ndarray:
        return np.array([r[2] - r[1] for r in self.spans if r[0] == name])

    def self_seconds(self, name: str) -> float:
        return float(sum(r[2] - r[1] - r[5] for r in self.spans if r[0] == name))

    def write(self, path) -> None:
        """Spans as JSON lines, then one line with the aggregated leaves."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
            fh.write(json.dumps({"leaf_calls": self.leaf_calls, "leaf_s": self.leaf_s,
                                 "points": self.points, "absent": self.absent}) + "\n")


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def layer_metrics(tr: Tracer, reps: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as means per workload run, over `reps` traced runs.

    Metrics of a layer whose every call site is absent are left out; the
    count of absent call sites is reported as trace.absent_targets.
    """
    present = tr.present
    out: dict[str, tuple[float, str]] = {}

    def per_rep(v: float) -> float:
        return v / reps

    def put(name: str, layer: str, value: float, unit: str) -> None:
        if layer in present:
            out[name] = (float(value), unit)

    jp = "levy_analysis.J_prime"
    put(f"{jp}.calls", jp, per_rep(tr.leaf_calls[jp]), "count")
    put(f"{jp}.points", jp, per_rep(tr.points[jp]), "count")
    put(f"{jp}.s", jp, per_rep(tr.leaf_s[jp]), "s")
    put(f"{jp}.us_per_point", jp, 1e6 * tr.leaf_s[jp] / max(tr.points[jp], 1), "us")
    mi = "levy_model.moment_integral"
    put(f"{mi}.calls", mi, per_rep(tr.leaf_calls[mi]), "count")
    put(f"{mi}.s", mi, per_rep(tr.leaf_s[mi]), "s")
    sim = "path_sim.simulate"
    put(f"{sim}.calls", sim, per_rep(len(tr.durations(sim))), "count")
    put(f"{sim}.s", sim, per_rep(tr.durations(sim).sum()), "s")
    put("path_sim.jumps", sim, per_rep(tr.jumps), "count")
    ca = "random_factor.compute_a"
    put(f"{ca}.calls", ca, per_rep(len(tr.durations(ca))), "count")
    put(f"{ca}.s", ca, per_rep(tr.durations(ca).sum()), "s")
    rw = "grids.row_width"
    put(f"{rw}.calls", rw, per_rep(tr.leaf_calls[rw]), "count")

    sm = "hjmm_solver.solve_monotone"
    d = tr.durations(sm)
    put(f"{sm}.calls", sm, per_rep(d.size), "count")
    put(f"{sm}.s", sm, per_rep(d.sum()), "s")
    put(f"{sm}.self_s", sm, per_rep(tr.self_seconds(sm)), "s")
    put(f"{sm}.ms_p50", sm, 1e3 * float(np.median(d)) if d.size else 0.0, "ms")
    p = tail_percentile(d.size)
    # with fewer than 20 solves no percentile has ten beyond it: report the max
    tail = (float(np.percentile(d, p)) if p is not None else float(d.max())) if d.size else 0.0
    put(f"{sm}.ms_tail", sm, 1e3 * tail, "ms")
    put(f"{sm}.tail_pct", sm, p if p is not None else 100.0, "%")
    ak = "hjmm_solver.apply_K"
    put(f"{ak}.calls", ak, per_rep(len(tr.durations(ak))), "count")
    put(f"{ak}.s", ak, per_rep(tr.durations(ak).sum()), "s")
    put(f"{ak}.self_s", ak, per_rep(tr.self_seconds(ak)), "s")
    all_iters = sum(tr.iters_by_status.values())
    put("hjmm_solver.iters", sm, per_rep(all_iters), "count")
    for status in STATUSES:
        put(f"hjmm_solver.status.{status}", sm, per_rep(tr.solve_status[status]), "count")
    ratio = tr.iters_by_status["Converged"] / all_iters if all_iters else 0.0
    put("hjmm_solver.useful_iter_ratio", sm, ratio, "ratio")
    mr = "hjmm_solver.mild_residual"
    put(f"{mr}.s", mr, per_rep(tr.durations(mr).sum()), "s")

    mc = "bond_market.martingale_mc"
    put(f"{mc}.s", mc, per_rep(tr.durations(mc).sum()), "s")
    bp = "bond_market.bond_price"
    put(f"{bp}.calls", bp, per_rep(tr.leaf_calls[bp]), "count")
    put(f"{bp}.s", bp, per_rep(tr.leaf_s[bp]), "s")
    ls = "scenario.load_scenario"
    put(f"{ls}.s", ls, per_rep(tr.durations(ls).sum()), "s")
    put("cli.self_s", "cli.main", per_rep(tr.self_seconds("cli.main")), "s")
    out["trace.absent_targets"] = (float(len(tr.absent)), "count")
    out["trace.reps"] = (float(reps), "count")
    return out
