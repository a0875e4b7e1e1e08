"""Tracing must not change results and must survive missing wrap targets;
a repetition that raises counts as failed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import env  # noqa: E402

env.prepare()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from levyhjmm import hjmm_solver  # noqa: E402


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_gives_identical_outputs(name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path)
    tr = tracing.Tracer()
    try:
        for k in range(wl.parts):
            plain = wl.digest(wl.run(k))
            with tr:
                traced = wl.digest(wl.run(k))
            assert _same(plain, traced)
            assert wl.check(k, wl.run(k)) == 0
    finally:
        wl.close()
    assert tr.spans and not tr.absent
    metrics = tracing.layer_metrics(tr, reps=1)
    assert metrics["hjmm_solver.solve_monotone.calls"][0] >= 1
    assert metrics["levy_analysis.J_prime.points"][0] > 0


def test_tracer_restores_originals():
    original = hjmm_solver.apply_K
    with tracing.Tracer():
        assert hjmm_solver.apply_K is not original
    assert hjmm_solver.apply_K is original


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(hjmm_solver, "apply_K")
    tr = tracing.Tracer()
    with tr:
        pass
    assert tr.absent == ["levyhjmm.hjmm_solver.apply_K"]
    metrics = tracing.layer_metrics(tr, reps=1)
    assert not any(name.startswith("hjmm_solver.apply_K") for name in metrics)
    assert metrics["trace.absent_targets"] == (1.0, "count")
    assert "hjmm_solver.solve_monotone.calls" in metrics


def test_raising_repetition_counts_as_failed():
    import run

    class Raising:
        ops_per_rep = 3

        def run(self, k):
            raise hjmm_solver.ExponentDomainError(1.0)

    tally = {"attempted": 0, "failed": 0}
    assert run.one_rep(Raising(), 0, tally) is None
    assert tally == {"attempted": 3, "failed": 3}
