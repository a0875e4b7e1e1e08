"""Regenerate perfbench/reference.json from the current code at DEFAULT_SEED.

    python3 perfbench/make_reference.py

The reference pins the outputs the checks compare against on the default
seed: a sampled solve_fine field with its iteration count, and the
per-level sweep statuses.  Regenerate it only when a change is meant to
move those outputs, and say by how much.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import env


def main() -> None:
    env.prepare()
    from workloads import DEFAULT_SEED, REFERENCE_FILE, SolveFine, SweepPowerlaw

    out = env.ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out)
    try:
        solve = SolveFine(DEFAULT_SEED, tmp)
        rc, report, field = solve.read_outputs(solve.run(0))
        solve.close()
        assert rc == 0 and report["status"] == "Converged", report["status"]
        sweep = SweepPowerlaw(DEFAULT_SEED, tmp)
        rows = [sweep.run(k).rows[0] for k in range(sweep.parts)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    payload = {
        "seed": DEFAULT_SEED,
        "solve_fine": {
            "n_iters": report["n_iters"],
            "mild_l2_max": report["residuals"]["mild_l2_max"],
            "stride": SolveFine.STRIDE,
            "field": solve.sampled_field(field),
        },
        "sweep_powerlaw": {
            "levels": [row.level for row in rows],
            "statuses": [row.status for row in rows],
            "n_iters": [row.n_iters for row in rows],
        },
    }
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
