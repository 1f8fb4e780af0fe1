"""Rebuild ``generate_panel.json``, the pinned results of the ``generate``
workload.

    PYTHONPATH=src python3 perfbench/make_panel.py

Runs ``batch_generate(4, 10, runs=1, base_seed=s)`` for seeds 0-47,
pins its exact (volume digest, vertex count, iterations), and groups the
seeds into six strata of eight by their run time rescaled to the reference
speed (``child.SpeedProbe``), cheapest first.  The benchmark draws one seed
per stratum, so a batch costs about the same whatever the benchmark seed.
The timings only decide the strata; the pins must never change.
"""

from __future__ import annotations

import json
import time

from child import SpeedProbe
from workloads import GENERATE_DIM, GENERATE_K, HERE, volume_digest

from sympolar.experiments import batch_generate


PANEL_SEEDS = 48
STRATA = 6


def main() -> int:
    runs, cost = {}, {}
    for seed in range(PANEL_SEEDS):
        with SpeedProbe() as probe:
            start = time.perf_counter()
            result = batch_generate(GENERATE_DIM, GENERATE_K, runs=1, base_seed=seed)
            wall = time.perf_counter() - start
        cost[seed] = probe.normalize(wall)
        (record,) = result.records
        if result.failures or not record.self_polar:
            raise SystemExit(f"generation seed {seed} did not end self-polar")
        runs[str(seed)] = {
            "volume_sha256": volume_digest(record.volume),
            "vertex_count": record.vertex_count,
            "iterations": record.iterations,
        }
        print(f"seed {seed}: {cost[seed]:.2f} s, {runs[str(seed)]}", flush=True)

    by_cost = sorted(cost, key=cost.get)
    size = PANEL_SEEDS // STRATA
    panel = {
        "dim": GENERATE_DIM,
        "k": GENERATE_K,
        "strata": [sorted(by_cost[i : i + size]) for i in range(0, PANEL_SEEDS, size)],
        "ref_s": {str(s): round(cost[s], 2) for s in range(PANEL_SEEDS)},
        "runs": runs,
    }
    (HERE / "generate_panel.json").write_text(json.dumps(panel, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
