"""Extension E2 benchmark: the sensitivity grid, gang vs per-task.

The ±20% perturbation grid is the library's densest sweep and the only
workload gang execution batches: every cell shares the grid's structure
and differs only in one calibration constant, so the planned tasks
batch the whole grid through the sensitivity gang kernel
(:func:`repro.core.sensitivity.gang_cells`), while the same tasks with
``gang=None`` run one event-kernel task at a time.

Both arms run cold (no result cache), interleaved so machine-load
drift hits both; each is scored by its best wall.  The checks hold the
two arms to *byte-identical* rendered reports — gang execution is a
pure wall-clock optimisation — plus the grid's own shape checks and the
deterministic gang accounting (every cell ganged, nothing defected).

The in-test speedup floor is conservative (CI machines are noisy);
refresh the committed baseline with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_ext_sensitivity.py
    cp benchmarks/results/ext_sensitivity.json benchmarks/baselines/
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from repro.core.experiments import ext_sensitivity
from repro.exec import GangStats, run_tasks
from repro.sim.engine import Simulator

def _min_speedup(quick: bool) -> float:
    """The in-test wall-clock floor for gang vs per-task.

    The gang kernel's end-to-end win is read-set dedup across cells, so
    it scales with how many cells *don't* read the perturbed constant.
    The quick grid deliberately perturbs the most widely-read constants
    (that is what makes it a good smoke), so almost every leg re-runs
    and the honest quick floor is only "not slower"; the full grid adds
    the narrowly-read constants and the dedup win shows (~1.7x measured,
    floored conservatively — CI machines are noisy).
    """
    default = "0.90" if quick else "1.25"
    return float(os.environ.get("REPRO_GANG_BENCH_MIN_SPEEDUP", default))


def _run_once(arm: str, quick: bool) -> dict:
    """One cold run of the grid, ganged or per task; observables + wall."""
    gang_before = GangStats.process_totals()
    events_before = Simulator.events_processed_total
    t0 = time.perf_counter()
    tasks = ext_sensitivity.plan(quick=quick)
    if arm == "per-task":
        tasks = [dataclasses.replace(t, gang=None) for t in tasks]
    report = ext_sensitivity.assemble(run_tasks(tasks), quick=quick)
    wall = time.perf_counter() - t0
    gang_after = GangStats.process_totals()
    return {
        "wall": wall,
        "events": Simulator.events_processed_total - events_before,
        "report": report,
        "text": report.render(),
        "gang": {k: gang_after[k] - gang_before[k] for k in gang_after},
    }


def test_ext_sensitivity_gang(results_dir):
    quick = os.environ.get("REPRO_FULL", "") != "1"
    min_speedup = _min_speedup(quick)
    n_cells = len(ext_sensitivity.plan(quick=quick))

    runs = {"per-task": [], "gang": []}
    for _ in range(3):
        for arm in ("per-task", "gang"):
            runs[arm].append(_run_once(arm, quick))
    solo, batched = runs["per-task"][0], runs["gang"][0]
    wall_per_task = min(r["wall"] for r in runs["per-task"])
    wall_gang = min(r["wall"] for r in runs["gang"])
    speedup = wall_per_task / wall_gang if wall_gang > 0 else 0.0

    identical = solo["text"] == batched["text"]
    ganged = batched["gang"]["scenarios_ganged"]
    defected = batched["gang"]["scenarios_defected"]
    report = batched["report"]
    checks = [
        {"metric": c.metric, "paper": repr(c.paper),
         "measured": repr(c.measured), "ok": c.ok}
        for c in report.checks
    ] + [
        {"metric": "gang-vs-per-task reports identical", "paper": repr(True),
         "measured": repr(identical), "ok": identical},
        {"metric": "grid cells ganged", "paper": repr(n_cells),
         "measured": repr(ganged), "ok": ganged == n_cells},
        {"metric": "grid cells defected", "paper": repr(0),
         "measured": repr(defected), "ok": defected == 0},
    ]
    all_ok = all(c["ok"] for c in checks)

    payload = {
        "name": "ext_sensitivity",
        "experiment_id": report.experiment_id,
        "quick": quick,
        "ops": batched["events"],
        "wall_seconds": wall_gang,
        "events_per_sec": batched["events"] / wall_gang if wall_gang > 0 else 0.0,
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": checks,
        # Gang extras (ignored by the gate, kept for humans):
        "wall_per_task": wall_per_task,
        "wall_gang": wall_gang,
        "speedup": speedup,
        "grid_cells": n_cells,
        "gang": batched["gang"],
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "ext_sensitivity.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (results_dir / "ext_sensitivity.txt").write_text(batched["text"] + "\n")
    print()
    print(batched["text"])
    print(f"\nsensitivity grid ({n_cells} cells): per-task {wall_per_task:.2f}s, "
          f"gang {wall_gang:.2f}s -> {speedup:.2f}x "
          f"(ganged {ganged}, defected {defected})")

    assert all_ok, "gang run diverged: " + ", ".join(
        f"{c['metric']} (expected={c['paper']}, measured={c['measured']})"
        for c in checks if not c["ok"]
    )
    assert speedup >= min_speedup, (
        f"gang speedup {speedup:.2f}x below floor {min_speedup:.2f}x "
        f"(per-task {wall_per_task:.4f}s, gang {wall_gang:.4f}s)"
    )
