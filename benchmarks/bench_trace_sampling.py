"""Sampler microbenchmark: analytic backfill vs per-tick sampling.

Runs the paper-scale (``quick=False``) fig13 + fig14 WAN sweeps — the
most probe-dense experiments in the repository (a block-size x streams
grid, each cell carrying a 1 Hz throughput probe over 300 simulated
seconds) — once with the backfill sampler and once with the per-tick
reference of ``tests/oracles/sampling.py``, with the schedule repeated
``INNER`` times per leg so the walls are long enough to time reliably.
Legs are interleaved across ``REPS`` repetitions so machine-load drift
hits both arms; each arm scores its best (least-disturbed) wall.

The JSON payload records both walls and the speedup; the checks assert
the two arms produced byte-identical paper-vs-measured values (the
backfill sampler replaces *when* counters are read, never the dynamics)
and exact deterministic sampler counters, so the regression gate catches
both a performance collapse (events/sec) and a divergence (check drift).

ISSUE 4's acceptance floor is 3x on these workloads (typically ~3.8x is
measured); on a noisy machine override with::

    REPRO_SAMPLING_BENCH_MIN_SPEEDUP=2 \\
        PYTHONPATH=src python -m pytest -q benchmarks/bench_trace_sampling.py

Refresh the committed baseline with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_trace_sampling.py
    cp benchmarks/results/trace_sampling.json benchmarks/baselines/
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from repro.core.experiments import exp_fig13_wan_bw, exp_fig14_wan_cpu
from repro.sim import Simulator
from repro.sim.sampling import SamplerHub
from tests.oracles.sampling import per_tick_sampling

#: Full-scale fig13+fig14 runs per timed leg (stacks ~30-100 ms walls
#: into something a wall clock can resolve).
INNER = 4
#: Interleaved repetitions; each arm keeps its best wall.
REPS = 3
SEED = 20130417  # same vintage as bench_fluid_solver; any fixed value works
#: In-test floor — the ISSUE 4 acceptance target itself (3x), because the
#: measured margin (~3.8x) leaves headroom even on shared CI machines.
MIN_SPEEDUP = float(os.environ.get("REPRO_SAMPLING_BENCH_MIN_SPEEDUP", "3.0"))


def _run_leg(arm: str) -> dict:
    """INNER paper-scale fig13+fig14 runs under one sampling arm."""
    events_before = Simulator.events_processed_total
    totals_before = SamplerHub.process_totals()
    reports = []
    sampling = (per_tick_sampling() if arm == "tick"
                else contextlib.nullcontext())
    t0 = time.perf_counter()
    with sampling:
        for _ in range(INNER):
            reports.append(exp_fig13_wan_bw.run(quick=False,
                                                seed=SEED % 1000))
            reports.append(exp_fig14_wan_cpu.run(quick=False,
                                                 seed=SEED % 1000))
    wall = time.perf_counter() - t0
    totals_after = SamplerHub.process_totals()
    return {
        "wall": wall,
        "events": Simulator.events_processed_total - events_before,
        "backfilled": (totals_after["samples_backfilled"]
                       - totals_before["samples_backfilled"]),
        "all_ok": all(r.all_ok for r in reports),
        # Byte-level fingerprint of every paper-vs-measured value.
        "measured": [(c.metric, repr(c.measured))
                     for r in reports for c in r.checks],
    }


def test_trace_sampling_backfill(results_dir):
    runs = {"tick": [], "backfill": []}
    for _ in range(REPS):
        for arm in ("tick", "backfill"):
            runs[arm].append(_run_leg(arm))

    ev, bf = runs["tick"][0], runs["backfill"][0]
    wall_tick = min(r["wall"] for r in runs["tick"])
    wall_backfill = min(r["wall"] for r in runs["backfill"])
    speedup = wall_tick / wall_backfill if wall_backfill > 0 else 0.0

    per_run = bf["backfilled"] // INNER
    checks = [
        ("experiments-all-ok", True, ev["all_ok"] and bf["all_ok"],
         ev["all_ok"] and bf["all_ok"]),
        ("measured-values-identical", True, ev["measured"] == bf["measured"],
         ev["measured"] == bf["measured"]),
        ("samples-backfilled-per-run", per_run, per_run, per_run > 0),
        ("per-tick-reference-backfills-nothing", 0, ev["backfilled"],
         ev["backfilled"] == 0),
        ("backfill-skips-heap-events", True, bf["events"] < ev["events"],
         bf["events"] < ev["events"]),
    ]
    all_ok = all(ok for _, _, _, ok in checks)

    payload = {
        "name": "trace_sampling",
        "experiment_id": "trace-sampling-backfill",
        "quick": False,
        "ops": bf["events"],
        "wall_seconds": wall_backfill,
        "events_per_sec": (bf["events"] / wall_backfill
                           if wall_backfill > 0 else 0.0),
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": [
            {"metric": m, "paper": repr(p), "measured": repr(v), "ok": ok}
            for m, p, v, ok in checks
        ],
        # Microbenchmark extras (ignored by the gate, kept for humans):
        "wall_tick": wall_tick,
        "wall_backfill": wall_backfill,
        "speedup": speedup,
        "inner_runs": INNER,
        "events_tick": ev["events"],
        "samples_backfilled": bf["backfilled"],
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "trace_sampling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\ntrace sampling (fig13+fig14 full x{INNER}): "
          f"per-tick {wall_tick * 1e3:.1f} ms, "
          f"backfill {wall_backfill * 1e3:.1f} ms -> {speedup:.2f}x "
          f"({per_run} samples backfilled per run, "
          f"{ev['events'] - bf['events']} heap events skipped per leg)")

    assert all_ok, "backfill diverged from per-tick sampling: " + ", ".join(
        f"{m} (expected={p!r}, got={v!r})"
        for m, p, v, ok in checks if not ok
    )
    assert speedup >= MIN_SPEEDUP, (
        f"backfill speedup {speedup:.2f}x below floor {MIN_SPEEDUP:.2f}x "
        f"(per-tick {wall_tick:.4f}s, backfill {wall_backfill:.4f}s)"
    )
