"""Allocator microbenchmark: the fluid solver vs the textbook reference.

Unlike the figure benchmarks this one does not run an experiment module:
it drives :class:`~repro.sim.fluid.FluidScheduler` directly with a
synthetic high-churn workload (64 resources, 512 flows arriving and
departing, capacity shocks, caps, open-ended flows stopped mid-flight)
— the regime the vectorized solver exists for, where single components
grow to hundreds of flows.  The identical schedule is replayed by the
exact integrator of ``tests/oracles/fluid.py`` (textbook progressive
filling over the whole flow set at every event); the JSON payload
records both walls and the speedup, and the checks assert the two
agreed on every observable (bytes, completions, charge totals, and the
number of allocations), so the regression gate catches both a
performance collapse (events/sec) and a divergence (check drift).

The in-test speedup floor is deliberately low (CI machines are noisy);
refresh the committed baseline with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_fluid_solver.py
    cp benchmarks/results/fluid_solver.json benchmarks/baselines/
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.kernel.accounting import CpuAccounting
from repro.sim import FluidFlow, FluidResource, FluidScheduler, Simulator
from tests.oracles.fluid import replay

N_RESOURCES = 64
N_FLOWS = 512
SEED = 20130417  # SC'13 submission-season vintage; any fixed value works
UNTIL = 200.0
#: Conservative in-test floor; the acceptance target is 2x (see ISSUE 3).
MIN_SPEEDUP = float(os.environ.get("REPRO_FLUID_BENCH_MIN_SPEEDUP", "1.25"))


def _build_schedule(rng: random.Random):
    """One deterministic churn schedule."""
    flows = []
    for i in range(N_FLOWS):
        start = rng.uniform(0.0, 40.0)
        if rng.random() < 0.8:
            size, stop_after = rng.uniform(50.0, 5000.0), None
        else:  # open-ended flow stopped mid-flight
            size, stop_after = None, rng.uniform(1.0, 30.0)
        # Real streaming paths traverse 5+ fluid resources (host I/O, RDMA
        # links, NUMA interconnect, target I/O); model that width here.
        n_res = rng.randint(3, 7)
        path = [(r, rng.uniform(0.5, 2.0))
                for r in rng.sample(range(N_RESOURCES), n_res)]
        cap = rng.uniform(5.0, 200.0) if rng.random() < 0.3 else None
        charge = ("usr_proto", rng.uniform(1e-4, 1e-3))
        flows.append((start, size, stop_after, path, cap, charge))
    shocks = [(rng.uniform(5.0, 35.0), rng.randrange(N_RESOURCES),
               rng.uniform(40.0, 900.0)) for _ in range(32)]
    return flows, shocks


def _capacity(i: int) -> float:
    return 100.0 + 10.0 * i


def _run_once(schedule) -> dict:
    """Run the schedule on the solver; return observables + wall."""
    flow_specs, shocks = schedule
    sim = Simulator()
    sched = FluidScheduler(sim)
    resources = [FluidResource(sched, _capacity(i), f"r{i}")
                 for i in range(N_RESOURCES)]
    ledger = CpuAccounting("bench")

    def starter(delay, flow, stop_after):
        yield sim.timeout(delay)
        sched.start(flow)
        if stop_after is not None:
            yield sim.timeout(stop_after)
            if flow._active:
                sched.stop(flow)

    flows = []
    for i, (start, size, stop_after, path_idx, cap, charge) in enumerate(
            flow_specs):
        path = [(resources[j], w) for j, w in path_idx]
        cat, per_byte = charge
        flow = FluidFlow(path, size=size, cap=cap,
                         charges=[(ledger.account(cat), per_byte)],
                         name=f"f{i}")
        flows.append(flow)
        sim.process(starter(start, flow, stop_after))

    def shocker(when, idx, new_cap):
        yield sim.timeout(when)
        resources[idx].set_capacity(new_cap)

    for when, idx, new_cap in shocks:
        sim.process(shocker(when, idx, new_cap))

    events_before = Simulator.events_processed_total
    t0 = time.perf_counter()
    sim.run(until=UNTIL)
    sched.settle()
    wall = time.perf_counter() - t0
    for f in flows:
        if f._active:
            sched.stop(f)
    return {
        "wall": wall,
        "events": Simulator.events_processed_total - events_before,
        "transferred": [f.transferred for f in flows],
        "completed": sum(1 for fl in flows if fl.finished_at is not None),
        "finished_at": [fl.finished_at for fl in flows],
        "charge_total": ledger.total_seconds,
        "rebalances": sched.stats.rebalances,
    }


def _run_reference(schedule) -> dict:
    """Replay the schedule through the oracle; observables + wall."""
    flow_specs, shocks = schedule
    flows, script = [], []
    for i, (start, size, stop_after, path, cap, _charge) in enumerate(
            flow_specs):
        flows.append((path, size, cap))
        script.append((start, "start", i, None))
        if stop_after is not None:
            script.append((start + stop_after, "stop", i, None))
    for when, idx, new_cap in shocks:
        script.append((when, "capacity", idx, new_cap))
    capacity = {i: _capacity(i) for i in range(N_RESOURCES)}
    t0 = time.perf_counter()
    out = replay(capacity, flows, script, until=UNTIL)
    wall = time.perf_counter() - t0
    charge_total = sum(moved * per_byte for moved, (*_, (_cat, per_byte))
                       in zip(out["transferred"], flow_specs))
    return {
        "wall": wall,
        "transferred": out["transferred"],
        "completed": sum(1 for t in out["finished_at"] if t is not None),
        "finished_at": out["finished_at"],
        "charge_total": charge_total,
        "rebalances": out["allocations"],
    }


def _agree(a, b, rel=1e-6):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_fluid_solver_churn(results_dir):
    schedule = _build_schedule(random.Random(SEED))

    # The oracle runs once (it is several times slower, far outside
    # timing noise); the solver keeps its best (least-disturbed) wall.
    ref = _run_reference(schedule)
    runs = [_run_once(schedule) for _ in range(3)]
    ar = runs[0]
    wall_oracle = ref["wall"]
    wall_array = min(r["wall"] for r in runs)
    speedup = wall_oracle / wall_array if wall_array > 0 else 0.0

    bytes_agree = all(
        _agree(a, b) for a, b in zip(ref["transferred"], ar["transferred"])
    )
    times_agree = all(
        _agree(a, b) for a, b in zip(ref["finished_at"], ar["finished_at"])
    )
    checks = [
        ("completions", ref["completed"], ar["completed"],
         ref["completed"] == ar["completed"]),
        ("transferred-bytes-agree", True, bytes_agree, bytes_agree),
        ("completion-times-agree", True, times_agree, times_agree),
        ("charge-totals-agree", True,
         _agree(ref["charge_total"], ar["charge_total"]),
         _agree(ref["charge_total"], ar["charge_total"])),
        ("rebalances", ref["rebalances"], ar["rebalances"],
         ref["rebalances"] == ar["rebalances"]),
    ]
    all_ok = all(ok for _, _, _, ok in checks)

    payload = {
        "name": "fluid_solver",
        "experiment_id": "fluid-solver-churn",
        "quick": True,
        "ops": ar["events"],
        "wall_seconds": wall_array,
        "events_per_sec": ar["events"] / wall_array if wall_array > 0 else 0.0,
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": [
            {"metric": m, "paper": repr(p), "measured": repr(v), "ok": ok}
            for m, p, v, ok in checks
        ],
        # Microbenchmark extras (ignored by the gate, kept for humans):
        "wall_oracle": wall_oracle,
        "wall_array": wall_array,
        "speedup": speedup,
        "n_resources": N_RESOURCES,
        "n_flows": N_FLOWS,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "fluid_solver.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nfluid solver churn: oracle {wall_oracle * 1e3:.1f} ms, "
          f"array {wall_array * 1e3:.1f} ms -> {speedup:.2f}x "
          f"({N_RESOURCES} resources, {N_FLOWS} flows, "
          f"{ar['rebalances']} rebalances)")

    assert all_ok, "solver diverged from the oracle: " + ", ".join(
        f"{m} (oracle={p!r}, solver={v!r})"
        for m, p, v, ok in checks if not ok
    )
    assert speedup >= MIN_SPEEDUP, (
        f"solver speedup {speedup:.2f}x over the oracle below floor "
        f"{MIN_SPEEDUP:.2f}x (oracle {wall_oracle:.4f}s, "
        f"solver {wall_array:.4f}s)"
    )
