"""Differential suite: the fluid solver against the textbook reference.

Each scenario is a randomized (seeded) churn script — flows arriving
and departing over shared resources, rate caps, capacity shocks,
open-ended flows stopped mid-flight, zero-capacity and duplicated path
entries — executed by the production :class:`FluidScheduler` on a
simulator and replayed by the exact integrator of
``tests/oracles/fluid.py`` (textbook progressive filling, rates held
constant between events).  The two must agree on every observable:

* per-flow transferred bytes and completion times (1e-6 relative);
* per-category charge totals (1e-6 relative);
* which flows completed at all.

The scheduler's :class:`FluidStats` counters must also be monotone over
time.  Scenario sizes straddle ``_VECTOR_MIN_FLOWS`` so both the scalar
dispatch (small components) and the vectorized kernel (large
components) are exercised, over ~200 scenarios.
"""

import math
import random

import pytest

from repro.kernel.accounting import CpuAccounting
from repro.sim import FluidFlow, FluidResource, FluidScheduler, Simulator
from repro.sim.fluid import _VECTOR_MIN_FLOWS, FluidStats
from tests.oracles.fluid import replay

#: Simulated horizon every scenario runs to.
UNTIL = 90.0

N_SCENARIOS = 200


def _random_scenario(rng: random.Random) -> dict:
    """One churn script: resources, flow specs, capacity shocks."""
    # Half the scenarios stay small (scalar dispatch), half go wide
    # enough that whole-graph allocations clear _VECTOR_MIN_FLOWS.
    if rng.random() < 0.5:
        n_res = rng.randint(1, 4)
        n_flows = rng.randint(1, 10)
    else:
        n_res = rng.randint(4, 12)
        n_flows = rng.randint(_VECTOR_MIN_FLOWS, 3 * _VECTOR_MIN_FLOWS)
    capacities = []
    for _ in range(n_res):
        roll = rng.random()
        if roll < 0.08:
            capacities.append(0.0)  # zero-capacity resource
        elif roll < 0.16:
            capacities.append(math.inf)
        else:
            capacities.append(rng.uniform(20.0, 800.0))
    flows = []
    for _ in range(n_flows):
        start = rng.uniform(0.0, 30.0)
        if rng.random() < 0.75:
            size, stop_after = rng.uniform(10.0, 2000.0), None
        else:
            size, stop_after = None, rng.uniform(0.5, 20.0)
        n_path = rng.randint(1, min(4, n_res))
        path = []
        for r in rng.sample(range(n_res), n_path):
            path.append((r, rng.uniform(0.5, 2.0)))
        if path and rng.random() < 0.2:
            path.append(path[0])  # duplicated path entry (weights merge)
        cap = rng.uniform(2.0, 300.0) if rng.random() < 0.35 else None
        if cap is None and not any(
            math.isfinite(capacities[i]) for i, _ in path
        ):
            cap = rng.uniform(2.0, 300.0)  # keep the flow bounded
        charge = (rng.choice(("usr_proto", "copy", "irq")),
                  rng.uniform(0.0, 1e-3))
        flows.append((start, size, stop_after, path, cap, charge))
    shocks = [
        (rng.uniform(1.0, 25.0), rng.randrange(n_res),
         rng.choice([0.0, rng.uniform(10.0, 900.0)]))
        for _ in range(rng.randint(0, 4))
    ] if n_res else []
    return {"capacities": capacities, "flows": flows, "shocks": shocks}


def _execute(scenario: dict) -> dict:
    """Run one scenario on the production scheduler; return observables."""
    sim = Simulator()
    sched = FluidScheduler(sim)
    resources = [FluidResource(sched, c, f"r{i}")
                 for i, c in enumerate(scenario["capacities"])]
    ledger = CpuAccounting("equiv")

    def starter(delay, flow, stop_after):
        yield sim.timeout(delay)
        sched.start(flow)
        if stop_after is not None:
            yield sim.timeout(stop_after)
            if flow._active:
                sched.stop(flow)

    flows = []
    for i, (start, size, stop_after, path_idx, cap, charge) in enumerate(
            scenario["flows"]):
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

    for when, idx, new_cap in scenario["shocks"]:
        sim.process(shocker(when, idx, new_cap))

    counters_trace = []

    def sampler():
        while True:
            yield sim.timeout(7.0)
            counters_trace.append(sched.stats.as_dict())

    sim.process(sampler())
    sim.run(until=UNTIL)
    sched.settle()
    for f in flows:
        if f._active:
            sched.stop(f)
    return {
        "transferred": [f.transferred for f in flows],
        "finished_at": [f.finished_at for f in flows],
        "completed": [f.done is not None and f.done.triggered for f in flows],
        "charges": ledger.seconds_by_category(),
        "stats": sched.stats.as_dict(),
        "stats_trace": counters_trace,
    }


def _reference(scenario: dict) -> dict:
    """Replay the same scenario through the textbook oracle."""
    flows, script = [], []
    for i, (start, size, stop_after, path, cap, _charge) in enumerate(
            scenario["flows"]):
        flows.append((path, size, cap))
        script.append((start, "start", i, None))
        if stop_after is not None:
            script.append((start + stop_after, "stop", i, None))
    for when, idx, new_cap in scenario["shocks"]:
        script.append((when, "capacity", idx, new_cap))
    capacity = dict(enumerate(scenario["capacities"]))
    out = replay(capacity, flows, script, until=UNTIL)
    charges = {}
    for (_s, _z, _a, _p, _c, (cat, per_byte)), moved in zip(
            scenario["flows"], out["transferred"]):
        charges[cat] = charges.get(cat, 0.0) + moved * per_byte
    # Every flow is started and then finished (completed, stopped, or
    # stopped at the horizon), so every ``done`` event triggers.
    out["completed"] = [t is not None for t in out["finished_at"]]
    out["charges"] = charges
    return out


def _close(a, b, rel=1e-6):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_solvers_agree(seed):
    scenario = _random_scenario(random.Random(900_000 + seed))
    ref = _reference(scenario)
    got = _execute(scenario)

    for i, (a, b) in enumerate(zip(ref["transferred"], got["transferred"])):
        assert _close(a, b), (
            f"seed {seed} flow {i}: transferred oracle={a!r} solver={b!r}"
        )
    for i, (a, b) in enumerate(zip(ref["finished_at"], got["finished_at"])):
        assert _close(a, b), (
            f"seed {seed} flow {i}: finished_at oracle={a!r} solver={b!r}"
        )
    assert ref["completed"] == got["completed"]

    assert set(ref["charges"]) == set(got["charges"])
    for cat, total in ref["charges"].items():
        assert _close(total, got["charges"][cat]), (
            f"seed {seed} charge {cat}: oracle={total!r} "
            f"solver={got['charges'][cat]!r}"
        )

    # Counters are monotone over simulated time.
    trace = got["stats_trace"]
    for earlier, later in zip(trace, trace[1:]):
        for key, value in earlier.items():
            assert later[key] >= value, f"seed {seed}: {key} decreased"


def test_process_totals_accumulate():
    """Class-level totals advance in step with instance counters."""
    before = FluidStats.process_totals()
    scenario = _random_scenario(random.Random(123456))
    result = _execute(scenario)
    after = FluidStats.process_totals()
    assert after["rebalances"] - before["rebalances"] >= (
        result["stats"]["rebalances"]
    )
    assert all(after[k] >= before[k] for k in after)
