"""The environment variables that once selected a second path are inert.

Each layer has one production path: the array fluid solver, backfill
sampling, coalesced churn, and gang grouping for every task carrying a
``GangSpec``.  The variables that used to select the reference twins
must change neither a task's cache key nor what it computes.
"""

from repro.core.sensitivity import sensitivity_tasks
from repro.exec import ExecContext, GangStats, SimTask, run_tasks

RETIRED = {
    "REPRO_FLUID_SOLVER": "python",
    "REPRO_SAMPLER": "event",
    "REPRO_CHURN": "eager",
    "REPRO_GANG": "off",
}


def _observe():
    fig13 = SimTask("repro.core.experiments.exp_fig13_wan_bw:run",
                    {"quick": True}, seed=0)
    grid = sensitivity_tasks(constants=("qpi_bandwidth",))
    before = GangStats.process_totals()["scenarios_ganged"]
    results = run_tasks([fig13] + grid, ExecContext())
    ganged = GangStats.process_totals()["scenarios_ganged"] - before
    return (fig13.cache_key("f" * 16), results[0].render(), results[1:],
            ganged)


def test_retired_switches_change_nothing(monkeypatch):
    for name in RETIRED:
        monkeypatch.delenv(name, raising=False)
    baseline = _observe()
    assert baseline[3] == 2  # the grid ganged
    for name, value in RETIRED.items():
        monkeypatch.setenv(name, value)
    assert _observe() == baseline
