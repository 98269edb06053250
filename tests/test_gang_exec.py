"""Gang execution: grouping, defection, cache identity, projection dedup.

The contract under test mirrors the executor's: a task's
:class:`GangSpec` changes *how* a grid computes — one batched scenario
program vs one task at a time — never what it computes.  The reference
arm is the same tasks with ``gang=None`` (the per-task path).  Gang and
per-task runs must be indistinguishable down to the bytes of the
assembled report, gang membership must be invisible to the result
cache, and anything a kernel cannot batch exactly (ambient faults,
broken kernels, singleton groups) must defect to the per-task path with
zero behavior change.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.calibration import CALIBRATION, tracking_calibration
from repro.core.experiments import ext_sensitivity
from repro.core.sensitivity import (EvalError, assemble_sensitivity,
                                    gang_cells, run_projected,
                                    run_sensitivity, sensitivity_tasks)
from repro.exec import (
    DEFECT,
    ExecContext,
    GangSpec,
    GangStats,
    ResultCache,
    SimTask,
    run_tasks,
)
from repro.faults.plan import REPRO_FAULTS_ENV


def scale_leg(*, seed, cal, factor):
    """Cheap gang-grid target: reads one constant, scales it."""
    return cal.qpi_bandwidth * factor + seed


def scale_kernel(tasks):
    """Test-local gang kernel: evaluates every scenario of the group."""
    return [t.execute() for t in tasks]


#: the gang spec every scale_leg grid task carries.
SCALE_SPEC = GangSpec(kernel="tests.test_gang_exec:scale_kernel", key="scale")


def _gang_delta(fn):
    """Run *fn*, return the GangStats delta it produced."""
    before = GangStats.process_totals()
    out = fn()
    after = GangStats.process_totals()
    return out, {k: after[k] - before[k] for k in after}


def _per_task(tasks):
    """*tasks* without gang metadata: the per-task reference arm."""
    return [dataclasses.replace(t, gang=None) for t in tasks]


def _calgrid_tasks(n=4, factor=2.0):
    """n gang-eligible tasks differing only in calibration."""
    return [
        SimTask("tests.test_gang_exec:scale_leg", {"factor": factor}, seed=3,
                cal=CALIBRATION.replace(qpi_bandwidth=1e9 + i),
                gang=SCALE_SPEC)
        for i in range(n)
    ]


# -- grouping and defection in run_tasks ------------------------------------

def test_calgrid_gang_matches_per_task_bitwise():
    tasks = _calgrid_tasks(5)
    solo = run_tasks(_per_task(tasks))
    (ganged, delta) = _gang_delta(lambda: run_tasks(tasks, ExecContext()))
    assert ganged == solo == [t.execute() for t in tasks]
    assert delta["scenarios_ganged"] == 5
    assert delta["scenarios_defected"] == 0
    assert delta["groups"] == 1


def test_singleton_group_runs_solo():
    tasks = _calgrid_tasks(1)
    (results, delta) = _gang_delta(
        lambda: run_tasks(tasks, ExecContext()))
    assert results == [tasks[0].execute()]
    assert delta["scenarios_solo"] == 1
    assert delta["scenarios_ganged"] == 0
    assert delta["groups"] == 0


def test_ambient_fault_plan_defects_whole_group(monkeypatch):
    monkeypatch.setenv(REPRO_FAULTS_ENV, "link-down@link:1,at=5,duration=2")
    tasks = sensitivity_tasks(constants=("qpi_bandwidth",))
    (results, delta) = _gang_delta(
        lambda: run_tasks(tasks, ExecContext()))
    assert results == [t.execute() for t in tasks]
    assert delta["scenarios_defected"] == 2
    assert delta["scenarios_ganged"] == 0


def test_sensitivity_kernel_defects_under_ambient_faults(monkeypatch):
    tasks = sensitivity_tasks(constants=("qpi_bandwidth",))
    monkeypatch.setenv(REPRO_FAULTS_ENV, "link-down@link:1,at=5,duration=2")
    assert gang_cells(tasks) == [DEFECT] * len(tasks)


def broken_kernel(tasks):
    raise RuntimeError("kernel exploded")


def short_kernel(tasks):
    return [DEFECT] * (len(tasks) - 1)


@pytest.mark.parametrize("kernel, error", [
    pytest.param("broken_kernel", "RuntimeError: kernel exploded",
                 id="broken_kernel"),
    pytest.param("short_kernel", "ValueError: gang kernel", id="short_kernel"),
])
def test_broken_kernel_defects_instead_of_breaking(kernel, error):
    spec = GangSpec(kernel=f"tests.test_gang_exec:{kernel}", key="k")
    tasks = [SimTask("tests.test_gang_exec:scale_leg", {"factor": float(1 + i)},
                     seed=i, cal=CALIBRATION, gang=spec) for i in range(3)]
    per_task = run_tasks(_per_task(tasks), ExecContext())
    with pytest.warns(RuntimeWarning) as caught:
        (results, delta) = _gang_delta(
            lambda: run_tasks(tasks, ExecContext()))
    assert results == per_task
    # The fallback is never silent: one warning names kernel and error.
    (warning,) = caught
    assert f"tests.test_gang_exec:{kernel}" in str(warning.message)
    assert error in str(warning.message)
    assert delta == {"scenarios_ganged": 0, "scenarios_defected": 3,
                     "scenarios_solo": 0, "groups": 1}


def test_gang_off_never_invokes_kernel():
    # Without a GangSpec every task takes the per-task path.
    tasks = _per_task(_calgrid_tasks(3))
    (_, delta) = _gang_delta(lambda: run_tasks(tasks, ExecContext()))
    assert all(v == 0 for v in delta.values())


# -- cache identity ---------------------------------------------------------

def test_gang_membership_excluded_from_identity():
    plain = SimTask("tests.test_gang_exec:scale_leg", {"factor": 2.0}, seed=1)
    ganged = dataclasses.replace(plain, gang=SCALE_SPEC)
    assert ganged.gang is not None
    assert ganged.identity() == plain.identity()
    assert ganged.cache_key("f" * 16) == plain.cache_key("f" * 16)


def test_partially_cached_grid_gangs_only_the_misses(tmp_path):
    tasks = _calgrid_tasks(6)
    cache = ResultCache(tmp_path / "cache")
    # Warm the cache with two scenarios run solo (no gang metadata).
    warm = run_tasks(_per_task(tasks[:2]), ExecContext(cache=cache))
    assert cache.stats.stores == 2

    (results, delta) = _gang_delta(
        lambda: run_tasks(tasks, ExecContext(cache=cache)))
    assert results[:2] == warm
    assert results == [t.execute() for t in tasks]
    assert cache.stats.hits == 2
    assert delta["scenarios_ganged"] == 4  # only the misses ganged
    assert delta["scenarios_defected"] == 0


def test_cache_entry_records_gang_provenance(tmp_path):
    tasks = _calgrid_tasks(2)
    cache = ResultCache(tmp_path / "cache")
    run_tasks(tasks, ExecContext(cache=cache))
    path = cache._path(cache.key_for(tasks[0]))
    assert pickle.loads(path.read_bytes())["via"] == "gang"
    # Provenance is informational: the solo path replays the entry.
    hit, value = cache.get(tasks[0])
    assert hit and value == tasks[0].execute()


def test_cache_entry_without_via_key_still_loads(tmp_path):
    task = SimTask("tests.test_gang_exec:scale_leg", {"factor": 2.0}, seed=1)
    cache = ResultCache(tmp_path / "cache")
    key = cache.key_for(task)
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"key": key, "result": 42.0}))
    hit, value = cache.get(task)
    assert hit and value == 42.0


# -- the projection machinery ----------------------------------------------

def test_run_projected_shares_only_provably_equal_scenarios():
    evals = []

    def leg(cal):
        evals.append(1)
        return cal.qpi_bandwidth * 2.0

    base = CALIBRATION
    cals = [
        base,
        base.replace(memcpy_rate_local=1.0),  # unread constant: shares
        base.replace(qpi_bandwidth=5e9),      # read constant: re-runs
        base.replace(qpi_bandwidth=5e9),      # same projection: shares
    ]
    values = run_projected(leg, cals)
    assert values == [base.qpi_bandwidth * 2.0, base.qpi_bandwidth * 2.0,
                      1e10, 1e10]
    assert len(evals) == 2


def test_run_projected_failures_never_shared():
    calls = []

    def leg(cal):
        calls.append(1)
        raise ValueError("leg failed")

    values = run_projected(leg, [CALIBRATION, CALIBRATION])
    assert all(isinstance(v, EvalError) for v in values)
    assert len(calls) == 2  # an identical later scenario re-runs, re-fails


def test_replace_on_tracked_calibration_marks_carried_fields():
    import dataclasses

    reads: set = set()
    tracked = tracking_calibration(CALIBRATION, reads)
    tracked.replace(qpi_bandwidth=1.0)
    # replace() reads every field it carries over, so the projection
    # covers them all; the overridden field's old value is (correctly)
    # not marked — the result cannot depend on it.
    assert reads == {f.name for f in dataclasses.fields(CALIBRATION)} - {
        "qpi_bandwidth"}


# -- the sensitivity grid end to end ---------------------------------------

def test_sensitivity_grid_gang_matches_per_task():
    constants = ("qpi_bandwidth", "memcpy_rate_local")
    tasks = sensitivity_tasks(constants=constants)
    solo = assemble_sensitivity(tasks, run_tasks(_per_task(tasks)))
    (ganged, delta) = _gang_delta(lambda: run_sensitivity(constants=constants))
    assert ganged.outcomes == solo.outcomes
    assert delta["scenarios_ganged"] == 4
    assert delta["scenarios_defected"] == 0


def test_ext_sensitivity_report_byte_identical_gang_vs_off():
    tasks = _per_task(ext_sensitivity.plan(quick=True))
    off = ext_sensitivity.assemble(run_tasks(tasks), quick=True).render()
    auto = ext_sensitivity.run(quick=True).render()
    assert auto == off


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_every_gang_tag_in_the_report_forms_a_group(quick):
    # A GangSpec that never shares its (kernel, key) with another task
    # only ever runs solo: its kernel is dead code.  Plan (do not run)
    # the whole report and require every gang group to have company.
    from repro.core import reportgen

    groups: dict = {}
    for registry, modules in reportgen._REGISTRIES.items():
        for name, module in modules.items():
            tasks, _ = reportgen._plan_experiment(registry, name, module,
                                                  quick, 0, None)
            for task in tasks:
                if task.gang is not None:
                    key = (task.gang.kernel, task.gang.key)
                    groups.setdefault(key, set()).add(task.identity())
    assert groups, "the sensitivity grid should gang"
    singletons = sorted(key for key, ids in groups.items() if len(ids) < 2)
    assert singletons == []


# -- the fingerprint memo ---------------------------------------------------

def test_code_fingerprint_memoized_per_process(monkeypatch):
    from repro.exec import fingerprint as fp

    value = fp.code_fingerprint()
    original = fp._package_root
    calls = []

    def counting_root():
        calls.append(1)
        return original()

    monkeypatch.setattr(fp, "_package_root", counting_root)
    monkeypatch.setattr(fp, "_DEFAULT", None)
    assert fp.code_fingerprint() == value
    assert fp.code_fingerprint() == value
    assert len(calls) == 1  # resolved once, memoized thereafter
    # pytest restores the module globals; the pre-test memo survives in
    # the next call via the untouched lru_cache on _fingerprint_of.
