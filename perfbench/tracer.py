"""The traced run: spans around calls into each layer, and the counters.

:class:`Tracer` wraps public functions of ``repro`` from the outside,
each at the name its caller looks up (``TransferBroker`` binds
``pick_rail`` at import, so the wrap goes on ``repro.service.broker``,
not on ``repro.service.scheduler``).  Every wrapped call records a span
-- name, start, end, parent -- into flat in-memory arrays; self times
are computed from them after the run.  The program's own counters
(``FluidStats``, ``ServiceStats``, ``ShardStats``, ``FaultStats``,
``GangStats``, ``SamplerHub``, ``Simulator``) are read as before/after
deltas around each operation, and the counts the wraps observe are
cross-checked against them.

Wraps are installed in a fresh child interpreter that exits after one
run; nothing is restored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> wrap points (``module:attribute``).  Each point is
#: patched at the place its caller looks the name up.
SPANS: Dict[str, Tuple[str, ...]] = {
    "sim.engine.run": ("repro.sim.engine:Simulator.run",),
    # flush() and the coalesced rebalance it (or the engine's advance
    # hook) applies; _rebalance is the one place FluidStats.rebalances
    # is counted on the production path, so its calls cross-check it.
    "sim.fluid.flush": ("repro.sim.fluid:FluidScheduler.flush",
                        "repro.sim.fluid:FluidScheduler._rebalance"),
    "sim.fluid.settle": ("repro.sim.fluid:FluidScheduler.settle",),
    "sim.fluid.churn": ("repro.sim.fluid:FluidScheduler.start",
                        "repro.sim.fluid:FluidScheduler.start_many",
                        "repro.sim.fluid:FluidScheduler.stop",
                        "repro.sim.fluid:FluidScheduler.finish_many",
                        "repro.sim.fluid:FluidScheduler.set_cap"),
    "sim.sampling.flush": ("repro.sim.sampling:SamplerHub.on_epoch",
                           "repro.sim.sampling:SamplerHub.flush"),
    # The fabric imports run_sharded by name; cell slices are resolved
    # by SimTask at call time from the shard module.
    "sim.shard.run_sharded": ("repro.service.fabric:run_sharded",),
    "sim.shard.cell_slice": ("repro.sim.shard:run_cell_slice",),
    # No workload submits bursts, so submit_many is not wrapped.
    "service.broker.submit": ("repro.service.broker:TransferBroker.submit",),
    "service.scheduler.pick_rail": ("repro.service.broker:pick_rail",),
    "service.journal.replay": ("repro.service.journal:JobJournal.replay",),
    # The report's executor: the run_tasks reportgen calls (nested
    # run_tasks calls inside tasks belong to the layer that makes them),
    # its direct task executions, cache writes and gang kernels.
    "exec.runner.run_tasks": ("repro.core.reportgen:run_tasks",),
    "exec.runner.task": ("repro.exec.task:SimTask.execute",),
    "exec.cache.put": ("repro.exec.cache:ResultCache.put",),
    "exec.gang.kernel": ("repro.exec.runner:resolve_kernel",),
    "core.reportgen.generate": (
        "repro.core.reportgen:generate_experiments_md",),
    # Legs resolve through SimTask inside the report, and are called
    # directly by the leg workloads.
    "core.experiments.leg": (
        "repro.core.experiments.fleet_legs:fleet_leg",
        "repro.core.experiments.availability_legs:availability_leg",
        "repro.core.experiments.availability_legs:mttr_leg"),
}
#: Count-only points (no span): journal appends and the report planner,
#: which tells which ledger group each top-level task belongs to.
COUNTED = (
    "repro.service.journal:JobJournal.log_submit",
    "repro.service.journal:JobJournal.log_start",
    "repro.service.journal:JobJournal.log_requeue",
    "repro.service.journal:JobJournal.log_terminal",
    "repro.core.reportgen:_plan_experiment",
)
#: The span the benchmark opens around each operation it calls.
OP_SPAN = "op"

_LEG_SPANS = ("sim.engine.run", "sim.fluid.flush", "sim.fluid.settle",
              "sim.fluid.churn", "sim.shard.run_sharded",
              "sim.shard.cell_slice", "service.broker.submit",
              "service.scheduler.pick_rail", "core.experiments.leg")
_REPORT_ONLY = ("exec.runner.tasks", "exec.runner.task_s",
                "exec.runner.max_task_s", "exec.runner.overhead_s",
                "exec.cache.puts", "exec.cache.put_s", "exec.cache.bytes",
                "exec.gang.scenarios_ganged", "exec.gang.defected",
                "exec.gang.kernel_s", "core.reportgen.assemble_s",
                "core.experiments.figures_s", "core.experiments.ablations_s",
                "core.experiments.extensions_s",
                "sim.sampling.samples_backfilled", "sim.sampling.flush_s")
#: Per workload: spans that must record calls (a wrap point that stays
#: silent where the layer does work is an error, never a zero), and
#: metrics the workload bypasses, which must read exactly 0.
EXPECT: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "report-quick": {"active": tuple(SPANS), "zero": ()},
    "fleet-512": {
        "active": _LEG_SPANS,
        # The broker builds its journal only under an armed fault
        # injector, so a fault-free fleet appends no journal records.
        "zero": _REPORT_ONLY + (
            "service.journal.records",
            "faults.injected", "faults.domain_faults",
            "service.broker.crashes", "service.broker.replayed",
            "service.broker.lost", "service.journal.replay_s"),
    },
    "availability-128": {
        "active": _LEG_SPANS + ("service.journal.replay",),
        "zero": _REPORT_ONLY,
    },
}


def _resolve(point: str) -> Tuple[Any, str]:
    module, _, path = point.partition(":")
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"wrap point {point} does not exist")
    return owner, attr


def counters() -> Dict[str, float]:
    """Snapshot of the program's process-global counters."""
    from repro.exec import GangStats
    from repro.faults.injector import FaultStats
    from repro.service.broker import ServiceStats
    from repro.sim.engine import Simulator
    from repro.sim.fluid import FluidStats
    from repro.sim.sampling import SamplerHub
    from repro.sim.shard import ShardStats

    snap: Dict[str, float] = {"events": Simulator.events_processed_total}
    for prefix, totals in (("fluid", FluidStats.process_totals()),
                           ("sampler", SamplerHub.process_totals()),
                           ("shard", ShardStats.process_totals()),
                           ("service", ServiceStats.process_totals()),
                           ("faults", FaultStats.process_totals()),
                           ("gang", GangStats.process_totals())):
        for key, value in totals.items():
            snap[f"{prefix}.{key}"] = value
    return snap


class Tracer:
    """Span recorder plus the observations the wraps make."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        #: Calls per wrap point.
        self.calls: Counter = Counter()
        #: Program counter deltas summed over operations.
        self.deltas: Counter = Counter()
        # Observations used by metrics and cross-checks.
        self.run_events = 0
        self._run_depth = 0
        self.slice_cells = 0
        self.slice_completed = 0
        self.slice_crashes = 0
        self.sharded_rounds = 0
        self.sharded_completed = 0
        self.gang_scenarios = 0
        self.leg_results: List[Tuple[dict, float]] = []
        self.task_group: Dict[int, str] = {}
        self.task_spans: List[Tuple[int, str]] = []
        self.kernel_spans: List[Tuple[int, List[str]]] = []
        self.top_tasks = 0

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _current(self) -> Optional[str]:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def span_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (spans, total seconds, self seconds)``.

        Self time is a span's duration minus the durations of its direct
        children (spans nest strictly: one thread, one call stack).
        """
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, List[float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    # -- operations ----------------------------------------------------------
    def call_op(self, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation inside an op span, with deltas."""
        before = counters()
        idx = self.enter(OP_SPAN)
        try:
            return fn()
        finally:
            self.exit(idx)
            after = counters()
            for key, value in after.items():
                self.deltas[key] += value - before[key]

    # -- wraps ---------------------------------------------------------------
    def install(self) -> None:
        """Patch every wrap point (once per process)."""
        special = {
            "repro.sim.engine:Simulator.run": self._wrap_run,
            "repro.service.fabric:run_sharded": self._wrap_sharded,
            "repro.sim.shard:run_cell_slice": self._wrap_slice,
            "repro.exec.task:SimTask.execute": self._wrap_execute,
            "repro.exec.runner:resolve_kernel": self._wrap_resolve_kernel,
            "repro.core.reportgen:run_tasks": self._wrap_run_tasks,
        }
        special.update(dict.fromkeys(SPANS["core.experiments.leg"],
                                     self._wrap_leg))
        for name, points in SPANS.items():
            for point in points:
                owner, attr = _resolve(point)
                make = special.get(point, self._wrap_span)
                setattr(owner, attr, make(name, point, getattr(owner, attr)))
        for point in COUNTED:
            owner, attr = _resolve(point)
            make = (self._wrap_planner if attr == "_plan_experiment"
                    else self._wrap_count)
            setattr(owner, attr, make(point, getattr(owner, attr)))

    def _wrap_span(self, name: str, point: str, fn: Callable) -> Callable:
        calls, enter, exit_ = self.calls, self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[point] += 1
            idx = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)
        return traced

    def _wrap_count(self, point: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[point] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap_run(self, name: str, point: str, fn: Callable) -> Callable:
        from repro.sim.engine import Simulator

        inner = self._wrap_span(name, point, fn)

        @functools.wraps(fn)
        def traced(sim, *args, **kwargs):
            # Events are counted at the outermost run() only.
            self._run_depth += 1
            before = Simulator.events_processed_total
            try:
                return inner(sim, *args, **kwargs)
            finally:
                self._run_depth -= 1
                if self._run_depth == 0:
                    self.run_events += Simulator.events_processed_total - before
        return traced

    def _wrap_sharded(self, name: str, point: str, fn: Callable) -> Callable:
        inner = self._wrap_span(name, point, fn)
        slice_point = SPANS["sim.shard.cell_slice"][0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slices_before = self.calls[slice_point]
            result = inner(*args, **kwargs)
            # One cell slice per shard per round.
            slices = self.calls[slice_point] - slices_before
            self.sharded_rounds += slices // result["exchange"]["n_shards"]
            self.sharded_completed += sum(c["completed"] for c in result["cells"])
            return result
        return traced

    def _wrap_slice(self, name: str, point: str, fn: Callable) -> Callable:
        inner = self._wrap_span(name, point, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.slice_cells += len(kwargs["cells"])
            for rec in out:
                ledger = rec["ledger"]
                self.slice_completed += ledger.get("completed", 0)
                self.slice_crashes += ledger.get("crashes", 0)
            return out
        return traced

    def _wrap_leg(self, name: str, point: str, fn: Callable) -> Callable:
        inner = self._wrap_span(name, point, fn)
        serve_default = inspect.signature(fn).parameters["serve_s"].default

        @functools.wraps(fn)
        def traced(**kwargs):
            result = inner(**kwargs)
            self.leg_results.append((result, kwargs.get("serve_s", serve_default)))
            return result
        return traced

    def _wrap_run_tasks(self, name: str, point: str, fn: Callable) -> Callable:
        inner = self._wrap_span(name, point, fn)

        @functools.wraps(fn)
        def traced(tasks, *args, **kwargs):
            self.top_tasks += len(tasks)
            return inner(tasks, *args, **kwargs)
        return traced

    def _wrap_execute(self, name: str, point: str, fn: Callable) -> Callable:
        calls, enter, exit_ = self.calls, self.enter, self.exit

        @functools.wraps(fn)
        def traced(task):
            # Only tasks the report's executor runs directly are spans;
            # nested executions (shard rounds) pass through untouched.
            if self._current() != "exec.runner.run_tasks":
                return fn(task)
            calls[point] += 1
            idx = enter(name)
            self.task_spans.append((idx, self.task_group.get(id(task), "")))
            try:
                return fn(task)
            finally:
                exit_(idx)
        return traced

    def _wrap_resolve_kernel(self, name: str, point: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def resolve(path):
            kernel = self._wrap_span(name, point, fn(path))

            @functools.wraps(kernel)
            def traced(tasks):
                self.gang_scenarios += len(tasks)
                self.kernel_spans.append(
                    (len(self.start),
                     [self.task_group.get(id(t), "") for t in tasks]))
                return kernel(tasks)
            return traced
        return resolve

    def _wrap_planner(self, point: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def planned(registry, *args, **kwargs):
            calls[point] += 1
            tasks, assemble = fn(registry, *args, **kwargs)
            for task in tasks:
                self.task_group[id(task)] = registry
            return tasks, assemble
        return planned

    # -- results -------------------------------------------------------------
    def journal_records(self) -> int:
        return sum(n for p, n in self.calls.items()
                   if p.startswith("repro.service.journal:JobJournal.log_"))

    def fired(self) -> Dict[str, int]:
        """Calls per span name (summed over its wrap points)."""
        return {name: sum(self.calls[p] for p in points)
                for name, points in SPANS.items()}

    def layer_metrics(self, cache_bytes: int, cache_stores: int) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_frac``."""
        t = self.span_times()
        d = self.deltas

        def self_s(*names: str) -> float:
            return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

        recomputed = d["fluid.flows_recomputed"]
        skipped = d["fluid.flows_skipped"]
        p99 = max((r["p99_ms"] for r, _ in self.leg_results), default=0.0)
        serve = sum(s for _, s in self.leg_results)
        done = sum(r["completed"] for r, _ in self.leg_results)
        group_s = Counter()
        task_durations = []
        for idx, group in self.task_spans:
            dur = self.end[idx] - self.start[idx]
            task_durations.append(dur)
            group_s[group] += dur
        for idx, groups in self.kernel_spans:
            dur = self.end[idx] - self.start[idx]
            for group in groups:
                group_s[group] += dur / len(groups)
        return {
            "sim.engine.events": d["events"],
            "sim.engine.run_s": self_s("sim.engine.run"),
            "sim.fluid.rebalances": d["fluid.rebalances"],
            "sim.fluid.flows_recomputed": recomputed,
            "sim.fluid.flows_skipped": skipped,
            "sim.fluid.skip_ratio": (skipped / (recomputed + skipped)
                                     if recomputed + skipped else 0.0),
            "sim.fluid.flush_s": self_s("sim.fluid.flush"),
            "sim.fluid.settle_s": self_s("sim.fluid.settle"),
            "sim.fluid.churn_s": self_s("sim.fluid.churn"),
            "sim.sampling.samples_backfilled": d["sampler.samples_backfilled"],
            "sim.sampling.flush_s": self_s("sim.sampling.flush"),
            "sim.shard.rounds": d["shard.rounds"],
            "sim.shard.cells_run": d["shard.cells_run"],
            "sim.shard.unconverged": d["shard.unconverged"],
            "sim.shard.exchange_s": self_s("sim.shard.run_sharded"),
            "sim.shard.useful_ratio": (
                self.sharded_completed / self.slice_completed
                if self.slice_completed else 0.0),
            "service.broker.submitted": d["service.submitted"],
            "service.broker.completed": d["service.completed"],
            "service.broker.shed": d["service.shed"],
            "service.broker.rescheduled": d["service.rescheduled"],
            "service.broker.submit_s": self_s("service.broker.submit"),
            "service.scheduler.pick_rail_calls":
                self.fired()["service.scheduler.pick_rail"],
            "service.scheduler.pick_rail_s": self_s("service.scheduler.pick_rail"),
            "service.journal.records": self.journal_records(),
            "service.journal.replay_s": self_s("service.journal.replay"),
            "service.broker.crashes": d["service.crashes"],
            "service.broker.replayed": d["service.replayed"],
            "service.broker.lost": d["service.lost"],
            "faults.injected": d["faults.faults_injected"],
            "faults.domain_faults": d["faults.domain_faults"],
            "faults.reconnects": d["faults.reconnects"],
            "service.fabric.sim_p99_ms": p99,
            "service.fabric.sim_jobs_per_s": done / serve if serve else 0.0,
            "exec.runner.tasks": self.top_tasks,
            "exec.runner.task_s": sum(task_durations),
            "exec.runner.max_task_s": max(task_durations, default=0.0),
            "exec.runner.overhead_s": self_s("exec.runner.run_tasks"),
            "exec.cache.puts": cache_stores,
            "exec.cache.put_s": self_s("exec.cache.put"),
            "exec.cache.bytes": cache_bytes,
            "exec.gang.scenarios_ganged": d["gang.scenarios_ganged"],
            "exec.gang.defected": d["gang.scenarios_defected"],
            "exec.gang.kernel_s": self_s("exec.gang.kernel"),
            "core.reportgen.assemble_s": self_s("core.reportgen.generate"),
            "core.experiments.figures_s": group_s["figures"],
            "core.experiments.ablations_s": group_s["ablations"],
            "core.experiments.extensions_s": group_s["extensions"],
        }

    def violations(self, workload: str, metrics: Dict[str, float]) -> List[str]:
        """Broken expectations of :data:`EXPECT` for *workload*."""
        fired = self.fired()
        out = [f"{name}: no calls recorded, but {workload} does work there"
               for name in EXPECT[workload]["active"] if not fired[name]]
        out += [f"{name} = {metrics[name]!r} on {workload}, which bypasses it"
                for name in EXPECT[workload]["zero"] if metrics[name] != 0]
        return out

    def cross_checks(self, workload: str,
                     cache_stores: int) -> List[Tuple[str, float, float]]:
        """``(what, counted by the wraps, program counter)`` pairs that
        must agree exactly on a serial run of *workload*."""
        d = self.deltas
        put_point = SPANS["exec.cache.put"][0]
        submit_point = SPANS["service.broker.submit"][0]
        rebalance_point = SPANS["sim.fluid.flush"][1]
        checks = [
            ("sim.engine.events: outermost Simulator.run deltas vs op deltas",
             self.run_events, d["events"]),
            ("sim.fluid.rebalances: _rebalance calls vs FluidStats",
             self.calls[rebalance_point], d["fluid.rebalances"]),
            ("sim.shard.rounds: cell-slice rounds vs ShardStats",
             self.sharded_rounds, d["shard.rounds"]),
            ("sim.shard.cells_run: cells in slices vs ShardStats",
             self.slice_cells, d["shard.cells_run"]),
            ("service.broker: submit calls vs submitted + dropped",
             self.calls[submit_point],
             d["service.submitted"] + d["service.dropped"]),
            ("exec.cache.puts: put calls vs CacheStats.stores",
             self.calls[put_point], cache_stores),
            ("exec.gang: scenarios handed to kernels vs GangStats",
             self.gang_scenarios,
             d["gang.scenarios_ganged"] + d["gang.scenarios_defected"]),
        ]
        if workload != "report-quick":
            # Every broker of a leg workload lives in a shard cell, so
            # the cell ledgers account for every completion and crash.
            checks += [
                ("service.broker.completed: cell ledgers vs ServiceStats",
                 self.slice_completed, d["service.completed"]),
                ("service.broker.crashes: cell ledgers vs ServiceStats",
                 self.slice_crashes, d["service.crashes"]),
            ]
        return checks
