"""Textbook max-min fair sharing and an exact fluid integrator.

:func:`max_min_rates` is progressive filling as found in the textbooks:
grow every unfrozen flow's rate by the same amount until some flow hits
its cap or some resource saturates, freeze those flows, repeat.  Paths
are ``(resource, weight)`` pairs (duplicated resources add their
weights); capacities may be zero or infinite.

:func:`replay` integrates a churn script with it: between two events
every rate is constant, so each flow's bytes grow linearly and the next
completion time is ``now + remaining / rate``.  Nothing here touches
:class:`~repro.sim.fluid.FluidScheduler`; resources are any hashable.
"""

from __future__ import annotations

import math

#: Relative band within which a resource counts as saturated, a flow as
#: at its cap, or a sized flow as complete.
TOL = 1e-9


def max_min_rates(flows, capacity):
    """Max-min fair rates for *flows*, a list of ``(path, cap)``.

    ``cap`` is a rate bound or None; *capacity* maps every resource on
    any path to its capacity.  Returns the rates in *flows* order.
    """
    weights = []
    for path, _cap in flows:
        w = {}
        for res, x in path:
            w[res] = w.get(res, 0.0) + x
        weights.append(w)
    caps = [math.inf if cap is None else cap for _path, cap in flows]
    rate = [0.0] * len(flows)
    unfrozen = set(range(len(flows)))
    residual = {res: capacity[res] for w in weights for res in w}
    while unfrozen:
        demand = {}  # weight sum of the unfrozen flows on each resource
        for i in unfrozen:
            for res, x in weights[i].items():
                demand[res] = demand.get(res, 0.0) + x
        step = min([caps[i] - rate[i] for i in unfrozen]
                   + [max(residual[r], 0.0) / d for r, d in demand.items()
                      if math.isfinite(residual[r])])
        if not math.isfinite(step):
            raise ValueError("a flow has no cap and no finite resource")
        step = max(step, 0.0)
        for i in unfrozen:
            rate[i] += step
        for res, d in demand.items():
            residual[res] -= step * d
        saturated = {res for res in demand if math.isfinite(capacity[res])
                     and residual[res] <= TOL * max(capacity[res], 1.0)}
        frozen = {i for i in unfrozen
                  if rate[i] >= caps[i] - TOL * max(caps[i], 1.0)
                  or not saturated.isdisjoint(weights[i])}
        if not frozen:
            raise AssertionError("progressive filling made no progress")
        unfrozen -= frozen
    return rate


def replay(capacity, flows, script, until):
    """Integrate a churn script exactly up to time *until*.

    *flows* is a list of ``(path, size, cap)`` (``size`` None means
    open-ended); *script* holds ``(time, action, target, value)`` rows,
    applied in time order: ``("start", i)`` and ``("stop", i)`` for flow
    index ``i`` (stopping an inactive flow does nothing) and
    ``("capacity", res)`` setting ``capacity[res] = value``.  A flow
    completes when its remaining bytes fall within ``TOL`` of its size.

    Returns ``{"transferred", "finished_at", "allocations"}``: per-flow
    bytes and finish times (flows still active at *until* stop there),
    and the number of instants at which the allocation changed, that
    is, at which a flow started, stopped or completed, or a capacity in
    use changed.
    """
    capacity = dict(capacity)
    events = sorted(script, key=lambda row: row[0])
    transferred = [0.0] * len(flows)
    finished_at = [None] * len(flows)
    active = []  # flow indices in start order
    allocations = 0
    now, k = 0.0, 0
    while True:
        rates = max_min_rates([(flows[i][0], flows[i][2]) for i in active],
                              capacity)
        t_done, first = math.inf, None
        for i, r in zip(active, rates):
            size = flows[i][1]
            if size is not None and r > 0.0:
                t = now + (size - transferred[i]) / r
                if t < t_done:
                    t_done, first = t, i
        t_event = events[k][0] if k < len(events) else math.inf
        t_next = min(t_done, t_event, until)
        for i, r in zip(active, rates):
            transferred[i] += r * (t_next - now)
            size = flows[i][1]
            if size is not None and transferred[i] > size:
                transferred[i] = size
        now = t_next
        if now >= until and t_done >= until and t_event >= until:
            break
        if t_done <= t_event:
            done = [i for i in active if i == first or (
                flows[i][1] is not None
                and flows[i][1] - transferred[i] <= TOL * flows[i][1])]
            for i in done:
                transferred[i] = flows[i][1]
                finished_at[i] = now
                active.remove(i)
            allocations += 1
            continue
        changed = False
        while k < len(events) and events[k][0] == t_event:
            _t, action, target, value = events[k]
            k += 1
            if action == "start":
                active.append(target)
                changed = True
            elif action == "stop":
                if target in active:
                    active.remove(target)
                    finished_at[target] = now
                    changed = True
            elif action == "capacity":
                in_use = any(target == res for i in active
                             for res, _w in flows[i][0])
                changed |= in_use and capacity[target] != value
                capacity[target] = value
            else:
                raise ValueError(f"unknown script action {action!r}")
        allocations += changed
    for i in active:
        finished_at[i] = until
    return {"transferred": transferred, "finished_at": finished_at,
            "allocations": allocations}
