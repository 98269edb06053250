"""Differential suite: the backfill sampler against the per-tick reference.

Every fluid-driven series (throughput, CPU accounting, resource
utilization) must agree between the backfill sampler and the per-tick
reference of ``tests/oracles/sampling.py`` to 1e-6 across application
scenarios (RFTP / GridFTP / iSER), because backfill only replaces
*when* the piecewise-linear counters are read, never the dynamics.

Also covers the array-backed ``TimeSeries.record_many`` bulk append
(monotonic-time enforcement, summary helpers).
"""

import numpy as np
import pytest

from repro.core.system import EndToEndSystem
from repro.core.tuning import TuningPolicy
from repro.kernel.monitor import HostMonitor
from repro.sim import (
    FluidFlow,
    FluidResource,
    FluidScheduler,
    Simulator,
    ThroughputProbe,
    TimeSeries,
    hub_for,
)
from repro.util.units import GB, MIB
from tests.oracles.sampling import per_tick_sampling

TOL = 1e-6


def assert_series_match(a: TimeSeries, b: TimeSeries) -> None:
    ta, va = a.as_arrays()
    tb, vb = b.as_arrays()
    assert len(a) == len(b), f"{a.name}: {len(a)} vs {len(b)} samples"
    np.testing.assert_allclose(ta, tb, rtol=0.0, atol=1e-9,
                               err_msg=f"times diverge in {a.name}")
    np.testing.assert_allclose(va, vb, rtol=TOL, atol=TOL,
                               err_msg=f"values diverge in {a.name}")


def assert_accounting_match(a, b) -> None:
    da, db = a.seconds_by_category(), b.seconds_by_category()
    assert set(da) == set(db)
    for k in da:
        assert da[k] == pytest.approx(db[k], rel=TOL, abs=TOL), k


def per_sampler(fn):
    """Run *fn()* per tick, then backfilled; returns (tick, backfill)."""
    with per_tick_sampling():
        tick = fn()
    return tick, fn()


# --- direct probe scenarios ----------------------------------------------------


def _throttled_flow_run():
    sim = Simulator()
    sched = FluidScheduler(sim)
    link = FluidResource(sched, 100.0, "link")
    flow = FluidFlow([(link, 1.0)], size=None, name="f")
    probe = ThroughputProbe(sim, lambda: flow.transferred, interval=1.0,
                            name="tp")
    sched.start(flow)

    def driver():
        yield sim.timeout(4.5)
        link.set_capacity(50.0)  # mid-interval rate epoch
        yield sim.timeout(3.25)
        link.set_capacity(200.0)
        yield sim.timeout(4.25)

    done = sim.process(driver())
    sim.run(until=done)
    sim.run(until=12.0)
    sched.settle()
    series = probe.stop()
    sched.stop(flow)
    return series, flow.transferred, sim.stats


def test_probe_agrees_across_rate_epochs():
    (s_ev, total_ev, st_ev), (s_bf, total_bf, st_bf) = per_sampler(
        _throttled_flow_run)
    assert_series_match(s_ev, s_bf)
    assert total_ev == pytest.approx(total_bf, rel=TOL)
    # the backfill leg materialized its samples without heap events
    assert st_bf.samples_backfilled == len(s_bf) == 12
    assert st_ev.samples_backfilled == 0
    assert st_bf.events_processed < st_ev.events_processed


def test_probe_samples_between_epochs_are_linear():
    """Within one epoch the backfilled rates equal the constant fluid rate."""
    series, total, _ = _throttled_flow_run()
    # epochs at 4.5 / 7.75 / 12.0; rates 100 / 50 / 200
    values = dict(zip(series.times, series.values))
    assert values[1.0] == pytest.approx(100.0, rel=TOL)
    assert values[4.0] == pytest.approx(100.0, rel=TOL)
    assert values[5.0] == pytest.approx(0.5 * 100.0 + 0.5 * 50.0, rel=TOL)
    assert values[6.0] == pytest.approx(50.0, rel=TOL)
    assert values[8.0] == pytest.approx(0.75 * 50.0 + 0.25 * 200.0, rel=TOL)
    assert values[12.0] == pytest.approx(200.0, rel=TOL)
    assert total == pytest.approx(100 * 4.5 + 50 * 3.25 + 200 * 4.25, rel=TOL)


# --- application scenarios -----------------------------------------------------


def test_rftp_wan_cell_agrees():
    from repro.core.experiments.exp_fig13_wan_bw import sweep

    def run():
        grid = sweep(quick=True, seed=3, block_sizes=(4 * MIB,),
                     stream_counts=(2,))
        return grid[(4 * MIB, 2)]

    ev, bf = per_sampler(run)
    assert ev.total_bytes == pytest.approx(bf.total_bytes, rel=TOL)
    assert_series_match(ev.series, bf.series)
    assert_accounting_match(ev.sender_accounting, bf.sender_accounting)
    assert_accounting_match(ev.receiver_accounting, bf.receiver_accounting)
    assert ev.per_link_bytes.keys() == bf.per_link_bytes.keys()
    for k in ev.per_link_bytes:
        assert ev.per_link_bytes[k] == pytest.approx(
            bf.per_link_bytes[k], rel=TOL)


def test_gridftp_run_agrees():
    def run():
        system = EndToEndSystem.lan_testbed(
            TuningPolicy.numa_bound(), seed=7, lun_size=2 * GB)
        return system.run_gridftp_transfer(duration=10.0)

    ev, bf = per_sampler(run)
    assert ev.total_bytes == pytest.approx(bf.total_bytes, rel=TOL)
    assert_series_match(ev.series, bf.series)
    assert ev.sender_cpu.by_category.keys() == bf.sender_cpu.by_category.keys()
    for k, v in ev.sender_cpu.by_category.items():
        assert v == pytest.approx(bf.sender_cpu.by_category[k], rel=TOL, abs=TOL)


def test_iser_fio_with_host_monitor_agrees():
    from repro.apps.fio import FioJob, run_fio
    from repro.core.experiments.exp_fig07_iser_bw import _build

    def run():
        ctx, front, target, initiator = _build("numa", 11, None)
        monitor = HostMonitor(front, interval=1.0)
        devices = [initiator.devices[i] for i in sorted(initiator.devices)]
        res = run_fio(ctx, front, devices,
                      FioJob(rw="read", block_size=1 * MIB, runtime=10.0))
        ctx.fluid.settle()
        monitor.stop()
        return res, monitor

    (res_ev, mon_ev), (res_bf, mon_bf) = per_sampler(run)
    assert res_ev.total_bytes == pytest.approx(res_bf.total_bytes, rel=TOL)
    assert_accounting_match(res_ev.accounting, res_bf.accounting)
    for n in mon_ev.cpu:
        assert_series_match(mon_ev.cpu[n], mon_bf.cpu[n])
    for n in mon_ev.mem:
        assert_series_match(mon_ev.mem[n], mon_bf.mem[n])
    if len(mon_ev.qpi):
        assert_series_match(mon_ev.qpi, mon_bf.qpi)
    assert mon_ev.hottest_resource() == mon_bf.hottest_resource()


# --- TimeSeries.record_many ----------------------------------------------------


def test_record_many_matches_looped_record():
    a, b = TimeSeries("a"), TimeSeries("b")
    ts = [0.5, 1.0, 2.5, 2.5, 4.0]
    vs = [1.0, -2.0, 3.5, 0.0, 7.25]
    for t, v in zip(ts, vs):
        a.record(t, v)
    b.record_many(ts, vs)
    assert b.times == a.times and b.values == a.values
    assert b.mean() == a.mean()
    assert b.steady_mean() == a.steady_mean()
    assert b.max() == a.max() and b.min() == a.min()
    tb, vb = b.as_arrays()
    np.testing.assert_array_equal(tb, np.asarray(ts))
    np.testing.assert_array_equal(vb, np.asarray(vs))


def test_record_many_appends_after_existing_samples():
    s = TimeSeries("s")
    s.record(1.0, 10.0)
    s.record_many([1.0, 2.0], [20.0, 30.0])
    assert s.times == [1.0, 1.0, 2.0]
    assert s.values == [10.0, 20.0, 30.0]


def test_record_many_enforces_monotonic_time():
    s = TimeSeries("s")
    with pytest.raises(ValueError, match="backwards"):
        s.record_many([1.0, 0.5], [0.0, 0.0])
    s.record(2.0, 0.0)
    with pytest.raises(ValueError, match="backwards"):
        s.record_many([1.5, 3.0], [0.0, 0.0])
    # failed batches must not have mutated the series
    assert s.times == [2.0] and s.values == [0.0]


def test_record_many_validates_shape_and_allows_empty():
    s = TimeSeries("s")
    s.record_many([], [])
    assert len(s) == 0
    with pytest.raises(ValueError, match="equal-length"):
        s.record_many([1.0, 2.0], [0.0])
    with pytest.raises(ValueError, match="equal-length"):
        s.record_many([[1.0, 2.0]], [[0.0, 0.0]])


# --- sampler plumbing ----------------------------------------------------------


def test_channel_validation():
    sim = Simulator()
    hub = hub_for(sim)
    assert hub is hub_for(sim)  # one hub per simulator
    series = TimeSeries("x")
    with pytest.raises(ValueError, match="interval"):
        hub.channel(lambda: 0.0, 0.0, series)
    with pytest.raises(ValueError, match="kind"):
        hub.channel(lambda: 0.0, 1.0, series, kind="histogram")


def test_probe_stop_is_idempotent():
    sim = Simulator()
    probe = ThroughputProbe(sim, lambda: 0.0, interval=1.0)
    sim.run(until=3.0)
    first = probe.stop()
    again = probe.stop()
    assert first is again
    assert len(first) == 3
