"""Block-drawn workload streams against a scalar reference loop.

The generator draws tenants, sizes and first-touch nodes in blocks and
arrivals as a callback chain.  Whatever the size distribution, burst
width or arrival process, it must submit exactly the (time, tenant,
size, touch) sequence that drawing every value one scalar call at a
time, in per-job order, produces from the same seed.
"""

from __future__ import annotations

import math

import pytest

from repro.service import WorkloadConfig, WorkloadGenerator
from repro.sim.context import Context
from repro.util.units import MIB

HORIZON = 4.0
N_NODES = 2


def _reference(cfg: WorkloadConfig, seed: int):
    """One scalar draw per value, in the generator's documented order."""
    rng = Context.create(seed=seed).rng
    arrivals = rng.stream("service.arrivals")
    tenants = rng.stream("service.tenants")
    sizes = rng.stream("service.sizes")
    placement = rng.stream("service.placement")
    out = []
    t = 0.0
    while True:
        t = t + float(arrivals.exponential(1.0 / cfg.rate))
        if t > HORIZON:
            return out
        if cfg.arrival == "diurnal":
            depth = cfg.diurnal_depth
            phase = math.sin(2.0 * math.pi * t / cfg.diurnal_period)
            intensity = cfg.rate * (1.0 + depth * phase) / (1.0 + depth)
            if arrivals.random() >= intensity / cfg.rate:
                continue
        for _ in range(cfg.burst):
            tenant = f"tenant{int(tenants.integers(cfg.n_tenants))}"
            if cfg.size_dist == "fixed":
                size = float(cfg.size_mean)
            elif cfg.size_dist == "lognormal":
                sigma = cfg.lognormal_sigma
                mu = math.log(cfg.size_mean) - 0.5 * sigma * sigma
                size = float(sizes.lognormal(mu, sigma))
            else:
                alpha = cfg.pareto_alpha
                xm = cfg.size_mean * (alpha - 1.0) / alpha
                size = float(xm * (1.0 + sizes.pareto(alpha)))
            out.append((t, tenant, size, int(placement.integers(N_NODES))))


def _generated(cfg: WorkloadConfig, seed: int, bulk: bool):
    ctx = Context.create(seed=seed)
    out = []

    def submit(tenant, size, touch):
        out.append((ctx.now, tenant, size, touch))

    def submit_many(jobs):
        out.extend((ctx.now, *job) for job in jobs)

    gen = WorkloadGenerator(ctx, cfg, submit, n_nodes=N_NODES,
                            submit_many=submit_many if bulk else None)
    gen.start()
    ctx.sim.run(until=HORIZON)
    assert gen.submitted == len(out)
    return out


@pytest.mark.parametrize("arrival", ["poisson", "diurnal"])
@pytest.mark.parametrize("burst", [1, 3])
@pytest.mark.parametrize("size_dist", ["lognormal", "pareto", "fixed"])
def test_block_draws_match_scalar_reference(size_dist, burst, arrival):
    # ~800 candidate arrivals: several blocks per stream at burst 1.
    cfg = WorkloadConfig(rate=200.0, arrival=arrival, size_dist=size_dist,
                         size_mean=64 * MIB, burst=burst, n_tenants=5,
                         diurnal_period=2.0)
    want = _reference(cfg, seed=7)
    assert len(want) > 300
    assert _generated(cfg, seed=7, bulk=False) == want
    if burst > 1:
        assert _generated(cfg, seed=7, bulk=True) == want


def test_stop_ends_the_arrival_chain():
    ctx = Context.create(seed=1)
    seen = []
    gen = WorkloadGenerator(ctx, WorkloadConfig(rate=100.0),
                            lambda *job: seen.append(ctx.now))
    gen.start()
    ctx.sim.run(until=1.0)
    gen.stop()
    n = len(seen)
    ctx.sim.run()  # the pending gap fires, submits nothing, schedules none
    assert n > 0 and len(seen) == n and ctx.sim.peek() == math.inf
