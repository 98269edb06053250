"""Workload generators: who submits transfer jobs, when, and how big.

A :class:`WorkloadGenerator` is a chain of simulation callbacks that
draws inter-arrival gaps, tenant identities, file sizes and first-touch
NUMA nodes from four dedicated RNG streams —

* ``service.arrivals`` — inter-arrival gaps (plus thinning draws for
  the diurnal process),
* ``service.sizes``    — file-size draws,
* ``service.tenants``  — which tenant submits,
* ``service.placement`` — the job buffer's first-touch node (what an
  unpinned ``malloc`` would have done),

so adding the service layer perturbs no other consumer of the
registry (the repository's stream-per-component seed discipline,
MODELING.md §6), and two runs at one seed submit byte-identical job
streams regardless of scheduler policy — policies are compared on
*placement*, never on workload noise.

The tenants, sizes and placement streams each feed one distribution,
so they are drawn in blocks, bit-identical to as many scalar draws.
``service.arrivals`` stays scalar: diurnal thinning interleaves
exponential gaps with uniform acceptance draws on that one stream.

Arrival processes:

* ``poisson`` — homogeneous, exponential gaps at ``rate`` jobs/s;
* ``diurnal`` — nonhomogeneous Poisson via thinning: intensity
  ``rate * (1 + depth*sin(2*pi*t/period)) / (1 + depth)`` peaks at
  ``rate`` and dips to ``rate*(1-depth)/(1+depth)``.

Size distributions (heavy-tailed, mean-parameterised):

* ``lognormal`` — ``sigma`` controls the tail; the underlying ``mu`` is
  solved so the draw mean equals ``size_mean``;
* ``pareto``    — shape ``alpha`` (> 1), scale solved for the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterator, List, Optional, Tuple

from repro.sim.context import Context
from repro.util.units import MIB
from repro.util.validation import check_positive

__all__ = ["ARRIVALS", "SIZE_DISTS", "WorkloadConfig", "WorkloadGenerator"]

#: Supported arrival processes.
ARRIVALS = ("poisson", "diurnal")

#: Supported file-size distributions (``fixed`` = every job is exactly
#: ``size_mean`` bytes, drawing nothing from the sizes stream).
SIZE_DISTS = ("lognormal", "pareto", "fixed")

#: Values drawn per block from each single-distribution stream.
_BLOCK = 256


def _blocks(draw: Callable[[int], List]) -> Iterator:
    """Values of ``draw(_BLOCK)``, block after block, one at a time."""
    while True:
        yield from draw(_BLOCK)


@dataclass(frozen=True)
class WorkloadConfig:
    """The job stream one broker serves."""

    #: Aggregate arrival rate in jobs/second (peak rate for ``diurnal``).
    rate: float = 20.0
    arrival: str = "poisson"
    #: Diurnal modulation depth in [0, 1) and period in seconds.
    diurnal_depth: float = 0.6
    diurnal_period: float = 30.0
    size_dist: str = "lognormal"
    #: Mean file size in bytes (the distribution is solved to this mean).
    size_mean: float = 256 * MIB
    #: Lognormal sigma (tail weight) — ~1 gives a 10x p99/mean spread.
    lognormal_sigma: float = 1.0
    #: Pareto shape; must be > 1 for the mean to exist.
    pareto_alpha: float = 1.8
    n_tenants: int = 8
    #: Jobs per arrival event.  1 reproduces the classic one-job-per-tick
    #: process exactly; > 1 submits a same-timestamp burst through the
    #: broker's ``submit_many`` (churn-heavy serving: group uploads,
    #: checkpoint fan-ins), exercising the coalesced settle path.
    burst: int = 1

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        check_positive("size_mean", self.size_mean)
        check_positive("n_tenants", self.n_tenants)
        check_positive("burst", self.burst)
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        if self.size_dist not in SIZE_DISTS:
            raise ValueError(
                f"size_dist must be one of {SIZE_DISTS}, got {self.size_dist!r}")
        if not (0.0 <= self.diurnal_depth < 1.0):
            raise ValueError(
                f"diurnal_depth must be in [0, 1), got {self.diurnal_depth}")
        check_positive("diurnal_period", self.diurnal_period)
        check_positive("lognormal_sigma", self.lognormal_sigma)
        if self.pareto_alpha <= 1.0:
            raise ValueError(
                f"pareto_alpha must be > 1, got {self.pareto_alpha}")


class WorkloadGenerator:
    """Drives job submissions into a broker as a chain of sim callbacks.

    ``submit(tenant, size_bytes, touch_node)`` is called at each
    arrival; it is the broker's ingress (but any callable works, which
    is what the unit tests exploit).  Nothing is scheduled and no RNG
    stream is touched until :meth:`start` — a constructed-but-idle
    generator is byte-invisible to the rest of the simulation.  Each
    context's workload streams belong to one generator: block draws
    assume nobody else reads them.
    """

    def __init__(self, ctx: Context, config: WorkloadConfig,
                 submit: Callable[[str, float, int], object],
                 n_nodes: int = 2,
                 submit_many: Optional[Callable[[list], object]] = None):
        check_positive("n_nodes", n_nodes)
        self.ctx = ctx
        self.config = config
        self.submit = submit
        #: Optional bulk ingress for ``burst > 1`` arrivals; when absent
        #: a burst degrades to per-job ``submit`` calls (same draws).
        self.submit_many = submit_many
        self.n_nodes = n_nodes
        self.submitted = 0
        self._stopped = False

    # -- draws -------------------------------------------------------------
    def _job_draws(self) -> Iterator[Tuple[str, float, int]]:
        """``(tenant, size, touch_node)`` per job, each stream block-drawn."""
        cfg, rng = self.config, self.ctx.rng
        n_tenants, n_nodes = cfg.n_tenants, self.n_nodes
        names = [f"tenant{i}" for i in range(n_tenants)]
        tenants = rng.stream("service.tenants")
        sized = rng.stream("service.sizes")
        touches = rng.stream("service.placement")
        if cfg.size_dist == "fixed":
            sizes = repeat(float(cfg.size_mean))  # the stream is untouched
        elif cfg.size_dist == "lognormal":
            sigma = cfg.lognormal_sigma
            mu = math.log(cfg.size_mean) - 0.5 * sigma * sigma
            sizes = _blocks(
                lambda k: sized.lognormal(mu, sigma, size=k).tolist())
        else:  # pareto: scale solved so the mean is size_mean
            alpha = cfg.pareto_alpha
            xm = cfg.size_mean * (alpha - 1.0) / alpha
            sizes = _blocks(
                lambda k: (xm * (1.0 + sized.pareto(alpha, size=k))).tolist())
        return zip(
            _blocks(lambda k: [names[i] for i in
                               tenants.integers(n_tenants, size=k).tolist()]),
            sizes,
            _blocks(lambda k: touches.integers(n_nodes, size=k).tolist()))

    def _intensity(self, t: float) -> float:
        """Diurnal intensity at simulated time *t* (peak = config.rate)."""
        cfg = self.config
        depth = cfg.diurnal_depth
        phase = math.sin(2.0 * math.pi * t / cfg.diurnal_period)
        return cfg.rate * (1.0 + depth * phase) / (1.0 + depth)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Begin submitting: a zero-delay boot event draws the first gap
        (so arrivals keep their place in same-instant schedule order)."""
        self._arrivals = self.ctx.rng.stream("service.arrivals")
        self._jobs = self._job_draws()
        self.ctx.sim.event().succeed().add_callback(self._next_gap)

    def stop(self) -> None:
        """Stop after the current gap (no further submissions)."""
        self._stopped = True

    def _next_gap(self, _ev=None) -> None:
        if self._stopped:
            return
        gap = float(self._arrivals.exponential(1.0 / self.config.rate))
        self.ctx.sim.timeout(gap).add_callback(self._arrive)

    def _arrive(self, _ev) -> None:
        if self._stopped:
            return
        cfg = self.config
        if cfg.arrival == "diurnal":
            # Thinning: candidate points arrive at the peak rate and
            # survive with probability intensity(t)/peak.
            t = self.ctx.sim.now
            if self._arrivals.random() >= self._intensity(t) / cfg.rate:
                self._next_gap()
                return
        # One arrival event carries cfg.burst jobs, each with its own
        # (tenant, size, touch) draws; a burst goes in through the bulk
        # ingress when there is one.
        jobs = list(islice(self._jobs, cfg.burst))
        self.submitted += len(jobs)
        if cfg.burst > 1 and self.submit_many is not None:
            self.submit_many(jobs)
        else:
            for job in jobs:
                self.submit(*job)
        self._next_gap()
