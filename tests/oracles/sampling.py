"""Per-tick reference sampling: one process and one sample per tick.

:class:`TickChannel` is the sampler the backfill hub replaces: a
generator process per channel wakes every ``interval`` simulated
seconds, settles the hub's fluid schedulers so counters read current
progress, and records one sample.  :func:`per_tick_sampling` installs it
in place of :meth:`repro.sim.sampling.SamplerHub.channel`, so every
probe and monitor declared inside the block samples per tick.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sim.sampling import KINDS, SamplerHub


class TickChannel:
    """A rate or gauge channel sampled by its own per-tick process."""

    def __init__(self, hub, counter, interval, series, kind="rate"):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        self.hub = hub
        self.counter = counter
        self.interval = float(interval)
        self.series = series
        self.kind = kind
        self._last_total = float(counter()) if kind == "rate" else 0.0
        self._stopped = False
        self._proc = hub.sim.process(self._ticks(), name=f"sampler:{series.name}")

    def _ticks(self):
        sim = self.hub.sim
        while True:
            yield sim.timeout(self.interval)
            self._sample(sim.now)

    def _sample(self, now: float) -> None:
        for scheduler in self.hub._schedulers:
            scheduler.settle()
        if self.kind == "gauge":
            self.series.record(now, float(self.counter()))
            return
        total = float(self.counter())
        self.series.record(now, (total - self._last_total) / self.interval)
        self._last_total = total

    def flush(self) -> None:
        """Nothing to materialize: every tick already recorded itself."""

    def stop(self):
        """Stop ticking; returns the series."""
        if not self._stopped:
            self._stopped = True
            if self._proc.is_alive:
                self._proc.interrupt("probe stopped")
        return self.series


@contextmanager
def per_tick_sampling():
    """Within the block, every declared channel samples per tick."""
    original = SamplerHub.channel

    def channel(hub, counter, interval, series, kind="rate"):
        return TickChannel(hub, counter, interval, series, kind=kind)

    SamplerHub.channel = channel
    try:
        yield
    finally:
        SamplerHub.channel = original
