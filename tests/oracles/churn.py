"""Eager churn: every scheduler transition rebalances before it returns.

The production :class:`~repro.sim.fluid.FluidScheduler` coalesces the
transitions of one simulated instant into a single deferred rebalance.
Under :func:`eager_churn` each start, stop, cap or capacity change
rebalances its components at once instead — the semantics coalescing
must be indistinguishable from.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sim.fluid import FluidScheduler


def _rebalance_now(scheduler: FluidScheduler) -> None:
    scheduler._rebalance()


@contextmanager
def eager_churn():
    """Within the block, every fluid transition rebalances immediately."""
    original = FluidScheduler._after_change
    FluidScheduler._after_change = _rebalance_now
    try:
        yield
    finally:
        FluidScheduler._after_change = original
