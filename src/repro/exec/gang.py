"""Gang execution: run a grid of scenario tasks as one batched program.

A dense sweep is many *structurally identical* simulations that differ
only along a scenario axis (usually the calibration).  Running them one
event loop at a time repeats work that is provably shared.  This module
is the executor side of that: planners opt a
:class:`~repro.exec.task.SimTask` into **gang execution** by giving it
a :class:`GangSpec`, and :func:`~repro.exec.runner.run_tasks` hands
every cache-missed group of tasks sharing one ``(kernel, key)`` — as one
batch — to the named *gang kernel*, a module-level function that may
evaluate the whole scenario axis at once.

The contract a kernel must honour:

* ``kernel(tasks) -> list`` positionally aligned with ``tasks``;
* every non-:data:`DEFECT` element is **bitwise identical** to what
  ``tasks[i].execute()`` would have returned;
* a scenario the kernel cannot batch exactly — an ambient fault plan, a
  per-scenario exception — is *defected*: the kernel returns
  :data:`DEFECT` in that slot and the runner falls back to the ordinary
  per-task path for it.  Defection is always safe because the per-task
  path is the definition of correct.

Gang membership is **not** part of the task's cache identity: a ganged
scenario and the same task run solo share one content address, so a
partially cached grid gangs only the misses and the
:class:`~repro.exec.cache.ResultCache` stays oblivious to how an entry
was produced (the entry records ``via`` provenance for humans only).

A group of one runs per task, and a kernel that raises defects its
whole group with a :class:`RuntimeWarning` naming the kernel and the
exception.

One kernel ships with the library: the sensitivity grid's
``repro.core.sensitivity:gang_cells``, which runs each shape leg once
per read-set projection class across all cells (see
``repro.core.sensitivity.run_projected``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.task import SimTask

__all__ = [
    "DEFECT",
    "GangSpec",
    "GangStats",
    "resolve_kernel",
]


class _Defect:
    """Sentinel: this scenario must fall back to the per-task path."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DEFECT>"


#: Returned by a gang kernel in a scenario's slot to defect it back to
#: the per-task path.
DEFECT = _Defect()


@dataclass(frozen=True)
class GangSpec:
    """Opt-in gang metadata on a task (excluded from the cache identity).

    ``kernel`` is an importable ``"package.module:function"`` gang
    kernel; ``key`` is the structural group key — tasks gang together
    exactly when both match.  Planners must choose ``key`` so that the
    kernel's grouping precondition holds (the sensitivity grid folds in
    the perturbation size and the base calibration).
    """

    kernel: str
    key: str

    def __post_init__(self) -> None:
        module, sep, func = self.kernel.partition(":")
        if not sep or not module or not func:
            raise ValueError(
                f"kernel must look like 'package.module:function', got {self.kernel!r}"
            )


class GangStats:
    """Process-wide gang counters (mirrors :class:`~repro.sim.fluid.FluidStats`).

    ``scenarios_ganged`` counts tasks whose result came out of a gang
    kernel, ``scenarios_defected`` those a kernel handed back to the
    per-task path, ``scenarios_solo`` gang-eligible tasks that ran
    per-task because their group had a single member, and ``groups``
    the kernel invocations.  The class-level totals aggregate across
    the whole process so report footers need no handle on the runner.
    """

    total_ganged = 0
    total_defected = 0
    total_solo = 0
    total_groups = 0

    @classmethod
    def process_totals(cls) -> dict[str, int]:
        """The process-global counters as a plain dict."""
        return {
            "scenarios_ganged": cls.total_ganged,
            "scenarios_defected": cls.total_defected,
            "scenarios_solo": cls.total_solo,
            "groups": cls.total_groups,
        }

    @classmethod
    def note_group(cls, ganged: int, defected: int) -> None:
        """Record one kernel invocation's outcome."""
        cls.total_groups += 1
        cls.total_ganged += ganged
        cls.total_defected += defected

    @classmethod
    def note_solo(cls, n: int = 1) -> None:
        """Record gang-eligible tasks that ran per-task (group of one)."""
        cls.total_solo += n


def resolve_kernel(path: str) -> Callable[[Sequence["SimTask"]], List[Any]]:
    """Import and return the gang kernel named by *path*."""
    module, _, func = path.partition(":")
    fn = getattr(importlib.import_module(module), func, None)
    if fn is None:
        raise AttributeError(f"gang kernel {path!r} does not exist")
    return fn
