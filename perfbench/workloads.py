"""The benchmark's workloads: what one operation runs and how it is judged.

Every workload drives ``repro`` only through its public entry points
(``generate_experiments_md``, ``fleet_leg``, ``availability_leg``,
``mttr_leg``).  The inputs are fixed here, apart from the seed, so two
commits run exactly the same work.  ``repro`` is imported lazily: the
parent process of the benchmark reads this module without paying for
the import.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Callable, List, Tuple

WORKLOADS = ("report-quick", "fleet-512", "availability-128")

#: Host counts per scale: "full" is the benchmark, "tiny" the self-test.
FLEET_HOSTS = {"full": 512, "tiny": 16}
AVAIL_HOSTS = {"full": 128, "tiny": 16}
#: The fleet curve's load shape (the full-mode ext-fleet legs).
FLEET_RATE_PER_HOST = 4.0
FLEET_SIZE_MEAN_MIB = 64.0
FLEET_MODES = ("pooled", "per-job")
AVAIL_RATES = (0.5, 1.0)
AVAIL_VARIANTS = (True, False)  # journaled, amnesiac
#: The self-test's report slice: one experiment per layer the full
#: report exercises (paper figure + sampler, gang ablation, broker,
#: sharded fleet, faults + journal).
TINY_REPORT = ("fig13", "sensitivity", "service", "fleet", "availability")

Op = Tuple[str, Callable[[], Any]]


def ops(workload: str, scale: str, seed: int,
        cache_dir: str) -> Tuple[List[Op], Any]:
    """The workload's operations, in run order, as ``(label, call)``,
    and the report's result cache (None on the leg workloads).

    Everything is built here, before the first task call, so that its
    set-up (for the report, the cache and its code fingerprint) counts
    as set-up time.
    """
    if workload == "report-quick":
        from repro.core.reportgen import generate_experiments_md
        from repro.exec import ResultCache

        cache = ResultCache(cache_dir)
        only = TINY_REPORT if scale == "tiny" else None
        return [("report", lambda: generate_experiments_md(
            quick=True, seed=seed, jobs=1, cache=cache, only=only))], cache
    if workload == "fleet-512":
        from repro.core.experiments import fleet_legs

        hosts = FLEET_HOSTS[scale]
        return [(f"fleet/{mode}-x{hosts}",
                 lambda mode=mode: fleet_legs.fleet_leg(
                     seed=seed, cal=None, hosts=hosts, qp_mode=mode,
                     rate_per_host=FLEET_RATE_PER_HOST,
                     size_mean_mib=FLEET_SIZE_MEAN_MIB))
                for mode in FLEET_MODES], None
    if workload == "availability-128":
        from repro.core.experiments import availability_legs as legs

        hosts = AVAIL_HOSTS[scale]
        out: List[Op] = []
        for rate in AVAIL_RATES:
            for journal in AVAIL_VARIANTS:
                out.append((
                    f"avail/{_variant(journal)}-x{hosts}-r{rate:g}",
                    lambda rate=rate, journal=journal: legs.availability_leg(
                        seed=seed, cal=None, hosts=hosts, fault_rate=rate,
                        journal=journal)))
        for journal in AVAIL_VARIANTS:
            out.append((
                f"avail/mttr-{_variant(journal)}-x{hosts}",
                lambda journal=journal: legs.mttr_leg(
                    seed=seed, cal=None, hosts=hosts, journal=journal)))
        return out, None
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def _variant(journal: bool) -> str:
    return "journaled" if journal else "amnesiac"


def _json_default(obj: Any) -> Any:
    # NumPy scalars that are not float subclasses (np.int64, np.bool_).
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def canonical(output: Any) -> bytes:
    """The bytes an output's digest is taken over.

    A ledger is its text; a leg result is canonical JSON (sorted keys,
    no whitespace, floats at full ``repr`` precision).
    """
    if isinstance(output, str):
        return output.encode()
    return json.dumps(output, sort_keys=True, separators=(",", ":"),
                      default=_json_default).encode()


def digest(output: Any) -> str:
    """sha256 of :func:`canonical`."""
    return hashlib.sha256(canonical(output)).hexdigest()


_SCORECARD = re.compile(r"Scorecard: (\d+)/(\d+) paper-anchored checks")
#: A leg's own invariants: jobs conserved, boundary exchange converged
#: (mttr legs carry no ``converged`` flag).
LEG_FLAGS = ("conserved", "converged")


def checks(output: Any) -> Tuple[int, int]:
    """``(reproduced, scored)`` checks of one operation's output."""
    if isinstance(output, str):
        m = _SCORECARD.search(output)
        if m is None:
            raise ValueError("ledger has no scorecard line")
        return int(m.group(1)), int(m.group(2))
    flags = [bool(output[f]) for f in LEG_FLAGS if f in output]
    return sum(flags), len(flags)
