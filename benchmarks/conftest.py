"""Shared benchmark fixtures.

Each benchmark runs one experiment module (the same code the tests
assert on), records its wall time via pytest-benchmark, writes the
rendered paper-vs-measured report to ``benchmarks/results/<name>.txt``
plus a machine-readable ``<name>.json`` (ops, wall seconds, events/sec,
per-check pass/fail) and prints the report (visible with ``pytest -s``
or in the saved files).  The JSON files are what
``scripts/check_bench_regression.py`` compares against the committed
baselines in ``benchmarks/baselines/``.

Two environment knobs wire the benchmarks into :mod:`repro.exec`:

* ``REPRO_BENCH_JOBS=N`` — fan each experiment's independent simulation
  legs across N worker processes.  Off (serial) by default: with
  parallel legs the ``ops``/``events_per_sec`` fields only count the
  parent process's simulator events, so keep it serial when refreshing
  baselines.
* ``REPRO_BENCH_CACHE_DIR=DIR`` — serve legs from the content-addressed
  result cache at DIR.  Off by default so benchmark wall times measure
  simulation, not cache reads.

Whatever the knobs, the measured *check values* are identical — the
executor never changes results, only where and whether they compute.
The JSON payload records the knobs (``jobs``, ``cache``) so a cached or
parallel run is never mistaken for a serial baseline.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import pytest

from repro.exec import ResultCache, executor
from repro.sim.engine import Simulator

# The microbenchmarks' reference arms import the test oracles
# (``tests.oracles``) by package name, from the repository root.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR", "")


@pytest.fixture(scope="session")
def bench_cache() -> ResultCache | None:
    """One shared result cache per session when REPRO_BENCH_CACHE_DIR is set."""
    return ResultCache(BENCH_CACHE_DIR) if BENCH_CACHE_DIR else None


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def run_experiment(benchmark, results_dir, bench_cache):
    """Benchmark an experiment module and persist its report + JSON."""

    def _run(module, name: str, quick: bool | None = None):
        if quick is None:
            quick = os.environ.get("REPRO_FULL", "") != "1"

        measured = {}

        def _timed(**kwargs):
            events_before = Simulator.events_processed_total
            t0 = time.perf_counter()
            with executor(jobs=BENCH_JOBS, cache=bench_cache):
                rep = module.run(**kwargs)
            measured["wall_seconds"] = time.perf_counter() - t0
            measured["events"] = Simulator.events_processed_total - events_before
            return rep

        report = benchmark.pedantic(
            _timed, kwargs={"quick": quick}, rounds=1, iterations=1
        )
        text = report.render()

        wall = measured["wall_seconds"]
        events = measured["events"]
        payload = {
            "name": name,
            "experiment_id": report.experiment_id,
            "quick": quick,
            "ops": events,
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "jobs": BENCH_JOBS,
            "cache": bench_cache.stats.as_dict() if bench_cache else None,
            "all_ok": report.all_ok,
            "checks": [
                {
                    "metric": c.metric,
                    "paper": repr(c.paper),
                    "measured": repr(c.measured),
                    "ok": c.ok,
                }
                for c in report.checks
            ],
        }

        # Persist both artifacts *before* asserting, so a diverging run
        # still leaves its report and JSON behind for inspection/CI upload.
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{name}.txt").write_text(text + "\n")
        (results_dir / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print()
        print(text)
        assert report.checks, f"{name} produced no checks"
        # Failed checks must fail the benchmark in quick *and* full mode
        # (REPRO_FULL=1): report every diverging metric with its values.
        failed = [c for c in report.checks if c.ok is False]
        assert not failed, "diverging checks: " + ", ".join(
            f"{c.metric} (paper={c.paper!r}, measured={c.measured!r})"
            for c in failed
        )
        return report

    return _run
