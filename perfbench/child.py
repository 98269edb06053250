"""One benchmark iteration in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per iteration, so set-up time and
peak memory belong to that iteration alone.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before the start (the clock is
system-wide), so ``setup_s`` covers interpreter start, the ``repro``
import, the code fingerprint and planning, up to the first task call:
the first ``run_tasks`` call of the report, or the first leg call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    # One fixed CPU: the work is serial, and migrating between CPUs
    # roughly doubled the spread of wall_s between iterations.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    first_call = []
    if args.workload == "report-quick":
        import repro.core.reportgen as reportgen

        run_tasks = reportgen.run_tasks

        def stamped(*a, **kw):
            if not first_call:
                first_call.append(time.monotonic())
            return run_tasks(*a, **kw)

        reportgen.run_tasks = stamped
    ops, cache = workloads.ops(args.workload, args.scale, args.seed,
                               os.path.join(args.work_dir, "cache"))

    records, outputs = [], []
    checks_ok = checks_scored = 0
    for label, call in ops:
        if not first_call and args.workload != "report-quick":
            first_call.append(time.monotonic())  # a leg call is the task call
        rec = {"label": label, "ok": True, "error": None, "digest": None}
        try:
            out = tracer.call_op(call) if tracer else call()
        except Exception as exc:  # the op fails; the run goes on
            traceback.print_exc()
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        else:
            outputs.append(out)
        records.append(rec)
    end = time.monotonic()
    # Judged after the clock stops: digests and checks are not the work.
    for rec, out in zip([r for r in records if r["ok"]], outputs):
        rec["digest"] = workloads.digest(out)
        try:
            ok, scored = workloads.checks(out)
        except (KeyError, ValueError) as exc:
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            continue
        checks_ok += ok
        checks_scored += scored
    start = first_call[0] if first_call else end

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": start - args.spawned_at,
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
        "checks_ok": checks_ok,
        "checks_scored": checks_scored,
    }
    if tracer is not None:
        stores = cache.stats.stores if cache is not None else 0
        cache_bytes = 0
        if cache is not None:
            for dirpath, _dirs, files in os.walk(cache.dir):
                cache_bytes += sum(os.path.getsize(os.path.join(dirpath, f))
                                   for f in files)
        metrics = tracer.layer_metrics(cache_bytes, stores)
        result.update(
            layers=metrics,
            calls=dict(tracer.calls),
            problems=tracer.violations(args.workload, metrics) + [
                f"{what}: wraps counted {seen}, program counted {program}"
                for what, seen, program in tracer.cross_checks(
                    args.workload, stores)
                if seen != program],
        )
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
