"""Self-test of the benchmark at tiny sizes (16 hosts, a report slice).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at the tiny scale,
then checks that:

* every wrap point fired on some workload, and every span a workload
  is expected to exercise fired on it (no silent zeros);
* the traced run's counts equal the program's counters (cross-checks);
* tracing leaves every output digest unchanged;
* a perturbed output, a wrong reference digest and a raising operation
  each count as a failed operation.

Exits 0 when all hold, 1 otherwise (naming each failure).
"""

from __future__ import annotations

import shutil
import sys
import time
from collections import Counter

import workloads
from run import ROOT, WORK, iteration, score
from tracer import COUNTED, SPANS


def _perturbation_errors() -> list:
    """A changed output must fail against the unchanged digest."""
    sys.path.insert(0, str(ROOT / "src"))
    errors = []
    ops, _cache = workloads.ops("fleet-512", "tiny", 0, str(WORK / "selftest"))
    label, call = ops[0]
    out = call()
    good = workloads.digest(out)
    out["completed"] += 1
    perturbed = [{"traced": False, "ops": [
        {"label": label, "ok": True, "error": None,
         "digest": workloads.digest(out)}]}]
    if score(perturbed, {label: good})["failed"] != 1:
        errors.append("a perturbed leg result passed the reference check")
    repeat = [{"traced": False, "ops": [
        {"label": label, "ok": True, "error": None, "digest": good}]}]
    if score(repeat + perturbed, {})["failed"] != 1:
        errors.append("a perturbed second iteration passed the determinism check")
    ledger = "**Scorecard: 144/144 paper-anchored checks reproduce.**\n"
    text = [{"traced": False, "ops": [
        {"label": "report", "ok": True, "error": None,
         "digest": workloads.digest(ledger.replace("144/", "143/"))}]}]
    if score(text, {"report": workloads.digest(ledger)})["failed"] != 1:
        errors.append("a perturbed ledger passed the reference check")
    raised = [{"traced": False, "ops": [
        {"label": label, "ok": False, "error": "RuntimeError: boom",
         "digest": None}]}]
    if score(raised, {})["failed"] != 1:
        errors.append("a raising operation did not count as failed")
    return errors


def main() -> int:
    deadline = time.monotonic() + 600.0
    errors = []
    calls: Counter = Counter()
    try:
        for workload in workloads.WORKLOADS:
            plain = iteration(workload, 0, False, "tiny", deadline)
            traced = iteration(workload, 0, True, "tiny", deadline)
            reference = {op["label"]: op["digest"] for op in plain["ops"]}
            verdict = score([plain, traced], reference)
            errors += [f"{workload}: {f}" for f in verdict["failures"]]
            errors += [f"{workload}: {p}" for p in traced["problems"]]
            calls.update(traced["calls"])
            print(f"{workload}: {verdict['attempted']} ops, "
                  f"{verdict['failed']} failed, "
                  f"{len(traced['problems'])} problems")
        points = [p for ps in SPANS.values() for p in ps] + list(COUNTED)
        errors += [f"wrap point {p} never fired" for p in points if not calls[p]]
        errors += _perturbation_errors()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for err in errors:
        print(f"FAIL {err}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
