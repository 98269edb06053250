"""Run the repository benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload fleet-512 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Each iteration runs in a fresh interpreter (``child.py``) against a
fresh empty cache directory under ``.perfbench-work/`` in the checkout;
iterations repeat until ``--seconds`` would be exceeded.  With
``--trace 0`` the run reports the end-to-end metrics, medians over its
iterations; with ``--trace 1`` it alternates untraced and traced
iterations and reports the per-layer metrics and the tracing overhead.

Every operation's output digest is checked against the committed
reference (``reference.json``) when one exists for the seed, and
against the run's first iteration always (traced and untraced runs must
agree).  The last line of standard output is one JSON object; the exit
code is 0 only when every operation succeeded and matched.  See
``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
#: Hard limit for one invocation, below the 180 s any run must end in.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: a machine-speed probe
    recorded beside each run (not a gated metric)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _env() -> Dict[str, str]:
    # The workloads fix every input: no REPRO_* override leaks in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(argv: List[str], deadline: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{argv[1:3]} did not finish in time") from exc


def warm_up(deadline: float) -> None:
    """Import ``repro`` once so bytecode is compiled before timing."""
    proc = _spawn([sys.executable, "-c", "import repro.core.reportgen"], deadline)
    if proc.returncode != 0:
        raise BenchError("cannot import repro from src/:\n" + proc.stderr[-2000:])


def iteration(workload: str, seed: int, trace: bool, scale: str,
              deadline: float) -> dict:
    """One fresh-interpreter iteration; returns the child's record."""
    work = WORK / f"{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    try:
        spawned_at = time.monotonic()
        proc = _spawn([sys.executable, str(HERE / "child.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--trace", str(int(trace)), "--scale", scale,
                       "--spawned-at", repr(spawned_at),
                       "--work-dir", str(work)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} iteration failed (exit {proc.returncode}):\n"
                         + proc.stderr[-4000:])
    rec = json.loads(lines[-1])
    rec["stderr"] = proc.stderr[-4000:]
    return rec


def _spread(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def score(records: List[dict], reference: Dict[str, str]) -> dict:
    """Count attempted and failed operations over a run's iterations.

    An operation fails when it raised, when its digest differs from the
    committed *reference* (label -> digest; empty when the seed has
    none), or when it differs from the run's first iteration.
    """
    first: Dict[str, str] = {}
    attempted = failed = 0
    failures: List[str] = []
    for rec in records:
        for op in rec["ops"]:
            attempted += 1
            label, dig = op["label"], op["digest"]
            first.setdefault(label, dig)
            why = None
            if not op["ok"]:
                why = op["error"]
            elif label in reference and dig != reference[label]:
                why = "digest differs from the committed reference"
            elif dig != first[label]:
                why = ("digest differs between iterations"
                       + (" (traced vs untraced)" if rec["traced"] else ""))
            if why:
                failed += 1
                failures.append(f"{label}: {why}")
    return {"attempted": attempted, "failed": failed, "failures": failures}


def reference_for(workload: str, seed: int) -> Dict[str, str]:
    if not REFERENCE.exists():
        return {}
    ref = json.loads(REFERENCE.read_text())
    return ref.get(workload, {}).get(str(seed), {}).get("ops", {})


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of *workload*; returns the full result."""
    deadline = time.monotonic() + BUDGET_S
    calib = calibrate()
    warm_up(deadline)
    t0 = time.monotonic()
    records: List[dict] = []
    modes = (False, True) if trace else (False,)
    while True:
        for traced in modes:
            records.append(iteration(workload, seed, traced, "full", deadline))
        elapsed = time.monotonic() - t0
        rounds = len(records) // len(modes)
        if elapsed + elapsed / rounds > seconds:
            break
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    verdict = score(records, reference_for(workload, seed))
    problems = sorted({p for r in traced for p in r["problems"]})
    first = untraced[0]
    end_to_end = {
        "wall_s": ("s", _spread([r["wall_s"] for r in untraced])),
        "setup_s": ("s", _spread([r["setup_s"] for r in untraced])),
        "peak_rss_mb": ("MB", _spread([r["peak_rss_mb"] for r in untraced])),
        "checks_ok_frac": ("ratio", _spread(
            [r["checks_ok"] / r["checks_scored"] for r in untraced
             if r["checks_scored"]] or [0.0])),
        "ok_frac": ("ratio", _spread(
            [1.0 - verdict["failed"] / verdict["attempted"]])),
    }
    per_layer: Dict[str, tuple] = {}
    if traced:
        units = _per_layer_units()
        for name in traced[0]["layers"]:
            per_layer[name] = (units[name], _spread(
                [r["layers"][name] for r in traced]))
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in untraced) - 1.0)
        per_layer["trace.overhead_frac"] = (
            "ratio", _spread([overhead]))
    return {
        "workload": workload,
        "seed": seed,
        "calibration_s": calib,
        "checks": [first["checks_ok"], first["checks_scored"]],
        "digests": {op["label"]: op["digest"] for op in first["ops"]},
        "fail_frac": verdict["failed"] / verdict["attempted"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "failures": verdict["failures"],
        "problems": problems,
        "correct": not verdict["failed"] and not problems,
        "stderr": [r["stderr"] for r in records if r["stderr"]],
    }


def _per_layer_units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_summary(res: dict) -> None:
    print(f"== {res['workload']} seed={res['seed']} "
          f"calibration_s={res['calibration_s']:.5f} "
          f"checks={res['checks'][0]}/{res['checks'][1]} "
          f"ops={res['attempted']} fail_frac={res['fail_frac']:.4g}")
    for group in ("end_to_end", "per_layer"):
        for name, (unit, s) in res[group].items():
            print(f"  {name:38s} {unit:6s} n={s['n']:<3d} median={s['median']:<14.6g}"
                  f" q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} spread={s['spread']:.4f}")
    for line in res["failures"] + res["problems"]:
        print(f"  FAIL {line}")
    if not res["correct"]:
        for err in res["stderr"]:
            print(err, file=sys.stderr)


def result_line(res: dict, trace: bool) -> dict:
    """The result line: medians of the gated (or per-layer) metrics."""
    group = res["per_layer"] if trace else res["end_to_end"]
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": s["median"], "unit": unit}
                    for name, (unit, s) in group.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's digests and checks in reference.json")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace))
            print_summary(results[name])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.record:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        for name, res in results.items():
            ref.setdefault(name, {})[str(args.seed)] = {
                "ops": res["digests"], "checks": res["checks"]}
        REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    if len(names) == 1:
        print(json.dumps(result_line(results[names[0]], bool(args.trace))))
    else:
        print(json.dumps({name: result_line(res, bool(args.trace))
                          for name, res in results.items()}))
    return 0 if all(res["correct"] for res in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
