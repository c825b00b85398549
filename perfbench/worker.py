"""One workload process of the benchmark; started by run.py, not by hand.

    worker.py --workload NAME --seed N --seconds S --mode setup|run|trace

The worker imports the library from the checkout's ``src``, builds the
workload (the set-up) and prints ``ready``; run.py times process start to
that line.  Mode ``setup`` stops there.  Mode ``run`` then repeats the
solve for about S seconds, checking each answer outside the timed region.
Mode ``trace`` spends half the budget on untraced solves and half on
traced ones.  The last stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CALIBRATION_LOOP = 200_000
CALIBRATION_REPS = 3


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: tracks the speed of the host."""
    reps = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i
        reps.append(time.perf_counter() - start)
    return statistics.median(reps)


def solve_loop(workload, seconds: float, min_solves: int, tracer=None) -> dict:
    """Repeat the solve while another one fits in the budget; check every answer.

    The host speed is calibrated before each solve and after the last one,
    so every solve lies between two calibrations.
    """
    times, calib, snapshots = [], [], []
    failed = 0
    start = time.perf_counter()
    while True:
        calib.append(calibrate())
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            answer = workload.solve()
            error = None
        except Exception as exc:  # a solve that raises is a failed solve, not a crash
            answer, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            snapshots.append(tracer.snapshot())
        if error is None:
            try:
                error = workload.check(answer)
            except Exception as exc:  # an answer of the wrong shape is a wrong answer
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            print(f"{workload.name}: solve {len(times)} failed: {error}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if len(times) >= min_solves and elapsed + statistics.median(times) > seconds:
            break
    calib.append(calibrate())
    return {"times": times, "calib": calib, "snapshots": snapshots, "failed": failed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        report = {"calib_s": [calibrate()]}
    elif args.mode == "run":
        loop = solve_loop(workload, args.seconds, min_solves=2)
        report = {
            "solve_s": loop["times"],
            "attempted": len(loop["times"]),
            "failed": loop["failed"],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calib_s": loop["calib"],
        }
    else:
        from spans import Tracer, layer_metrics

        plain = solve_loop(workload, args.seconds / 2, min_solves=1)
        tracer = Tracer()
        traced = solve_loop(workload, args.seconds / 2, min_solves=1, tracer=tracer)
        per_solve = [layer_metrics(s, tracer.missing) for s in traced["snapshots"]]
        metrics = {}
        for name, first in per_solve[0].items():
            if isinstance(first, float):  # times and ratios: median over traced solves
                metrics[name] = statistics.median(m[name] for m in per_solve)
            else:  # counts (or None for an absent hook) repeat from solve to solve
                metrics[name] = first
        metrics["constructions.build_s"] = workload.phases.get("constructions.build_s", 0.0)
        metrics["patterns.placements_s"] = workload.phases.get("patterns.placements_s", 0.0)
        metrics["trace.overhead_s"] = statistics.median(traced["times"]) - statistics.median(
            plain["times"]
        )
        metrics["host.calib_s"] = statistics.median(plain["calib"] + traced["calib"])
        report = {
            "metrics": metrics,
            "attempted": len(plain["times"]) + len(traced["times"]),
            "failed": plain["failed"] + traced["failed"],
            "missing_hooks": sorted(tracer.missing),
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
