"""Benchmark of the indsat library: four exact-answer workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Each run starts fresh worker processes (worker.py) on one core's worth of
work, with no process pools.  With ``--trace 0`` it reports the end-to-end
metrics: ``setup_s`` (median of several worker starts, from process start
to inputs built and lazy tables filled), ``solve_s`` (median per solve over
about S seconds of solves) and ``peak_rss_mb`` (peak resident memory of the
solving process).  Both times are wall times scaled to a reference host
speed by a calibration loop timed next to them; the unscaled medians are
on the summary line.  With ``--trace 1`` it reports the per-layer metrics
of a traced run (see README.md).  Every answer is checked against a
reference; ``--workload all`` runs the four in turn.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
readable summary, with the error rate, the unscaled times and the host
speed of the run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 9
# Set-up and solve times are given at the host speed where worker.calibrate()
# takes 15 ms.
REFERENCE_CALIB_S = 0.015
# A run must end within 180 s; leave room to report after the last worker.
DEADLINE_S = 170.0


def load_spec() -> tuple[tuple[str, ...], dict[str, str]]:
    """Workload names and metric units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return names, units


def at_reference_speed(seconds: float, calib: float) -> float:
    """A wall time scaled to the reference host speed.

    The shared host's speed drifts by tens of percent over minutes, and
    every run would otherwise carry that drift; the calibration loop,
    timed next to the measured interval, follows it.
    """
    return seconds * REFERENCE_CALIB_S / calib


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Start a worker; return (seconds from start to ready, its last stdout line)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"{workload} worker ({mode}) exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def measure(
    workload: str, seed: int, seconds: float, trace: bool, units: dict, deadline: float
) -> dict:
    """One run of one workload: the result object run.py prints."""
    if trace:
        _, line = run_worker(workload, seed, seconds, "trace", deadline)
        report = json.loads(line)
        values = report["metrics"]
        for hook in report["missing_hooks"]:
            print(f"{workload}: hook {hook} not found; its metrics are absent", file=sys.stderr)
        calib = values["host.calib_s"]
    else:
        # (set-up wall seconds, host calibration right after the set-up)
        samples: list[tuple[float, float]] = []

        def start(mode: str) -> dict:
            setup, line = run_worker(workload, seed, seconds, mode, deadline)
            report = json.loads(line)
            samples.append((setup, report["calib_s"][0]))
            return report

        # Set-up samples before and after the solving worker, so that they
        # see the host over the same stretch of time as the solves do.
        for _ in range(SETUP_SAMPLES // 2):
            start("setup")
        report = start("run")
        while len(samples) < SETUP_SAMPLES:
            start("setup")
        wall, calibs = report["solve_s"], report["calib_s"]
        wall_setup = [setup for setup, _ in samples]
        values = {
            "setup_s": statistics.median(at_reference_speed(s, c) for s, c in samples),
            "solve_s": statistics.median(
                at_reference_speed(t, (c0 + c1) / 2) for t, c0, c1 in zip(wall, calibs, calibs[1:])
            ),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        }
        calib = statistics.median(calibs)
    attempted, failed = report["attempted"], report["failed"]
    summary = [f"# {workload}", f"seed={seed}", f"trace={int(trace)}", f"solves={attempted}",
               f"error_rate={failed / attempted:.6g} ({failed}/{attempted})"]
    summary += [f"{name}={values[name]:.6g}{units[name]}"
                for name in ("setup_s", "solve_s", "peak_rss_mb", "trace.overhead_s")
                if name in values]
    if not trace:
        summary.append(f"wall_setup_s={statistics.median(wall_setup):.6g}s")
        summary.append(f"wall_solve_s={statistics.median(wall):.6g}s "
                       f"(range {min(wall):.4g}..{max(wall):.4g})")
    summary.append(f"host.calib_s={calib:.6g}s")
    print(" ".join(summary))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    workloads, units = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "indsat" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'indsat'}", file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = {
            w: measure(w, args.seed, args.seconds, bool(args.trace), units,
                       time.perf_counter() + DEADLINE_S)
            for w in names
        }
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
