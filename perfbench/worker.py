"""The workload process: set-up, warm-up round, timed rounds, checks.

Started by ``run.py`` with the BLAS thread cap already in its environment.
Prints one JSON object on its last stdout line.  ``setup_s`` runs from the
moment ``run.py`` spawned this process (``--t-spawn``, a CLOCK_MONOTONIC
reading, which is system-wide on Linux) until the inputs are ready:
interpreter start, imports and seeded input generation.  With
``--setup-only`` the process stops there.  Otherwise an untimed warm-up
round follows, which is checked and reported as ``warmup_round_s``, and
then the timed rounds.

Set-up and untraced rounds run under a ``hostspeed.Sampler``.  The
reported ``setup_s``, ``round_s`` and ``cpu_s`` are divided by the host's
slowdown measured over the same interval; the raw figures are reported
next to them as ``setup_wall_s``, ``round_wall_s`` and ``cpu_raw_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

if __name__ == "__main__":
    # Sample the host's speed from before the heavy imports on; set-up
    # time includes them.
    SETUP_SPEED = hostspeed.Sampler(("py",)).start()

import numpy as np  # noqa: E402

from checks import REFERENCE, compare, expected, load_reference  # noqa: E402
from spans import Tracer, instrument, per_round_medians  # noqa: E402
from workloads import DRAWS, WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def run_round(workload, inputs, draw, reference, tracer=None):
    """Run every job once; return (wall s, cpu s, attempted, failures)."""
    results = []
    t0, c0 = time.perf_counter(), _cpu_s()
    with _span(tracer, "round"):
        for job in workload.jobs:
            with _span(tracer, f"job.{job.name}"):
                try:
                    values = job.run(inputs)
                except Exception as exc:  # a raising job fails all its checks
                    values = None
                    print(f"job {job.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            results.append((job, values))
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0

    attempted, failures = 0, []
    for job, values in results:
        ref = expected(reference, workload.name, job.name, draw)
        attempted += len(set(ref) | set(values or {}))
        failures += [f"{job.name}:{k}" for k in compare(values, ref)]
    return wall, cpu, attempted, failures


def measure(args, setup_speed: hostspeed.Sampler) -> dict:
    workload = WORKLOADS[args.workload]
    draw = args.seed % DRAWS
    inputs = workload.make_inputs(draw, args.scratch)
    reference = load_reference()
    setup_wall = time.monotonic() - args.t_spawn
    setup_speed.stop()
    setup = {
        "setup_wall_s": setup_wall,
        "setup_speed": setup_speed.factor(),
        "setup_s": setup_wall / setup_speed.factor(),
    }
    if args.setup_only:
        return {"workload": workload.name, **setup}

    # The traced run reports shares of the round; it needs no speed
    # correction, and probes inside its spans would skew them.
    speed = None if args.trace else hostspeed.Sampler(workload.probes).start()
    attempted, failures = 0, []
    warm_wall, _, a, f = run_round(workload, inputs, draw, reference)
    attempted += a
    failures += f

    tracer = Tracer() if args.trace else None
    restore = instrument(tracer) if tracer else None
    walls, cpus, speeds = [], [], []
    t_begin = time.perf_counter()
    try:
        while True:
            if tracer:
                tracer.trace = len(walls) + 1
            if speed:
                speed.reset()
            wall, cpu, a, f = run_round(workload, inputs, draw, reference, tracer)
            speeds.append(speed.factor() if speed else 1.0)
            walls.append(wall)
            cpus.append(cpu)
            attempted += a
            failures += f
            # Start another round only if a median round still fits.
            if time.perf_counter() - t_begin + statistics.median(walls) > args.seconds:
                break
    finally:
        if restore:
            restore()
        if speed:
            speed.stop()

    out = {
        "workload": workload.name,
        "seed": args.seed,
        "draw": draw,
        "trace": args.trace,
        **setup,
        "warmup_round_s": warm_wall,
        "round_walls": walls,
        "round_cpus": cpus,
        "round_speeds": speeds,
        "round_s": statistics.median(w / s for w, s in zip(walls, speeds)),
        "cpu_s": statistics.median(c / s for c, s in zip(cpus, speeds)),
        "round_wall_s": statistics.median(walls),
        "cpu_raw_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "numpy": np.__version__,
        "openblas": _openblas_version(),
    }
    if tracer:
        out["layers"] = per_round_medians(tracer, range(1, len(walls) + 1))
        spans_path = args.scratch.parent / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(json.dumps([s.to_json() for s in tracer.spans]))
        out["spans_file"] = str(spans_path)
    return out


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def make_reference(args) -> dict:
    """Write the certificate values of every job (of every draw for seeded
    jobs) to the reference file."""
    ref = {}
    for workload in WORKLOADS.values():
        entry = {"values": {}, "by_draw": {str(d): {} for d in range(DRAWS)}}
        for job in workload.jobs:
            draws = [
                job.run(workload.make_inputs(draw, args.scratch))
                for draw in (range(DRAWS) if job.seeded else (0,))
            ]
            entry["values"][job.name] = draws[0]
            for draw, values in enumerate(draws[1:], start=1):
                if values.keys() != draws[0].keys():
                    raise RuntimeError(f"{job.name}: draw {draw} gives other checks")
                varying = {k: v for k, v in values.items() if v != draws[0][k]}
                if varying:
                    entry["by_draw"][str(draw)][job.name] = varying
            print(f"reference: {workload.name} {job.name}", file=sys.stderr, flush=True)
        ref[workload.name] = entry
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return {"reference": str(REFERENCE)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t-spawn", type=float, default=None)
    p.add_argument("--scratch", type=Path, required=True)
    p.add_argument("--make-reference", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if args.t_spawn is None:
        args.t_spawn = time.monotonic()
    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.make_reference:
            SETUP_SPEED.stop()
            result = make_reference(args)
        else:
            result = measure(args, SETUP_SPEED)
    finally:
        shutil.rmtree(args.scratch / "verify", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
