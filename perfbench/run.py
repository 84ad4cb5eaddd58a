"""Certificate benchmark for bcct: three workloads, closed loop, one client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run.  Prints the end-to-end metrics (trace 0) or the per-layer
        metrics of a traced run (trace 1); the last stdout line is the JSON
        result {"correct", "attempted", "failed", "metrics"}.
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--save FILE]
        Every workload untraced, then traced: end-to-end metrics by name
        and unit, per-layer metrics, tracing overhead and the environment.
    python3 perfbench/run.py --steady K --workload W [--seed N] [--trace T]
        K runs on seeds N..N+K-1; each metric's median and quartile spread
        next to its bound.
    python3 perfbench/run.py --make-reference
        Record the certificate values of every workload as the reference.

Each run starts SETUPS workload processes (worker.py) from the source tree
next to this directory, one after the other: all but the last stop once
they are set up, the last also measures.  ``setup_s`` is the median of
their set-up times.  The workload processes run with one BLAS thread and
with glibc malloc keeping freed memory (see ``worker_env``).  Times are
corrected for the host's speed, sampled while they run (``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 5
SETUPS = 5
# One BLAS thread, within the cap of nproc.  A second thread on two shared
# cores gave no shorter rounds, but doubled the CPU time and the spread
# between rounds.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc: serve every block from the heap and never give freed memory
# back, so that timed rounds reuse the pages the warm-up round touched.
# With the defaults each round maps and faults in about 1.4 GB afresh on
# transform-2p21; that kernel time was a quarter of the CPU time and its cost
# moves with the host's memory state.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    env.update(MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(worker: dict) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "openblas": worker.get("openblas"),
        "blas_threads": BLAS_THREADS,
    }


def run_worker(extra: list[str], timeout: float | None = WORKER_TIMEOUT_S) -> dict:
    """Start one workload process, wait for it, return its JSON result."""
    scratch = OUT / f"tmp-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--scratch", str(scratch), *extra]
    try:
        proc = subprocess.run(
            cmd + ["--t-spawn", repr(time.monotonic())],
            env=worker_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """SETUPS set-ups of the workload, the last one followed by the timed
    rounds; setup_s is the median of the set-up times."""
    args = ["--workload", workload, "--seed", str(seed)]
    setups = [run_worker(args + ["--setup-only"], SETUP_TIMEOUT_S) for _ in range(SETUPS - 1)]
    res = run_worker(args + ["--seconds", str(seconds), "--trace", str(trace)])
    setups.append(res)
    res["setup_runs_s"] = [r["setup_s"] for r in setups]
    res["setup_runs_wall_s"] = [r["setup_wall_s"] for r in setups]
    res["setup_s"] = statistics.median(res["setup_runs_s"])
    res["setup_wall_s"] = statistics.median(res["setup_runs_wall_s"])
    return res


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it, and its
    value (nearest rank), or None when there are too few samples."""
    n = len(values)
    p = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if p < 50:
        return None
    ranked = sorted(values)
    return p, ranked[max(0, math.ceil(p / 100.0 * n) - 1)]


def metric_values(res: dict, spec: dict) -> dict:
    """The metrics the result line carries: end-to-end, or per-layer when traced."""
    if res["trace"]:
        layers = res["layers"]
        return {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": res[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def report(res: dict, spec: dict) -> dict:
    """Print a run in words; return the result line's object."""
    walls = res["round_walls"]
    rounds = [w / s for w, s in zip(walls, res["round_speeds"])]
    print(f"workload {res['workload']}  seed {res['seed']} (input draw {res['draw']})  "
          f"trace {res['trace']}")
    tail = tail_percentile(rounds)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (needs 20 rounds or more)"
    print(f"  rounds {len(walls)}  median {statistics.median(rounds):.4f} s  {tail_text}  "
          f"warm-up round {res['warmup_round_s']:.4f} s")
    print(f"  raw wall median {res['round_wall_s']:.4f} s  raw cpu median {res['cpu_raw_s']:.4f} s  "
          f"host slowdown per round {', '.join(f'{s:.3f}' for s in res['round_speeds'])}")
    print("  set-ups " + ", ".join(f"{s:.4f}" for s in res["setup_runs_s"])
          + f" s (raw median {res['setup_wall_s']:.4f} s)")
    error_rate = res["failed"] / res["attempted"]
    print(f"  checks attempted {res['attempted']}  failed {res['failed']}  error_rate {error_rate:.6g}")
    for f in res["failures"]:
        print(f"    failed check {f}")
    metrics = metric_values(res, spec)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def quartile_spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def steady(spec: dict, workload: str, runs: int, seed: int, seconds: float, trace: int) -> list:
    """k runs of one workload; print each metric's median and spread."""
    results = []
    for i in range(runs):
        res = measure(workload, seed + i, seconds, trace)
        results.append(res)
        vals = metric_values(res, spec)
        shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in list(vals.items())[:5])
        print(f"run {i + 1}/{runs} seed {seed + i}: failed {res['failed']}  {shown}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{workload}: {runs} runs, {seconds:g} s each, trace {trace}")
    names = metric_values(results[0], spec)
    for name in names:
        vals = [metric_values(r, spec)[name]["value"] for r in results]
        med, spread = quartile_spread(vals)
        bound = bounds[name]
        if bound is None:
            verdict = ""
        elif spread < bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
        btxt = f"bound {bound:g}" if bound is not None else "no bound"
        print(f"  {name:48s} median {med:.6g}  spread {spread:.4f}  {btxt}  {verdict}")
    if not trace:
        for name in ("round_wall_s", "cpu_raw_s", "setup_wall_s"):
            med, spread = quartile_spread([r[name] for r in results])
            print(f"  {name + ' (uncorrected)':48s} median {med:.6g}  spread {spread:.4f}")
    return results


def run_all(spec: dict, seed: int, seconds: float) -> dict:
    out = {"workloads": {}}
    for wl in spec["workloads"]:
        plain = measure(wl["name"], seed, seconds, 0)
        traced = measure(wl["name"], seed, seconds, 1)
        out.setdefault("environment", environment(plain))
        report(plain, spec)
        report(traced, spec)
        overhead = traced["layers"]["traced_round_s"] - plain["round_wall_s"]
        print(f"  tracing overhead (traced - untraced wall time per round) {overhead:.4f} s")
        out["workloads"][wl["name"]] = {
            "untraced": plain,
            "traced": traced,
            "tracing_overhead_s": overhead,
        }
    print("environment " + json.dumps(out["environment"]))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steady", type=int, default=0, metavar="K")
    p.add_argument("--save", type=Path, default=None)
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "bcct" / "__init__.py").exists():
        print(f"no bcct source tree at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    try:
        if args.make_reference:
            print(json.dumps(run_worker(["--make-reference"], timeout=None)))
            return 0
        if args.all:
            saved = run_all(spec, args.seed, seconds)
        elif args.workload not in names:
            print(f"--workload must be one of {names}", file=sys.stderr)
            return 2
        elif args.steady:
            saved = steady(spec, args.workload, args.steady, args.seed, seconds, args.trace)
        else:
            res = measure(args.workload, args.seed, seconds, args.trace)
            print("environment " + json.dumps(environment(res)))
            print(json.dumps(report(res, spec)))
            return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
