"""Benchmark of the ehtp verifier: one workload per run, timed end to end.

Run from the root of a checkout of the repository::

    python3 bench/run.py --workload selftest --seed 1 --seconds 20 --trace 0

The workloads are ``selftest``, ``regular-ladder`` and ``scenario-batch``
(see ``bench/README.md``).  A run sets up its inputs from ``--seed``, then
repeats whole rounds of the workload until ``--seconds`` would be exceeded
(at least one round), checks every round's outputs against the oracles in
``bench/oracles.py``, and prints one JSON object as its last line of
output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` half the time runs untraced and half
with spans around every public function, and the metrics are the per-layer
ones, per round, plus the tracing overhead.  The line before the result
records the environment: versions, BLAS build, cores and thread settings.
"""

from __future__ import annotations

import os

# Thread caps are set here, before numpy loads, rather than inherited: one
# BLAS thread and one ehtp worker, so one compute thread per process.  With
# one pool worker per core, wall_s followed how many cores the host granted
# from minute to minute (see bench/README.md).
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "EHTP_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print 'ready' and exit (used to time the set-up)")
    return p.parse_args(argv)


def _time_setup(args) -> float:
    """Median time from starting a fresh process until it has built the
    workload's inputs, over SETUP_REPEATS processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return statistics.median(times)


def _rounds(workload, seconds: float, tracer=None) -> tuple[list[float], list[float], float]:
    """Whole rounds until another one would pass ``seconds``; at least one.
    Returns the wall and CPU times of each round, and the peak resident
    memory in MB at the end of the first round, which does not depend on how
    many rounds fit."""
    walls, cpus = [], []
    peak_mb = 0.0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        c0, w0 = time.process_time(), time.perf_counter()
        output = workload.round()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
        if not walls:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(wall)
        cpus.append(cpu)
        workload.check(output)
        if time.perf_counter() - start + wall > seconds:
            return walls, cpus, peak_mb


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": NPROC,
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "ehtp" / "__init__.py").is_file():
        print(f"bench: no ehtp package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else _time_setup(args)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

        if not args.trace:
            walls, cpus, peak_mb = _rounds(workload, args.seconds)
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": peak_mb,
            }
            wanted = spec["end_to_end"]
        else:
            walls, _, _ = _rounds(workload, args.seconds / 2)
            tracer = Tracer()
            traced, _, _ = _rounds(workload, args.seconds / 2, tracer)
            values = {k: v / len(traced) for k, v in tracer.summary().items()}
            values.update(workload.layer_times)
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
            tracer.write(ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json")
            wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in wanted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in workload.problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    env = _environment()
    env.update(workload=args.workload, seed=args.seed, rounds=len(walls),
               round_wall_s=[round(w, 4) for w in walls])
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not workload.problems, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
