"""End-to-end selection benchmark: time and what-if calls to Pr(CS) >= alpha.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matrix-neartie-a99 --seed 1 \
        --seconds 25 --trace 0

Workloads: ``matrix-neartie-a99``, ``live-crm-a90``, ``serve-drift``
(see ``perfbench/METRICS.md``), or ``all`` to run the three in turn.
With ``--trace 0`` the run prints every end-to-end metric, with
``--trace 1`` the per-layer metrics of a separate traced run.  Every
metric is printed with its unit and sample count; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2 and prints no
result.  Caches, worker pools and BLAS threads are pinned off, the run
and its children are pinned to one CPU, and every file the run writes
lives in a temporary directory that is removed at exit.  Times are
scaled to a reference host speed measured by a probe thread (see
``perfbench/speed.py``).
"""

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("matrix-neartie-a99", "live-crm-a90", "serve-drift")

#: Isolation: no matrix cache, serial cost sources, one BLAS thread.
ISOLATION_ENV = {
    "REPRO_NO_CACHE": "1",
    "REPRO_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the layer spans "
                             "(JSONL) to this path")
    return parser.parse_args(argv)


def run_workload(name, seed, seconds, trace, scale, workdir, env,
                 truth_override=None):
    """One workload -> ``RunResult`` (imports the program lazily)."""
    import bench

    if name == "serve-drift":
        return bench.run_serve_workload(
            seed, seconds, trace, scale, workdir, env
        )
    return bench.run_selection_workload(
        name, seed, seconds, trace, scale, truth_override=truth_override,
    )


def report(name, run, trace, env):
    """Print a workload's metrics; return ``(metrics, correct)``."""
    import bench
    import speed

    if trace:
        metrics = dict.fromkeys(bench.LAYER_UNITS, 0.0)
        metrics.update(run.layers)
        metrics.update(bench.startup_layers(SRC, env))
        # Per-layer times are sums over many intervals: scale them by
        # the host speed over the whole run.
        factor = speed.run_factor()
        for key, unit in bench.LAYER_UNITS.items():
            if unit in ("s", "s/cell"):
                metrics[key] *= factor
        metrics["host.kernel_ms"] = speed.kernel_ms()
        rows = {
            key: (value, bench.LAYER_UNITS[key], 1)
            for key, value in sorted(metrics.items())
        }
    else:
        rows = bench.end_to_end(run)
    for key, (value, unit, n) in rows.items():
        print(f"{name:<20} {key:<34} {value:>14.6g} {unit:<6} n={n}")
    for key, (value, unit, n) in bench.quality(run).items():
        print(f"{name:<20} {key:<34} {value:>14.6g} {unit:<6} n={n}")
    if not trace:
        print(f"{name:<20} {'host.kernel_ms':<34} "
              f"{speed.kernel_ms():>14.6g} ms")
    for failure in run.failures[:10]:
        print(f"{name:<20} FAILED {failure.strip().splitlines()[-1]}")
    correct = bench.is_correct(run)
    return {k: {"value": v, "unit": u} for k, (v, u, _n) in rows.items()}, \
        correct


def prepare():
    """Pin the isolation settings and make ``src/`` importable.

    Returns ``(workdir, env)``: a fresh temporary directory inside the
    checkout (the caller removes it) and the environment for child
    processes.  Returns ``None`` when there is no program to measure.
    Pins the process to one CPU and starts the speed probe; the caller
    stops it with ``speed.stop()``.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return None
    os.environ.update(ISOLATION_ENV)
    import speed  # imports NumPy: only after the thread settings

    speed.pin_one_cpu()
    speed.start()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return workdir, dict(os.environ, PYTHONPATH=SRC)


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still stops its serve children and removes its
    # temporary directory (both happen on the way out of SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    prepared = prepare()
    if prepared is None:
        return 2
    workdir, env = prepared
    import speed

    try:
        import bench

        names = WORKLOADS if args.workload == "all" else (args.workload,)
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for name in names:
            run = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), bench.FULL[name], workdir,
                               env)
            metrics, correct = report(name, run, bool(args.trace), env)
            prefix = "" if len(names) == 1 else f"{name}."
            result["metrics"].update(
                {prefix + k: v for k, v in metrics.items()}
            )
            result["correct"] = result["correct"] and correct
            result["attempted"] += run.attempted
            result["failed"] += run.failed
            if args.trace and args.spans and run.spans is not None:
                run.spans.dump(args.spans if len(names) == 1
                               else f"{args.spans}.{name}")
        if any(not math.isfinite(m["value"])
               for m in result["metrics"].values()):
            result["correct"] = False
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
