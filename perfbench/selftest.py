"""Self-test of the benchmark itself (not of the program it measures).

Usage (from the repository root)::

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks
   that each metric ``BENCHMARK.json`` names is reported with its unit
   and a finite value.
2. Plants a wrong ground truth (the cost ranking reversed) on the matrix
   workload and checks that the correctness test then fails, while the
   true ground truth passes it.

Exits 0 when every check holds; prints one line per check.
"""

import json
import os
import shutil
import sys

import run

TINY_SECONDS = 0.0


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _check_metrics(label, metrics, declared, problems):
    for name, unit in declared.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{label}: metric {name} missing")
        elif got["unit"] != unit:
            problems.append(
                f"{label}: {name} has unit {got['unit']}, declared {unit}"
            )
        elif not isinstance(got["value"], (int, float)) or \
                got["value"] != got["value"]:
            problems.append(f"{label}: {name} = {got['value']!r}")
    extra = sorted(set(metrics) - set(declared))
    if extra:
        problems.append(f"{label}: undeclared metrics {extra}")


def main():
    prepared = run.prepare()
    if prepared is None:
        return 2
    workdir, env = prepared
    import bench
    import speed

    end_to_end, per_layer = _declared()
    problems = []
    try:
        for name in run.WORKLOADS:
            for trace, declared in ((False, end_to_end), (True, per_layer)):
                label = f"{name} trace={int(trace)}"
                result = run.run_workload(
                    name, 0, TINY_SECONDS, trace, bench.TINY[name],
                    workdir, env,
                )
                metrics, _correct = run.report(label, result, trace, env)
                _check_metrics(label, metrics, declared, problems)
                if result.attempted < 1:
                    problems.append(f"{label}: nothing attempted")
                print(f"selftest: {label} -> {len(metrics)} metrics")

        scale = bench.TINY["matrix-neartie-a99"]
        truth = bench.setup_matrix(scale).true_totals
        planted = truth[::-1].copy()
        for label, totals, expect in (("true", truth, True),
                                      ("planted wrong", planted, False)):
            result = run.run_workload(
                "matrix-neartie-a99", 0, TINY_SECONDS, False, scale,
                workdir, env, truth_override=totals,
            )
            correct = bench.is_correct(result)
            print(f"selftest: {label} ground truth -> correct={correct}")
            if correct != expect:
                problems.append(
                    f"{label} ground truth: correct={correct}, "
                    f"expected {expect}"
                )
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"selftest FAILED: {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
