"""Selector throughput: batched draw-ahead vs the serial schedule.

Measures the tentpole of the batched sampling engine on two cost
sources and emits a machine-readable ``BENCH_selector.json``:

1. **MatrixCostSource selection** (k=8, N>=5000 unless ``--quick``) —
   one fixed-budget selection run with ``batch_rounds=1`` (the serial
   schedule, bit-identical to the historical draw-by-draw loop) versus
   the round-level draw-ahead.  Reports wall time, optimizer calls,
   evaluated cells/second, per-phase times and the speedup; asserts
   (full mode) the speedup is >= ``--min-speedup`` and the batched call
   count stays within ``BATCH_CALL_TOLERANCE`` of the serial schedule.
   The same scenario is run a third time with the selector's split
   scorer patched to the per-cut reference oracle
   (``tests/oracles.py``): the two batched runs take identical
   decisions, so their split + plan phase times isolate
   the incremental/vectorized kernels (``phases_speedup`` block;
   asserted >= ``--min-kernel-speedup`` in full mode).  A ``leaders``
   block records both sides' final leader and Pr(CS): on a
   budget-bound run a leader disagreement within the unreached
   confidence level is a statistical tie, and the benchmark asserts it
   stays within that tie.
2. **OptimizerCostSource selection** — the same comparison over live
   what-if calls on a generated TPC-D workload (plan-search bound, so
   the batching win is smaller; reported, not asserted).

A third section replays one case of the committed golden fixture
(``tests/data/selector_golden.json``) at ``batch_rounds=1`` and records
whether the result is still bit-identical to the pre-batching selector.

Usage::

    PYTHONPATH=src python benchmarks/bench_selector_throughput.py
    PYTHONPATH=src python benchmarks/bench_selector_throughput.py \
        --quick --out BENCH_selector.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from dataclasses import replace
from typing import Dict, Tuple
from unittest import mock

import numpy as np

from repro.core import selector as selector_module
from repro.core.selector import (
    BATCH_CALL_TOLERANCE,
    ConfigurationSelector,
    SelectorOptions,
)
from repro.core.sources import MatrixCostSource, OptimizerCostSource
from repro.experiments.profiling import PhaseTimer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "data", "selector_golden.json")


def bench_matrix(
    n: int, t: int, k: int, seed: int = 123, tie: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """A template-clustered cost matrix, optionally with a planted tie.

    Mirrors the equivalence-test generator (heavy-tailed template
    scales, correlated configurations) at benchmark scale.  With
    ``tie=True`` the two cheapest configurations are rescaled to equal
    true totals — the paper's hard regime (Figure 3), where
    ``Pr(CS)`` cannot clear a high ``alpha`` and the run is genuinely
    budget-bound.  (A run that clears ``alpha`` switches to serial
    re-checks to confirm termination, which is correct behavior but
    the wrong scenario for measuring draw-ahead throughput.)
    """
    rng = np.random.default_rng(seed)
    template_ids = np.sort(rng.integers(0, t, size=n))
    base = rng.lognormal(3.0, 1.0, size=t)
    factor = 1.0 + 0.12 * rng.standard_normal((t, k))
    noise = rng.lognormal(0.0, 0.15, size=(n, k))
    matrix = base[template_ids][:, None] * factor[template_ids] * noise
    if tie:
        totals = matrix.sum(axis=0)
        first, second = np.argsort(totals)[:2]
        matrix[:, second] *= totals[first] / totals[second]
    return matrix, template_ids


def _run_selection(
    source, template_ids, options: SelectorOptions, seed: int
) -> Dict:
    """One timed selection run -> wall time, calls, phases, outcome."""
    timer = PhaseTimer()
    selector = ConfigurationSelector(
        source, template_ids, options,
        rng=np.random.default_rng(seed), timer=timer,
    )
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = selector.run()
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    calls = int(result.optimizer_calls)
    return {
        "wall_seconds": wall,
        "optimizer_calls": calls,
        "cells_per_second": calls / wall if wall > 0 else 0.0,
        "best_index": int(result.best_index),
        "prcs": float(result.prcs),
        "terminated_by": result.terminated_by,
        "phases": timer.as_dict(),
    }


def _split_plan(run: Dict) -> float:
    return float(
        run["phases"].get("split", 0.0) + run["phases"].get("plan", 0.0)
    )


def _compare(
    make_source,
    template_ids,
    base_options: SelectorOptions,
    batch_rounds: int,
    seed: int,
    kernel_ab: bool = False,
) -> Dict:
    """Serial (batch_rounds=1) vs batched runs of the same scenario."""
    serial = _run_selection(
        make_source(), template_ids, base_options, seed
    )
    batched_options = replace(base_options, batch_rounds=batch_rounds)
    batched = _run_selection(
        make_source(), template_ids, batched_options, seed
    )
    speedup = (
        serial["wall_seconds"] / batched["wall_seconds"]
        if batched["wall_seconds"] > 0 else 0.0
    )
    calls_ratio = (
        batched["optimizer_calls"] / serial["optimizer_calls"]
        if serial["optimizer_calls"] else 1.0
    )
    # On a budget-bound run (terminated_by != "alpha") neither side has
    # reached the confidence target, so a best_index disagreement is a
    # statistical tie between leaders the run could not separate — both
    # Pr(CS) values sit below alpha — not a correctness divergence.
    # (The serial and batched engines use different-but-equivalent
    # estimator updates — streaming buffers vs Welford merges — whose
    # last-ULP rounding picks different members of the planted tie.)
    agree = serial["best_index"] == batched["best_index"]
    leaders = {
        "serial_best": serial["best_index"],
        "batched_best": batched["best_index"],
        "serial_prcs": serial["prcs"],
        "batched_prcs": batched["prcs"],
        "alpha": float(base_options.alpha),
        "agree": agree,
        "within_confidence_tie": agree or (
            serial["terminated_by"] != "alpha"
            and batched["terminated_by"] != "alpha"
            and serial["prcs"] < base_options.alpha
            and batched["prcs"] < base_options.alpha
        ),
    }
    report = {
        "serial": serial,
        "batched": dict(batched, batch_rounds=batch_rounds),
        "speedup": speedup,
        "calls_ratio": calls_ratio,
        "call_tolerance": BATCH_CALL_TOLERANCE,
        "leaders": leaders,
    }
    if kernel_ab:
        # Same batched trajectory with the historical per-cut split
        # scoring: decisions are parity-identical, so the split + plan
        # phase-time ratio isolates the kernel change.
        sys.path.insert(0, ROOT)
        from tests.oracles import reference_split_scorer

        with mock.patch.object(
            selector_module, "propose_split", reference_split_scorer
        ):
            reference = _run_selection(
                make_source(), template_ids, batched_options, seed
            )
        ref_sp = _split_plan(reference)
        inc_sp = _split_plan(batched)
        report["phases_speedup"] = {
            "phases": ["split", "plan"],
            "reference": {
                "split_seconds": reference["phases"].get("split", 0.0),
                "plan_seconds": reference["phases"].get("plan", 0.0),
                "split_plan_seconds": ref_sp,
                "wall_seconds": reference["wall_seconds"],
            },
            "incremental": {
                "split_seconds": batched["phases"].get("split", 0.0),
                "plan_seconds": batched["phases"].get("plan", 0.0),
                "split_plan_seconds": inc_sp,
                "wall_seconds": batched["wall_seconds"],
            },
            "speedup": ref_sp / inc_sp if inc_sp > 0 else 0.0,
            "decisions_match": (
                reference["best_index"] == batched["best_index"]
                and reference["optimizer_calls"]
                == batched["optimizer_calls"]
                and reference["prcs"] == batched["prcs"]
            ),
        }
    return report


def section_matrix(quick: bool) -> Dict:
    """MatrixCostSource selection: the acceptance-criterion regime."""
    n, t, k = (1200, 24, 8) if quick else (5000, 40, 8)
    matrix, template_ids = bench_matrix(n, t, k, tie=True)
    # A fixed budget keeps the measured work identical on both sides;
    # the planted tie keeps Pr(CS) below alpha so the selector samples
    # to the budget instead of entering the serial confirmation tail.
    max_calls = (n // 2) * k
    options = SelectorOptions(
        alpha=0.999,
        scheme="delta",
        stratify="progressive",
        n_min=16,
        consecutive=10**9,
        eliminate=False,
        max_calls=max_calls,
        reeval_every=2,
    )
    report = _compare(
        lambda: MatrixCostSource(matrix),
        template_ids, options,
        batch_rounds=64, seed=7, kernel_ab=True,
    )
    report.update(
        n_queries=n, k=k, scheme="delta", stratify="progressive",
        max_calls=max_calls,
    )
    return report


def section_optimizer(quick: bool) -> Dict:
    """OptimizerCostSource selection over live what-if calls."""
    from repro.optimizer import WhatIfOptimizer
    from repro.physical import build_pool, enumerate_configurations
    from repro.workload.tpcd import tpcd_generator, tpcd_schema

    size, k = (150, 8) if quick else (500, 8)
    schema = tpcd_schema(scale_factor=0.1)
    workload = tpcd_generator(schema=schema).generate(
        size, np.random.default_rng(0)
    )
    pool = build_pool(
        workload.queries[: min(300, size)], WhatIfOptimizer(schema)
    )
    configs = enumerate_configurations(
        pool, k, np.random.default_rng(0)
    )
    max_calls = (size // 2) * k
    options = SelectorOptions(
        alpha=0.999,
        scheme="delta",
        stratify="progressive",
        n_min=8,
        consecutive=10**9,
        eliminate=False,
        max_calls=max_calls,
        reeval_every=2,
    )

    def make_source():
        # A fresh optimizer per run: both sides pay cold caches.
        return OptimizerCostSource(
            workload, configs, WhatIfOptimizer(schema)
        )

    report = _compare(
        make_source, workload.template_ids, options,
        batch_rounds=64, seed=7,
    )
    report.update(
        n_queries=size, k=k, scheme="delta", stratify="progressive",
        max_calls=max_calls,
    )
    return report


def section_golden() -> Dict:
    """Replay one golden case at batch_rounds=1; must be bit-identical."""
    case_key = "delta/progressive/seed0/budgetNone"
    try:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)[case_key]
    except (OSError, KeyError):
        return {"case": case_key, "checked": False}
    matrix, template_ids = bench_matrix(400, 16, 5, seed=123)
    options = SelectorOptions(
        alpha=0.9, scheme="delta", stratify="progressive",
        n_min=8, consecutive=3, eliminate=True, reeval_every=2,
    )
    result = ConfigurationSelector(
        MatrixCostSource(matrix), template_ids, options,
        rng=np.random.default_rng(0),
    ).run()
    identical = (
        int(result.best_index) == golden["best_index"]
        and float(result.prcs).hex() == golden["prcs"]
        and int(result.optimizer_calls) == golden["optimizer_calls"]
        and [[int(c), float(p).hex()] for c, p in result.history]
        == golden["history"]
    )
    return {"case": case_key, "checked": True, "bit_identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, no speedup assertion (CI "
                             "smoke; still emits the full schema)")
    parser.add_argument("--out", default="BENCH_selector.json",
                        help="output JSON path")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required MatrixCostSource speedup "
                             "(full mode only)")
    parser.add_argument("--min-kernel-speedup", type=float, default=3.0,
                        help="required split+plan reduction of the "
                             "incremental split kernel vs the reference "
                             "per-cut scoring (full mode only)")
    parser.add_argument("--skip-optimizer", action="store_true",
                        help="skip the live-optimizer section")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "selector_throughput",
        "quick": bool(args.quick),
        "matrix_selection": section_matrix(args.quick),
        "golden_check": section_golden(),
    }
    if not args.skip_optimizer:
        report["optimizer_selection"] = section_optimizer(args.quick)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, default=float)

    m = report["matrix_selection"]
    print(f"matrix selection  : N={m['n_queries']} k={m['k']} "
          f"budget={m['max_calls']} calls")
    print(f"  serial          : {m['serial']['wall_seconds']:.2f}s "
          f"({m['serial']['cells_per_second']:,.0f} cells/s)")
    print(f"  batched         : {m['batched']['wall_seconds']:.2f}s "
          f"({m['batched']['cells_per_second']:,.0f} cells/s)")
    print(f"  speedup         : {m['speedup']:.2f}x "
          f"(calls ratio {m['calls_ratio']:.3f})")
    ld = m["leaders"]
    print(f"  leaders         : serial={ld['serial_best']} "
          f"(PrCS {ld['serial_prcs']:.3f}) "
          f"batched={ld['batched_best']} "
          f"(PrCS {ld['batched_prcs']:.3f}) "
          f"alpha={ld['alpha']} "
          f"within_confidence_tie={ld['within_confidence_tie']}")
    ps = m.get("phases_speedup")
    if ps:
        print(f"  split+plan      : reference "
              f"{ps['reference']['split_plan_seconds']:.2f}s -> "
              f"incremental "
              f"{ps['incremental']['split_plan_seconds']:.2f}s "
              f"({ps['speedup']:.2f}x, decisions_match="
              f"{ps['decisions_match']})")
    if "optimizer_selection" in report:
        o = report["optimizer_selection"]
        print(f"optimizer selection: N={o['n_queries']} k={o['k']} -> "
              f"speedup {o['speedup']:.2f}x "
              f"(calls ratio {o['calls_ratio']:.3f})")
    g = report["golden_check"]
    if g.get("checked"):
        print(f"golden replay     : bit_identical={g['bit_identical']}")
    print(f"wrote {args.out}")

    failures = []
    if g.get("checked") and not g["bit_identical"]:
        failures.append("batch_rounds=1 diverged from the golden fixture")
    if abs(m["calls_ratio"] - 1.0) > BATCH_CALL_TOLERANCE:
        failures.append(
            f"batched calls ratio {m['calls_ratio']:.3f} outside "
            f"+/-{BATCH_CALL_TOLERANCE:.0%} of the serial schedule"
        )
    if not args.quick and m["speedup"] < args.min_speedup:
        failures.append(
            f"matrix-selection speedup {m['speedup']:.2f}x below "
            f"{args.min_speedup:.1f}x"
        )
    if not m["leaders"]["within_confidence_tie"]:
        failures.append(
            "serial and batched leaders disagree beyond the reported "
            f"confidence tie (serial={m['leaders']['serial_best']} "
            f"PrCS {m['leaders']['serial_prcs']:.3f}, "
            f"batched={m['leaders']['batched_best']} "
            f"PrCS {m['leaders']['batched_prcs']:.3f}, "
            f"alpha={m['leaders']['alpha']})"
        )
    ps = m.get("phases_speedup")
    if ps and not ps["decisions_match"]:
        failures.append(
            "reference split scoring diverged from the incremental "
            "kernel (decisions must be parity-identical)"
        )
    if ps and not args.quick and ps["speedup"] < args.min_kernel_speedup:
        failures.append(
            f"split+plan reduction {ps['speedup']:.2f}x below "
            f"{args.min_kernel_speedup:.1f}x"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
