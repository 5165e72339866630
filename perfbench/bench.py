"""Workloads, measurement loops, output checks and metrics of perfbench.

Three closed-loop workloads (the next selection starts only when the
previous one returned; one process, no pools):

* ``matrix-neartie-a99`` -- Delta Sampling over a precomputed TPC-D
  cost matrix at the paper defaults (alpha 0.99), so the selector's
  own phases carry the wall time;
* ``live-crm-a90`` -- the CRM trace through ``OptimizerCostSource``
  with a fresh ``WhatIfOptimizer`` per selection, so plan search
  carries it;
* ``serve-drift`` -- ``python -m repro serve`` as a subprocess over a
  generated TPC-D change-point trace, so import, ingest, drift
  detection and warm retunes carry it.

Every workload runs a fixed list of tasks derived from ``--seed`` in
whole passes, while the next pass is expected to end within
``--seconds``, so counts such as ``calls_per_selection`` repeat exactly
for a seed while times get more samples on a faster machine.  A
"session" is one pass: one ``repro serve`` process per trace on
``serve-drift``, one sweep over the task list in process.

What every run shares and what ``--seed`` draws is documented in
``METRICS.md`` (section "Workloads").  Every reported time is scaled to
a reference host speed over its own interval (``speed.seconds``; see
``speed.py``); ``Selection.raw_wall`` keeps the time as measured.

The traced run (``trace=True``) is a separate run: one untraced pass and
one traced pass over the same tasks, with spans taken around calls into
each layer's public functions from this file -- nothing inside ``src/``
is instrumented.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.selector import ConfigurationSelector, SelectorOptions
from repro.core.sources import (
    CostSource,
    MatrixCostSource,
    OptimizerCostSource,
)
from repro.experiments.configs import _shared_core_base
from repro.experiments.profiling import PhaseTimer
from repro.optimizer import WhatIfOptimizer
from repro.optimizer.batch import cost_matrix
from repro.physical import build_pool, enumerate_configurations
from repro.service import EventLog, ServiceConfig, run_service
from repro.service.ingest import StreamIngestor
from repro.workload import (
    WorkloadStore,
    crm_generator,
    crm_schema,
    tpcd_generator,
    tpcd_schema,
)
from repro.workload.workload import Workload

import speed

#: A run is reported incorrect when more than this share of the picks
#: that passed every check disagree with the ground truth.  A selector
#: honouring alpha >= 0.9 picks the true best on most selections; a
#: broken ground truth reads near 1.
WRONG_PICK_LIMIT = 0.5

#: Relative slack when comparing a pick's true cost with the best one.
COST_RTOL = 1e-9

#: Rival totals of the matrix workload, as the relative gap above the
#: true best: a near tie whose runner-up sits 2.6% above the best.
MATRIX_GAPS = (0.026, 0.028, 0.030, 0.032, 0.034, 0.036, 0.038)

#: Candidates enumerated before keeping the cheapest ``k`` (the
#: "cheapest of 3k" regime of a design tool's shortlist).
CANDIDATE_FACTOR = 3

#: Live workload: rivals closer than this to the best are dropped.  At
#: delta = 0 an exact tie is not separable by sampling, and a selection
#: facing one costs the whole workload.
LIVE_MIN_GAP = 0.01


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload (the full benchmark or the self-test)."""

    n_queries: int
    k: int
    tasks: int
    setup_reps: int = 3


FULL = {
    "matrix-neartie-a99": Scale(n_queries=600, k=8, tasks=100),
    "live-crm-a90": Scale(n_queries=1000, k=8, tasks=32),
    "serve-drift": Scale(n_queries=2000, k=8, tasks=6),
}

TINY = {
    "matrix-neartie-a99": Scale(n_queries=200, k=4, tasks=2, setup_reps=1),
    "live-crm-a90": Scale(n_queries=200, k=4, tasks=2, setup_reps=1),
    "serve-drift": Scale(n_queries=600, k=4, tasks=1, setup_reps=1),
}

#: Paper defaults, with the draw-ahead of the live workload: at
#: ``batch_rounds=1`` a stalled selection re-evaluates after every single
#: draw until the workload is exhausted, which made stalled selections
#: 3-4x slower than the rest and the per-selection median bimodal (see
#: METRICS.md).
MATRIX_OPTIONS = SelectorOptions(
    alpha=0.99, eliminate=True, consecutive=10, n_min=30, batch_rounds=64,
)
LIVE_OPTIONS = SelectorOptions(alpha=0.9, batch_rounds=64)

#: ``repro serve`` arguments beyond trace, seed and file paths; the
#: in-process replay used by the output checks mirrors them.
SERVE_ALPHA = 0.9
SERVE_N_MIN = 20
SERVE_WINDOW = 400
#: ``repro serve`` enumerates candidates from this many leading trace
#: statements.
CANDIDATE_PREFIX = 300
#: Seeds of what every run shares: the datasets of the in-process
#: workloads, and the serve traces' template sequences and first
#: windows.  ``--seed`` draws everything else (see ``METRICS.md``).
DATASET_SEED = 0
PREFIX_SEED = 1000
FIRST_SELECTION_SEED = 987_654_321
FIRST_REPEATS = 3
#: Template-mix switches in the seeded part of a serve trace.
SERVE_CHANGES = 4
SERVE_CONFIG = ServiceConfig(
    window_size=SERVE_WINDOW, batch_size=50, reservoir_size=64,
    drift_threshold=0.05, cooldown=150,
)


#: Every per-layer metric of a traced run, with its unit.  A layer a
#: workload does not exercise reads 0 (``service.*`` in process, the
#: optimizer counters on the matrix workload).
LAYER_UNITS = {
    "startup.import_s": "s",
    "startup.scipy_stats_import_s": "s",
    "workload.generate_s": "s",
    "physical.candidates_s": "s",
    "optimizer.ground_truth_s": "s",
    "optimizer.plan_calls": "count",
    "optimizer.cache_hits": "count",
    "optimizer.fingerprint_hits": "count",
    "optimizer.fingerprint_hit_rate": "ratio",
    "sources.cost_s": "s",
    "sources.batches": "count",
    "sources.cells_requested": "count",
    "sources.cells_new": "count",
    "sources.new_cell_ratio": "ratio",
    "sources.s_per_new_cell": "s/cell",
    "selector.plan_s": "s",
    "selector.draw_s": "s",
    "selector.cost_s": "s",
    "selector.ingest_s": "s",
    "selector.evaluate_s": "s",
    "selector.split_s": "s",
    "selector.rounds": "count",
    "selector.evaluate_s_per_round": "s",
    "selector.term_alpha": "share",
    "selector.term_exhausted": "share",
    "selector.term_max_calls": "share",
    "selector.plateau_calls": "count",
    "selector.useful_call_ratio": "ratio",
    "selector.eliminated": "count",
    "selector.final_strata": "count",
    "service.pre_loop_s": "s",
    "service.retune_s": "s",
    "service.loop_s": "s",
    "service.retunes": "count",
    "service.warm_retunes": "count",
    "service.drift_checks": "count",
    "service.carried_share": "share",
    "trace.overhead_ratio": "ratio",
    "host.kernel_ms": "ms",
}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Selection:
    """One measured selection (a retune on ``serve-drift``)."""

    wall: float
    calls: int
    #: ``wall`` before scaling to the reference speed.
    raw_wall: float = float("nan")
    terminated_by: str = ""
    wrong: Optional[bool] = None
    failed: bool = False


@dataclass
class RunResult:
    """Everything a run measured, before it is reduced to metrics.

    ``attempted`` counts selections in process and ``repro serve``
    processes on ``serve-drift``; ``failed`` counts those that raised or
    failed an output check.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    selections: List[Selection] = field(default_factory=list)
    #: Session start (process spawn / pass start) -> final selection.
    sessions: List[float] = field(default_factory=list)
    #: Time to the first answer (see METRICS.md).
    first_selections: List[float] = field(default_factory=list)
    setup_seconds: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    spans: Optional["SpanLog"] = None

    def record(self, label: str, failures: Sequence[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{label}: {f}" for f in failures)


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _collect() -> None:
    """Run the collector between selections, outside timed regions."""
    gc.collect()


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_selection(result, source_calls: int, n_queries: int,
                    k: int, alpha: float) -> List[str]:
    """Invariants every selection result must satisfy."""
    failures = []
    calls = int(result.optimizer_calls)
    if calls != int(source_calls):
        failures.append(
            f"optimizer_calls {calls} != source.calls {source_calls}"
        )
    if calls > n_queries * k:
        failures.append(f"optimizer_calls {calls} > N*k {n_queries * k}")
    prcs = float(result.prcs)
    if not 0.0 <= prcs <= 1.0:
        failures.append(f"prcs {prcs!r} outside [0, 1]")
    if result.terminated_by == "alpha" and not prcs >= alpha:
        failures.append(f"terminated by alpha with prcs {prcs} < {alpha}")
    if int(result.best_index) in {int(j) for j in result.eliminated}:
        failures.append(
            f"pick {int(result.best_index)} is listed as eliminated "
            f"(terminated_by={result.terminated_by})"
        )
    return failures


def is_wrong_pick(pick: int, true_totals: np.ndarray,
                  delta: float = 0.0) -> bool:
    """Whether the pick costs more than the true best by over delta."""
    best = float(np.min(true_totals))
    slack = delta + COST_RTOL * abs(best)
    return float(true_totals[pick]) > best + slack


# ----------------------------------------------------------------------
# layer spans (traced run only)
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans ``(name, start, end, parent, request)``.

    ``parent`` names the span that caused this one; spans of one
    selection share ``request``.  Written out once, at the end of a run.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[str], str]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[str], request: str) -> None:
        self.spans.append((name, start, end, parent, request))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


class TimedSource(CostSource):
    """``CostSource`` proxy timing ``cost``/``cost_many`` of the inner
    source and counting the cells they request and newly evaluate."""

    def __init__(self, inner: CostSource, spans: Optional[SpanLog] = None,
                 request: str = "") -> None:
        self.inner = inner
        self.spans = spans
        self.request = request
        self.seconds = 0.0
        self.batches = 0
        self.cells_requested = 0
        self.cells_new = 0

    @property
    def n_queries(self) -> int:
        return self.inner.n_queries

    @property
    def n_configs(self) -> int:
        return self.inner.n_configs

    @property
    def calls(self) -> int:
        return self.inner.calls

    def _timed(self, fn, *args, cells: int):
        before = self.inner.calls
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.seconds += end - start
        if self.spans is not None:
            self.spans.add("sources.cost", start, end, "selector.run",
                           self.request)
        self.batches += 1
        self.cells_requested += cells
        self.cells_new += self.inner.calls - before
        return out

    def cost(self, query_idx: int, config_idx: int) -> float:
        return self._timed(self.inner.cost, query_idx, config_idx, cells=1)

    def cost_many(self, pairs) -> np.ndarray:
        return self._timed(self.inner.cost_many, pairs, cells=len(pairs))

    def close(self) -> None:
        self.inner.close()


@dataclass
class LayerTotals:
    """Per-layer sums over the selections of a traced pass."""

    selections: int = 0
    calls: int = 0
    rounds: int = 0
    plateau_calls: int = 0
    eliminated: int = 0
    final_strata: int = 0
    terminations: Dict[str, int] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    source_seconds: float = 0.0
    batches: int = 0
    cells_requested: int = 0
    cells_new: int = 0
    plan_calls: int = 0
    cache_hits: int = 0
    fingerprint_hits: int = 0
    optimizer_calls: int = 0
    wall: float = 0.0
    spans: SpanLog = field(default_factory=SpanLog)

    def add_result(self, result, phases: Dict[str, float]) -> None:
        self.selections += 1
        self.calls += int(result.optimizer_calls)
        self.rounds += len(result.history)
        self.plateau_calls += plateau_calls(result)
        self.eliminated += len(set(int(j) for j in result.eliminated))
        self.final_strata += len(result.final_strata) or len(
            result.stratum_counts
        )
        kind = result.terminated_by
        self.terminations[kind] = self.terminations.get(kind, 0) + 1
        for name, seconds in phases.items():
            self.phases[name] = self.phases.get(name, 0.0) + seconds

    def add_source(self, source: TimedSource) -> None:
        self.source_seconds += source.seconds
        self.batches += source.batches
        self.cells_requested += source.cells_requested
        self.cells_new += source.cells_new

    def add_optimizer(self, stats: Dict[str, int]) -> None:
        self.optimizer_calls += stats["calls"]
        self.cache_hits += stats["cache_hits"]
        self.fingerprint_hits += stats["fingerprint_hits"]
        self.plan_calls += stats["calls"] - stats["fingerprint_hits"]

    def metrics(self) -> Dict[str, float]:
        n = max(1, self.selections)
        ph = self.phases
        rounds = max(1, self.rounds)
        out = {
            "optimizer.plan_calls": self.plan_calls / n,
            "optimizer.cache_hits": self.cache_hits / n,
            "optimizer.fingerprint_hits": self.fingerprint_hits / n,
            "optimizer.fingerprint_hit_rate": (
                self.fingerprint_hits / self.optimizer_calls
                if self.optimizer_calls else 0.0
            ),
            "sources.cost_s": self.source_seconds / n,
            "sources.batches": self.batches / n,
            "sources.cells_requested": self.cells_requested / n,
            "sources.cells_new": self.cells_new / n,
            "sources.new_cell_ratio": (
                self.cells_new / self.cells_requested
                if self.cells_requested else 0.0
            ),
            "sources.s_per_new_cell": (
                self.source_seconds / self.cells_new
                if self.cells_new else 0.0
            ),
            "selector.rounds": self.rounds / n,
            "selector.evaluate_s_per_round": ph.get("evaluate", 0.0) / rounds,
            "selector.plateau_calls": self.plateau_calls / n,
            "selector.useful_call_ratio": (
                1.0 - self.plateau_calls / self.calls if self.calls else 0.0
            ),
            "selector.eliminated": self.eliminated / n,
            "selector.final_strata": self.final_strata / n,
        }
        for phase in ("plan", "draw", "cost", "ingest", "evaluate", "split"):
            out[f"selector.{phase}_s"] = ph.get(phase, 0.0) / n
        for kind in ("alpha", "exhausted", "max_calls"):
            out[f"selector.term_{kind}"] = (
                self.terminations.get(kind, 0) / n
            )
        return out


def plateau_calls(result) -> int:
    """Calls spent after ``Pr(CS)`` last changed (read from history)."""
    history = result.history
    if not history:
        return 0
    last_change_calls = history[0][0]
    for (_c0, p0), (c1, p1) in zip(history, history[1:]):
        if p1 != p0:
            last_change_calls = c1
    return int(result.optimizer_calls) - int(last_change_calls)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class SelectionSetup:
    """Inputs of an in-process workload plus its ground truth."""

    workload: Workload
    schema: object
    configurations: list
    matrix: np.ndarray
    true_totals: np.ndarray
    layer_seconds: Dict[str, float]


def _timed_stages(stages) -> Tuple[list, Dict[str, float]]:
    """Run ``(layer_name, thunk)`` stages in order, timing each."""
    values, seconds = [], {}
    for name, thunk in stages:
        start = time.perf_counter()
        values.append(thunk(*values))
        seconds[name] = seconds.get(name, 0.0) + (
            time.perf_counter() - start
        )
    return values, seconds


def _shortlist(matrix: np.ndarray, k: int, min_gap: float) -> np.ndarray:
    """Column indices: the true best plus the ``k - 1`` cheapest rivals
    at least ``min_gap`` (relative) above it, in total-cost order."""
    totals = matrix.sum(axis=0)
    order = np.argsort(totals, kind="stable")
    best = totals[order[0]]
    rivals = [j for j in order[1:] if totals[j] >= best * (1 + min_gap)]
    if len(rivals) < k - 1:
        raise RuntimeError(
            f"only {len(rivals)} rivals at least {min_gap:.1%} above the "
            f"best; need {k - 1}"
        )
    return np.array([order[0]] + rivals[: k - 1])


def _setup_selection(scale: Scale, schema, generator,
                     candidate_options: Callable[[object], dict]
                     ) -> Tuple[SelectionSetup, np.ndarray]:
    """Workload, candidates and ground truth of an in-process workload.

    The dataset is fixed (``DATASET_SEED``); ``--seed`` draws the
    selections' sampling seeds.  Returns the set-up over all
    ``CANDIDATE_FACTOR * k`` candidates and their ground-truth matrix.
    """

    def generate():
        return generator.generate(
            scale.n_queries, np.random.default_rng(DATASET_SEED)
        )

    def candidates(workload):
        pool = build_pool(
            workload.queries[:CANDIDATE_PREFIX], WhatIfOptimizer(schema),
            include_views=True,
        )
        return enumerate_configurations(
            pool, CANDIDATE_FACTOR * scale.k,
            np.random.default_rng(DATASET_SEED), **candidate_options(pool)
        )

    def ground_truth(workload, configs):
        return cost_matrix(workload, configs, WhatIfOptimizer(schema))

    (workload, configs, full), seconds = _timed_stages([
        ("workload.generate_s", generate),
        ("physical.candidates_s", candidates),
        ("optimizer.ground_truth_s", ground_truth),
    ])
    setup = SelectionSetup(
        workload=workload, schema=schema, configurations=configs,
        matrix=full, true_totals=full.sum(axis=0), layer_seconds=seconds,
    )
    return setup, full


def _restrict(setup: SelectionSetup, keep: np.ndarray,
              matrix: np.ndarray) -> SelectionSetup:
    return replace(
        setup, configurations=[setup.configurations[j] for j in keep],
        matrix=matrix, true_totals=matrix.sum(axis=0),
    )


def setup_matrix(scale: Scale) -> SelectionSetup:
    """TPC-D shared-core shortlist with a planted near-tie ladder."""
    schema = tpcd_schema(scale_factor=0.1)
    setup, full = _setup_selection(
        scale, schema,
        tpcd_generator(schema=schema, include_dml=True),
        lambda pool: dict(base=_shared_core_base(pool, 6), min_indexes=1,
                          max_indexes=5),
    )
    keep = _shortlist(full, scale.k, 0.0)
    matrix = full[:, keep]
    # Rescale each column to a planted total: per-query structure stays
    # that of the TPC-D costs, the runner-up sits 2.6% above the best.
    totals = matrix.sum(axis=0)
    gaps = np.array((0.0,) + MATRIX_GAPS[: scale.k - 1])
    return _restrict(setup, keep, matrix * (totals[0] * (1.0 + gaps)
                                            / totals))


def setup_live(scale: Scale) -> SelectionSetup:
    """CRM trace + shortlist; ground truth from its own optimizer."""
    schema = crm_schema(seed=7)
    setup, full = _setup_selection(
        scale, schema, crm_generator(schema=schema), lambda pool: {},
    )
    keep = _shortlist(full, scale.k, LIVE_MIN_GAP)
    return _restrict(setup, keep, full[:, keep])


# ----------------------------------------------------------------------
# in-process selection workloads
# ----------------------------------------------------------------------
def _select(setup: SelectionSetup, live: bool, options: SelectorOptions,
            rng_seed, traced: Optional[LayerTotals]
            ) -> Tuple[object, int, float, float, List[str]]:
    """One selection -> ``(result, source_calls, wall, raw_wall,
    failures)``: ``wall`` at the reference speed, ``raw_wall`` as
    measured."""
    optimizer = WhatIfOptimizer(setup.schema) if live else None
    request = f"selection {rng_seed}"
    start = time.perf_counter()
    if live:
        source = OptimizerCostSource(
            setup.workload, setup.configurations, optimizer
        )
    else:
        source = MatrixCostSource(setup.matrix)
    timer = None
    if traced is not None:
        source = TimedSource(source, traced.spans, request)
        timer = PhaseTimer()
    try:
        result = ConfigurationSelector(
            source, setup.workload.template_ids, options,
            rng=np.random.default_rng(rng_seed), timer=timer,
        ).run()
    finally:
        if live:
            source.close()
    end = time.perf_counter()
    wall = speed.seconds(start, end)
    failures = []
    if traced is not None:
        traced.spans.add("selector.run", start, end, None, request)
        if timer.total > end - start:
            failures.append(
                f"selector phases sum to {timer.total}s > wall "
                f"{end - start}s"
            )
        traced.add_result(result, timer.as_dict())
        traced.add_source(source)
        traced.wall += wall
        if optimizer is not None:
            traced.add_optimizer(optimizer.cache_stats)
    return result, int(source.calls), wall, end - start, failures


def closed_loop(seconds: float, one_pass: Callable[[], float]) -> None:
    """Run whole passes while the next one is expected to end before
    ``seconds`` have elapsed (at least one pass)."""
    deadline = time.perf_counter() + seconds
    while True:
        took = one_pass()
        if time.perf_counter() + took > deadline:
            return


def _selection_pass(setup: SelectionSetup, live: bool,
                    options: SelectorOptions, seed: int, tasks: int,
                    run: RunResult, truth: np.ndarray,
                    traced: Optional[LayerTotals] = None) -> float:
    """One sweep over the task list; records its time in ``run.sessions``
    and returns its raw wall time."""
    start = time.perf_counter()
    for task in range(tasks):
        _collect()
        selection = _checked_selection(
            setup, live, options, (seed, task), f"seed {seed} task {task}",
            run, truth, traced,
        )
        if selection is not None:
            run.selections.append(selection)
    end = time.perf_counter()
    run.sessions.append(speed.seconds(start, end))
    return end - start


def _checked_selection(setup: SelectionSetup, live: bool,
                       options: SelectorOptions, rng_seed, label: str,
                       run: RunResult, truth: np.ndarray,
                       traced: Optional[LayerTotals] = None
                       ) -> Optional[Selection]:
    """Select, check the result, and count the attempt in ``run``."""
    n, k = setup.matrix.shape
    try:
        result, source_calls, wall, raw_wall, failures = _select(
            setup, live, options, rng_seed, traced
        )
    except Exception:  # noqa: BLE001 - counted, the run goes on
        run.record(label, [traceback.format_exc(limit=3)])
        return None
    failures += check_selection(result, source_calls, n, k, options.alpha)
    run.record(label, failures)
    return Selection(
        wall=wall, raw_wall=raw_wall, calls=int(result.optimizer_calls),
        terminated_by=result.terminated_by,
        wrong=is_wrong_pick(int(result.best_index), truth),
        failed=bool(failures),
    )


def _first_selection(setup: SelectionSetup, live: bool,
                     options: SelectorOptions, run: RunResult,
                     truth: np.ndarray) -> None:
    """The first answer on a fresh set-up: a selection with a fixed
    sampling seed, so it is the same work for every ``--seed`` (as the
    serve traces' fixed first window is), timed ``FIRST_REPEATS`` times.
    Checked and counted, but not one of the seeded selections."""
    for _ in range(FIRST_REPEATS):
        _collect()
        selection = _checked_selection(
            setup, live, options, FIRST_SELECTION_SEED, "first selection",
            run, truth,
        )
        if selection is not None:
            run.first_selections.append(selection.wall)


def run_selection_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: Scale,
    truth_override: Optional[np.ndarray] = None,
) -> RunResult:
    """``matrix-neartie-a99`` or ``live-crm-a90``."""
    live = name == "live-crm-a90"
    make = setup_live if live else setup_matrix
    options = LIVE_OPTIONS if live else MATRIX_OPTIONS
    run = RunResult()
    start = time.perf_counter()
    setup = make(scale)
    run.setup_seconds.append(speed.seconds(start, time.perf_counter()))
    truth = setup.true_totals if truth_override is None else truth_override
    if trace:
        untraced = RunResult()
        _selection_pass(setup, live, options, seed, scale.tasks,
                        untraced, truth)
        totals = LayerTotals()
        _selection_pass(setup, live, options, seed, scale.tasks, run,
                        truth, traced=totals)
        run.layers.update(setup.layer_seconds)
        run.layers.update(totals.metrics())
        run.spans = totals.spans
        run.layers["trace.overhead_ratio"] = totals.wall / sum(
            s.wall for s in untraced.selections
        )
    else:
        _first_selection(setup, live, options, run, truth)

        closed_loop(seconds, lambda: _selection_pass(
            setup, live, options, seed, scale.tasks, run, truth
        ))
    for _ in range(scale.setup_reps - 1):
        _collect()
        start = time.perf_counter()
        setup = make(scale)
        run.setup_seconds.append(speed.seconds(start, time.perf_counter()))
        if not trace:
            _first_selection(setup, live, options, run, truth)
    run.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return run


# ----------------------------------------------------------------------
# serve-drift
# ----------------------------------------------------------------------
@dataclass
class ServeTask:
    """One generated trace and what the checks need to replay it."""

    index: int
    seed: int
    path: str
    trace: Workload
    configurations: list
    schema: object


def _template_sequence(generator,
                       segments: Sequence[Tuple[Sequence[float], int]],
                       rng: np.random.Generator) -> List[str]:
    """Template names of consecutive ``(template mix, length)``
    segments, each drawn i.i.d. from its mix."""
    names = [t.name for t in generator.templates]
    sequence = []
    for mix, length in segments:
        probs = np.asarray(mix, dtype=np.float64)
        picks = rng.choice(len(names), size=length, p=probs / probs.sum())
        sequence.extend(names[int(i)] for i in picks)
    return sequence


def setup_serve(seed: int, scale: Scale, workdir: str
                ) -> Tuple[List[ServeTask], Dict[str, float]]:
    """Change-point traces in SQLite stores, plus the candidates
    ``repro serve`` will enumerate from them (for the checks).

    Every trace has the same fixed template sequence: ``SERVE_WINDOW``
    statements under mix A -- the workload the service is first tuned
    on, fixed statement for statement, which fixes the candidates too --
    followed by traffic that switches between mixes B and A
    ``SERVE_CHANGES`` times.  ``seed`` and the trace's index draw the
    parameters of every statement after the first window.
    """
    start = time.perf_counter()
    schema = tpcd_schema(scale_factor=0.1)
    generator = tpcd_generator(schema=schema)
    n_templates = len(generator.templates)
    half = n_templates // 2
    mix_a = [1.0] * half + [0.05] * (n_templates - half)
    mix_b = [0.05] * half + [1.0] * (n_templates - half)
    segment = (scale.n_queries - SERVE_WINDOW) // SERVE_CHANGES
    by_name = {t.name: t for t in generator.templates}
    fixed = np.random.default_rng(PREFIX_SEED)
    names = _template_sequence(
        generator,
        [(mix_a, SERVE_WINDOW)] + [
            (mix_b if i % 2 == 0 else mix_a, segment)
            for i in range(SERVE_CHANGES)
        ],
        fixed,
    )
    window = [
        generator.instantiate(by_name[name], fixed)
        for name in names[:SERVE_WINDOW]
    ]
    traces = []
    for j in range(scale.tasks):
        seeded = np.random.default_rng((seed, j))
        trace = Workload(
            window + [
                generator.instantiate(by_name[name], seeded)
                for name in names[SERVE_WINDOW:]
            ],
            template_names=names,
        )
        path = os.path.join(workdir, f"trace-{j}.sqlite")
        if os.path.exists(path):
            os.remove(path)
        with WorkloadStore(path) as store:
            store.load(trace)
        # What `repro serve --trace` rebuilds: the store round-trips
        # these statements exactly, and the service groups them by their
        # own signatures, not by generator names.
        traces.append((path, Workload(list(trace.queries))))
    mid = time.perf_counter()
    pool = build_pool(window[:CANDIDATE_PREFIX], WhatIfOptimizer(schema))
    configs = enumerate_configurations(
        pool, scale.k, np.random.default_rng(PREFIX_SEED)
    )
    seconds = {
        "workload.generate_s": mid - start,
        "physical.candidates_s": time.perf_counter() - mid,
    }
    tasks = [
        ServeTask(j, PREFIX_SEED, path, trace, configs, schema)
        for j, (path, trace) in enumerate(traces)
    ]
    return tasks, seconds


@dataclass
class ServeOutcome:
    """One ``repro serve`` process, as seen from outside."""

    spawned: float = float("nan")
    spawn_to_first: float = float("nan")
    spawn_to_final: float = float("nan")
    retunes: List[Tuple[dict, dict]] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    pre_loop: float = float("nan")
    peak_rss_mb: float = 0.0
    failures: List[str] = field(default_factory=list)


def serve_command(task: ServeTask, scale: Scale, events: str) -> List[str]:
    return [
        sys.executable, "-m", "repro", "serve", "--trace", task.path,
        "--db", "tpcd", "--scale", "0.1", "--seed", str(task.seed),
        "--k", str(scale.k), "--alpha", str(SERVE_ALPHA),
        "--n-min", str(SERVE_N_MIN),
        "--window", str(SERVE_CONFIG.window_size),
        "--batch", str(SERVE_CONFIG.batch_size),
        "--reservoir", str(SERVE_CONFIG.reservoir_size),
        "--threshold", str(SERVE_CONFIG.drift_threshold),
        "--cooldown", str(SERVE_CONFIG.cooldown),
        "--events", events, "--json",
    ]


def run_serve_once(task: ServeTask, scale: Scale, workdir: str,
                   env: Dict[str, str]) -> ServeOutcome:
    """Spawn ``repro serve`` on one trace and check what it wrote."""
    out = ServeOutcome()
    events_path = os.path.join(workdir, f"events-{task.index}.jsonl")
    stdout_path = os.path.join(workdir, f"report-{task.index}.json")
    stderr_path = os.path.join(workdir, f"stderr-{task.index}.txt")
    if os.path.exists(events_path):
        os.remove(events_path)  # EventLog appends to an existing file
    cmd = serve_command(task, scale, events_path)
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as err:
        spawned = out.spawned = time.time()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=err, env=env,
                                cwd=workdir)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    out.peak_rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:]
        out.failures.append(f"exit code {proc.returncode}: {tail}")
        return out
    try:
        with open(stdout_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except ValueError as exc:
        out.failures.append(f"JSON report does not parse: {exc}")
        return out
    if report.get("final_index") is None:
        out.failures.append("final_index is not set")
    try:
        with open(events_path, encoding="utf-8") as fh:
            out.events = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        out.failures.append(f"event log unreadable: {exc}")
        return out
    seqs = [e.get("seq") for e in out.events]
    if seqs != list(range(len(seqs))):
        out.failures.append("event seq numbers have gaps or disorder")
    out.failures.extend(_pair_retunes(out, scale.k))
    kinds = {e["kind"]: e for e in out.events}
    if "service_start" in kinds:
        out.pre_loop = kinds["service_start"]["ts"] - spawned
    else:
        out.failures.append("no service_start event")
    if "service_end" not in kinds:
        out.failures.append("no service_end event")
    if out.retunes:
        out.spawn_to_first = out.retunes[0][1]["ts"] - spawned
        out.spawn_to_final = out.retunes[-1][1]["ts"] - spawned
    else:
        out.failures.append("no retune_end event")
    return out


def _pair_retunes(out: ServeOutcome, k: int) -> List[str]:
    """Match every ``retune_start`` with its ``retune_end`` and check
    each retune's reported selection."""
    failures = []
    open_start = None
    for event in out.events:
        kind = event["kind"]
        if kind == "retune_start":
            if open_start is not None:
                failures.append(
                    f"retune_start seq {open_start['seq']} has no end"
                )
            open_start = event
        elif kind in ("retune_end", "retune_failed"):
            if open_start is None:
                failures.append(f"{kind} seq {event['seq']} has no start")
                continue
            if kind == "retune_failed":
                failures.append(f"retune failed: {event.get('error')}")
            else:
                out.retunes.append((open_start, event))
                prcs = float(event["prcs"])
                if not 0.0 <= prcs <= 1.0:
                    failures.append(f"retune prcs {prcs!r} outside [0, 1]")
                if event["terminated_by"] == "alpha" and prcs < SERVE_ALPHA:
                    failures.append(
                        f"retune terminated by alpha with prcs {prcs}"
                    )
                retune_wall = event["ts"] - open_start["ts"]
                phases = sum(event.get("phase_seconds", {}).values())
                if phases > retune_wall:
                    failures.append(
                        f"retune phases sum to {phases}s > wall "
                        f"{retune_wall}s"
                    )
                cells = open_start["snapshot_statements"] * k
                if event["optimizer_calls"] > cells:
                    failures.append(
                        f"retune spent {event['optimizer_calls']} calls "
                        f"> N*k {cells}"
                    )
            open_start = None
    if open_start is not None:
        failures.append(f"retune_start seq {open_start['seq']} has no end")
    return failures


class _CaptureSources:
    """``fault_injector`` seam: wraps each retune's cost source in a
    :class:`TimedSource` and keeps it, with its snapshot workload."""

    def __init__(self, spans: Optional[SpanLog] = None,
                 request: str = "") -> None:
        self.sources: List[Tuple[TimedSource, object]] = []
        self.spans = spans
        self.request = request

    def __call__(self, source: OptimizerCostSource) -> CostSource:
        timed = TimedSource(
            source, self.spans,
            f"{self.request} retune {len(self.sources)}",
        )
        self.sources.append((timed, source.workload))
        return timed


def replay_serve(task: ServeTask, scale: Scale,
                 spans: Optional[SpanLog] = None
                 ) -> Tuple[object, _CaptureSources, WhatIfOptimizer,
                            float]:
    """Run the service loop in process with the CLI's arguments."""
    optimizer = WhatIfOptimizer(task.schema)
    capture = _CaptureSources(spans, f"trace {task.index}")
    options = SelectorOptions(alpha=SERVE_ALPHA, n_min=SERVE_N_MIN)
    start = time.perf_counter()
    report = run_service(
        task.trace, task.configurations, optimizer, config=SERVE_CONFIG,
        options=options, events=EventLog(),
        rng=np.random.default_rng(task.seed + 1),
        fault_injector=capture,
    )
    return (report, capture, optimizer,
            speed.seconds(start, time.perf_counter()))


def check_serve_truth(task: ServeTask, outcome: ServeOutcome,
                      truth_optimizer) -> Tuple[List[str], List[bool],
                                                float]:
    """Ground truth of every retune's window snapshot.

    Replays the service's ingestion (seeded as ``run_service`` seeds it)
    up to each retune position, rebuilds the snapshot the retune chose
    over, and costs it exhaustively with a separate optimizer.
    Returns ``(failures, wrong_pick_per_retune, ground_truth_seconds)``.
    """
    seeds = np.random.default_rng(task.seed + 1)
    ingestor = StreamIngestor(
        window_size=SERVE_CONFIG.window_size,
        reservoir_size=SERVE_CONFIG.reservoir_size,
        rng=np.random.default_rng(int(seeds.integers(2**31))),
    )
    trace = task.trace
    names = [trace.registry.name_of(int(t)) for t in trace.template_ids]
    failures, wrong = [], []
    seconds = 0.0
    pending = list(outcome.retunes)
    position = 0
    while pending and position < trace.size:
        hi = min(position + SERVE_CONFIG.batch_size, trace.size)
        ingestor.observe_batch(trace.queries[position:hi],
                               names[position:hi])
        position = hi
        if pending[0][0]["position"] != position:
            continue
        start_event, end_event = pending.pop(0)
        snapshot = ingestor.snapshot().workload
        if snapshot.size != start_event["snapshot_statements"]:
            failures.append(
                f"retune at {position} chose over "
                f"{start_event['snapshot_statements']} statements, the "
                f"replayed window holds {snapshot.size}"
            )
            continue
        begin = time.perf_counter()
        totals = cost_matrix(
            snapshot, task.configurations, truth_optimizer
        ).sum(axis=0)
        seconds += time.perf_counter() - begin
        wrong.append(is_wrong_pick(int(end_event["chosen_index"]), totals))
    if pending:
        failures.append(
            f"retune positions {[s['position'] for s, _e in pending]} "
            f"never reached in the replayed trace"
        )
    return failures, wrong, seconds


def check_serve_replay(task: ServeTask, scale: Scale,
                       outcome: ServeOutcome, report,
                       capture: _CaptureSources) -> List[str]:
    """An in-process replay must take the serve process's decisions,
    and each replayed selection must pass the selection checks."""
    failures = []
    replayed = [
        (r.chosen_index, r.optimizer_calls) for r in report.retunes
    ]
    served = [
        (end["chosen_index"], end["optimizer_calls"])
        for _start, end in outcome.retunes
    ]
    if replayed != served:
        failures.append(
            f"serve retunes {served} differ from the in-process replay "
            f"{replayed}"
        )
    for retune, (source, snapshot) in zip(report.retunes, capture.sources):
        if retune.selection is not None:
            # The optimizer is shared across retunes: count the calls
            # made through this retune's source only.
            failures.extend(check_selection(
                retune.selection, source.cells_new, snapshot.size,
                scale.k, SERVE_ALPHA,
            ))
    return failures


def run_serve_workload(seed: int, seconds: float, trace: bool,
                       scale: Scale, workdir: str,
                       env: Dict[str, str]) -> RunResult:
    """``serve-drift``: closed loop of ``repro serve`` processes."""
    run = RunResult()
    start = time.perf_counter()
    tasks, layer_seconds = setup_serve(seed, scale, workdir)
    run.setup_seconds.append(speed.seconds(start, time.perf_counter()))
    outcomes: List[Tuple[ServeTask, ServeOutcome]] = []

    def one_pass() -> float:
        start = time.perf_counter()
        for task in tasks:
            outcomes.append((task, run_serve_once(task, scale, workdir,
                                                  env)))
        return float("inf") if trace else time.perf_counter() - start

    closed_loop(seconds, one_pass)
    # Each trace replays deterministically, so one truth per trace
    # checks every run of it.
    truth_optimizer = WhatIfOptimizer(tasks[0].schema)
    truth_checks = {}
    truth_seconds = 0.0
    for task in tasks:
        first = next(o for t, o in outcomes if t is task)
        try:
            failures, wrong, spent = check_serve_truth(
                task, first, truth_optimizer
            )
        except Exception:  # noqa: BLE001 - counted, the run goes on
            failures, wrong, spent = (
                [traceback.format_exc(limit=3)], [], 0.0
            )
        truth_seconds += spent
        truth_checks[task.index] = (failures, wrong)
    replay_failures: Dict[int, List[str]] = {}
    if trace:
        run.layers.update(layer_seconds)
        run.layers["optimizer.ground_truth_s"] = truth_seconds
        layers, run.spans, replay_failures = _serve_layers(
            tasks, scale, [o for _t, o in outcomes]
        )
        run.layers.update(layers)
    for task, outcome in outcomes:
        failures, wrong = truth_checks[task.index]
        failures = (outcome.failures + failures
                    + replay_failures.get(task.index, []))
        for i, (begin, end) in enumerate(outcome.retunes):
            run.selections.append(Selection(
                wall=speed.wall_seconds(begin["ts"], end["ts"]),
                raw_wall=end["ts"] - begin["ts"],
                calls=int(end["optimizer_calls"]),
                terminated_by=end["terminated_by"],
                wrong=wrong[i] if i < len(wrong) else None,
                failed=bool(failures),
            ))
        run.record(f"seed {seed} trace {task.index}", failures)
        if not outcome.failures:
            run.sessions.append(speed.wall_seconds(
                outcome.spawned, outcome.spawned + outcome.spawn_to_final
            ))
            run.first_selections.append(speed.wall_seconds(
                outcome.spawned, outcome.spawned + outcome.spawn_to_first
            ))
        run.peak_rss_mb = max(run.peak_rss_mb, outcome.peak_rss_mb)
    for _ in range(scale.setup_reps - 1):
        _collect()
        start = time.perf_counter()
        setup_serve(seed, scale, workdir)
        run.setup_seconds.append(speed.seconds(start, time.perf_counter()))
    return run


def _serve_layers(tasks: List[ServeTask], scale: Scale,
                  outcomes: List[ServeOutcome]
                  ) -> Tuple[Dict[str, float], SpanLog,
                             Dict[int, List[str]]]:
    """Per-layer numbers of a traced ``serve-drift`` run.

    Service and selector phase times come from the serve processes'
    event logs; optimizer, source and selector-outcome counters from an
    in-process replay of the same traces (checked equal to the
    processes' retunes), once untraced and once through the proxies.
    """
    totals = LayerTotals()
    failures: Dict[int, List[str]] = {}
    untraced_wall = traced_wall = 0.0
    for task in tasks:
        _collect()
        untraced_wall += replay_serve(task, scale)[3]
        _collect()
        report, capture, optimizer, wall = replay_serve(
            task, scale, totals.spans
        )
        traced_wall += wall
        failures[task.index] = check_serve_replay(
            task, scale, outcomes[task.index], report, capture
        )
        for retune in report.retunes:
            if retune.selection is not None:
                totals.add_result(retune.selection, {})
        for source, _snapshot in capture.sources:
            totals.add_source(source)
        totals.add_optimizer(optimizer.cache_stats)
    for task, outcome in zip(tasks, outcomes):
        for start, end in outcome.retunes:
            totals.spans.add("service.retune", start["ts"], end["ts"],
                             None, f"serve trace {task.index}")
            for name, seconds in end["phase_seconds"].items():
                totals.phases[name] = totals.phases.get(name, 0.0) + seconds
    # Phase times were summed over the processes' retunes while the
    # counters cover one replay of each trace: the same retunes.
    layers = totals.metrics()
    n = max(1, len(outcomes))
    ends = [end for o in outcomes for _s, end in o.retunes]
    carried = sum(e["carried_samples"] for e in ends)
    calls = sum(e["optimizer_calls"] for e in ends)
    layers.update({
        "service.pre_loop_s": sum(o.pre_loop for o in outcomes) / n,
        "service.retune_s": sum(
            end["ts"] - start["ts"] for o in outcomes
            for start, end in o.retunes
        ) / n,
        "service.loop_s": sum(_loop_seconds(o) for o in outcomes) / n,
        "service.retunes": len(ends) / n,
        "service.warm_retunes": sum(1 for e in ends if e["warm"]) / n,
        "service.drift_checks": sum(
            1 for o in outcomes for e in o.events
            if e["kind"] == "drift_check"
        ) / n,
        "service.carried_share": (
            carried / (carried + calls) if carried + calls else 0.0
        ),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    return layers, totals.spans, failures


def _loop_seconds(outcome: ServeOutcome) -> float:
    stamps = {e["kind"]: e["ts"] for e in outcome.events}
    if "service_start" in stamps and "service_end" in stamps:
        return stamps["service_end"] - stamps["service_start"]
    return 0.0


# ----------------------------------------------------------------------
# startup
# ----------------------------------------------------------------------
def startup_layers(src: str, env: Dict[str, str], reps: int = 3
                   ) -> Dict[str, float]:
    """``import repro`` in fresh interpreters under ``-X importtime``:
    median cumulative seconds of ``repro`` and of ``scipy.stats``."""
    found: Dict[str, List[float]] = {"repro": [], "scipy.stats": []}
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            env=dict(env, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in found:
                found[name].append(int(parts[1]) / 1e6)
    return {
        "startup.import_s": _median(found["repro"]),
        "startup.scipy_stats_import_s": _median(found["scipy.stats"]),
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(run: RunResult) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` of the end-to-end metrics."""
    walls = [s.wall for s in run.selections]
    calls = [s.calls for s in run.selections]
    return {
        "setup_s": (_median(run.setup_seconds), "s",
                    len(run.setup_seconds)),
        "selection_s_p50": (_median(walls), "s", len(walls)),
        "selections_per_s": (
            len(walls) / sum(walls) if walls else float("nan"), "1/s",
            len(walls),
        ),
        "calls_per_selection": (
            sum(calls) / len(calls) if calls else float("nan"), "count",
            len(calls),
        ),
        "serve_s": (_median(run.sessions), "s", len(run.sessions)),
        "first_selection_s": (
            _median(run.first_selections), "s", len(run.first_selections)
        ),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }


def quality(run: RunResult) -> Dict[str, Tuple[float, str, int]]:
    """Rates printed next to the metrics (they may read 0, so they are
    not regression-bounded metrics)."""
    judged = [s.wrong for s in run.selections if s.wrong is not None]
    walls = [s.wall for s in run.selections]
    out = {
        "wrong_pick_rate": (
            sum(judged) / len(judged) if judged else float("nan"), "share",
            len(judged),
        ),
        "error_rate": (
            run.failed / run.attempted if run.attempted else float("nan"),
            "share", run.attempted,
        ),
    }
    failed = [s for s in run.selections if s.failed]
    if failed:
        # How many failed selections also picked wrong: a failure on a
        # right pick is a bookkeeping fault, on a wrong one a bad answer.
        out["wrong_among_failed"] = (
            sum(bool(s.wrong) for s in failed), "count", len(failed)
        )
    if walls:
        # As measured, before scaling to the reference speed.
        out["selection_s_p50_raw"] = (
            _median([s.raw_wall for s in run.selections]), "s", len(walls)
        )
    if len(walls) >= 100:
        out["selection_s_p90"] = (
            float(np.percentile(walls, 90)), "s", len(walls)
        )
    kinds = {}
    for s in run.selections:
        kinds[s.terminated_by] = kinds.get(s.terminated_by, 0) + 1
    for kind, count in sorted(kinds.items()):
        out[f"terminated_{kind}"] = (count, "count", len(walls))
    return out


def is_correct(run: RunResult) -> bool:
    """The answers the program stood by agree with the ground truth.

    Every selection must have been judged against the ground truth.
    Selections that raised or failed a check are counted in ``failed``
    (and their wrong picks in ``wrong_pick_rate``); of the others, at
    most ``WRONG_PICK_LIMIT`` may pick wrong.
    """
    if any(s.wrong is None for s in run.selections):
        return False
    kept = [s.wrong for s in run.selections if not s.failed]
    return bool(kept) and sum(kept) / len(kept) <= WRONG_PICK_LIMIT
