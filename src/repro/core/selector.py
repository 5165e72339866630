"""The configuration-selection procedure (Algorithm 1 of the paper).

Given a cost source over a workload and ``k`` candidate configurations,
:class:`ConfigurationSelector` incrementally samples queries, estimates
the probability of correct selection after each round and terminates
once the target probability ``alpha`` holds (for a configurable number
of consecutive samples, guarding against oscillation — Section 7.2).

Two sampling schemes (§4) and three stratification modes (§5) are
supported:

==================  ====================================================
``scheme``          ``"independent"`` or ``"delta"``
``stratify``        ``"progressive"`` (Algorithm 2), ``"none"``, or
                    ``"fine"`` (one stratum per template up front —
                    the strawman of Figure 2)
==================  ====================================================

Both schemes run through one round loop — evaluate, test ``Pr(CS)``,
eliminate, refine the strata (Algorithm 2), draw — over a small scheme
object (``_DeltaScheme`` / ``_IndependentScheme``) that supplies only
what differs: estimator, split owner, allocation and checkpoint fields.

Configurations whose pairwise ``Pr(CS_{l,j})`` exceeds an elimination
threshold are dropped from further sampling (the large-``k``
optimization of §5); they keep contributing their frozen estimates to
the Bonferroni combination.

Budgets are measured in *optimizer calls* — the unit the paper
minimizes.  One Delta-Sampling draw costs one call per active
configuration; one Independent-Sampling draw costs one call.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .allocation import (
    DeltaStratumScorer,
    batch_multiplier,
    variance_reduction_many,
)
from .checkpoint import (
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from .estimators import DeltaState, IndependentState
from .prcs import (
    bonferroni,
    pair_target_variance,
    pairwise_prcs,
    per_pair_alpha,
)
from .progressive import propose_split
from .sources import CostSource
from .stratification import Stratification

__all__ = [
    "BATCH_GROWTH",
    "BATCH_CALL_TOLERANCE",
    "SelectorOptions",
    "SelectionResult",
    "SelectorState",
    "ConfigurationSelector",
]


#: Geometric growth factor of the draw-ahead batch size: each batch
#: plans up to ``ceil(previous * BATCH_GROWTH)`` rounds (see
#: :func:`repro.core.allocation.batch_multiplier`).
BATCH_GROWTH = 2.0
#: Bound on the optimizer calls batching may spend beyond the serial
#: schedule: a batch's rounds past its first may cost at most this
#: fraction of the calls already spent, so Pr(CS) is re-checked often
#: enough that termination overshoot stays within tolerance.
BATCH_CALL_TOLERANCE = 0.05


def _jsonify_options(options: "SelectorOptions") -> dict:
    """Options as the plain dict a JSON checkpoint round-trips.

    Every field is a scalar (int/float/str/None), all of which
    round-trip exactly through JSON, so dict equality doubles as an
    options-compatibility check on resume.
    """
    return asdict(options)


class _NullTimer:
    """No-op stand-in for :class:`repro.experiments.profiling.PhaseTimer`.

    The selector times its round phases (plan/draw/cost/ingest/
    evaluate) through whatever object with a ``phase(name)`` context
    manager it is given; without one, timing costs nothing.
    """

    def phase(self, name: str):
        return nullcontext()


@dataclass
class SelectorState:
    """Portable snapshot of a selector's estimator state.

    Produced by :meth:`ConfigurationSelector.export_state` after a run
    and consumed via the ``warm_state`` constructor argument of a
    later selector over the *same candidate configurations* (possibly
    a different workload window sharing the template registry).  Two
    uses:

    * **Warm-started re-selection** — the online tuning service
      carries still-valid per-template cost samples from the previous
      run forward, so only templates whose mix changed need fresh
      optimizer calls (:mod:`repro.service.session`).
    * **Checkpointing** — :meth:`to_dict` / :meth:`from_dict` are
      JSON-round-trippable, so long selections can be snapshotted and
      resumed across processes.

    The payload depends on the scheme: Delta Sampling stores the
    aligned per-template cost buffers (``values``); Independent
    Sampling stores per-(configuration, template) Welford moments
    (``moments``).
    """

    scheme: str
    n_configs: int
    #: Delta: ``{template_id: [per-config aligned cost lists]}``.
    values: Dict[int, List[List[float]]] = field(default_factory=dict)
    #: Independent: ``{template_id: [(count, mean, M2) per config]}``.
    moments: Dict[int, List[Tuple[int, float, float]]] = field(
        default_factory=dict
    )
    #: The run's final stratification (template-id groups).  A warm
    #: run resumes from these groups: carried per-template counts are
    #: proportional *within* them (that is the stratification they
    #: were drawn under), which keeps the count-weighted stratum means
    #: unbiased.  Pooling carried templates any other way would not be.
    strata: Optional[List[List[int]]] = None

    def sample_count(self) -> int:
        """Total carried samples, summed over configurations."""
        if self.scheme == "delta":
            return sum(
                len(v) for cfgs in self.values.values() for v in cfgs
            )
        return sum(
            int(c) for cfgs in self.moments.values() for c, _m, _s in cfgs
        )

    def template_ids(self) -> Tuple[int, ...]:
        """Templates with carried state, ascending."""
        store = self.values if self.scheme == "delta" else self.moments
        return tuple(sorted(store))

    def template_counts(self, reduce: str = "max") -> Dict[int, int]:
        """Carried samples per template, aggregated over configurations.

        ``reduce="max"`` suits Delta Sampling (shared draws, so active
        configurations hold equally many); ``"min"`` is the
        conservative choice for Independent Sampling, where every
        configuration samples on its own.
        """
        agg = max if reduce == "max" else min
        if self.scheme == "delta":
            return {
                t: agg((len(v) for v in cfgs), default=0)
                for t, cfgs in self.values.items()
            }
        return {
            t: agg((int(c) for c, _m, _s in cfgs), default=0)
            for t, cfgs in self.moments.items()
        }

    def drop_templates(self, template_ids) -> "SelectorState":
        """A copy without the given templates (to force resampling)."""
        drop = set(int(t) for t in template_ids)
        strata = None
        if self.strata is not None:
            strata = [
                kept for kept in (
                    [t for t in group if t not in drop]
                    for group in self.strata
                ) if kept
            ]
        return SelectorState(
            scheme=self.scheme,
            n_configs=self.n_configs,
            values={
                t: [list(v) for v in cfgs]
                for t, cfgs in self.values.items() if t not in drop
            },
            moments={
                t: [tuple(m) for m in cfgs]
                for t, cfgs in self.moments.items() if t not in drop
            },
            strata=strata,
        )

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {
            "scheme": self.scheme,
            "n_configs": self.n_configs,
            "values": {
                str(t): [[float(x) for x in v] for v in cfgs]
                for t, cfgs in self.values.items()
            },
            "moments": {
                str(t): [
                    [int(c), float(m), float(s)] for c, m, s in cfgs
                ]
                for t, cfgs in self.moments.items()
            },
            "strata": (
                None if self.strata is None
                else [[int(t) for t in group] for group in self.strata]
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SelectorState":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scheme=str(payload["scheme"]),
            n_configs=int(payload["n_configs"]),
            values={
                int(t): [[float(x) for x in v] for v in cfgs]
                for t, cfgs in payload.get("values", {}).items()
            },
            moments={
                int(t): [
                    (int(c), float(m), float(s)) for c, m, s in cfgs
                ]
                for t, cfgs in payload.get("moments", {}).items()
            },
            strata=(
                None if payload.get("strata") is None
                else [
                    [int(t) for t in group]
                    for group in payload["strata"]
                ]
            ),
        )




@dataclass(frozen=True)
class SelectorOptions:
    """Tunables of the selection procedure.

    Attributes
    ----------
    alpha:
        Target probability of correct selection.
    delta:
        Sensitivity: cost differences below ``delta`` never count as
        incorrect selections (expressed in absolute cost units).
    scheme:
        ``"delta"`` (default, §4.2) or ``"independent"`` (§4.1).
    stratify:
        ``"progressive"`` (default), ``"none"`` or ``"fine"``.
    n_min:
        Pilot/minimum stratum sample size (the paper's rule of thumb
        is 30).
    consecutive:
        The termination condition must hold for this many consecutive
        samples (§7.2 uses 10).
    eliminate:
        Drop configurations once their pairwise probability exceeds
        ``elimination_threshold``.
    elimination_threshold:
        Pairwise ``Pr(CS_{l,j})`` beyond which ``C_j`` stops being
        sampled (§7.2 uses 0.995).
    max_calls:
        Optional hard budget of optimizer calls; ``None`` means run to
        termination (bounded by full evaluation).
    reeval_every:
        Recompute estimates/allocation every this many draws (1
        reproduces the paper exactly; larger values trade a slightly
        stale allocation for speed in Monte Carlo runs).
    batch_rounds:
        Maximum number of variance-greedy allocation rounds coalesced
        into one draw-ahead batch (drawn, costed via
        ``CostSource.cost_many`` and ingested together, with a single
        termination/elimination/split re-check per batch).  The batch
        size ramps up by :data:`BATCH_GROWTH` and is capped by
        :data:`BATCH_CALL_TOLERANCE`.  ``1`` (the default) disables
        coalescing and is bit-identical to the serial schedule under a
        fixed seed.  It also picks Delta Sampling's pairwise estimator:
        exact aligned-buffer reductions at ``1``, incremental Welford
        accumulators (O(1) per ingested sample) otherwise.
    """

    alpha: float = 0.9
    delta: float = 0.0
    scheme: str = "delta"
    stratify: str = "progressive"
    n_min: int = 30
    consecutive: int = 10
    eliminate: bool = True
    elimination_threshold: float = 0.995
    max_calls: Optional[int] = None
    reeval_every: int = 1
    batch_rounds: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.scheme not in ("delta", "independent"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.stratify not in ("progressive", "none", "fine"):
            raise ValueError(f"unknown stratify mode {self.stratify!r}")
        if self.n_min < 2:
            raise ValueError(f"n_min must be >= 2, got {self.n_min}")
        if self.reeval_every < 1:
            raise ValueError(
                f"reeval_every must be >= 1, got {self.reeval_every}"
            )
        if self.batch_rounds < 1:
            raise ValueError(
                f"batch_rounds must be >= 1, got {self.batch_rounds}"
            )


@dataclass
class SelectionResult:
    """Outcome of a selection run.

    Attributes
    ----------
    best_index:
        The selected configuration.
    prcs:
        The final estimated probability of correct selection.
    optimizer_calls:
        What-if calls spent (the paper's efficiency metric).
    estimates:
        Final estimated total costs per configuration.
    eliminated:
        Configurations dropped by the large-``k`` optimization and
        still out of sampling at the end, in elimination order: each
        at most once, never the selected one.
    stratum_counts:
        Per-stratum workload sizes of the final stratification (Delta)
        or per-configuration stratum counts (Independent).
    terminated_by:
        ``"alpha"``, ``"max_calls"`` or ``"exhausted"``.
    history:
        ``(calls, Pr(CS))`` after each evaluation round.
    queries_sampled:
        Distinct workload queries drawn (per configuration for
        Independent Sampling, shared count for Delta Sampling).
    final_strata:
        The final stratification as tuples of template ids (Delta) —
        used by the Table 2/3 allocation baselines.
    """

    best_index: int
    prcs: float
    optimizer_calls: int
    estimates: np.ndarray
    eliminated: List[int]
    stratum_counts: Dict[int, int]
    terminated_by: str
    history: List[Tuple[int, float]] = field(default_factory=list)
    queries_sampled: int = 0
    final_strata: Tuple[Tuple[int, ...], ...] = ()


#: Per-pair ``(-gap, variance)`` of ``X_best - X_j``, keyed by ``j``.
_PairStats = Dict[int, Tuple[float, float]]
_Draws = Sequence[Tuple[int, int]]


def _leader(totals: np.ndarray) -> int:
    """The configuration with the lowest finite estimated total."""
    return int(np.argmin(np.where(np.isfinite(totals), totals, np.inf)))


class ConfigurationSelector:
    """Algorithm 1: sample until ``Pr(CS) > alpha``.

    Parameters
    ----------
    source:
        Where costs come from (live optimizer or precomputed matrix).
    template_ids:
        Per-query template id (length ``source.n_queries``); templates
        are the stratification atoms.
    options:
        Procedure tunables.
    rng:
        Random generator driving all sampling.
    warm_state:
        Optional :class:`SelectorState` from a previous run over the
        same candidate configurations.  Carried samples seed the
        estimators before any sampling, so templates whose state is
        carried forward need few (often zero) fresh optimizer calls.
        The scheme and configuration count must match.
    timer:
        Optional :class:`repro.experiments.profiling.PhaseTimer` (any
        object with a ``phase(name)`` context manager): rounds are
        instrumented as ``plan`` (allocation), ``draw`` (RNG draws),
        ``cost`` (cost-source evaluation), ``ingest`` (accumulator
        updates) and ``evaluate`` (estimates + PRCS).
    checkpoint_path:
        When given, the complete round state (estimators, sampler
        shuffles, stratification, RNG, loop counters) is snapshotted
        to this path between rounds (atomic ``os.replace`` publish).
        A later selector over the same workload/options can
        :meth:`resume` from it and finish the run **bit-identically**
        to an uninterrupted one.  Snapshotting is a pure read of the
        state — it consumes no randomness and changes no float — so
        runs with and without a checkpoint path are identical.
    checkpoint_every:
        Snapshot every this many evaluation rounds (default 1).
    """

    def __init__(
        self,
        source: CostSource,
        template_ids: np.ndarray,
        options: SelectorOptions = SelectorOptions(),
        rng: Optional[np.random.Generator] = None,
        template_overheads: Optional[np.ndarray] = None,
        warm_state: Optional[SelectorState] = None,
        timer=None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.source = source
        self.options = options
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self._timer = timer if timer is not None else _NullTimer()
        self._round_mult = 1
        if warm_state is not None:
            if warm_state.scheme != options.scheme:
                raise ValueError(
                    f"warm state is for scheme {warm_state.scheme!r}, "
                    f"options use {options.scheme!r}"
                )
            if warm_state.n_configs != source.n_configs:
                raise ValueError(
                    f"warm state carries {warm_state.n_configs} "
                    f"configurations, source has {source.n_configs}"
                )
        self.warm_state = warm_state
        self.carried_samples = 0
        self._scheme = None
        self._final_strata: Optional[Tuple[Tuple[int, ...], ...]] = None
        self.template_overheads = (
            np.asarray(template_overheads, dtype=np.float64)
            if template_overheads is not None else None
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        template_ids = np.asarray(template_ids, dtype=np.int64)
        if len(template_ids) != source.n_queries:
            raise ValueError(
                f"template_ids has {len(template_ids)} entries for "
                f"{source.n_queries} queries"
            )
        self.template_ids = template_ids
        order = np.argsort(template_ids, kind="stable")
        sorted_ids = template_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        groups = np.split(order, boundaries)
        self.indices_by_template: Dict[int, np.ndarray] = {
            int(template_ids[g[0]]): g for g in groups
        }
        self.template_sizes: Dict[int, int] = {
            t: len(g) for t, g in self.indices_by_template.items()
        }
        self.n_templates = (
            int(template_ids.max()) + 1 if len(template_ids) else 0
        )
        self._template_size_arr = np.zeros(self.n_templates, dtype=np.int64)
        for t, size in self.template_sizes.items():
            self._template_size_arr[t] = size
        self._warm_strata: Optional[List[Tuple[int, ...]]] = None
        if self.warm_state is not None:
            self._normalize_warm_state()

    def _normalize_warm_state(self) -> None:
        """Trim the warm state to the groups worth resuming from.

        Carried counts are only unbiased to pool within the strata
        they were drawn under, so each carried group of the previous
        run's final stratification becomes a stratum of this run.  A
        group is kept only when it carries at least ``n_min`` samples
        — it then skips the pilot entirely and starts with a solid
        variance estimate.  Thinner groups cost more than they save
        (pilot top-up plus a permanent extra stratum), so their
        samples are dropped and their templates resample in the
        pooled fresh stratum.
        """
        reduce = "min" if self.options.scheme == "independent" else "max"
        counts = self.warm_state.template_counts(reduce)
        carried = set(self.warm_state.template_ids())
        carried &= set(self.template_sizes)
        groups = self.warm_state.strata
        if groups is None:
            # Old checkpoints without strata: per-template groups are
            # the only allocation-free resumption.
            groups = [[t] for t in sorted(carried)]
        kept_strata: List[Tuple[int, ...]] = []
        drop = set(self.warm_state.template_ids()) - carried
        for group in groups:
            kept = tuple(t for t in group if t in carried)
            if not kept:
                continue
            if sum(counts.get(t, 0) for t in kept) >= self.options.n_min:
                kept_strata.append(kept)
            else:
                drop.update(kept)
        if not kept_strata:
            self.warm_state = None
            return
        if drop:
            self.warm_state = self.warm_state.drop_templates(drop)
        self._warm_strata = kept_strata

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> SelectionResult:
        """Run Algorithm 1 to termination."""
        return self._run()

    def resume(self, path: Optional[str] = None) -> SelectionResult:
        """Continue a checkpointed run to termination.

        Loads the checkpoint at ``path`` (default: this selector's
        ``checkpoint_path``), restores the complete round state —
        estimator accumulators, sampler shuffles and cursors,
        stratification, elimination set, PRCS history, RNG — and
        re-enters the round loop.  The continuation is bit-identical
        to the uninterrupted run: same draws, same floats, same
        decisions (pinned by the golden-fixture resume tests).

        The selector must be constructed over the same workload with
        the same options as the checkpointing run; mismatches raise
        ``ValueError``.  Spent optimizer calls are carried: budgets
        and the ``(calls, Pr(CS))`` history continue from the
        checkpointed counts whether this process's source already
        performed those calls or starts fresh.
        """
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path to resume from")
        payload = load_checkpoint(path)
        if payload is None:
            raise FileNotFoundError(f"no checkpoint at {path}")
        if payload.get("kind") != "selector":
            raise ValueError(
                f"checkpoint {path} is not a selector checkpoint"
            )
        if payload["scheme"] != self.options.scheme:
            raise ValueError(
                f"checkpoint is for scheme {payload['scheme']!r}, "
                f"options use {self.options.scheme!r}"
            )
        if int(payload["n_configs"]) != self.source.n_configs:
            raise ValueError(
                f"checkpoint carries {payload['n_configs']} "
                f"configurations, source has {self.source.n_configs}"
            )
        if int(payload["n_queries"]) != self.source.n_queries:
            raise ValueError(
                f"checkpoint is over {payload['n_queries']} queries, "
                f"source has {self.source.n_queries}"
            )
        recorded = payload.get("options")
        if recorded != _jsonify_options(self.options):
            raise ValueError(
                "checkpoint was written under different selector "
                "options; resuming would not be bit-identical"
            )
        return self._run(resume=payload)

    def export_state(self) -> SelectorState:
        """Snapshot the estimator state of the completed (or
        in-progress) run for warm starts and checkpointing.

        Raises ``RuntimeError`` before the first :meth:`run`.
        """
        if self._scheme is None:
            raise RuntimeError("no run to export state from")
        strata = (
            None if self._final_strata is None
            else [[int(t) for t in group] for group in self._final_strata]
        )
        return self._scheme.export(strata)

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------
    def _run(self, resume: Optional[dict] = None) -> SelectionResult:
        """Algorithm 1 for either sampling scheme.

        Each round evaluates the estimates, tests ``Pr(CS) > alpha``,
        eliminates settled rivals, refines the strata (Algorithm 2)
        and draws the next batch.  The scheme object supplies what
        differs between Delta and Independent Sampling: estimator,
        split owner, allocation and checkpoint fields.
        """
        opts = self.options
        k = self.source.n_configs
        # Per-owner Algorithm 2 split caches (stratum tuple -> stamped
        # aggregates; see repro.core.progressive).
        self._split_caches: Dict[object, Dict] = {}
        # Building the scheme's state consumes the RNG (sampler
        # shuffles), resumed or not.
        scheme = (
            _DeltaScheme(self) if opts.scheme == "delta"
            else _IndependentScheme(self)
        )
        self._scheme = scheme
        if resume is not None:
            # Restore overwrites the fresh shuffles and RNG state the
            # construction above consumed; from here on every draw and
            # every float matches the uninterrupted run.
            scheme.restore(resume)
            restore_rng(self.rng, resume["rng"])
            self.carried_samples = int(resume["carried_samples"])
            self._round_mult = int(resume["round_mult"])
            active = [int(j) for j in resume["active"]]
            eliminated = [int(j) for j in resume["eliminated"]]
            consec = int(resume["consec"])
            history = [
                (int(c), float(p)) for c, p in resume["history"]
            ]
            round_idx = int(resume["round"])
            # Budget/history accounting continues from the recorded
            # spend whether this process's source already made those
            # calls or starts fresh (sampling is without replacement,
            # so no checkpointed pair is ever re-requested).
            start_calls = self.source.calls - int(resume["calls_used"])
        else:
            self._round_mult = 1
            if self.warm_state is not None:
                self.carried_samples = scheme.import_warm(self.warm_state)
            scheme.start()
            active = list(range(k))
            eliminated: List[int] = []
            consec = 0
            history: List[Tuple[int, float]] = []
            round_idx = 0
            start_calls = self.source.calls
        self._start_calls = start_calls

        def calls_used() -> int:
            return self.source.calls - start_calls

        if resume is None:
            # Pilot: n_min draws per stratum.
            scheme.pilot()

        while True:
            if self._checkpoint_due(round_idx):
                payload = self._checkpoint_common(
                    round_idx, calls_used(), active, eliminated,
                    consec, history,
                )
                payload.update(scheme.checkpoint_fields())
                save_checkpoint(self.checkpoint_path, payload)
            round_idx += 1
            # --- evaluate ---
            with self._timer.phase("evaluate"):
                best, pair_stats = scheme.evaluate(active)
                pair_prcs = {
                    j: pairwise_prcs(-neg_gap, var, opts.delta)
                    for j, (neg_gap, var) in pair_stats.items()
                }
                prcs = (
                    bonferroni(list(pair_prcs.values()))
                    if pair_prcs else 1.0
                )
            history.append((calls_used(), prcs))

            # --- terminate? ---
            if prcs > opts.alpha:
                consec += 1
            else:
                consec = 0
            if consec >= opts.consecutive:
                terminated_by = "alpha"
                break
            if opts.max_calls is not None and calls_used() >= opts.max_calls:
                terminated_by = "max_calls"
                break

            # --- eliminate ---
            if opts.eliminate:
                dropped = {
                    j for j in active
                    if j != best
                    and pair_prcs[j] > opts.elimination_threshold
                }
                eliminated.extend(j for j in active if j in dropped)
                active = [j for j in active if j not in dropped]
                if best not in active:
                    # A rival eliminated earlier leads again: it samples
                    # again and so is no longer eliminated.
                    active.append(best)
                    eliminated.remove(best)

            # --- progressive stratification (Algorithm 2) ---
            if opts.stratify == "progressive":
                with self._timer.phase("split"):
                    scheme.split(best, pair_stats, active)

            # --- draw the next batch of samples ---
            rounds = self._next_batch_rounds(
                calls_used(),
                max(1, opts.reeval_every) * scheme.calls_per_draw(active),
                consec,
            )
            if not scheme.draw(best, pair_stats, active, rounds):
                # No active configuration has anything left to draw.
                terminated_by = "exhausted"
                prcs = 1.0
                break

        totals = scheme.totals()
        best = int(np.argmin(totals))
        final_strata, stratum_counts, queries_sampled = scheme.summary(best)
        self._final_strata = final_strata
        return SelectionResult(
            best_index=best,
            prcs=prcs,
            optimizer_calls=calls_used(),
            estimates=totals,
            eliminated=[j for j in eliminated if j != best],
            stratum_counts=stratum_counts,
            terminated_by=terminated_by,
            history=history,
            queries_sampled=queries_sampled,
            final_strata=final_strata,
        )

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _checkpoint_due(self, round_idx: int) -> bool:
        return (
            self.checkpoint_path is not None
            and round_idx % self.checkpoint_every == 0
        )

    def _checkpoint_common(self, round_idx: int, calls_used: int,
                           active: Sequence[int],
                           eliminated: Sequence[int], consec: int,
                           history: Sequence[Tuple[int, float]]) -> dict:
        """Scheme-independent part of a checkpoint payload.

        Pure state read: captures the RNG without consuming it and
        floats without transforming them, so writing a checkpoint can
        never perturb the run it snapshots.
        """
        return {
            "kind": "selector",
            "scheme": self.options.scheme,
            "n_configs": int(self.source.n_configs),
            "n_queries": int(self.source.n_queries),
            "options": _jsonify_options(self.options),
            "rng": rng_state(self.rng),
            "round": int(round_idx),
            "calls_used": int(calls_used),
            "carried_samples": int(self.carried_samples),
            "round_mult": int(self._round_mult),
            "active": [int(j) for j in active],
            "eliminated": [int(j) for j in eliminated],
            "consec": int(consec),
            "history": [[int(c), float(p)] for c, p in history],
        }

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _initial_stratification(self) -> Stratification:
        if self.options.stratify == "fine":
            return Stratification(
                [(t,) for t in sorted(self.template_sizes)],
                self.template_sizes,
            )
        # A warm run resumes from the previous run's final strata
        # (normalized in _normalize_warm_state): carried counts are
        # proportional to template sizes within those groups — the
        # stratification they were drawn under — which is exactly the
        # condition for count-weighted stratum means to stay unbiased.
        # Everything else — new templates, invalidated ones, thinly
        # carried groups — pools into one fresh stratum whose draws
        # are all fresh and uniform, keeping the pilot as cheap as a
        # cold run's.
        if self.warm_state is not None and self._warm_strata:
            strata = list(self._warm_strata)
            assigned = {t for group in strata for t in group}
            fresh = tuple(
                t for t in sorted(self.template_sizes)
                if t not in assigned
            )
            if fresh:
                strata.append(fresh)
            return Stratification(strata, self.template_sizes)
        return Stratification.single(self.template_sizes)

    def _stratum_overheads(self, strat: Stratification) -> Optional[
            np.ndarray]:
        """Expected per-draw optimization overhead of each stratum.

        The size-weighted mean of the member templates' overheads
        (Section 5.2's closing remark: select the stratum maximizing
        variance reduction *relative to the expected overhead*).
        """
        if self.template_overheads is None:
            return None
        out = np.empty(strat.stratum_count)
        for h, stratum in enumerate(strat.strata):
            tids = np.fromiter(stratum, dtype=np.int64)
            sizes = self._template_size_arr[tids].astype(np.float64)
            total = sizes.sum()
            if total <= 0:
                out[h] = 1.0
                continue
            out[h] = float(
                (sizes * self.template_overheads[tids]).sum() / total
            )
        return out

    def _chunk_allowance(self, pending: int, per_draw: int) -> int:
        """Draws affordable right now under the serial budget check.

        Serially the budget is re-checked before every draw; a draw is
        allowed while spent calls stay strictly below ``max_calls``.
        With at most ``per_draw`` calls per draw, the next
        ``ceil(left / per_draw)`` draws are each serially allowed, so
        they can be drawn ahead and costed in one batch.
        """
        if self.options.max_calls is None:
            return pending
        left = self.options.max_calls - (
            self.source.calls - self._start_calls
        )
        if left <= 0:
            return 0
        return min(pending, -(-left // per_draw))

    def _draw_chunked(
        self,
        sampler,
        stratum: Sequence[int],
        n: int,
        per_draw: int,
        ingest: Callable[[_Draws], None],
        first_free: bool = False,
    ) -> Tuple[int, bool]:
        """Draw up to ``n`` queries from ``stratum`` and ingest them.

        Draws are taken ahead and costed in chunks of what the budget
        still allows, re-reading the true call counter between chunks
        until ``n`` are drawn or the budget binds — reproducing the
        serial truncation point exactly even when cache hits make
        draws cheaper than ``per_draw`` calls.  A short draw (the
        stratum ran dry) ends the chunk.  With ``first_free`` the first
        draw skips the budget check, as a round's first serial draw
        does (possible after a split's pilot spent the budget).

        Returns ``(drawn, budget_left)``.
        """
        drawn = 0
        while drawn < n:
            chunk = self._chunk_allowance(n - drawn, per_draw)
            if chunk <= 0 and first_free and drawn == 0:
                chunk = 1
            if chunk <= 0:
                return drawn, False
            with self._timer.phase("draw"):
                draws = sampler.draw_many(stratum, self.rng, chunk)
            if draws:
                ingest(draws)
                drawn += len(draws)
            if len(draws) < chunk:
                break
        return drawn, True

    def _pilot(
        self,
        sampler,
        strat: Stratification,
        drawn_in: Callable[[Sequence[int]], int],
        per_draw: int,
        ingest: Callable[[_Draws], None],
    ) -> None:
        """Fill every stratum to ``n_min`` samples (or exhaust it).

        Samples already held (carried warm-start samples included)
        count toward the target, so a well-carried stratum costs the
        pilot nothing.  Stops at the first stratum the budget cuts.
        """
        for stratum in strat.strata:
            need = min(
                self.options.n_min,
                sum(self.template_sizes[t] for t in stratum),
            ) - drawn_in(stratum)
            if need > 0 and not self._draw_chunked(
                sampler, stratum, need, per_draw, ingest
            )[1]:
                return

    def _next_batch_rounds(self, calls_used: int, round_calls: int,
                           consec: int) -> int:
        """Allocation rounds to coalesce into the next draw-ahead batch.

        Once the termination condition starts holding (``consec > 0``)
        the schedule drops back to serial so the consecutive-round
        confirmation tail costs exactly what it costs serially.
        """
        if consec > 0:
            self._round_mult = 1
            return 1
        mult = batch_multiplier(
            self._round_mult,
            self.options.batch_rounds,
            BATCH_GROWTH,
            BATCH_CALL_TOLERANCE,
            calls_used,
            round_calls,
        )
        self._round_mult = mult
        return mult

    def _binding_pair(
        self, pair_stats: _PairStats, k_active: int
    ) -> Optional[Tuple[int, float]]:
        """The pair needing the smallest (hardest) target variance."""
        alpha_pair = per_pair_alpha(self.options.alpha, max(2, k_active))
        best_j: Optional[int] = None
        best_target = math.inf
        for j, (mean_diff, _var) in pair_stats.items():
            target = pair_target_variance(
                -mean_diff, self.options.delta, alpha_pair
            )
            if 0 < target < best_target:
                best_target = target
                best_j = j
        if best_j is None:
            return None
        return best_j, best_target

    def _refine(
        self,
        owner,
        strat: Stratification,
        moments: Tuple[np.ndarray, np.ndarray, np.ndarray],
        target_var: float,
    ) -> Optional[Stratification]:
        """Algorithm 2 over per-template ``(count, mean, M2)`` moments.

        Returns the refined stratification, or ``None`` when no split
        pays.  Each moment owner keeps one split cache; entries are
        stamped by stratum sample counts, so only strata that ingested
        samples since the owner's last check rebuild.
        """
        counts, means, m2s = moments
        t_vars = np.where(counts >= 2, m2s / np.maximum(1, counts - 1), 0.0)
        decision = propose_split(
            strat, self._template_size_arr, counts, means, t_vars,
            target_var, self.options.n_min,
            cache=self._split_caches.setdefault(owner, {}),
        )
        if decision is None:
            return None
        return strat.split(
            decision.stratum_idx, decision.left, decision.right
        )


class _DeltaScheme:
    """Delta Sampling (§4.2): one shared sample evaluated in every
    active configuration, pairwise difference estimators and one
    stratification for all configurations."""

    def __init__(self, sel: ConfigurationSelector) -> None:
        self.sel = sel
        self.k = sel.source.n_configs
        # Serial runs use the exact buffer reductions (bit-identical to
        # the golden fixture); batched runs the O(1) Welford updates,
        # which measured faster there at equal calls (docs/performance.md,
        # Layer 3).
        self.state = DeltaState(
            self.k, sel.n_templates, sel.indices_by_template, sel.rng,
            estimator=(
                "buffer" if sel.options.batch_rounds == 1 else "welford"
            ),
        )
        self.strat: Optional[Stratification] = None
        self.strat_version = 0
        # Eliminated configurations stop sampling, so their aligned
        # difference moments against any configuration are frozen;
        # their pair estimates are cached per (best, stratification)
        # to keep large-k rounds cheap.  (Rebuilt from frozen buffers
        # on resume, so the recomputed entries are bit-identical.)
        self._pair_cache: _PairStats = {}
        self._cache_key: Optional[Tuple[int, int]] = None

    # --- lifecycle ----------------------------------------------------
    def import_warm(self, warm: SelectorState) -> int:
        return self.state.import_samples(warm.values)

    def start(self) -> None:
        self.strat = self.sel._initial_stratification()

    def restore(self, payload: dict) -> None:
        self.state.restore_state(payload["state"])
        self.strat = Stratification(
            [tuple(int(t) for t in g) for g in payload["strata"]],
            self.sel.template_sizes,
        )
        self.strat_version = int(payload["strat_version"])

    def checkpoint_fields(self) -> dict:
        return {
            "strata": [
                [int(t) for t in group] for group in self.strat.strata
            ],
            "strat_version": int(self.strat_version),
            "state": self.state.state_dict(),
        }

    def export(self, strata) -> SelectorState:
        return SelectorState(
            scheme="delta", n_configs=self.k,
            values=self.state.export_samples(), strata=strata,
        )

    # --- sampling -----------------------------------------------------
    def calls_per_draw(self, active: Sequence[int]) -> int:
        return max(1, len(active))

    def _ingest(self, draws: _Draws, configs: Sequence[int]) -> None:
        """Cost a draw-ahead batch in one call and fold it in.

        Pairs are laid out query-major (every configuration of a draw
        back to back), so ingestion replays the serial
        accumulator-update order exactly.
        """
        k_a = len(configs)
        qs = np.fromiter(
            (q for q, _t in draws), dtype=np.int64, count=len(draws)
        )
        pairs = np.empty((len(draws) * k_a, 2), dtype=np.int64)
        pairs[:, 0] = np.repeat(qs, k_a)
        pairs[:, 1] = np.tile(
            np.asarray(configs, dtype=np.int64), len(draws)
        )
        with self.sel._timer.phase("cost"):
            values = self.sel.source.cost_many(pairs)
        with self.sel._timer.phase("ingest"):
            for d, (qidx, tid) in enumerate(draws):
                self.state.ingest(
                    qidx, tid, configs, values[d * k_a:(d + 1) * k_a]
                )

    def _drawn_in(self, stratum: Sequence[int]) -> int:
        return sum(self.state.sampler.drawn(t) for t in stratum)

    def pilot(self, strat: Optional[Stratification] = None) -> None:
        """Pilot ``strat`` (default: the current one) in every
        configuration, eliminated ones included."""
        configs = list(range(self.k))
        self.sel._pilot(
            self.state.sampler,
            self.strat if strat is None else strat,
            self._drawn_in, len(configs),
            lambda draws: self._ingest(draws, configs),
        )

    def draw(self, best: int, pair_stats: _PairStats,
             active: Sequence[int], rounds: int) -> bool:
        """Plan up to ``rounds`` §5.2 stratum picks ahead, then draw.

        Each planned round re-runs the variance-greedy stratum choice
        against the simulated (post-draw) counts, so a batch follows
        the same allocation trajectory the serial schedule would; the
        whole plan is then drawn, costed via ``cost_many`` and
        ingested.  ``rounds=1`` reproduces the serial behavior
        bit-identically.  Returns ``False`` when every stratum is
        exhausted.
        """
        state, strat, sel = self.state, self.strat, self.sel
        with sel._timer.phase("plan"):
            sizes = strat.sizes
            L = strat.stratum_count
            counts = np.zeros(L, dtype=np.int64)
            remaining = np.zeros(L, dtype=np.int64)
            for h, stratum in enumerate(strat.strata):
                counts[h] = sum(state.sampler.drawn(t) for t in stratum)
                remaining[h] = state.sampler.remaining_in(stratum)
            exhausted = remaining == 0
            if exhausted.all():
                return False
            # Per-pair per-stratum variances for the variance-sum
            # heuristic (pooled moments are cached inside the state).
            pair_vars = []
            for j in pair_stats:
                vars_h = np.zeros(L)
                for h, (n_h, _m_h, m2_h) in enumerate(
                    state.pair_stratum_moments(best, j, strat)
                ):
                    if n_h >= 2:
                        vars_h[h] = m2_h / (n_h - 1)
                pair_vars.append(vars_h)
            overheads = sel._stratum_overheads(strat)
            per_round = max(1, sel.options.reeval_every)
            # Round-to-round only the picked stratum's count moves, so
            # the variance-greedy scores are maintained incrementally
            # (bit-identical to a per-round pick_delta_stratum call).
            scorer = (
                DeltaStratumScorer(
                    sizes, pair_vars, counts, overheads=overheads
                )
                if pair_vars else None
            )
            plan: List[Tuple[int, int]] = []
            for _ in range(max(1, rounds)):
                if exhausted.all():
                    break
                if scorer is not None:
                    pick = scorer.pick(exhausted)
                else:
                    pick = int(np.argmax(np.where(exhausted, -1, sizes)))
                if pick is None:
                    break
                n = int(min(per_round, remaining[pick]))
                if plan and plan[-1][0] == pick:
                    plan[-1] = (pick, plan[-1][1] + n)
                else:
                    plan.append((pick, n))
                counts[pick] += n
                remaining[pick] -= n
                if remaining[pick] == 0:
                    exhausted[pick] = True
                if scorer is not None:
                    scorer.refresh(pick)
        active = list(active)
        drew_any = False
        for pick, n in plan:
            drawn, budget_left = sel._draw_chunked(
                state.sampler, strat.strata[pick], n,
                self.calls_per_draw(active),
                lambda draws: self._ingest(draws, active),
                first_free=not drew_any,
            )
            drew_any = drew_any or drawn > 0
            if not budget_left:
                break
        return True

    # --- estimation ---------------------------------------------------
    def totals(self) -> np.ndarray:
        return np.array(
            [self.state.estimate_total(c, self.strat)[0]
             for c in range(self.k)]
        )

    def evaluate(self, active: Sequence[int]) -> Tuple[int, _PairStats]:
        best = _leader(self.totals())
        round_key = (best, self.strat_version)
        if round_key != self._cache_key:
            self._pair_cache = {}
            self._cache_key = round_key
        active_set = set(active)
        pair_stats: _PairStats = {}
        for j in range(self.k):
            if j == best:
                continue
            stats = None if j in active_set else self._pair_cache.get(j)
            if stats is None:
                stats = self.state.pair_estimate(best, j, self.strat)
                if j not in active_set:
                    self._pair_cache[j] = stats
            pair_stats[j] = stats
        return best, pair_stats

    def split(self, best: int, pair_stats: _PairStats,
              active: Sequence[int]) -> None:
        """Consult Algorithm 2 on the binding pair's difference stats."""
        binding = self.sel._binding_pair(pair_stats, len(active))
        if binding is None:
            return
        j, target_var = binding
        # diff_template_moments negates means with direction, which
        # flips the cut ordering: caches key by the directed pair.
        new_strat = self.sel._refine(
            (best, j), self.strat,
            self.state.diff_template_moments(best, j), target_var,
        )
        if new_strat is None:
            return
        # Line 8 of Algorithm 1: pilot the refreshed strata.
        self.pilot(new_strat)
        self.strat = new_strat
        self.strat_version += 1

    def summary(self, best: int):
        return (
            self.strat.strata,
            {h: int(n) for h, n in enumerate(self.strat.sizes)},
            self.state.sample_count(),
        )


class _IndependentScheme:
    """Independent Sampling (§4.1): every configuration draws its own
    sample under its own stratification."""

    def __init__(self, sel: ConfigurationSelector) -> None:
        self.sel = sel
        self.k = sel.source.n_configs
        self.state = IndependentState(
            self.k, sel.n_templates, sel.indices_by_template, sel.rng
        )
        self.strats: List[Stratification] = []
        #: The configuration the last draw went to: the one whose
        #: stratification Algorithm 2 refines next.
        self.last_sampled: Optional[int] = None

    # --- lifecycle ----------------------------------------------------
    def import_warm(self, warm: SelectorState) -> int:
        return self.state.import_moments(warm.moments)

    def start(self) -> None:
        self.strats = [
            self.sel._initial_stratification() for _ in range(self.k)
        ]

    def restore(self, payload: dict) -> None:
        self.state.restore_state(payload["state"])
        self.strats = [
            Stratification(
                [tuple(int(t) for t in g) for g in groups],
                self.sel.template_sizes,
            )
            for groups in payload["strats"]
        ]
        self.last_sampled = (
            None if payload["last_sampled"] is None
            else int(payload["last_sampled"])
        )

    def checkpoint_fields(self) -> dict:
        return {
            "strats": [
                [[int(t) for t in group] for group in s.strata]
                for s in self.strats
            ],
            "last_sampled": (
                None if self.last_sampled is None
                else int(self.last_sampled)
            ),
            "state": self.state.state_dict(),
        }

    def export(self, strata) -> SelectorState:
        return SelectorState(
            scheme="independent", n_configs=self.k,
            moments=self.state.export_moments(), strata=strata,
        )

    # --- sampling -----------------------------------------------------
    def calls_per_draw(self, active: Sequence[int]) -> int:
        return 1

    def _ingest(self, config: int, draws: _Draws) -> None:
        """Cost one configuration's draw-ahead batch and fold it in."""
        pairs = np.empty((len(draws), 2), dtype=np.int64)
        pairs[:, 0] = np.fromiter(
            (q for q, _t in draws), dtype=np.int64, count=len(draws)
        )
        pairs[:, 1] = config
        with self.sel._timer.phase("cost"):
            values = self.sel.source.cost_many(pairs)
        with self.sel._timer.phase("ingest"):
            for (_qidx, tid), value in zip(draws, values):
                self.state.ingest(config, tid, value)

    def _pilot_config(self, config: int, strat: Stratification) -> None:
        count = self.state.grid.count
        self.sel._pilot(
            self.state.samplers[config], strat,
            lambda stratum: sum(int(count[config, t]) for t in stratum),
            1, lambda draws: self._ingest(config, draws),
        )

    def pilot(self) -> None:
        for c in range(self.k):
            self._pilot_config(c, self.strats[c])

    def draw(self, best: int, pair_stats: _PairStats,
             active: Sequence[int], rounds: int) -> bool:
        """Plan up to ``rounds`` greedy (configuration, stratum) picks
        ahead, then draw them.

        Pending draws feed back into the scores so the batch follows
        the serial allocation trajectory.  Returns ``False`` when no
        active configuration has anything left to draw.
        """
        sel = self.sel
        per_round = max(1, sel.options.reeval_every)
        with sel._timer.phase("plan"):
            plan: List[Tuple[int, int, int]] = []
            pending: Dict[Tuple[int, int], int] = {}
            for _ in range(max(1, rounds)):
                pick = self._pick(active, pending)
                if pick is None:
                    break
                config, stratum_idx = pick
                already = pending.get((config, stratum_idx), 0)
                avail = self.state.samplers[config].remaining_in(
                    self.strats[config].strata[stratum_idx]
                ) - already
                n = int(min(per_round, avail))
                if n <= 0:
                    break
                plan.append((config, stratum_idx, n))
                pending[(config, stratum_idx)] = already + n
        if not plan:
            return False
        drew_any = False
        for config, stratum_idx, n in plan:
            drawn, budget_left = sel._draw_chunked(
                self.state.samplers[config],
                self.strats[config].strata[stratum_idx], n, 1,
                lambda draws, c=config: self._ingest(c, draws),
                first_free=not drew_any,
            )
            if drawn:
                drew_any = True
                self.last_sampled = config
            if not budget_left:
                break
        return True

    def _pick(
        self,
        active: Sequence[int],
        pending: Dict[Tuple[int, int], int],
    ) -> Optional[Tuple[int, int]]:
        """Greedy (configuration, stratum) choice per §5.2.

        ``pending`` maps ``(config, stratum)`` to draws already planned
        (but not yet taken) by the current draw-ahead batch; they are
        treated as taken, so successive picks of one batch follow the
        same trajectory a serial re-pick after each round would.
        """
        best_pick: Optional[Tuple[int, int]] = None
        best_score = -1.0
        for config in active:
            strat = self.strats[config]
            stats = self.state.stratum_stats(config, strat)
            overheads = self.sel._stratum_overheads(strat)
            L = strat.stratum_count
            planned = np.zeros(L, dtype=np.int64)
            open_mask = np.zeros(L, dtype=bool)
            for h, stratum in enumerate(strat.strata):
                p = pending.get((config, h), 0)
                planned[h] = p
                open_mask[h] = (
                    self.state.samplers[config].remaining_in(stratum) - p
                    > 0
                )
            if not open_mask.any():
                continue
            n_eff = np.asarray(stats.n, dtype=np.int64) + planned
            s2 = np.where(np.isfinite(stats.var), stats.var, 0.0)
            red = variance_reduction_many(strat.sizes, s2, n_eff)
            if overheads is not None:
                red = red / np.maximum(1e-12, overheads)
            red = np.where(n_eff == 0, math.inf, red)
            scores = np.where(open_mask, red, -math.inf)
            h = int(np.argmax(scores))
            if scores[h] > best_score:
                best_score = float(scores[h])
                best_pick = (config, h)
        return best_pick

    # --- estimation ---------------------------------------------------
    def totals(self) -> np.ndarray:
        return np.array(
            [self.state.estimate(c, self.strats[c])[0]
             for c in range(self.k)]
        )

    def evaluate(self, active: Sequence[int]) -> Tuple[int, _PairStats]:
        ests = [
            self.state.estimate(c, self.strats[c]) for c in range(self.k)
        ]
        totals = np.array([e[0] for e in ests])
        variances = np.array([e[1] for e in ests])
        best = _leader(totals)
        pair_stats: _PairStats = {}
        for j in range(self.k):
            if j == best:
                continue
            gap = float(totals[j] - totals[best])
            pair_stats[j] = (-gap, float(variances[j] + variances[best]))
        return best, pair_stats

    def split(self, best: int, pair_stats: _PairStats,
              active: Sequence[int]) -> None:
        """Consult Algorithm 2 for the last-sampled configuration."""
        config = self.last_sampled
        if config is None or config not in active:
            return
        binding = self.sel._binding_pair(pair_stats, len(active))
        if binding is None:
            return
        grid = self.state.grid
        # Per-config target: half the pair's variance budget (the pair
        # variance is the sum of two per-config variances).
        new_strat = self.sel._refine(
            config, self.strats[config],
            (grid.count[config], grid.mean[config], grid.m2[config]),
            binding[1] / 2.0,
        )
        if new_strat is None:
            return
        self._pilot_config(config, new_strat)
        self.strats[config] = new_strat

    def summary(self, best: int):
        return (
            self.strats[best].strata,
            {c: self.strats[c].stratum_count for c in range(self.k)},
            sum(self.state.sample_count(c) for c in range(self.k)),
        )
