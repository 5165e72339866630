"""Progressive stratification: Algorithm 2 of the paper.

Starting from a single stratum, the selection procedure repeatedly
considers refining the stratification by splitting one existing stratum
in two at a template boundary, ordered by average template cost.  A
split is adopted when the estimated total number of samples needed to
reach the target variance — ``#Samples(C_i, ST, NT)``, computed via
Neyman allocation and binary search (:mod:`repro.core.stratification`)
— decreases.

Only one stratum is split per step, and only strata whose expected
allocation is at least ``2 * n_min`` are considered (each new stratum
must support a normal estimate of its own).  Stratum variances for
candidate splits are estimated from per-template running statistics:

    S^2_h  ~=  sum_t (N_t / N_h) * (s_t^2 + (m_t - m_h)^2)

the within-template variance plus the between-template spread, which is
exactly what makes template-aligned strata effective.

:func:`propose_split` is the split search.  Per stratum it keeps a
cache entry (stamped by the stratum's member sample count, so it is
invalidated exactly when that stratum ingests samples) holding the
stratum's variance estimate and, for splittable strata, prefix-sum
aggregates (count / size-weighted sum / size-weighted sum of squares
over the mean-sorted member templates) from which every cut's left and
right variance is an O(1) read.  All ``(stratum, cut)`` candidates are
then scored through one
:func:`repro.core.allocation.samples_needed_batch` call — a split check
is an array reduction instead of a per-cut recompute.

The historical per-cut recompute (one full candidate stratification
and variance pass per cut) lives in ``tests/oracles.py`` as the parity
oracle: the golden fixture replays through it and
``tests/test_bound_kernels.py`` compares the two decision by decision.
The candidate enumeration order (stratum index ascending, cut
ascending, strict improvement) is identical, so tie-breaking matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .allocation import samples_needed_batch
from .stratification import (
    Stratification,
    neyman_allocation,
    samples_needed,
)

__all__ = [
    "SplitDecision",
    "estimate_stratum_variance",
    "propose_split",
]


@dataclass(frozen=True)
class SplitDecision:
    """The outcome of a profitable split search."""

    stratum_idx: int
    left: Tuple[int, ...]
    right: Tuple[int, ...]
    expected_samples: int
    baseline_samples: int

    @property
    def saving(self) -> int:
        """Expected optimizer calls saved by adopting the split."""
        return self.baseline_samples - self.expected_samples


def estimate_stratum_variance(
    templates: Sequence[int],
    template_sizes: np.ndarray,
    template_means: np.ndarray,
    template_vars: np.ndarray,
) -> float:
    """Estimate a (candidate) stratum's population variance.

    Combines within-template sample variances with the between-template
    spread of means, weighting templates by their workload share.
    """
    tids = np.fromiter(templates, dtype=np.int64)
    sizes = template_sizes[tids].astype(np.float64)
    total = sizes.sum()
    if total <= 0:
        return 0.0
    means = template_means[tids]
    variances = np.maximum(0.0, template_vars[tids])
    m_h = float((sizes * means).sum() / total)
    return float(
        (sizes * (variances + (means - m_h) ** 2)).sum() / total
    )


@dataclass
class _StratumSplitEntry:
    """Cached per-stratum split aggregates, stamped by sample count.

    ``stamp`` is the stratum's summed member sample count at build
    time; template moments only move when a member template ingests
    samples (counts are monotone), so an unchanged stamp certifies
    every cached number below is still exact.
    """

    stamp: int
    #: Whole-stratum variance (estimate_stratum_variance, bit-exact).
    variance: float
    #: Mean-sorted member template ids; None when the stratum is not
    #: splittable from cached data (fewer than 2 templates, or some
    #: member still unsampled).
    ordered: Optional[np.ndarray] = None
    left_sizes: Optional[np.ndarray] = None
    right_sizes: Optional[np.ndarray] = None
    left_sampled: Optional[np.ndarray] = None
    right_sampled: Optional[np.ndarray] = None
    left_vars: Optional[np.ndarray] = None
    right_vars: Optional[np.ndarray] = None


def _build_entry(
    stratum: Tuple[int, ...],
    n_h: int,
    template_sizes: np.ndarray,
    template_counts: np.ndarray,
    template_means: np.ndarray,
    template_vars: np.ndarray,
) -> _StratumSplitEntry:
    entry = _StratumSplitEntry(
        stamp=n_h,
        variance=estimate_stratum_variance(
            stratum, template_sizes, template_means, template_vars
        ),
    )
    if len(stratum) < 2:
        return entry
    tids = np.fromiter(stratum, dtype=np.int64)
    # Section 5.1: order templates only once every member has cost
    # estimates ("once we have seen a small number of queries for each
    # template").
    if (template_counts[tids] == 0).any():
        return entry
    order = np.argsort(template_means[tids], kind="stable")
    ordered = tids[order]
    sizes = template_sizes[ordered]
    counts = template_counts[ordered]
    sizes_f = sizes.astype(np.float64)
    means = template_means[ordered]
    variances = np.maximum(0.0, template_vars[ordered])
    # Prefix/suffix aggregates over the mean-sorted templates: stratum
    # sizes and sampled counts are exact integers; the variance of any
    # contiguous cut is recovered from the size-weighted first and
    # second moments, Var = S2/S0 - (S1/S0)^2.
    s0 = np.cumsum(sizes_f)
    s1 = np.cumsum(sizes_f * means)
    s2 = np.cumsum(sizes_f * (variances + means * means))
    r0 = s0[-1] - s0[:-1]
    r1 = s1[-1] - s1[:-1]
    r2 = s2[-1] - s2[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = s1[:-1] / s0[:-1]
        left_vars = np.maximum(0.0, s2[:-1] / s0[:-1] - lm * lm)
        rm = r1 / r0
        right_vars = np.maximum(0.0, r2 / r0 - rm * rm)
    left_vars = np.where(s0[:-1] > 0, left_vars, 0.0)
    right_vars = np.where(r0 > 0, right_vars, 0.0)
    entry.ordered = ordered
    entry.left_sizes = np.cumsum(sizes)[:-1]
    entry.right_sizes = int(sizes.sum()) - entry.left_sizes
    entry.left_sampled = np.cumsum(counts)[:-1]
    entry.right_sampled = n_h - entry.left_sampled
    entry.left_vars = left_vars
    entry.right_vars = right_vars
    return entry


def propose_split(
    strat: Stratification,
    template_sizes: np.ndarray,
    template_counts: np.ndarray,
    template_means: np.ndarray,
    template_vars: np.ndarray,
    target_var: float,
    n_min: int,
    cache: Optional[Dict[Tuple[int, ...], _StratumSplitEntry]] = None,
) -> Optional[SplitDecision]:
    """Search for the most profitable single-stratum split (Algorithm 2).

    Parameters
    ----------
    strat:
        The current stratification.
    template_sizes / template_counts / template_means / template_vars:
        Dense per-template arrays: workload sizes, samples drawn so
        far, running mean and running sample variance of the quantity
        being estimated (per-configuration costs for Independent
        Sampling; cost differences of the binding pair for Delta
        Sampling, which uses a single ranking across pairs).
    target_var:
        The variance the estimator must reach (from
        :func:`repro.core.prcs.pair_target_variance`).
    n_min:
        Minimum per-stratum sample size for normality.
    cache:
        Optional dict (stratum tuple -> :class:`_StratumSplitEntry`)
        reused across calls for the same moment arrays; entries are
        stamped by the stratum's sample count, so only strata that
        ingested samples since the last call are rebuilt.  The selector
        keeps one cache per moment owner (per directed configuration
        pair for Delta Sampling, per configuration for Independent).

    Returns
    -------
    SplitDecision or None
        ``None`` when no split reduces the expected total sample count.
    """
    if not np.isfinite(target_var) or target_var <= 0:
        return None

    sizes = strat.sizes
    L = strat.stratum_count
    sampled = strat.member_sums(template_counts)
    variances = np.empty(L, dtype=np.float64)
    entries = []
    for h, stratum in enumerate(strat.strata):
        n_h = int(sampled[h])
        entry = cache.get(stratum) if cache is not None else None
        if entry is None or entry.stamp != n_h:
            entry = _build_entry(
                stratum, n_h, template_sizes, template_counts,
                template_means, template_vars,
            )
            if cache is not None:
                cache[stratum] = entry
        variances[h] = entry.variance
        entries.append(entry)
    floors = np.maximum(np.minimum(n_min, sizes), sampled)

    # When no stratum is splittable there is no decision to make —
    # skip the baseline ``#Samples`` entirely (late-stage calls on
    # fine stratifications hit this constantly).
    splittable = [h for h, e in enumerate(entries) if e.ordered is not None]
    if not splittable:
        return None

    # The baseline problem rides the candidate batch as row 0, padded
    # to width L+1 with a zero-size stratum (size 0, variance 0, zero
    # samples): it gets a zero floor and weight, is never opened by
    # the allocation and contributes an exact ``+0.0`` to the eq. 5
    # sum, so row 0's bisection is bit-identical to the scalar
    # ``samples_needed`` call it replaces.  The one place padding
    # could leak is NumPy's pairwise summation of the Neyman weights:
    # appending a zero changes the reduction tree exactly when
    # ``L % 8 == 7`` or the 128-element block boundary is crossed, so
    # those widths keep the separate scalar baseline call.
    folded = L % 8 != 7 and L + 1 <= 128
    if not folded:
        baseline = samples_needed(
            sizes, variances, target_var, floors=floors
        )

    # Assemble every (stratum, cut) candidate as one row of a (B, L+1)
    # problem batch: the untouched strata keep their cached baseline
    # variance, the split stratum is replaced by the cut's left/right
    # aggregates.  Candidate order is stratum index ascending, cut
    # ascending — the reference enumeration order.  All rows share the
    # same global columns modulo a one-slot shift past the split
    # stratum, so the whole batch is one shifted-column gather plus
    # two scatters into the left/right slots per array.  The
    # ``expected_alloc`` gate (line 7 of Algorithm 2) needs the
    # baseline total, so it is applied to the scored rows afterwards.
    cand_index = []
    for h in splittable:
        n_cuts = len(entries[h].ordered) - 1
        cand_index.extend((h, cut) for cut in range(1, n_cuts + 1))
    cand_h = np.fromiter(
        (h for h, _ in cand_index), dtype=np.int64, count=len(cand_index)
    )
    cols = np.arange(L + 1, dtype=np.int64)[None, :]
    src = cols - (cols > cand_h[:, None] + 1)
    np.minimum(src, L - 1, out=src)  # slots h, h+1 are overwritten
    slot = cand_h[:, None]
    all_sizes = sizes[src]
    all_vars = variances[src]
    all_sampled = sampled[src]
    for field, target in (
        ("left_sizes", all_sizes), ("left_vars", all_vars),
        ("left_sampled", all_sampled),
    ):
        np.put_along_axis(
            target, slot,
            np.concatenate(
                [getattr(entries[h], field) for h in splittable]
            )[:, None],
            axis=1,
        )
    for field, target in (
        ("right_sizes", all_sizes), ("right_vars", all_vars),
        ("right_sampled", all_sampled),
    ):
        np.put_along_axis(
            target, slot + 1,
            np.concatenate(
                [getattr(entries[h], field) for h in splittable]
            )[:, None],
            axis=1,
        )
    if folded:
        all_sizes = np.concatenate(
            [np.append(sizes, 0)[None, :], all_sizes]
        )
        all_vars = np.concatenate(
            [np.append(variances, 0.0)[None, :], all_vars]
        )
        all_sampled = np.concatenate(
            [np.append(sampled, 0)[None, :], all_sampled]
        )
    all_floors = np.maximum(np.minimum(n_min, all_sizes), all_sampled)
    needed = samples_needed_batch(
        all_sizes, all_vars,
        np.full(len(all_sizes), target_var, dtype=np.float64),
        floors=all_floors,
    )
    if folded:
        baseline = int(needed[0])
        needed = needed[1:]

    # Expected allocation at the baseline total (line 7 of Algorithm 2)
    # gates which strata may split; losing rows are masked before the
    # argmin, whose first-occurrence tie-breaking preserves the
    # reference enumeration order.
    expected_alloc = neyman_allocation(
        sizes, np.sqrt(variances), baseline, floors=floors
    )
    gate = expected_alloc[np.asarray(cand_h, dtype=np.int64)] >= 2 * n_min
    valid = gate & (needed < baseline)
    if not valid.any():
        return None
    best_pos = int(
        np.argmin(np.where(valid, needed, np.iinfo(np.int64).max))
    )
    h, cut = cand_index[best_pos]
    ordered = entries[h].ordered
    return SplitDecision(
        stratum_idx=h,
        left=tuple(int(t) for t in ordered[:cut]),
        right=tuple(int(t) for t in ordered[cut:]),
        expected_samples=int(needed[best_pos]),
        baseline_samples=baseline,
    )
