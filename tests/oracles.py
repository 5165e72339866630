"""Reference implementations kept as parity oracles.

Each function here is the historical, straightforward version of a
kernel that ``src/`` now computes a faster way.  They are not part of
the package: tests compare the fast kernels against them bit for bit
(``test_bound_kernels.py``), the golden fixture replays through the
reference split search (``test_batched_equivalence.py``), and
``benchmarks/bench_selector_throughput.py`` times the split kernel
against it.

* :func:`propose_split_reference` — Algorithm 2's split search with one
  full candidate stratification and variance pass per cut
  (vs :func:`repro.core.progressive.propose_split`).
* :func:`apply_group_reference` — the grouped DP transition walked one
  residue class at a time (vs :func:`repro.bounds._dp.apply_group`).
* :func:`reference_split_scorer` — :func:`propose_split_reference` with
  the incremental kernel's signature, for patching
  ``repro.core.selector.propose_split``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from repro.core.progressive import SplitDecision, estimate_stratum_variance
from repro.core.stratification import (
    Stratification,
    neyman_allocation,
    samples_needed,
)

__all__ = [
    "apply_group_reference",
    "propose_split_reference",
    "reference_split_scorer",
]


def _strata_variances(
    strat: Stratification,
    template_sizes: np.ndarray,
    template_means: np.ndarray,
    template_vars: np.ndarray,
) -> np.ndarray:
    return np.array(
        [
            estimate_stratum_variance(
                stratum, template_sizes, template_means, template_vars
            )
            for stratum in strat.strata
        ]
    )


def propose_split_reference(
    strat: Stratification,
    template_sizes: np.ndarray,
    template_counts: np.ndarray,
    template_means: np.ndarray,
    template_vars: np.ndarray,
    target_var: float,
    n_min: int,
) -> Optional[SplitDecision]:
    """The historical split search: full recompute per candidate cut.

    Semantically identical to :func:`propose_split`.  Builds one
    complete candidate ``Stratification`` and variance pass per cut,
    so a check over a
    stratum with ``T`` templates costs ``O(T^2)`` variance estimates
    where the incremental kernel reads ``O(T)`` prefix sums.
    """
    if not np.isfinite(target_var) or target_var <= 0:
        return None

    sizes = strat.sizes
    sampled = np.array(
        [
            int(template_counts[np.fromiter(s, dtype=np.int64)].sum())
            for s in strat.strata
        ],
        dtype=np.int64,
    )
    floors = np.maximum(np.minimum(n_min, sizes), sampled)
    variances = _strata_variances(
        strat, template_sizes, template_means, template_vars
    )
    baseline = samples_needed(sizes, variances, target_var, floors=floors)

    expected_alloc = neyman_allocation(
        sizes, np.sqrt(variances), baseline, floors=floors
    )

    best: Optional[SplitDecision] = None
    for h, stratum in enumerate(strat.strata):
        if len(stratum) < 2:
            continue
        if expected_alloc[h] < 2 * n_min:
            continue
        tids = np.fromiter(stratum, dtype=np.int64)
        if (template_counts[tids] == 0).any():
            continue
        order = np.argsort(template_means[tids], kind="stable")
        ordered = [int(t) for t in tids[order]]
        for cut in range(1, len(ordered)):
            left = tuple(ordered[:cut])
            right = tuple(ordered[cut:])
            candidate = strat.split(h, left, right)
            cand_sampled = np.array(
                [
                    int(
                        template_counts[
                            np.fromiter(s, dtype=np.int64)
                        ].sum()
                    )
                    for s in candidate.strata
                ],
                dtype=np.int64,
            )
            cand_floors = np.maximum(
                np.minimum(n_min, candidate.sizes), cand_sampled
            )
            cand_vars = _strata_variances(
                candidate, template_sizes, template_means, template_vars
            )
            needed = samples_needed(
                candidate.sizes, cand_vars, target_var, floors=cand_floors
            )
            if needed < baseline and (
                best is None or needed < best.expected_samples
            ):
                best = SplitDecision(
                    stratum_idx=h,
                    left=left,
                    right=right,
                    expected_samples=needed,
                    baseline_samples=baseline,
                )
    return best


def _window_extremum(
    u: np.ndarray, window: int, kind: str
) -> np.ndarray:
    """Trailing-window extremum: out[p] = ext(u[max(0, p-window+1) : p+1])."""
    size = window
    origin = (size - 1) // 2
    if kind == "max":
        return maximum_filter1d(
            u, size=size, mode="constant", cval=-np.inf, origin=origin
        )
    return minimum_filter1d(
        u, size=size, mode="constant", cval=np.inf, origin=origin
    )


def apply_group_reference(
    state: np.ndarray,
    d: int,
    m: int,
    base: float,
    alpha: float,
    kind: str = "max",
) -> np.ndarray:
    """The historical per-residue-class transition (parity baseline).

    Same contract as :func:`apply_group`; walks the ``d`` residue
    classes one strided slice at a time instead of packing them into a
    single filtered matrix.
    """
    if d <= 0:
        raise ValueError(f"group width d must be positive, got {d}")
    if m <= 0:
        raise ValueError(f"group multiplicity must be positive, got {m}")
    cur = len(state)
    new_len = cur + m * d
    fill = -np.inf if kind == "max" else np.inf
    out = np.full(new_len, fill)
    n_classes = min(d, new_len)
    if m + 1 < n_classes:
        reducer = np.maximum if kind == "max" else np.minimum
        for c in range(m + 1):
            lo_off = c * d
            contribution = m * base + c * alpha
            segment = out[lo_off: lo_off + cur]
            reducer(segment, state + contribution, out=segment)
        return out
    for r in range(n_classes):
        t = state[r::d]
        if len(t) == 0:
            continue
        idx = np.arange(len(t), dtype=np.float64)
        u = t - idx * alpha
        padded = np.concatenate([u, np.full(m, fill)])
        ext = _window_extremum(padded, m + 1, kind)
        p = np.arange(len(padded), dtype=np.float64)
        out[r::d] = m * base + p * alpha + ext
    return out


def reference_split_scorer(*args, cache=None) -> Optional[SplitDecision]:
    """:func:`propose_split_reference` behind ``propose_split``'s
    signature (the incremental kernel's ``cache`` is ignored)."""
    return propose_split_reference(*args)
