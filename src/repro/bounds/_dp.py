"""Shared dynamic-programming kernels for the interval-bound problems.

The variance and skew maximization DPs (Section 6.2) walk the same
state space: achievable rounded sums of boundary-valued assignments.
Processing queries one at a time costs ``O(n * states)``; but physical
design workloads contain many queries with *identical rounded
intervals* (whole templates share bounds), and ``m`` identical items
can be folded into a single transition:

For a group of ``m`` items with interval ``{lo, hi}`` (grid difference
``d``, per-item flip gain ``alpha`` — e.g. ``hi^2 - lo^2`` for the
variance DP), choosing ``c`` items at ``hi`` shifts the sum by
``c * d`` and adds ``m * base + c * alpha``.  Within each residue class
modulo ``d`` the transition becomes

    new[p] = m * base + p * alpha + extremum_{i in [p-m, p]}
             (old[i] - i * alpha)

a sliding-window maximum/minimum, computed in ``O(states)`` with
:func:`scipy.ndimage.maximum_filter1d`.  Total work drops from
``O(n * states)`` to ``O(G * states)`` for ``G`` distinct intervals —
this is what makes Table 1-scale inputs tractable and is the practical
realization of the paper's remark that ``total_m`` grows much more
slowly than the number of bound combinations.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

__all__ = [
    "round_to_grid",
    "group_intervals",
    "apply_group",
]


def round_to_grid(values: np.ndarray, rho: float) -> np.ndarray:
    """Round to the nearest multiple of ``rho``, in grid units."""
    return np.floor((np.asarray(values, dtype=np.float64) + rho / 2.0)
                    / rho).astype(np.int64)


def group_intervals(
    a: np.ndarray, b: np.ndarray
) -> List[Tuple[int, int, int]]:
    """Collapse identical grid intervals into ``(a, b, multiplicity)``.

    Degenerate intervals (``a == b``) are included; callers typically
    fold them into a constant offset before running transitions.
    """
    pairs = np.stack([a, b], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    return [
        (int(lo), int(hi), int(m))
        for (lo, hi), m in zip(uniq, counts)
    ]


def apply_group(
    state: np.ndarray,
    d: int,
    m: int,
    base: float,
    alpha: float,
    kind: str = "max",
) -> np.ndarray:
    """One grouped DP transition.

    Parameters
    ----------
    state:
        Current DP values over sum offsets (in grid units); ``-inf`` /
        ``inf`` marks unreachable offsets for max/min respectively.
    d:
        Grid width of the group's interval (``> 0``).
    m:
        Number of identical items in the group.
    base:
        Per-item contribution when the item sits at its low bound
        (e.g. ``lo^2``); the group adds ``m * base`` unconditionally.
    alpha:
        Per-item gain of flipping one item to its high bound
        (e.g. ``hi^2 - lo^2``).
    kind:
        ``"max"`` or ``"min"``.

    Returns
    -------
    numpy.ndarray
        New state of length ``len(state) + m * d``.
    """
    if d <= 0:
        raise ValueError(f"group width d must be positive, got {d}")
    if m <= 0:
        raise ValueError(f"group multiplicity must be positive, got {m}")
    cur = len(state)
    new_len = cur + m * d
    fill = -np.inf if kind == "max" else np.inf
    n_classes = min(d, new_len)
    if m + 1 < n_classes:
        # Few items, wide interval: enumerating the flip count c is
        # cheaper than walking d residue classes (m + 1 whole-array
        # ops instead of one packed filter over d rows).
        out = np.full(new_len, fill)
        reducer = np.maximum if kind == "max" else np.minimum
        for c in range(m + 1):
            lo_off = c * d
            contribution = m * base + c * alpha
            segment = out[lo_off: lo_off + cur]
            reducer(segment, state + contribution, out=segment)
        return out
    # Pack the d residue classes as rows of one (d, width) matrix —
    # state[r + i*d] lands at [r, i] — pad every row with `fill`, and
    # run a single axis-1 trailing-window filter.  Row r sees exactly
    # the inputs the per-class loop fed its 1-D filter (fill padding
    # included), so each class's output is bitwise identical; the
    # transpose-ravel scatters [r, i] back to position r + i*d, and the
    # short rows' surplus tail entries all land at indices >= new_len,
    # where truncation drops them.
    width = -(-cur // d)
    padded = np.full(width * d, fill)
    padded[:cur] = state
    packed = padded.reshape(width, d).T
    idx = np.arange(width, dtype=np.float64)
    u = np.concatenate(
        [packed - idx * alpha, np.full((d, m), fill)], axis=1
    )
    size = m + 1
    origin = (size - 1) // 2
    if kind == "max":
        ext = maximum_filter1d(
            u, size=size, axis=1, mode="constant", cval=fill,
            origin=origin,
        )
    else:
        ext = minimum_filter1d(
            u, size=size, axis=1, mode="constant", cval=fill,
            origin=origin,
        )
    p = np.arange(width + m, dtype=np.float64)
    out = m * base + p * alpha + ext
    return out.T.ravel()[:new_len].copy()
