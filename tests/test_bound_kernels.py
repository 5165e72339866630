"""Bitwise-parity tests for the vectorized bound and allocation kernels.

Every fast path introduced for the split/plan bottleneck must produce
the exact floats of the historical scalar code: the grouped DP
transition vs the per-residue-class walk, the memoized Section 6
bounds vs uncached evaluation, the batched allocation kernels vs
row-at-a-time calls, and the incremental split scorer vs the full
reference recompute.  Parity here is ``==`` on floats, not ``allclose``.
"""

import numpy as np
import pytest

from repro.bounds import bounds_cache_stats, clear_bounds_caches
from repro.bounds._dp import apply_group
from repro.bounds.skew_bound import max_skew_bound, skew_bound_cache_stats
from repro.bounds.variance_bound import (
    max_variance_bound,
    variance_bound_cache_stats,
)
from repro.core.allocation import (
    DeltaStratumScorer,
    allocation_variance_batch,
    neyman_allocation_batch,
    pick_delta_stratum,
    samples_needed_batch,
)
from repro.core.progressive import propose_split
from repro.core.stratification import Stratification

from tests.oracles import apply_group_reference, propose_split_reference


# ---------------------------------------------------------------------------
# Grouped DP transition (bounds/_dp.py)
# ---------------------------------------------------------------------------


def _random_state(rng, length, kind):
    fill = -np.inf if kind == "max" else np.inf
    state = rng.normal(scale=5.0, size=length)
    # Unreachable offsets are the fill value; sprinkle some in.
    mask = rng.random(length) < 0.3
    state[mask] = fill
    state[0] = 0.0  # offset zero is always reachable in real DPs
    return state


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["max", "min"])
def test_apply_group_matches_reference(seed, kind):
    rng = np.random.default_rng(900 + seed)
    for _ in range(25):
        length = int(rng.integers(1, 40))
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        base = float(rng.normal(scale=3.0))
        alpha = float(rng.normal(scale=3.0))
        state = _random_state(rng, length, kind)
        fast = apply_group(state, d, m, base, alpha, kind=kind)
        ref = apply_group_reference(state, d, m, base, alpha, kind=kind)
        assert fast.shape == ref.shape
        assert np.array_equal(fast, ref)


@pytest.mark.parametrize("kind", ["max", "min"])
def test_apply_group_branch_extremes(kind):
    """Force both the flip-enumeration and packed-filter branches."""
    rng = np.random.default_rng(77)
    state = _random_state(rng, 30, kind)
    # Wide interval, few items: m + 1 < d -> enumeration branch.
    for d, m in [(25, 2), (12, 1)]:
        fast = apply_group(state, d, m, 1.5, -0.75, kind=kind)
        ref = apply_group_reference(state, d, m, 1.5, -0.75, kind=kind)
        assert np.array_equal(fast, ref)
    # Narrow interval, many items: packed-filter branch, ragged rows.
    for d, m in [(1, 9), (3, 12), (7, 7)]:
        fast = apply_group(state, d, m, -2.25, 4.5, kind=kind)
        ref = apply_group_reference(state, d, m, -2.25, 4.5, kind=kind)
        assert np.array_equal(fast, ref)


def test_apply_group_rejects_degenerate_groups():
    state = np.zeros(4)
    for kernel in (apply_group, apply_group_reference):
        with pytest.raises(ValueError):
            kernel(state, 0, 3, 0.0, 1.0)
        with pytest.raises(ValueError):
            kernel(state, 2, 0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Memoized Section 6 bounds
# ---------------------------------------------------------------------------


def _random_intervals(rng, n):
    lows = rng.uniform(0.0, 10.0, size=n)
    highs = lows + rng.uniform(0.0, 5.0, size=n)
    # Some degenerate intervals (low == high) and repeated templates.
    lows[rng.random(n) < 0.25] = 2.0
    highs = np.maximum(highs, lows)
    return lows, highs


@pytest.mark.parametrize("seed", range(4))
def test_variance_bound_memo_matches_uncached(seed):
    clear_bounds_caches()
    rng = np.random.default_rng(1300 + seed)
    lows, highs = _random_intervals(rng, int(rng.integers(3, 24)))
    rho = 0.5
    first = max_variance_bound(lows, highs, rho)
    cached = max_variance_bound(lows, highs, rho)
    bare = max_variance_bound(lows, highs, rho, memoize=False)
    for other in (cached, bare):
        assert other.sigma2_hat == first.sigma2_hat
        assert other.theta == first.theta
        assert other.states == first.states
        assert other.rho == first.rho
    stats = variance_bound_cache_stats()
    assert stats["hits"] >= 1
    assert stats["misses"] >= 1


@pytest.mark.parametrize("seed", range(4))
def test_skew_bound_memo_matches_uncached(seed):
    clear_bounds_caches()
    rng = np.random.default_rng(1400 + seed)
    lows, highs = _random_intervals(rng, int(rng.integers(3, 20)))
    rho = 0.5
    first = max_skew_bound(lows, highs, rho)
    cached = max_skew_bound(lows, highs, rho)
    bare = max_skew_bound(lows, highs, rho, memoize=False)
    for other in (cached, bare):
        assert other.g1_max == first.g1_max
        assert other.states == first.states
    stats = skew_bound_cache_stats()
    assert stats["hits"] >= 1


def test_bound_memo_keys_on_interval_multiset():
    """Permuting the queries hits the memo: same multiset, same key."""
    clear_bounds_caches()
    rng = np.random.default_rng(31)
    lows, highs = _random_intervals(rng, 16)
    perm = rng.permutation(16)
    base_v = max_variance_bound(lows, highs, 0.5)
    perm_v = max_variance_bound(lows[perm], highs[perm], 0.5)
    assert perm_v.sigma2_hat == base_v.sigma2_hat
    assert perm_v.theta == base_v.theta
    base_s = max_skew_bound(lows, highs, 0.5)
    perm_s = max_skew_bound(lows[perm], highs[perm], 0.5)
    assert perm_s.g1_max == base_s.g1_max
    stats = bounds_cache_stats()
    assert stats["variance"]["hits"] >= 1
    assert stats["skew"]["hits"] >= 1


def test_bound_state_guard_raises():
    lows = np.zeros(4)
    highs = np.full(4, 100.0)
    with pytest.raises(ValueError, match="max_states"):
        max_variance_bound(lows, highs, 0.01, max_states=100)
    with pytest.raises(ValueError, match="max_states"):
        max_skew_bound(lows, highs, 0.01, max_states=100)


# ---------------------------------------------------------------------------
# Batched allocation kernels vs row-at-a-time evaluation
# ---------------------------------------------------------------------------


def _random_problems(rng, B, L):
    sizes = rng.integers(1, 400, size=(B, L)).astype(np.int64)
    variances = rng.uniform(0.0, 9.0, size=(B, L))
    # Degenerate strata: zero variance, singleton strata, empty demand.
    variances[rng.random((B, L)) < 0.2] = 0.0
    sizes[rng.random((B, L)) < 0.1] = 1
    floors = rng.integers(0, 12, size=(B, L)).astype(np.int64)
    floors = np.minimum(floors, sizes)
    # Some rows fully saturated by their floors.
    floors[0] = sizes[0]
    return sizes, variances, floors


@pytest.mark.parametrize("seed", range(5))
def test_neyman_batch_matches_rowwise(seed):
    rng = np.random.default_rng(2100 + seed)
    B, L = int(rng.integers(2, 10)), int(rng.integers(1, 14))
    sizes, variances, floors = _random_problems(rng, B, L)
    std = np.sqrt(variances)
    totals = rng.integers(0, 2 * int(sizes.sum(axis=1).max()), size=B)
    batch = neyman_allocation_batch(sizes, std, totals, floors=floors)
    for b in range(B):
        row = neyman_allocation_batch(
            sizes[b: b + 1], std[b: b + 1], totals[b: b + 1],
            floors=floors[b: b + 1],
        )[0]
        assert np.array_equal(batch[b], row)
        assert int(batch[b].sum()) == min(
            max(int(totals[b]), int(floors[b].sum())), int(sizes[b].sum())
        )


@pytest.mark.parametrize("seed", range(5))
def test_allocation_variance_batch_matches_rowwise(seed):
    rng = np.random.default_rng(2200 + seed)
    B, L = int(rng.integers(2, 10)), int(rng.integers(1, 14))
    sizes, variances, _ = _random_problems(rng, B, L)
    alloc = rng.integers(0, 50, size=(B, L)).astype(np.int64)
    alloc = np.minimum(alloc, sizes)
    # An unsampled *active* stratum (positive variance, size > 1) must
    # drive its row to inf; degenerate strata are skipped instead.
    active0 = np.flatnonzero((variances[0] > 0.0) & (sizes[0] > 1))
    if len(active0):
        alloc[0, active0[0]] = 0
    batch = allocation_variance_batch(
        sizes.astype(np.float64), variances, alloc.astype(np.float64)
    )
    for b in range(B):
        row = allocation_variance_batch(
            sizes[b: b + 1].astype(np.float64),
            variances[b: b + 1],
            alloc[b: b + 1].astype(np.float64),
        )[0]
        assert batch[b] == row or (np.isnan(batch[b]) and np.isnan(row))
    if len(active0):
        assert np.isinf(batch[0])


@pytest.mark.parametrize("seed", range(5))
def test_samples_needed_batch_matches_rowwise(seed):
    rng = np.random.default_rng(2300 + seed)
    B, L = int(rng.integers(2, 9)), int(rng.integers(1, 12))
    sizes, variances, floors = _random_problems(rng, B, L)
    targets = rng.uniform(1e-4, 50.0, size=B)
    targets[rng.random(B) < 0.2] = np.inf  # trivially satisfied rows
    batch = samples_needed_batch(sizes, variances, targets, floors=floors)
    for b in range(B):
        row = samples_needed_batch(
            sizes[b: b + 1], variances[b: b + 1], targets[b: b + 1],
            floors=floors[b: b + 1],
        )[0]
        assert batch[b] == row
        assert int(floors[b].sum()) <= batch[b] <= int(sizes[b].sum())


def test_samples_needed_batch_composition_invariance():
    """Row results do not depend on which rows share the batch."""
    rng = np.random.default_rng(57)
    sizes, variances, floors = _random_problems(rng, 8, 10)
    targets = rng.uniform(1e-3, 20.0, size=8)
    full = samples_needed_batch(sizes, variances, targets, floors=floors)
    half = samples_needed_batch(
        sizes[::2], variances[::2], targets[::2], floors=floors[::2]
    )
    assert np.array_equal(full[::2], half)


# ---------------------------------------------------------------------------
# Incremental Delta stratum scorer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("with_overheads", [False, True])
def test_delta_scorer_matches_repeated_picks(with_overheads):
    rng = np.random.default_rng(4000 + int(with_overheads))
    L, P = 7, 5
    sizes = rng.integers(2, 15, size=L).astype(np.int64)
    pairs = [rng.uniform(0.0, 4.0, size=L) for _ in range(P)]
    pairs[1][2] = 0.0  # a dead stratum for one pair
    counts = rng.integers(0, 5, size=L).astype(np.int64)
    counts = np.minimum(counts, sizes)
    overheads = (
        rng.uniform(0.5, 3.0, size=L) if with_overheads else None
    )
    exhausted = counts >= sizes
    scorer = DeltaStratumScorer(sizes, pairs, counts, overheads=overheads)
    for round_no in range(200):
        expected = pick_delta_stratum(
            sizes, pairs, counts, exhausted, overheads=overheads
        )
        got = scorer.pick(exhausted)
        assert got == expected
        if got is None:
            break
        counts[got] += int(rng.integers(1, 4))
        if counts[got] >= sizes[got]:
            counts[got] = sizes[got]
            exhausted[got] = True
        scorer.refresh(got)
    else:
        pytest.fail("scorer never exhausted the strata")


def test_delta_scorer_no_pairs():
    sizes = np.array([10, 20, 30], dtype=np.int64)
    counts = np.zeros(3, dtype=np.int64)
    exhausted = np.array([True, False, False])
    scorer = DeltaStratumScorer(sizes, [], counts)
    assert scorer.pick(exhausted) == pick_delta_stratum(
        sizes, [], counts, exhausted
    )
    assert scorer.pick(np.ones(3, dtype=bool)) is None


# ---------------------------------------------------------------------------
# Incremental split search vs full reference recompute
# ---------------------------------------------------------------------------


def _split_fixture(rng, T):
    template_sizes = {t: int(rng.integers(3, 120)) for t in range(T)}
    strat = Stratification([tuple(range(T))], template_sizes)
    sizes = np.array([template_sizes[t] for t in range(T)], dtype=np.int64)
    counts = np.minimum(
        rng.integers(2, 30, size=T).astype(np.int64), sizes
    )
    # Continuous draws: no exact ties, so both search orders agree.
    means = rng.normal(scale=10.0, size=T)
    variances = rng.uniform(0.01, 25.0, size=T)
    return strat, sizes, counts, means, variances


@pytest.mark.parametrize("seed", range(4))
def test_propose_split_matches_reference(seed):
    rng = np.random.default_rng(5100 + seed)
    T = int(rng.integers(4, 18))
    strat, sizes, counts, means, variances = _split_fixture(rng, T)
    cache = {}
    for target_var in (1e-3, 0.05, 1.0, 20.0):
        fast = propose_split(
            strat, sizes, counts, means, variances, target_var, 4,
            cache=cache,
        )
        ref = propose_split_reference(
            strat, sizes, counts, means, variances, target_var, 4
        )
        assert (fast is None) == (ref is None)
        if fast is not None:
            assert fast.stratum_idx == ref.stratum_idx
            assert fast.left == ref.left
            assert fast.right == ref.right
            assert fast.expected_samples == ref.expected_samples
            assert fast.baseline_samples == ref.baseline_samples


def test_propose_split_cache_survives_ingests_and_splits():
    """Stamped cache entries stay correct as samples arrive and splits land."""
    rng = np.random.default_rng(61)
    T = 12
    strat, sizes, counts, means, variances = _split_fixture(rng, T)
    cache = {}
    for step in range(6):
        fast = propose_split(
            strat, sizes, counts, means, variances, 0.05, 3, cache=cache
        )
        ref = propose_split_reference(
            strat, sizes, counts, means, variances, 0.05, 3
        )
        assert (fast is None) == (ref is None)
        if fast is not None:
            assert fast.stratum_idx == ref.stratum_idx
            assert (fast.left, fast.right) == (ref.left, ref.right)
            assert fast.expected_samples == ref.expected_samples
            strat = strat.split(fast.stratum_idx, fast.left, fast.right)
        # Simulate an ingest into a few templates: counts grow, the
        # running moments drift.  Stale cache entries must be rebuilt
        # (stamp mismatch), untouched strata must be served from cache.
        touched = rng.choice(T, size=3, replace=False)
        for t in touched:
            counts[t] = min(int(sizes[t]), counts[t] + int(rng.integers(1, 6)))
            means[t] += float(rng.normal(scale=0.5))
            variances[t] = max(1e-6, variances[t] * float(rng.uniform(0.8, 1.2)))


def test_propose_split_degenerate_targets():
    rng = np.random.default_rng(62)
    strat, sizes, counts, means, variances = _split_fixture(rng, 6)
    for bad in (0.0, -1.0, np.inf, np.nan):
        assert propose_split(
            strat, sizes, counts, means, variances, bad, 4, cache={}
        ) is None
        assert propose_split_reference(
            strat, sizes, counts, means, variances, bad, 4
        ) is None
