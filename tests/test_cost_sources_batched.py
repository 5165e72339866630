"""Tests for the vectorized cost-source API and batched-selector knobs.

Covers the PR 3 satellites around the batched sampling engine:

* ``CostSource.cost_many`` on both concrete sources — values, distinct
  optimizer-call accounting, cache-hit clustering, the scalar fallback;
* the packed ``q * k + c`` touched-set regression of
  :class:`MatrixCostSource`;
* mid-batch ``max_calls`` truncation of the draw-ahead selector;
* validation of the new :class:`SelectorOptions` batching knobs;
* agreement of the incremental (Welford) pairwise accumulators with the
  exact buffer recomputation to 1e-9, across splits and warm starts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MatrixCostSource, OptimizerCostSource
from repro.core.estimators import DeltaState
from repro.core.selector import ConfigurationSelector, SelectorOptions
from repro.core.sources import CostSource, resolve_cost_workers
from repro.core.stratification import Stratification
from repro.optimizer import WhatIfOptimizer
from repro.physical import build_pool, enumerate_configurations
from repro.workload import Workload
from repro.workload.tpcd import tpcd_generator, tpcd_schema


# ----------------------------------------------------------------------
# MatrixCostSource.cost_many + packed touched-set regression
# ----------------------------------------------------------------------
class TestMatrixCostMany:
    def _source(self):
        matrix = np.arange(24, dtype=np.float64).reshape(6, 4)
        return MatrixCostSource(matrix), matrix

    def test_values_match_scalar_loop(self):
        src, matrix = self._source()
        pairs = np.array([[0, 0], [5, 3], [2, 1], [2, 1], [4, 2]])
        batched = src.cost_many(pairs)
        scalar = [matrix[q, c] for q, c in pairs]
        assert batched.dtype == np.float64
        np.testing.assert_array_equal(batched, scalar)

    def test_duplicates_count_once(self):
        src, _ = self._source()
        src.cost_many([[1, 1], [1, 1], [2, 0], [1, 1]])
        assert src.calls == 2

    def test_scalar_and_vector_paths_share_accounting(self):
        src, _ = self._source()
        src.cost(3, 2)
        src.cost_many([[3, 2], [3, 3]])  # (3, 2) already touched
        assert src.calls == 2
        src.cost(3, 3)  # already touched via the batch
        assert src.calls == 2

    def test_touched_set_is_packed_ints(self):
        src, matrix = self._source()
        k = matrix.shape[1]
        src.cost(1, 2)
        src.cost_many([[4, 0], [0, 3]])
        assert src._touched == {1 * k + 2, 4 * k + 0, 0 * k + 3}
        assert all(isinstance(key, int) for key in src._touched)

    def test_reset_calls_clears_batched_touches(self):
        src, _ = self._source()
        src.cost_many([[0, 0], [1, 1]])
        assert src.calls == 2
        src.reset_calls()
        assert src.calls == 0
        src.cost_many([[0, 0]])
        assert src.calls == 1

    def test_empty_batch(self):
        src, _ = self._source()
        out = src.cost_many([])
        assert out.shape == (0,)
        assert src.calls == 0

    def test_rejects_bad_shape(self):
        src, _ = self._source()
        with pytest.raises(ValueError):
            src.cost_many(np.ones((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            src.cost_many([1, 2, 3])


class _ScalarOnlySource(CostSource):
    """A source that only implements the scalar protocol."""

    def __init__(self, matrix):
        self._matrix = matrix
        self.scalar_calls = 0

    @property
    def n_queries(self):
        return self._matrix.shape[0]

    @property
    def n_configs(self):
        return self._matrix.shape[1]

    def cost(self, query_idx, config_idx):
        self.scalar_calls += 1
        return float(self._matrix[query_idx, config_idx])

    @property
    def calls(self):
        return self.scalar_calls


class TestCostManyFallback:
    def test_default_falls_back_to_scalar(self):
        matrix = np.arange(6, dtype=np.float64).reshape(3, 2)
        src = _ScalarOnlySource(matrix)
        pairs = [[0, 0], [2, 1], [1, 0]]
        out = src.cost_many(pairs)
        np.testing.assert_array_equal(
            out, [matrix[q, c] for q, c in pairs]
        )
        assert src.scalar_calls == 3

    def test_fallback_empty_batch(self):
        src = _ScalarOnlySource(np.ones((2, 2)))
        assert src.cost_many([]).shape == (0,)
        assert src.scalar_calls == 0


# ----------------------------------------------------------------------
# OptimizerCostSource.cost_many: counters, clustering, pooling
# ----------------------------------------------------------------------
def _tpcd_instance(size, k, seed=0):
    schema = tpcd_schema(scale_factor=0.1)
    workload = tpcd_generator(schema=schema).generate(
        size, np.random.default_rng(seed)
    )
    pool = build_pool(workload.queries, WhatIfOptimizer(schema))
    configs = enumerate_configurations(pool, k, np.random.default_rng(seed))
    return schema, workload, configs


class TestOptimizerCostMany:
    def test_matches_scalar_loop_values_and_counters(self):
        schema, workload, configs = _tpcd_instance(30, 3)
        rng = np.random.default_rng(11)
        qs = rng.integers(0, workload.size, size=60)
        cs = rng.integers(0, len(configs), size=60)
        pairs = np.stack([qs, cs], axis=1)

        serial_opt = WhatIfOptimizer(schema)
        serial_src = OptimizerCostSource(workload, configs, serial_opt)
        serial_vals = np.array(
            [serial_src.cost(int(q), int(c)) for q, c in pairs]
        )

        batch_opt = WhatIfOptimizer(schema)
        batch_src = OptimizerCostSource(workload, configs, batch_opt)
        batch_vals = batch_src.cost_many(pairs)

        np.testing.assert_array_equal(batch_vals, serial_vals)
        # Distinct-call accounting, cache hits and fingerprint hits are
        # all order-invariant totals — the batch must land on exactly
        # the scalar loop's counters.
        assert batch_src.calls == serial_src.calls
        assert batch_opt.calls == serial_opt.calls
        assert batch_opt.cache_hits == serial_opt.cache_hits
        assert batch_opt.fingerprint_hits == serial_opt.fingerprint_hits

    def test_repeated_batch_is_all_cache_hits(self):
        schema, workload, configs = _tpcd_instance(12, 2)
        src = OptimizerCostSource(
            workload, configs, WhatIfOptimizer(schema)
        )
        pairs = [[q, c] for q in range(workload.size)
                 for c in range(len(configs))]
        first = src.cost_many(pairs)
        calls_after_first = src.calls
        second = src.cost_many(pairs)
        np.testing.assert_array_equal(first, second)
        assert src.calls == calls_after_first == len(pairs)

    def test_batch_order_clusters_templates(self):
        _, workload, configs = _tpcd_instance(40, 2)
        src = OptimizerCostSource(
            workload, configs, WhatIfOptimizer(tpcd_schema(0.1))
        )
        rng = np.random.default_rng(3)
        pairs = np.stack(
            [
                rng.permutation(workload.size),
                rng.integers(0, len(configs), size=workload.size),
            ],
            axis=1,
        )
        order = src._batch_order(pairs)
        tids = np.asarray(workload.template_ids)[pairs[order, 0]]
        assert (np.diff(tids) >= 0).all()
        # Within a template, query-major: all lookups of one statement
        # run back to back.
        qs = pairs[order, 0]
        for t in np.unique(tids):
            qt = qs[tids == t]
            assert (np.diff(qt) >= 0).all()

    def test_empty_batch(self):
        schema, workload, configs = _tpcd_instance(5, 2)
        src = OptimizerCostSource(
            workload, configs, WhatIfOptimizer(schema)
        )
        assert src.cost_many([]).shape == (0,)
        assert src.calls == 0

    def test_small_workload_fixture(self, optimizer, empty_config,
                                    indexed_config, point_query,
                                    join_query):
        wl = Workload([point_query, join_query])
        src = OptimizerCostSource(
            wl, [empty_config, indexed_config], optimizer
        )
        pairs = [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0]]
        vals = src.cost_many(pairs)
        assert vals.shape == (5,)
        assert src.calls == 4  # duplicate (0, 0) is free
        np.testing.assert_array_equal(vals[0], vals[4])

    def test_pooled_identical_to_serial(self):
        schema, workload, configs = _tpcd_instance(20, 2)
        pairs = np.array(
            [[q, c] for q in range(workload.size)
             for c in range(len(configs))],
            dtype=np.int64,
        )
        assert len(pairs) >= OptimizerCostSource.POOL_MIN_BATCH

        serial_opt = WhatIfOptimizer(schema)
        serial_src = OptimizerCostSource(workload, configs, serial_opt)
        serial_vals = serial_src.cost_many(pairs)

        pooled_opt = WhatIfOptimizer(schema)
        pooled_src = OptimizerCostSource(
            workload, configs, pooled_opt, workers=2
        )
        assert resolve_cost_workers(2) == 2
        try:
            pooled_vals = pooled_src.cost_many(pairs)
        finally:
            pooled_src.close()

        np.testing.assert_array_equal(pooled_vals, serial_vals)
        assert pooled_src.calls == serial_src.calls == len(pairs)
        assert pooled_opt.calls == serial_opt.calls
        assert pooled_opt.cache_hits == serial_opt.cache_hits
        assert pooled_opt.fingerprint_hits == serial_opt.fingerprint_hits

    def test_pooled_small_batch_serves_serially(self):
        schema, workload, configs = _tpcd_instance(5, 2)
        src = OptimizerCostSource(
            workload, configs, WhatIfOptimizer(schema), workers=2
        )
        try:
            # 10 pairs < POOL_MIN_BATCH: must not spin up the pool.
            vals = src.cost_many(
                [[q, c] for q in range(5) for c in range(2)]
            )
        finally:
            src.close()
        assert vals.shape == (10,)
        assert src._pool is None
        assert src.calls == 10


# ----------------------------------------------------------------------
# mid-batch max_calls truncation
# ----------------------------------------------------------------------
def _clustered_matrix(n=400, t=16, k=5, seed=123):
    rng = np.random.default_rng(seed)
    template_ids = np.sort(rng.integers(0, t, size=n))
    base = rng.lognormal(3.0, 1.0, size=t)
    factor = 1.0 + 0.12 * rng.standard_normal((t, k))
    noise = rng.lognormal(0.0, 0.15, size=(n, k))
    matrix = base[template_ids][:, None] * factor[template_ids] * noise
    return matrix, template_ids


class TestBatchedBudgetTruncation:
    @pytest.mark.parametrize("stratify", ["progressive", "none"])
    def test_delta_batch_respects_budget(self, stratify):
        matrix, template_ids = _clustered_matrix()
        k = matrix.shape[1]
        max_calls = 600
        options = SelectorOptions(
            alpha=0.999,
            scheme="delta",
            stratify=stratify,
            n_min=8,
            consecutive=10**9,  # never terminate on alpha
            eliminate=False,
            max_calls=max_calls,
            reeval_every=2,
            batch_rounds=16,
        )
        result = ConfigurationSelector(
            MatrixCostSource(matrix), template_ids, options,
            rng=np.random.default_rng(5),
        ).run()
        assert result.terminated_by == "max_calls"
        # A delta round costs one call per active configuration; the
        # draw-ahead must truncate mid-batch rather than overshoot by
        # whole batches.
        assert result.optimizer_calls <= max_calls + k
        assert result.optimizer_calls >= max_calls - k

    def test_independent_batch_respects_budget(self):
        matrix, template_ids = _clustered_matrix()
        max_calls = 500
        options = SelectorOptions(
            alpha=0.999,
            scheme="independent",
            stratify="progressive",
            n_min=8,
            consecutive=10**9,
            eliminate=False,
            max_calls=max_calls,
            reeval_every=2,
            batch_rounds=16,
        )
        result = ConfigurationSelector(
            MatrixCostSource(matrix), template_ids, options,
            rng=np.random.default_rng(5),
        ).run()
        assert result.terminated_by == "max_calls"
        assert result.optimizer_calls <= max_calls + 1

    def test_budget_truncation_on_optimizer_source(self):
        schema, workload, configs = _tpcd_instance(60, 3)
        max_calls = 100
        options = SelectorOptions(
            alpha=0.999,
            scheme="delta",
            stratify="progressive",
            n_min=6,
            consecutive=10**9,
            eliminate=False,
            max_calls=max_calls,
            reeval_every=2,
            batch_rounds=8,
        )
        src = OptimizerCostSource(
            workload, configs, WhatIfOptimizer(schema)
        )
        result = ConfigurationSelector(
            src, workload.template_ids, options,
            rng=np.random.default_rng(1),
        ).run()
        assert result.terminated_by == "max_calls"
        assert result.optimizer_calls <= max_calls + len(configs)
        assert src.calls == result.optimizer_calls


# ----------------------------------------------------------------------
# SelectorOptions validation of the batching knobs
# ----------------------------------------------------------------------
class TestBatchingOptionValidation:
    def test_valid_combinations_accepted(self):
        SelectorOptions(batch_rounds=1)
        SelectorOptions(batch_rounds=64)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rejects_nonpositive_batch_rounds(self, rounds):
        with pytest.raises(ValueError, match="batch_rounds"):
            SelectorOptions(batch_rounds=rounds)

    def test_delta_state_rejects_unknown_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            DeltaState(
                2, 1, {0: np.arange(4)}, np.random.default_rng(0),
                estimator="bogus",
            )


# ----------------------------------------------------------------------
# incremental (Welford) vs exact (buffer) pairwise accumulators
# ----------------------------------------------------------------------
def _template_layout(n_templates=4, per_template=30):
    indices = {}
    sizes = {}
    start = 0
    for t in range(n_templates):
        indices[t] = np.arange(start, start + per_template)
        sizes[t] = per_template
        start += per_template
    return indices, sizes


def _fresh_pair(estimator, indices, seed=0):
    return DeltaState(
        3, len(indices), indices,
        np.random.default_rng(seed), estimator=estimator,
    )


def _ingest_rounds(states, rng, tids, rounds):
    """Feed identical draws into every state (bypassing the sampler)."""
    for r in range(rounds):
        tid = int(tids[r % len(tids)])
        values = rng.lognormal(2.0, 0.5, size=3)
        for state in states:
            state.ingest(r, tid, [0, 1, 2], list(values))


def _assert_pair_agreement(buffer_state, welford_state, strat):
    for l, j in [(0, 1), (1, 0), (0, 2), (2, 1)]:
        eb, vb = buffer_state.pair_estimate(l, j, strat)
        ew, vw = welford_state.pair_estimate(l, j, strat)
        np.testing.assert_allclose(ew, eb, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(vw, vb, rtol=1e-9, atol=1e-9)
        mb = buffer_state.pair_stratum_moments(l, j, strat)
        mw = welford_state.pair_stratum_moments(l, j, strat)
        assert [m[0] for m in mw] == [m[0] for m in mb]
        np.testing.assert_allclose(
            [m[1] for m in mw], [m[1] for m in mb],
            rtol=1e-9, atol=1e-9,
        )
        np.testing.assert_allclose(
            [m[2] for m in mw], [m[2] for m in mb],
            rtol=1e-9, atol=1e-9,
        )


class TestWelfordBufferAgreement:
    def test_agreement_through_splits(self):
        indices, sizes = _template_layout()
        buffer_state = _fresh_pair("buffer", indices)
        welford_state = _fresh_pair("welford", indices)
        rng = np.random.default_rng(77)
        strat = Stratification.single(sizes)

        # Interleave ingestion with reads so the Welford accumulators
        # genuinely advance incrementally rather than in one sweep.
        _ingest_rounds([buffer_state, welford_state], rng,
                       tids=[0, 1, 2, 3], rounds=12)
        _assert_pair_agreement(buffer_state, welford_state, strat)

        _ingest_rounds([buffer_state, welford_state], rng,
                       tids=[1, 3], rounds=9)
        strat = strat.split(0, [0, 1], [2, 3])
        _assert_pair_agreement(buffer_state, welford_state, strat)

        _ingest_rounds([buffer_state, welford_state], rng,
                       tids=[0, 2, 2], rounds=15)
        strat = strat.split(1, [2], [3])
        _assert_pair_agreement(buffer_state, welford_state, strat)

    def test_agreement_after_warm_start(self):
        indices, sizes = _template_layout()
        donor = _fresh_pair("buffer", indices, seed=1)
        rng = np.random.default_rng(99)
        _ingest_rounds([donor], rng, tids=[0, 1, 2], rounds=18)
        carried = donor.export_samples()

        buffer_state = _fresh_pair("buffer", indices, seed=2)
        welford_state = _fresh_pair("welford", indices, seed=2)
        assert buffer_state.import_samples(carried) > 0
        assert welford_state.import_samples(carried) > 0

        strat = Stratification.single(sizes).split(0, [0, 2], [1, 3])
        _assert_pair_agreement(buffer_state, welford_state, strat)

        # Continue sampling after the warm start and re-check.
        _ingest_rounds([buffer_state, welford_state], rng,
                       tids=[1, 2, 3], rounds=12)
        _assert_pair_agreement(buffer_state, welford_state, strat)

    def test_total_estimates_identical(self):
        # estimate_total reads the shared MomentGrid, which is common
        # to both modes — it must be bitwise identical.
        indices, sizes = _template_layout()
        buffer_state = _fresh_pair("buffer", indices)
        welford_state = _fresh_pair("welford", indices)
        rng = np.random.default_rng(5)
        _ingest_rounds([buffer_state, welford_state], rng,
                       tids=[0, 1, 2, 3, 3], rounds=20)
        strat = Stratification.single(sizes)
        for c in range(3):
            assert (
                buffer_state.estimate_total(c, strat)
                == welford_state.estimate_total(c, strat)
            )
