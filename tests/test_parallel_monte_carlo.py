"""Parallel Monte Carlo harness: bit-identity, seeding, worker plumbing.

The process-parallel runners in :mod:`repro.experiments.parallel` must
be drop-in replacements for the serial loops: same seed -> same numbers
to the last bit, for any worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.selector import SelectorOptions
from repro.experiments.monte_carlo import (
    SchemeSpec,
    multi_config_table as serial_table,
    prcs_curve as serial_curve,
)
from repro.experiments.parallel import (
    _chunked,
    multi_config_table,
    prcs_curve,
    resolve_workers,
    spawn_trial_rngs,
)
from repro.experiments.profiling import PhaseTimer, cache_hit_report
from repro.optimizer import WhatIfOptimizer


@pytest.fixture(scope="module")
def mc_problem():
    """A small ground-truth matrix with a clear-but-not-trivial winner."""
    rng = np.random.default_rng(42)
    n, k = 240, 4
    base = rng.lognormal(mean=3.0, sigma=1.0, size=(n, 1))
    offsets = np.array([1.0, 0.92, 1.05, 0.97])
    noise = rng.lognormal(mean=0.0, sigma=0.25, size=(n, k))
    matrix = base * offsets * noise
    template_ids = rng.integers(0, 12, size=n)
    return matrix, template_ids


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0) >= 1


class TestSpawnTrialRngs:
    def test_deterministic_and_independent(self):
        a = spawn_trial_rngs(9, 4)
        b = spawn_trial_rngs(9, 4)
        draws_a = [r.random(3).tolist() for r in a]
        draws_b = [r.random(3).tolist() for r in b]
        assert draws_a == draws_b
        # Distinct streams.
        assert draws_a[0] != draws_a[1]


class TestChunking:
    def test_partition_preserves_order(self):
        items = list(range(17))
        chunks = _chunked(items, 4)
        assert [x for c in chunks for x in c] == items
        assert len(chunks) <= 5

    def test_more_chunks_than_items(self):
        chunks = _chunked([1, 2], 8)
        assert [x for c in chunks for x in c] == [1, 2]


class TestBitIdentity:
    """workers=4 must replay the serial stream exactly."""

    def test_prcs_curve_matches_serial(self, mc_problem):
        matrix, tids = mc_problem
        spec = SchemeSpec(scheme="delta", stratify="none")
        budgets = [20, 40, 80]
        serial = serial_curve(
            matrix, tids, spec, budgets, trials=24, seed=5
        )
        parallel_1 = prcs_curve(
            matrix, tids, spec, budgets, trials=24, seed=5, workers=1
        )
        parallel_4 = prcs_curve(
            matrix, tids, spec, budgets, trials=24, seed=5, workers=4
        )
        assert np.array_equal(serial, parallel_1)
        assert np.array_equal(serial, parallel_4)

    def test_prcs_curve_stratified_matches_serial(self, mc_problem):
        matrix, tids = mc_problem
        spec = SchemeSpec(scheme="delta", stratify="progressive")
        budgets = [40, 80]
        serial = serial_curve(
            matrix, tids, spec, budgets, trials=12, seed=3
        )
        parallel_4 = prcs_curve(
            matrix, tids, spec, budgets, trials=12, seed=3, workers=4
        )
        assert np.array_equal(serial, parallel_4)

    def test_multi_config_table_matches_serial(self, mc_problem):
        matrix, tids = mc_problem
        kwargs = dict(alpha=0.85, trials=16, seed=11, n_min=10,
                      consecutive=4)
        serial = serial_table(matrix, tids, **kwargs)
        parallel_4 = multi_config_table(matrix, tids, workers=4, **kwargs)
        assert serial == parallel_4

    def test_workers_env_used_when_unset(self, mc_problem, monkeypatch):
        matrix, tids = mc_problem
        monkeypatch.setenv("REPRO_WORKERS", "2")
        spec = SchemeSpec(scheme="independent", stratify="none")
        serial = serial_curve(matrix, tids, spec, [30], trials=8, seed=1)
        via_env = prcs_curve(matrix, tids, spec, [30], trials=8, seed=1)
        assert np.array_equal(serial, via_env)


class TestSelectorOptionValidation:
    def test_reeval_every_must_be_positive(self):
        with pytest.raises(ValueError, match="reeval_every"):
            SelectorOptions(reeval_every=0)

    def test_valid_options_pass(self):
        SelectorOptions(reeval_every=1)


class TestProfilingLayer:
    def test_phase_timer_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        d = timer.as_dict()
        assert set(d) == {"a", "b"}
        assert timer.seconds("a") >= 0.0
        assert timer.total == pytest.approx(sum(d.values()))

    def test_cache_hit_report_rates(self, small_schema, join_query,
                                    indexed_config, empty_config):
        opt = WhatIfOptimizer(small_schema)
        opt.cost(join_query, indexed_config)
        opt.cost(join_query, indexed_config)
        opt.cost(join_query, empty_config)
        report = cache_hit_report(opt)
        assert report["calls"] == 2
        assert report["cache_hits"] == 1
        assert 0.0 <= report["pair_hit_rate"] <= 1.0
        assert 0.0 <= report["fingerprint_hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# chunk salvage (PR 5): worker failures must not discard completed work
# ----------------------------------------------------------------------
import os

from repro.experiments.parallel import ChunkFailure, _run_chunks
from repro.experiments import parallel as parallel_mod

_PARENT_PID = os.getpid()
_INIT_ARGS = (
    np.zeros((2, 2), dtype=np.float64),
    np.zeros(2, dtype=np.int64),
)


def _worker_only_failure(payload):
    """Fails in pool workers, succeeds in the parent's serial retry."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("simulated worker fault")
    return [x * 2 for x in payload]


def _always_fails(payload):
    raise ValueError("deterministically broken chunk")


def _dies_in_worker(payload):
    """Hard-kills the worker process (BrokenProcessPool in the parent)."""
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return [x * 2 for x in payload]


class TestChunkSalvage:
    def test_worker_failures_retried_serially(self):
        payloads = [[1, 2], [3, 4], [5]]
        out = _run_chunks(
            _worker_only_failure, payloads,
            lambda i: f"chunk {i}", workers=2, init_args=_INIT_ARGS,
        )
        assert out == [[2, 4], [6, 8], [10]]

    def test_killed_worker_salvaged_via_serial_retry(self):
        payloads = [[1], [2], [3]]
        out = _run_chunks(
            _dies_in_worker, payloads,
            lambda i: f"chunk {i}", workers=2, init_args=_INIT_ARGS,
        )
        assert out == [[2], [4], [6]]

    def test_double_failure_names_the_chunk(self):
        with pytest.raises(ChunkFailure) as excinfo:
            _run_chunks(
                _always_fails, [[0, 1], [2, 3]],
                lambda i: f"trials chunk {i} (seed=42)",
                workers=2, init_args=_INIT_ARGS,
            )
        message = str(excinfo.value)
        assert "trials chunk" in message
        assert "seed=42" in message
        assert isinstance(excinfo.value.pool_error, Exception)
        # The serial retry's error is chained as the cause.
        assert excinfo.value.__cause__ is not None

    def test_table_results_survive_worker_faults(
        self, mc_problem, monkeypatch
    ):
        """End to end: flaky workers, bit-identical final table."""
        matrix, template_ids = mc_problem
        expected = serial_table(
            matrix, template_ids, trials=8, seed=3, n_min=10,
            consecutive=3,
        )

        real_chunk = parallel_mod._table_chunk

        def flaky_chunk(args):
            if os.getpid() != _PARENT_PID:
                raise RuntimeError("simulated worker fault")
            return real_chunk(args)

        monkeypatch.setattr(parallel_mod, "_table_chunk", flaky_chunk)
        got = multi_config_table(
            matrix, template_ids, trials=8, seed=3, n_min=10,
            consecutive=3, workers=2,
        )
        assert got == expected
