"""Search strategies over the comparison primitive.

Section 1 of the paper positions the primitive as "the core comparison
primitive inside an automated physical design tool, providing both
scalability and locally good decisions with probabilistic guarantees on
the accuracy of each comparison.  Depending on the search strategy
used, the latter can be extended to guarantees on the quality of the
final result."

This module implements that extension: a **knockout tournament** over
the candidate configurations.  Each round halves the field by pairwise
comparisons; a union bound over the ``ceil(log2 k)`` comparisons on the
eventual winner's path converts per-comparison guarantees into an
end-to-end guarantee:

    Pr(winner within delta per round of the best)
        >= 1 - sum of per-round error budgets.

Compared to running Algorithm 1 once over all ``k`` configurations,
the tournament evaluates each sampled query in at most 2 live
configurations (vs up to ``k`` for Delta Sampling before elimination),
which can win when ``k`` is large and the field is full of near-ties
that elimination cannot drop quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .selector import ConfigurationSelector, SelectorOptions
from .sources import CostSource

__all__ = ["TournamentResult", "knockout_tournament"]


class _PairView(CostSource):
    """A two-configuration view over a wider cost source."""

    def __init__(self, parent: CostSource, left: int, right: int) -> None:
        self._parent = parent
        self._pair = (left, right)

    @property
    def n_queries(self) -> int:
        return self._parent.n_queries

    @property
    def n_configs(self) -> int:
        return 2

    def cost(self, query_idx: int, config_idx: int) -> float:
        return self._parent.cost(query_idx, self._pair[config_idx])

    @property
    def calls(self) -> int:
        return self._parent.calls


@dataclass
class TournamentResult:
    """Outcome of a knockout tournament."""

    best_index: int
    guarantee: float
    optimizer_calls: int
    rounds: List[List[Tuple[int, int, int]]] = field(
        default_factory=list
    )  #: per round: (left, right, winner) triples

    @property
    def round_count(self) -> int:
        """Number of knockout rounds played."""
        return len(self.rounds)


def knockout_tournament(
    source: CostSource,
    template_ids: np.ndarray,
    alpha: float = 0.9,
    delta: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    options: Optional[SelectorOptions] = None,
) -> TournamentResult:
    """Select the best configuration by a knockout tournament.

    Parameters
    ----------
    source:
        Cost source over all ``k`` configurations.
    template_ids:
        Per-query template ids (stratification atoms).
    alpha:
        End-to-end target: the returned configuration is within
        ``delta`` per round of the best with probability >= ``alpha``.
        The error budget ``1 - alpha`` is split evenly across the
        ``ceil(log2 k)`` rounds.
    delta:
        Per-comparison sensitivity (regret accumulates additively
        across rounds in the guarantee).
    options:
        Base selector options for each pairwise comparison; ``alpha``
        and ``delta`` fields are overridden per round.

    Returns
    -------
    TournamentResult
        Winner, the end-to-end guarantee actually achieved (combining
        the per-comparison ``Pr(CS)`` values on the winner's path via
        a union bound), total optimizer calls and the full bracket.
    """
    rng = rng if rng is not None else np.random.default_rng()
    k = source.n_configs
    if k < 1:
        raise ValueError("need at least one configuration")
    if k == 1:
        return TournamentResult(0, 1.0, 0, [])

    rounds_needed = max(1, math.ceil(math.log2(k)))
    per_round_alpha = 1.0 - (1.0 - alpha) / rounds_needed
    base = options if options is not None else SelectorOptions()

    start_calls = source.calls
    field_indices = list(range(k))
    rng.shuffle(field_indices)
    bracket: List[List[Tuple[int, int, int]]] = []
    # Pr(CS) of the comparisons along each surviving config's path.
    path_prcs = {i: [] for i in field_indices}

    while len(field_indices) > 1:
        next_round: List[int] = []
        games: List[Tuple[int, int, int]] = []
        it = iter(field_indices)
        for left in it:
            right = next(it, None)
            if right is None:
                next_round.append(left)  # bye
                continue
            pair_source = _PairView(source, left, right)
            round_options = SelectorOptions(
                alpha=per_round_alpha,
                delta=delta,
                scheme=base.scheme,
                stratify=base.stratify,
                n_min=base.n_min,
                consecutive=base.consecutive,
                eliminate=False,
                elimination_threshold=base.elimination_threshold,
                max_calls=base.max_calls,
                reeval_every=base.reeval_every,
            )
            result = ConfigurationSelector(
                pair_source, template_ids, round_options, rng=rng
            ).run()
            winner = left if result.best_index == 0 else right
            loser = right if winner == left else left
            games.append((left, right, winner))
            path_prcs[winner].append(result.prcs)
            path_prcs.pop(loser, None)
            next_round.append(winner)
        bracket.append(games)
        field_indices = next_round

    winner = field_indices[0]
    # Union bound over the winner's path.
    guarantee = max(
        0.0, 1.0 - sum(1.0 - p for p in path_prcs.get(winner, []))
    )
    return TournamentResult(
        best_index=winner,
        guarantee=guarantee,
        optimizer_calls=source.calls - start_calls,
        rounds=bracket,
    )
