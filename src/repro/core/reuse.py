"""Follower-reuse bookkeeping between greedy rounds (Algorithm 5 / Lemma 5).

After an anchor is committed, most of the per-edge follower sets computed in
the previous round are still valid: trussness changes are confined to the
anchor's followers, and follower sets are cached *per tree node*
(``F[e][id]``).  This module decides which cached entries survive.

The invalidation rule is the paper's Algorithm 5 extended conservatively
(DESIGN.md §3.3): a cached entry ``F[e][id]`` is kept only when

* the node ``id`` exists before and after the anchoring with an identical
  edge set and identical per-edge trussness / layer values,
* ``id`` is not in ``sla(x)`` of the committed anchor ``x`` (the anchor's
  infinite support may enable new followers in any adjacent node, even one
  whose own edges did not move), and
* the trussness and layer of ``e`` itself did not change.

The conservative rule can only invalidate *more* entries than the paper's
rule, so GAS remains exactly equivalent to BASE+; the reuse-rate experiment
(Fig. 10) shows that the overwhelming majority of entries is still reused.

The engine assembles each commit's decision from its component-tree patch
(:meth:`repro.core.engine.SolverEngine.take_reuse_decision`); the rule as a
full before/after tree diff is the oracle
:func:`repro.oracles.compute_reuse_decision_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set


@dataclass
class ReuseDecision:
    """Outcome of the invalidation analysis for one committed anchor."""

    #: Node ids whose cached follower entries must be recomputed.
    invalid_node_ids: Set[int] = field(default_factory=set)
    #: Dense ids of the edges whose whole cache entry must be dropped (their
    #: own t/l changed, or they became anchors).
    invalid_eids: Set[int] = field(default_factory=set)


@dataclass
class ReuseInvalidation:
    """A :class:`ReuseDecision` plus the candidate edges it can affect.

    Produced by :meth:`repro.core.engine.SolverEngine.take_reuse_decision`
    after a committed anchor.  ``dirty_eids`` is an exact superset of the
    dense edge ids whose cached follower entries (or reuse classification)
    can differ from the previous round; every other candidate is guaranteed
    fully reusable with an unchanged gain, so the GAS candidate heap and
    BASE re-examine only the dirty ones.
    """

    decision: ReuseDecision
    dirty_eids: Set[int]


@dataclass
class ReuseStats:
    """Per-round reuse statistics (the FR / PR / NR split of Fig. 10)."""

    fully_reusable: int = 0
    partially_reusable: int = 0
    non_reusable: int = 0

    @property
    def total(self) -> int:
        return self.fully_reusable + self.partially_reusable + self.non_reusable

    def fractions(self) -> Dict[str, float]:
        total = max(1, self.total)
        return {
            "FR": self.fully_reusable / total,
            "PR": self.partially_reusable / total,
            "NR": self.non_reusable / total,
        }


def classify_reuse(
    cached_ids: Set[int],
    decision: ReuseDecision,
    eid: int,
) -> str:
    """Classify the cache entry of dense edge ``eid`` as "FR", "PR" or "NR"
    (Fig. 10).

    ``cached_ids`` is only read (membership tests), so callers may pass a
    shared set without copying.
    """
    if eid in decision.invalid_eids or not cached_ids:
        return "NR"
    invalid_node_ids = decision.invalid_node_ids
    invalid = sum(1 for node_id in cached_ids if node_id in invalid_node_ids)
    if not invalid:
        return "FR"
    if invalid == len(cached_ids):
        return "NR"
    return "PR"
