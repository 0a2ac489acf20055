"""Per-space performance metrics: the depth-weighted node-contribution score
alpha, the answered fraction of a query set, and the coverage threshold flag.

alpha = (1/|N|) * sum over member nodes m of Solutions(m) / (|Q| * (depth(m)+1))

where |N| counts the OR nodes of the full parent graph, the sum ranges over
the sampled member set only, Solutions(m) is the node's own retrieval count,
and depth(m) comes from the parent graph.  Terms are accumulated in sorted
node-id order so the headline value is reproducible bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .engine import Evaluator, Query, SnapshotCache, solutions
from .graph import SearchSpace
from .kb import KnowledgeBase


@dataclass(frozen=True)
class AlphaReport:
    alpha: float
    n_total: int  # |N|: OR nodes of the full graph
    m_count: int  # |M|: member OR nodes of the space
    q_count: int  # |Q|
    terms: tuple[tuple[str, int, int, float], ...]  # (node id, solutions, depth, term)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


@dataclass(frozen=True)
class QaResult:
    attempted: int
    answered: int
    fraction: float
    per_query: tuple[tuple[str, str, int], ...]  # (query text, template id, answer count)
    total_answers: int


def alpha(space: SearchSpace, queries: Sequence[Query], kb: KnowledgeBase) -> AlphaReport:
    """Average per-node ground-fact contribution of the space toward Q, over
    |N| = the OR nodes of the space's graph, counting solutions under the
    genlPreds mode that graph was built with."""
    g = space.graph
    if len(queries) == 0:
        raise ValueError("alpha needs a nonempty query set")
    if g.or_count == 0:
        raise ValueError("alpha needs a graph with at least one OR node")
    qn = len(queries)
    terms = []
    for oid in space.sorted_or_members():
        node = g.or_nodes[oid]
        sols = solutions(node.schema, kb, g.genlpreds_mode)
        term = sols / (qn * (node.depth + 1))
        terms.append((oid, sols, node.depth, term))
    total = 0.0
    for t in terms:
        total += t[3]
    return AlphaReport(
        alpha=total / g.or_count,
        n_total=g.or_count,
        m_count=len(space.or_members),
        q_count=qn,
        terms=tuple(terms),
    )


def answered_fraction(
    space: SearchSpace,
    kb: KnowledgeBase,
    queries: Sequence[Query],
    depth_limit: int,
    genlpreds_mode: bool = True,
    cache: Optional[SnapshotCache] = None,
) -> QaResult:
    """Answer every query with the space's retained axioms and report
    coverage plus the total distinct answers (the model-comparison metric).
    With a cache, each query whose cone is free of recursion reads the
    store's relation of its predicate, shared with the snapshot's other
    spaces and their depth profiles; the other queries, and every query
    without a cache, are backchained.  Both give the same answers.
    A genlpreds_mode other than the graph's raises ValueError."""
    if len(queries) == 0:
        raise ValueError("answered_fraction needs a nonempty query set")
    axioms = space.graph.axioms.restrict(space.retained_axiom_ids())
    ev = Evaluator(kb, axioms, genlpreds_mode, cache)
    if genlpreds_mode != space.graph.genlpreds_mode:
        raise ValueError(f"genlPreds mode {genlpreds_mode} differs from the space's graph's")
    per_query = []
    answered = 0
    total = 0
    for q in queries:
        n = len(ev.ask(q, depth_limit))
        per_query.append((q.text, q.template_id, n))
        if n > 0:
            answered += 1
        total += n
    return QaResult(
        attempted=len(queries),
        answered=answered,
        fraction=answered / len(queries),
        per_query=tuple(per_query),
        total_answers=total,
    )


def threshold_hit(fraction: float, theta: float = 0.2) -> bool:
    """Inclusive coverage threshold (>= theta)."""
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    return fraction >= theta
