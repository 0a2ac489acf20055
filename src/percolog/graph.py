"""Cycle-free AND/OR query graphs built from a Horn axiom set.

OR nodes are goal schemas: (predicate, arity, bound/open mask).  The mask is
an adornment: a position is bound when the query supplies a constant there,
and bindings flow left-to-right through rule bodies the same way the engine
evaluates them.  AND nodes are rule applications, one child OR node per body
atom.  Construction is breadth-first from the root schemas with global
deduplication; any rule application whose body would point back at an
ancestor schema is dropped, which keeps the graph acyclic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from .kb import Atom, AxiomSet, HornClause, KbError, KnowledgeBase, Variable, _topo_order, parse_kb


class GraphCycleError(Exception):
    """A graph or space unexpectedly lost its DAG property."""


@dataclass(frozen=True)
class GoalSchema:
    predicate: str
    arity: int
    mask: tuple[bool, ...]  # True = bound by the query

    def __post_init__(self) -> None:
        if len(self.mask) != self.arity:
            raise ValueError(f"mask length {len(self.mask)} != arity {self.arity}")


@dataclass
class OrNode:
    id: str
    schema: GoalSchema
    depth: int
    children: tuple[str, ...] = ()  # AND node ids

    @property
    def predicate(self) -> str:
        return self.schema.predicate

    @property
    def arity(self) -> int:
        return self.schema.arity


@dataclass
class AndNode:
    id: str
    clause_id: str
    parent: str  # OR node id
    children: tuple[str, ...]  # OR node ids, one per body atom


def _read_doc(text: str, kind: str) -> dict:
    """The JSON object of a percolog graph or space file; KbError for any
    other document."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise KbError(f"not a percolog {kind} file (not a JSON object)")
    if doc.get("format") != f"percolog-{kind}@1":
        raise KbError(f"not a percolog {kind} file (format={doc.get('format')!r})")
    return doc


def _id_list(value: object, what: str) -> list[str]:
    """A JSON list of node or rule ids; KbError naming the field otherwise."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise KbError(f"{what} must be a list of id strings")
    return value


def _id_key(node_id: str) -> int:
    return int(node_id[1:])


# the sampling cell a space file records, in both JSON directions
PROVENANCE_KEYS = ("model", "k", "beta", "seed", "replicate")


class AndOrGraph:
    """The full query graph G.  ``|N|`` (the alpha denominator) counts OR
    nodes only; AND nodes are rule applications between them."""

    def __init__(self, axioms: AxiomSet, depth_bound: int, genlpreds_mode: bool = True):
        self.axioms = axioms
        self.depth_bound = depth_bound
        self.genlpreds_mode = genlpreds_mode
        self.or_nodes: dict[str, OrNode] = {}
        self.and_nodes: dict[str, AndNode] = {}
        self.roots: list[str] = []
        self._schema_index: dict[GoalSchema, str] = {}

    # -- structure -------------------------------------------------------------

    @property
    def or_count(self) -> int:
        return len(self.or_nodes)

    def reaches(self, src: str, dst: str) -> bool:
        """True iff OR node ``dst`` is reachable from OR node ``src``."""
        if src == dst:
            return True
        seen = {src}
        stack = [src]
        while stack:
            for and_id in self.or_nodes[stack.pop()].children:
                for nxt in self.and_nodes[and_id].children:
                    if nxt == dst:
                        return True
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return False

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "format": "percolog-graph@1",
            "depth_bound": self.depth_bound,
            "genlpreds": self.genlpreds_mode,
            "roots": list(self.roots),
            "or_nodes": [
                {
                    "id": n.id,
                    "pred": n.predicate,
                    "arity": n.arity,
                    "mask": "".join("b" if b else "f" for b in n.schema.mask),
                    "depth": n.depth,
                    "children": list(n.children),
                }
                for n in sorted(self.or_nodes.values(), key=lambda n: _id_key(n.id))
            ],
            "and_nodes": [
                {"id": n.id, "clause": n.clause_id, "parent": n.parent, "children": list(n.children)}
                for n in sorted(self.and_nodes.values(), key=lambda n: _id_key(n.id))
            ],
            "clauses": {c.id: str(c) for c in self.axioms},
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AndOrGraph":
        doc = _read_doc(text, "graph")
        if not isinstance(doc["clauses"], dict):
            raise KbError("the graph's 'clauses' must be an object of rule texts by id")
        clauses = []
        for cid, clause_text in sorted(doc["clauses"].items()):
            kb, parsed = parse_kb(clause_text if isinstance(clause_text, str) else "")
            if len(parsed) != 1 or kb.fact_count:
                raise KbError(f"graph clause {cid!r} is not exactly one rule")
            clauses.append(replace(parsed.clauses[0], id=cid))
        g = cls(AxiomSet(clauses), doc["depth_bound"], doc.get("genlpreds", True))
        for n in doc["or_nodes"]:
            schema = GoalSchema(n["pred"], n["arity"], tuple(ch == "b" for ch in n["mask"]))
            children = _id_list(n["children"], f"the children of OR node {n['id']}")
            g.or_nodes[n["id"]] = OrNode(n["id"], schema, n["depth"], tuple(children))
            g._schema_index[schema] = n["id"]
        for n in doc["and_nodes"]:
            children = _id_list(n["children"], f"the children of AND node {n['id']}")
            g.and_nodes[n["id"]] = AndNode(n["id"], n["clause"], n["parent"], tuple(children))
        g.roots = list(_id_list(doc["roots"], "the graph's roots"))
        return g

    def edge_list(self) -> str:
        """Debug/visualization export; masks are intentionally omitted, use
        JSON for a lossless round trip."""
        lines = []
        for n in sorted(self.or_nodes.values(), key=lambda n: _id_key(n.id)):
            lines.append(f"OR {n.id} {n.predicate}/{n.arity} depth={n.depth}")
        for n in sorted(self.and_nodes.values(), key=lambda n: _id_key(n.id)):
            lines.append(f"AND {n.id} clause={n.clause_id}")
        for n in sorted(self.or_nodes.values(), key=lambda n: _id_key(n.id)):
            for and_id in n.children:
                lines.append(f"EDGE {n.id} {and_id}")
        for n in sorted(self.and_nodes.values(), key=lambda n: _id_key(n.id)):
            for or_id in n.children:
                lines.append(f"EDGE {n.id} {or_id}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def greedy_body_order(body: Sequence[Atom], initially_bound: "set[Variable]") -> list[int]:
    """Evaluation order for a rule body: repeatedly take the atom with the
    fewest still-free variables (ties to the leftmost).  This is the sideways
    information passing the engine, the adornments, and the bottom-up join all
    share, and it keeps goals as bound as possible regardless of which side of
    a chain the query constant enters from."""
    remaining = list(range(len(body)))
    bound = set(initially_bound)
    order: list[int] = []
    while remaining:
        best = min(remaining, key=lambda i: (sum(1 for v in body[i].variables() if v not in bound), i))
        order.append(best)
        bound.update(body[best].variables())
        remaining.remove(best)
    return order


def _adorn_body(clause: HornClause, schema: GoalSchema) -> list[GoalSchema]:
    """Body goal schemas under the shared binding-flow order: a position is
    bound if it holds a constant or a variable bound by the head's bound
    positions or by a body atom evaluated earlier."""
    bound_vars = set()
    for term, is_bound in zip(clause.head.args, schema.mask):
        if is_bound and isinstance(term, Variable):
            bound_vars.add(term)
    schemas: list[Optional[GoalSchema]] = [None] * len(clause.body)
    for i in greedy_body_order(clause.body, bound_vars):
        atom = clause.body[i]
        m = tuple(isinstance(t, str) or t in bound_vars for t in atom.args)
        schemas[i] = GoalSchema(atom.predicate, atom.arity, m)
        bound_vars.update(atom.variables())
    return schemas  # type: ignore[return-value]


def build_graph(
    axioms: AxiomSet,
    roots: Sequence[GoalSchema],
    depth_bound: int,
    kb: KnowledgeBase,
    genlpreds_mode: bool = True,
) -> AndOrGraph:
    """Breadth-first AND/OR expansion from the root schemas.

    An OR node's children are every clause whose head predicate matches the
    goal (via the KB's genlPreds closure when the mode is on).
    Back edges to ancestor schemas are dropped together with their rule
    application, and nodes at ``depth_bound`` are left unexpanded, so the
    result is always an acyclic graph of depth <= depth_bound.
    """
    if depth_bound < 0:
        raise ValueError("depth_bound must be >= 0")
    g = AndOrGraph(axioms, depth_bound, genlpreds_mode)

    def new_or(schema: GoalSchema, depth: int) -> str:
        oid = f"o{len(g.or_nodes)}"
        g.or_nodes[oid] = OrNode(oid, schema, depth)
        g._schema_index[schema] = oid
        return oid

    queue: deque[str] = deque()
    for schema in roots:
        oid = g._schema_index.get(schema)
        if oid is None:
            oid = new_or(schema, 0)
            queue.append(oid)
        if oid not in g.roots:
            g.roots.append(oid)

    while queue:
        uid = queue.popleft()
        u = g.or_nodes[uid]
        if u.depth >= depth_bound:
            continue
        cand = kb.spec_preds(u.predicate) if genlpreds_mode else (u.predicate,)
        and_children: list[str] = []
        for clause in axioms:
            if clause.head.predicate not in cand or clause.head.arity != u.arity:
                continue
            body_schemas = _adorn_body(clause, u.schema)
            # resolve children; a single back edge invalidates the whole
            # rule application (a clause cannot fire with a missing body slot)
            ok = True
            for bs in body_schemas:
                existing = g._schema_index.get(bs)
                if existing is not None and g.reaches(existing, uid):
                    ok = False
                    break
            if not ok:
                continue
            child_ids = []
            for bs in body_schemas:
                cid = g._schema_index.get(bs)
                if cid is None:
                    cid = new_or(bs, u.depth + 1)
                    queue.append(cid)
                child_ids.append(cid)
            aid = f"a{len(g.and_nodes)}"
            g.and_nodes[aid] = AndNode(aid, clause.id, uid, tuple(child_ids))
            and_children.append(aid)
        u.children = tuple(and_children)

    induced_space(g, g.or_nodes).reverse_topological_or_order()  # acyclicity check on every build
    return g


# ---------------------------------------------------------------------------
# Search spaces
# ---------------------------------------------------------------------------


class SearchSpace:
    """A sub-space of a parent graph: member OR nodes plus the retained rule
    applications.  Every retained AND node's parent and body children are
    members, so the space is closed and inherits acyclicity from the parent."""

    def __init__(
        self,
        graph: AndOrGraph,
        or_members: Iterable[str],
        and_members: Iterable[str],
        provenance: Optional[Mapping[str, object]] = None,
    ):
        self.graph = graph
        self.or_members = frozenset(or_members)
        self.and_members = frozenset(and_members)
        self.provenance = dict(provenance) if provenance else None
        kinds = (("OR", self.or_members, graph.or_nodes), ("AND", self.and_members, graph.and_nodes))
        for kind, members, nodes in kinds:
            unknown = members - nodes.keys()
            if unknown:
                raise ValueError(f"unknown {kind} members: {sorted(unknown)[:3]}")
        for aid in self.and_members:
            a = graph.and_nodes[aid]
            if a.parent not in self.or_members or any(c not in self.or_members for c in a.children):
                raise ValueError(f"AND node {aid} is not fully inside the member set")

    @property
    def node_count(self) -> int:
        return len(self.or_members)

    def retained_axiom_ids(self) -> frozenset[str]:
        return frozenset(self.graph.and_nodes[aid].clause_id for aid in self.and_members)

    def member_and_children(self, or_id: str) -> tuple[str, ...]:
        return tuple(a for a in self.graph.or_nodes[or_id].children if a in self.and_members)

    def sorted_or_members(self) -> list[str]:
        return sorted(self.or_members, key=_id_key)

    def reverse_topological_or_order(self) -> list[str]:
        """Member OR ids with children before parents (the bottom-up
        evaluation order); doubles as the per-sample acyclicity check."""
        and_nodes = self.graph.and_nodes
        edges = [
            (c, oid) for oid in self.or_members for aid in self.member_and_children(oid) for c in and_nodes[aid].children
        ]
        order = _topo_order(self.or_members, edges, _id_key)
        if len(order) != len(self.or_members):
            raise GraphCycleError("search space contains a cycle")
        return order

    def to_json(self) -> str:
        prov = self.provenance or {}
        doc = {
            "format": "percolog-space@1",
            **{key: prov.get(key) for key in PROVENANCE_KEYS},
            "axiom_ids": sorted(self.retained_axiom_ids()),
            "avg_degree": average_degree(self) if self.or_members else None,
            "node_count": self.node_count,
            "or_nodes": sorted(self.or_members, key=_id_key),
            "and_nodes": sorted(self.and_members, key=_id_key),
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, graph: AndOrGraph) -> "SearchSpace":
        doc = _read_doc(text, "space")
        prov = {key: doc[key] for key in PROVENANCE_KEYS if doc.get(key) is not None}
        members = [_id_list(doc[key], f"the space's {key!r}") for key in ("or_nodes", "and_nodes")]
        return cls(graph, *members, prov or None)


def induced_space(graph: AndOrGraph, member_or_nodes: Iterable[str]) -> SearchSpace:
    """The sub-space induced by a member OR set: a rule application survives
    iff its parent and all of its body children are members."""
    members = frozenset(member_or_nodes)
    and_members = [
        a.id
        for a in graph.and_nodes.values()
        if a.parent in members and all(c in members for c in a.children)
    ]
    return SearchSpace(graph, members, and_members)


def or_out_degrees(space: SearchSpace) -> list[int]:
    """Multiset (sorted list) of OR out-degrees: member AND children per
    member OR node; the full graph is ``induced_space(g, g.or_nodes)``."""
    return sorted(len(space.member_and_children(oid)) for oid in space.or_members)


def average_degree(space: SearchSpace) -> float:
    degrees = or_out_degrees(space)
    if not degrees:
        raise ValueError("average degree of an empty space is undefined")
    return sum(degrees) / len(degrees)
