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
from collections import Counter, deque
from dataclasses import dataclass, replace
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Optional, Sequence

from .kb import JSON_KINDS, Atom, AxiomSet, HornClause, KbError, KnowledgeBase, Variable, parse_kb


class GraphCycleError(KbError):
    """A graph file whose rule applications lead from an OR node back to
    itself, so that no children-first order exists."""


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


def _field(value: object, kind: str, what: str):
    """``value`` if it is of the ``JSON_KINDS`` kind; KbError naming the field otherwise."""
    valid, expected = JSON_KINDS[kind]
    if not valid(value):
        raise KbError(f"{what} must be {expected}")
    return value


def _known(ids: Iterable[str], known: Mapping, what: str) -> None:
    """KbError naming the first of ``ids`` that is not a key of ``known``."""
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise KbError(f"{what} refers to {unknown[0]!r}, which the graph lacks")


# the sampling cell a space file records, in both JSON directions
PROVENANCE_KEYS = ("model", "k", "beta", "seed", "replicate")


class AndOrGraph:
    """The full query graph G.  ``|N|`` (the alpha denominator) counts OR
    nodes only; AND nodes are rule applications between them.  A graph is not
    changed once ``build_graph`` has built it or ``from_json`` has read it:
    both fix its node order and its children-first OR order, which views follow."""

    def __init__(self, axioms: AxiomSet, depth_bound: int, genlpreds_mode: bool = True):
        self.axioms = axioms
        self.depth_bound = depth_bound
        self.genlpreds_mode = genlpreds_mode
        self.or_nodes: dict[str, OrNode] = {}
        self.and_nodes: dict[str, AndNode] = {}
        self.roots: list[str] = []
        self._order: tuple[str, ...] = ()  # OR ids, children first (_seal)

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

    def _seal(self) -> "AndOrGraph":
        """Fix the children-first order of the OR nodes, or raise
        GraphCycleError if the rule applications hold a cycle."""
        below = {oid: [c for a in n.children for c in self.and_nodes[a].children] for oid, n in self.or_nodes.items()}
        try:
            self._order = tuple(TopologicalSorter(below).static_order())
        except CycleError as e:
            raise GraphCycleError(f"the graph has a cycle through OR node {e.args[1][0]}") from None
        return self

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
                for n in self.or_nodes.values()
            ],
            "and_nodes": [
                {"id": n.id, "clause": n.clause_id, "parent": n.parent, "children": list(n.children)}
                for n in self.and_nodes.values()
            ],
            "clauses": {c.id: str(c) for c in self.axioms},
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AndOrGraph":
        """Read a graph file; KbError unless every id it refers to names a
        node or clause of the file, each node is listed once, each AND node by
        its parent only, no rule application leads back to its OR node, and
        each OR node's depth is its distance from the roots.  The roots and
        each OR node's children are read in the graph's node order, whatever
        their order in the file."""
        doc = _read_doc(text, "graph")
        clause_texts = _field(doc.get("clauses"), "clauses", "the graph's 'clauses'")
        clauses = []
        for cid, clause_text in sorted(clause_texts.items()):
            kb, parsed = parse_kb(clause_text if isinstance(clause_text, str) else "")
            if len(parsed) != 1 or kb.fact_count:
                raise KbError(f"graph clause {cid!r} is not exactly one rule")
            clauses.append(replace(parsed.clauses[0], id=cid))
        genlpreds = _field(doc.get("genlpreds", True), "bool", "the graph's 'genlpreds'")
        g = cls(AxiomSet(clauses), _field(doc.get("depth_bound"), "count", "the graph's 'depth_bound'"), genlpreds)
        for i, n in enumerate(_field(doc.get("or_nodes"), "objects", "the graph's 'or_nodes'")):
            oid = _field(n.get("id"), "str", f"the id of OR node entry {i}")
            arity, mask = _field(n.get("arity"), "count", f"the arity of OR node {oid}"), n.get("mask")
            if not isinstance(mask, str) or len(mask) != arity or set(mask) - {"b", "f"}:
                raise KbError(f"the mask of OR node {oid} must be a string of {arity} 'b' or 'f' characters")
            pred = _field(n.get("pred"), "str", f"the pred of OR node {oid}")
            children = _field(n.get("children"), "ids", f"the children of OR node {oid}")
            depth = _field(n.get("depth"), "count", f"the depth of OR node {oid}")
            schema = GoalSchema(pred, arity, tuple(ch == "b" for ch in mask))
            if oid in g.or_nodes:
                raise KbError(f"OR node {oid} is listed twice")
            g.or_nodes[oid] = OrNode(oid, schema, depth, tuple(children))
        owned: dict[str, list[str]] = {oid: [] for oid in g.or_nodes}  # OR id -> the AND nodes naming it parent
        for i, n in enumerate(_field(doc.get("and_nodes"), "objects", "the graph's 'and_nodes'")):
            aid = _field(n.get("id"), "str", f"the id of AND node entry {i}")
            clause = _field(n.get("clause"), "str", f"the clause of AND node {aid}")
            parent = _field(n.get("parent"), "str", f"the parent of AND node {aid}")
            children = _field(n.get("children"), "ids", f"the children of AND node {aid}")
            _known([clause], clause_texts, f"AND node {aid}")
            _known([parent, *children], g.or_nodes, f"AND node {aid}")
            if aid in g.and_nodes:
                raise KbError(f"AND node {aid} is listed twice")
            g.and_nodes[aid] = AndNode(aid, clause, parent, tuple(children))
            owned[parent].append(aid)
        for n in g.or_nodes.values():
            _known(n.children, g.and_nodes, f"OR node {n.id}")
            if sorted(n.children) != sorted(owned[n.id]):
                raise KbError(
                    f"OR node {n.id} lists AND nodes {list(n.children)}, but {owned[n.id]} name it as their parent"
                )
        roots = _field(doc.get("roots"), "ids", "the graph's roots")
        _known(roots, g.or_nodes, "the graph's roots")
        listed = set(roots)
        if len(listed) != len(roots):
            raise KbError(f"root {next(r for i, r in enumerate(roots) if r in roots[:i])} is listed twice")
        # the node order build_graph gives its o<n> and a<n> ids, for any ids
        g.or_nodes = {i: g.or_nodes[i] for i in sorted(g.or_nodes, key=lambda i: (len(i), i))}
        g.roots = [oid for oid in g.or_nodes if oid in listed]  # sample walks from the roots in this order
        g.and_nodes = {i: g.and_nodes[i] for i in sorted(g.and_nodes, key=lambda i: (len(i), i))}
        rank = {aid: r for r, aid in enumerate(g.and_nodes)}
        for n in g.or_nodes.values():  # sample picks children by index: give them the graph's order
            n.children = tuple(sorted(n.children, key=rank.__getitem__))
        g._seal()
        dist = dict.fromkeys(g.roots, 0)  # alpha divides by depth + 1, so it must be build_graph's
        for oid in reversed(g._order):  # parents first: each distance is final when read
            n = g.or_nodes[oid]
            if oid not in dist:
                raise KbError(f"OR node {oid} is not reached from the graph's roots")
            if n.depth != dist[oid]:
                raise KbError(f"OR node {oid} records depth {n.depth}, but its distance from the roots is {dist[oid]}")
            for child in (c for a in n.children for c in g.and_nodes[a].children):
                dist[child] = min(dist.get(child, n.depth + 1), n.depth + 1)
        return g

    def edge_list(self) -> str:
        """Debug/visualization export; masks are intentionally omitted, use
        JSON for a lossless round trip."""
        lines = [f"OR {n.id} {n.predicate}/{n.arity} depth={n.depth}" for n in self.or_nodes.values()]
        lines += [f"AND {n.id} clause={n.clause_id}" for n in self.and_nodes.values()]
        for n in (*self.or_nodes.values(), *self.and_nodes.values()):
            for child in n.children:
                lines.append(f"EDGE {n.id} {child}")
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

    An OR node's children are the clauses whose heads answer its goal
    (``AxiomSet.answering`` over ``KnowledgeBase.answering_preds``).
    Back edges to ancestor schemas are dropped together with their rule
    application, and nodes at ``depth_bound`` are left unexpanded, so the
    result is always an acyclic graph of depth <= depth_bound.
    """
    if depth_bound < 0:
        raise ValueError("depth_bound must be >= 0")
    g = AndOrGraph(axioms, depth_bound, genlpreds_mode)
    schema_index: dict[GoalSchema, str] = {}

    def new_or(schema: GoalSchema, depth: int) -> str:
        oid = f"o{len(g.or_nodes)}"
        g.or_nodes[oid] = OrNode(oid, schema, depth)
        schema_index[schema] = oid
        return oid

    queue: deque[str] = deque()
    for schema in roots:
        oid = schema_index.get(schema)
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
        and_children: list[str] = []
        for clause in axioms.answering(kb.answering_preds(u.predicate, genlpreds_mode), u.arity):
            body_schemas = _adorn_body(clause, u.schema)
            # resolve children; a single back edge invalidates the whole
            # rule application (a clause cannot fire with a missing body slot)
            ok = True
            for bs in body_schemas:
                existing = schema_index.get(bs)
                if existing is not None and g.reaches(existing, uid):
                    ok = False
                    break
            if not ok:
                continue
            child_ids = []
            for bs in body_schemas:
                cid = schema_index.get(bs)
                if cid is None:
                    cid = new_or(bs, u.depth + 1)
                    queue.append(cid)
                child_ids.append(cid)
            aid = f"a{len(g.and_nodes)}"
            g.and_nodes[aid] = AndNode(aid, clause.id, uid, tuple(child_ids))
            and_children.append(aid)
        u.children = tuple(and_children)

    return g._seal()


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
        """Member OR ids in the graph's node order (alpha's summation order)."""
        return [oid for oid in self.graph.or_nodes if oid in self.or_members]

    def reverse_topological_or_order(self) -> list[str]:
        """Member OR ids with children before parents (the bottom-up
        evaluation order): the graph's order, which a sub-space inherits."""
        return [oid for oid in self.graph._order if oid in self.or_members]

    def _derived(self) -> dict[str, object]:
        """The fields of a space file that its members determine."""
        return {
            "axiom_ids": sorted(self.retained_axiom_ids()),
            "avg_degree": average_degree(self) if self.or_members else None,
            "node_count": self.node_count,
        }

    def to_json(self) -> str:
        prov = self.provenance or {}
        doc = {
            "format": "percolog-space@1",
            **{key: prov.get(key) for key in PROVENANCE_KEYS},
            **self._derived(),
            "or_nodes": self.sorted_or_members(),
            "and_nodes": [aid for aid in self.graph.and_nodes if aid in self.and_members],
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, graph: AndOrGraph) -> "SearchSpace":
        """Read a space file; ValueError for a member listed twice, or for a
        recorded ``axiom_ids``, ``node_count`` or ``avg_degree`` that
        disagrees with the value its members give."""
        doc = _read_doc(text, "space")
        prov = {key: doc[key] for key in PROVENANCE_KEYS if doc.get(key) is not None}
        members = [_field(doc.get(key), "ids", f"the space's {key!r}") for key in ("or_nodes", "and_nodes")]
        for key, ids in zip(("or_nodes", "and_nodes"), members):
            twice = [i for i, n in Counter(ids).items() if n > 1]
            if twice:
                raise ValueError(f"the space's {key!r} lists {twice[0]!r} twice")
        space = cls(graph, *members, prov or None)
        for key, value in space._derived().items():
            if key in doc and doc[key] != value:
                raise ValueError(f"the space's {key!r} is {doc[key]!r}, but its members give {value!r}")
        return space


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
