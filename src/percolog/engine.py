"""Depth-limited backward chaining and bottom-up evaluation of search spaces.

Both engines work on the KB's per-predicate relations of symbol tuples
(``KnowledgeBase.rows``); ``Atom`` and ``Constant`` values are built only for
the results ``Evaluator.ask`` and ``bottom_up_eval`` return.

Depth accounting: applying a rule costs one depth unit, ground retrieval is
free, so depth_limit 0 answers by retrieval only.  A goal identical (up to
variable renaming) to an ancestor goal on the current proof stack fails that
branch; on the acyclic rule sets this package targets the cut never loses an
answer.  Results are memoized per canonical goal (predicate, constants and
first-occurrence variable slots) and remaining depth, but only when no
ancestor cut fired underneath, which keeps memoization sound even on rule
sets with predicate-level recursion.  Bottom-up evaluation hash-joins the
row sets of a rule application's child nodes.

With ``genlpreds_mode`` on (the default), a goal additionally matches facts
and rule heads whose predicate implies the goal's predicate via genlPreds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .graph import GoalSchema, SearchSpace, greedy_body_order
from .kb import (
    Atom,
    AxiomSet,
    Constant,
    HornClause,
    KnowledgeBase,
    Variable,
    term_key,
)

__all__ = [
    "Query",
    "QuerySet",
    "QueryTemplate",
    "AnswerSet",
    "Evaluator",
    "solutions",
    "bottom_up_eval",
    "depth_profile",
]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterized question: bind one argument position to every instance
    of a collection, leave one position open to be solved for."""

    id: str
    predicate: str
    bound_position: int  # 1-based
    param_collection: str
    open_position: int  # 1-based

    def __post_init__(self) -> None:
        if self.bound_position == self.open_position:
            raise ValueError(f"template {self.id}: bound and open positions coincide")
        if self.bound_position < 1 or self.open_position < 1:
            raise ValueError(f"template {self.id}: positions are 1-based")


@dataclass(frozen=True)
class Query:
    """A fully parameterized question: ground except for one open variable."""

    atom: Atom
    template_id: str = ""

    def __post_init__(self) -> None:
        n_distinct = len(self.atom.variables())
        if n_distinct != 1:
            raise ValueError(f"query {self.atom} must contain exactly one distinct variable")

    def schema(self) -> GoalSchema:
        mask = tuple(isinstance(t, Constant) for t in self.atom.args)
        return GoalSchema(self.atom.predicate, self.atom.arity, mask)


@dataclass(frozen=True)
class QuerySet:
    queries: tuple[Query, ...]

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)


@dataclass
class AnswerSet:
    """Answers for one query: the constants bound to its open variable."""

    query: Query
    bindings: frozenset[Constant]

    def sorted_bindings(self) -> list[Constant]:
        return sorted(self.bindings, key=term_key)

    @property
    def answered(self) -> bool:
        return bool(self.bindings)


# ---------------------------------------------------------------------------
# Backward chaining
# ---------------------------------------------------------------------------


def _walk(term, binding):
    while not isinstance(term, str):  # a clause variable or a goal slot
        nxt = binding.get(term)
        if nxt is None:
            return term
        term = nxt
    return term


def _plain(atom: Atom) -> tuple[str, tuple]:
    """(predicate, terms) with constants as their symbols and variables kept."""
    return (atom.predicate, tuple(t.symbol if isinstance(t, Constant) else t for t in atom.args))


def _unify_head(parts: tuple, head: tuple) -> Optional[dict]:
    """Unify a canonical goal's parts (symbols and slot ints) with a clause
    head's terms (symbols and the clause's own variables).  The binding maps
    clause variables and goal slots to symbols, slots or variables, and binds
    clause variables first so that the goal's bindings flow into the body."""
    binding: dict = {}
    for g, h in zip(parts, head):
        if not isinstance(g, str):
            g = _walk(g, binding)
        if not isinstance(h, str):
            h = _walk(h, binding)
        if g == h:
            continue
        if not isinstance(h, str):
            binding[h] = g
        elif not isinstance(g, str):
            binding[g] = h
        else:
            return None
    return binding


class Evaluator:
    """Reusable backchaining context over a fixed (kb, axioms, mode) triple.

    Goals are canonical pairs ``(predicate, parts)``: each part is a constant
    symbol or the int slot of a goal variable, numbered by first occurrence.
    A rule application unifies the goal with the clause's own variables in a
    binding local to that application, so clauses are never renamed, and
    facts are matched as the KB's symbol-tuple rows.  Sharing one evaluator
    across a query set amortizes the goal memo, the per-goal clause tables,
    the body orders per (clause, goal shape) and the lazily built positional
    row indices.  Evaluators are not shared between threads; create one per
    worker.
    """

    def __init__(self, kb: KnowledgeBase, axioms: AxiomSet, genlpreds_mode: bool = True):
        self.kb = kb
        self.axioms = axioms
        self.mode = genlpreds_mode
        self._memo: dict = {}
        self._preds: dict[tuple[str, int], tuple[str, ...]] = {}
        self._clauses_for: dict[tuple[str, int], tuple] = {}
        self._orders: dict[tuple, list[int]] = {}
        self._pos_index: dict[tuple[str, int], dict[str, list]] = {}

    def _goal_predicates(self, predicate: str, arity: int) -> tuple[str, ...]:
        """Sorted predicates whose facts can answer the goal."""
        key = (predicate, arity)
        preds = self._preds.get(key)
        if preds is None:
            cands = sorted(self.kb.spec_preds(predicate)) if self.mode else (predicate,)
            preds = self._preds[key] = tuple(p for p in cands if self.kb.arity(p) == arity)
        return preds

    def _clauses_for_goal(self, predicate: str, arity: int) -> tuple:
        """(clause, head terms, plain body) of every clause whose head can
        answer the goal."""
        key = (predicate, arity)
        cached = self._clauses_for.get(key)
        if cached is None:
            preds = set(self.kb.spec_preds(predicate)) if self.mode else {predicate}
            cached = tuple(
                (c, _plain(c.head)[1], tuple(_plain(a) for a in c.body))
                for c in self.axioms
                if c.head.predicate in preds and c.head.arity == arity
            )
            self._clauses_for[key] = cached
        return cached

    def _rows_matching(self, predicate: str, bound: Optional[tuple[int, str]]) -> Sequence[tuple]:
        """Rows of the predicate, narrowed to those holding the symbol at the
        position of ``bound`` by a lazily built index on that position."""
        if bound is None:
            return self.kb.rows(predicate)
        pos, symbol = bound
        index = self._pos_index.get((predicate, pos))
        if index is None:
            index = defaultdict(list)
            for row in self.kb.rows(predicate):
                index[row[pos]].append(row)
            self._pos_index[(predicate, pos)] = index
        return index.get(symbol, ())

    def ask(self, query: Query, depth_limit: int) -> AnswerSet:
        if depth_limit < 0:
            raise ValueError("depth_limit must be >= 0")
        slots: dict[Variable, int] = {}
        parts = tuple(
            t.symbol if isinstance(t, Constant) else slots.setdefault(t, len(slots))  # type: ignore[arg-type]
            for t in query.atom.args
        )
        tuples, _ = self._solve((query.atom.predicate, parts), depth_limit, frozenset())
        return AnswerSet(query, frozenset(Constant(t[0]) for t in tuples))

    def _solve(self, canon: tuple, depth: int, stack: frozenset) -> tuple[frozenset, bool]:
        """Answer tuples for the goal's slots (in slot order) and a flag
        marking the result safe to memoize."""
        key = (canon, depth)
        hit = self._memo.get(key)
        if hit is not None:
            return hit, True
        if canon in stack:
            return frozenset(), False  # ancestor cut: proof branch repeats a goal schema
        predicate, parts = canon
        consts = [(i, p) for i, p in enumerate(parts) if isinstance(p, str)]
        first: dict[int, int] = {}  # slot -> position of its first occurrence
        same: list[tuple[int, int]] = []  # later occurrences of a repeated slot
        for i, p in enumerate(parts):
            if not isinstance(p, str):
                if p in first:
                    same.append((i, first[p]))
                else:
                    first[p] = i
        checks = consts[1:]  # the first bound position is looked up in an index
        project = _getter(list(first.values()))
        results: set[tuple] = set()
        for pred in self._goal_predicates(predicate, len(parts)):
            rows = self._rows_matching(pred, consts[0] if consts else None)
            if checks or same:
                rows = [r for r in rows if all(r[i] == c for i, c in checks) and all(r[i] == r[j] for i, j in same)]
            results.update(map(project, rows))
        clean = True
        clauses = self._clauses_for_goal(predicate, len(parts)) if depth > 0 else ()
        if clauses:
            substack = stack | {canon}
            shape = tuple([None if isinstance(p, str) else p for p in parts])
            for clause, head, body in clauses:
                binding = _unify_head(parts, head)
                if binding is None:
                    continue
                order = self._orders.get((clause.id, shape))
                if order is None:
                    bound_now = {
                        v for a in clause.body for v in a.variables() if isinstance(_walk(v, binding), str)
                    }
                    order = self._orders[(clause.id, shape)] = greedy_body_order(clause.body, bound_now)
                # Resolve the body through the head binding: each term is then a
                # symbol or a free variable or slot, and a partial solution is
                # the tuple of the free ones' values in the order they get bound.
                where: dict = {}  # free variable or slot -> position in a partial
                steps = []
                for pos in order:
                    sub_pred, terms = body[pos]
                    fresh: dict = {}  # unbound so far -> subgoal slot
                    spec = []  # (is a partial position, symbol or slot or position)
                    for t in terms:
                        t = _walk(t, binding)
                        if isinstance(t, str):
                            spec.append((False, t))
                        elif t in where:
                            spec.append((True, where[t]))
                        else:
                            spec.append((False, fresh.setdefault(t, len(fresh))))
                    for t in fresh:
                        where[t] = len(where)
                    steps.append((sub_pred, spec))
                partials: list[tuple] = [()]
                for sub_pred, spec in steps:
                    nxt: list[tuple] = []
                    for p in partials:
                        sub = (sub_pred, tuple([p[v] if ref else v for ref, v in spec]))
                        sub_res = self._memo.get((sub, depth - 1))
                        if sub_res is None:
                            sub_res, sub_clean = self._solve(sub, depth - 1, substack)
                            clean = clean and sub_clean
                        nxt.extend([p + t for t in sub_res])
                    partials = nxt
                    if not partials:
                        break
                out = []  # every goal slot is a symbol or bound by the body
                for slot in range(len(first)):
                    t = _walk(slot, binding)
                    out.append((False, t) if isinstance(t, str) else (True, where[t]))
                results.update([tuple([p[v] if ref else v for ref, v in out]) for p in partials])
        res = frozenset(results)
        if clean:
            self._memo[key] = res
        return res, clean


# ---------------------------------------------------------------------------
# Node-local solution counts and bottom-up evaluation over spaces
# ---------------------------------------------------------------------------


def solutions(node_goal: GoalSchema, kb: KnowledgeBase, genlpreds_mode: bool = True) -> int:
    """Answers a node returns on its own: distinct ground facts matching the
    schema's predicate (through the genlPreds closure when the mode is on)."""
    preds = kb.spec_preds(node_goal.predicate) if genlpreds_mode else (node_goal.predicate,)
    return sum(
        len(kb.rows(p)) for p in preds if kb.arity(p) == node_goal.arity
    )


def _getter(positions: Sequence[int]):
    """A function taking a tuple to the tuple of its values at the positions."""
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


def _fire_clause(clause: HornClause, child_sets: Sequence[frozenset[tuple]]) -> set[tuple]:
    """Hash-join the clause body against the child OR nodes' row sets and emit
    the instantiated head rows.

    After each body atom the solutions are projected onto the variables still
    needed downstream and deduplicated, which keeps intermediate joins bounded
    on fact-rich KBs.
    """
    order = greedy_body_order(clause.body, set())
    head_vars = set(clause.head.variables())
    needed_after: list[set[Variable]] = [set() for _ in order]
    acc = set(head_vars)
    for rank in range(len(order) - 1, -1, -1):
        needed_after[rank] = set(acc)
        acc |= set(clause.body[order[rank]].variables())
    var_order: list[Variable] = []
    sols: set[tuple] = {()}
    for rank, pos in enumerate(order):
        atom, rows, needed = clause.body[pos], child_sets[pos], needed_after[rank]
        pos_of = {v: i for i, v in enumerate(var_order)}
        consts = [(i, t.symbol) for i, t in enumerate(atom.args) if isinstance(t, Constant)]
        join_row: list[int] = []  # row positions of variables bound by earlier atoms
        join_sol: list[int] = []  # their positions in a solution
        first: dict[Variable, int] = {}  # new variable -> row position of its first occurrence
        same: list[tuple[int, int]] = []  # in-atom repeats of a new variable must agree
        for i, t in enumerate(atom.args):
            if isinstance(t, Constant):
                continue
            if t in pos_of:
                join_row.append(i)
                join_sol.append(pos_of[t])
            elif t in first:
                same.append((i, first[t]))
            else:
                first[t] = i
        if consts or same:
            rows = [r for r in rows if all(r[i] == c for i, c in consts) and all(r[i] == r[j] for i, j in same)]
        keep = [v for v in first if v in needed]
        row_key, row_val = _getter(join_row), _getter([first[v] for v in keep])
        index: dict[tuple, set[tuple]] = defaultdict(set)
        for row in rows:
            index[row_key(row)].add(row_val(row))
        old_keep = [i for i, v in enumerate(var_order) if v in needed]
        sol_key, sol_base = _getter(join_sol), _getter(old_keep)
        nxt: set[tuple] = set()
        for s in sols:
            hits = index.get(sol_key(s))
            if hits:
                base = sol_base(s)
                nxt.update([base + h for h in hits])
        sols = nxt
        var_order = [var_order[i] for i in old_keep] + keep
        if not sols:
            return set()
    pos_of = {v: i for i, v in enumerate(var_order)}
    head = _plain(clause.head)[1]
    if all(isinstance(t, Variable) for t in head):
        return set(map(_getter([pos_of[t] for t in head]), sols))
    return {tuple([t if isinstance(t, str) else s[pos_of[t]] for t in head]) for s in sols}


def _node_rows(space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool) -> dict[str, frozenset[tuple]]:
    """Derived rows per member OR node, children evaluated first.  A node's
    base rows are the KB rows of every predicate specializing its own (just
    its own with the mode off); retained rule applications add head rows."""
    graph = space.graph
    axioms = graph.axioms
    base_cache: dict[tuple[str, int], frozenset[tuple]] = {}
    sets: dict[str, frozenset[tuple]] = {}
    for oid in space.reverse_topological_or_order():
        node = graph.or_nodes[oid]
        ck = (node.predicate, node.arity)
        base = base_cache.get(ck)
        if base is None:
            preds = kb.spec_preds(node.predicate) if genlpreds_mode else (node.predicate,)
            base = frozenset().union(*(kb.rows(p) for p in preds if kb.arity(p) == node.arity))
            base_cache[ck] = base
        derived: set[tuple] = set()
        for aid in space.member_and_children(oid):
            anode = graph.and_nodes[aid]
            derived |= _fire_clause(axioms.clause(anode.clause_id), [sets[c] for c in anode.children])
        sets[oid] = base | derived if derived else base
    return sets


def bottom_up_eval(
    space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool = True
) -> dict[str, frozenset[Atom]]:
    """Derived ground atoms per member OR node, children evaluated first.

    A node's set is its retrieval matches plus every head derivable through a
    retained rule application whose body atoms are all satisfied from the
    child sets, each atom under the node's own predicate; pass the same
    genlpreds_mode the graph was built with.
    """
    or_nodes = space.graph.or_nodes
    return {
        oid: frozenset(Atom(or_nodes[oid].predicate, tuple(map(Constant, row))) for row in rows)
        for oid, rows in _node_rows(space, kb, genlpreds_mode).items()
    }


def depth_profile(space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool = True) -> dict[int, int]:
    """Distinct derived atoms per depth (union across the OR nodes of that
    depth), the percolation profile from the leaves toward the roots."""
    sets = _node_rows(space, kb, genlpreds_mode)
    by_depth: dict[int, dict[str, frozenset[tuple]]] = defaultdict(dict)
    for oid in space.or_members:
        node = space.graph.or_nodes[oid]
        rows = by_depth[node.depth]  # an atom is a (predicate, row) pair
        prev = rows.get(node.predicate)
        rows[node.predicate] = sets[oid] if prev is None else prev | sets[oid]
    return {d: sum(map(len, rows.values())) for d, rows in sorted(by_depth.items())}
