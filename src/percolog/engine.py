"""Depth-limited backward chaining and bottom-up evaluation of search spaces.

Depth accounting: applying a rule costs one depth unit, ground retrieval is
free, so depth_limit 0 answers by retrieval only.  A goal identical (up to
variable renaming) to an ancestor goal on the current proof stack fails that
branch; on the acyclic rule sets this package targets the cut never loses an
answer.  Results are memoized per (predicate, bound-argument pattern,
remaining depth), but only when no ancestor cut fired underneath, which keeps
memoization sound even on rule sets with predicate-level recursion.

With ``genlpreds_mode`` on (the default), a goal additionally matches facts
and rule heads whose predicate implies the goal's predicate via genlPreds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    while isinstance(term, Variable):
        nxt = binding.get(term)
        if nxt is None:
            return term
        term = nxt
    return term


def _canonical(atom: Atom) -> tuple:
    """Goal key abstracting variable names: constants stay, variables become
    first-occurrence slot indices."""
    slots: dict[Variable, int] = {}
    parts: list[object] = []
    for t in atom.args:
        if isinstance(t, Constant):
            parts.append(t.symbol)
        else:
            parts.append(slots.setdefault(t, len(slots)))
    return (atom.predicate, tuple(parts))


class Evaluator:
    """Reusable backchaining context over a fixed (kb, axioms, mode) triple.

    Sharing one evaluator across a query set amortizes the goal memo, the
    per-goal clause tables, and the lazily built positional fact indices.
    Evaluators are not shared between threads; create one per worker.
    """

    def __init__(self, kb: KnowledgeBase, axioms: AxiomSet, genlpreds_mode: bool = True):
        self.kb = kb
        self.axioms = axioms
        self.mode = genlpreds_mode
        self._memo: dict = {}
        self._rename_counter = 0
        self._clauses_for: dict[tuple[str, int], tuple[HornClause, ...]] = {}
        self._pos_index: dict[tuple[str, int], dict[str, list]] = {}

    def goal_predicates(self, predicate: str) -> Iterable[str]:
        if self.mode:
            return sorted(self.kb.spec_preds(predicate))
        return (predicate,)

    def clauses_for_goal(self, predicate: str, arity: int) -> tuple[HornClause, ...]:
        key = (predicate, arity)
        cached = self._clauses_for.get(key)
        if cached is None:
            preds = set(self.goal_predicates(predicate))
            cached = tuple(
                c for c in self.axioms if c.head.predicate in preds and c.head.arity == arity
            )
            self._clauses_for[key] = cached
        return cached

    def _facts_matching(self, predicate: str, args: Sequence) -> Iterator:
        """Candidate facts narrowed by the best bound position: the KB's
        first-argument index when possible, otherwise a lazily built index on
        the first bound position."""
        if isinstance(args[0], Constant):
            yield from self.kb.candidates(predicate, args[0].symbol)
            return
        bound_pos = next((i for i, t in enumerate(args) if isinstance(t, Constant)), None)
        if bound_pos is None:
            yield from self.kb.candidates(predicate)
            return
        key = (predicate, bound_pos)
        index = self._pos_index.get(key)
        if index is None:
            index = defaultdict(list)
            for f in self.kb.candidates(predicate):
                index[f.atom.args[bound_pos].symbol].append(f)
            self._pos_index[key] = index
        yield from index.get(args[bound_pos].symbol, ())

    def _rename(self, clause: HornClause) -> HornClause:
        self._rename_counter += 1
        tag = self._rename_counter
        table: dict[Variable, Variable] = {}

        def r(atom: Atom) -> Atom:
            return Atom(
                atom.predicate,
                tuple(
                    table.setdefault(t, Variable(f"#{tag}.{t.name}")) if isinstance(t, Variable) else t
                    for t in atom.args
                ),
            )

        return HornClause(r(clause.head), tuple(r(a) for a in clause.body), id=clause.id)

    def ask(self, query: Query, depth_limit: int) -> AnswerSet:
        if depth_limit < 0:
            raise ValueError("depth_limit must be >= 0")
        tuples, _ = self._solve(query.atom, depth_limit, frozenset())
        return AnswerSet(query, frozenset(t[0] for t in tuples))

    def _solve(self, goal: Atom, depth: int, stack: frozenset) -> tuple[frozenset, bool]:
        """Answer tuples for the goal's variables (first-occurrence order) and
        a flag marking the result safe to memoize."""
        canon = _canonical(goal)
        key = (canon, depth)
        hit = self._memo.get(key)
        if hit is not None:
            return hit, True
        if canon in stack:
            return frozenset(), False  # ancestor cut: proof branch repeats a goal schema
        var_order = goal.variables()
        results: set[tuple] = set()
        clean = True
        arity = goal.arity
        for pred in self.goal_predicates(goal.predicate):
            if self.kb.arity(pred) != arity:
                continue
            for f in self._facts_matching(pred, goal.args):
                bound = _match_tuple(goal.args, f.atom.args, var_order)
                if bound is not None:
                    results.add(bound)
        if depth > 0:
            substack = stack | {canon}
            for clause in self.clauses_for_goal(goal.predicate, arity):
                rc = self._rename(clause)
                binding = _head_binding(goal, rc.head)
                if binding is None:
                    continue
                bound_now = {
                    v for a in rc.body for v in a.variables() if isinstance(_walk(v, binding), Constant)
                }
                order = greedy_body_order(rc.body, bound_now)
                partials = [binding]
                for pos in order:
                    if not partials:
                        break
                    body_atom = rc.body[pos]
                    nxt: list[dict] = []
                    for bnd in partials:
                        sub_goal = _substitute(body_atom, bnd)
                        sub_res, sub_clean = self._solve(sub_goal, depth - 1, substack)
                        clean = clean and sub_clean
                        if not sub_res:
                            continue
                        sub_vars = sub_goal.variables()
                        if sub_vars:
                            for tup in sub_res:
                                nb = dict(bnd)
                                nb.update(zip(sub_vars, tup))
                                nxt.append(nb)
                        else:
                            nxt.append(bnd)
                    partials = nxt
                for bnd in partials:
                    results.add(tuple(_walk(v, bnd) for v in var_order))
        out = frozenset(results)
        if clean:
            self._memo[key] = out
        return out, clean


def _match_tuple(goal_args, fact_args, var_order) -> Optional[tuple]:
    bound: dict[Variable, Constant] = {}
    for g, f in zip(goal_args, fact_args):
        if isinstance(g, Constant):
            if g != f:
                return None
        else:
            prev = bound.get(g)
            if prev is None:
                bound[g] = f
            elif prev != f:
                return None
    return tuple(bound[v] for v in var_order)


def _head_binding(goal: Atom, head: Atom) -> Optional[dict]:
    """Unify a goal against a freshly renamed clause head, preferring to bind
    clause variables so that bindings flow into the body."""
    binding: dict[Variable, object] = {}
    for g, h in zip(goal.args, head.args):
        g, h = _walk(g, binding), _walk(h, binding)
        if g == h:
            continue
        if isinstance(h, Variable):
            binding[h] = g
        elif isinstance(g, Variable):
            binding[g] = h
        else:
            return None
    return binding


def _substitute(atom: Atom, binding: Mapping) -> Atom:
    return Atom(atom.predicate, tuple(_walk(t, binding) for t in atom.args))


# ---------------------------------------------------------------------------
# Node-local solution counts and bottom-up evaluation over spaces
# ---------------------------------------------------------------------------


def solutions(node_goal: GoalSchema, kb: KnowledgeBase, genlpreds_mode: bool = True) -> int:
    """Answers a node returns on its own: distinct ground facts matching the
    schema's predicate (through the genlPreds closure when the mode is on)."""
    preds = kb.spec_preds(node_goal.predicate) if genlpreds_mode else (node_goal.predicate,)
    return sum(
        len(kb.facts_for(p)) for p in preds if kb.arity(p) == node_goal.arity
    )


def _base_atoms(kb: KnowledgeBase, predicate: str, arity: int, genlpreds_mode: bool) -> frozenset[Atom]:
    """Retrieval layer of an OR node: KB facts, rewritten onto the node's own
    predicate when they arrive via a genlPreds specializer."""
    if not genlpreds_mode:
        return kb.atoms_for(predicate) if kb.arity(predicate) == arity else frozenset()
    out: set[Atom] = set()
    for p in kb.spec_preds(predicate):
        if kb.arity(p) != arity:
            continue
        if p == predicate:
            out |= kb.atoms_for(p)
        else:
            out.update(Atom(predicate, a.args) for a in kb.atoms_for(p))
    return frozenset(out)


def _fire_clause(clause: HornClause, child_sets: Sequence[frozenset[Atom]], out_pred: str) -> set[Atom]:
    """Hash-join the clause body against the child OR sets and emit the
    instantiated heads under the parent node's predicate.

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
        atom, atoms, needed = clause.body[pos], child_sets[pos], needed_after[rank]
        if not atoms:
            return set()
        pos_of = {v: i for i, v in enumerate(var_order)}
        keyed: list[tuple[int, object]] = []  # (arg position, const or var index)
        free_pos: list[int] = []
        for i, t in enumerate(atom.args):
            if isinstance(t, Constant):
                keyed.append((i, t))
            elif t in pos_of:
                keyed.append((i, pos_of[t]))
            else:
                free_pos.append(i)
        new_vars: list[Variable] = []
        for i in free_pos:
            if atom.args[i] not in new_vars:
                new_vars.append(atom.args[i])  # type: ignore[arg-type]
        index: dict[tuple, list[tuple]] = defaultdict(list)
        for ga in atoms:
            ok = True
            vals: dict[Variable, Constant] = {}
            for i in free_pos:  # in-atom repeated variables must agree
                v = atom.args[i]
                prev = vals.get(v)
                if prev is None:
                    vals[v] = ga.args[i]  # type: ignore[index,assignment]
                elif prev != ga.args[i]:
                    ok = False
                    break
            if not ok:
                continue
            const_key = tuple(ga.args[i] for i, _ in keyed)
            index[const_key].append(tuple(vals[v] for v in new_vars))
        next_order = [v for v in var_order + new_vars if v in needed]
        old_keep = [i for i, v in enumerate(var_order) if v in needed]
        new_keep = [i for i, v in enumerate(new_vars) if v in needed]
        nxt: set[tuple] = set()
        for s in sols:
            key = tuple(ref if isinstance(ref, Constant) else s[ref] for _, ref in keyed)
            hits = index.get(key)
            if not hits:
                continue
            base = tuple(s[i] for i in old_keep)
            for vals_tuple in hits:
                nxt.add(base + tuple(vals_tuple[i] for i in new_keep))
        sols = nxt
        var_order = next_order
        if not sols:
            return set()
    pos_of = {v: i for i, v in enumerate(var_order)}
    heads = set()
    for s in sols:
        heads.add(
            Atom(out_pred, tuple(t if isinstance(t, Constant) else s[pos_of[t]] for t in clause.head.args))
        )
    return heads


def bottom_up_eval(
    space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool = True
) -> dict[str, frozenset[Atom]]:
    """Derived ground atoms per member OR node, children evaluated first.

    A node's set is its retrieval matches plus every head derivable through a
    retained rule application whose body atoms are all satisfied from the
    child sets; pass the same genlpreds_mode the graph was built with.
    """
    graph = space.graph
    axioms = graph.axioms
    base_cache: dict[tuple[str, int], frozenset[Atom]] = {}
    sets: dict[str, frozenset[Atom]] = {}
    for oid in space.reverse_topological_or_order():
        node = graph.or_nodes[oid]
        ck = (node.predicate, node.arity)
        base = base_cache.get(ck)
        if base is None:
            base = _base_atoms(kb, node.predicate, node.arity, genlpreds_mode)
            base_cache[ck] = base
        acc = set(base)
        for aid in space.member_and_children(oid):
            anode = graph.and_nodes[aid]
            clause = axioms.clause(anode.clause_id)
            acc |= _fire_clause(clause, [sets[c] for c in anode.children], node.predicate)
        sets[oid] = frozenset(acc)
    return sets


def depth_profile(space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool = True) -> dict[int, int]:
    """Distinct derived atoms per depth (union across the OR nodes of that
    depth), the percolation profile from the leaves toward the roots."""
    sets = bottom_up_eval(space, kb, genlpreds_mode)
    by_depth: dict[int, set[Atom]] = defaultdict(set)
    for oid in space.or_members:
        by_depth[space.graph.or_nodes[oid].depth] |= sets[oid]
    return {d: len(atoms) for d, atoms in sorted(by_depth.items())}
