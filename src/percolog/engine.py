"""Depth-limited evaluation of queries and bottom-up evaluation of search spaces.

Both engines read a snapshot's facts through one store, the
:class:`SnapshotCache`: the KB rows (symbol tuples) answering each goal
predicate and arity, and their index on an argument position; a constant is
its symbol string in rows, goals, atoms and answers alike.  Both engines run
a rule through the same compiled plan (``_rule_plan``), built once per clause
and goal shape: the head match as checks on the goal's constants, then the
body in ``greedy_body_order``, each atom's arguments read from a symbol, a
column of the partial solutions or a fresh variable, with the columns still
needed kept after each atom.  The body is joined set-at-a-time (``_join``):
top-down solves each distinct subgoal once per rule application, bottom-up
hash-joins the child relations' row sets.

Depth accounting: applying a rule costs one depth unit, ground retrieval is
free, so depth_limit 0 answers by retrieval only.  The answers at limit d are
exactly the atoms with a proof of height at most d, on any rule set,
recursive ones included.

The store hash-conses relations: a relation is a predicate and arity with a
set of rule applications, each a clause (by content) over the relations of
its body atoms, and its rows are the base rows plus every application's head
rows.  A space's member OR node is the relation of its retained AND nodes.
On a shared cache, a query whose predicate's cone under the retained clauses
is free of recursion reads, at depth d, the relation of its predicate built
from every retained clause to height d (capped at the height where the
relation stops growing).  The cells of a sweep sample many spaces from one
snapshot, and their relations overlap, so one :class:`SnapshotCache` passed
to all of them shares each rule application's head rows between cells,
binding masks and both metrics.

A query whose cone is recursive, and every query of an :class:`Evaluator`
without a shared cache, backchains instead: subgoals are solved with one
unit less, memoized per canonical goal and remaining depth, and a goal whose
constant lies outside the symbols its answers can carry under the retained
clauses (``_carried``) is answered empty at once.  It derives only what a
query needs, which a one-off ask prefers, and a recursive cone needs no
relation per height.

With ``genlpreds_mode`` on (the default), a goal additionally matches facts
and rule heads whose predicate implies the goal's predicate via genlPreds.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .graph import GoalSchema, SearchSpace, greedy_body_order
from .kb import Atom, AxiomSet, HornClause, KnowledgeBase, Variable

__all__ = [
    "Query",
    "QueryTemplate",
    "Evaluator",
    "SnapshotCache",
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
        # templates are binary: one position bound, the other open
        if {self.bound_position, self.open_position} != {1, 2}:
            raise ValueError(
                f"template {self.id}: bound_position and open_position must be 1 and 2 in either order, "
                f"got {self.bound_position} and {self.open_position}"
            )


@dataclass(frozen=True)
class Query:
    """A fully parameterized question: ground except for one open variable."""

    atom: Atom
    template_id: str = ""

    def __post_init__(self) -> None:
        n_distinct = len(self.atom.variables())
        if n_distinct != 1:
            raise ValueError(f"query {self.atom} must contain exactly one distinct variable")

    @cached_property
    def text(self) -> str:
        """The atom's text, formatted once."""
        return str(self.atom)

    @cached_property
    def goal(self) -> tuple:
        """The canonical goal ``(predicate, parts)`` (see :class:`Evaluator`)."""
        slots: dict[Variable, int] = {}
        parts = tuple(t if isinstance(t, str) else slots.setdefault(t, len(slots)) for t in self.atom.args)
        return (self.atom.predicate, parts)


# ---------------------------------------------------------------------------
# Backward chaining
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _getter(*positions: int) -> Callable:
    """A function taking a tuple to the tuple of its values at the positions,
    one shared instance per position list."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _emitter(spec: Sequence[tuple[bool, object]]):
    """A function taking a partial to a tuple: per entry ``(True, column)``
    reads the partial's column, ``(False, value)`` is the value itself."""
    if all(ref for ref, _ in spec):
        return _getter(*[c for _, c in spec])
    return lambda p: tuple([p[v] if ref else v for ref, v in spec])


class _Step(NamedTuple):
    """One body atom of a compiled plan, joined against the partial solutions
    (tuples of the free classes' values, one column each)."""

    index: int  # the atom's position in the clause body
    pred: str
    spec: tuple  # per argument: (True, index into key) or (False, symbol or subgoal slot)
    key: Callable  # partial -> the values of the columns the atom reads
    base: Callable  # partial -> the columns still needed after the atom
    new: Optional[Callable]  # subgoal answer (slot order) -> kept slots; None keeps all
    consts: Optional[tuple]  # (getter of the arguments holding symbols, those symbols)
    same: tuple  # (argument, argument) a matching row repeats a slot at
    row_key: Callable  # row -> its values at the arguments the key reads
    row_new: Callable  # row -> its values of the kept slots

    def subgoal(self, key: tuple) -> tuple:
        """The canonical goal the atom makes under a key."""
        return (self.pred, tuple([key[v] if ref else v for ref, v in self.spec]))


class _Plan(NamedTuple):
    """A clause applied to goals of one shape: the head match as runtime
    checks on the goal's constants, then the body join."""

    checks: tuple  # (goal position, symbol) the goal's constant must equal
    eqs: tuple  # (goal position, goal position) whose constants must agree
    start: Callable  # goal parts -> the initial partial (goal constants the body reads)
    steps: tuple[_Step, ...]
    emit: Callable  # final partial -> answer tuple in goal slot order

    def admits(self, parts: tuple) -> bool:
        """Whether the goal's constants pass the head match."""
        return all(parts[j] == s for j, s in self.checks) and all(parts[j] == parts[k] for j, k in self.eqs)


@lru_cache(maxsize=4096)
def _rule_plan(clause: HornClause, shape: tuple) -> Optional[_Plan]:
    """Compile the clause for goals of ``shape``: the goal's parts with each
    constant masked as None, each variable kept as its first-occurrence slot.
    Returns None when no goal of the shape unifies with the head.  The plan
    depends only on the clause's content and the shape, so it is shared by
    every evaluator; ``_fire_clause`` uses the all-slots shape."""
    parent: dict = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    # unify goal and head: union-find over goal constant positions, goal
    # slots, head symbols and clause variables
    items = []
    for i, (g, h) in enumerate(zip(shape, clause.head.args)):
        items += [("goal", i) if g is None else ("slot", g), ("sym", h) if isinstance(h, str) else h]
        a, b = find(items[-2]), find(items[-1])
        if a != b:
            parent[b] = a
    members: dict = defaultdict(set)
    for x in items:
        members[find(x)].add(x)
    value: dict = {}  # class root -> its symbol, or the root itself if free
    checks, eqs, start = [], [], []
    for root, xs in members.items():
        syms = {x[1] for x in xs if isinstance(x, tuple) and x[0] == "sym"}
        goals = sorted(x[1] for x in xs if isinstance(x, tuple) and x[0] == "goal")
        if len(syms) > 1:
            return None  # two different head symbols meet
        if syms:
            value[root] = sym = syms.pop()
            checks += [(j, sym) for j in goals]
        else:
            value[root] = root
            if goals:
                eqs += [(j, goals[0]) for j in goals[1:]]
                start.append((goals[0], root))
    start.sort(key=itemgetter(0))

    def resolve(v):
        return v if isinstance(v, str) else value.get(find(v), v)

    body = clause.body
    from_goal = {root for _, root in start}
    order = greedy_body_order(body, {
        v for a in body for v in a.variables() if isinstance(c := resolve(v), str) or c in from_goal
    })
    out = [value[find(("slot", s))] for s in range(len({g for g in shape if g is not None}))]
    # classes each rank must still carry: those read by later atoms or the answer
    needed: list[set] = [set() for _ in order]
    acc = {c for c in out if not isinstance(c, str)}
    for rank in range(len(order) - 1, -1, -1):
        needed[rank] = set(acc)
        acc |= {resolve(v) for v in body[order[rank]].variables()}
    cols = [root for _, root in start]  # the class held by each partial column
    steps = []
    for rank, i in enumerate(order):
        where = {c: j for j, c in enumerate(cols)}
        fresh: dict = {}  # class first met in this atom -> subgoal slot
        spec, key, first, same, consts = [], [], [], [], []
        for pos, t in enumerate(body[i].args):
            c = resolve(t)
            if isinstance(c, str):
                spec.append((False, c))
                consts.append((pos, c))
            elif c in where:
                spec.append((True, len(key)))
                key.append((pos, where[c]))
            elif c in fresh:
                spec.append((False, fresh[c]))
                same.append((pos, first[fresh[c]]))
            else:
                spec.append((False, fresh.setdefault(c, len(fresh))))
                first.append(pos)
        keep_old = [j for j, c in enumerate(cols) if c in needed[rank]]
        keep_new = [s for c, s in fresh.items() if c in needed[rank]]
        steps.append(_Step(
            i, body[i].predicate, tuple(spec), _getter(*[j for _, j in key]), _getter(*keep_old),
            None if keep_new == list(range(len(fresh))) else _getter(*keep_new),
            (_getter(*[pos for pos, _ in consts]), tuple(c for _, c in consts)) if consts else None,
            tuple(same), _getter(*[pos for pos, _ in key]), _getter(*[first[s] for s in keep_new]),
        ))
        cols = [cols[j] for j in keep_old] + [c for c, s in fresh.items() if c in needed[rank]]
    where = {c: j for j, c in enumerate(cols)}
    emit = _emitter([(False, c) if isinstance(c, str) else (True, where[c]) for c in out])
    return _Plan(tuple(checks), tuple(eqs), _getter(*[j for j, _ in start]), tuple(steps), emit)


def _join(partials: set[tuple], step: _Step, lookup: Callable) -> set[tuple]:
    """Join the partials with one body atom: ``lookup`` takes the values the
    atom reads (a key) to the kept new values it binds.  Each partial's kept
    columns are extended with its key's values; the output is deduplicated."""
    out: set[tuple] = set()
    key, base = step.key, step.base
    for p in partials:
        hits = lookup(key(p))
        if hits:
            b = base(p)
            out.update([b + h for h in hits])
    return out


class _Probes(dict):
    """The kept new values per key of the subgoals one body atom makes, each
    distinct subgoal solved on first use."""

    def __init__(self, solve: Callable, step: _Step, depth: int):
        self.solve, self.step, self.depth = solve, step, depth

    def __missing__(self, key: tuple):
        res = self.solve(self.step.subgoal(key), self.depth)
        new = self.step.new
        hits = self[key] = res if new is None else set(map(new, res))
        return hits


@lru_cache(maxsize=1024)
def _retrieval(shape: tuple) -> tuple:
    """How rows answer goals of the shape (see ``_rule_plan``): the position
    of the first constant, read through an index (None without constants),
    a getter of the other constants' positions (or None), the (position,
    position) pairs where a repeated slot must agree, and each slot's first
    position, in slot order."""
    consts = [i for i, g in enumerate(shape) if g is None]
    first: dict[int, int] = {}  # slot -> position of its first occurrence
    same = []  # later occurrences of a repeated slot
    for i, g in enumerate(shape):
        if g is not None:
            if g in first:
                same.append((i, first[g]))
            else:
                first[g] = i
    return (
        consts[0] if consts else None,
        _getter(*consts[1:]) if len(consts) > 1 else None,
        tuple(same),
        tuple(first.values()),
    )


def _matching(source, parts: tuple, bound_at: Optional[int], checks: Optional[Callable], same: tuple):
    """The rows that match the goal's parts, from ``source``: the rows, or
    their index on ``bound_at`` when the goal has a constant (``_retrieval``)."""
    rows = source if bound_at is None else source.get(parts[bound_at], ())
    if checks:
        want = checks(parts)
        rows = [r for r in rows if checks(r) == want]
    if same:
        rows = [r for r in rows if all(r[i] == r[j] for i, j in same)]
    return rows


_NO_ANSWERS: frozenset = frozenset()  # every empty answer set, shared


class SnapshotCache:
    """The evaluation context of one snapshot of the KB under one genlPreds
    mode, and the work shared by every evaluation on it; drop it when the
    sweep moves to the next snapshot.

    Facts: per (predicate, arity), the base rows of every predicate in
    ``preds``, indexed per argument position on first use; top-down reads
    their symbols per position.  Relations are hash-consed: ``relation``
    gives each (predicate, arity, rule applications) one id, where a rule
    application is a clause, keyed by its content, and the ids of its body
    atoms' relations.  Equal ids mean equal rows, whichever space, binding
    mask, depth or metric built them, so the head rows of each rule
    application are kept once, each distinct row as one tuple.  A relation's
    own rows are rebuilt per evaluation (``rows``), in a memo the caller
    drops.
    """

    def __init__(self, kb: KnowledgeBase, genlpreds_mode: bool = True):
        self.kb = kb
        self.mode = genlpreds_mode
        self._base: dict[tuple[str, int], frozenset[tuple]] = {}  # (predicate, arity) -> KB rows
        self._indexes: dict[tuple[str, int, int], dict[str, list]] = {}  # (predicate, arity, position) -> rows by symbol
        self._values: dict[tuple[str, int, int], frozenset[str]] = {}  # (predicate, arity, position) -> its symbols
        self._ids: dict[tuple, int] = {}  # (predicate, arity, rule applications) -> relation id
        self._relations: list[tuple] = []  # relation id -> (predicate, arity, rule applications)
        self._fired: dict[tuple, tuple] = {}  # (clause, body relation ids) -> head rows
        self._rows: dict[tuple, tuple] = {}  # head row -> its one cached tuple
        self.fired_hits = 0
        self.relation_hits = 0

    def check(self, kb: KnowledgeBase, genlpreds_mode: bool) -> None:
        """Raise ValueError unless the cache serves this snapshot and mode."""
        if kb is not self.kb or genlpreds_mode != self.mode:
            raise ValueError("a SnapshotCache serves one KB snapshot and genlPreds mode")

    def preds(self, predicate: str) -> frozenset[str]:
        """The predicates whose facts and rule heads answer goals of the
        predicate: every predicate specializing it via genlPreds, itself
        included, with the mode on; just itself with the mode off."""
        return self.kb.spec_preds(predicate) if self.mode else frozenset((predicate,))

    def base_rows(self, predicate: str, arity: int) -> frozenset[tuple]:
        """The KB rows of the predicates in ``preds`` at the arity."""
        rows = self._base.get((predicate, arity))
        if rows is None:
            kb = self.kb
            rows = self._base[(predicate, arity)] = frozenset().union(
                *(kb.rows(p) for p in self.preds(predicate) if kb.arity(p) == arity)
            )
        return rows

    def base_index(self, predicate: str, arity: int, position: int) -> dict[str, list]:
        """The base rows by their symbol at the 0-based position, built on
        first use."""
        index = self._indexes.get((predicate, arity, position))
        if index is None:
            index = self._indexes[(predicate, arity, position)] = defaultdict(list)
            for row in self.base_rows(predicate, arity):
                index[row[position]].append(row)
        return index

    def base_values(self, predicate: str, arity: int, position: int) -> frozenset[str]:
        """The symbols at the 0-based position over the base rows, built on
        first use."""
        key = (predicate, arity, position)
        if key not in self._values:
            self._values[key] = frozenset(map(itemgetter(position), self.base_rows(predicate, arity)))
        return self._values[key]

    def relation(self, predicate: str, arity: int, applied: frozenset = frozenset()) -> int:
        """The id of the relation of the predicate and arity with these rule
        applications, each a ``(clause, body relation ids)`` pair; no
        applications is the base relation."""
        key = (predicate, arity, applied)
        rid = self._ids.get(key)
        if rid is None:
            rid = self._ids[key] = len(self._relations)
            self._relations.append(key)
        else:
            self.relation_hits += 1
        return rid

    def rows(self, rid: int, memo: dict[int, frozenset[tuple]]) -> frozenset[tuple]:
        """The relation's rows: its base rows and every rule application's
        head rows, firing each application not yet cached over its body
        relations' rows; ``memo`` keeps the rows built for the caller."""
        rows = memo.get(rid)
        if rows is None:
            predicate, arity, applied = self._relations[rid]
            base = self.base_rows(predicate, arity)
            derived = []
            for app in applied:
                heads = self._fired.get(app)
                if heads is None:
                    clause, body = app
                    intern = self._rows.setdefault
                    fired = _fire_clause(clause, [self.rows(b, memo) for b in body])
                    heads = self._fired[app] = tuple([intern(row, row) for row in fired])
                else:
                    self.fired_hits += 1
                derived.append(heads)
            rows = memo[rid] = base.union(*derived) if derived else base
        return rows

    def stats(self) -> str:
        """The store's size and hits, for the sweep's debug log."""
        return (
            f"{len(self._relations)} relations derived, {self.relation_hits} relation hits, "
            f"{len(self._fired)} cached rule applications, {self.fired_hits} rule-application hits"
        )


class _Heads(dict):
    """Per (predicate, arity), the retained clauses whose heads can answer
    its goals, found on first use."""

    def __init__(self, axioms: AxiomSet, cache: SnapshotCache):
        self.axioms, self.cache = axioms, cache

    def __missing__(self, key: tuple[str, int]) -> list[HornClause]:
        predicate, arity = key
        preds = self.cache.preds(predicate)
        heads = self[key] = [c for c in self.axioms if c.head.predicate in preds and c.head.arity == arity]
        return heads


class _Relations:
    """An :class:`Evaluator`'s reads of a shared cache's relations.

    A query reads the store's relation of its predicate (``relation``): the
    base rows plus the heads of every retained clause answering it, fired
    over its body atoms' relations one height below, with the height capped
    where the relation stops growing (``height``), at one id per (predicate,
    arity, depth).  Only predicates whose cone under the retained clauses is
    free of recursion are read so.  A recursive one would need a relation
    per height up to the depth limit, each nesting Python calls, so it would
    refuse depth limits that backchaining answers, such as a right-recursive
    rule's over a chain.  A goal reads the relation's index on its first
    constant, built per evaluator and dropped with it.
    """

    def __init__(self, cache: SnapshotCache, heads: _Heads):
        self.cache = cache
        self._heads = heads
        self._heights: dict[tuple[str, int], float] = {}  # (predicate, arity) -> see height
        self._ids: dict[tuple[str, int, int], int] = {}  # (predicate, arity, depth) -> relation id
        self._derived: dict[int, frozenset[tuple]] = {}  # relation id -> rows, for this evaluator's asks
        self._indexes: dict[tuple[int, int], dict[str, list]] = {}  # (relation id, position) -> see _source

    def answers(self, predicate: str, parts: tuple, depth: int) -> Optional[frozenset[str]]:
        """The goal's answers (it has one slot) by proofs of height at most
        ``depth``, or None when its predicate's cone is recursive."""
        arity = len(parts)
        if self.height(predicate, arity) == math.inf:
            return None
        rid = self.relation(predicate, arity, depth)
        shape = tuple([None if isinstance(p, str) else p for p in parts])
        bound_at, checks, same, (open_at,) = _retrieval(shape)
        rows = _matching(self._source(rid, bound_at), parts, bound_at, checks, same)
        return frozenset(map(itemgetter(open_at), rows))

    def _source(self, rid: int, bound_at: Optional[int]):
        """The relation's rows, or with a 0-based position, the rows by their
        symbol there, built on first use: the source ``_matching`` reads."""
        if bound_at is None:
            return self.cache.rows(rid, self._derived)
        index = self._indexes.get((rid, bound_at))
        if index is None:
            index = self._indexes[(rid, bound_at)] = defaultdict(list)
            for row in self.cache.rows(rid, self._derived):
                index[row[bound_at]].append(row)
        return index

    def height(self, predicate: str, arity: int) -> float:
        """The height from which the relation of the predicate and arity
        stops growing under the retained clauses: 0 with none answering it,
        else one more than the tallest of their body atoms', and infinite for
        a relation that reaches a recursive clause (one met again while its
        own height is being found)."""
        height = self._heights.get((predicate, arity))
        if height is None:
            self._heights[(predicate, arity)] = math.inf
            height = self._heights[(predicate, arity)] = max(
                (1 + self.height(a.predicate, a.arity) for c in self._heads[(predicate, arity)] for a in c.body),
                default=0,
            )
        return height

    def relation(self, predicate: str, arity: int, depth: int) -> int:
        """The store's id of the relation that answers goals of the predicate
        and arity by proofs of height at most ``depth``; the predicate's
        height must be finite."""
        rid = self._ids.get((predicate, arity, depth))
        if rid is None:
            height = min(depth, self.height(predicate, arity))
            applied = frozenset([
                (c, tuple([self.relation(a.predicate, a.arity, height - 1) for a in c.body]))
                for c in self._heads[(predicate, arity)]
            ]) if height else frozenset()
            rid = self._ids[(predicate, arity, depth)] = self.cache.relation(predicate, arity, applied)
        return rid


class Evaluator:
    """Answers queries over a fixed (kb, axioms, mode) triple: the constants
    that fill a query's open variable by a proof of height at most the depth
    limit.  Evaluators are not shared between threads; create one per worker.

    Queries backchain, except those that ``__init__`` routes to a shared
    cache's relations.  Goals are canonical pairs ``(predicate, parts)``: each
    part is a constant symbol or the int slot of a goal variable, numbered by
    first occurrence.  A rule application runs the clause's plan for the
    goal's shape (``_rule_plan``): it checks the goal's constants against the
    head, then joins the body set-at-a-time, solving each distinct subgoal
    once per body atom, one depth unit below the goal.  The depth limit alone
    ends the search, at up to one memo entry per (goal, depth).  Sharing one
    evaluator across a query set amortizes the goal memo, the value sets and
    the per-shape tables of retained clause plans.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        axioms: AxiomSet,
        genlpreds_mode: bool = True,
        cache: Optional[SnapshotCache] = None,
    ):
        """Without ``cache``, facts come from a private :class:`SnapshotCache`
        and every query backchains.  Passing a cache (a sweep's, shared by a
        snapshot's spaces) also selects the algorithm: a query whose
        predicate's cone under ``axioms`` is free of recursion reads the
        store's bottom-up relations (:class:`_Relations`), shared with the
        snapshot's other evaluators and depth profiles; a recursive one
        backchains.  Reading a relation derives all of it, which pays when
        other cells of the snapshot derive it too; a one-off ask should pass
        no cache."""
        self.axioms = axioms
        self.cache = cache or SnapshotCache(kb, genlpreds_mode)
        self.cache.check(kb, genlpreds_mode)
        self._heads = _Heads(axioms, self.cache)
        self._relations = _Relations(cache, self._heads) if cache is not None else None
        self._memo: dict = {}  # (predicate, *parts, depth) -> answers
        self._allowed: dict[tuple[str, int], tuple] = {}  # (predicate, arity) -> the (position, set) pairs of _carried
        self._shapes: dict[tuple, tuple] = {}
        self._carries: dict[tuple[str, int], Optional[tuple]] = {}  # (predicate, arity) -> per position, see _carried
        self.pruned = 0  # goals answered empty by _carried alone

    def ask(self, query: Query, depth_limit: int) -> frozenset[str]:
        """The constants that answer the query's open variable by a proof of
        height at most ``depth_limit``.  Raises ValueError when the search
        nests deeper than Python's recursion limit, as recursive rules do at
        depth limits in the hundreds."""
        if depth_limit < 0:
            raise ValueError("depth_limit must be >= 0")
        predicate, parts = goal = query.goal
        try:
            if self._relations is not None:
                answers = self._relations.answers(predicate, parts, depth_limit)
                if answers is not None:
                    return answers
            return frozenset([t[0] for t in self._solve(goal, depth_limit)])
        except RecursionError:
            raise ValueError(
                f"depth limit {depth_limit} is too deep for {query.text}: the search exceeds Python's recursion limit"
            ) from None

    def _carried(self, predicate: str, arity: int) -> tuple:
        """Per 0-based position, a superset of the symbols that any answer of
        a goal of the predicate and arity carries there, or None if any may:
        the base rows' symbols, each head symbol at the position and, for a
        head variable, the intersection of the sets at its body occurrences.
        A (predicate, arity) met again while its own sets are being built
        (recursion) is unconstrained at every position."""
        if (predicate, arity) in self._carries:
            return self._carries[(predicate, arity)] or (None,) * arity
        self._carries[(predicate, arity)] = None
        heads = self._heads[(predicate, arity)]
        sets = []
        for i in range(arity):
            vals, more = self.cache.base_values(predicate, arity, i), []
            for c in heads:
                t = c.head.args[i]
                at = [(t,)] if isinstance(t, str) else [
                    s for a in c.body for j, u in enumerate(a.args) if u == t
                    if (s := self._carried(a.predicate, a.arity)[j]) is not None
                ]
                if not at:
                    vals = None
                    break
                more.append(at[0] if len(at) == 1 else min(at, key=len).intersection(*at))
            sets.append(vals.union(*more) if vals is not None and more else vals)
        carried = self._carries[(predicate, arity)] = tuple(sets)
        return carried

    def _shape_table(self, predicate: str, shape: tuple) -> tuple:
        """Build the table for goals of the predicate and shape: the cache's
        base rows answering them (or their index on the first bound
        position), the retrieval of ``_retrieval`` with the projection to
        the slots, and the plans of the retained clauses whose heads can
        answer them."""
        arity = len(shape)
        bound_at, checks, same, first = _retrieval(shape)
        plans = (_rule_plan(c, shape) for c in self._heads[(predicate, arity)])
        cache = self.cache
        table = self._shapes[(predicate, shape)] = (
            cache.base_rows(predicate, arity) if bound_at is None else cache.base_index(predicate, arity, bound_at),
            bound_at,
            checks,
            same,
            _getter(*first),
            tuple(p for p in plans if p is not None),
        )
        return table

    def _solve(self, canon: tuple, depth: int) -> frozenset:
        """Answer tuples for the goal's slots, in slot order, by proofs of
        height at most ``depth``; memoized per (goal, depth)."""
        predicate, parts = canon
        carried = self._allowed.get((predicate, len(parts)))
        if carried is None:
            carried = self._allowed[(predicate, len(parts))] = tuple(
                (i, vals) for i, vals in enumerate(self._carried(predicate, len(parts))) if vals is not None
            )
        for i, vals in carried:
            if parts[i] not in vals and isinstance(parts[i], str):  # a slot is never in a set
                self.pruned += 1
                return _NO_ANSWERS
        key = (predicate, *parts, depth)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        shape = tuple([None if isinstance(p, str) else p for p in parts])
        source, bound_at, checks, same, project, plans = self._shapes.get((predicate, shape)) or self._shape_table(
            predicate, shape
        )
        results = set(map(project, _matching(source, parts, bound_at, checks, same)))
        if depth > 0 and plans:
            for plan in plans:
                if (plan.checks or plan.eqs) and not plan.admits(parts):
                    continue
                partials = {plan.start(parts)}
                for step in plan.steps:
                    partials = _join(partials, step, _Probes(self._solve, step, depth - 1).__getitem__)
                    if not partials:
                        break
                results.update(map(plan.emit, partials))
        res = self._memo[key] = frozenset(results) if results else _NO_ANSWERS
        return res


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


def _fire_clause(clause: HornClause, child_sets: Sequence[frozenset[tuple]]) -> set[tuple]:
    """Hash-join the clause body against its body relations' row sets through
    the clause's all-slots plan and emit the instantiated head rows.  Each
    join keeps only the columns still needed downstream, which keeps
    intermediate results bounded on fact-rich KBs."""
    plan = _rule_plan(clause, tuple(range(clause.head.arity)))
    partials: set[tuple] = {()}
    for step in plan.steps:
        rows = child_sets[step.index]
        if step.consts:
            at, want = step.consts
            rows = [r for r in rows if at(r) == want]
        if step.same:
            rows = [r for r in rows if all(r[i] == r[j] for i, j in step.same)]
        index: dict[tuple, set[tuple]] = defaultdict(set)
        row_key, row_new = step.row_key, step.row_new
        for row in rows:
            index[row_key(row)].add(row_new(row))
        partials = _join(partials, step, index.get)
        if not partials:
            return set()
    return set(map(plan.emit, partials))


def _node_rows(
    space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool, cache: Optional[SnapshotCache] = None
) -> dict[str, frozenset[tuple]]:
    """Derived rows per member OR node: the rows of the store's relation of
    its predicate and arity with its retained AND nodes' rule applications,
    each over its children's relations."""
    cache = cache or SnapshotCache(kb, genlpreds_mode)
    graph = space.graph
    cache.check(kb, genlpreds_mode)
    if genlpreds_mode != graph.genlpreds_mode:
        raise ValueError(f"genlPreds mode {genlpreds_mode} differs from the space's graph's")
    clause, and_nodes = graph.axioms.clause, graph.and_nodes
    rids: dict[str, int] = {}
    for oid in space.reverse_topological_or_order():
        node = graph.or_nodes[oid]
        applied = frozenset([
            (clause(anode.clause_id), tuple([rids[c] for c in anode.children]))
            for anode in map(and_nodes.__getitem__, space.member_and_children(oid))
        ])
        rids[oid] = cache.relation(node.predicate, node.arity, applied)
    memo: dict[int, frozenset[tuple]] = {}
    return {oid: cache.rows(rid, memo) for oid, rid in rids.items()}


def bottom_up_eval(
    space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool = True
) -> dict[str, frozenset[Atom]]:
    """Derived ground atoms per member OR node, children evaluated first.

    A node's set is its retrieval matches plus every head derivable through a
    retained rule application whose body atoms are all satisfied from the
    child sets, each atom under the node's own predicate; a genlpreds_mode
    other than the graph's raises ValueError.
    """
    or_nodes = space.graph.or_nodes
    return {
        oid: frozenset(Atom(or_nodes[oid].predicate, row) for row in rows)
        for oid, rows in _node_rows(space, kb, genlpreds_mode).items()
    }


def depth_profile(
    space: SearchSpace, kb: KnowledgeBase, genlpreds_mode: bool = True, cache: Optional[SnapshotCache] = None
) -> dict[int, int]:
    """Distinct derived atoms per depth (union across the OR nodes of that
    depth), the percolation profile from the leaves toward the roots.  A
    cache shares relations and rule applications with the snapshot's other
    spaces and with their Q/A."""
    sets = _node_rows(space, kb, genlpreds_mode, cache)
    by_depth: dict[int, dict[str, frozenset[tuple]]] = defaultdict(dict)
    for oid in space.or_members:
        node = space.graph.or_nodes[oid]
        rows = by_depth[node.depth]  # an atom is a (predicate, row) pair
        prev = rows.get(node.predicate)
        rows[node.predicate] = sets[oid] if prev is None else prev | sets[oid]
    return {d: sum(map(len, rows.values())) for d, rows in sorted(by_depth.items())}
