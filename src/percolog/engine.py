"""Depth-limited backward chaining and bottom-up evaluation of search spaces.

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
hash-joins the child nodes' row sets.

Depth accounting: applying a rule costs one depth unit, ground retrieval is
free, so depth_limit 0 answers by retrieval only.  Every subgoal is solved
with one unit less, so the search ends at the depth limit on any rule set,
recursive ones included, and the answers at limit d are exactly the atoms
with a proof of height at most d.  Results are memoized per canonical goal
(predicate, constants and first-occurrence variable slots) and remaining
depth; a deep query over recursive rules holds up to one answer set per
(goal, depth) pair.

The cells of a sweep sample many spaces from one snapshot, and their
retained rule sets overlap.  Passing them one :class:`SnapshotCache` lets them
share work besides the rows: bottom-up, the head rows of each rule
application under the hash-consed signatures of its children; top-down, the
goal memo of each retained-clause cone, since a goal's answers depend only on
the clauses it can reach.  An evaluation given no cache makes its own.

With ``genlpreds_mode`` on (the default), a goal additionally matches facts
and rule heads whose predicate implies the goal's predicate via genlPreds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .graph import AndOrGraph, GoalSchema, SearchSpace, greedy_body_order
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


_NO_ANSWERS: frozenset = frozenset()  # every empty answer set, shared


class SnapshotCache:
    """The evaluation context of one snapshot of the KB under one genlPreds
    mode, and the work shared by every space evaluated on it; drop it when
    the sweep moves to the next snapshot.

    Both engines retrieve facts from its base rows: per (predicate, arity),
    the rows of every predicate in ``preds``, indexed per argument position
    on first use.  Bottom-up, each member OR node gets a hash-consed
    signature id: the node plus its retained AND children with their
    children's signature ids.  Two
    cells whose nodes carry the same signatures derive the same rows, so the
    head rows of a rule application are cached per (AND node, child
    signature ids), each distinct row as one tuple.  Top-down, a goal's
    answers at a depth depend only on the cone of retained clauses its
    predicate reaches through heads and body atoms, recursion included, so
    the goal memo is kept per cone.  A cone's memo is shared from its second
    evaluator on: a cone only one cell uses stays in that evaluator's private
    memo and dies with it.
    """

    def __init__(self, kb: KnowledgeBase, genlpreds_mode: bool = True):
        self.kb = kb
        self.mode = genlpreds_mode
        self.graph: Optional[AndOrGraph] = None  # bound by the first depth profile
        self._base: dict[tuple[str, int], frozenset[tuple]] = {}  # (predicate, arity) -> KB rows
        self._indexes: dict[tuple[str, int, int], dict[str, list]] = {}  # (predicate, arity, position) -> rows by symbol
        self._sigs: dict[tuple, int] = {}  # (OR node, its retained applications) -> signature id
        self._fired: dict[tuple, tuple] = {}  # (AND node, child signature ids) -> head rows
        self._rows: dict[tuple, tuple] = {}  # head row -> its one cached tuple
        self._bits: dict[HornClause, int] = {}  # clause content -> its bit in a cone
        self._first: dict[int, int] = {}  # cone -> the evaluator that used it first
        self._memos: dict[int, dict] = {}  # cone -> its shared goal memo
        self._evaluators = 0
        self.fired_hits = 0
        self.memo_hits = 0

    def check(self, kb: KnowledgeBase, genlpreds_mode: bool, graph: Optional[AndOrGraph] = None) -> None:
        """Raise ValueError unless the cache serves this snapshot and mode,
        and the graph its rule applications were cached on."""
        bound = graph if self.graph is None else self.graph
        if kb is not self.kb or genlpreds_mode != self.mode or graph not in (None, bound):
            raise ValueError("a SnapshotCache serves one KB snapshot, genlPreds mode and graph")
        self.graph = bound

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

    def cone_bit(self, clause: HornClause) -> int:
        """The clause's bit in the cones: one bit per clause content."""
        bit = self._bits.get(clause)
        if bit is None:
            bit = self._bits[clause] = 1 << len(self._bits)
        return bit

    def memo(self, cone: int, evaluator: int, private: dict) -> dict:
        """The goal memo of the cone for the evaluator: its private memo when
        it is the cone's first user, the shared one from the second on."""
        memo = self._memos.get(cone)
        if memo is None:
            if self._first.setdefault(cone, evaluator) == evaluator:
                return private
            memo = self._memos[cone] = {}
        return memo

    def stats(self) -> str:
        """The cache's size and hits, for the sweep's debug log."""
        return (
            f"{len(self._memos)} shared cones, {sum(map(len, self._memos.values()))} memo entries, "
            f"{len(self._fired)} cached rule applications, {self.fired_hits} rule-application hits, "
            f"{self.memo_hits} memo hits"
        )


class Evaluator:
    """Reusable backchaining context over a fixed (kb, axioms, mode) triple.

    Goals are canonical pairs ``(predicate, parts)``: each part is a constant
    symbol or the int slot of a goal variable, numbered by first occurrence.
    A rule application runs the clause's plan for the goal's shape
    (``_rule_plan``): it checks the goal's constants against the head, then
    joins the body set-at-a-time, solving each distinct subgoal once per body
    atom, one depth unit below the goal.  Facts are matched as the KB's
    symbol-tuple rows.  The depth limit alone ends the search, so recursive
    rules get every answer whose proof fits in the limit, at up to one memo
    entry per (goal, depth).
    Facts are retrieved from a :class:`SnapshotCache`, a private one unless
    one is passed.  Sharing one evaluator across a query set amortizes the
    goal memo and the per-shape tables of retained clause plans; sharing a
    cache shares the row indices and each retained-clause cone's memo with
    the snapshot's other evaluators.
    Evaluators are not shared between threads; create one per worker.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        axioms: AxiomSet,
        genlpreds_mode: bool = True,
        cache: Optional[SnapshotCache] = None,
    ):
        self.axioms = axioms
        self.cache = cache = cache or SnapshotCache(kb, genlpreds_mode)
        cache.check(kb, genlpreds_mode)
        cache._evaluators += 1
        self._serial = cache._evaluators
        self._memo: dict = {}  # (predicate, *parts, depth) -> answers, for the goals of cones not shared
        self._memos: dict[tuple[str, int], dict] = {}  # (predicate, arity) -> the memo its goals use
        self._reaches: dict[tuple[str, int], tuple[int, set]] = {}
        self._shapes: dict[tuple, tuple] = {}
        self.hits = 0  # memo hits

    def _heads(self, predicate: str, arity: int) -> list[HornClause]:
        """The retained clauses whose heads can answer goals of the predicate
        and arity."""
        preds = self.cache.preds(predicate)
        return [c for c in self.axioms if c.head.predicate in preds and c.head.arity == arity]

    def _reach(self, predicate: str, arity: int) -> tuple[int, set]:
        """The cone bits of the retained clauses answering goals of the
        predicate and arity, and the (predicate, arity) of their body atoms."""
        reach = self._reaches.get((predicate, arity))
        if reach is None:
            heads = self._heads(predicate, arity)
            bits = 0
            for c in heads:
                bits |= self.cache.cone_bit(c)
            reach = self._reaches[(predicate, arity)] = (bits, {(a.predicate, a.arity) for c in heads for a in c.body})
        return reach

    def _memo_for(self, predicate: str, arity: int) -> dict:
        """The memo of goals of the predicate and arity: the private one, or
        the cache's memo of their cone, the retained clauses reachable from
        them through heads and body atoms."""
        cone, seen, todo = 0, {(predicate, arity)}, [(predicate, arity)]
        while todo:
            bits, below = self._reach(*todo.pop())
            cone |= bits
            todo += below - seen
            seen |= below
        memo = self._memos[(predicate, arity)] = self.cache.memo(cone, self._serial, self._memo)
        return memo

    def _shape_table(self, predicate: str, shape: tuple) -> tuple:
        """Build the table for goals of the predicate and shape: the cache's
        base rows answering them (or their index on the first bound
        position), the retrieval checks and projection, and the plans of the
        retained clauses whose heads can answer them."""
        arity = len(shape)
        consts = [i for i, g in enumerate(shape) if g is None]
        first: dict[int, int] = {}  # slot -> position of its first occurrence
        same = []  # later occurrences of a repeated slot
        for i, g in enumerate(shape):
            if g is not None:
                if g in first:
                    same.append((i, first[g]))
                else:
                    first[g] = i
        plans = (_rule_plan(c, shape) for c in self._heads(predicate, arity))
        table = self._shapes[(predicate, shape)] = (
            self.cache.base_index(predicate, arity, consts[0]) if consts else self.cache.base_rows(predicate, arity),
            consts[0] if consts else None,
            _getter(*consts[1:]) if len(consts) > 1 else None,  # the first is looked up in an index
            tuple(same),
            _getter(*first.values()),
            tuple(p for p in plans if p is not None),
        )
        return table

    def ask(self, query: Query, depth_limit: int) -> frozenset[str]:
        """The constants that answer the query's open variable by a proof of
        height at most ``depth_limit``.  Raises ValueError when the search
        nests deeper than Python's recursion limit, as recursive rules do at
        depth limits in the hundreds."""
        if depth_limit < 0:
            raise ValueError("depth_limit must be >= 0")
        slots: dict[Variable, int] = {}
        parts = tuple(t if isinstance(t, str) else slots.setdefault(t, len(slots)) for t in query.atom.args)
        try:
            return frozenset([t[0] for t in self._solve((query.atom.predicate, parts), depth_limit)])
        except RecursionError:
            raise ValueError(
                f"depth limit {depth_limit} is too deep for {query.atom}: the search exceeds Python's recursion limit"
            ) from None

    def _solve(self, canon: tuple, depth: int) -> frozenset:
        """Answer tuples for the goal's slots, in slot order, by proofs of
        height at most ``depth``; memoized per (goal, depth)."""
        predicate, parts = canon
        memo = self._memos.get((predicate, len(parts)))
        if memo is None:
            memo = self._memo_for(predicate, len(parts))
        key = (predicate, *parts, depth)
        hit = memo.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        shape = tuple([None if isinstance(p, str) else p for p in parts])
        rows, bound_at, checks, same, project, plans = self._shapes.get((predicate, shape)) or self._shape_table(
            predicate, shape
        )
        if bound_at is not None:
            rows = rows.get(parts[bound_at], ())
        if checks:
            want = checks(parts)
            rows = [r for r in rows if checks(r) == want]
        if same:
            rows = [r for r in rows if all(r[i] == r[j] for i, j in same)]
        results = set(map(project, rows))
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
        res = memo[key] = frozenset(results) if results else _NO_ANSWERS
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
    """Hash-join the clause body against the child OR nodes' row sets through
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
    """Derived rows per member OR node, children evaluated first.  A node's
    rows are the cache's base rows of its predicate and arity; retained rule
    applications add head rows, which the cache keeps per (AND node, child
    signature ids), one tuple per distinct row."""
    cache = cache or SnapshotCache(kb, genlpreds_mode)
    graph = space.graph
    cache.check(kb, genlpreds_mode, graph)
    if genlpreds_mode != graph.genlpreds_mode:
        raise ValueError(f"genlPreds mode {genlpreds_mode} differs from the space's graph's")
    axioms = graph.axioms
    sigs, fired, intern = cache._sigs, cache._fired, cache._rows.setdefault
    node_sig: dict[str, int] = {}
    sets: dict[str, frozenset[tuple]] = {}
    for oid in space.reverse_topological_or_order():
        node = graph.or_nodes[oid]
        applied, derived = [], []
        for aid in space.member_and_children(oid):
            anode = graph.and_nodes[aid]
            key = (aid, tuple([node_sig[c] for c in anode.children]))
            rows = fired.get(key)
            if rows is None:
                heads = _fire_clause(axioms.clause(anode.clause_id), [sets[c] for c in anode.children])
                rows = fired[key] = tuple([intern(row, row) for row in heads])
            else:
                cache.fired_hits += 1
            applied.append(key)
            derived.append(rows)
        node_sig[oid] = sigs.setdefault((oid, tuple(applied)), len(sigs))
        base = cache.base_rows(node.predicate, node.arity)
        sets[oid] = base.union(*derived) if derived else base
    return sets


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
    cache shares rule applications with the snapshot's other spaces."""
    sets = _node_rows(space, kb, genlpreds_mode, cache)
    by_depth: dict[int, dict[str, frozenset[tuple]]] = defaultdict(dict)
    for oid in space.or_members:
        node = space.graph.or_nodes[oid]
        rows = by_depth[node.depth]  # an atom is a (predicate, row) pair
        prev = rows.get(node.predicate)
        rows[node.predicate] = sets[oid] if prev is None else prev | sets[oid]
    return {d: sum(map(len, rows.values())) for d, rows in sorted(by_depth.items())}
