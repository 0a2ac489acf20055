"""Independent checker: a stratified, hash-indexed fixpoint over plain tuples.

It shares no evaluation code with ``percolog.engine``.  Facts are
``(predicate, (arg, ...))`` string tuples and rules are
``(head, (body atom, ...))`` with variables spelled ``?name``.  Predicates are
evaluated one strongly connected component at a time in dependency order, so
a rule set without predicate-level recursion needs a single join pass per
rule; a recursive component is iterated until nothing new is derived.
"""

from __future__ import annotations

from collections import defaultdict


def _is_var(term: str) -> bool:
    return term.startswith("?")


def _strata(rules):
    """Head predicates grouped into strongly connected components of the
    body-to-head dependency graph, dependencies first (Tarjan)."""
    deps = defaultdict(set)
    for (head_pred, _), body in rules:
        deps[head_pred].update(pred for pred, _ in body)
    index, low, on_stack, stack, out = {}, {}, set(), [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in deps.get(v, ()):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
                if w == v:
                    break
            out.append(comp)

    for v in sorted(deps):
        if v not in index:
            visit(v)
    return out


class _Indexes:
    """Hash indexes on a relation keyed by a tuple of argument positions,
    built on first use and dropped when the relation grows."""

    def __init__(self, relations):
        self.relations = relations
        self._cache = {}

    def lookup(self, pred, positions, key):
        idx = self._cache.get((pred, positions))
        if idx is None:
            idx = defaultdict(list)
            for tup in self.relations.get(pred, ()):
                idx[tuple(tup[i] for i in positions)].append(tup)
            self._cache[(pred, positions)] = idx
        return idx.get(key, ())

    def invalidate(self, preds):
        for k in [k for k in self._cache if k[0] in preds]:
            del self._cache[k]


def _fire(rule, indexes):
    """All head tuples of one rule, joining body atoms most-bound first."""
    (head_pred, head_args), body = rule
    bindings = [{}]
    remaining = list(body)
    while remaining and bindings:
        bound = bindings[0].keys()
        remaining.sort(key=lambda a: sum(1 for t in a[1] if _is_var(t) and t not in bound))
        pred, args = remaining.pop(0)
        positions = tuple(i for i, t in enumerate(args) if not _is_var(t) or t in bound)
        free = [(i, t) for i, t in enumerate(args) if _is_var(t) and t not in bound]
        nxt = []
        for b in bindings:
            key = tuple(b[args[i]] if _is_var(args[i]) else args[i] for i in positions)
            for tup in indexes.lookup(pred, positions, key):
                ext = dict(b)
                ok = True
                for i, v in free:
                    prev = ext.get(v)
                    if prev is None:
                        ext[v] = tup[i]
                    elif prev != tup[i]:
                        ok = False
                        break
                if ok:
                    nxt.append(ext)
        bindings = nxt
    return {tuple(b[t] if _is_var(t) else t for t in head_args) for b in bindings}


def fixpoint(facts, rules):
    """Least model of ``facts`` under ``rules`` as ``{predicate: set of arg tuples}``."""
    relations = defaultdict(set)
    for pred, args in facts:
        relations[pred].add(tuple(args))
    indexes = _Indexes(relations)
    for comp in _strata(rules):
        comp_rules = [r for r in rules if r[0][0] in comp]
        recursive = any(pred in comp for r in comp_rules for pred, _ in r[1])
        while True:
            grew = set()
            for rule in comp_rules:
                rel = relations[rule[0][0]]
                before = len(rel)
                rel |= _fire(rule, indexes)
                if len(rel) != before:
                    grew.add(rule[0][0])
            indexes.invalidate(grew)
            if not recursive or not grew:
                break
    return relations


def answer_counts(relations, patterns):
    """For each ``(predicate, args)`` query pattern with exactly one open
    position, the number of distinct values that position takes."""
    indexes = _Indexes(relations)
    out = []
    for pred, args in patterns:
        open_pos = [i for i, t in enumerate(args) if _is_var(t)]
        if len(open_pos) != 1:
            raise ValueError(f"query {pred}{args} must have exactly one open position")
        bound = tuple(i for i in range(len(args)) if i != open_pos[0])
        hits = indexes.lookup(pred, bound, tuple(args[i] for i in bound))
        out.append(len({tup[open_pos[0]] for tup in hits}))
    return out
