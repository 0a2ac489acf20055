"""Shared fixtures: tiny KB builders, an independent bottom-up fixpoint
oracle, and a seeded random-domain generator for engine-vs-oracle checks.

The oracles work on plain (predicate, args) tuples with their own matcher so
they share no evaluation code with the package.  Rule chains in generated
domains are level-stratified (heads strictly below bodies), which keeps the
query graphs cycle-free the way every input the synthesizer makes is; the
recursive family lifts that restriction.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

import percolog
from percolog import (
    Atom,
    AxiomSet,
    Fact,
    HornClause,
    KnowledgeBase,
    QueryTemplate,
    Variable,
    parse_kb,
)

# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the tested sources on PYTHONPATH, as
    from a checkout without an install; env adds environment variables."""
    src = str(Path(percolog.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath, **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def T(token: str):
    return Variable(token[1:]) if token.startswith("?") else token


def A(pred: str, *args: str) -> Atom:
    return Atom(pred, tuple(T(a) for a in args))


def F(pred: str, *args: str) -> Fact:
    return Fact(pred, args)


def kb_of(*fact_specs) -> KnowledgeBase:
    return KnowledgeBase(F(*spec) for spec in fact_specs)


def node_chain_text(*rules: str) -> str:
    """KB text for the 40-node chain N0 -> ... -> N39 of par facts, each node
    an instance of Node (for templates over Node), followed by ``rules``."""
    lines = [f"(isa N{i} Node)" for i in range(40)] + [f"(par N{i} N{i + 1})" for i in range(39)]
    return "\n".join([*lines, *rules]) + "\n"


# ---------------------------------------------------------------------------
# Independent oracle: naive bottom-up fixpoint on plain tuples
# ---------------------------------------------------------------------------


def plain_atom(atom: Atom) -> tuple:
    return (atom.predicate, tuple(str(t) for t in atom.args))


def plain_clause(clause: HornClause) -> tuple:
    return (plain_atom(clause.head), tuple(plain_atom(a) for a in clause.body))


def _match_plain(pattern_args, ground_args, binding):
    binding = dict(binding)
    for p, g in zip(pattern_args, ground_args):
        if p.startswith("?"):
            if p in binding:
                if binding[p] != g:
                    return None
            else:
                binding[p] = g
        elif p != g:
            return None
    return binding


def naive_fixpoint(kb: KnowledgeBase, axioms: AxiomSet, genl_edges=()) -> set:
    """Exhaustive bottom-up closure of facts under the rules, with optional
    genlPreds saturation ((s args) also derives (g args) for s implying g)."""
    derived = {plain_atom(f.atom) for f in kb.sorted_facts()}
    clauses = [plain_clause(c) for c in axioms]
    edges = list(genl_edges)
    changed = True
    while changed:
        changed = False
        for s, g in edges:
            for pred, args in list(derived):
                if pred == s and (g, args) not in derived:
                    derived.add((g, args))
                    changed = True
        for head, body in clauses:
            solutions = [{}]
            for b_pred, b_args in body:
                nxt = []
                for binding in solutions:
                    for pred, args in derived:
                        if pred != b_pred or len(args) != len(b_args):
                            continue
                        extended = _match_plain(b_args, args, binding)
                        if extended is not None:
                            nxt.append(extended)
                solutions = nxt
                if not solutions:
                    break
            h_pred, h_args = head
            for binding in solutions:
                atom = (h_pred, tuple(binding.get(a, a) for a in h_args))
                if atom not in derived:
                    derived.add(atom)
                    changed = True
    return derived


def fixpoint_rounds(kb: KnowledgeBase, axioms: AxiomSet, genl_edges=()) -> list[set]:
    """Atoms by minimal proof height: entry r holds every atom with a proof
    of at most r rule applications, and the last entry is the closure.  Round
    r fires each rule once on round r - 1's atoms only; genlPreds copies
    ((s args) also derives (g args) for s implying g) are free, so each round
    is closed under them."""
    clauses = [plain_clause(c) for c in axioms]

    def close(atoms: set) -> set:
        atoms = set(atoms)
        while True:
            copies = {(g, args) for s, g in genl_edges for pred, args in atoms if pred == s} - atoms
            if not copies:
                return atoms
            atoms |= copies

    rounds = [close({plain_atom(f.atom) for f in kb.sorted_facts()})]
    while True:
        prev = rounds[-1]
        by_pred: dict = {}
        for pred, args in prev:
            by_pred.setdefault((pred, len(args)), []).append(args)
        heads = set()
        for (h_pred, h_args), body in clauses:
            solutions, todo = [{}], list(body)
            while todo and solutions:
                # the atom with the most arguments already fixed goes next
                b_pred, b_args = max(todo, key=lambda a: sum(t in solutions[0] or t[0] != "?" for t in a[1]))
                todo.remove((b_pred, b_args))
                keep = set(h_args).union(*(args for _, args in todo))  # variables read later
                solutions = [dict(b) for b in {
                    frozenset((v, c) for v, c in extended.items() if v in keep)
                    for binding in solutions
                    for args in by_pred.get((b_pred, len(b_args)), ())
                    for extended in [_match_plain(b_args, args, binding)]
                    if extended is not None
                }]
            heads.update((h_pred, tuple(binding.get(a, a) for a in h_args)) for binding in solutions)
        nxt = close(prev | heads)
        if nxt == prev:
            return rounds
        rounds.append(nxt)


def oracle_bindings(fixpoint: set, query_atom: Atom) -> set:
    """Constants filling the query's single open slot in the fixpoint."""
    p_args = [str(t) for t in query_atom.args]
    out = set()
    for pred, args in fixpoint:
        if pred != query_atom.predicate or len(args) != len(p_args):
            continue
        binding = _match_plain(p_args, args, {})
        if binding is not None:
            out.add(next(iter(binding.values())))
    return out


# ---------------------------------------------------------------------------
# Random stratified domains
# ---------------------------------------------------------------------------


class RandomDomain:
    def __init__(self, kb, axioms, templates, genl_edges):
        self.kb = kb
        self.axioms = axioms
        self.templates = templates
        self.genl_edges = genl_edges


def random_domain(seed: int, with_genlpreds: bool = False, recursive: bool = False) -> RandomDomain:
    """A small random KB + rule set + templates (<= 10 predicates, <= 50
    facts, <= 15 range-restricted rules).  The rules are level-stratified
    unless ``recursive``: then rule bodies may use the head's own level, and
    up to four rules more close binary predicates transitively: one query
    predicate over itself, on top of a ring of its facts through every
    entity, a mutually recursive pair, and a genlPreds specialization over
    its generalization."""
    rng = random.Random(seed)
    n_preds = rng.randint(3, 10)
    n_levels = rng.randint(2, min(4, n_preds))
    n_entities = rng.randint(4, 12)
    n_collections = rng.randint(1, 3)
    entities = [f"e{i}" for i in range(n_entities)]
    collections = [f"c{i}" for i in range(n_collections)]
    preds = [f"q{i}" for i in range(n_preds)]

    level = {}
    for i, p in enumerate(preds):
        level[p] = i if i < n_levels else rng.randrange(n_levels)
    # root (level 0) predicates are query targets and stay binary
    arity = {p: 2 if level[p] == 0 else rng.randint(1, 3) for p in preds}

    fact_lines = []
    for i, e in enumerate(entities):
        col = collections[i % n_collections]
        fact_lines.append(f"(isa {e} {col})")
    if n_collections >= 2 and rng.random() < 0.6:
        fact_lines.append(f"(genls {collections[1]} {collections[0]})")

    # no more facts than the predicates and entities admit
    n_facts = min(rng.randint(5, 50), sum(n_entities ** arity[p] for p in preds))
    seen = set()
    while len(seen) < n_facts:
        p = rng.choice(preds)
        args = tuple(rng.choice(entities) for _ in range(arity[p]))
        seen.add((p, args))
    fact_lines.extend(f"({p} {' '.join(args)})" for p, args in sorted(seen))

    genl_edges = []
    if with_genlpreds:
        # same-level, higher-index-implies-lower-index: keeps stratification
        by_level = {}
        for p in preds:
            by_level.setdefault(level[p], []).append(p)
        for members in by_level.values():
            for i in range(1, len(members)):
                if rng.random() < 0.4 and arity[members[i]] == arity[members[i - 1]]:
                    genl_edges.append((members[i], members[i - 1]))
        fact_lines.extend(f"(genlPreds {s} {g})" for s, g in genl_edges)

    rule_lines = []
    n_rules = rng.randint(1, 15)
    heads = [p for p in preds if recursive or any(level[q] > level[p] for q in preds)]
    for _ in range(n_rules):
        head_pred = rng.choice(heads)
        pool = [q for q in preds if level[q] > level[head_pred] or recursive and level[q] == level[head_pred]]
        body_preds = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        head_vars = [f"?x{i}" for i in range(arity[head_pred])]
        if arity[head_pred] >= 2 and rng.random() < 0.3:
            head_vars[rng.randrange(arity[head_pred])] = head_vars[0]  # repeated head var
        positions = [(bi, ai) for bi, bp in enumerate(body_preds) for ai in range(arity[bp])]
        needed = sorted(set(head_vars))
        while len(positions) < len(needed):
            body_preds.append(rng.choice(pool))
            positions.extend((len(body_preds) - 1, ai) for ai in range(arity[body_preds[-1]]))
        rng.shuffle(positions)
        slots = {}
        for v, pos in zip(needed, positions):
            slots[pos] = v
        fresh = count()
        body_atoms = []
        for bi, bp in enumerate(body_preds):
            args = []
            for ai in range(arity[bp]):
                if (bi, ai) in slots:
                    args.append(slots[(bi, ai)])
                else:
                    roll = rng.random()
                    if roll < 0.45:
                        args.append(rng.choice(head_vars))
                    elif roll < 0.75:
                        args.append(f"?z{next(fresh)}")
                    else:
                        args.append(rng.choice(entities))
            body_atoms.append(f"({bp} {' '.join(args)})")
        rule_lines.append(f"(<= ({head_pred} {' '.join(head_vars)}) {' '.join(body_atoms)})")
    if recursive:
        # closures that meet their own goal again, whichever argument a query
        # binds: self-recursion, a mutual pair and recursion through genlPreds
        root = rng.choice([p for p in preds if level[p] == 0])
        rule_lines.append(f"(<= ({root} ?x ?y) ({root} ?x ?z) ({root} ?z ?y))")
        # a ring through every entity, so that each query has answers of several heights
        fact_lines += [f"({root} {a} {b})" for a, b in zip(entities, entities[1:] + entities[:1])]
        binary = [p for p in preds if arity[p] == 2]
        if len(binary) >= 2:
            a, b = rng.sample(binary, 2)
            rule_lines += [f"(<= ({a} ?x ?y) ({b} ?x ?z) ({b} ?z ?y))", f"(<= ({b} ?x ?y) ({a} ?x ?y))"]
            # the higher index implies the lower, as with_genlpreds has it: no cycle
            g, s = sorted(rng.sample(binary, 2), key=preds.index)
            genl_edges.append((s, g))
            fact_lines.append(f"(genlPreds {s} {g})")
            rule_lines.append(f"(<= ({s} ?x ?y) ({g} ?x ?z) ({g} ?z ?y))")

    kb, axioms = parse_kb("\n".join(fact_lines + rule_lines))
    templates = []
    for i, p in enumerate(pr for pr in preds if level[pr] == 0):
        bound = rng.choice((1, 2))
        templates.append(
            QueryTemplate(
                id=f"t{i}",
                predicate=p,
                bound_position=bound,
                param_collection=rng.choice(collections),
                open_position=2 if bound == 1 else 1,
            )
        )
    return RandomDomain(kb, axioms, templates, genl_edges)


@pytest.fixture
def touches_near():
    """The predicate-generalization example: touching implies being near."""
    return parse_kb(
        """
        (genlPreds touches near)
        (touches A B)
        (<= (near ?x ?y) (touches ?x ?y))
        """
    )
