"""Function-symbol-free first-order knowledge bases with Cyc-style hierarchy
predicates (isa / genls / genlPreds / argIsa) and a line-oriented text format.

A knowledge base holds ground facts only; rules live in a separate
:class:`AxiomSet`.  Hierarchy predicates are stored as ordinary facts but get
precomputed closure tables so that type and predicate-generalization queries
are cheap.  KnowledgeBase instances are immutable after construction:
``add_facts`` returns a new value, and every read is safe under concurrency.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

RESERVED_PREDICATES = ("isa", "genls", "genlPreds", "argIsa")
_RESERVED_ARITY = {"isa": 2, "genls": 2, "genlPreds": 2, "argIsa": 3}


class KbError(Exception):
    """Base class for KB parsing and validation failures."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class KbSyntaxError(KbError):
    """Malformed input text (always carries a position)."""


class ArityConflictError(KbError):
    """A predicate was used with two different arities."""


class KbValidationError(KbError):
    """Structurally valid input violating a KB invariant (non-ground fact,
    unrestricted rule variable, cyclic hierarchy, bad argIsa position)."""


# ---------------------------------------------------------------------------
# Terms, atoms, facts, clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    symbol: str

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class Variable:
    name: str  # without the "?" sigil

    def __str__(self) -> str:
        return "?" + self.name


Term = Union[Constant, Variable]


def term_key(term: Term) -> tuple[str, str]:
    """Total order over terms: constants before variables, then lexicographic."""
    if isinstance(term, Constant):
        return ("c", term.symbol)
    return ("v", term.name)


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 1:
            raise KbValidationError(f"atom {self.predicate!r} has no arguments (arity >= 1 required)")

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.args)

    def variables(self) -> tuple[Variable, ...]:
        """Distinct variables in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for t in self.args:
            if isinstance(t, Variable):
                seen.setdefault(t)
        return tuple(seen)

    def __str__(self) -> str:
        return "(" + " ".join([self.predicate] + [str(t) for t in self.args]) + ")"


@dataclass(frozen=True)
class Fact:
    atom: Atom

    def __post_init__(self) -> None:
        if not self.atom.is_ground():
            raise KbValidationError(f"fact {self.atom} is not ground")

    def __str__(self) -> str:
        return str(self.atom)


def fact_key(f: Fact) -> tuple:
    return (f.atom.predicate,) + tuple(t.symbol for t in f.atom.args)  # type: ignore[union-attr]


@dataclass(frozen=True)
class HornClause:
    """One definite rule.  ``id`` is bookkeeping metadata and excluded from
    equality so that re-parsed rule sets compare by content."""

    head: Atom
    body: tuple[Atom, ...]
    id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if len(self.body) < 1:
            raise KbValidationError(f"rule {self.head} has an empty body (enter bodiless rules as facts)")
        body_vars = {v for a in self.body for v in a.variables()}
        loose = [v for v in self.head.variables() if v not in body_vars]
        if loose:
            raise KbValidationError(
                f"rule {self.head} is not range-restricted: head variable {loose[0]} missing from body"
            )

    def __str__(self) -> str:
        return "(<= " + " ".join([str(self.head)] + [str(a) for a in self.body]) + ")"


class AxiomSet:
    """An ordered collection of Horn clauses with id lookup."""

    def __init__(self, clauses: Iterable[HornClause]):
        self.clauses: tuple[HornClause, ...] = tuple(clauses)
        self._by_id: dict[str, HornClause] = {}
        for c in self.clauses:
            if not c.id:
                raise ValueError(f"clause {c} has no id")
            if c.id in self._by_id:
                raise ValueError(f"duplicate clause id {c.id!r}")
            self._by_id[c.id] = c

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[HornClause]:
        return iter(self.clauses)

    def clause(self, clause_id: str) -> HornClause:
        return self._by_id[clause_id]

    def restrict(self, ids: Iterable[str]) -> "AxiomSet":
        keep = set(ids)
        return AxiomSet(c for c in self.clauses if c.id in keep)


# ---------------------------------------------------------------------------
# KnowledgeBase
# ---------------------------------------------------------------------------


class KnowledgeBase:
    """Immutable indexed set of ground facts.

    Hierarchy closures (instances_of / spec_preds), argIsa constraints and the
    retrieval indices are all precomputed here, so reads never mutate state.
    """

    def __init__(self, facts: Iterable[Fact]):
        by_key: dict[tuple, Fact] = {}
        arity: dict[str, int] = dict(_RESERVED_ARITY)
        order: list[Fact] = []
        for f in facts:
            pred = f.atom.predicate
            known = arity.get(pred)
            if known is None:
                arity[pred] = f.atom.arity
            elif known != f.atom.arity:
                raise ArityConflictError(
                    f"predicate {pred!r} used with arity {f.atom.arity} but fixed at {known}"
                )
            k = fact_key(f)
            if k not in by_key:
                by_key[k] = f
                order.append(f)
        self._facts: tuple[Fact, ...] = tuple(sorted(order, key=fact_key))
        self._fact_set: frozenset[Fact] = frozenset(self._facts)
        self._arity = arity

        self._by_pred: dict[str, tuple[Fact, ...]] = {}
        self._by_pred_first: dict[tuple[str, str], tuple[Fact, ...]] = {}
        self._atoms_by_pred: dict[str, frozenset[Atom]] = {}
        bp: dict[str, list[Fact]] = defaultdict(list)
        bpf: dict[tuple[str, str], list[Fact]] = defaultdict(list)
        for f in self._facts:
            bp[f.atom.predicate].append(f)
            bpf[(f.atom.predicate, f.atom.args[0].symbol)].append(f)  # type: ignore[union-attr]
        self._by_pred = {k: tuple(v) for k, v in bp.items()}
        self._by_pred_first = {k: tuple(v) for k, v in bpf.items()}
        self._atoms_by_pred = {k: frozenset(f.atom for f in v) for k, v in self._by_pred.items()}

        self._arg_isa = self._collect_arg_isa()
        genls_edges = [(f.atom.args[0].symbol, f.atom.args[1].symbol) for f in self._by_pred.get("genls", ())]  # type: ignore[union-attr]
        genlpreds_edges = [(f.atom.args[0].symbol, f.atom.args[1].symbol) for f in self._by_pred.get("genlPreds", ())]  # type: ignore[union-attr]
        _check_acyclic("genls", genls_edges)
        _check_acyclic("genlPreds", genlpreds_edges)
        self._instances = self._build_instance_closure(genls_edges)
        self._specs = self._build_spec_pred_closure(genlpreds_edges)

    # -- construction helpers -------------------------------------------------

    def _collect_arg_isa(self) -> dict[str, tuple[tuple[int, str], ...]]:
        out: dict[str, list[tuple[int, str]]] = defaultdict(list)
        for f in self._by_pred.get("argIsa", ()):
            pred, pos_term, col = (t.symbol for t in f.atom.args)  # type: ignore[union-attr]
            if not pos_term.isdigit() or int(pos_term) < 1:
                raise KbValidationError(f"argIsa position must be a positive integer, got {pos_term!r} in {f}")
            pos = int(pos_term)
            known = self._arity.get(pred)
            if known is not None and pos > known:
                raise KbValidationError(f"argIsa position {pos} exceeds arity {known} of {pred!r}")
            out[pred].append((pos, col))
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def _build_instance_closure(self, genls_edges: list[tuple[str, str]]) -> dict[str, frozenset[str]]:
        direct: dict[str, set[str]] = defaultdict(set)
        for f in self._by_pred.get("isa", ()):
            ent, col = (t.symbol for t in f.atom.args)  # type: ignore[union-attr]
            direct[col].add(ent)
        collections = set(direct)
        subs: dict[str, set[str]] = defaultdict(set)  # super -> direct subs
        for sub, sup in genls_edges:
            collections.update((sub, sup))
            subs[sup].add(sub)
        for constraints in self._arg_isa.values():
            collections.update(col for _, col in constraints)
        # accumulate in topological order, subs before supers
        order = _topo_order(collections, genls_edges)
        closed: dict[str, frozenset[str]] = {}
        for col in order:
            acc = set(direct.get(col, ()))
            for sub in subs.get(col, ()):
                acc |= closed[sub]
            closed[col] = frozenset(acc)
        return closed

    def _build_spec_pred_closure(self, edges: list[tuple[str, str]]) -> dict[str, frozenset[str]]:
        into: dict[str, set[str]] = defaultdict(set)  # g -> direct specializers s
        preds = set()
        for s, g in edges:
            into[g].add(s)
            preds.update((s, g))
        closed: dict[str, frozenset[str]] = {}
        for p in preds:
            acc = {p}
            stack = [p]
            while stack:
                cur = stack.pop()
                for s in into.get(cur, ()):
                    if s not in acc:
                        acc.add(s)
                        stack.append(s)
            closed[p] = frozenset(acc)
        return closed

    # -- read API --------------------------------------------------------------

    @property
    def facts(self) -> frozenset[Fact]:
        return self._fact_set

    @property
    def fact_count(self) -> int:
        return len(self._facts)

    def sorted_facts(self) -> tuple[Fact, ...]:
        return self._facts

    def arity(self, predicate: str) -> Optional[int]:
        return self._arity.get(predicate)

    def facts_for(self, predicate: str) -> tuple[Fact, ...]:
        return self._by_pred.get(predicate, ())

    def atoms_for(self, predicate: str) -> frozenset[Atom]:
        return self._atoms_by_pred.get(predicate, frozenset())

    def candidates(self, predicate: str, first: Optional[str] = None) -> tuple[Fact, ...]:
        """Index-backed candidate facts for a pattern with the given predicate
        and (optionally) a constant first argument."""
        if first is not None:
            return self._by_pred_first.get((predicate, first), ())
        return self._by_pred.get(predicate, ())

    def instances_of(self, collection: str) -> frozenset[str]:
        """Entities that are instances of ``collection`` under the
        reflexive-transitive genls closure.  Unknown collections are empty."""
        return self._instances.get(collection, frozenset())

    def spec_preds(self, predicate: str) -> frozenset[str]:
        """All predicates that imply ``predicate`` via genlPreds chains,
        including ``predicate`` itself."""
        return self._specs.get(predicate, frozenset((predicate,)))

    def well_formed(self, atom: Atom) -> bool:
        """True iff every argIsa constraint on a ground argument position is
        satisfied.  Variable positions are skipped, so queries can be checked
        on their bound arguments; with no constraints the check is vacuous."""
        known = self._arity.get(atom.predicate)
        if known is not None and known != atom.arity:
            raise ArityConflictError(
                f"atom {atom} has arity {atom.arity}, predicate fixed at {known}"
            )
        for pos, col in self._arg_isa.get(atom.predicate, ()):
            if pos > atom.arity:
                raise ArityConflictError(f"argIsa position {pos} exceeds arity of {atom}")
            t = atom.args[pos - 1]
            if isinstance(t, Constant) and t.symbol not in self.instances_of(col):
                return False
        return True

    def add_facts(self, facts: Iterable[Fact]) -> "KnowledgeBase":
        """A new KnowledgeBase containing the union; duplicates are silently
        deduplicated, this value is left untouched."""
        return KnowledgeBase(list(self._facts) + list(facts))

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._fact_set

    def __repr__(self) -> str:
        return f"KnowledgeBase({len(self._facts)} facts, {len(self._by_pred)} predicates)"


def _topo_order(nodes: Iterable[str], edges: list[tuple[str, str]]) -> list[str]:
    """Topological order of an acyclic edge list (sources first); shorter than
    the node set iff the edges contain a cycle."""
    nodes = set(nodes)
    for a, b in edges:
        nodes.update((a, b))
    in_deg = {n: 0 for n in nodes}
    succ: dict[str, list[str]] = defaultdict(list)
    for a, b in edges:
        in_deg[b] += 1
        succ[a].append(b)
    queue = deque(sorted(n for n in nodes if in_deg[n] == 0))
    order = []
    while queue:
        n = queue.popleft()
        order.append(n)
        for m in succ[n]:
            in_deg[m] -= 1
            if in_deg[m] == 0:
                queue.append(m)
    return order


def _check_acyclic(name: str, edges: list[tuple[str, str]]) -> None:
    nodes = {n for e in edges for n in e}
    if len(_topo_order(nodes, edges)) != len(nodes):
        raise KbValidationError(f"{name} hierarchy contains a cycle")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
#   fact line:   (pred c1 c2 ...)            all arguments constants
#   rule line:   (<= (head ...) (b1 ...) ...)  variables spelled ?name
#   comment:     ; to end of line
#
# One expression per line; nested terms are rejected (Datalog restriction).

_CONST_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.+-]*")
_VAR_RE = re.compile(r"\?[A-Za-z0-9_][A-Za-z0-9_-]*")

_TOK_OPEN = "("
_TOK_CLOSE = ")"


def _tokenize_line(line: str, lineno: int) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, column); kind in {'(', ')', 'const', 'var'}."""
    toks: list[tuple[str, str, int]] = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == ";":
            break
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c in "()":
            toks.append((c, c, col))
            i += 1
            continue
        if c == "?":
            m = _VAR_RE.match(line, i)
            if not m:
                raise KbSyntaxError("malformed variable", lineno, col)
            toks.append(("var", m.group()[1:], col))
            i = m.end()
            continue
        if line.startswith("<=", i):
            toks.append(("const", "<=", col))
            i += 2
            continue
        m = _CONST_RE.match(line, i)
        if not m:
            raise KbSyntaxError(f"unexpected character {c!r}", lineno, col)
        toks.append(("const", m.group(), col))
        i = m.end()
    return toks


class _LineParser:
    def __init__(self, toks: list[tuple[str, str, int]], lineno: int):
        self.toks = toks
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            last_col = self.toks[-1][2] if self.toks else 1
            raise KbSyntaxError("unexpected end of line", self.lineno, last_col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise KbSyntaxError(f"expected {kind!r}, got {tok[1]!r}", self.lineno, tok[2])
        return tok

    def parse_atom(self) -> Atom:
        self.expect(_TOK_OPEN)
        kind, text, col = self.take()
        if kind != "const":
            raise KbSyntaxError("predicate must be a constant symbol", self.lineno, col)
        predicate = text
        args: list[Term] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise KbSyntaxError("unterminated atom", self.lineno, col)
            kind, text, tcol = tok
            if kind == _TOK_CLOSE:
                self.take()
                break
            if kind == _TOK_OPEN:
                raise KbSyntaxError("nested terms are not supported (no function symbols)", self.lineno, tcol)
            self.take()
            args.append(Constant(text) if kind == "const" else Variable(text))
        if not args:
            raise KbSyntaxError(f"atom {predicate!r} needs at least one argument", self.lineno, col)
        return Atom(predicate, tuple(args))


def _parse_line(toks: list[tuple[str, str, int]], lineno: int) -> Union[Atom, tuple[Atom, tuple[Atom, ...]]]:
    """Either a fact atom or a (head, body) rule pair."""
    p = _LineParser(toks, lineno)
    first = p.expect(_TOK_OPEN)
    nxt = p.peek()
    if nxt is None:
        raise KbSyntaxError("empty expression", lineno, first[2])
    if nxt[0] == "const" and nxt[1] == "<=":
        p.take()
        head = p.parse_atom()
        body: list[Atom] = []
        while True:
            tok = p.peek()
            if tok is None:
                raise KbSyntaxError("unterminated rule", lineno, first[2])
            if tok[0] == _TOK_CLOSE:
                p.take()
                break
            if tok[0] != _TOK_OPEN:
                raise KbSyntaxError("rule bodies must be parenthesized atoms", lineno, tok[2])
            body.append(p.parse_atom())
        if p.peek() is not None:
            raise KbSyntaxError("trailing tokens after rule", lineno, p.peek()[2])  # type: ignore[index]
        if not body:
            raise KbSyntaxError("rule has no body atoms (enter bodiless rules as facts)", lineno, first[2])
        return head, tuple(body)
    # fact: re-parse from the start as a single atom
    p.pos = 0
    atom = p.parse_atom()
    if p.peek() is not None:
        raise KbSyntaxError("trailing tokens after fact", lineno, p.peek()[2])  # type: ignore[index]
    return atom


def parse_kb(text: str) -> tuple[KnowledgeBase, AxiomSet]:
    """Parse the text format into a KnowledgeBase and an AxiomSet.

    Raises :class:`KbSyntaxError` with line/column on malformed input,
    :class:`ArityConflictError` when a predicate's arity is inconsistent, and
    :class:`KbValidationError` for non-ground facts, non-range-restricted
    rules, bad argIsa positions, or cyclic genls/genlPreds hierarchies.
    """
    facts: list[Fact] = []
    clauses: list[HornClause] = []
    arity: dict[str, int] = dict(_RESERVED_ARITY)

    def register(atom: Atom, lineno: int) -> None:
        known = arity.get(atom.predicate)
        if known is None:
            arity[atom.predicate] = atom.arity
        elif known != atom.arity:
            raise ArityConflictError(
                f"predicate {atom.predicate!r} used with arity {atom.arity} but fixed at {known}", lineno
            )

    rule_no = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, lineno)
        if not toks:
            continue
        parsed = _parse_line(toks, lineno)
        if isinstance(parsed, Atom):
            register(parsed, lineno)
            if not parsed.is_ground():
                first_var = next(col for kind, _, col in toks if kind == "var")
                raise KbValidationError(f"fact {parsed} is not ground", lineno, first_var)
            facts.append(Fact(parsed))
        else:
            head, body = parsed
            register(head, lineno)
            for a in body:
                register(a, lineno)
            if head.predicate in RESERVED_PREDICATES:
                # derived hierarchy facts would bypass the precomputed closures
                raise KbValidationError(
                    f"reserved predicate {head.predicate!r} cannot be a rule head", lineno
                )
            try:
                clauses.append(HornClause(head, body, id=f"r{rule_no}"))
            except KbValidationError as e:
                raise KbValidationError(str(e), lineno) from None
            rule_no += 1

    kb = KnowledgeBase(facts)
    return kb, AxiomSet(clauses)


def serialize_kb(kb: KnowledgeBase, axioms: Optional[AxiomSet] = None) -> str:
    """Deterministic text rendering; ``parse_kb`` round-trips fact and clause
    sets exactly (clause ids are regenerated)."""
    lines = ["; percolog knowledge base"]
    lines.extend(str(f.atom) for f in kb.sorted_facts())
    if axioms is not None:
        lines.extend(sorted(str(c) for c in axioms))
    return "\n".join(lines) + "\n"
