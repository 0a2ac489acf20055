"""Function-symbol-free first-order knowledge bases with Cyc-style hierarchy
predicates (isa / genls / genlPreds / argIsa) and a line-oriented text format.

A knowledge base holds ground facts only; rules live in a separate
:class:`AxiomSet`.  Hierarchy predicates are stored as ordinary facts but get
precomputed closure tables so that type and predicate-generalization queries
are cheap.  KnowledgeBase instances are immutable after construction, so
every read is safe under concurrency.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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


# the JSON types a dataclass field annotated int, float, str or bool takes, and
# how a message names them; a boolean is no number
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "true or false"),
}


def has_type(value: object, annotation: str) -> bool:
    """Whether a JSON value suits a field annotated int, float, str or bool."""
    return type(value) in _JSON_TYPES[annotation][0]


def check_record(cls: type, values: object, record: str, noun: str = "key") -> dict:
    """``values``, if it is a dict (a JSON object) with no key but the fields
    of the dataclass ``cls``, each field without a default, and a value of
    its type for each int, float, str or bool field; ValueError naming
    ``record`` and the key otherwise."""
    if not isinstance(values, dict):
        raise ValueError(f"{record} must be a JSON object, got {values!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(values.keys() - known.keys())
    if unknown:
        raise ValueError(f"{record}: unknown {noun} {unknown[0]!r}")
    for name, f in known.items():
        if name not in values:
            if f.default is MISSING:
                raise ValueError(f"{record}: missing {noun} {name!r}")
        elif f.type in _JSON_TYPES and not has_type(values[name], f.type):
            raise ValueError(f"{record}: {noun} {name!r} must be {_JSON_TYPES[f.type][1]}, got {values[name]!r}")
    return values


# ---------------------------------------------------------------------------
# Terms, atoms, facts, clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variable:
    name: str  # without the "?" sigil

    def __str__(self) -> str:
        return "?" + self.name


Term = Union[str, Variable]  # a constant is its symbol


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

    def variables(self) -> tuple[Variable, ...]:
        """Distinct variables in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for t in self.args:
            if isinstance(t, Variable):
                seen.setdefault(t)
        return tuple(seen)

    def __str__(self) -> str:
        return "(" + " ".join([self.predicate] + [str(t) for t in self.args]) + ")"


class Fact(NamedTuple):
    """A ground fact as the row the engines read: a predicate and its argument
    symbols.  ``atom`` is the equivalent :class:`Atom`."""

    predicate: str
    args: tuple[str, ...]

    @property
    def atom(self) -> Atom:
        return Atom(self.predicate, self.args)

    def __str__(self) -> str:
        return "(" + " ".join((self.predicate, *self.args)) + ")"


@dataclass(frozen=True)
class HornClause:
    """One definite rule.  ``id`` is bookkeeping metadata and excluded from
    equality so that re-parsed rule sets compare by content; the content's
    hash is computed once, since the engines key rule applications by it."""

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
        object.__setattr__(self, "_hash", hash((self.head, self.body)))

    def __hash__(self) -> int:
        return self._hash

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
        """The clauses with these ids; an id naming none raises ValueError."""
        keep = set(ids)
        unknown = keep - self._by_id.keys()
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)[:3]}")
        return AxiomSet(c for c in self.clauses if c.id in keep)


# ---------------------------------------------------------------------------
# KnowledgeBase
# ---------------------------------------------------------------------------


class KnowledgeBase:
    """Immutable indexed set of ground facts.

    Each fact is stored once, in its predicate's sorted symbol-tuple rows; the
    Fact views are built from the rows when called.  Hierarchy closures and
    argIsa constraints are precomputed, so reads never mutate state.
    """

    def __init__(self, facts: Iterable[Fact]):
        arity: dict[str, int] = dict(_RESERVED_ARITY)
        grouped: dict[str, set[tuple[str, ...]]] = defaultdict(set)
        for pred, args in facts:
            if not args:
                raise KbValidationError(f"fact {pred!r} has no arguments (arity >= 1 required)")
            known = arity.setdefault(pred, len(args))
            if known != len(args):
                raise ArityConflictError(
                    f"predicate {pred!r} used with arity {len(args)} but fixed at {known}"
                )
            grouped[pred].add(args)
        self._arity = arity
        # the only per-fact storage; predicates and their rows both sorted
        self._rows: dict[str, tuple[tuple[str, ...], ...]] = {p: tuple(sorted(grouped[p])) for p in sorted(grouped)}

        self._arg_isa = self._collect_arg_isa()
        direct: dict[str, set[str]] = defaultdict(set)  # collection -> its isa instances
        for ent, col in self.rows("isa"):
            direct[col].add(ent)
        self._instances = _closure("genls", self.rows("genls"), lambda c: direct.get(c, ()), direct)
        self._specs = _closure("genlPreds", self.rows("genlPreds"), lambda p: (p,), ())

    # -- construction helpers -------------------------------------------------

    def _collect_arg_isa(self) -> dict[str, tuple[tuple[int, str], ...]]:
        out: dict[str, list[tuple[int, str]]] = defaultdict(list)
        for row in self.rows("argIsa"):
            pred, pos_term, col = row
            if not pos_term.isdigit() or int(pos_term) < 1:
                raise KbValidationError(f"argIsa position must be a positive integer, got {pos_term!r} in {Fact('argIsa', row)}")
            pos = int(pos_term)
            known = self._arity.get(pred)
            if known is not None and pos > known:
                raise KbValidationError(f"argIsa position {pos} exceeds arity {known} of {pred!r}")
            out[pred].append((pos, col))
        return {k: tuple(sorted(v)) for k, v in out.items()}

    # -- read API --------------------------------------------------------------

    @property
    def fact_count(self) -> int:
        return sum(map(len, self._rows.values()))

    def sorted_facts(self) -> tuple[Fact, ...]:
        """Every fact in (predicate, args) order, built from the rows."""
        return tuple(Fact(p, args) for p, rows in self._rows.items() for args in rows)

    def arity(self, predicate: str) -> Optional[int]:
        return self._arity.get(predicate)

    def facts_for(self, predicate: str) -> tuple[Fact, ...]:
        return tuple(Fact(predicate, args) for args in self.rows(predicate))

    def rows(self, predicate: str) -> tuple[tuple[str, ...], ...]:
        """The predicate's facts as tuples of argument symbols, in sorted fact
        order: the relation both engines evaluate over."""
        return self._rows.get(predicate, ())

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
            if isinstance(t, str) and t not in self.instances_of(col):
                return False
        return True

    def __repr__(self) -> str:
        return f"KnowledgeBase({self.fact_count} facts, {len(self._rows)} predicates)"


def _closure(
    name: str, edges: Sequence[tuple[str, ...]], base: Callable[[str], Iterable[str]], nodes: Iterable[str]
) -> dict[str, frozenset[str]]:
    """For each of ``nodes`` and each end of the (sub, super) ``edges``: its
    ``base`` members plus those of every node below it.  Raises
    :class:`KbValidationError` naming the hierarchy if the edges hold a cycle."""
    subs: dict[str, list[str]] = {n: [] for n in set(nodes).union(*edges)}  # super -> direct subs
    for sub, sup in edges:
        subs[sup].append(sub)
    closed: dict[str, frozenset[str]] = {}
    try:
        for n in TopologicalSorter(subs).static_order():  # subs before supers
            closed[n] = frozenset(base(n)).union(*[closed[sub] for sub in subs[n]])
    except CycleError:
        raise KbValidationError(f"{name} hierarchy contains a cycle") from None
    return closed


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
#   fact line:   (pred c1 c2 ...)            all arguments constants
#   rule line:   (<= (head ...) (b1 ...) ...)  variables spelled ?name
#   comment:     ; to end of line
#
# One expression per line; nested terms are rejected (Datalog restriction).
# ``<=`` is a token only right after the line's opening parenthesis.

_CONST_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.+-]*")
_VAR_RE = re.compile(r"\?[A-Za-z0-9_][A-Za-z0-9_-]*")


def _tokenize_line(line: str, lineno: int) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, column); kind in {'(', ')', 'const', 'var'}.
    Constants are interned, so the rows of a KB share one string per symbol."""
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
        if len(toks) == 1 and toks[0][0] == "(" and line.startswith("<=", i):
            toks.append(("const", "<=", col))
            i += 2
            continue
        m = _CONST_RE.match(line, i)
        if not m:
            raise KbSyntaxError(f"unexpected character {c!r}", lineno, col)
        toks.append(("const", sys.intern(m.group()), col))
        i = m.end()
    return toks


def _atom_end(toks: list[tuple[str, str, int]], i: int, lineno: int) -> int:
    """The index past the flat atom opening at ``toks[i]``: a parenthesis, a
    constant predicate, at least one argument and the closing parenthesis."""
    n = len(toks)
    if i < n and toks[i][0] != "(":
        raise KbSyntaxError(f"expected '(', got {toks[i][1]!r}", lineno, toks[i][2])
    if i + 1 >= n:
        raise KbSyntaxError("unexpected end of line", lineno, toks[-1][2])
    kind, predicate, col = toks[i + 1]
    if kind != "const":
        raise KbSyntaxError("predicate must be a constant symbol", lineno, col)
    j = i + 2
    while True:
        if j == n:
            raise KbSyntaxError("unterminated atom", lineno, col)
        kind = toks[j][0]
        if kind == ")":
            break
        if kind == "(":
            raise KbSyntaxError("nested terms are not supported (no function symbols)", lineno, toks[j][2])
        j += 1
    if j == i + 2:
        raise KbSyntaxError(f"atom {predicate!r} needs at least one argument", lineno, col)
    return j + 1


def _atom(toks: list[tuple[str, str, int]], i: int, end: int) -> Atom:
    """The atom spanning ``toks[i:end]``, as ``_atom_end`` delimits it."""
    return Atom(toks[i + 1][1], tuple(Variable(t) if k == "var" else t for k, t, _ in toks[i + 2 : end - 1]))


def _read_rule(toks: list[tuple[str, str, int]], lineno: int) -> tuple[Atom, tuple[Atom, ...]]:
    """The head and body of a line opening with ``(<=``."""
    end = _atom_end(toks, 2, lineno)
    head = _atom(toks, 2, end)
    body: list[Atom] = []
    i = end
    while True:
        if i == len(toks):
            raise KbSyntaxError("unterminated rule", lineno, toks[0][2])
        kind, _, col = toks[i]
        if kind == ")":
            break
        if kind != "(":
            raise KbSyntaxError("rule bodies must be parenthesized atoms", lineno, col)
        end = _atom_end(toks, i, lineno)
        body.append(_atom(toks, i, end))
        i = end
    if i + 1 < len(toks):
        raise KbSyntaxError("trailing tokens after rule", lineno, toks[i + 1][2])
    if not body:
        raise KbSyntaxError("rule has no body atoms (enter bodiless rules as facts)", lineno, toks[0][2])
    return head, tuple(body)


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

    def register(predicate: str, n: int, lineno: int) -> None:
        known = arity.setdefault(predicate, n)
        if known != n:
            raise ArityConflictError(f"predicate {predicate!r} used with arity {n} but fixed at {known}", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, lineno)
        if not toks:
            continue
        if len(toks) == 1 and toks[0][0] == "(":
            raise KbSyntaxError("empty expression", lineno, toks[0][2])
        if len(toks) > 1 and toks[1][1] == "<=":
            head, body = _read_rule(toks, lineno)
            for a in (head, *body):
                register(a.predicate, a.arity, lineno)
            if head.predicate in RESERVED_PREDICATES:
                # derived hierarchy facts would bypass the precomputed closures
                raise KbValidationError(f"reserved predicate {head.predicate!r} cannot be a rule head", lineno)
            try:
                clauses.append(HornClause(head, body, id=f"r{len(clauses)}"))
            except KbValidationError as e:
                raise KbValidationError(str(e), lineno) from None
            continue
        end = _atom_end(toks, 0, lineno)
        if end < len(toks):
            raise KbSyntaxError("trailing tokens after fact", lineno, toks[end][2])
        args = toks[2 : end - 1]
        register(toks[1][1], len(args), lineno)
        first_var = next((col for kind, _, col in args if kind == "var"), None)
        if first_var is not None:
            raise KbValidationError(f"fact {_atom(toks, 0, end)} is not ground", lineno, first_var)
        facts.append(Fact(toks[1][1], tuple([t for _, t, _ in args])))

    return KnowledgeBase(facts), AxiomSet(clauses)


def serialize_kb(kb: KnowledgeBase, axioms: Optional[AxiomSet] = None) -> str:
    """Deterministic text rendering; ``parse_kb`` round-trips fact and clause
    sets exactly (clause ids are regenerated)."""
    lines = ["; percolog knowledge base"]
    lines.extend(map(str, kb.sorted_facts()))
    if axioms is not None:
        lines.extend(sorted(str(c) for c in axioms))
    return "\n".join(lines) + "\n"
