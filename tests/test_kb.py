import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolog import (
    ArityConflictError,
    Atom,
    AxiomSet,
    Fact,
    HornClause,
    KbError,
    KbSyntaxError,
    KbValidationError,
    KnowledgeBase,
    Query,
    Variable,
    parse_kb,
    serialize_kb,
)
from percolog import kb as kb_module
from percolog.engine import Evaluator
from percolog.growth import SynthConfig, synth_kb

from conftest import A, F, kb_of


def retrieve(kb, pattern):
    """Bindings of a single-variable pattern by retrieval alone (depth 0)."""
    return Evaluator(kb, AxiomSet([]), genlpreds_mode=False).ask(Query(pattern), 0)


_NO_BODY = "rule has no body atoms (enter bodiless rules as facts)"
_NESTED = "nested terms are not supported (no function symbols)"

# one line of text -> the reader's error: class, line, column, message
_READER_ERRORS = [
    ("(isa Fido Dog))", KbSyntaxError, 1, 15, "trailing tokens after fact"),
    ("(p a b) (q c)", KbSyntaxError, 1, 9, "trailing tokens after fact"),
    ("(isa Fido", KbSyntaxError, 1, 2, "unterminated atom"),
    ("(isa (f Fido) Dog)", KbSyntaxError, 1, 6, _NESTED),
    ("(?p a b)", KbSyntaxError, 1, 2, "predicate must be a constant symbol"),
    ("()", KbSyntaxError, 1, 2, "predicate must be a constant symbol"),
    ("(p)", KbSyntaxError, 1, 2, "atom 'p' needs at least one argument"),
    ("(touches ?x Fido)", KbValidationError, 1, 10, "fact (touches ?x Fido) is not ground"),
    ("(<= (p a b))", KbSyntaxError, 1, 1, _NO_BODY),
    ("(<= (p ?x) (q ?x)) x", KbSyntaxError, 1, 20, "trailing tokens after rule"),
    ("(<= (p ?x) q)", KbSyntaxError, 1, 12, "rule bodies must be parenthesized atoms"),
    ("(<= (p ?x) (q ?x)", KbSyntaxError, 1, 1, "unterminated rule"),
    ("(", KbSyntaxError, 1, 1, "empty expression"),
    ("p a b", KbSyntaxError, 1, 1, "expected '(', got 'p'"),
    ("(p a ?)", KbSyntaxError, 1, 6, "malformed variable"),
    ("(p a #b)", KbSyntaxError, 1, 6, "unexpected character '#'"),
    ("(<=)", KbSyntaxError, 1, 4, "expected '(', got ')'"),
    ("(<= p)", KbSyntaxError, 1, 5, "expected '(', got 'p'"),
    ("(<=", KbSyntaxError, 1, 2, "unexpected end of line"),
    ("(p a b)\n(p a)", ArityConflictError, 2, None, "predicate 'p' used with arity 1 but fixed at 2"),
    # "<=" is a token only right after the line's opening parenthesis
    ("(p a<=b)", KbSyntaxError, 1, 5, "unexpected character '<'"),
    ("(p <= b)", KbSyntaxError, 1, 4, "unexpected character '<'"),
]


class TestParsing:
    def test_single_ground_fact(self):
        kb, axioms = parse_kb("(isa Fido Dog)")
        assert kb.fact_count == 1
        assert len(axioms) == 0
        assert F("isa", "Fido", "Dog") in kb.facts_for("isa")

    def test_rule_line(self):
        kb, axioms = parse_kb("(<= (near ?x ?y) (touches ?x ?y))")
        assert kb.fact_count == 0
        assert len(axioms) == 1
        assert axioms.clauses[0].head.predicate == "near"
        assert axioms.clauses[0].body[0].predicate == "touches"

    def test_non_ground_fact_rejected_with_position(self):
        with pytest.raises(KbValidationError) as err:
            parse_kb("(touches ?x Fido)")
        assert err.value.line == 1
        assert err.value.column == 10

    def test_comments_and_blank_lines(self):
        kb, _ = parse_kb("; header\n\n(isa A B) ; trailing\n")
        assert kb.fact_count == 1

    def test_syntax_error_position(self):
        with pytest.raises(KbSyntaxError) as err:
            parse_kb("(isa Fido Dog))")
        assert err.value.line == 1
        with pytest.raises(KbSyntaxError):
            parse_kb("(isa Fido")

    def test_nested_terms_rejected(self):
        with pytest.raises(KbSyntaxError):
            parse_kb("(isa (f Fido) Dog)")

    def test_arity_conflict(self):
        with pytest.raises(ArityConflictError):
            parse_kb("(p a b)\n(p a)")
        with pytest.raises(ArityConflictError):
            parse_kb("(p a b)\n(<= (q ?x) (p ?x))")

    def test_non_range_restricted_rule(self):
        with pytest.raises(KbValidationError):
            parse_kb("(<= (p ?x ?y) (q ?x ?x))")

    def test_bodiless_rule_rejected(self):
        with pytest.raises(KbSyntaxError):
            parse_kb("(<= (p a b))")

    def test_reserved_predicate_rule_head_rejected(self):
        with pytest.raises(KbValidationError):
            parse_kb("(<= (isa ?x Dog) (puppy ?x))")
        # reserved predicates in rule bodies are plain retrieval and fine
        _, axioms = parse_kb("(<= (barks ?x) (isa ?x Dog))")
        assert len(axioms) == 1

    def test_cyclic_genls_rejected(self):
        with pytest.raises(KbValidationError):
            parse_kb("(genls A B)\n(genls B A)")

    def test_cyclic_genlpreds_rejected(self):
        with pytest.raises(KbValidationError):
            parse_kb("(genlPreds p q)\n(genlPreds q p)")

    def test_arg_isa_position_must_be_positive_integer(self):
        with pytest.raises(KbValidationError):
            parse_kb("(argIsa mother zero Animal)")
        with pytest.raises(KbValidationError):
            parse_kb("(argIsa mother 0 Animal)")
        with pytest.raises(KbValidationError, match="argIsa position 3 exceeds arity 2 of 'mother'"):
            parse_kb("(mother Ann Bob)\n(argIsa mother 3 Animal)")

    def test_variable_predicate_rejected(self):
        with pytest.raises(KbSyntaxError):
            parse_kb("(?p a b)")

    def test_empty_atom_rejected(self):
        with pytest.raises(KbSyntaxError):
            parse_kb("(p)")

    @pytest.mark.parametrize("text, cls, line, column, message", _READER_ERRORS, ids=[r[0] for r in _READER_ERRORS])
    def test_reader_error(self, text, cls, line, column, message):
        with pytest.raises(KbError) as err:
            parse_kb(text)
        assert type(err.value) is cls
        assert (err.value.line, err.value.column) == (line, column)
        where = f"line {line}" + (f", column {column}" if column is not None else "")
        assert str(err.value) == f"{where}: {message}"


def _outcome(text):
    """What the reader makes of ``text``: its facts and (id, clause) pairs,
    or the class, message, line and column of its error."""
    try:
        kb, axioms = parse_kb(text)
    except KbError as e:
        return type(e), str(e), e.line, e.column
    return kb.sorted_facts(), [(c.id, str(c)) for c in axioms]


# padding and the gaps between tokens: mostly what the fast path reads, at
# times whitespace it leaves to the tokenizer ("\x0b" also ends a line)
_PADS = ("", " ", "\t", "\x0b", "\u3000"), (30, 3, 3, 1, 1)
_GAPS = (" ", "\t", " \t", "  ", "\x0b", "\u3000", ""), (30, 4, 2, 2, 1, 1, 1)
_SYMBOLS = ("p", "q", "r", "isa", "genls", "a", "b", "Dog", "x1", "c.d", "e-f", "g+h", "_", "1")
_VARS = ("?x", "?y", "?z-1")
# tokens of malformed text: parentheses, "<=", variables, bad characters, comments
_JUNK = ("(", ")", "<=", "?", "?x", "#", "é", "<", "=", ";", "; note", "-a", ".b")


def _random_kb_text(rng):
    """A KB text of fact, rule, comment, blank and malformed lines."""

    # half the texts take the first option of every choice but the line's
    # kind: well formed but for arity conflicts and the rule checks
    noisy = rng.random() < 0.5

    def pick(options):
        values, weights = options
        return rng.choices(values, weights)[0] if noisy else values[0]

    # most atoms keep their predicate's arity, so that many texts parse
    arity = {s: 2 if s in ("isa", "genls") else rng.randint(1, 3) for s in _SYMBOLS}

    def atom(arg, low=1):
        predicate = rng.choice(_SYMBOLS)
        n = arity[predicate] if low and rng.random() < 0.9 else rng.randint(low, 3)
        parts = [predicate] + [arg() for _ in range(n)]
        return "(" + "".join(pick(_GAPS) + part for part in parts) + pick(_PADS) + ")"

    def fact_arg():  # mostly a constant, at times a variable or a nested term
        return pick(((rng.choice(_SYMBOLS), rng.choice(_VARS), atom(lambda: rng.choice(_SYMBOLS))), (20, 1, 1)))

    def rule_arg():
        return rng.choice(_SYMBOLS + _VARS)

    lines = []
    for _ in range(rng.randint(0, 10)):
        kinds = ("fact", "rule", "comment", "blank", "junk", "atoms", "no-args")
        kind = rng.choices(kinds, (60, 15, 3, 3, 2, 1, 1) if noisy else (60, 15, 3, 3, 0, 0, 0))[0]
        if kind == "fact":
            line = atom(fact_arg)
        elif kind == "rule":
            body = "".join(pick(_GAPS) + atom(rule_arg) for _ in range(rng.randint(0, 3)))
            line = "(" + pick(_PADS) + "<=" + pick(_GAPS) + atom(rule_arg) + body + pick(_PADS) + ")"
        elif kind == "comment":
            line = ";" + "".join(rng.choice(_SYMBOLS + _JUNK + (" ",)) for _ in range(rng.randint(0, 4)))
        elif kind == "blank":
            line = ""
        elif kind == "junk":
            line = "".join(pick(_GAPS) + rng.choice(_JUNK + _SYMBOLS) for _ in range(rng.randint(1, 6)))
        elif kind == "atoms":  # several atoms on one line: trailing tokens
            line = " ".join(atom(fact_arg) for _ in range(rng.randint(2, 3)))
        else:
            line = atom(fact_arg, low=0)
        tail = pick((("", " ; c", " x", ")", "#", "?"), (60, 2, 1, 1, 1, 1)))
        lines.append(pick(_PADS) + line + pick(_PADS) + tail)
    return "\n".join(lines)


class TestFactLineFastPath:
    """Plain fact lines are read in one match; every other line, and every
    error, goes through the tokenizer."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_outcome_as_the_tokenizer(self, seed):
        text = _random_kb_text(random.Random(seed))
        fast = _outcome(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kb_module, "_FACT_LINE_RE", re.compile(r"(?!)"))  # matches no line
            assert _outcome(text) == fast

    def test_plain_fact_lines_skip_the_tokenizer(self, monkeypatch):
        def no_tokenizer(line, lineno):
            raise AssertionError(f"line {lineno} went through the tokenizer")

        monkeypatch.setattr(kb_module, "_tokenize_line", no_tokenizer)
        kb, _ = parse_kb("(p a b)\n\t( q  c.d\t1 )  \n(isa a Dog)")
        assert kb.sorted_facts() == (F("isa", "a", "Dog"), F("p", "a", "b"), F("q", "c.d", "1"))
        with pytest.raises(ArityConflictError) as err:
            parse_kb("(p a b)\n(p a)")  # the arity check keeps its line
        assert (err.value.line, err.value.column) == (2, None)


class TestTypes:
    def test_fact_needs_arguments(self):
        with pytest.raises(KbValidationError):
            KnowledgeBase([Fact("p", ())])

    def test_clause_equality_ignores_id(self):
        c1 = HornClause(A("p", "?x"), (A("q", "?x"),), id="r0")
        c2 = HornClause(A("p", "?x"), (A("q", "?x"),), id="r99")
        assert c1 == c2

    def test_clause_requires_body(self):
        with pytest.raises(KbValidationError):
            HornClause(A("p", "a"), (), id="r0")

    def test_axiom_set_needs_one_id_per_clause(self):
        rule = HornClause(A("p", "?x"), (A("q", "?x"),), id="r0")
        with pytest.raises(ValueError, match="has no id"):
            AxiomSet([HornClause(rule.head, rule.body)])
        with pytest.raises(ValueError, match="duplicate clause id 'r0'"):
            AxiomSet([rule, HornClause(A("p", "?x"), (A("s", "?x"),), id="r0")])


class TestRetrieve:
    def test_open_variable(self):
        kb = kb_of(("isa", "Fido", "Dog"))
        assert retrieve(kb, A("isa", "?x", "Dog")) == {"Fido"}

    def test_ground_pattern_proved(self):
        kb = kb_of(("isa", "Fido", "Dog"))
        assert F("isa", "Fido", "Dog") in kb.facts_for("isa")

    def test_no_match(self):
        kb = kb_of(("isa", "Fido", "Dog"))
        assert retrieve(kb, A("isa", "?x", "Cat")) == set()

    def test_unknown_predicate_is_empty(self):
        kb = kb_of(("isa", "Fido", "Dog"))
        assert retrieve(kb, A("nosuch", "?x", "Dog")) == set()

    def test_arity_mismatch_raises(self):
        kb = kb_of(("p", "a", "b"))
        with pytest.raises(ArityConflictError):
            kb.well_formed(A("p", "?x"))

    def test_repeated_variable_pattern(self):
        kb = kb_of(("p", "a", "a"), ("p", "a", "b"))
        assert retrieve(kb, A("p", "?x", "?x")) == {"a"}

    def test_ground_retrieve_iff_fact_present(self):
        kb = kb_of(("p", "a", "b"))
        assert F("p", "a", "b") in kb.facts_for("p")
        assert F("p", "b", "a") not in kb.facts_for("p")

    def test_index_consistency_random(self):
        # indexed retrieval must equal an independent full scan, for the
        # variable at every position and with either constant index
        rng = random.Random(5)
        for seed in range(10):
            cfg = SynthConfig(
                predicates=6, entities=8, collections=2, genls_depth=1, rules=4,
                body_min=1, body_max=2, rule_skew=0.7, facts=40, fact_skew=0.5,
                levels=2, root_predicates=2, seed=seed,
            )
            kb, _, _ = synth_kb(cfg)
            entities = sorted({t for f in kb.sorted_facts() for t in f.args})
            predicates = sorted({f.atom.predicate for f in kb.sorted_facts()})
            for _ in range(25):
                pred = rng.choice(predicates)
                args = [rng.choice(entities) for _ in range(kb.arity(pred))]
                for i in rng.sample(range(len(args)), rng.randint(1, len(args))):
                    args[i] = Variable("x")
                pattern = Atom(pred, tuple(args))
                scan = {
                    f.args[pattern.args.index(Variable("x"))]
                    for f in kb.sorted_facts()
                    if f.atom.predicate == pred
                    and all(p == g for p, g in zip(pattern.args, f.args) if isinstance(p, str))
                    and len({g for p, g in zip(pattern.args, f.atom.args) if isinstance(p, Variable)}) == 1
                }
                assert retrieve(kb, pattern) == scan


class TestHierarchy:
    def test_instances_of_transitive(self):
        kb = kb_of(("isa", "Fido", "Dog"), ("genls", "Dog", "Mammal"))
        assert kb.instances_of("Mammal") == {"Fido"}
        assert kb.instances_of("Dog") == {"Fido"}
        assert kb.instances_of("Cat") == frozenset()

    def test_instances_respects_deeper_chains(self):
        kb = kb_of(
            ("isa", "Fido", "Dog"),
            ("isa", "Rex", "Puppy"),
            ("genls", "Puppy", "Dog"),
            ("genls", "Dog", "Mammal"),
            ("genls", "Mammal", "Animal"),
        )
        assert kb.instances_of("Animal") == {"Fido", "Rex"}
        assert kb.instances_of("Dog") == {"Fido", "Rex"}
        assert kb.instances_of("Puppy") == {"Rex"}

    def test_spec_preds_reflexive_and_transitive(self):
        kb = kb_of(("genlPreds", "touches", "near"))
        assert kb.spec_preds("near") == {"near", "touches"}
        assert kb.spec_preds("touches") == {"touches"}

    def test_spec_preds_two_edge_chain(self):
        # brute-force closure over t -> n -> l: everything reaches l
        kb = kb_of(("genlPreds", "t", "n"), ("genlPreds", "n", "l"))
        edges = {("t", "n"), ("n", "l")}
        preds = {"t", "n", "l"}
        expected = {
            p: {p} | {s for s in preds if _reaches_brute(s, p, edges)} for p in preds
        }
        for p in preds:
            assert kb.spec_preds(p) == expected[p]
        assert kb.spec_preds("l") == {"l", "n", "t"}

    def test_spec_preds_unknown_is_reflexive(self):
        kb = kb_of(("p", "a", "b"))
        assert kb.spec_preds("p") == {"p"}


def _reaches_brute(src, dst, edges):
    frontier = {src}
    while True:
        nxt = frontier | {g for (s, g) in edges if s in frontier}
        if nxt == frontier:
            return dst in frontier
        frontier = nxt


_COLLECTIONS = ("c0", "c1", "c2", "c3", "c4", "c5")
_PREDS = ("p0", "p1", "p2", "p3", "p4", "p5")


def _dags(names):
    """Random acyclic (sub, super) edge lists over ``names``: each edge runs
    from a later to an earlier name of a shuffled order, so chains, diamonds
    and multiple parents occur but no cycle."""
    return st.permutations(names).flatmap(
        lambda order: st.lists(
            st.sampled_from([(order[i], order[j]) for i in range(len(order)) for j in range(i)]),
            unique=True,
            max_size=10,
        )
    )


class TestClosureProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        _dags(_COLLECTIONS),
        _dags(_PREDS),
        st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from(_COLLECTIONS + ("loose",))), max_size=12),
        st.data(),
    )
    def test_closures_equal_reachability(self, genls, genl_preds, isa, data):
        facts = [F("genls", *e) for e in genls] + [F("genlPreds", *e) for e in genl_preds]
        facts += [F("isa", *e) for e in isa]
        kb = KnowledgeBase(facts)
        for c in _COLLECTIONS + ("loose", "absent"):
            assert kb.instances_of(c) == {e for e, d in isa if _reaches_brute(d, c, genls)}
        for p in _PREDS + ("absent",):
            assert kb.spec_preds(p) == {p} | {s for s in _PREDS if _reaches_brute(s, p, genl_preds)}
        # a back edge from a super to any node below it closes a cycle
        for name, names, edges in (("genls", _COLLECTIONS, genls), ("genlPreds", _PREDS, genl_preds)):
            below = [(a, b) for a in names for b in names if a != b and _reaches_brute(a, b, edges)]
            if not below:
                continue
            sub, sup = data.draw(st.sampled_from(below))
            with pytest.raises(KbValidationError, match=f"^{name} hierarchy contains a cycle$"):
                KnowledgeBase([*facts, F(name, sup, sub)])


class TestWellFormed:
    def test_violating_arg_isa(self):
        kb = kb_of(("argIsa", "mother", "1", "Animal"), ("isa", "Rex", "Animal"))
        assert not kb.well_formed(A("mother", "Fido", "X"))
        assert kb.well_formed(A("mother", "Rex", "X"))

    def test_vacuous_without_constraints(self):
        kb = kb_of(("p", "a", "b"))
        assert kb.well_formed(A("p", "anything", "atall"))

    def test_against_closure(self):
        kb = kb_of(
            ("argIsa", "isa2", "1", "Thing"),
            ("isa", "Fido", "Dog"),
            ("genls", "Dog", "Thing"),
        )
        assert kb.well_formed(A("isa2", "Fido", "Dog"))

    def test_variable_positions_skipped(self):
        kb = kb_of(("argIsa", "mother", "1", "Animal"))
        assert kb.well_formed(A("mother", "?x", "Fido"))


def add_facts(kb, facts):
    """A KB is immutable: adding facts builds a new one from the union."""
    return KnowledgeBase([*kb.sorted_facts(), *facts])


class TestAddFacts:
    def test_idempotent_for_duplicates(self):
        kb = kb_of(("p", "a", "b"))
        kb2 = add_facts(kb, [F("p", "a", "b")])
        assert kb2.fact_count == kb.fact_count

    def test_adds_one(self):
        kb = kb_of(("p", "a", "b"))
        kb2 = add_facts(kb, [F("p", "a", "c")])
        assert kb2.fact_count == 2
        assert kb.fact_count == 1  # original untouched

    def test_batch_equals_rebuild(self):
        base = [F("p", f"a{i}", f"b{i}") for i in range(20)]
        batch = [F("q", f"c{i}", f"d{i}") for i in range(100)]
        incremental = add_facts(KnowledgeBase(base), batch)
        rebuilt = KnowledgeBase(base + batch)
        assert incremental.sorted_facts() == rebuilt.sorted_facts()
        for i in range(100):
            assert retrieve(incremental, A("q", f"c{i}", "?x")) == retrieve(rebuilt, A("q", f"c{i}", "?x"))

    def test_arity_conflict_on_add(self):
        kb = kb_of(("p", "a", "b"))
        with pytest.raises(ArityConflictError):
            add_facts(kb, [F("p", "a")])


# every fact over a small vocabulary, so random lists repeat facts often
_ARITY = {"isa": 2, "p": 1, "q": 2, "r": 3}
_UNIVERSE = tuple(
    Fact(pred, args) for pred, n in _ARITY.items() for args in product("abc", repeat=n)
)


class TestRowStore:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(_UNIVERSE), max_size=40))
    def test_views_agree_with_the_fact_list(self, facts):
        kb = KnowledgeBase(facts)
        distinct = set(facts)
        assert kb.sorted_facts() == tuple(sorted(distinct))
        assert kb.fact_count == len(distinct)
        for pred in _ARITY:
            assert kb.facts_for(pred) == tuple(sorted(f for f in distinct if f.predicate == pred))
        for f in _UNIVERSE:  # present and absent facts alike
            assert (f in kb.facts_for(f.predicate)) == (f in distinct)
        kb2, axioms = parse_kb(serialize_kb(kb))
        assert kb2.sorted_facts() == kb.sorted_facts()
        assert len(axioms) == 0

    def test_fact_prints_as_its_atom(self):
        f = Fact("p", ("a", "b"))
        assert str(f) == str(f.atom) == "(p a b)"
        assert f.atom == A("p", "a", "b")


class TestSerialization:
    def test_empty_kb_is_header_only(self):
        text = serialize_kb(KnowledgeBase([]))
        lines = [ln for ln in text.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith(";")
        kb, axioms = parse_kb(text)
        assert kb.fact_count == 0 and len(axioms) == 0

    def test_single_fact(self):
        text = serialize_kb(kb_of(("p", "a", "b")))
        assert "(p a b)" in text.splitlines()

    def test_round_trip_small(self):
        src = "(isa Fido Dog)\n(genls Dog Mammal)\n(<= (near ?x ?y) (touches ?x ?y))"
        kb, axioms = parse_kb(src)
        kb2, axioms2 = parse_kb(serialize_kb(kb, axioms))
        assert kb.sorted_facts() == kb2.sorted_facts()
        assert set(axioms.clauses) == set(axioms2.clauses)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_random_kbs(self, seed):
        cfg = SynthConfig(
            predicates=8, entities=40, collections=4, genls_depth=2, rules=10,
            body_min=1, body_max=3, rule_skew=1.0, facts=500, fact_skew=0.7,
            levels=3, root_predicates=3, seed=seed,
        )
        kb, axioms, _ = synth_kb(cfg)
        text = serialize_kb(kb, axioms)
        kb2, axioms2 = parse_kb(text)
        assert kb.sorted_facts() == kb2.sorted_facts()
        assert set(axioms.clauses) == set(axioms2.clauses)
        assert serialize_kb(kb2, axioms2) == text
