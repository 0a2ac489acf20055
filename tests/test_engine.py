import random

import pytest

from percolog import (
    AxiomSet,
    GoalSchema,
    KnowledgeBase,
    Query,
    Variable,
    bottom_up_eval,
    build_graph,
    depth_profile,
    induced_space,
    solutions,
)
from percolog.engine import Evaluator, _join, _rule_plan
from percolog.harness import expand_templates, root_schemas
from percolog.kb import Atom, HornClause, parse_kb

from conftest import A, F, fixpoint_rounds, kb_of, naive_fixpoint, oracle_bindings, random_domain


def Q(pred, *args, template=""):
    return Query(A(pred, *args), template)


def ask(kb, axioms, query, depth_limit, genlpreds_mode=True):
    return Evaluator(kb, axioms, genlpreds_mode).ask(query, depth_limit)


def chain_closure(recursive_body):
    """The 40-node chain N0 -> ... -> N39 of par facts and its closure anc:
    a par fact is an anc fact, and so is what the recursive body derives."""
    lines = [f"(par N{i} N{i + 1})" for i in range(39)]
    lines += ["(<= (anc ?x ?y) (par ?x ?y))", f"(<= (anc ?x ?y) {recursive_body})"]
    return parse_kb("\n".join(lines))


def G(*tokens):
    """Canonical goal parts: ``?n`` is goal slot n, anything else a constant."""
    return tuple(int(t[1:]) if t.startswith("?") else t for t in tokens)


def H(*tokens):
    """Clause head terms: ``?name`` is a clause variable."""
    return tuple(Variable(t[1:]) if t.startswith("?") else t for t in tokens)


def _head_vars(head):
    return tuple(dict.fromkeys(t for t in head if isinstance(t, Variable))) or (Variable("z"),)


def head_match(goal, head):
    """Run the compiled head match of ``(<= (p head) (body ?v ...))``, whose
    body lists the head's variables, on the goal parts.  None if the match
    fails; else the body subgoal's parts and the goal's answer tuple when the
    subgoal's slot k is answered by the symbol ``_k``."""
    clause = HornClause(Atom("p", tuple(head)), (Atom("body", _head_vars(head)),), id="r")
    plan = _rule_plan(clause, tuple(None if isinstance(g, str) else g for g in goal))
    if plan is None or not plan.admits(goal):
        return None
    (step,) = plan.steps
    subgoals = []

    def lookup(key):
        subgoals.append(step.subgoal(key)[1])
        answer = tuple(f"_{s}" for s in sorted({p for p in subgoals[-1] if isinstance(p, int)}))
        return {step.new(answer) if step.new else answer}

    (answer,) = {plan.emit(p) for p in _join({plan.start(goal)}, step, lookup)}
    return subgoals[0], answer


class TestUnify:
    """The compiled head match: a clause's plan for a goal shape checks the
    goal's constants against the head at runtime."""

    def test_variable_against_constant(self):
        # the head holds no variable, so the body is (body ?z) with ?z free
        assert head_match(G("?0"), H("a")) == ((0,), ("a",))

    def test_constant_clash_fails(self):
        assert head_match(G("a"), H("b")) is None
        assert head_match(G("a", "?0"), H("b", "?y")) is None

    def test_repeated_variable_consistency(self):
        assert head_match(G("?0", "?0"), H("a", "b")) is None
        assert head_match(G("?0", "?0"), H("a", "a"))[1] == ("a",)

    def test_variable_to_variable(self):
        # ?y is free: the body binds it, and slot 0 takes its value
        assert head_match(G("?0"), H("?y")) == ((0,), ("_0",))

    def test_predicate_or_arity_mismatch(self):
        # goals only meet facts and rule heads of their own predicate and arity
        kb, axioms = parse_kb("(q a b)\n(<= (p ?x ?y) (q ?x ?y))")
        assert ask(kb, axioms, Q("p", "?x"), 1) == frozenset()
        assert ask(kb, axioms, Q("r", "a", "?y"), 1) == frozenset()
        assert ask(kb, axioms, Q("p", "a", "?y"), 1) == {"b"}

    def test_symmetric_bindings(self):
        # either way round, goal and head resolve to the same instance
        for goal, head in ((G("?0", "b"), H("a", "?y")), (G("a", "?0"), H("?x", "b"))):
            sub, answer = head_match(goal, head)
            values = dict(zip(_head_vars(head), sub))
            assert [answer[t] if isinstance(t, int) else t for t in goal] == ["a", "b"]
            assert [values.get(t, t) for t in head] == ["a", "b"]

    def test_repeated_slot_binds_through_head_constant(self):
        # (p ?0 ?0) meets (p ?a C): ?a is ?0, and ?0 is C
        assert head_match(G("?0", "?0"), H("?a", "C")) == (("C",), ("C",))
        # (p ?0 ?1) meets (p ?a C): only ?1 is C, ?a stays free
        assert head_match(G("?0", "?1"), H("?a", "C")) == ((0,), ("_0", "C"))
        # (p ?0 ?0) meets (p C D): the slot cannot be both
        assert head_match(G("?0", "?0"), H("C", "D")) is None

    def test_repeated_head_variable_checks_goal_constants(self):
        # both goals have the shape (const const), so they share one plan:
        # (p C D) fails on its runtime check, (p C C) passes it
        assert head_match(G("C", "D"), H("?a", "?a")) is None
        assert head_match(G("C", "C"), H("?a", "?a")) == (("C",), ())

    def test_head_constant_meeting_goal_slot_is_answered(self):
        assert head_match(G("C", "?0"), H("?a", "D")) == (("C",), ("D",))


class TestBackchain:
    def test_depth_zero_retrieval_only(self):
        kb = kb_of(("isa", "Fido", "Dog"))
        ans = ask(kb, AxiomSet([]), Q("isa", "?x", "Dog"), 0)
        assert ans == {"Fido"}

    def test_rule_at_depth_one(self, touches_near):
        kb, axioms = touches_near
        ans = ask(kb, axioms, Q("near", "A", "?y"), 1, genlpreds_mode=False)
        assert ans == {"B"}

    def test_rule_forbidden_at_depth_zero(self, touches_near):
        kb, axioms = touches_near
        ans = ask(kb, axioms, Q("near", "A", "?y"), 0, genlpreds_mode=False)
        assert ans == frozenset()

    def test_genlpreds_mode_matches_specializing_facts(self, touches_near):
        kb, axioms = touches_near
        # (touches A B) answers a near-goal by retrieval when the mode is on
        ans = ask(kb, axioms, Q("near", "A", "?y"), 0, genlpreds_mode=True)
        assert ans == {"B"}

    def test_genlpreds_mode_matches_rule_heads(self):
        kb, axioms = parse_kb(
            """
            (genlPreds helps aids)
            (asked C D)
            (<= (helps ?x ?y) (asked ?x ?y))
            """
        )
        ans = ask(kb, axioms, Q("aids", "C", "?y"), 1)
        assert ans == {"D"}
        off = ask(kb, axioms, Q("aids", "C", "?y"), 1, genlpreds_mode=False)
        assert off == frozenset()

    def test_depth_monotonicity(self):
        kb, axioms = parse_kb(
            """
            (base E1 E2)
            (<= (lvl1 ?x ?y) (base ?x ?y))
            (<= (lvl2 ?x ?y) (lvl1 ?x ?y))
            (<= (lvl3 ?x ?y) (lvl2 ?x ?y))
            """
        )
        q = Q("lvl3", "E1", "?y")
        prev = frozenset()
        for d in range(5):
            cur = ask(kb, axioms, q, d)
            assert prev <= cur
            prev = cur
        assert prev == {"E2"}

    def test_depth_counts_cumulative(self):
        kb, axioms = parse_kb(
            """
            (direct E1 E2)
            (step E1 E3)
            (<= (direct ?x ?y) (step ?x ?y))
            """
        )
        ev = Evaluator(kb, axioms)
        counts = {d: len(ev.ask(Q("direct", "E1", "?y"), d)) for d in range(3)}
        assert counts == {0: 1, 1: 2, 2: 2}

    def test_fact_monotonicity(self):
        kb, axioms = parse_kb("(p A B)\n(<= (r ?x ?y) (p ?x ?y))")
        before = ask(kb, axioms, Q("r", "A", "?y"), 1)
        kb2 = kb.add_facts([F("p", "A", "C")])
        after = ask(kb2, axioms, Q("r", "A", "?y"), 1)
        assert before <= after

    def test_mutual_recursion_terminates(self):
        # mutually recursive rules must not loop the prover
        kb, axioms = parse_kb(
            """
            (p A B)
            (<= (p ?x ?y) (q ?x ?y))
            (<= (q ?x ?y) (p ?x ?y))
            """
        )
        ans = ask(kb, axioms, Q("p", "A", "?y"), 50)
        assert ans == {"B"}

    def test_constants_in_rules(self):
        kb, axioms = parse_kb(
            """
            (owns E1 Key)
            (door Key Vault)
            (<= (opens ?x ?v) (owns ?x Key) (door Key ?v))
            """
        )
        ans = ask(kb, axioms, Q("opens", "E1", "?v"), 1)
        assert ans == {"Vault"}

    def test_shared_memo_across_queries(self):
        kb, axioms = parse_kb("(p A B)\n(p A C)\n(<= (r ?x ?y) (p ?x ?y))")
        ev = Evaluator(kb, axioms)
        first = ev.ask(Q("r", "A", "?y"), 3)
        second = ev.ask(Q("r", "A", "?y"), 3)
        assert first == second

    def test_negative_depth_rejected(self):
        kb = kb_of(("p", "a", "b"))
        with pytest.raises(ValueError):
            ask(kb, AxiomSet([]), Q("p", "a", "?x"), -1)

    def test_doubly_recursive_rule_is_complete(self):
        kb, axioms = chain_closure("(anc ?x ?z) (anc ?z ?y)")
        assert len(ask(kb, axioms, Q("anc", "N0", "?x"), 40)) == 39

    @pytest.mark.parametrize("body", ["(anc ?x ?z) (par ?z ?y)", "(par ?x ?z) (anc ?z ?y)"], ids=["left", "right"])
    def test_linear_recursion_counts_per_depth(self, body):
        # a proof of height d reaches d steps down the chain, from either side
        kb, axioms = chain_closure(body)
        assert [len(ask(kb, axioms, Q("anc", "N0", "?x"), d)) for d in range(41)] == list(range(40)) + [39]

    def test_doubly_recursive_counts_per_depth(self):
        # a proof of height d joins two of height d - 1, so it spans up to
        # 2 ** (d - 1) steps of the 39
        kb, axioms = chain_closure("(anc ?x ?z) (anc ?z ?y)")
        assert [len(ask(kb, axioms, Q("anc", "N0", "?x"), d)) for d in range(9)] == [0, 1, 2, 4, 8, 16, 32, 39, 39]

    def test_too_deep_a_search_is_refused(self):
        # each unit of depth nests three Python calls, so depth 1,000 over the
        # left-recursive chain passes the recursion limit (depth 200 answers)
        kb, axioms = chain_closure("(anc ?x ?z) (par ?z ?y)")
        ev = Evaluator(kb, axioms)
        with pytest.raises(ValueError, match="depth limit 1000 is too deep for"):
            ev.ask(Q("anc", "N0", "?x"), 1000)
        assert len(ev.ask(Q("anc", "N0", "?x"), 200)) == 39

    def test_recursive_memo_is_bounded_by_goals_and_depths(self):
        # the depth-40 query holds at most one answer set per (goal, depth):
        # 40 goals (anc Ni ?y) and 40 goals (par Ni ?y), at depths 0 to 40
        kb, axioms = chain_closure("(anc ?x ?z) (anc ?z ?y)")
        ev = Evaluator(kb, axioms)
        ev.ask(Q("anc", "N0", "?x"), 40)
        assert len(ev._memo) <= 2 * 40 * 41

    def test_query_requires_exactly_one_variable(self):
        with pytest.raises(ValueError):
            Q("p", "?x", "?y")
        with pytest.raises(ValueError):
            Q("p", "a", "b")


class _MemoThatForgets(dict):
    def __setitem__(self, key, value):
        pass


class TestSetAtATimeJoin:
    @pytest.mark.parametrize("memo", [True, False])
    def test_each_distinct_subgoal_is_solved_once(self, memo):
        # twelve ?x share three ?y: the b step must probe each ?y once, not
        # once per partial solution, with or without the memo's help
        lines = [f"(a X{i} Y{i % 3})" for i in range(12)]
        lines += [f"(b Y{j} Z{k})" for j in range(3) for k in range(j + 1)]
        lines.append("(<= (r ?x ?z) (a ?x ?y) (b ?y ?z))")
        kb, axioms = parse_kb("\n".join(lines))
        ev = Evaluator(kb, axioms)
        if not memo:
            ev._memo = _MemoThatForgets()
        solved = []
        solve = ev._solve

        def spy(canon, depth):
            solved.append(canon)
            return solve(canon, depth)

        ev._solve = spy
        answers = ev._solve(("r", (0, 1)), 1)
        assert sorted(c for c in solved if c[0] == "b") == [("b", (f"Y{j}", 0)) for j in range(3)]
        assert set(answers) == {args for pred, args in naive_fixpoint(kb, axioms) if pred == "r"}


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_fixpoint(self, seed):
        dom = random_domain(seed)
        fix = naive_fixpoint(dom.kb, dom.axioms)
        queries = expand_templates(dom.kb, dom.templates)
        ev = Evaluator(dom.kb, dom.axioms, genlpreds_mode=True)
        for q in queries:
            got = ev.ask(q, len(dom.axioms))
            assert got == oracle_bindings(fix, q.atom), f"seed={seed} query={q.atom}"

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_fixpoint_with_genlpreds(self, seed):
        dom = random_domain(seed, with_genlpreds=True)
        fix = naive_fixpoint(dom.kb, dom.axioms, dom.genl_edges)
        queries = expand_templates(dom.kb, dom.templates)
        ev = Evaluator(dom.kb, dom.axioms, genlpreds_mode=True)
        for q in queries:
            got = ev.ask(q, len(dom.axioms))
            assert got == oracle_bindings(fix, q.atom), f"seed={seed} query={q.atom}"

    def test_determinism(self):
        dom = random_domain(123)
        queries = expand_templates(dom.kb, dom.templates)
        runs = []
        for _ in range(2):
            ev = Evaluator(dom.kb, dom.axioms)
            runs.append([tuple(sorted(ev.ask(q, 8))) for q in queries])
        assert runs[0] == runs[1]


class TestDepthExactOracle:
    """At every depth limit d, a query's answers are exactly the atoms with a
    proof of height at most d, on stratified and recursive rule sets alike."""

    @staticmethod
    def check(dom):
        rounds = fixpoint_rounds(dom.kb, dom.axioms, dom.genl_edges)
        queries = expand_templates(dom.kb, dom.templates)
        for d in range(len(rounds) + 1):
            ev = Evaluator(dom.kb, dom.axioms)
            for q in queries:
                want = oracle_bindings(rounds[min(d, len(rounds) - 1)], q.atom)
                assert ev.ask(q, d) == want, f"depth={d} query={q.atom}"

    @pytest.mark.parametrize("seed", range(40))
    def test_stratified(self, seed):
        self.check(random_domain(seed))

    @pytest.mark.parametrize("seed", range(25))
    def test_stratified_with_genlpreds(self, seed):
        self.check(random_domain(seed, with_genlpreds=True))

    @pytest.mark.parametrize("seed", range(40))
    def test_recursive(self, seed):
        self.check(random_domain(seed, recursive=True))


def test_random_domain_returns_on_every_seed():
    # the suites use seeds below 200; some seeds above draw more facts than
    # their predicates and entities admit, which the generator caps
    for seed in range(200, 300):
        for genlpreds, recursive in ((False, False), (True, False), (False, True)):
            assert random_domain(seed, genlpreds, recursive).kb.fact_count > 0


class TestSolutions:
    def test_zero_facts(self):
        kb = kb_of(("other", "a", "b"))
        assert solutions(GoalSchema("p", 2, (True, False)), kb) == 0

    def test_direct_count(self):
        kb = KnowledgeBase([F("p", f"a{i}", "b") for i in range(7)])
        assert solutions(GoalSchema("p", 2, (True, False)), kb, genlpreds_mode=False) == 7

    def test_spec_pred_closure_count(self):
        facts = [F("p", f"a{i}", "b") for i in range(3)]
        facts += [F("q", f"c{i}", "d") for i in range(4)]
        facts += [F("genlPreds", "q", "p")]
        kb = KnowledgeBase(facts)
        assert solutions(GoalSchema("p", 2, (True, False)), kb, genlpreds_mode=True) == 7
        assert solutions(GoalSchema("p", 2, (True, False)), kb, genlpreds_mode=False) == 3


def two_level_space():
    kb, axioms = parse_kb(
        """
        (isa E1 Thing)
        (isa E2 Thing)
        (leafa E1 E2)
        (leafb E2 E1)
        (leafb E2 E2)
        (<= (root ?x ?y) (leafa ?x ?z) (leafb ?z ?y))
        (<= (root ?x ?y) (leafb ?x ?y))
        """
    )
    g = build_graph(axioms, [GoalSchema("root", 2, (True, False))], 10, kb=kb)
    return kb, axioms, g, induced_space(g, g.or_nodes.keys())


class TestBottomUp:
    def test_leaf_node_is_retrieval(self):
        kb, axioms = parse_kb("(leaf A B)\n(leaf A C)")
        g = build_graph(axioms, [GoalSchema("leaf", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        sets = bottom_up_eval(space, kb)
        root_id = g.roots[0]
        assert sets[root_id] == {A("leaf", "A", "B"), A("leaf", "A", "C")}

    def test_root_sets_match_backchain(self):
        kb, axioms, g, space = two_level_space()
        sets = bottom_up_eval(space, kb)
        root_id = g.roots[0]
        for entity in ("E1", "E2"):
            q = Q("root", entity, "?y")
            expected = ask(kb, axioms, q, g.depth_bound)
            got = {a.args[1] for a in sets[root_id] if a.args[0] == entity}
            assert got == expected

    def test_empty_body_predicate_contributes_nothing(self):
        kb, axioms = parse_kb("(left A B)\n(<= (root ?x ?y) (left ?x ?z) (missing ?z ?y))")
        g = build_graph(axioms, [GoalSchema("root", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        sets = bottom_up_eval(space, kb)
        assert sets[g.roots[0]] == frozenset()

    def test_sampled_space_subset_of_backchain(self):
        dom = random_domain(7)
        queries = expand_templates(dom.kb, dom.templates)
        g = build_graph(dom.axioms, root_schemas(dom.templates), 10, kb=dom.kb)
        rng = random.Random(3)
        from percolog import model1_sample

        space = model1_sample(g, 1, rng)
        sets = bottom_up_eval(space, dom.kb)
        axioms = dom.axioms.restrict(space.retained_axiom_ids())
        for q in queries:
            oid = g.node_for_schema(GoalSchema(q.atom.predicate, 2, tuple(isinstance(t, str) for t in q.atom.args)))
            if oid is None or oid not in space.or_members:
                continue
            bound_pos = next(i for i, t in enumerate(q.atom.args) if isinstance(t, str))
            got = {
                a.args[1 - bound_pos]
                for a in sets[oid]
                if a.args[bound_pos] == q.atom.args[bound_pos]
            }
            full = ask(dom.kb, axioms, q, g.depth_bound)
            assert got <= full


class TestBottomUpOracle:
    """On the whole graph of a random domain, every OR node derives exactly
    the atoms of its predicate in the independent fixpoint."""

    @staticmethod
    def check(dom, fixpoint):
        g = build_graph(dom.axioms, root_schemas(dom.templates), 10, kb=dom.kb)
        sets = bottom_up_eval(induced_space(g, g.or_nodes.keys()), dom.kb)
        assert sets.keys() == g.or_nodes.keys()
        for oid, atoms in sets.items():
            pred = g.or_nodes[oid].predicate
            assert all(a.predicate == pred for a in atoms)
            want = {args for p, args in fixpoint if p == pred}
            assert {tuple(str(t) for t in a.args) for a in atoms} == want, f"node {oid} ({pred})"

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_fixpoint(self, seed):
        dom = random_domain(seed)
        self.check(dom, naive_fixpoint(dom.kb, dom.axioms))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_fixpoint_with_genlpreds(self, seed):
        dom = random_domain(seed, with_genlpreds=True)
        self.check(dom, naive_fixpoint(dom.kb, dom.axioms, dom.genl_edges))


def bottleneck_fixture(satisfiable: bool):
    """Fact-rich deep layers joined to the root through a literal that can
    never unify (or can, in the satisfiable variant)."""
    lines = []
    a_ents = [f"A{i}" for i in range(15)]
    b_ents = ["B0", "B1"]
    c_ents = [f"C{i}" for i in range(15)]
    for a in a_ents:
        for b in b_ents:
            lines.append(f"(rich1 {a} {b})")
    for b in b_ents:
        for c in c_ents:
            lines.append(f"(rich2 {b} {c})")
    if satisfiable:
        lines.extend(f"(bridge {c} D0)" for c in c_ents)
    lines += [
        "(<= (root ?x ?y) (t1 ?x ?y))",
        "(<= (t1 ?x ?y) (t2 ?x ?z) (bridge ?z ?y))",
        "(<= (t2 ?x ?y) (l2 ?x ?y))",
        "(<= (l2 ?x ?y) (rich1 ?x ?w) (rich2 ?w ?y))",
    ]
    kb, axioms = parse_kb("\n".join(lines))
    g = build_graph(axioms, [GoalSchema("root", 2, (True, False))], 10, kb=kb)
    return kb, induced_space(g, g.or_nodes.keys())


class TestDepthProfile:
    def test_empty_space(self):
        kb, axioms = parse_kb("(leaf A B)")
        g = build_graph(axioms, [GoalSchema("leaf", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, [])
        assert depth_profile(space, kb) == {}

    def test_single_leaf_counts_matches(self):
        kb = KnowledgeBase([F("leaf", f"a{i}", "b") for i in range(5)])
        g = build_graph(AxiomSet([]), [GoalSchema("leaf", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        assert depth_profile(space, kb) == {0: 5}

    def test_bottleneck_peaks_then_collapses(self):
        kb, space = bottleneck_fixture(satisfiable=False)
        profile = depth_profile(space, kb)
        assert profile[0] == 0
        peak_depth = max(profile, key=lambda d: profile[d])
        assert 0 < peak_depth
        assert profile[peak_depth] >= 100
        # the join output exceeds the leaf layer: a genuine mid-depth peak
        assert profile[peak_depth] > profile[max(profile)]

    def test_satisfiable_variant_reaches_root(self):
        kb, space = bottleneck_fixture(satisfiable=True)
        profile = depth_profile(space, kb)
        assert profile[0] > 0
