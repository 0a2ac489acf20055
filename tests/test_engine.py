import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from percolog.engine import Evaluator, SnapshotCache, _join, _rule_plan
from percolog.harness import expand_templates, root_schemas
from percolog.kb import Atom, HornClause, parse_kb
from percolog.metrics import answered_fraction
from percolog.sampling import SampleParams, cell_params, sample

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
        kb2 = KnowledgeBase([*kb.sorted_facts(), F("p", "A", "C")])
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

    def test_shared_cache_keeps_each_memo_bounded_by_goals_and_depths(self):
        # two evaluators on one cache each fill their own memo, with the same
        # bound, and get the same answers: a recursive cone backchains even
        # on a shared cache, so the store derives no relation for it
        kb, axioms = chain_closure("(anc ?x ?z) (anc ?z ?y)")
        cache = SnapshotCache(kb)
        evs = [Evaluator(kb, axioms, cache=cache) for _ in range(2)]
        assert {len(ev.ask(Q("anc", "N0", "?x"), 40)) for ev in evs} == {39}
        assert all(0 < len(ev._memo) <= 2 * 40 * 41 for ev in evs)
        assert cache._relations == []

    @pytest.mark.parametrize("shared", [False, True], ids=["no-cache", "shared-cache"])
    def test_three_predicate_cycle_at_every_depth(self, shared):
        # p -> q -> r -> p: one turn of the cycle costs three depth units and
        # adds one e step, so (p a ?y) grows only at depths 3 and 6 although
        # p's rows repeat in between
        kb, axioms = parse_kb(
            "(p a b)\n(e b c)\n(e c d)\n"
            "(<= (p ?x ?y) (q ?x ?y))\n(<= (q ?x ?y) (r ?x ?y))\n(<= (r ?x ?y) (p ?x ?z) (e ?z ?y))"
        )
        cache = SnapshotCache(kb) if shared else None
        got = [Evaluator(kb, axioms, cache=cache).ask(Q("p", "a", "?y"), d) for d in range(8)]
        b, bc, bcd = {"b"}, {"b", "c"}, {"b", "c", "d"}
        assert got == [b, b, b, bc, bc, bc, bcd, bcd]

    def test_unsupported_constant_has_no_answers(self):
        # Z is a KB symbol, but no p row, so no r or s answer, starts with it
        kb, axioms = parse_kb(
            "(p A B)\n(q B C)\n(u A)\n(u Z)\n(<= (r ?x ?z) (p ?x ?y) (q ?y ?z))\n(<= (s ?x ?y) (u ?x) (p ?x ?y))"
        )
        ev = Evaluator(kb, axioms)
        assert ev.ask(Q("s", "Z", "?y"), 3) == frozenset()
        assert ev.ask(Q("r", "Z", "?z"), 3) == frozenset()
        assert ev.ask(Q("r", "A", "?z"), 3) == {"C"}

    def test_head_symbols_and_genlpreds_answer(self):
        # near is answered by the head symbol E, and by the touches rows
        # through genlPreds
        kb, axioms = parse_kb(
            "(genlPreds touches near)\n(touches A B)\n(touches C D)\n(<= (near E ?y) (touches ?x ?y))"
        )
        ev = Evaluator(kb, axioms)
        assert ev.ask(Q("near", "E", "?y"), 1) == {"B", "D"}
        assert ev.ask(Q("near", "?x", "B"), 0) == {"A"}  # the touches row, by retrieval through genlPreds

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
        # solved again, the goal is a memo hit, or is solved anew without one
        ev._solve(("r", (0, 1)), 1)
        assert len([c for c in solved if c[0] == "b"]) == (3 if memo else 6)


def _sampled_spaces(graph, n):
    """n spaces of the graph, Model 1 and Model 2 alike."""
    settings = [("model1", 2), ("model1", 3), ("model2", 30), ("model2", 60)]
    return [sample(graph, cell_params(*settings[i % 4], i // 4, 7)) for i in range(n)]


class TestSnapshotCache:
    """Spaces evaluated through one snapshot's cache, in any order, get what
    each gets evaluated alone."""

    @staticmethod
    def check(dom, seed):
        graph = build_graph(dom.axioms, root_schemas(dom.templates), 6, kb=dom.kb)
        queries = expand_templates(dom.kb, dom.templates)
        rng = random.Random(seed)
        cells = [(space, rng.randint(0, 6)) for space in _sampled_spaces(graph, 10) for _ in range(2)]
        rng.shuffle(cells)
        cache = SnapshotCache(dom.kb)
        for space, depth in cells:
            alone = answered_fraction(space, dom.kb, queries, depth)
            shared = answered_fraction(space, dom.kb, queries, depth, True, cache)
            assert shared.per_query == alone.per_query, f"depth={depth} axioms={sorted(space.retained_axiom_ids())}"
            assert depth_profile(space, dom.kb, True, cache) == depth_profile(space, dom.kb)
        # both engines read the cache's rows, and each space runs twice, so
        # every cached rule application is hit (some graphs have none)
        assert cache._base and cache.fired_hits >= len(cache._fired)
        return cache

    @pytest.mark.parametrize("seed", range(12))
    def test_stratified(self, seed):
        self.check(random_domain(seed), seed)

    @pytest.mark.parametrize("seed", range(12))
    def test_stratified_with_genlpreds(self, seed):
        self.check(random_domain(seed, with_genlpreds=True), seed)

    @pytest.mark.parametrize("seed", range(12))
    def test_recursive(self, seed):
        self.check(random_domain(seed, recursive=True), seed)

    @pytest.mark.parametrize("seed", (1, 2, 4, 5, 6, 7, 8))  # seeds whose rule applications repeat rows
    def test_each_distinct_cached_row_is_one_tuple(self, seed):
        cache = self.check(random_domain(seed, recursive=True), seed)
        rows = [row for heads in cache._fired.values() for row in heads]
        assert len(rows) > len(set(rows))
        assert len({id(row) for row in rows}) == len(set(rows))

    def test_rule_applications_are_shared(self):
        dom = random_domain(3)
        graph = build_graph(dom.axioms, root_schemas(dom.templates), 6, kb=dom.kb)
        space = induced_space(graph, graph.or_nodes)
        cache = SnapshotCache(dom.kb)
        first = depth_profile(space, dom.kb, True, cache)
        cached = len(cache._fired)
        assert cached > 0 and cache.fired_hits == 0
        assert depth_profile(space, dom.kb, True, cache) == first
        assert (len(cache._fired), cache.fired_hits) == (cached, cached)

    def test_another_snapshot_or_mode_is_refused(self):
        dom = random_domain(3)
        graph = build_graph(dom.axioms, root_schemas(dom.templates), 6, kb=dom.kb)
        space = induced_space(graph, graph.or_nodes)
        queries = expand_templates(dom.kb, dom.templates)
        cache = SnapshotCache(dom.kb)
        other = KnowledgeBase(dom.kb.sorted_facts())
        with pytest.raises(ValueError, match="SnapshotCache"):
            answered_fraction(space, other, queries, 3, True, cache)
        with pytest.raises(ValueError, match="SnapshotCache"):
            depth_profile(space, dom.kb, False, cache)
        depth_profile(space, dom.kb, True, cache)
        # rule applications are keyed by clause content, not by graph node,
        # so a graph built again meets the cached ones
        cached = len(cache._fired)
        regraphed = build_graph(dom.axioms, root_schemas(dom.templates), 6, kb=dom.kb)
        again = induced_space(regraphed, regraphed.or_nodes)
        assert depth_profile(again, dom.kb, True, cache) == depth_profile(again, dom.kb)
        assert len(cache._fired) == cached > 0

    def test_clauses_are_keyed_by_content_not_id(self):
        # parse_kb numbers each call's rules from r0, so two rule sets that
        # share a cache hold different clauses under one id; an id-keyed rule
        # application would give the second the first one's head rows
        kb, _ = parse_kb("(q A B)\n(q B C)")
        cache = SnapshotCache(kb)
        for head in ("(p ?x ?y)", "(p ?y ?x)"):
            _, axioms = parse_kb(f"(<= {head} (q ?x ?y))")
            assert [c.id for c in axioms] == ["r0"]
            for query in (Q("p", "A", "?x"), Q("p", "?x", "A")):
                assert Evaluator(kb, axioms, cache=cache).ask(query, 1) == Evaluator(kb, axioms).ask(query, 1)
        assert len(cache._fired) == 2


class TestSharedRelations:
    """An evaluator on a shared cache answers a query whose cone is free of
    recursion from the store's relations and backchains the rest, one
    without a cache backchains every query; at every depth limit both give
    exactly the answers of proofs of that height, by the independent
    fixpoint."""

    def test_only_recursive_cones_backchain(self):
        # gp's cone is free of recursion, so it reads the store's relation at
        # its height 1 whatever the depth limit; anc's is right-recursive,
        # so it backchains, and depth 400 answers as without a cache
        lines = [f"(par N{i} N{i + 1})" for i in range(39)]
        lines += ["(<= (gp ?x ?z) (par ?x ?y) (par ?y ?z))", "(<= (anc ?x ?y) (par ?x ?y))",
                  "(<= (anc ?x ?y) (par ?x ?z) (anc ?z ?y))"]
        kb, axioms = parse_kb("\n".join(lines))
        cache = SnapshotCache(kb)
        ev = Evaluator(kb, axioms, cache=cache)
        assert ev.ask(Q("gp", "N0", "?x"), 400) == {"N2"} and ev._memo == {}
        assert {p for p, _, _ in cache._relations} == {"gp", "par"}
        assert len(ev.ask(Q("anc", "N0", "?x"), 400)) == 39 and ev._memo
        assert {p for p, _, _ in cache._relations} == {"gp", "par"}

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["stratified", "genlpreds", "recursive"]),
        st.integers(0, 10_000),
        st.lists(st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 8)), min_size=1, max_size=4),
    )
    def test_equal_to_backchaining_and_the_fixpoint(self, flavor, seed, cells):
        dom = random_domain(seed, flavor == "genlpreds", flavor == "recursive")
        queries = expand_templates(dom.kb, dom.templates)
        cache = SnapshotCache(dom.kb)  # one store for every cell's rule subset and depth
        for mask, depth in cells:
            axioms = AxiomSet(c for i, c in enumerate(dom.axioms) if mask >> i & 1)
            rounds = fixpoint_rounds(dom.kb, axioms, dom.genl_edges)
            shared, private = Evaluator(dom.kb, axioms, cache=cache), Evaluator(dom.kb, axioms)
            for q in queries:
                want = oracle_bindings(rounds[min(depth, len(rounds) - 1)], q.atom)
                got = shared.ask(q, depth)
                assert got == private.ask(q, depth) == want, f"depth={depth} query={q.atom}"


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


class TestValueSets:
    @pytest.mark.parametrize("body", ["(anc ?x ?z) (par ?z ?y)", "(anc ?x ?z) (anc ?z ?y)"], ids=["left", "double"])
    def test_recursive_goal_is_unconstrained(self, body):
        # the rule meets (anc ?x ?z) while anc itself is being answered; no
        # set of anc's values may narrow that inner goal, so every node below
        # N0 is an answer
        kb, axioms = chain_closure(body)
        ev = Evaluator(kb, axioms)
        assert ev.ask(Q("anc", "N0", "?x"), 40) == {f"N{i}" for i in range(1, 40)}


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


# r and s specialize p and share the rows (a d) and (g g); the ternary q3
# specializes the binary p too, so its rows never answer a goal of p
MERGED_KB = "\n".join([
    "(genlPreds r p)", "(genlPreds s p)", "(genlPreds q3 p)",
    "(p a b)", "(p h h)",
    "(r a c)", "(r a d)", "(r g g)",
    "(s a d)", "(s e f)", "(s g g)",
    "(q3 a b c)", "(q3 a z z)",
    "(<= (t ?x ?y) (p ?x ?y))",
])
MERGED_ROWS = {True: {("a", "b"), ("h", "h"), ("a", "c"), ("a", "d"), ("g", "g"), ("e", "f")},
               False: {("a", "b"), ("h", "h")}}


class TestMergedRetrieval:
    """Both engines retrieve a goal's facts from one store that merges the
    rows of the predicates specializing the goal's own."""

    @pytest.mark.parametrize("mode, query, want", [
        (True, ("p", "a", "?x"), {"b", "c", "d"}),
        (False, ("p", "a", "?x"), {"b"}),
        (True, ("p", "?x", "d"), {"a"}),
        (False, ("p", "?x", "d"), set()),
        (True, ("p", "?x", "?x"), {"g", "h"}),
        (False, ("p", "?x", "?x"), {"h"}),
        (True, ("t", "a", "?x"), {"b", "c", "d"}),
        (False, ("t", "a", "?x"), {"b"}),
        (True, ("t", "?x", "?x"), {"g", "h"}),
        (False, ("t", "?x", "?x"), {"h"}),
    ])
    def test_ask(self, mode, query, want):
        kb, axioms = parse_kb(MERGED_KB)
        assert ask(kb, axioms, Q(*query), 1, mode) == want
        shared = SnapshotCache(kb, mode)
        for _ in range(2):
            assert Evaluator(kb, axioms, mode, shared).ask(Q(*query), 1) == want

    @pytest.mark.parametrize("mode", [True, False])
    @pytest.mark.parametrize("mask", [(True, False), (False, False)])
    def test_bottom_up_and_solutions(self, mode, mask):
        kb, axioms = parse_kb(MERGED_KB)
        g = build_graph(axioms, [GoalSchema("t", 2, mask)], 10, kb=kb, genlpreds_mode=mode)
        sets = bottom_up_eval(induced_space(g, g.or_nodes), kb, mode)
        rows = {g.or_nodes[oid].predicate: {a.args for a in atoms} for oid, atoms in sets.items()}
        assert rows == {"t": MERGED_ROWS[mode], "p": MERGED_ROWS[mode]}
        # solutions counts facts, so the rows r and s share count twice
        assert solutions(GoalSchema("p", 2, mask), kb, mode) == (8 if mode else 2)


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
        space = sample(g, SampleParams("model1", k=1, seed=3))
        sets = bottom_up_eval(space, dom.kb)
        axioms = dom.axioms.restrict(space.retained_axiom_ids())
        for q in queries:
            schema = GoalSchema(q.atom.predicate, 2, tuple(isinstance(t, str) for t in q.atom.args))
            oid = next((oid for oid, n in g.or_nodes.items() if n.schema == schema), None)
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
