import random

import pytest

from percolog import (
    AxiomSet,
    GoalSchema,
    KnowledgeBase,
    Query,
    build_graph,
    induced_space,
    model1_sample,
)
from percolog.graph import SearchSpace
from percolog.growth import SynthConfig, synth_kb
from percolog.harness import expand_templates, root_schemas
from percolog.kb import parse_kb
from percolog.metrics import alpha, answered_fraction, threshold_hit

from conftest import A, F, kb_of, naive_fixpoint, oracle_bindings


def queries(pred, entities, bound_pos=1):
    out = []
    for e in entities:
        args = ["?x", "?x"]
        args[bound_pos - 1] = e
        out.append(Query(A(pred, *args)))
    return tuple(out)


class TestAlphaFixtures:
    def test_empty_member_set_is_zero(self):
        kb = kb_of(("p", "a", "b"))
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        space = SearchSpace(g, [], [])
        report = alpha(g, space, queries("p", ["a"]), kb)
        assert report.alpha == 0.0
        assert report.m_count == 0

    def test_single_root_full_solutions_is_one(self):
        # |N| = 1, root at depth 0, Solutions = |Q| = 4
        kb = KnowledgeBase([F("p", f"e{i}", "c") for i in range(4)])
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        report = alpha(g, space, queries("p", [f"e{i}" for i in range(4)]), kb)
        assert report.alpha == pytest.approx(1.0, rel=1e-12)
        assert (report.n_total, report.m_count, report.q_count) == (1, 1, 4)

    def test_depth_one_member_term(self):
        # |N| = 2, M = {node at depth 1}, Solutions = 2, |Q| = 4 -> 0.125
        kb = KnowledgeBase([F("q", "a", "b"), F("q", "c", "d")])
        _, axioms = parse_kb("(<= (p ?x ?y) (q ?x ?y))")
        g = build_graph(axioms, [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        q_node = next(oid for oid, n in g.or_nodes.items() if n.predicate == "q")
        space = SearchSpace(g, [q_node], [])
        report = alpha(g, space, queries("p", ["e1", "e2", "e3", "e4"]), kb)
        assert report.alpha == pytest.approx(0.125, rel=1e-12)

    def test_report_internally_consistent(self):
        kb = KnowledgeBase([F("p", f"e{i}", "c") for i in range(4)])
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        report = alpha(g, space, queries("p", ["e0"]), kb)
        recomputed = sum(t[3] for t in report.terms) / report.n_total
        assert recomputed == pytest.approx(report.alpha, rel=1e-12)

    def test_empty_query_set_rejected(self):
        kb = kb_of(("p", "a", "b"))
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        with pytest.raises(ValueError):
            alpha(g, space, (), kb)


def synth_setup(seed):
    cfg = SynthConfig(
        predicates=10, entities=18, collections=3, genls_depth=1, rules=16,
        body_min=1, body_max=2, rule_skew=1.1, facts=80, fact_skew=0.7,
        levels=3, root_predicates=3, seed=seed,
    )
    kb, axioms, templates = synth_kb(cfg)
    g = build_graph(axioms, root_schemas(templates), 10, kb=kb)
    return kb, g, expand_templates(kb, templates)


class TestAlphaProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_additivity_over_disjoint_members(self, seed):
        kb, g, qs = synth_setup(seed)
        rng = random.Random(seed)
        ids = sorted(g.or_nodes)
        rng.shuffle(ids)
        half = len(ids) // 2
        m1, m2 = ids[:half], ids[half:]
        a_union = alpha(g, SearchSpace(g, m1 + m2, []), qs, kb).alpha
        a_parts = (
            alpha(g, SearchSpace(g, m1, []), qs, kb).alpha
            + alpha(g, SearchSpace(g, m2, []), qs, kb).alpha
        )
        assert a_union == pytest.approx(a_parts, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_under_fact_addition(self, seed):
        kb, g, qs = synth_setup(seed)
        space = model1_sample(g, 2, random.Random(seed))
        before = alpha(g, space, qs, kb).alpha
        extra_pred = g.or_nodes[g.roots[0]].predicate
        bigger = kb.add_facts([F(extra_pred, "Enew1", "Enew2")])
        after = alpha(g, space, qs, bigger).alpha
        assert after >= before

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_under_member_growth(self, seed):
        kb, g, qs = synth_setup(seed)
        rng = random.Random(seed)
        ids = sorted(g.or_nodes)
        rng.shuffle(ids)
        cut = max(1, len(ids) // 3)
        small = alpha(g, SearchSpace(g, ids[:cut], []), qs, kb).alpha
        large = alpha(g, SearchSpace(g, ids, []), qs, kb).alpha
        assert large >= small


class TestAnsweredFraction:
    def test_retrieval_only_quarter(self):
        kb = kb_of(("p", "e1", "c"))
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        qa = answered_fraction(space, kb, queries("p", ["e1", "e2", "e3", "e4"]), 10)
        assert qa.fraction == 0.25
        assert qa.answered == 1 and qa.attempted == 4

    def test_empty_kb_is_zero(self):
        kb = KnowledgeBase([])
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        qa = answered_fraction(space, kb, queries("p", ["e1", "e2"]), 10)
        assert qa.fraction == 0.0
        assert qa.total_answers == 0

    def test_two_rule_chain_closes_three_of_five(self):
        kb, axioms = parse_kb(
            """
            (s1 e1 m1)
            (s1 e2 m1)
            (s1 e3 m2)
            (s2 m1 out1)
            (s2 m2 out2)
            (direct e9 out9)
            (<= (root ?x ?y) (mid ?x ?z) (s2 ?z ?y))
            (<= (mid ?x ?z) (s1 ?x ?z))
            """
        )
        g = build_graph(axioms, [GoalSchema("root", 2, (True, False))], 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        qs = queries("root", ["e1", "e2", "e3", "e4", "e5"])
        # independent check: the fixpoint answers exactly e1, e2, e3
        fix = naive_fixpoint(kb, axioms)
        expected_answered = sum(1 for q in qs if oracle_bindings(fix, q.atom))
        assert expected_answered == 3
        qa = answered_fraction(space, kb, qs, 10)
        assert qa.fraction == pytest.approx(0.6)
        assert qa.total_answers == 3

    def test_monotone_under_fact_and_axiom_addition(self):
        kb, axioms = parse_kb(
            """
            (s1 e1 m1)
            (s2 m1 out1)
            (<= (root ?x ?y) (s1 ?x ?z) (s2 ?z ?y))
            (<= (root ?x ?y) (extra ?x ?y))
            """
        )
        g = build_graph(axioms, [GoalSchema("root", 2, (True, False))], 10, kb=kb)
        full = induced_space(g, g.or_nodes.keys())
        qs = queries("root", ["e1", "e2", "e3"])
        base = answered_fraction(full, kb, qs, 10)
        with_fact = answered_fraction(full, kb.add_facts([F("extra", "e2", "z")]), qs, 10)
        assert with_fact.fraction >= base.fraction
        # dropping an axiom (smaller space) cannot answer more
        smaller_members = set(g.or_nodes) - {
            oid for oid, n in g.or_nodes.items() if n.predicate == "extra"
        }
        smaller = induced_space(g, smaller_members)
        dropped = answered_fraction(smaller, kb.add_facts([F("extra", "e2", "z")]), qs, 10)
        assert dropped.fraction <= with_fact.fraction


class TestIdentitySpaceCrossCheck:
    @pytest.mark.parametrize("seed", (1, 4, 6))
    def test_identity_space_preserves_answered_fraction(self, seed):
        # the space induced by the whole member set answers exactly what
        # depth-bounded backchaining over the full axiom set answers
        from percolog.engine import Evaluator
        from conftest import random_domain

        dom = random_domain(seed)
        from percolog.harness import expand_templates as expand, root_schemas

        queries = expand(dom.kb, dom.templates)
        if len(queries) == 0:
            pytest.skip("domain produced no queries")
        g = build_graph(dom.axioms, root_schemas(dom.templates), 10, kb=dom.kb)
        space = induced_space(g, g.or_nodes.keys())
        via_space = answered_fraction(space, dom.kb, queries, 10)
        ev = Evaluator(dom.kb, dom.axioms, genlpreds_mode=True)
        answered = sum(1 for q in queries if ev.ask(q, 10))
        assert via_space.answered == answered
        assert via_space.fraction == pytest.approx(answered / len(queries))


class TestThreshold:
    def test_boundary_inclusive(self):
        assert threshold_hit(0.2) is True

    def test_below(self):
        assert threshold_hit(0.19) is False

    def test_full_coverage(self):
        assert threshold_hit(1.0) is True

    def test_custom_theta(self):
        assert threshold_hit(0.5, theta=0.6) is False

    def test_range_validated(self):
        with pytest.raises(ValueError):
            threshold_hit(1.5)
