import math
import random
from fractions import Fraction

import pytest

from percolog import (
    GoalSchema,
    average_degree,
    build_graph,
    model1_sample,
    model2_sample,
    or_out_degrees,
)
from percolog.graph import PROVENANCE_KEYS, induced_space
from percolog.growth import SynthConfig, synth_kb
from percolog.harness import expand_templates, root_schemas
from percolog.kb import parse_kb
from percolog.metrics import answered_fraction
from percolog.sampling import (
    SampleParams,
    cell_params,
    derive_seed,
    generate_replicates,
    greedy_degree_pairs,
    sample,
)

from conftest import random_domain, run_python


def skewed_graph(seed=0):
    cfg = SynthConfig(
        predicates=14, entities=25, collections=4, genls_depth=2, rules=40,
        body_min=1, body_max=2, rule_skew=1.5, facts=120, fact_skew=0.8,
        levels=4, root_predicates=4, seed=seed,
    )
    kb, axioms, templates = synth_kb(cfg)
    return kb, axioms, templates, build_graph(axioms, root_schemas(templates), 10, kb=kb)


def chain_graph():
    kb, axioms = parse_kb(
        "\n".join(f"(<= (p{i} ?x ?y) (p{i+1} ?x ?y))" for i in range(4))
    )
    return build_graph(axioms, [GoalSchema("p0", 2, (True, False))], 10, kb=kb)


class TestModel1:
    def test_k_at_least_max_degree_keeps_everything(self):
        _, _, _, g = skewed_graph()
        k = max(or_out_degrees(induced_space(g, g.or_nodes))) or 1
        space = model1_sample(g, k, random.Random(1))
        assert space.or_members == frozenset(g.or_nodes)
        assert space.and_members == frozenset(g.and_nodes)

    def test_degree_bound_holds(self):
        _, _, _, g = skewed_graph()
        for seed in range(20):
            for k in (1, 2, 3):
                space = model1_sample(g, k, random.Random(seed))
                degrees = or_out_degrees(space)
                assert degrees and max(degrees) <= k

    def test_kept_count_is_min_k_children(self):
        _, _, _, g = skewed_graph()
        space = model1_sample(g, 2, random.Random(5))
        for oid in space.or_members:
            total = len(g.or_nodes[oid].children)
            kept = len(space.member_and_children(oid))
            assert kept == min(2, total)

    def test_chain_survives_k1(self):
        g = chain_graph()
        space = model1_sample(g, 1, random.Random(0))
        assert space.or_members == frozenset(g.or_nodes)
        assert space.and_members == frozenset(g.and_nodes)

    def test_k_validation(self):
        g = chain_graph()
        with pytest.raises(ValueError):
            model1_sample(g, 0, random.Random(0))


class TestModel2:
    def test_beta_100_is_identity(self):
        _, _, _, g = skewed_graph()
        for seed in range(5):
            space = model2_sample(g, 100, random.Random(seed))
            assert space.or_members == frozenset(g.or_nodes)
            assert space.and_members == frozenset(g.and_nodes)

    def test_kept_counts_are_exact_ceilings(self):
        _, _, _, g = skewed_graph()
        for seed in range(10):
            for beta in (10, 15, 20, 30, 40, 50, 75):
                space = model2_sample(g, beta, random.Random(seed))
                for oid in space.or_members:
                    total = len(g.or_nodes[oid].children)
                    kept = len(space.member_and_children(oid))
                    assert kept == math.ceil(Fraction(beta) * total / 100)

    def test_ceiling_keeps_one_of_three_at_beta_10(self):
        kb, axioms = parse_kb(
            "(<= (root ?x ?y) (a ?x ?y))\n(<= (root ?x ?y) (b ?x ?y))\n(<= (root ?x ?y) (c ?x ?y))"
        )
        g = build_graph(axioms, [GoalSchema("root", 2, (True, False))], 10, kb=kb)
        space = model2_sample(g, 10, random.Random(3))
        assert len(space.member_and_children(g.roots[0])) == 1

    def test_beta_validation(self):
        g = chain_graph()
        for bad in (0, -3, 101):
            with pytest.raises(ValueError):
                model2_sample(g, bad, random.Random(0))


class TestOneSampler:
    """The sweep samples through `sample` and the README through
    model1_sample / model2_sample; both run one sampler."""

    @pytest.mark.parametrize(
        "model, value", [("model1", k) for k in (1, 2, 3)] + [("model2", b) for b in (10, 30, 100)]
    )
    def test_sample_matches_model_functions(self, model, value):
        _, _, _, g = skewed_graph()
        direct = model1_sample if model == "model1" else model2_sample
        for seed in range(10):
            params = SampleParams(model, **{"k" if model == "model1" else "beta": value}, seed=seed)
            a = sample(g, params)
            b = direct(g, value, random.Random(seed))
            assert (a.or_members, a.and_members) == (b.or_members, b.and_members)


class TestReplicates:
    def test_same_master_seed_is_identical(self):
        _, _, _, g = skewed_graph()
        settings = [("model1", 2), ("model2", 40.0)]
        a = generate_replicates(g, settings, replicates=3, master_seed=11)
        b = generate_replicates(g, settings, replicates=3, master_seed=11)
        assert [(s.or_members, s.and_members) for s in a] == [
            (s.or_members, s.and_members) for s in b
        ]

    def test_different_replicates_vary(self):
        _, _, _, g = skewed_graph()
        spaces = generate_replicates(g, [("model1", 2)], replicates=7, master_seed=1)
        assert len({s.and_members for s in spaces}) > 1

    def test_k_grid_times_replicates(self):
        _, _, _, g = skewed_graph()
        spaces = generate_replicates(g, [("model1", k) for k in range(2, 8)], 7, 0)
        assert len(spaces) == 42

    def test_beta_grid_times_replicates(self):
        _, _, _, g = skewed_graph()
        grid = [("model2", b) for b in (10, 15, 20, 30, 40, 50)]
        spaces = generate_replicates(g, grid, 7, 0)
        assert len(spaces) == 42

    def test_derive_seed_is_stable_and_distinct(self):
        s1 = derive_seed(42, "model1", 2, 0)
        assert s1 == derive_seed(42, "model1", 2, 0)
        assert s1 != derive_seed(42, "model1", 2, 1)
        assert s1 != derive_seed(43, "model1", 2, 0)

    def test_seeds_are_pinned(self):
        # the values hashlib.sha256 gives; the built-in SHA-256 must agree
        assert derive_seed(42, "model1", 2, 0) == 1480610951792630193
        assert cell_params("model1", 3, 0, 42, "s0_5000").seed == 15281834699595277000
        assert cell_params("model2", 30.0, 1, 42, "s1_10515").seed == 9787098691512645824

    def test_seeds_do_not_load_openssl(self):
        """hashlib loads OpenSSL's _hashlib, megabytes of a sweep's peak RSS."""
        code = (
            "import sys, percolog.cli\n"
            "from percolog.sampling import derive_seed\n"
            "derive_seed(42, 'model1', 2, 0)\n"
            "sys.exit('_hashlib' in sys.modules)\n"
        )
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr or "_hashlib was loaded"

    def test_cell_seed_ignores_value_spelling(self):
        assert cell_params("model2", 10, 3, 42, "s0") == cell_params("model2", 10.0, 3, 42, "s0")
        assert cell_params("model1", 2, 0, 42) == cell_params("model1", 2.0, 0, 42)
        # integral values keep the seed their integer spelling always had
        assert cell_params("model2", 10.0, 3, 42, "s0").seed == derive_seed(42, "s0", "model2", 10, 3)
        assert cell_params("model2", 12.5, 0, 42).seed == derive_seed(42, "model2", 12.5, 0)


class TestSubsetness:
    def test_axioms_subset_and_fraction_monotone(self):
        for seed in (2, 9, 21):
            dom = random_domain(seed)
            queries = expand_templates(dom.kb, dom.templates)
            if len(queries) == 0:
                continue
            g = build_graph(dom.axioms, root_schemas(dom.templates), 10, kb=dom.kb)
            parent = induced_space(g, g.or_nodes.keys())
            parent_q = answered_fraction(parent, dom.kb, queries, 10)
            for k in (1, 2):
                space = model1_sample(g, k, random.Random(seed))
                assert space.retained_axiom_ids() <= parent.retained_axiom_ids()
                sampled_q = answered_fraction(space, dom.kb, queries, 10)
                assert sampled_q.fraction <= parent_q.fraction + 1e-12


class TestMatchedPairs:
    def test_identical_lists_pair_perfectly(self):
        pairs = greedy_degree_pairs([2.0, 3.0], [2.0, 3.0], 0.1)
        assert pairs == [(0, 0), (1, 1)]

    def test_close_degrees_pair(self):
        assert greedy_degree_pairs([2.0], [2.05], 0.1) == [(0, 0)]

    def test_distant_degrees_do_not_pair(self):
        assert greedy_degree_pairs([2.0], [3.0], 0.1) == []

    def test_each_space_used_once(self):
        pairs = greedy_degree_pairs([2.0, 2.0], [2.0], 1.0)
        assert len(pairs) == 1

    def test_matched_pair_objects(self):
        _, _, _, g = skewed_graph()
        m1 = generate_replicates(g, [("model1", k) for k in (2, 3)], 4, 5)
        m2 = generate_replicates(g, [("model2", b) for b in (30, 50, 70)], 4, 5)
        pairs = degree_matched(m1, m2, tolerance=0.5)
        assert pairs
        for a, b in pairs:
            assert abs(average_degree(a) - average_degree(b)) <= 0.5
        assert len({id(a) for a, _ in pairs}) == len({id(b) for _, b in pairs}) == len(pairs)


def degree_matched(spaces_a, spaces_b, tolerance):
    """(space_a, space_b) pairs of nearly equal average degree, paired the
    way the harness pairs sweep rows."""
    pairs = greedy_degree_pairs(
        [average_degree(s) for s in spaces_a], [average_degree(s) for s in spaces_b], tolerance
    )
    return [(spaces_a[i], spaces_b[j]) for i, j in pairs]


def _variance(xs):
    mean = sum(xs) / len(xs)
    return sum((x - mean) ** 2 for x in xs) / len(xs)


class TestDegreeDistributionContrast:
    def test_model1_more_uniform_than_model2_at_matched_degree(self):
        # pooled over seeds on a skewed parent: limiting children to k narrows
        # the out-degree spread relative to keeping beta% everywhere
        _, _, _, g = skewed_graph(seed=3)
        m1 = generate_replicates(g, [("model1", k) for k in (2, 3, 4)], 12, 7)
        m2 = generate_replicates(g, [("model2", b) for b in (20, 30, 40, 50, 60)], 12, 7)
        pairs = degree_matched(m1, m2, tolerance=0.15)
        assert len(pairs) >= 10
        var1 = sum(_variance(or_out_degrees(a)) for a, _ in pairs) / len(pairs)
        var2 = sum(_variance(or_out_degrees(b)) for _, b in pairs) / len(pairs)
        assert var1 < var2


class TestSampleParams:
    def test_model1_requires_k(self):
        with pytest.raises(ValueError):
            SampleParams("model1", beta=50.0)
        with pytest.raises(ValueError):
            SampleParams("model2", k=3)
        with pytest.raises(ValueError):
            SampleParams("model3", k=3)

    def test_provenance_round_trip(self):
        p = SampleParams("model2", beta=25.0, seed=9, replicate=4)
        prov = p.provenance()
        assert prov["model"] == "model2" and prov["beta"] == 25.0 and prov["replicate"] == 4
        assert tuple(prov) == PROVENANCE_KEYS

    def test_keep_count(self):
        assert [SampleParams("model1", k=2).keep_count(c) for c in (1, 2, 5)] == [1, 2, 2]
        # exact rational arithmetic: 20% of 5 is 1, 10% of 3 rounds up to 1
        assert SampleParams("model2", beta=20.0).keep_count(5) == 1
        assert SampleParams("model2", beta=10.0).keep_count(3) == 1
        assert SampleParams("model2", beta=100.0).keep_count(7) == 7
