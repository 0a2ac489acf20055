import hashlib
import math
import random
from collections import Counter, defaultdict

import pytest

from percolog import (
    Fact,
    KnowledgeBase,
    build_graph,
    induced_space,
    parse_kb,
    serialize_kb,
)
from percolog.growth import InfeasibleConfigError, SynthConfig, _stratified_order, ablate_grow, synth_kb
from percolog.harness import expand_templates, root_schemas
from percolog.metrics import answered_fraction


def flat_kb(n_content, n_hierarchy=20, preds=("obs", "rel", "seen")):
    consts = [f"E{i}" for i in range(1200)]
    facts = [Fact("isa", (consts[i], "Thing")) for i in range(n_hierarchy)]
    for i in range(n_content):
        p = preds[i % len(preds)]
        facts.append(Fact(p, (consts[i % 1200], consts[(i * 7 + i // 1200) % 1200])))
    return KnowledgeBase(facts)


def greedy_stratified_order(content, rng):
    """The stratified re-add order as a greedy rule: after the same
    per-predicate shuffles, the next fact comes from the predicate with the
    lowest (taken / total, name)."""
    groups = defaultdict(list)
    for f in content:
        groups[f.predicate].append(f)
    for facts in groups.values():
        rng.shuffle(facts)
    taken = dict.fromkeys(groups, 0)
    out = []
    remaining = sorted(groups)
    while remaining:
        p = min(remaining, key=lambda p: (taken[p] / len(groups[p]), p))
        out.append(groups[p][taken[p]])
        taken[p] += 1
        if taken[p] == len(groups[p]):
            remaining.remove(p)
    return out


class TestAblateGrow:
    def test_full_size_single_snapshot(self):
        kb = flat_kb(100)
        snapshots = ablate_grow(kb, [kb.fact_count], random.Random(0))
        assert len(snapshots) == 1
        assert snapshots[0][1].sorted_facts() == kb.sorted_facts()

    def test_nested_and_exact_sizes(self):
        kb = flat_kb(200)
        snaps = [s for _, s in ablate_grow(kb, [50, 120, 220], random.Random(1))]
        assert [s.fact_count for s in snaps] == [50, 120, 220]
        for small, large in zip(snaps, snaps[1:]):
            assert set(small.sorted_facts()) <= set(large.sorted_facts())

    def test_hierarchy_exempt_from_ablation(self):
        kb = flat_kb(100, n_hierarchy=30)
        for _, snap in ablate_grow(kb, [40, 90], random.Random(2)):
            isa = snap.facts_for("isa")
            assert len(isa) == 30

    def test_size_exceeding_kb_rejected(self):
        kb = flat_kb(50)
        with pytest.raises(ValueError):
            ablate_grow(kb, [kb.fact_count + 1], random.Random(0))

    def test_size_below_hierarchy_core_rejected(self):
        kb = flat_kb(50, n_hierarchy=30)
        with pytest.raises(ValueError):
            ablate_grow(kb, [10], random.Random(0))

    def test_sizes_strictly_increasing(self):
        kb = flat_kb(50)
        with pytest.raises(ValueError):
            ablate_grow(kb, [40, 40], random.Random(0))
        with pytest.raises(ValueError):
            ablate_grow(kb, [], random.Random(0))

    def test_same_rng_same_schedule(self):
        kb = flat_kb(120)
        s1 = ablate_grow(kb, [60, 100], random.Random(9))
        s2 = ablate_grow(kb, [60, 100], random.Random(9))
        assert [sid for sid, _ in s1] == [sid for sid, _ in s2] == ["s0_60", "s1_100"]
        for (_, a), (_, b) in zip(s1, s2):
            assert a.sorted_facts() == b.sorted_facts()

    def test_stratified_order_keeps_proportions(self):
        kb = flat_kb(300, n_hierarchy=0, preds=("heavy",) * 4 + ("light",))
        _, snap = ablate_grow(kb, [100, 300], random.Random(5), order="stratified")[0]
        counts = Counter(f.atom.predicate for f in snap.sorted_facts())
        totals = Counter(f.atom.predicate for f in kb.sorted_facts())
        q = 100 / 300
        for pred, total in totals.items():
            assert abs(counts.get(pred, 0) - total * q) <= 2

    @pytest.mark.parametrize("seed", range(40))
    def test_stratified_order_is_the_greedy_rule(self, seed):
        rng = random.Random(seed)
        sizes = [rng.choice((1, 2, 3, 5, 7, 12, 30)) for _ in range(rng.randint(1, 8))]
        sizes += rng.sample(sizes, rng.randint(1, len(sizes)))  # predicates of equal size
        content = [Fact(f"p{i}", (f"E{j}",)) for i, n in enumerate(sizes) for j in range(n)]
        rng.shuffle(content)
        ordered = _stratified_order(list(content), random.Random(seed))
        assert ordered == greedy_stratified_order(list(content), random.Random(seed))
        assert sorted(ordered) == sorted(content)

    # sha256 of serialize_kb(snapshot) for ablate_grow(synth_kb(small_cfg(3)),
    # [45, 60, 80], Random(11)): pins the re-add order of both orders
    PINNED = {
        "uniform": (
            "f8d158755bcb8629a4630fd90430b548779cdcde67337013dd0357f41b5a7598",
            "609ff3ab125db1bd1cc7db2c5bb3cf4d05319a447500a0779d5232cf7c619299",
            "5b05ef6afadc8235fa6bda29eb09a78d73cfb250601477e6d7a02201e5b7da6f",
        ),
        "stratified": (
            "c8cd31e8490e87d184547fd22c4d0dced2d48e186e4be00b9dc0f587c559bd47",
            "f5446185ef1fed400491d9a0c3a5a832d7dd443580f15b61734408da57ba8e50",
            "d1b4f202a2e607fcb86517d9f7c52cc3c837dea87ecb9012fe057dae16dfeede",
        ),
    }

    @pytest.mark.parametrize("order", sorted(PINNED))
    def test_pinned_snapshots(self, order):
        kb, _, _ = synth_kb(small_cfg(3))
        snapshots = ablate_grow(kb, [45, 60, 80], random.Random(11), order=order)
        digests = tuple(hashlib.sha256(serialize_kb(s).encode()).hexdigest() for _, s in snapshots)
        assert digests == self.PINNED[order]

    def test_paper_scale_sizes(self):
        # the three reported KB sizes, on a synthetic stand-in of >= 491,091 facts
        kb = flat_kb(491_200, n_hierarchy=100)
        snaps = [s for _, s in ablate_grow(kb, [5_180, 165_992, 491_091], random.Random(13))]
        assert [s.fact_count for s in snaps] == [5_180, 165_992, 491_091]
        assert set(snaps[0].sorted_facts()) <= set(snaps[2].sorted_facts())


def small_cfg(seed, **overrides):
    base = dict(
        predicates=8, entities=16, collections=3, genls_depth=1, rules=12,
        body_min=1, body_max=2, rule_skew=0.9, facts=60, fact_skew=0.6,
        levels=3, root_predicates=3, seed=seed,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthKb:
    def test_deterministic_output(self):
        for seed in (0, 7):
            kb1, ax1, t1 = synth_kb(small_cfg(seed))
            kb2, ax2, t2 = synth_kb(small_cfg(seed))
            assert serialize_kb(kb1, ax1) == serialize_kb(kb2, ax2)
            assert t1 == t2

    def test_pinned_genls_family(self):
        # sha256 of serialize_kb for a two-level genls tree: fact arguments
        # are drawn from each collection's instances under the genls closure
        kb, axioms, _ = synth_kb(small_cfg(3, entities=24, collections=6, genls_depth=2))
        digest = hashlib.sha256(serialize_kb(kb, axioms).encode()).hexdigest()
        assert digest == "f9597cf0213073c595ab959f0d8fbe46d142af8c643c8f8754fe2dd706a85961"

    def test_output_parses_and_validates(self):
        for seed in range(6):
            kb, axioms, templates = synth_kb(small_cfg(seed))
            kb2, axioms2 = parse_kb(serialize_kb(kb, axioms))
            assert kb2.sorted_facts() == kb.sorted_facts()
            assert set(axioms2.clauses) == set(axioms.clauses)
            g = build_graph(axioms, root_schemas(templates), 10, kb=kb)
            induced_space(g, g.or_nodes).reverse_topological_or_order()  # acyclic by stratification

    def test_requested_fact_count(self):
        kb, _, _ = synth_kb(small_cfg(3))
        content = [f for f in kb.sorted_facts() if f.atom.predicate.startswith("p")]
        non_hierarchy = [
            f for f in content if f.atom.predicate not in ("isa", "genls", "genlPreds", "argIsa")
        ]
        assert len(non_hierarchy) == 60

    def test_templates_target_root_predicates_only(self):
        cfg = small_cfg(4)
        kb, axioms, templates = synth_kb(cfg)
        template_preds = {t.predicate for t in templates}
        assert template_preds == {f"p{i}" for i in range(cfg.root_predicates)}
        body_preds = {a.predicate for c in axioms for a in c.body}
        assert not template_preds & body_preds

    def test_templates_expand_well_formed(self):
        kb, _, templates = synth_kb(small_cfg(5))
        queries = expand_templates(kb, templates)
        for q in queries:
            assert kb.well_formed(q.atom)

    def test_uniform_exponents_within_three_sigma(self):
        # chi-square-style 3-sigma check against the multinomial expectation,
        # aggregated over 30 seeds with both skew exponents at zero
        head_counts: Counter = Counter()
        fact_counts: Counter = Counter()
        n_seeds = 30
        cfg0 = None
        for seed in range(n_seeds):
            cfg = small_cfg(
                seed, rule_skew=0.0, fact_skew=0.0, predicates=8, root_predicates=4,
                levels=2, rules=20, facts=60, entities=24,
            )
            cfg0 = cfg
            kb, axioms, _ = synth_kb(cfg)
            for c in axioms:
                head_counts[c.head.predicate] += 1
            for f in kb.sorted_facts():
                if f.atom.predicate.startswith("p"):
                    fact_counts[f.atom.predicate] += 1
        eligible = cfg0.root_predicates  # only roots have a higher level to draw bodies from
        total_rules = n_seeds * 20
        expected = total_rules / eligible
        sigma = math.sqrt(total_rules * (1 / eligible) * (1 - 1 / eligible))
        for i in range(eligible):
            assert abs(head_counts[f"p{i}"] - expected) <= 3 * sigma
        total_facts = n_seeds * 60
        expected_f = total_facts / cfg0.predicates
        sigma_f = math.sqrt(total_facts * (1 / cfg0.predicates) * (1 - 1 / cfg0.predicates))
        for i in range(cfg0.predicates):
            assert abs(fact_counts[f"p{i}"] - expected_f) <= 3 * sigma_f

    def test_skew_concentrates_rule_ownership(self):
        for seed in range(5):
            cfg = small_cfg(
                seed, rule_skew=1.5, predicates=20, root_predicates=10, levels=2,
                rules=40, entities=30, facts=80,
            )
            _, axioms, _ = synth_kb(cfg)
            counts = Counter(c.head.predicate for c in axioms)
            owned = sorted((counts.get(f"p{i}", 0) for i in range(20)), reverse=True)
            decile = max(1, len(owned) // 10)
            top = sum(owned[:decile])
            bottom = sum(owned[-decile:])
            assert top > bottom

    def test_root_fact_weight_starves_roots(self):
        rich = synth_kb(small_cfg(2, root_fact_weight=1.0))[0]
        starved = synth_kb(small_cfg(2, root_fact_weight=0.02))[0]

        def root_share(kb):
            root = sum(len(kb.facts_for(f"p{i}")) for i in range(3))
            return root / 60

        assert root_share(starved) < root_share(rich)

    def test_infeasible_configs(self):
        with pytest.raises(InfeasibleConfigError):
            synth_kb(small_cfg(0, levels=1))  # rules need two levels
        with pytest.raises(InfeasibleConfigError):
            synth_kb(small_cfg(0, facts=10_000))  # beyond pair capacity
        with pytest.raises(InfeasibleConfigError):
            synth_kb(small_cfg(0, genls_depth=5, collections=3))
        with pytest.raises(InfeasibleConfigError):
            synth_kb(small_cfg(0, predicates=3, root_predicates=3, levels=3))
        with pytest.raises(InfeasibleConfigError):
            synth_kb(small_cfg(0, rule_skew=-1))

    def test_rules_zero_single_level_is_fine(self):
        kb, axioms, templates = synth_kb(small_cfg(1, rules=0, levels=1, root_predicates=8))
        assert len(axioms) == 0
        assert len(templates) == 8


class TestGrowthMonotonicity:
    @pytest.mark.parametrize("seed", range(3))
    def test_answered_fraction_non_decreasing(self, seed):
        kb, axioms, templates = synth_kb(small_cfg(seed, facts=120, entities=24))
        queries = expand_templates(kb, templates)
        g = build_graph(axioms, root_schemas(templates), 10, kb=kb)
        space = induced_space(g, g.or_nodes.keys())
        hierarchy = kb.fact_count - 120
        sizes = sorted({hierarchy + 20, hierarchy + 60, kb.fact_count})
        fractions = [
            answered_fraction(space, snap, queries, 10).fraction
            for _, snap in ablate_grow(kb, sizes, random.Random(seed))
        ]
        assert fractions == sorted(fractions)
