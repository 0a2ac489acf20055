"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Run just this module with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from percolog import (
    build_graph,
    induced_space,
    model1_sample,
    model2_sample,
    parse_kb,
)
from percolog.cli import main as cli_main
from percolog.engine import Evaluator
from percolog.graph import SearchSpace, or_out_degrees
from percolog.growth import SynthConfig, ablate_grow, synth_kb
from percolog.harness import (
    detect_degenerate,
    detect_transition,
    expand_templates,
    parse_rows,
    root_schemas,
)
from percolog.kb import KnowledgeBase, Fact
from percolog.metrics import alpha, answered_fraction, threshold_hit

from conftest import F, naive_fixpoint, oracle_bindings, random_domain
from test_engine import bottleneck_fixture


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {number} FAIL: {description}")
        raise
    print(f"\n[ACCEPTANCE] criterion {number} PASS: {description}")


def test_criterion_1_engine_oracle_equivalence():
    with criterion(1, "backchain equals the bottom-up fixpoint on 200 random KBs in < 60 s"):
        start = time.perf_counter()
        checked = 0
        for seed in range(200):
            dom = random_domain(seed, with_genlpreds=(seed % 4 == 0))
            assert len(dom.axioms) <= 15
            assert len([f for f in dom.kb.facts if not f.atom.predicate.startswith(("isa", "genls", "genlPreds"))]) <= 50
            fix = naive_fixpoint(dom.kb, dom.axioms, dom.genl_edges)
            queries = expand_templates(dom.kb, dom.templates)
            ev = Evaluator(dom.kb, dom.axioms, genlpreds_mode=True)
            for q in queries:
                got = ev.ask(q, len(dom.axioms))
                want = oracle_bindings(fix, q.atom)
                assert got == want, f"seed={seed} query={q.atom}: {got} != {want}"
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked > 500  # the generator really exercised queries
        assert elapsed < 60, f"oracle suite took {elapsed:.1f}s"


def _graph_family():
    graphs = []
    for seed in range(6):
        cfg = SynthConfig(
            predicates=12 + seed, entities=20, collections=4, genls_depth=2,
            rules=30 + 4 * seed, body_min=1, body_max=2, rule_skew=1.4,
            facts=100, fact_skew=0.8, levels=4, root_predicates=4, seed=seed,
        )
        kb, axioms, templates = synth_kb(cfg)
        graphs.append((kb, build_graph(axioms, root_schemas(templates), 10, kb=kb)))
    return graphs


def test_criterion_2_model1_degree_bound():
    with criterion(2, "1,000 Model 1 spaces across k in [2,7]: every OR out-degree <= k"):
        graphs = _graph_family()
        spaces = 0
        for _, g in graphs:
            for k in range(2, 8):
                for rep in range(28):
                    space = model1_sample(g, k, random.Random(hash((k, rep)) & 0xFFFF))
                    degrees = or_out_degrees(space)
                    assert not degrees or max(degrees) <= k
                    spaces += 1
        assert spaces >= 1000


def test_criterion_3_model2_identity_and_fraction():
    with criterion(3, "beta=100 reproduces the parent exactly; beta<100 keeps ceil(beta*c/100)"):
        graphs = _graph_family()
        for _, g in graphs:
            for seed in range(3):
                space = model2_sample(g, 100, random.Random(seed))
                assert space.or_members == frozenset(g.or_nodes)
                assert space.and_members == frozenset(g.and_nodes)
            for beta in (10, 15, 20, 30, 40, 50, 66.5):
                space = model2_sample(g, beta, random.Random(7))
                for oid in space.or_members:
                    c = len(g.or_nodes[oid].children)
                    kept = len(space.member_and_children(oid))
                    assert kept == math.ceil(Fraction(str(beta)) * c / 100)


def test_criterion_4_alpha_correctness():
    from test_metrics import queries, synth_setup

    with criterion(4, "alpha fixtures at 1e-12 plus additivity/monotonicity over 100 trials"):
        from percolog import AxiomSet, GoalSchema

        # fixture 1: empty member set
        kb = KnowledgeBase([F("p", "a", "b")])
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        assert alpha(g, SearchSpace(g, [], []), queries("p", ["a"]), kb).alpha == 0.0
        # fixture 2: single root, Solutions == |Q|
        kb = KnowledgeBase([F("p", f"e{i}", "c") for i in range(4)])
        g = build_graph(AxiomSet([]), [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        full = induced_space(g, g.or_nodes.keys())
        a2 = alpha(g, full, queries("p", [f"e{i}" for i in range(4)]), kb).alpha
        assert abs(a2 - 1.0) <= 1e-12
        # fixture 3: one depth-1 member, Solutions 2, |Q| 4
        kb = KnowledgeBase([F("q", "a", "b"), F("q", "c", "d")])
        _, axioms = parse_kb("(<= (p ?x ?y) (q ?x ?y))")
        g = build_graph(axioms, [GoalSchema("p", 2, (True, False))], 10, kb=kb)
        q_node = next(oid for oid, n in g.or_nodes.items() if n.predicate == "q")
        a3 = alpha(g, SearchSpace(g, [q_node], []), queries("p", ["e1", "e2", "e3", "e4"]), kb).alpha
        assert abs(a3 - 0.125) <= 0.125 * 1e-12

        for trial in range(100):
            kb, g, qs = synth_setup(trial % 10)
            rng = random.Random(trial)
            ids = sorted(g.or_nodes)
            rng.shuffle(ids)
            half = len(ids) // 2
            m1, m2 = ids[:half], ids[half:]
            a_union = alpha(g, SearchSpace(g, ids, []), qs, kb).alpha
            a_split = (
                alpha(g, SearchSpace(g, m1, []), qs, kb).alpha
                + alpha(g, SearchSpace(g, m2, []), qs, kb).alpha
            )
            assert abs(a_union - a_split) <= max(1e-12 * max(abs(a_union), 1e-9), 1e-15)
            space = model1_sample(g, 2, rng)
            base = alpha(g, space, qs, kb).alpha
            pred = g.or_nodes[sorted(space.or_members)[0]].predicate
            grown_kb = kb.add_facts([Fact(pred, ("Ex", "Ey"))])
            assert alpha(g, space, qs, grown_kb).alpha >= base
            cut = max(1, len(ids) // 3)
            assert (
                alpha(g, SearchSpace(g, ids, []), qs, kb).alpha
                >= alpha(g, SearchSpace(g, ids[:cut], []), qs, kb).alpha
            )


def test_criterion_5_degeneracy_detector():
    from percolog.engine import depth_profile

    with criterion(5, "bottleneck space flagged degenerate, satisfiable variant not"):
        kb, space = bottleneck_fixture(satisfiable=False)
        profile = depth_profile(space, kb)
        report = detect_degenerate(profile)
        assert report.kind == "degenerate"
        # peak-then-collapse: a mid-depth peak and (almost) nothing at the root
        peak_depth = report.evidence["peak_depth"]
        assert 0 < peak_depth < max(profile)
        assert profile[peak_depth] >= 100
        assert profile[0] == 0

        kb_ok, space_ok = bottleneck_fixture(satisfiable=True)
        report_ok = detect_degenerate(depth_profile(space_ok, kb_ok))
        assert report_ok.kind == "none"


def test_criterion_6_transition_detector():
    with criterion(6, "fires on a logistic curve, silent on an equal-range ramp and flat curves"):
        xs = [i / 14 for i in range(15)]
        logistic = [(x, 0.62 / (1 + math.exp(-60 * (x - 0.46)))) for x in xs]
        fractions = [f for _, f in logistic]
        rng_span = max(fractions) - min(fractions)
        assert rng_span >= 0.2
        assert detect_transition(logistic).kind == "transition"
        ramp = [(x, rng_span * x) for x in xs]
        assert detect_transition(ramp).kind == "none"
        flat = [(x, 0.31) for x in xs]
        assert detect_transition(flat).kind == "none"


SWEEP_SYNTH = {
    "predicates": 48,
    "entities": 400,
    "collections": 20,
    "genls_depth": 2,
    "rules": 90,
    "body_min": 1,
    "body_max": 3,
    "rule_skew": 1.3,
    "facts": 60000,
    "fact_skew": 0.8,
    "levels": 5,
    "root_predicates": 8,
    "root_fact_weight": 0.1,
    "seed": 20260810,
}

SWEEP_CONFIG = {
    "kb": "family.kb",
    "templates": "templates.json",
    "snapshot_sizes": [5000, 20000, 60000],
    "snapshot_seed": 17,
    "model1_k": [2, 3, 4, 5, 6, 7],
    "model2_beta": [10, 15, 20, 30, 40, 50],
    "replicates": 7,
    "master_seed": 42,
    "depth_bound": 10,
    "depth_limit": 10,
    "threshold": 0.2,
}


def _strip_wall_time(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln.rsplit(",", 1)[0] for ln in lines]


def test_criterion_7_end_to_end_shape_reproduction(tmp_path):
    with criterion(7, "three-size sweep: < 10 min, deterministic, figure/comparison CSVs, threshold flags"):
        (tmp_path / "synth.json").write_text(json.dumps(SWEEP_SYNTH), encoding="utf-8")
        assert cli_main(
            [
                "synth",
                "--config", str(tmp_path / "synth.json"),
                "--out-kb", str(tmp_path / "family.kb"),
                "--out-templates", str(tmp_path / "templates.json"),
            ]
        ) == 0
        (tmp_path / "sweep.json").write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")

        start = time.perf_counter()
        assert cli_main(["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "out1")]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"sweep took {elapsed:.0f}s"

        rows = parse_rows(tmp_path / "out1" / "sweep.csv")
        assert len(rows) == 3 * (6 + 6) * 7
        assert all(not r.is_error for r in rows)
        profiles = list((tmp_path / "out1" / "profiles").glob("*.csv"))
        assert len(profiles) == 252  # every cell is profiled

        # threshold flags match direct recomputation on every row
        for r in rows:
            assert r.threshold_hit == threshold_hit(r.answered_fraction, 0.2)

        # figure-shaped aggregates: fraction vs parameter for every KB size
        for name, params in (("figure_model1.csv", {2, 3, 4, 5, 6, 7}),
                             ("figure_model2.csv", {10.0, 15.0, 20.0, 30.0, 40.0, 50.0})):
            lines = (tmp_path / "out1" / name).read_text().splitlines()
            assert lines[0].startswith("kb_id,k_or_beta,mean_answered_fraction")
            cells = {(ln.split(",")[0], float(ln.split(",")[1])) for ln in lines[1:]}
            kb_ids = {kb for kb, _ in cells}
            assert len(kb_ids) == 3
            for kb_id in kb_ids:
                assert {p for k, p in cells if k == kb_id} == params

        # Table-1-shaped comparison with the percent-change column
        comparison = (tmp_path / "out1" / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "kb_id,pairs,model1_mean_answers,model2_mean_answers,change_pct"
        assert len(comparison) == 4  # one row per KB size

        # deterministic per seed: identical bytes except the wall-time column
        assert cli_main(["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "out2")]) == 0
        assert _strip_wall_time(tmp_path / "out1" / "sweep.csv") == _strip_wall_time(tmp_path / "out2" / "sweep.csv")
        for name in ("detectors.json", "comparison.csv", "figure_model1.csv", "figure_model2.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_criterion_8_growth_monotonicity():
    with criterion(8, "answered fraction is non-decreasing along 20 random growth schedules"):
        for seed in range(20):
            cfg = SynthConfig(
                predicates=10, entities=20, collections=3, genls_depth=1,
                rules=14, body_min=1, body_max=2, rule_skew=1.1,
                facts=120, fact_skew=0.7, levels=3, root_predicates=3, seed=seed,
            )
            kb, axioms, templates = synth_kb(cfg)
            queries = expand_templates(kb, templates)
            g = build_graph(axioms, root_schemas(templates), 10, kb=kb)
            space = induced_space(g, g.or_nodes.keys())
            rng = random.Random(seed)
            hierarchy = kb.fact_count - 120
            cuts = sorted(rng.sample(range(10, 120), 3))
            sizes = [hierarchy + c for c in cuts] + [kb.fact_count]
            schedule = ablate_grow(kb, sizes, rng)
            fractions = [answered_fraction(space, snap, queries, 10).fraction for _, snap in schedule]
            assert fractions == sorted(fractions), f"seed={seed}: {fractions}"
