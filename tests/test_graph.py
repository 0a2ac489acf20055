import json

import pytest

from percolog import (
    AxiomSet,
    GoalSchema,
    average_degree,
    build_graph,
    induced_space,
    or_out_degrees,
)
from percolog.cli import main
from percolog.graph import PROVENANCE_KEYS, AndOrGraph, GraphCycleError, SearchSpace
from percolog.growth import SynthConfig, synth_kb
from percolog.harness import root_schemas
from percolog.kb import KbError, parse_kb
from percolog.sampling import SampleParams, sample

ROOT = GoalSchema("root", 2, (True, False))


def graph_of(text, roots=(ROOT,), depth=10):
    kb, axioms = parse_kb(text)
    return kb, axioms, build_graph(axioms, list(roots), depth, kb=kb)


def skewed_fixture():
    """Skewed out-degrees: the root owns five rule applications, one child
    predicate owns two, another owns one, the rest are leaves."""
    rules = "\n".join(
        [
            "(<= (root ?x ?y) (a ?x ?y))",
            "(<= (root ?x ?y) (b ?x ?y))",
            "(<= (root ?x ?y) (c ?x ?y))",
            "(<= (root ?x ?y) (d ?x ?y))",
            "(<= (root ?x ?y) (e ?x ?y))",
            "(<= (a ?x ?y) (f ?x ?y))",
            "(<= (a ?x ?y) (g ?x ?y))",
            "(<= (b ?x ?y) (h ?x ?y))",
        ]
    )
    return graph_of(rules)


class TestBuildGraph:
    def test_no_axioms_roots_only(self):
        _, _, g = graph_of("(root A B)")
        assert g.or_count == 1
        assert len(g.and_nodes) == 0
        assert [g.or_nodes[r].depth for r in g.roots] == [0]

    def test_single_rule_two_body_atoms(self):
        _, _, g = graph_of("(<= (root ?x ?y) (p ?x ?z) (q ?z ?y))")
        assert g.or_count == 3
        assert len(g.and_nodes) == 1
        depths = sorted((n.predicate, n.depth) for n in g.or_nodes.values())
        assert depths == [("p", 1), ("q", 1), ("root", 0)]

    def test_self_recursive_rule_dropped(self):
        _, _, g = graph_of("(<= (root ?x ?y) (root ?x ?y))")
        assert g.or_count == 1
        assert len(g.and_nodes) == 0
        induced_space(g, g.or_nodes).reverse_topological_or_order()

    def test_mutual_recursion_dropped(self):
        _, _, g = graph_of(
            "(<= (root ?x ?y) (other ?x ?y))\n(<= (other ?x ?y) (root ?x ?y))"
        )
        # other's application back to root is a back edge
        assert g.or_count == 2
        assert len(g.and_nodes) == 1
        induced_space(g, g.or_nodes).reverse_topological_or_order()

    def test_negative_depth_bound_rejected(self):
        kb, axioms = parse_kb("(<= (root ?x ?y) (p ?x ?y))")
        with pytest.raises(ValueError, match="depth_bound must be >= 0"):
            build_graph(axioms, [ROOT], -1, kb=kb)

    def test_depth_bound_limits_expansion(self):
        chain = "\n".join(f"(<= (p{i} ?x ?y) (p{i+1} ?x ?y))" for i in range(12))
        kb, axioms = parse_kb(chain)
        g = build_graph(axioms, [GoalSchema("p0", 2, (True, False))], 4, kb=kb)
        assert max(n.depth for n in g.or_nodes.values()) == 4
        assert g.or_count == 5

    def test_depths_are_shortest_paths(self):
        _, _, g = graph_of(
            """
            (<= (root ?x ?y) (mid ?x ?y))
            (<= (root ?x ?y) (deep ?x ?y))
            (<= (mid ?x ?y) (deep ?x ?y))
            """
        )
        by_pred = {n.predicate: n for n in g.or_nodes.values()}
        assert by_pred["root"].depth == 0
        assert by_pred["mid"].depth == 1
        assert by_pred["deep"].depth == 1  # reachable directly from the root

    def test_schema_dedup(self):
        _, _, g = graph_of(
            "(<= (root ?x ?y) (p ?x ?y))\n(<= (root ?x ?y) (p ?x ?z) (q ?z ?y))"
        )
        schemas = [n.schema for n in g.or_nodes.values()]
        assert len(schemas) == len(set(schemas))

    def test_adornment_splits_nodes_per_mask(self):
        kb, axioms = parse_kb("(<= (root ?x ?y) (p ?y ?x))")
        g = build_graph(
            axioms,
            [GoalSchema("root", 2, (True, False)), GoalSchema("root", 2, (False, True))],
            10,
            kb=kb,
        )
        p_masks = {n.schema.mask for n in g.or_nodes.values() if n.predicate == "p"}
        assert p_masks == {(False, True), (True, False)}

    def test_genlpreds_closure_expands_heads(self):
        kb, axioms = parse_kb(
            "(genlPreds sub root)\n(<= (sub ?x ?y) (p ?x ?y))"
        )
        g_on = build_graph(axioms, [ROOT], 10, kb=kb, genlpreds_mode=True)
        g_off = build_graph(axioms, [ROOT], 10, kb=kb, genlpreds_mode=False)
        assert len(g_on.and_nodes) == 1
        assert len(g_off.and_nodes) == 0

    def test_child_depth_at_most_parent_plus_one(self):
        for seed in range(5):
            cfg = SynthConfig(
                predicates=10, entities=15, collections=3, genls_depth=1, rules=14,
                body_min=1, body_max=3, rule_skew=1.2, facts=60, fact_skew=0.8,
                levels=4, root_predicates=3, seed=seed,
            )
            kb, axioms, templates = synth_kb(cfg)
            g = build_graph(axioms, root_schemas(templates), 10, kb=kb)
            induced_space(g, g.or_nodes).reverse_topological_or_order()
            for oid, node in g.or_nodes.items():
                for aid in node.children:
                    for cid in g.and_nodes[aid].children:
                        assert g.or_nodes[cid].depth <= node.depth + 1
            for rid in g.roots:
                assert g.or_nodes[rid].depth == 0


class TestDegrees:
    def test_roots_only_all_zero(self):
        _, _, g = graph_of("(root A B)")
        assert or_out_degrees(induced_space(g, g.or_nodes)) == [0]

    def test_skewed_fixture_hand_counted(self):
        _, _, g = skewed_fixture()
        assert or_out_degrees(induced_space(g, g.or_nodes)) == [0, 0, 0, 0, 0, 0, 1, 2, 5]

    def test_average_degree(self):
        _, _, g = skewed_fixture()
        assert average_degree(induced_space(g, g.or_nodes)) == pytest.approx(8 / 9)

    def test_average_degree_all_leaves(self):
        _, _, g = graph_of("(root A B)")
        assert average_degree(induced_space(g, g.or_nodes)) == 0

    def test_average_degree_empty_graph_errors(self):
        g = AndOrGraph(AxiomSet([]), 10)
        with pytest.raises(ValueError):
            average_degree(induced_space(g, g.or_nodes))


class TestInducedSpace:
    def test_full_membership_is_identity(self):
        _, _, g = skewed_fixture()
        space = induced_space(g, g.or_nodes.keys())
        assert space.or_members == frozenset(g.or_nodes)
        assert space.and_members == frozenset(g.and_nodes)

    def test_roots_only_retains_no_and_nodes(self):
        _, _, g = skewed_fixture()
        space = induced_space(g, g.roots)
        assert space.and_members == frozenset()
        assert space.retained_axiom_ids() == frozenset()

    def test_missing_body_child_drops_rule_application(self):
        _, _, g = graph_of("(<= (root ?x ?y) (p ?x ?z) (q ?z ?y))")
        p_node = next(oid for oid, n in g.or_nodes.items() if n.predicate == "p")
        members = set(g.or_nodes) - {p_node}
        space = induced_space(g, members)
        assert space.and_members == frozenset()

    def test_unknown_member_rejected(self):
        _, _, g = graph_of("(root A B)")
        with pytest.raises(ValueError):
            induced_space(g, ["o999"])

    def test_and_member_outside_the_member_set_rejected(self):
        _, _, g = graph_of("(<= (root ?x ?y) (p ?x ?y))")
        with pytest.raises(ValueError, match="AND node a0 is not fully inside the member set"):
            SearchSpace(g, ["o0"], ["a0"])


class TestSerialization:
    def test_json_round_trip(self):
        _, _, g = skewed_fixture()
        g2 = AndOrGraph.from_json(g.to_json())
        assert g2.to_json() == g.to_json()
        assert g2.roots == g.roots
        assert set(g2.or_nodes) == set(g.or_nodes)
        for oid in g.or_nodes:
            assert g2.or_nodes[oid].schema == g.or_nodes[oid].schema
            assert g2.or_nodes[oid].children == g.or_nodes[oid].children
        assert {c.id: str(c) for c in g2.axioms} == {c.id: str(c) for c in g.axioms}

    def test_space_round_trip(self):
        _, _, g = skewed_fixture()
        space = induced_space(g, g.or_nodes.keys())
        space2 = SearchSpace.from_json(space.to_json(), g)
        assert space2.or_members == space.or_members
        assert space2.and_members == space.and_members

    def test_space_provenance_round_trip(self):
        _, _, g = skewed_fixture()
        prov = {"model": "model1", "k": 2, "beta": 50.0, "seed": 7, "replicate": 3}  # all five keys set
        space = SearchSpace(g, g.or_nodes, (), prov)
        assert {k: v for k, v in json.loads(space.to_json()).items() if k in PROVENANCE_KEYS} == prov
        assert SearchSpace.from_json(space.to_json(), g).provenance == prov

    def test_edge_list_format(self):
        _, _, g = graph_of("(<= (root ?x ?y) (p ?x ?y))")
        lines = g.edge_list().splitlines()
        assert lines[0] == "OR o0 root/2 depth=0"
        assert "AND a0 clause=r0" in lines
        assert "EDGE o0 a0" in lines
        assert "EDGE a0 o1" in lines


class TestSpaceOrdering:
    def test_reverse_topo_children_first(self):
        _, _, g = skewed_fixture()
        space = induced_space(g, g.or_nodes.keys())
        order = space.reverse_topological_or_order()
        pos = {oid: i for i, oid in enumerate(order)}
        for aid in space.and_members:
            a = g.and_nodes[aid]
            for child in a.children:
                assert pos[child] < pos[a.parent]

    def test_cycle_detection_guard(self, tmp_path, capsys):
        # a graph file edited into a cycle is refused when it is read
        _, _, g = graph_of("(<= (root ?x ?y) (p ?x ?y))")
        doc = json.loads(g.to_json())
        doc["and_nodes"].append({"id": "a1", "clause": "r0", "parent": "o1", "children": ["o0"]})
        doc["or_nodes"][1]["children"] = ["a1"]
        with pytest.raises(GraphCycleError, match="the graph has a cycle through OR node o"):
            AndOrGraph.from_json(json.dumps(doc))
        assert issubclass(GraphCycleError, KbError)
        (tmp_path / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "space.json").write_text(induced_space(g, g.roots).to_json(), encoding="utf-8")
        (tmp_path / "kb.kb").write_text("(isa a Thing)\n(root a b)\n", encoding="utf-8")
        template = {"id": "t0", "predicate": "root", "bound_position": 1, "param_collection": "Thing"}
        (tmp_path / "t.json").write_text(json.dumps([dict(template, open_position=2)]), encoding="utf-8")
        capsys.readouterr()
        graph = str(tmp_path / "graph.json")
        assert main(["sample", "--graph", graph, "--model", "1", "--k", "2", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: the graph has a cycle through OR node o")
        space, kb, templates = (str(tmp_path / name) for name in ("space.json", "kb.kb", "t.json"))
        assert main(["alpha", "--graph", graph, "--space", space, "--kb", kb, "--templates", templates]) == 2
        assert capsys.readouterr().err.startswith("error: the graph has a cycle through OR node o")

    def test_sub_spaces_inherit_the_graph_order(self):
        _, _, g = skewed_fixture()
        full = induced_space(g, g.or_nodes).reverse_topological_or_order()
        for seed in range(20):
            space = sample(g, SampleParams("model2", beta=50, seed=seed))
            order = space.reverse_topological_or_order()
            assert order == [oid for oid in full if oid in space.or_members]
            pos = {oid: i for i, oid in enumerate(order)}
            for aid in space.and_members:
                assert all(pos[c] < pos[g.and_nodes[aid].parent] for c in g.and_nodes[aid].children)
