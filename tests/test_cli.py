import json
import re
from dataclasses import asdict

import pytest

from percolog.cli import main
from percolog.graph import PROVENANCE_KEYS
from percolog.harness import parse_rows
from percolog.sampling import cell_params

from conftest import node_chain_text, run_python

SYNTH_CONFIG = {
    "predicates": 10,
    "entities": 24,
    "collections": 3,
    "genls_depth": 1,
    "rules": 14,
    "body_min": 1,
    "body_max": 2,
    "rule_skew": 1.1,
    "facts": 150,
    "fact_skew": 0.7,
    "levels": 3,
    "root_predicates": 3,
    "seed": 5,
}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    rc = main(
        [
            "synth",
            "--config", str(tmp_path / "synth.json"),
            "--out-kb", str(tmp_path / "kb.kb"),
            "--out-templates", str(tmp_path / "templates.json"),
        ]
    )
    assert rc == 0
    return tmp_path


def test_full_pipeline(workspace, capsys):
    ws = workspace
    assert main(
        [
            "build-graph",
            "--axioms", str(ws / "kb.kb"),
            "--templates", str(ws / "templates.json"),
            "--depth", "10",
            "--out", str(ws / "graph.json"),
            "--edges", str(ws / "graph.edges"),
        ]
    ) == 0
    assert (ws / "graph.json").exists()
    assert (ws / "graph.edges").read_text().startswith("OR ")

    assert main(
        [
            "sample",
            "--graph", str(ws / "graph.json"),
            "--model", "1",
            "--k", "2",
            "--replicates", "3",
            "--seed", "11",
            "--out", str(ws / "spaces"),
        ]
    ) == 0
    spaces = sorted((ws / "spaces").glob("*.json"))
    assert len(spaces) == 3
    manifest = json.loads(spaces[0].read_text())
    for key in ("model", "k", "beta", "seed", "replicate", "axiom_ids", "avg_degree", "node_count"):
        assert key in manifest
    # each file records the cell it was drawn as, seed and replicate included
    for rep, path in enumerate(spaces):
        assert path.name == f"model1_k2_rep{rep}.json"
        assert {k: json.loads(path.read_text())[k] for k in PROVENANCE_KEYS} == asdict(cell_params("model1", 2, rep, 11))

    # fewer than one replicate is an input error
    capsys.readouterr()
    assert main(
        ["sample", "--graph", str(ws / "graph.json"), "--model", "2", "--beta", "30", "--replicates", "0", "--out", str(ws / "none")]
    ) == 2
    assert capsys.readouterr().err == "error: replicates must be >= 1\n"

    capsys.readouterr()
    assert main(
        [
            "alpha",
            "--graph", str(ws / "graph.json"),
            "--space", str(spaces[0]),
            "--kb", str(ws / "kb.kb"),
            "--templates", str(ws / "templates.json"),
        ]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alpha"] >= 0
    assert report["m_count"] <= report["n_total"]

    assert main(
        [
            "ask",
            "--kb", str(ws / "kb.kb"),
            "--space", str(spaces[0]),
            "--templates", str(ws / "templates.json"),
            "--depth", "10",
        ]
    ) == 0
    answers = json.loads(capsys.readouterr().out)
    assert answers["attempted"] > 0
    assert 0 <= answers["fraction"] <= 1

    assert main(
        [
            "ask",
            "--kb", str(ws / "kb.kb"),
            "--templates", str(ws / "templates.json"),
            "--depth", "0",
            "--no-genlpreds",
        ]
    ) == 0
    depth0 = json.loads(capsys.readouterr().out)
    assert depth0["answered"] <= answers["answered"] or depth0["attempted"] == answers["attempted"]


def test_sample_model2_and_ablate(workspace, capsys):
    ws = workspace
    main(
        [
            "build-graph",
            "--axioms", str(ws / "kb.kb"),
            "--templates", str(ws / "templates.json"),
            "--out", str(ws / "graph.json"),
        ]
    )
    assert main(
        [
            "sample",
            "--graph", str(ws / "graph.json"),
            "--model", "2",
            "--beta", "50",
            "--replicates", "2",
            "--seed", "3",
            "--out", str(ws / "spaces2"),
        ]
    ) == 0
    assert len(list((ws / "spaces2").glob("model2_beta50_rep*.json"))) == 2

    capsys.readouterr()
    assert main(
        ["ablate", "--kb", str(ws / "kb.kb"), "--sizes", "80,120", "--seed", "4", "--out", str(ws / "snaps")]
    ) == 0
    snaps = sorted((ws / "snaps").glob("*.kb"))
    assert len(snaps) == 2
    # snapshots are self-contained kb files (facts + rules)
    assert main(
        ["ask", "--kb", str(snaps[0]), "--templates", str(ws / "templates.json"), "--depth", "5"]
    ) == 0


def test_sweep_detect_compare(workspace, capsys):
    ws = workspace
    cfg = {
        "kb": "kb.kb",
        "templates": "templates.json",
        "model1_k": [2, 3],
        "model2_beta": [30, 60],
        "replicates": 2,
        "master_seed": 7,
    }
    (ws / "sweep.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["sweep", "--config", str(ws / "sweep.json"), "--out", str(ws / "out")]) == 0
    rows = parse_rows(ws / "out" / "sweep.csv")
    assert len(rows) == 2 * 2 * 2
    assert (ws / "out" / "detectors.json").exists()

    capsys.readouterr()
    assert main(["detect", "--rows", str(ws / "out" / "sweep.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"transitions", "degenerate", "rates"}
    assert len(report["degenerate"]) == len(list((ws / "out" / "profiles").glob("*.csv")))

    assert main(["compare", "--rows", str(ws / "out" / "sweep.csv"), "--tolerance", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kb_id,pairs,model1_mean_answers,model2_mean_answers,change_pct"

    # a detector parameter outside its range, or NaN, is an input error
    for flag, value in (
        ("--min-range", "1.5"), ("--min-range", "nan"), ("--jump-share", "0"), ("--jump-share", "nan"),
        ("--min-peak", "-3"), ("--root-share", "5"), ("--root-share", "-0.1"),
    ):
        assert main(["detect", "--rows", str(ws / "out" / "sweep.csv"), flag, value]) == 2
        captured = capsys.readouterr()
        name = flag[2:].replace("-", "_")
        assert captured.out == "" and captured.err.startswith(f"error: detector parameter {name} must be")
        assert captured.err.count("\n") == 1

    # a profile cell over the csv module's field limit, a repeated depth
    # (whose last count would win) and a negative depth or count are input
    # errors
    profile = sorted((ws / "out" / "profiles").glob("*.csv"))[0]
    for text in (
        "depth,count\n0," + " " * 140000 + "5\n",
        "depth,count\n0,5\n0,7\n",
        "depth,count\n1,5\n01,5\n",
        "depth,count\n-1,5\n",
        "depth,count\n0,-5\n",
        "depth,count\n0,1,2\n",
        "depth,count\n0\n",
        "depth,count\nx,5\n",
        "depth,n\n0,5\n",
    ):
        profile.write_text(text, encoding="utf-8")
        assert main(["detect", "--rows", str(ws / "out" / "sweep.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: not a depth profile CSV: {profile}") and err.count("\n") == 1, err[:200]
    profile.write_text("depth,count\n0,1\n", encoding="utf-8")

    # a boolean cell is true or false, nothing else
    sweep_csv = ws / "out" / "sweep.csv"
    lines = sweep_csv.read_text().splitlines()
    lines[1] = re.sub(r",(true|false),([^,]*)$", r",garbage,\2", lines[1])
    sweep_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in ("compare", "detect"):
        assert main([command, "--rows", str(sweep_csv)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {sweep_csv}, line 2, column threshold_hit: 'garbage' is not true or false\n"

    # a row of fewer or more fields than the header, a field over the csv
    # module's size limit, and another header
    for text, named in (
        (f"{lines[0]}\n{lines[2]}\nmodel1,2,0,1,kb0,10\n", f"{sweep_csv}, line 3: not 16 fields"),
        (f"{lines[0]}\n{lines[2]},extra\n", f"{sweep_csv}, line 2: not 16 fields"),
        (f"{lines[0]}\n{lines[2]}\nmodel1,{'2' * 200_000}\n", f"{sweep_csv}, line 3: field larger than field limit"),
        ("model,k_or_beta\nmodel1,2\n", f"unexpected sweep columns in {sweep_csv}"),
    ):
        sweep_csv.write_text(text, encoding="utf-8")
        for command in ("compare", "detect"):
            assert main([command, "--rows", str(sweep_csv)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {named}") and err.count("\n") == 1, err


def test_smaller_sweep_into_the_same_out_leaves_no_stale_profiles(workspace, capsys):
    # detect reads every profile beside sweep.csv, so a former, larger
    # sweep's profiles must not stay there
    ws, out = workspace, workspace / "out"
    for replicates in (3, 1):
        cfg = dict(BASE_SWEEP, model2_beta=[30], replicates=replicates)
        (ws / "sweep.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["sweep", "--config", str(ws / "sweep.json"), "--out", str(out)]) == 0
    rows = parse_rows(out / "sweep.csv")
    assert sorted(p.stem for p in (out / "profiles").glob("*.csv")) == sorted(r.cell_id() for r in rows)
    capsys.readouterr()
    assert main(["detect", "--rows", str(out / "sweep.csv")]) == 0
    assert len(json.loads(capsys.readouterr().out)["degenerate"]) == len(rows) == 2


def _sweep_outputs(outdir):
    """Every deterministic sweep output: sweep.csv without wall_time_s, the
    detectors, the comparison, the figures and the per-cell profiles."""
    files = {p.relative_to(outdir).as_posix(): p.read_text() for p in sorted(outdir.rglob("*.csv"))}
    files["sweep.csv"] = [ln.rsplit(",", 1)[0] for ln in files["sweep.csv"].splitlines()]
    files["detectors.json"] = (outdir / "detectors.json").read_text()
    return files


def test_parameter_spelling_does_not_change_the_sweep(workspace):
    ws = workspace
    outputs = []
    for beta in (10, 10.0):
        cfg = {
            "kb": "kb.kb",
            "templates": "templates.json",
            "model1_k": [2],
            "model2_beta": [beta, 30],
            "replicates": 2,
            "master_seed": 7,
        }
        (ws / "sweep.json").write_text(json.dumps(cfg), encoding="utf-8")
        out = ws / f"out_{beta!r}"
        assert main(["sweep", "--config", str(ws / "sweep.json"), "--out", str(out)]) == 0
        outputs.append(_sweep_outputs(out))
    assert any(name.startswith("profiles/") for name in outputs[0])
    assert outputs[0] == outputs[1]


BASE_SWEEP = {"kb": "kb.kb", "templates": "templates.json", "model1_k": [2], "replicates": 1}


@pytest.mark.parametrize(
    "key, value",
    [
        ("replicates", "2"),
        ("replicates", 0),
        ("snapshot_sizes", [5000.5]),
        ("threshold", 5),
        ("threshold", -0.1),
        ("depth_limit", -1),
        ("depth_bound", -1),
        ("compare_tolerance", -0.5),
        ("model1_k", [0]),
        ("model1_k", [2.5]),
        ("model2_beta", [0]),
        ("model2_beta", [150]),
        ("master_seed", "7"),
        ("snapshot_order", "random"),
        ("genlpreds", "yes"),
        ("continue_on_error", 1),
        ("snapshot_sizes", []),  # omit the key to sweep the whole KB
        ("model1_k", [3, 3]),  # a repeated cell
        ("model2_beta", [30, 30.0]),  # one canonical numeral, so one cell
        ("model2_beta", [12.5, 40, 12.5]),
    ],
)
def test_bad_sweep_config_is_input_error(workspace, capsys, key, value):
    ws = workspace
    (ws / "sweep.json").write_text(json.dumps(dict(BASE_SWEEP, **{key: value})), encoding="utf-8")
    capsys.readouterr()
    assert main(["sweep", "--config", str(ws / "sweep.json"), "--out", str(ws / "out")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (ws / "out").exists()


@pytest.mark.parametrize(
    "doc, named",
    [
        ([BASE_SWEEP], "sweep config must be a JSON object, got ["),
        ({k: v for k, v in BASE_SWEEP.items() if k != "templates"}, "sweep config: missing key 'templates'"),
        (dict(BASE_SWEEP, bogus=1), "sweep config: unknown key 'bogus'"),
    ],
    ids=["not-object", "missing", "unknown"],
)
def test_sweep_config_of_another_shape_is_input_error(workspace, capsys, doc, named):
    (workspace / "sweep.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["sweep", "--config", str(workspace / "sweep.json"), "--out", str(workspace / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "key, doc",
    [
        ("predicates", dict(SYNTH_CONFIG, predicates="48")),
        ("entities", dict(SYNTH_CONFIG, entities=40.5)),
        ("levels", dict(SYNTH_CONFIG, levels=True)),
        ("rule_skew", dict(SYNTH_CONFIG, rule_skew="1.1")),
        ("root_fact_weight", dict(SYNTH_CONFIG, root_fact_weight=True)),
        ("extra", dict(SYNTH_CONFIG, extra=1)),
        ("seed", {k: v for k, v in SYNTH_CONFIG.items() if k != "seed"}),
        (None, [SYNTH_CONFIG]),
    ],
    ids=["str-int", "float-int", "bool-int", "str-float", "bool-float", "unknown", "missing", "not-object"],
)
def test_bad_synth_config_is_input_error(tmp_path, capsys, key, doc):
    """A mistyped, unknown or missing key exits 2 naming the key; only an
    infeasible combination of well-typed keys exits 3."""
    (tmp_path / "synth.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    argv = ["synth", "--config", str(tmp_path / "synth.json")]
    out = ["--out-kb", str(tmp_path / "kb.kb"), "--out-templates", str(tmp_path / "t.json")]
    assert main(argv + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(key) in err if key else "JSON object" in err
    assert not (tmp_path / "kb.kb").exists() and not (tmp_path / "t.json").exists()


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"predicates": 0}, "predicates must be >= 1, got 0"),
        ({"rules": -1}, "rules and genls_depth must be >= 0"),
        ({"fact_skew": -1}, "skew exponents must be >= 0"),
        ({"root_fact_weight": -0.5}, "root_fact_weight must be >= 0"),
        ({"body_min": 3}, "need 1 <= body_min <= body_max"),
        ({"genls_depth": 3}, "genls_depth 3 needs more than 3 collections"),
        ({"root_predicates": 11}, "root_predicates exceeds predicates"),
        ({"predicates": 4}, "not enough predicates to populate every level"),
        ({"facts": 10_000}, "cannot place 10000 distinct facts"),
        ({"rules": 0, "levels": 1, "root_predicates": 10, "root_fact_weight": 0}, "all fact-density weights are zero"),
        (
            {"predicates": 2, "root_predicates": 1, "levels": 2, "rules": 0, "root_fact_weight": 0,
             "entities": 2, "collections": 1, "genls_depth": 0, "facts": 5},
            "fact sampling stalled",
        ),
    ],
)
def test_infeasible_synth_config_is_three(tmp_path, capsys, overrides, named):
    """A well-typed config the generator cannot satisfy exits 3 with a
    one-line error saying why."""
    (tmp_path / "synth.json").write_text(json.dumps(dict(SYNTH_CONFIG, **overrides)), encoding="utf-8")
    capsys.readouterr()
    argv = ["synth", "--config", str(tmp_path / "synth.json"), "--out-kb", str(tmp_path / "kb.kb")]
    assert main(argv + ["--out-templates", str(tmp_path / "t.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1, err


@pytest.mark.parametrize("tolerance", ["-0.5", "nan"])
def test_negative_compare_tolerance_is_input_error(workspace, capsys, tolerance):
    ws = workspace
    (ws / "sweep.json").write_text(json.dumps(BASE_SWEEP), encoding="utf-8")
    assert main(["sweep", "--config", str(ws / "sweep.json"), "--out", str(ws / "out")]) == 0
    capsys.readouterr()
    assert main(["compare", "--rows", str(ws / "out" / "sweep.csv"), "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tolerance" in captured.err


TEMPLATE = {"id": "t0", "predicate": "p", "bound_position": 1, "param_collection": "Thing", "open_position": 2}
OR_NODE = {"id": "o0", "pred": "p", "arity": 2, "mask": "bf", "depth": 0, "children": []}
GRAPH = {
    "format": "percolog-graph@1", "depth_bound": 10, "genlpreds": True, "roots": ["o0"],
    "or_nodes": [OR_NODE], "and_nodes": [], "clauses": {},
}
SPACE = {"format": "percolog-space@1", "or_nodes": ["o0"], "and_nodes": [], "axiom_ids": []}
AND_NODE = {"id": "a0", "clause": "r0", "parent": "o0", "children": ["o1"]}
AND_GRAPH = dict(  # o0 -a0-> o1, a graph the readers accept
    GRAPH,
    or_nodes=[dict(OR_NODE, children=["a0"]), dict(OR_NODE, id="o1", pred="q", depth=1)],
    and_nodes=[AND_NODE],
    clauses={"r0": "(<= (p ?x ?y) (q ?x ?y))"},
)
MALFORMED_ARGV = {
    "build-graph": ["build-graph", "--axioms", "kb.kb", "--templates", "bad.json", "--out", "out.json"],
    "sweep": ["sweep", "--config", "sweep.json", "--out", "out"],
    "sample": ["sample", "--graph", "bad.json", "--model", "1", "--k", "2", "--out", "out"],
    "alpha": ["alpha", "--graph", "graph.json", "--space", "bad.json", "--kb", "kb.kb", "--templates", "t.json"],
    "ask": ["ask", "--kb", "kb.kb", "--space", "bad.json", "--templates", "t.json"],
}


def test_the_malformed_graphs_base_is_accepted(tmp_path):
    (tmp_path / "graph.json").write_text(json.dumps(AND_GRAPH), encoding="utf-8")
    argv = ["sample", "--graph", str(tmp_path / "graph.json"), "--model", "1", "--k", "2", "--replicates", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "model1_k2_rep0.json").read_text())["and_nodes"] == ["a0"]


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("build-graph", [1], "template entry 0 must be a JSON object"),
        ("build-graph", {"a": 1}, "a templates file is a JSON list"),
        ("build-graph", [TEMPLATE, dict(TEMPLATE, bound_position="1")], "template entry 1: field 'bound_position'"),
        ("sweep", [dict(TEMPLATE, bound_position="1")], "template entry 0: field 'bound_position'"),
        ("build-graph", [dict(TEMPLATE, open_position=True)], "field 'open_position' must be an integer"),
        ("build-graph", [dict(TEMPLATE, predicate=7)], "field 'predicate' must be a string"),
        ("build-graph", [dict(TEMPLATE, extra="x")], "unknown field 'extra'"),
        ("build-graph", [{k: v for k, v in TEMPLATE.items() if k != "id"}], "missing field 'id'"),
        ("sample", [], "not a percolog graph file"),
        ("alpha", [], "not a percolog space file"),
        ("ask", [], "not a percolog space file"),
        ("build-graph", [dict(TEMPLATE, bound_position=3)], "must be 1 and 2 in either order, got 3 and 2"),
        ("sweep", [dict(TEMPLATE, open_position=1)], "must be 1 and 2 in either order, got 1 and 1"),
        ("ask", {"format": "percolog-space@1", "axiom_ids": ["zz"]}, "unknown rule ids: ['zz']"),
        ("alpha", dict(SPACE, or_nodes=5), "the space's 'or_nodes' must be a list of id strings"),
        ("alpha", dict(SPACE, and_nodes=["a9"]), "unknown AND members: ['a9']"),
        ("ask", dict(SPACE, axiom_ids="r0"), "the space's 'axiom_ids' must be a list of id strings"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, children=5)]), "the children of OR node o0 must be a list"),
        (
            "sample",
            dict(GRAPH, clauses={"r0": "(p a b)", "r1": "(<= (q ?x ?y) (p ?y ?x))"}),
            "graph clause 'r0' is not exactly one rule",
        ),
        ("sample", dict(GRAPH, clauses=[]), "the graph's 'clauses' must be an object"),
        ("sample", dict(GRAPH, or_nodes=5), "the graph's 'or_nodes' must be a list of objects"),
        ("sample", dict(GRAPH, and_nodes=["a0"]), "the graph's 'and_nodes' must be a list of objects"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, mask=5)]), "the mask of OR node o0 must be a string of 2"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, mask="bfb")]), "the mask of OR node o0 must be a string of 2"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, mask="bx")]), "the mask of OR node o0 must be a string of 2"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, arity="2")]), "the arity of OR node o0 must be an integer"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, depth=-1)]), "the depth of OR node o0 must be an integer >= 0"),
        ("sample", dict(GRAPH, depth_bound="x"), "the graph's 'depth_bound' must be an integer >= 0"),
        ("sample", dict(GRAPH, depth_bound=True), "the graph's 'depth_bound' must be an integer >= 0"),
        ("sample", dict(GRAPH, genlpreds=1), "the graph's 'genlpreds' must be true or false"),
        ("sample", dict(GRAPH, format="percolog-graph@2"), "not a percolog graph file (format='percolog-graph@2')"),
        ("sample", {k: v for k, v in GRAPH.items() if k != "depth_bound"}, "the graph's 'depth_bound' must be"),
        ("sample", dict(GRAPH, or_nodes=[{k: v for k, v in OR_NODE.items() if k != "depth"}]), "the depth of OR node"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, id=0)]), "the id of OR node entry 0 must be a string"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, pred=5)]), "the pred of OR node o0 must be a string"),
        ("sample", dict(GRAPH, roots=["o999"]), "the graph's roots refers to 'o999', which the graph lacks"),
        ("sample", dict(GRAPH, roots=["o0", "o0"]), "root o0 is listed twice"),
        ("sample", dict(GRAPH, or_nodes=[dict(OR_NODE, children=["a9"])]), "OR node o0 refers to 'a9'"),
        ("sample", dict(AND_GRAPH, and_nodes=[dict(AND_NODE, clause="r9999")]), "AND node a0 refers to 'r9999'"),
        ("sample", dict(AND_GRAPH, and_nodes=[dict(AND_NODE, clause=["r0"])]), "the clause of AND node a0 must be a"),
        ("sample", dict(AND_GRAPH, and_nodes=[dict(AND_NODE, parent=0)]), "the parent of AND node a0 must be a string"),
        ("sample", dict(AND_GRAPH, and_nodes=[dict(AND_NODE, children=["o999"])]), "AND node a0 refers to 'o999'"),
        ("sample", dict(AND_GRAPH, and_nodes=[dict(AND_NODE, children=["o0"])]), "the graph has a cycle through OR"),
        ("sample", dict(GRAPH, or_nodes=[OR_NODE, dict(OR_NODE, pred="zzz")]), "OR node o0 is listed twice"),
        ("sample", dict(AND_GRAPH, and_nodes=[AND_NODE, dict(AND_NODE, clause="r0")]), "AND node a0 is listed twice"),
        (
            "sample",
            dict(AND_GRAPH, and_nodes=[dict(AND_NODE, parent="o1")]),
            "OR node o0 lists AND nodes ['a0'], but [] name it as their parent",
        ),
        (
            "sample",
            dict(AND_GRAPH, or_nodes=[OR_NODE, AND_GRAPH["or_nodes"][1]]),
            "OR node o0 lists AND nodes [], but ['a0'] name it as their parent",
        ),
        (
            "sample",
            dict(AND_GRAPH, or_nodes=[dict(OR_NODE, children=["a0", "a0"]), AND_GRAPH["or_nodes"][1]]),
            "OR node o0 lists AND nodes ['a0', 'a0'], but ['a0'] name it as their parent",
        ),
        (
            "sample",
            dict(AND_GRAPH, or_nodes=[dict(n, depth=0) for n in AND_GRAPH["or_nodes"]]),
            "OR node o1 records depth 0, but its distance from the roots is 1",
        ),
        (
            "sample",
            dict(AND_GRAPH, or_nodes=[AND_GRAPH["or_nodes"][0], dict(AND_GRAPH["or_nodes"][1], depth=2)]),
            "OR node o1 records depth 2, but its distance from the roots is 1",
        ),
        (
            "sample",
            dict(AND_GRAPH, or_nodes=[*AND_GRAPH["or_nodes"], dict(OR_NODE, id="o2", depth=1)]),
            "OR node o2 is not reached from the graph's roots",
        ),
        ("alpha", {k: v for k, v in SPACE.items() if k != "or_nodes"}, "the space's 'or_nodes' must be a list"),
        ("ask", {k: v for k, v in SPACE.items() if k != "axiom_ids"}, "the space's 'axiom_ids' must be a list"),
        ("alpha", dict(SPACE, or_nodes=["o0", "o0"]), "the space's 'or_nodes' lists 'o0' twice"),
        (
            "alpha",
            dict(SPACE, axiom_ids=["r0"], node_count=999, avg_degree=7.5),
            "the space's 'axiom_ids' is ['r0'], but its members give []",
        ),
        ("alpha", dict(SPACE, node_count=999), "the space's 'node_count' is 999, but its members give 1"),
        ("alpha", dict(SPACE, avg_degree=7.5), "the space's 'avg_degree' is 7.5, but its members give 0.0"),
    ],
    ids=[
        "templates-entry-not-object", "templates-not-list", "string-position", "string-position-in-sweep",
        "bool-position", "int-predicate", "unknown-field", "missing-field", "graph-not-object", "space-not-object",
        "ask-space-not-object", "position-out-of-range", "positions-coincide", "ask-space-unknown-rule",
        "space-or-nodes-not-list", "space-unknown-and-node", "ask-space-ids-string", "graph-children-not-list",
        "graph-clause-not-a-rule", "graph-clauses-not-object", "graph-or-nodes-not-list", "graph-and-node-not-object",
        "graph-mask-not-string", "graph-mask-too-long", "graph-mask-bad-character", "graph-arity-string",
        "graph-depth-negative", "graph-depth-bound-string", "graph-depth-bound-bool", "graph-genlpreds-not-bool",
        "graph-other-format", "graph-no-depth-bound", "graph-or-node-no-depth", "graph-or-id-not-string",
        "graph-pred-not-string", "graph-unknown-root", "graph-root-twice", "graph-unknown-and-child", "graph-unknown-clause",
        "graph-clause-not-string", "graph-parent-not-string", "graph-unknown-or-child", "graph-cycle",
        "graph-or-id-twice", "graph-and-id-twice", "graph-and-parent-not-its-lister", "graph-and-node-unlisted",
        "graph-and-node-listed-twice", "graph-depths-all-zero", "graph-depth-off-by-one", "graph-or-node-unreached",
        "space-no-or-nodes", "ask-space-no-axiom-ids", "space-or-id-twice", "space-derived-fields-edited",
        "space-node-count-edited", "space-avg-degree-edited",
    ],
)
def test_malformed_input_file_is_input_error(tmp_path, monkeypatch, capsys, command, doc, named):
    """A templates, graph or space file of the wrong shape exits 2 with a
    one-line error naming what is wrong, not with a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kb.kb").write_text("(isa a Thing)\n(p a b)\n", encoding="utf-8")
    (tmp_path / "t.json").write_text(json.dumps([TEMPLATE]), encoding="utf-8")
    (tmp_path / "sweep.json").write_text(
        json.dumps({"kb": "kb.kb", "templates": "bad.json", "model1_k": [2], "replicates": 1}), encoding="utf-8"
    )
    assert main(["build-graph", "--axioms", "kb.kb", "--templates", "t.json", "--out", "graph.json"]) == 0
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(MALFORMED_ARGV[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["sample", "--graph", "x.json"]) == 1  # missing required args
        assert main(["nonsense"]) == 1

    def test_model_parameter_mismatch_is_usage(self, workspace):
        ws = workspace
        main(
            [
                "build-graph",
                "--axioms", str(ws / "kb.kb"),
                "--templates", str(ws / "templates.json"),
                "--out", str(ws / "graph.json"),
            ]
        )
        rc = main(
            [
                "sample",
                "--graph", str(ws / "graph.json"),
                "--model", "1",
                "--beta", "50",
                "--out", str(ws / "x"),
            ]
        )
        assert rc == 1
        argv = ["sample", "--graph", str(ws / "graph.json"), "--model", "2", "--k", "3", "--out", str(ws / "x")]
        assert main(argv) == 1

    def test_non_integer_ablation_size_is_usage(self, workspace, capsys):
        argv = ["ablate", "--kb", str(workspace / "kb.kb"), "--sizes", "600,x", "--out", str(workspace / "snaps")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --sizes must be comma-separated integers, got '600,x'\n"

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_text("(p ?x y)\n", encoding="utf-8")
        (tmp_path / "templates.json").write_text("[]", encoding="utf-8")
        rc = main(
            [
                "build-graph",
                "--axioms", str(bad),
                "--templates", str(tmp_path / "templates.json"),
                "--out", str(tmp_path / "g.json"),
            ]
        )
        assert rc == 2

    def test_missing_file_is_two(self, tmp_path):
        rc = main(
            [
                "ask",
                "--kb", str(tmp_path / "nope.kb"),
                "--templates", str(tmp_path / "nope.json"),
            ]
        )
        assert rc == 2

    def test_infeasible_synth_is_three(self, tmp_path):
        cfg = dict(SYNTH_CONFIG, levels=1)
        (tmp_path / "bad.json").write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(
            [
                "synth",
                "--config", str(tmp_path / "bad.json"),
                "--out-kb", str(tmp_path / "kb.kb"),
                "--out-templates", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 3

    def test_infeasible_sweep_is_three(self, tmp_path):
        (tmp_path / "kb.kb").write_text("(p a b)\n", encoding="utf-8")
        (tmp_path / "templates.json").write_text(
            json.dumps([{"id": "t0", "predicate": "p", "bound_position": 1,
                         "param_collection": "Nothing", "open_position": 2}]),
            encoding="utf-8",
        )
        cfg = {"kb": "kb.kb", "templates": "templates.json", "model1_k": [2]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["sweep", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_too_deep_ask_is_two(self, tmp_path, capsys):
        # depth 1,000 over the 40-node left-recursive chain passes Python's
        # recursion limit: a one-line error, not a traceback
        text = node_chain_text("(<= (anc ?x ?y) (par ?x ?y))", "(<= (anc ?x ?y) (anc ?x ?z) (par ?z ?y))")
        (tmp_path / "chain.kb").write_text(text, encoding="utf-8")
        (tmp_path / "templates.json").write_text(
            json.dumps([{"id": "t0", "predicate": "anc", "bound_position": 1,
                         "param_collection": "Node", "open_position": 2}]),
            encoding="utf-8",
        )
        argv = ["ask", "--kb", str(tmp_path / "chain.kb"), "--templates", str(tmp_path / "templates.json")]
        assert main(argv + ["--depth", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["answered"] == 39
        assert main(argv + ["--depth", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: depth limit 1000 is too deep for (anc N0 ?x)")
        assert captured.err.count("\n") == 1

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_module_entry_point(self):
        """`python -m percolog` runs the CLI from a checkout, without an install."""
        done = run_python("-m", "percolog", "--help")
        assert done.returncode == 0, done.stderr
        assert "sweep" in done.stdout
