import json
import logging
import math
import re

import pytest

from percolog import QueryTemplate, depth_profile, expand_templates, serialize_kb
from percolog.growth import SynthConfig, synth_kb
from percolog.engine import Evaluator
from percolog.metrics import answered_fraction
from percolog.sampling import cell_params, sample
from percolog.harness import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    InfeasibleExperimentError,
    SweepCellError,
    SweepRow,
    build_detectors,
    compare_models,
    detect_degenerate,
    detect_transition,
    figure_tables,
    format_table,
    load_experiment,
    load_templates,
    parse_rows,
    profile_to_csv,
    parse_profile_csv,
    run_sweep,
    save_templates,
    write_sweep_outputs,
)

from conftest import kb_of, node_chain_text, run_python


class TestExpandTemplates:
    def test_empty_collection_yields_nothing(self):
        kb = kb_of(("p", "a", "b"))
        t = QueryTemplate("t0", "p", 1, "Nothing", 2)
        assert len(expand_templates(kb, [t])) == 0

    def test_three_instances_three_queries(self):
        kb = kb_of(
            ("isa", "e1", "C"), ("isa", "e2", "C"), ("isa", "e3", "C"), ("p", "e1", "x")
        )
        t = QueryTemplate("t0", "p", 1, "C", 2)
        queries = expand_templates(kb, [t])
        assert len(queries) == 3
        assert {q.atom.args[0] for q in queries} == {"e1", "e2", "e3"}

    def test_bound_position_two(self):
        kb = kb_of(("isa", "e1", "C"), ("p", "x", "e1"))
        t = QueryTemplate("t0", "p", 2, "C", 1)
        (q,) = expand_templates(kb, [t])
        assert q.atom.args[1] == "e1"
        assert q.atom.args[0].name == "x"

    def test_duplicates_across_templates_dropped(self):
        kb = kb_of(("isa", "e1", "C"), ("p", "e1", "x"))
        ts = [QueryTemplate("t0", "p", 1, "C", 2), QueryTemplate("t1", "p", 1, "C", 2)]
        assert len(expand_templates(kb, ts)) == 1

    def test_ill_formed_candidates_dropped(self):
        # C is broader than the argIsa constraint D on position 1
        kb = kb_of(
            ("isa", "good", "D"),
            ("isa", "good", "C"),
            ("isa", "bad", "C"),
            ("argIsa", "p", "1", "D"),
            ("p", "good", "x"),
        )
        t = QueryTemplate("t0", "p", 1, "C", 2)
        queries = expand_templates(kb, [t])
        assert {q.atom.args[0] for q in queries} == {"good"}

    def test_arity_mismatch_rejected(self):
        kb = kb_of(("tri", "a", "b", "c"), ("isa", "e", "C"))
        with pytest.raises(ValueError):
            expand_templates(kb, [QueryTemplate("t0", "tri", 1, "C", 2)])

    def test_template_positions_validated(self):
        with pytest.raises(ValueError):
            QueryTemplate("t0", "p", 1, "C", 1)

    def test_save_load_round_trip(self, tmp_path):
        ts = [QueryTemplate("t0", "p", 1, "C", 2), QueryTemplate("t1", "q", 2, "D", 1)]
        path = tmp_path / "templates.json"
        save_templates(ts, path)
        assert load_templates(path) == ts


class TestDetectTransition:
    def test_sharp_jump_detected(self):
        points = [(0.1, 0.01), (0.2, 0.02), (0.3, 0.55), (0.4, 0.58)]
        report = detect_transition(points)
        assert report.kind == "transition"
        assert report.evidence["jump_from_fraction"] == 0.02
        assert report.evidence["jump_to_fraction"] == 0.55

    def test_linear_ramp_not_detected(self):
        points = [(i / 10, 0.06 * i) for i in range(11)]
        report = detect_transition(points)
        assert report.kind == "none"
        assert report.evidence is None

    def test_flat_zero_not_detected(self):
        report = detect_transition([(0.1, 0.0), (0.2, 0.0), (0.3, 0.0)])
        assert report.kind == "none"

    def test_rule_arithmetic_on_logistic_and_ramp(self):
        # direct evaluation of the R/J rule on both shapes; the logistic is
        # centered between grid points so its jump lands in a single step
        logistic = [(x / 10, 0.6 / (1 + math.exp(-40 * (x / 10 - 0.45)))) for x in range(11)]
        fr = [f for _, f in logistic]
        r = max(fr) - min(fr)
        j = max(b - a for a, b in zip(fr, fr[1:]))
        assert r >= 0.2 and j >= 0.5 * r  # the fixture really is jump-shaped
        assert detect_transition(logistic).kind == "transition"
        ramp = [(x / 10, x * r / 10) for x in range(11)]
        assert detect_transition(ramp).kind == "none"

    def test_requires_three_sorted_points(self):
        with pytest.raises(ValueError):
            detect_transition([(0.1, 0.0), (0.2, 1.0)])
        with pytest.raises(ValueError):
            detect_transition([(0.3, 0.0), (0.2, 0.5), (0.4, 1.0)])


class TestDetectDegenerate:
    def test_peak_then_collapse_flagged(self):
        report = detect_degenerate({5: 120_000, 3: 0, 0: 0})
        assert report.kind == "degenerate"
        assert report.evidence == {"peak_depth": 5, "peak_count": 120_000, "root_count": 0}

    def test_healthy_root_share(self):
        report = detect_degenerate({2: 27_000, 0: 10_000})
        assert report.kind == "none"

    def test_small_peak_ignored(self):
        assert detect_degenerate({0: 5}).kind == "none"

    def test_missing_root_depth_counts_as_zero(self):
        assert detect_degenerate({4: 500}).kind == "degenerate"

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            detect_degenerate({})


class TestCompareModels:
    def _row(self, model, value, kb_id, degree, answers, rep=0):
        return SweepRow(
            model=model, k_or_beta=value, replicate=rep, seed=0, kb_id=kb_id,
            kb_facts=100, axiom_count=5, or_nodes=10, avg_degree=degree,
            alpha=0.1, q_count=10, answered=5, answered_fraction=0.5,
            total_answers=answers, threshold_hit=True, wall_time_s=0.0,
        )

    def test_identical_rows_zero_change(self):
        rows = [
            self._row("model1", 2, "kb0", 1.5, 100),
            self._row("model2", 30.0, "kb0", 1.5, 100),
        ]
        (rec,) = compare_models(rows, 0.1)
        assert rec["change_pct"] == 0.0
        assert rec["pairs"] == 1

    def test_percent_change_arithmetic(self):
        rows = [
            self._row("model1", 2, "kb0", 1.5, 100),
            self._row("model2", 30.0, "kb0", 1.5, 151.5),
        ]
        (rec,) = compare_models(rows, 0.1)
        assert rec["change_pct"] == pytest.approx(51.5)

    def test_disjoint_degrees_give_empty_table_with_warning(self, caplog):
        rows = [
            self._row("model1", 2, "kb0", 1.0, 100),
            self._row("model2", 30.0, "kb0", 3.0, 100),
        ]
        with caplog.at_level(logging.WARNING, logger="percolog.harness"):
            table = compare_models(rows, 0.1)
        assert table == []
        assert any("no degree-matched pairs" in r.message for r in caplog.records)

    def test_every_sample_in_at_most_one_pair(self):
        rows = [
            self._row("model1", 2, "kb0", 1.5, 10, rep=0),
            self._row("model1", 2, "kb0", 1.5, 30, rep=1),
            self._row("model2", 30.0, "kb0", 1.5, 20, rep=0),
        ]
        (rec,) = compare_models(rows, 0.1)
        assert rec["pairs"] == 1


class TestEmit:
    def _rows(self, n):
        return [
            SweepRow(
                model="model1", k_or_beta=2, replicate=i, seed=i * 7, kb_id="kb0",
                kb_facts=10, axiom_count=3, or_nodes=4, avg_degree=0.5,
                alpha=0.125, q_count=4, answered=1, answered_fraction=0.25,
                total_answers=2, threshold_hit=True, wall_time_s=0.001,
            )
            for i in range(n)
        ]

    def test_zero_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, [], SWEEP_COLUMNS)
        assert path.read_text() == ",".join(SWEEP_COLUMNS) + "\n"

    def test_one_row_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(path, self._rows(1))
        lines = path.read_text().splitlines()
        assert len(lines) == 2

    def test_lf_endings_and_decimal_dot(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, self._rows(2))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.25" in raw

    def test_round_trip(self, tmp_path):
        rows = self._rows(3)
        path = tmp_path / "rows.csv"
        write_csv(path, rows)
        parsed = parse_rows(path)
        assert parsed == rows
        again = tmp_path / "again.csv"
        write_csv(again, parsed)
        assert again.read_text() == path.read_text()

    def test_error_row_columns_empty(self, tmp_path):
        row = SweepRow(model="model1", k_or_beta=2, replicate=0, seed=1, kb_id="kb0", kb_facts=10)
        path = tmp_path / "err.csv"
        write_csv(path, [row])
        line = path.read_text().splitlines()[1]
        assert line == "model1,2,0,1,kb0,10,,,,,,,,,,"
        (parsed,) = parse_rows(path)
        assert parsed.is_error and parsed.alpha is None

    def test_profile_csv_round_trip(self, tmp_path):
        profile = {0: 0, 1: 225, 4: 60}
        text = profile_to_csv(profile)
        assert text.splitlines()[0] == "depth,count"
        path = tmp_path / "cell.csv"
        path.write_text(text, encoding="utf-8")
        assert parse_profile_csv(path) == profile

    def test_profile_csv_field_over_the_csv_limit_is_value_error(self, tmp_path):
        # the csv module refuses a field over 131,072 characters with csv.Error
        path = tmp_path / "cell.csv"
        path.write_text("depth,count\n0," + " " * 140000 + "5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a depth profile CSV"):
            parse_profile_csv(path)

    @pytest.mark.parametrize("row", ["0,1,2", "0,5 5"])
    def test_bad_profile_row_names_the_file_and_line(self, tmp_path, row):
        path = tmp_path / "cell.csv"
        path.write_text(f"depth,count\n\n1,4\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            parse_profile_csv(path)
        assert str(e.value) == f"not a depth profile CSV: {path}: line 4 {row!r} is not two integers >= 0 or repeats a depth"

    @pytest.mark.parametrize("cell", ["garbage", "True", "1", "false "])
    def test_bool_cell_other_than_true_or_false_is_refused(self, tmp_path, cell):
        path = tmp_path / "rows.csv"
        write_csv(path, self._rows(2))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",true,", f",{cell},")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 3, column threshold_hit: {re.escape(repr(cell))} is not true or false"):
            parse_rows(path)

    def test_false_cell_parses(self, tmp_path):
        rows = self._rows(1)
        rows[0].threshold_hit = False
        path = tmp_path / "rows.csv"
        write_csv(path, rows)
        assert parse_rows(path) == rows


def write_csv(path, rows, columns=None):
    path.write_text(format_table(rows, columns), encoding="utf-8")


def write_experiment(tmp_path, *, facts=120, entities=24, seed=0):
    cfg = SynthConfig(
        predicates=10, entities=entities, collections=3, genls_depth=1, rules=14,
        body_min=1, body_max=2, rule_skew=1.1, facts=facts, fact_skew=0.7,
        levels=3, root_predicates=3, seed=seed,
    )
    kb, axioms, templates = synth_kb(cfg)
    kb_path = tmp_path / "kb.kb"
    kb_path.write_text(serialize_kb(kb, axioms), encoding="utf-8")
    t_path = tmp_path / "templates.json"
    save_templates(templates, t_path)
    return kb, axioms, templates


def count_solves(monkeypatch) -> list:
    """The goals every Evaluator backchains from now on, one entry per
    ``_solve`` call."""
    solved = []
    solve = Evaluator._solve

    def spy(self, canon, depth):
        solved.append(canon)
        return solve(self, canon, depth)

    monkeypatch.setattr(Evaluator, "_solve", spy)
    return solved


class TestRunSweep:
    def test_row_count_arithmetic_k_grid(self, tmp_path):
        kb, _, _ = write_experiment(tmp_path)
        hierarchy = kb.fact_count - 120
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            snapshot_sizes=(hierarchy + 40, hierarchy + 80, kb.fact_count),
            model1_k=tuple(range(2, 8)),
            replicates=7,
            master_seed=5,
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 3 * 6 * 7
        assert all(not r.is_error for r in result.rows)

    def test_row_count_beta_grid(self, tmp_path):
        write_experiment(tmp_path)
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            model2_beta=(10, 15, 20, 30, 40, 50),
            replicates=7,
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 42

    def test_determinism_modulo_wall_time(self, tmp_path):
        write_experiment(tmp_path)
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2, 3),
            model2_beta=(30,),
            replicates=2,
            master_seed=9,
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(out_a, run_sweep(cfg).rows)
        write_csv(out_b, run_sweep(cfg).rows)
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
        assert strip(out_a) == strip(out_b)

    def test_threshold_flags_match_fractions(self, tmp_path):
        write_experiment(tmp_path)
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2, 4),
            replicates=3,
            threshold=0.2,
        )
        for row in run_sweep(cfg).rows:
            assert row.threshold_hit == (row.answered_fraction >= 0.2)

    def test_empty_queries_is_infeasible(self, tmp_path):
        (tmp_path / "kb.kb").write_text("(p a b)\n", encoding="utf-8")
        save_templates([QueryTemplate("t0", "p", 1, "EmptyCollection", 2)], tmp_path / "templates.json")
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2,),
        )
        with pytest.raises(InfeasibleExperimentError):
            run_sweep(cfg)

    def test_no_parameters_is_infeasible(self, tmp_path):
        write_experiment(tmp_path)
        cfg = ExperimentConfig(kb=str(tmp_path / "kb.kb"), templates=str(tmp_path / "templates.json"))
        with pytest.raises(InfeasibleExperimentError):
            run_sweep(cfg)

    def test_cells_equal_their_evaluation_alone(self, tmp_path, caplog, monkeypatch):
        # the snapshot cache shares work between a snapshot's cells only:
        # every row and profile equals its cell's fresh, unshared evaluation,
        # and the sweep logs each snapshot's store size and relation hits;
        # the layered family has no recursion, so no sweep query backchains
        kb, _, _ = write_experiment(tmp_path)
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            snapshot_sizes=(kb.fact_count - 60, kb.fact_count),
            model1_k=(2, 3),
            model2_beta=(40,),
            replicates=3,
            master_seed=5,
        )
        solved = count_solves(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="percolog.harness"):
            result = run_sweep(cfg)
        assert solved == []
        monkeypatch.undo()
        logs = [r for r in caplog.records if "cached rule applications" in r.getMessage()]
        assert [r.levelno for r in logs] == [logging.DEBUG] * 2
        hits = [re.search(r", (\d+) relation hits, ", r.getMessage()) for r in logs]
        assert all(hits) and sum(int(m.group(1)) for m in hits) > 0
        exp = load_experiment(cfg)
        snapshots = dict(exp.snapshots)
        assert len(snapshots) == 2
        assert len({r.total_answers for r in result.rows}) > 1
        for row in result.rows:
            kb_snap = snapshots[row.kb_id]
            space = sample(exp.graph, cell_params(row.model, row.k_or_beta, row.replicate, cfg.master_seed, row.kb_id))
            qa = answered_fraction(space, kb_snap, exp.queries, cfg.depth_limit)
            assert (row.answered, row.total_answers) == (qa.answered, qa.total_answers), row.cell_id()
            assert result.profiles[row.cell_id()] == depth_profile(space, kb_snap), row.cell_id()

    def test_outputs_written(self, tmp_path):
        write_experiment(tmp_path)
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2,),
            model2_beta=(40,),
            replicates=3,
        )
        result = run_sweep(cfg)
        outdir = tmp_path / "out"
        write_sweep_outputs(result, outdir)
        assert (outdir / "sweep.csv").exists()
        assert (outdir / "detectors.json").exists()
        assert (outdir / "comparison.csv").exists()
        assert (outdir / "figure_model1.csv").exists()
        assert (outdir / "figure_model2.csv").exists()
        assert len(list((outdir / "profiles").glob("*.csv"))) == len(result.profiles)
        assert parse_rows(outdir / "sweep.csv") == result.rows

    def test_failing_cell_aborts_naming_the_cell(self, tmp_path, monkeypatch):
        write_experiment(tmp_path)
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2,),
            replicates=1,
        )
        from percolog import harness as harness_mod

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(harness_mod.metrics, "alpha", boom)
        with pytest.raises(SweepCellError) as err:
            run_sweep(cfg)
        assert "full_model1_k2_rep0" in str(err.value)

    def test_too_deep_a_cell_aborts_naming_the_cell(self, tmp_path):
        # the retained rule meets the open goal (anc ?w ?v) once per unit of
        # depth, so depth limit 1,000 passes Python's recursion limit
        text = node_chain_text("(<= (anc ?x ?y) (par ?x ?y))", "(<= (anc ?x ?y) (par ?x ?y) (anc ?w ?v))")
        (tmp_path / "chain.kb").write_text(text, encoding="utf-8")
        save_templates([QueryTemplate("t0", "anc", 1, "Node", 2)], tmp_path / "templates.json")
        cfg = ExperimentConfig(
            kb=str(tmp_path / "chain.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2,),
            replicates=1,
            depth_limit=1000,
        )
        with pytest.raises(SweepCellError, match="cell full_model1_k2_rep0 failed: depth limit 1000"):
            run_sweep(cfg)

    def test_right_recursive_cells_answer_at_depth_400(self, tmp_path, monkeypatch):
        # the open goal (anc ?w ?v) keeps the right-recursive anc rule in the
        # graph; its recursion ends with the chain, so depth limit 400
        # answers, as without a shared cache: (reach Ni ?x) reaches the
        # 39 - i nodes after Ni
        text = node_chain_text(
            "(<= (reach ?x ?y) (par ?x ?y) (anc ?w ?v))",
            "(<= (reach ?x ?y) (par ?x ?z) (anc ?z ?y))",
            "(<= (anc ?x ?y) (par ?x ?y))",
            "(<= (anc ?x ?y) (par ?x ?z) (anc ?z ?y))",
        )
        (tmp_path / "chain.kb").write_text(text, encoding="utf-8")
        save_templates([QueryTemplate("t0", "reach", 1, "Node", 2)], tmp_path / "templates.json")
        cfg = ExperimentConfig(
            kb=str(tmp_path / "chain.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2,),
            replicates=2,
            depth_limit=400,
        )
        solved = count_solves(monkeypatch)
        assert [r.total_answers for r in run_sweep(cfg).rows] == [39 * 40 // 2] * 2
        assert solved  # the recursive cone backchains

    def test_continue_on_error_records_error_rows(self, tmp_path, monkeypatch):
        write_experiment(tmp_path)
        cfg = ExperimentConfig(
            kb=str(tmp_path / "kb.kb"),
            templates=str(tmp_path / "templates.json"),
            model1_k=(2,),
            replicates=2,
            continue_on_error=True,
        )
        from percolog import harness as harness_mod

        monkeypatch.setattr(harness_mod.metrics, "alpha", lambda *a, **k: 1 / 0)
        result = run_sweep(cfg)
        assert len(result.rows) == 2
        assert all(r.is_error for r in result.rows)
        assert result.profiles == {}

    def test_config_from_json_resolves_paths(self, tmp_path):
        write_experiment(tmp_path)
        doc = {
            "kb": "kb.kb",
            "templates": "templates.json",
            "model1_k": [2],
            "replicates": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = ExperimentConfig.from_json(cfg_path)
        assert cfg.kb == str((tmp_path / "kb.kb").resolve())
        result = run_sweep(cfg)
        assert len(result.rows) == 1

    @pytest.mark.parametrize(
        "key, override",
        [("replicates", {"replicates": 0}), ("model1_k", {"model1_k": (0,), "continue_on_error": True})],
    )
    def test_python_built_config_is_checked(self, tmp_path, key, override):
        # a config built in Python gets the checks a loaded one gets, before any sweep runs
        write_experiment(tmp_path)
        base = {"kb": str(tmp_path / "kb.kb"), "templates": str(tmp_path / "templates.json"), "model1_k": (2,)}
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            ExperimentConfig(**dict(base, **override))

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kb": "x", "templates": "y", "bogus": 1}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(cfg_path)


def test_sweep_outputs_ignore_hash_seed(tmp_path):
    """The engines iterate sets of symbol strings, whose order follows
    PYTHONHASHSEED; the deterministic sweep outputs must not."""
    write_experiment(tmp_path)
    doc = {"kb": "kb.kb", "templates": "templates.json", "model1_k": [2, 3], "model2_beta": [30], "replicates": 2}
    (tmp_path / "sweep.json").write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        done = run_python("-m", "percolog.cli", "sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(out), PYTHONHASHSEED=hash_seed)
        assert done.returncode == 0, done.stderr
        files = {p.relative_to(out).as_posix(): p.read_text() for p in sorted(out.rglob("*.csv"))}
        files["sweep.csv"] = [ln.rsplit(",", 1)[0] for ln in files["sweep.csv"].splitlines()]  # minus wall_time_s
        files["detectors.json"] = (out / "detectors.json").read_text()
        outputs.append(files)
    assert any(name.startswith("profiles/") for name in outputs[0])
    assert outputs[0] == outputs[1]


class TestBuildDetectors:
    def _row(self, model, value, alpha, fraction):
        return SweepRow(
            model=model, k_or_beta=value, replicate=0, seed=0, kb_id="kb0",
            kb_facts=10, axiom_count=1, or_nodes=2, avg_degree=1.0, alpha=alpha,
            q_count=4, answered=2, answered_fraction=fraction, total_answers=2,
            threshold_hit=True, wall_time_s=0.0,
        )

    def test_groups_and_rates(self):
        rows = [self._row("model1", 2, a, f) for a, f in [(0.1, 0.0), (0.2, 0.02), (0.3, 0.5), (0.4, 0.52)]]
        rows += [self._row("model2", 30.0, a, f) for a, f in [(0.1, 0.2), (0.2, 0.3), (0.3, 0.38)]]
        profiles = {"cellA": {3: 500, 0: 0}, "cellB": {2: 50, 0: 40}}
        report = build_detectors(rows, profiles)
        kinds = {(t["model"], t["k_or_beta"]): t["kind"] for t in report["transitions"]}
        assert kinds[("model1", 2)] == "transition"
        assert kinds[("model2", 30.0)] == "none"
        deg = {d["cell"]: d["kind"] for d in report["degenerate"]}
        assert deg == {"cellA": "degenerate", "cellB": "none"}
        assert report["rates"]["transition_rate"] == 0.5
        assert report["rates"]["degenerate_rate"] == 0.5

    def test_small_groups_unflagged(self):
        rows = [self._row("model1", 2, 0.1, 0.0), self._row("model1", 2, 0.2, 0.9)]
        report = build_detectors(rows, {})
        assert report["transitions"][0]["kind"] == "none"


class TestFigureTables:
    def test_aggregates_per_kb_and_parameter(self):
        rows = []
        for kb_id in ("kb0", "kb1"):
            for rep, frac in enumerate((0.2, 0.4)):
                rows.append(
                    SweepRow(
                        model="model1", k_or_beta=3, replicate=rep, seed=0, kb_id=kb_id,
                        kb_facts=10, axiom_count=1, or_nodes=2, avg_degree=1.0,
                        alpha=0.1 * (rep + 1), q_count=5, answered=2,
                        answered_fraction=frac, total_answers=4, threshold_hit=frac >= 0.2,
                        wall_time_s=0.0,
                    )
                )
        tables = figure_tables(rows)
        assert len(tables["model1"]) == 2
        rec = tables["model1"][0]
        assert rec["kb_id"] == "kb0"
        assert rec["mean_answered_fraction"] == pytest.approx(0.3)
        assert rec["threshold_hits"] == 2
        assert tables["model2"] == []
