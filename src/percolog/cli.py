"""Command-line front end.

Exit codes: 0 ok, 1 usage, 2 input/parse error, 3 infeasible experiment.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import harness, metrics, sampling
from .engine import Evaluator
from .graph import AndOrGraph, SearchSpace, _field, _read_doc, build_graph
from .growth import InfeasibleConfigError, SynthConfig, ablate_grow, synth_kb
from .harness import (
    ExperimentConfig,
    InfeasibleExperimentError,
    SweepCellError,
    build_detectors,
    compare_models,
    expand_templates,
    load_templates,
    parse_profile_csv,
    parse_rows,
    run_sweep,
    save_templates,
    write_sweep_outputs,
)
from .kb import KbError, parse_kb, serialize_kb

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percolog",
        description="Simulate the percolation of Horn-clause inference over sampled search spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic KB, axioms and templates")
    p.add_argument("--config", required=True)
    p.add_argument("--out-kb", required=True)
    p.add_argument("--out-templates", required=True)

    p = sub.add_parser("build-graph", help="build the AND/OR query graph from an axiom file")
    p.add_argument("--axioms", required=True)
    p.add_argument("--templates", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--edges", help="also write the textual edge-list export here")
    p.add_argument("--no-genlpreds", action="store_true")

    p = sub.add_parser("sample", help="sample replicated search spaces from a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", choices=("1", "2"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--replicates", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("alpha", help="compute the alpha report for a sampled space")
    p.add_argument("--graph", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--templates", required=True)

    p = sub.add_parser("ask", help="answer the expanded template queries")
    p.add_argument("--kb", required=True)
    p.add_argument("--space", help="restrict rules to a sampled space's retained axioms")
    p.add_argument("--templates", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--no-genlpreds", action="store_true")

    p = sub.add_parser("ablate", help="write nested inverse-ablation KB snapshots")
    p.add_argument("--kb", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated increasing fact counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=("uniform", "stratified"), default="uniform")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="run a full experiment sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("detect", help="run detectors over an emitted sweep CSV")
    p.add_argument("--rows", required=True)
    p.add_argument("--min-range", type=float, default=harness.MIN_RANGE)
    p.add_argument("--jump-share", type=float, default=harness.JUMP_SHARE)
    p.add_argument("--min-peak", type=int, default=harness.MIN_PEAK)
    p.add_argument("--root-share", type=float, default=harness.ROOT_SHARE)

    p = sub.add_parser("compare", help="matched-degree model comparison over a sweep CSV")
    p.add_argument("--rows", required=True)
    p.add_argument("--tolerance", type=float, default=0.1)
    return parser


def _load_graph(path: str) -> AndOrGraph:
    return AndOrGraph.from_json(Path(path).read_text(encoding="utf-8"))


def _cmd_synth(args) -> int:
    cfg = SynthConfig.from_json(args.config)
    kb, axioms, templates = synth_kb(cfg)
    Path(args.out_kb).write_text(serialize_kb(kb, axioms), encoding="utf-8")
    save_templates(templates, args.out_templates)
    print(f"wrote {kb.fact_count} facts, {len(axioms)} rules, {len(templates)} templates")
    return EXIT_OK


def _cmd_build_graph(args) -> int:
    kb, axioms = parse_kb(Path(args.axioms).read_text(encoding="utf-8"))
    templates = load_templates(args.templates)
    graph = build_graph(
        axioms,
        harness.root_schemas(templates),
        args.depth,
        kb=kb,
        genlpreds_mode=not args.no_genlpreds,
    )
    Path(args.out).write_text(graph.to_json() + "\n", encoding="utf-8")
    if args.edges:
        Path(args.edges).write_text(graph.edge_list(), encoding="utf-8")
    print(f"graph: {graph.or_count} OR nodes, {len(graph.and_nodes)} AND nodes, depth bound {graph.depth_bound}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = f"model{args.model}"
    if model == "model1":
        if args.k is None or args.beta is not None:
            raise UsageError("model 1 takes --k (and no --beta)")
        value: float = args.k
    else:
        if args.beta is None or args.k is not None:
            raise UsageError("model 2 takes --beta (and no --k)")
        value = args.beta
    if args.replicates < 1:
        raise ValueError("replicates must be >= 1")
    graph = _load_graph(args.graph)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for rep in range(args.replicates):
        space = sampling.sample(graph, sampling.cell_params(model, value, rep, args.seed))
        path = outdir / f"{sampling.param_tag(model, value)}_rep{rep}.json"
        path.write_text(space.to_json() + "\n", encoding="utf-8")
        print(f"{path.name}: {space.node_count} OR nodes, {len(space.retained_axiom_ids())} axioms")
    return EXIT_OK


def _cmd_alpha(args) -> int:
    graph = _load_graph(args.graph)
    space = SearchSpace.from_json(Path(args.space).read_text(encoding="utf-8"), graph)
    kb, _ = parse_kb(Path(args.kb).read_text(encoding="utf-8"))
    queries = expand_templates(kb, load_templates(args.templates))
    report = metrics.alpha(space, queries, kb)
    print(report.to_json())
    return EXIT_OK


def _cmd_ask(args) -> int:
    kb, axioms = parse_kb(Path(args.kb).read_text(encoding="utf-8"))
    if args.space:
        doc = _read_doc(Path(args.space).read_text(encoding="utf-8"), "space")
        axioms = axioms.restrict(_field(doc.get("axiom_ids"), "ids", "the space's 'axiom_ids'"))
    queries = expand_templates(kb, load_templates(args.templates))
    ev = Evaluator(kb, axioms, genlpreds_mode=not args.no_genlpreds)
    results = []
    answered = 0
    for q in queries:
        bindings = ev.ask(q, args.depth)
        if bindings:
            answered += 1
        results.append(
            {
                "query": q.text,
                "template": q.template_id,
                "bindings": sorted(bindings),
            }
        )
    doc = {
        "attempted": len(queries),
        "answered": answered,
        "fraction": answered / len(queries) if len(queries) else 0.0,
        "results": results,
    }
    print(json.dumps(doc, indent=1))
    return EXIT_OK


def _cmd_ablate(args) -> int:
    kb, axioms = parse_kb(Path(args.kb).read_text(encoding="utf-8"))
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    snapshots = ablate_grow(kb, sizes, random.Random(args.seed), args.order)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for sid, snapshot in snapshots:
        path = outdir / f"{sid}.kb"
        path.write_text(serialize_kb(snapshot, axioms), encoding="utf-8")
        print(f"{path.name}: {snapshot.fact_count} facts")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    result = run_sweep(cfg)
    write_sweep_outputs(result, args.out)
    ok_rows = sum(1 for r in result.rows if not r.is_error)
    print(f"sweep: {len(result.rows)} rows ({ok_rows} ok) -> {args.out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    rows = parse_rows(args.rows)
    profiles = {}
    profile_dir = Path(args.rows).parent / "profiles"
    if profile_dir.is_dir():
        for path in sorted(profile_dir.glob("*.csv")):
            profiles[path.stem] = parse_profile_csv(path)
    report = build_detectors(
        rows,
        profiles,
        min_range=args.min_range,
        jump_share=args.jump_share,
        min_peak=args.min_peak,
        root_share=args.root_share,
    )
    print(json.dumps(report, indent=1))
    return EXIT_OK


def _cmd_compare(args) -> int:
    rows = parse_rows(args.rows)
    table = compare_models(rows, args.tolerance)
    print(harness.format_table(table, harness.COMPARISON_COLUMNS), end="")
    return EXIT_OK


class UsageError(Exception):
    pass


_HANDLERS = {
    "synth": _cmd_synth,
    "build-graph": _cmd_build_graph,
    "sample": _cmd_sample,
    "alpha": _cmd_alpha,
    "ask": _cmd_ask,
    "ablate": _cmd_ablate,
    "sweep": _cmd_sweep,
    "detect": _cmd_detect,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleConfigError, InfeasibleExperimentError, SweepCellError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (KbError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
