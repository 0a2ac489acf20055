"""Experiment harness: template expansion, parameter sweeps across models and
KB snapshots, transition/degeneracy detectors, matched model comparison, and
CSV emission.

A sweep cell is one (kb snapshot, model, parameter, replicate) combination;
its RNG stream is derived from the master seed and the cell coordinates, so
results are independent of execution order.  Every emitted table has a stable
column order, LF line endings, and '.' decimals.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import random
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence, get_args, get_type_hints

from . import metrics
from .engine import Query, QueryTemplate, SnapshotCache, depth_profile
from .graph import AndOrGraph, GoalSchema, average_degree, build_graph
from .growth import ablate_grow
from .kb import Atom, KnowledgeBase, Variable, check_record, has_type, parse_kb
from .sampling import _numeral, cell_params, greedy_degree_pairs, param_tag, sample

log = logging.getLogger(__name__)


class InfeasibleExperimentError(Exception):
    """The experiment cannot produce a meaningful sweep (e.g. no queries)."""


class SweepCellError(Exception):
    """A sweep cell failed; the message identifies the cell."""


# ---------------------------------------------------------------------------
# Template expansion
# ---------------------------------------------------------------------------


def root_schemas(templates: Sequence[QueryTemplate]) -> list[GoalSchema]:
    """Deduplicated goal schemas for the graph roots, in template order: each
    template's binary predicate with its bound position bound."""
    masks = {1: (True, False), 2: (False, True)}
    return list(dict.fromkeys(GoalSchema(t.predicate, 2, masks[t.bound_position]) for t in templates))


def expand_templates(kb: KnowledgeBase, templates: Sequence[QueryTemplate]) -> tuple[Query, ...]:
    """Bind each template's parameter to every instance of its collection.

    Ill-formed candidates (a bound entity violating an argIsa constraint) are
    dropped, and duplicate queries across templates are emitted once.
    """
    queries: list[Query] = []
    seen: set[Atom] = set()
    for t in templates:
        known = kb.arity(t.predicate)
        if known is not None and known != 2:
            raise ValueError(f"template {t.id}: predicate {t.predicate!r} has arity {known}, need 2")
        for entity in sorted(kb.instances_of(t.param_collection)):
            args: list = [None, None]
            args[t.bound_position - 1] = entity
            args[t.open_position - 1] = Variable("x")
            atom = Atom(t.predicate, tuple(args))
            if atom in seen:
                continue
            if not kb.well_formed(atom):
                continue
            seen.add(atom)
            queries.append(Query(atom, t.id))
    return tuple(queries)


def load_templates(path: "str | Path") -> list[QueryTemplate]:
    """Read a templates file: a JSON list of objects with exactly the
    QueryTemplate fields, the positions integers and the rest strings.  A
    bad document or entry raises ValueError naming the entry and the field."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, list):
        raise ValueError("a templates file is a JSON list of template objects")
    entries = (check_record(QueryTemplate, t, f"template entry {i}", "field") for i, t in enumerate(doc))
    return [QueryTemplate(**t) for t in entries]


def save_templates(templates: Sequence[QueryTemplate], path: "str | Path") -> None:
    doc = [asdict(t) for t in templates]
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Sweep configuration and rows
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    kb: str
    templates: str
    snapshot_sizes: Optional[tuple[int, ...]] = None
    snapshot_seed: int = 0
    snapshot_order: str = "uniform"
    model1_k: tuple[int, ...] = ()
    model2_beta: tuple[float, ...] = ()
    replicates: int = 7
    master_seed: int = 0
    depth_bound: int = 10
    depth_limit: int = 10
    genlpreds: bool = True
    threshold: float = 0.2
    compare_tolerance: float = 0.1
    continue_on_error: bool = False

    def __post_init__(self) -> None:
        """Check every key's type and range, whether the config was loaded or
        built in Python; a bad value raises ValueError naming its key."""
        check_record(ExperimentConfig, vars(self), "sweep config")
        for name, (valid, expected) in _CONFIG_CHECKS.items():
            value = getattr(self, name)
            if not valid(value):
                raise ValueError(f"config key {name!r} must be {expected}, got {value!r}")
        self.model1_k = tuple(self.model1_k)
        self.model2_beta = tuple(self.model2_beta)
        if self.snapshot_sizes is not None:
            self.snapshot_sizes = tuple(self.snapshot_sizes)

    @classmethod
    def from_json(cls, path: "str | Path") -> "ExperimentConfig":
        """Load a config file with paths relative to it; an unknown key or a
        bad value raises ValueError naming the key."""
        path = Path(path)
        cfg = cls(**check_record(cls, json.loads(path.read_text(encoding="utf-8")), "sweep config"))
        base = path.parent
        cfg.kb = str((base / cfg.kb).resolve())
        cfg.templates = str((base / cfg.templates).resolve())
        return cfg


def _is_list(v) -> bool:
    return isinstance(v, (list, tuple))


def _distinct(v) -> bool:
    """Whether no two values share a canonical numeral, so no cell runs twice."""
    return len(set(map(_numeral, v))) == len(v)


# the range and list checks of config keys, after check_record's type
# checks: key -> (check on its value, what the value must be); a list is a
# JSON list or a Python tuple
_CONFIG_CHECKS = {
    "snapshot_sizes": (
        lambda v: v is None or _is_list(v) and len(v) > 0 and all(has_type(n, "int") for n in v),
        "a nonempty list of integers",
    ),
    "snapshot_order": (lambda v: v in ("uniform", "stratified"), '"uniform" or "stratified"'),
    "model1_k": (
        lambda v: _is_list(v) and all(has_type(k, "int") and k >= 1 for k in v) and _distinct(v),
        "a list of distinct integers >= 1",
    ),
    "model2_beta": (
        lambda v: _is_list(v) and all(has_type(b, "float") and 0 < b <= 100 for b in v) and _distinct(v),
        "a list of distinct numbers in (0, 100]",
    ),
    "replicates": (lambda v: v >= 1, "an integer >= 1"),
    "depth_bound": (lambda v: v >= 0, "an integer >= 0"),
    "depth_limit": (lambda v: v >= 0, "an integer >= 0"),
    "threshold": (lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "compare_tolerance": (lambda v: v >= 0, "a number >= 0"),
}


COMPARISON_COLUMNS = (
    "kb_id",
    "pairs",
    "model1_mean_answers",
    "model2_mean_answers",
    "change_pct",
)

FIGURE_COLUMNS = (
    "kb_id",
    "k_or_beta",
    "mean_answered_fraction",
    "mean_alpha",
    "mean_total_answers",
    "threshold_hits",
)


@dataclass
class SweepRow:
    model: str
    k_or_beta: float
    replicate: int
    seed: int
    kb_id: str
    kb_facts: int
    axiom_count: Optional[int] = None
    or_nodes: Optional[int] = None
    avg_degree: Optional[float] = None
    alpha: Optional[float] = None
    q_count: Optional[int] = None
    answered: Optional[int] = None
    answered_fraction: Optional[float] = None
    total_answers: Optional[int] = None
    threshold_hit: Optional[bool] = None
    wall_time_s: Optional[float] = None

    @property
    def is_error(self) -> bool:
        return self.answered_fraction is None

    def cell_id(self) -> str:
        return f"{self.kb_id}_{param_tag(self.model, self.k_or_beta)}_rep{self.replicate}"


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    rows: list[SweepRow]
    profiles: dict[str, dict[int, int]] = field(default_factory=dict)
    detectors: dict = field(default_factory=dict)
    comparison: list[dict] = field(default_factory=list)
    figures: dict[str, list[dict]] = field(default_factory=dict)


@dataclass
class LoadedExperiment:
    kb: KnowledgeBase
    graph: AndOrGraph
    queries: tuple[Query, ...]
    snapshots: list[tuple[str, KnowledgeBase]]


def load_experiment(cfg: ExperimentConfig) -> LoadedExperiment:
    kb, axioms = parse_kb(Path(cfg.kb).read_text(encoding="utf-8"))
    templates = load_templates(cfg.templates)
    queries = expand_templates(kb, templates)
    if len(queries) == 0:
        raise InfeasibleExperimentError("template expansion produced no queries")
    graph = build_graph(axioms, root_schemas(templates), cfg.depth_bound, kb=kb, genlpreds_mode=cfg.genlpreds)
    if cfg.snapshot_sizes:
        snapshots = ablate_grow(kb, cfg.snapshot_sizes, random.Random(cfg.snapshot_seed), cfg.snapshot_order)
    else:
        snapshots = [("full", kb)]
    return LoadedExperiment(kb, graph, queries, snapshots)


def _cell_settings(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    settings: list[tuple[str, float]] = [("model1", k) for k in cfg.model1_k]
    settings.extend(("model2", b) for b in cfg.model2_beta)
    if not settings:
        raise InfeasibleExperimentError("no model parameters configured")
    return settings


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Execute every sweep cell and attach detectors, the matched model
    comparison, and the per-figure aggregates.

    The default error policy is loud: the first failing cell aborts the sweep
    naming the cell.  With ``continue_on_error`` the row is recorded with
    empty metric columns instead.
    """
    exp = load_experiment(cfg)
    settings = _cell_settings(cfg)
    rows: list[SweepRow] = []
    profiles: dict[str, dict[int, int]] = {}
    for kb_id, kb in exp.snapshots:
        cache = SnapshotCache(kb, cfg.genlpreds)  # shared by the snapshot's cells
        for model, value in settings:
            for rep in range(cfg.replicates):
                params = cell_params(model, value, rep, cfg.master_seed, kb_id)
                row = SweepRow(
                    model=model,
                    k_or_beta=params.value,
                    replicate=rep,
                    seed=params.seed,
                    kb_id=kb_id,
                    kb_facts=kb.fact_count,
                )
                try:
                    t0 = time.perf_counter()
                    space = sample(exp.graph, params)
                    report = metrics.alpha(space, exp.queries, kb)
                    qa = metrics.answered_fraction(space, kb, exp.queries, cfg.depth_limit, cfg.genlpreds, cache)
                    profile = depth_profile(space, kb, cfg.genlpreds, cache)
                    row.axiom_count = len(space.retained_axiom_ids())
                    row.or_nodes = space.node_count
                    row.avg_degree = average_degree(space) if space.or_members else 0.0
                    row.alpha = report.alpha
                    row.q_count = qa.attempted
                    row.answered = qa.answered
                    row.answered_fraction = qa.fraction
                    row.total_answers = qa.total_answers
                    row.threshold_hit = metrics.threshold_hit(qa.fraction, cfg.threshold)
                    row.wall_time_s = time.perf_counter() - t0
                    profiles[row.cell_id()] = profile
                except Exception as e:
                    if not cfg.continue_on_error:
                        raise SweepCellError(f"cell {row.cell_id()} failed: {e}") from e
                    log.warning("cell %s failed: %s", row.cell_id(), e)
                rows.append(row)
        log.debug("snapshot %s: %s", kb_id, cache.stats())
    result = SweepResult(rows=rows, profiles=profiles)
    result.detectors = build_detectors(rows, profiles)
    result.comparison = compare_models(rows, cfg.compare_tolerance)
    result.figures = figure_tables(rows)
    return result


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorReport:
    kind: str  # "transition" | "degenerate" | "none"
    evidence: Optional[dict]
    parameters: dict


# detector defaults, shared by the sweep and `percolog detect`
MIN_RANGE, JUMP_SHARE = 0.2, 0.5  # transition
MIN_PEAK, ROOT_SHARE = 100, 0.01  # degeneracy


def _require(name: str, value: float, ok: bool, want: str) -> None:
    if not ok:  # NaN fails every range test, so it is refused too
        raise ValueError(f"detector parameter {name} must be a number {want}, got {value!r}")


def _transition_params(min_range: float, jump_share: float) -> dict:
    _require("min_range", min_range, 0 <= min_range <= 1, "in [0, 1]")
    _require("jump_share", jump_share, 0 < jump_share <= 1, "in (0, 1]")
    return {"min_range": min_range, "jump_share": jump_share}


def _degenerate_params(min_peak: int, root_share: float) -> dict:
    _require("min_peak", min_peak, min_peak >= 0, ">= 0")
    _require("root_share", root_share, 0 <= root_share <= 1, "in [0, 1]")
    return {"min_peak": min_peak, "root_share": root_share}


def detect_transition(
    points: Sequence[tuple[float, float]], min_range: float = MIN_RANGE, jump_share: float = JUMP_SHARE
) -> DetectorReport:
    """Flag a sharp transition in (alpha, fraction) points sorted by alpha.

    The rule: the fraction range R must reach ``min_range`` and one single
    consecutive step must carry at least ``jump_share`` of R.  Linear ramps
    and flat curves stay unflagged.
    """
    params = _transition_params(min_range, jump_share)
    if len(points) < 3:
        raise ValueError("transition detection needs at least 3 points")
    alphas = [p[0] for p in points]
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("points must be sorted by alpha")
    fractions = [p[1] for p in points]
    r = max(fractions) - min(fractions)
    steps = [fractions[i + 1] - fractions[i] for i in range(len(fractions) - 1)]
    j = max(steps)
    if r >= min_range and j > 0 and j >= jump_share * r:
        at = steps.index(j)
        evidence = {
            "jump_from_alpha": alphas[at],
            "jump_to_alpha": alphas[at + 1],
            "jump_from_fraction": fractions[at],
            "jump_to_fraction": fractions[at + 1],
            "jump_size": j,
            "range": r,
        }
        return DetectorReport("transition", evidence, params)
    return DetectorReport("none", None, params)


def detect_degenerate(
    profile: Mapping[int, int], min_peak: int = MIN_PEAK, root_share: float = ROOT_SHARE
) -> DetectorReport:
    """Flag the die-down shape: a large peak of derived atoms at depth that
    collapses to (almost) nothing at the root."""
    params = _degenerate_params(min_peak, root_share)
    if not profile:
        raise ValueError("degeneracy detection needs a nonempty depth profile")
    peak_depth, peak_count = max(profile.items(), key=lambda kv: (kv[1], -kv[0]))
    root_count = profile.get(0, 0)
    if peak_count >= min_peak and root_count <= root_share * peak_count:
        evidence = {"peak_depth": peak_depth, "peak_count": peak_count, "root_count": root_count}
        return DetectorReport("degenerate", evidence, params)
    return DetectorReport("none", None, params)


def build_detectors(
    rows: Sequence[SweepRow],
    profiles: Mapping[str, Mapping[int, int]],
    min_range: float = MIN_RANGE,
    jump_share: float = JUMP_SHARE,
    min_peak: int = MIN_PEAK,
    root_share: float = ROOT_SHARE,
) -> dict:
    """Transition detection per (model, parameter) pooled across snapshots and
    replicates, degeneracy detection per cell, and the observed rates."""
    transition_params = _transition_params(min_range, jump_share)
    degenerate_params = _degenerate_params(min_peak, root_share)
    groups: dict[tuple[str, float], list[tuple[float, float]]] = {}
    for r in rows:
        if r.is_error or r.alpha is None:
            continue
        groups.setdefault((r.model, r.k_or_beta), []).append((r.alpha, r.answered_fraction))
    transitions = []
    flagged = 0
    for (model, value), pts in groups.items():
        pts.sort()
        if len(pts) >= 3:
            rep = detect_transition(pts, min_range, jump_share)
        else:
            rep = DetectorReport("none", None, {**transition_params, "points": len(pts)})
        if rep.kind == "transition":
            flagged += 1
        transitions.append({"model": model, "k_or_beta": value, **asdict(rep)})
    degenerate = []
    deg_flagged = 0
    for cell in sorted(profiles):
        rep = detect_degenerate(dict(profiles[cell]), min_peak, root_share) if profiles[cell] else DetectorReport(
            "none", None, degenerate_params
        )
        if rep.kind == "degenerate":
            deg_flagged += 1
        degenerate.append({"cell": cell, **asdict(rep)})
    return {
        "transitions": transitions,
        "degenerate": degenerate,
        "rates": {
            "transition_rate": flagged / len(groups) if groups else 0.0,
            "degenerate_rate": deg_flagged / len(profiles) if profiles else 0.0,
        },
    }


# ---------------------------------------------------------------------------
# Model comparison and figure aggregates
# ---------------------------------------------------------------------------


def compare_models(rows: Sequence[SweepRow], tolerance: float = 0.1) -> list[dict]:
    """Per snapshot: pair Model 1 and Model 2 samples of matching average
    degree, then compare mean total answers (relative change of Model 2)."""
    if not tolerance >= 0:
        raise ValueError(f"the compare tolerance must be a number >= 0, got {tolerance!r}")
    by_kb: dict[str, dict[str, list[SweepRow]]] = {}
    for r in rows:
        models = by_kb.setdefault(r.kb_id, {"model1": [], "model2": []})
        if not r.is_error:
            models.setdefault(r.model, []).append(r)
    table = []
    for kb_id, models in by_kb.items():
        m1, m2 = models["model1"], models["model2"]
        pairs = greedy_degree_pairs(
            [r.avg_degree for r in m1], [r.avg_degree for r in m2], tolerance
        )
        if not pairs:
            log.warning("no degree-matched pairs for snapshot %s (tolerance %s)", kb_id, tolerance)
            continue
        mean1 = sum(m1[i].total_answers for i, _ in pairs) / len(pairs)
        mean2 = sum(m2[j].total_answers for _, j in pairs) / len(pairs)
        change = ((mean2 - mean1) / mean1 * 100.0) if mean1 else None
        table.append(
            {
                "kb_id": kb_id,
                "pairs": len(pairs),
                "model1_mean_answers": mean1,
                "model2_mean_answers": mean2,
                "change_pct": change,
            }
        )
    if not table:
        log.warning("model comparison is empty: no degree-matched pairs at tolerance %s", tolerance)
    return table


def figure_tables(rows: Sequence[SweepRow]) -> dict[str, list[dict]]:
    """Coverage-versus-parameter aggregates per KB (one table per model)."""
    out: dict[str, list[dict]] = {"model1": [], "model2": []}
    groups: dict[tuple[str, str, float], list[SweepRow]] = {}
    for r in rows:
        if not r.is_error:
            groups.setdefault((r.model, r.kb_id, r.k_or_beta), []).append(r)
    for (model, kb_id, value), group in groups.items():
        out[model].append(
            {
                "kb_id": kb_id,
                "k_or_beta": value,
                "mean_answered_fraction": sum(r.answered_fraction for r in group) / len(group),
                "mean_alpha": sum(r.alpha for r in group) / len(group),
                "mean_total_answers": sum(r.total_answers for r in group) / len(group),
                "threshold_hits": sum(1 for r in group if r.threshold_hit),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_table(rows: "Sequence[SweepRow] | Sequence[Mapping]", columns: Optional[Sequence[str]] = None) -> str:
    """CSV text for rows: stable column order (``SWEEP_COLUMNS`` unless
    ``columns`` names others), header, LF endings, '.' decimals."""
    if columns is None:
        columns = SWEEP_COLUMNS
    dicts = [asdict(r) if isinstance(r, SweepRow) else r for r in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for d in dicts:
        writer.writerow([_format_cell(d.get(c)) for c in columns])
    return buf.getvalue()


def _parse_param(s: str):
    try:
        return int(s)
    except ValueError:
        return float(s)


def _parse_bool(s: str) -> bool:
    if s not in ("true", "false"):  # the spellings _format_cell writes
        raise ValueError(f"{s!r} is not true or false")
    return s == "true"


def _cell_parser(kind):
    """The parser of a nonempty CSV cell for a SweepRow field of this type:
    the type itself, or an Optional's non-None member."""
    kind = next((a for a in get_args(kind) if a is not type(None)), kind)
    return _parse_bool if kind is bool else kind


_ROW_PARSERS = {name: _cell_parser(kind) for name, kind in get_type_hints(SweepRow).items()}
_ROW_PARSERS["k_or_beta"] = _parse_param  # an int k or a float beta


def parse_rows(path: "str | Path") -> list[SweepRow]:
    """Read a sweep CSV back into rows (the round trip of format_table); a
    row with other than one cell per column, or a cell its column's type
    cannot parse, raises ValueError naming the line (and the column)."""
    rows = []
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != SWEEP_COLUMNS:
            raise ValueError(f"unexpected sweep columns in {path}: {reader.fieldnames}")
        for rec in reader:
            if None in rec or None in rec.values():  # DictReader's fill for a long or a short row
                raise ValueError(f"{path}, line {reader.line_num}: not {len(SWEEP_COLUMNS)} fields")
            kwargs = {}
            for col in SWEEP_COLUMNS:
                raw = rec[col]
                try:
                    kwargs[col] = None if raw == "" else _ROW_PARSERS[col](raw)
                except ValueError as e:
                    raise ValueError(f"{path}, line {reader.line_num}, column {col}: {e}") from None
            rows.append(SweepRow(**kwargs))
    return rows


PROFILE_COLUMNS = ("depth", "count")


def profile_to_csv(profile: Mapping[int, int]) -> str:
    return format_table([{"depth": d, "count": profile[d]} for d in sorted(profile)], PROFILE_COLUMNS)


def parse_profile_csv(path: "str | Path") -> dict[int, int]:
    """Read a depth profile CSV file back; blank lines are skipped and quote
    characters are data, so a quoted cell is not an integer.  A row other
    than two integers, a repeated depth and a negative depth or count raise
    ValueError naming the file and the line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    bad = f"not a depth profile CSV: {path}"
    try:
        rows = list(csv.reader([ln for _, ln in lines], quoting=csv.QUOTE_NONE))
    except csv.Error as e:  # a field over the csv module's size limit
        raise ValueError(f"{bad}: {e}") from None
    if not rows or rows[0] != list(PROFILE_COLUMNS):
        raise ValueError(f"{bad}: its header is not depth,count")
    profile: dict[int, int] = {}
    for (n, line), row in zip(lines[1:], rows[1:]):
        try:
            depth, count = map(int, row)
        except ValueError:  # other than two fields, or a field not an integer
            depth = count = -1
        if depth < 0 or count < 0 or depth in profile:
            raise ValueError(f"{bad}: line {n} {line!r} is not two integers >= 0 or repeats a depth")
        profile[depth] = count
    return profile


def write_sweep_outputs(result: SweepResult, outdir: "str | Path") -> None:
    """Materialize a sweep: sweep.csv, per-cell depth profiles, detectors.json,
    the matched model comparison, and the figure aggregates."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text(format_table(result.rows), encoding="utf-8")
    profile_dir = outdir / "profiles"
    profile_dir.mkdir(exist_ok=True)
    for stale in profile_dir.glob("*.csv"):  # a former sweep's, which detect would read
        stale.unlink()
    for cell, profile in sorted(result.profiles.items()):
        (profile_dir / f"{cell}.csv").write_text(profile_to_csv(profile), encoding="utf-8")
    (outdir / "detectors.json").write_text(json.dumps(result.detectors, indent=1) + "\n", encoding="utf-8")
    (outdir / "comparison.csv").write_text(format_table(result.comparison, COMPARISON_COLUMNS), encoding="utf-8")
    for model in ("model1", "model2"):
        (outdir / f"figure_{model}.csv").write_text(format_table(result.figures[model], FIGURE_COLUMNS), encoding="utf-8")
