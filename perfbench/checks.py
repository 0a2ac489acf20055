"""Checks on one sweep's outputs, run after the timed sweeps.

Every row gets the property checks; a few cells, at least one per snapshot
and sampler, are also checked against the independent fixpoint in
``oracle.py``.  Snapshots, graph and queries are rebuilt from the sweep config
the way the sweep built them; nothing is compared against stored outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracle
from percolog import harness, metrics
from percolog.engine import bottom_up_eval, depth_profile
from percolog.graph import average_degree, induced_space, or_out_degrees
from percolog.sampling import SampleParams, sample

ALPHA_RTOL = 1e-12


def deterministic_digests(outdir: Path) -> dict[str, str]:
    """sha256 of every deterministic output file; ``sweep.csv`` is hashed
    without its last column, ``wall_time_s``."""
    out = {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "sweep.csv" and path.parent == outdir:
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
        out[path.relative_to(outdir).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def summarize_digests(digests: dict[str, str]) -> dict[str, str]:
    """Top-level files as they are; the per-cell profiles as one digest over
    their names and digests."""
    out = {k: v for k, v in digests.items() if "/" not in k}
    profiles = sorted((k, v) for k, v in digests.items() if k.startswith("profiles/"))
    out["profiles/*"] = hashlib.sha256(json.dumps(profiles).encode()).hexdigest()
    out["profiles/count"] = str(len(profiles))
    return out


def _params(row) -> SampleParams:
    if row.model == "model1":
        return SampleParams("model1", k=int(row.k_or_beta), seed=row.seed, replicate=row.replicate)
    return SampleParams("model2", beta=float(row.k_or_beta), seed=row.seed, replicate=row.replicate)


def _plain(atom) -> tuple:
    return (atom.predicate, tuple(str(t) for t in atom.args))


def _subdag_keys(space, kb_id: str, intern: dict) -> list:
    """One (snapshot, node, retained sub-DAG) key per member OR node; a
    sub-DAG is interned to an int, children first."""
    graph = space.graph
    sig: dict[str, int] = {}
    for oid in space.reverse_topological_or_order():
        shape = (
            oid,
            tuple(
                (aid, tuple(sig[c] for c in graph.and_nodes[aid].children))
                for aid in space.member_and_children(oid)
            ),
        )
        sig[oid] = intern.setdefault(shape, len(intern))
    return [(kb_id, oid, s) for oid, s in sig.items()]


class SweepChecker:
    def __init__(self, config_path: Path, outdir: Path, seed: int):
        self.cfg = harness.ExperimentConfig.from_json(config_path)
        self.exp = harness.load_experiment(self.cfg)
        self.rows = harness.parse_rows(outdir / "sweep.csv")
        self.rng = random.Random(seed)
        self.problems: dict[str, list[str]] = {}
        self.oracle_cells = 0

    def fail(self, check: str, msg: str) -> None:
        self.problems.setdefault(check, []).append(msg)

    @property
    def errors(self) -> list[str]:
        """One line per failed check: its problem count and the first one."""
        return [f"{check}: {len(msgs)} problem(s), first: {msgs[0]}" for check, msgs in self.problems.items()]

    def run(self) -> dict:
        """Run every check; return the workload properties."""
        exp, cfg = self.exp, self.cfg
        snapshots = dict(exp.snapshots)
        settings = [("model1", k) for k in cfg.model1_k] + [("model2", b) for b in cfg.model2_beta]
        expected = [
            (kb_id, m, float(v), rep) for kb_id, _ in exp.snapshots for m, v in settings for rep in range(cfg.replicates)
        ]
        got = [(r.kb_id, r.model, float(r.k_or_beta), r.replicate) for r in self.rows]
        if got != expected:
            self.fail("cells", f"sweep.csv has {len(got)} cells, expected {len(expected)} in sweep order")
        if exp.kb.facts_for("genlPreds"):
            self.fail("alpha", "workload KB has genlPreds facts; the alpha recomputation assumes none")
        fact_counts = {
            kb_id: Counter(f.atom.predicate for f in kb.sorted_facts()) for kb_id, kb in exp.snapshots
        }
        intern: dict = {}
        members = 0
        subdags: set = set()
        qa_keys: set = set()
        spaces = {}
        for row in self.rows:
            if row.is_error:
                continue
            kb = snapshots.get(row.kb_id)
            if kb is None or kb.fact_count != row.kb_facts:
                self.fail("cells", f"{row.cell_id()}: kb_facts {row.kb_facts} does not match its snapshot")
                continue
            self._check_row(row)
            space = sample(exp.graph, _params(row))
            spaces[row.cell_id()] = space
            self._check_space(row, space)
            self._check_alpha(row, space, fact_counts[row.kb_id])
            keys = _subdag_keys(space, row.kb_id, intern)
            members += len(keys)
            subdags.update(keys)
            qa_keys.add((row.kb_id, space.retained_axiom_ids()))
        self._check_growth()
        self._check_oracle(spaces)
        sizes = [kb.fact_count for _, kb in exp.snapshots]
        return {
            "subdag_reuse": members / len(subdags) if subdags else None,
            "qa_reuse": len(spaces) / len(qa_keys) if qa_keys else None,
            "refact_ratio": sum(sizes) / max(sizes),
            "cells": len(self.rows),
            "snapshots": len(sizes),
            "oracle_cells": self.oracle_cells,
        }

    def _check_row(self, row) -> None:
        if row.q_count != len(self.exp.queries):
            self.fail("row", f"{row.cell_id()}: q_count {row.q_count} != {len(self.exp.queries)} queries")
        if not 0 <= row.answered <= row.q_count:
            self.fail("row", f"{row.cell_id()}: answered {row.answered} outside [0, {row.q_count}]")
        if row.answered_fraction != row.answered / row.q_count:
            self.fail("row", f"{row.cell_id()}: answered_fraction {row.answered_fraction} != answered/q_count")
        if row.threshold_hit != (row.answered_fraction >= self.cfg.threshold):
            self.fail("row", f"{row.cell_id()}: threshold_hit disagrees with theta {self.cfg.threshold}")

    def _check_space(self, row, space) -> None:
        graph = space.graph
        if row.model == "model1":
            degrees = or_out_degrees(space)
            if degrees and max(degrees) > row.k_or_beta:
                self.fail("space", f"{row.cell_id()}: Model 1 out-degree {max(degrees)} > k")
        else:
            beta = Fraction(repr(float(row.k_or_beta)))
            for oid in space.or_members:
                c = len(graph.or_nodes[oid].children)
                if len(space.member_and_children(oid)) != math.ceil(beta * c / 100):
                    self.fail("space", f"{row.cell_id()}: node {oid} keeps {len(space.member_and_children(oid))} of {c}")
                    break
        resampled = (len(space.retained_axiom_ids()), space.node_count, average_degree(space) if space.or_members else 0.0)
        if resampled != (row.axiom_count, row.or_nodes, row.avg_degree):
            self.fail("space", f"{row.cell_id()}: resampled space {resampled} differs from the row")

    def _check_alpha(self, row, space, counts: Counter) -> None:
        graph = space.graph
        qn = len(self.exp.queries)
        total = 0.0
        for oid in sorted(space.or_members, key=lambda o: int(o[1:])):
            node = graph.or_nodes[oid]
            total += counts[node.schema.predicate] / (qn * (node.depth + 1))
        want = total / len(graph.or_nodes)
        if abs(want - row.alpha) > ALPHA_RTOL * max(abs(want), 1e-300):
            self.fail("alpha", f"{row.cell_id()}: alpha {row.alpha!r} != recomputed {want!r}")

    def _check_growth(self) -> None:
        """Whole-graph answered count and depth-profile counts never decrease
        along the nested snapshots."""
        exp, cfg = self.exp, self.cfg
        full = induced_space(exp.graph, exp.graph.or_nodes)
        prev_answered, prev_profile, prev_id = -1, {}, None
        for kb_id, kb in exp.snapshots:
            answered = metrics.answered_fraction(full, kb, exp.queries, cfg.depth_limit, cfg.genlpreds).answered
            profile = depth_profile(full, kb, cfg.genlpreds)
            if answered < prev_answered:
                self.fail("growth", f"whole graph answers {answered} at {kb_id} < {prev_answered} at {prev_id}")
            for d, n in prev_profile.items():
                if profile.get(d, 0) < n:
                    self.fail("growth", f"whole-graph depth {d} count {profile.get(d, 0)} at {kb_id} < {n} at {prev_id}")
            prev_answered, prev_profile, prev_id = answered, profile, kb_id

    def _check_oracle(self, spaces: dict) -> None:
        """Per-query answer counts and bottom-up soundness against the
        independent fixpoint, on one random cell per (snapshot, sampler)."""
        exp, cfg = self.exp, self.cfg
        snapshots = dict(exp.snapshots)
        groups: dict[tuple[str, str], list] = {}
        for row in self.rows:
            if not row.is_error:
                groups.setdefault((row.kb_id, row.model), []).append(row)
        patterns = [_plain(q.atom) for q in exp.queries]
        for (kb_id, _), rows in groups.items():
            row = self.rng.choice(rows)
            kb = snapshots[kb_id]
            space = spaces[row.cell_id()]
            axioms = exp.graph.axioms.restrict(space.retained_axiom_ids())
            rules = [(_plain(c.head), tuple(_plain(b) for b in c.body)) for c in axioms]
            relations = oracle.fixpoint((_plain(f.atom) for f in kb.sorted_facts()), rules)
            want = oracle.answer_counts(relations, patterns)
            qa = metrics.answered_fraction(space, kb, exp.queries, cfg.depth_limit, cfg.genlpreds)
            got = [n for _, _, n in qa.per_query]
            if got != want:
                bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b) if len(got) == len(want) else 0
                self.fail("oracle", f"{row.cell_id()}: query {qa.per_query[bad][0]} answers {got[bad]}, oracle {want[bad]}")
            if (qa.answered, qa.total_answers) != (row.answered, row.total_answers):
                self.fail("oracle", f"{row.cell_id()}: row answers differ from a fresh answered_fraction")
            for oid, atoms in bottom_up_eval(space, kb, cfg.genlpreds).items():
                rel = relations.get(exp.graph.or_nodes[oid].predicate, set())
                unsound = [a for a in atoms if tuple(str(t) for t in a.args) not in rel]
                if unsound:
                    self.fail("oracle", f"{row.cell_id()}: bottom_up_eval derives {unsound[0]} at {oid}, not in the fixpoint")
                    break
            self.oracle_cells += 1
