"""KB growth machinery: inverse-ablation schedules over an existing KB, and a
synthetic generator that reproduces the structural preconditions the
experiments need (skewed rule ownership, non-uniform fact density, stratified
predicate levels so the query graph is acyclic by construction).
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path
from typing import Sequence

from .engine import QueryTemplate
from .kb import (
    Atom,
    AxiomSet,
    Fact,
    HornClause,
    KnowledgeBase,
    RESERVED_PREDICATES,
    Variable,
    check_record,
)


class InfeasibleConfigError(Exception):
    """The generator cannot satisfy the requested configuration."""


# ---------------------------------------------------------------------------
# Inverse ablation
# ---------------------------------------------------------------------------


def _stratified_order(predicates: list[str], rng: random.Random) -> list[int]:
    """Re-add order of the facts whose predicates these are, as their indices,
    holding per-predicate proportions roughly constant: after a shuffle per
    predicate, the k-th of a predicate's n facts sorts at (k / n, predicate),
    so each prefix takes the predicate that is currently most
    under-represented."""
    groups: dict[str, list[int]] = defaultdict(list)
    for i, p in enumerate(predicates):
        groups[p].append(i)
    keyed = []
    for p, indices in groups.items():
        rng.shuffle(indices)
        keyed.extend((k / len(indices), p, i) for k, i in enumerate(indices))
    return [i for *_, i in sorted(keyed)]


def ablate_grow(
    kb_full: KnowledgeBase,
    sizes: Sequence[int],
    rng: random.Random,
    order: str = "uniform",
) -> list[tuple[str, KnowledgeBase]]:
    """Fix one random re-add order over the non-hierarchy facts and cut nested
    snapshots at the requested total fact counts: ``(snapshot_id, kb)``
    pairs of strictly increasing size.  Hierarchy facts are in every snapshot,
    so templates expand identically along the way.

    ``sizes`` count whole snapshots (hierarchy included), must be strictly
    increasing, at least the hierarchy size, and at most the full KB size.
    """
    if not sizes:
        raise ValueError("at least one snapshot size is required")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {list(sizes)}")
    full = kb_full._rows
    # the predicate of each content fact, in sorted fact order
    content = [p for p, rows in full.items() if p not in RESERVED_PREDICATES for _ in rows]
    n_hierarchy = kb_full.fact_count - len(content)
    if max(sizes) > kb_full.fact_count:
        raise ValueError(f"size {max(sizes)} exceeds the KB's {kb_full.fact_count} facts")
    if min(sizes) < n_hierarchy:
        raise ValueError(
            f"size {min(sizes)} is below the {n_hierarchy} ablation-exempt hierarchy facts"
        )
    if order == "uniform":
        ordered = list(range(len(content)))
        rng.shuffle(ordered)  # the same permutation as shuffling the facts: it depends only on the length
    elif order == "stratified":
        ordered = _stratified_order(content, rng)
    else:
        raise ValueError(f"unknown ablation order {order!r}")
    rank = [0] * len(content)  # each content fact's place in the re-add order
    for r, i in enumerate(ordered):
        rank[i] = r
    ranks = iter(rank)
    content_ranks = {p: list(islice(ranks, len(rows))) for p, rows in full.items() if p not in RESERVED_PREDICATES}
    snapshots = []
    for i, size in enumerate(sizes):
        cut = size - n_hierarchy  # a snapshot keeps the content facts ranked below the cut
        rows = {p: tuple(compress(r, map(cut.__gt__, content_ranks[p]))) if p in content_ranks else r
                for p, r in full.items()}
        snapshots.append((f"s{i}_{size}", kb_full._subset(rows)))
    return snapshots


# ---------------------------------------------------------------------------
# Synthetic KB generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    predicates: int
    entities: int
    collections: int
    genls_depth: int
    rules: int
    body_min: int
    body_max: int
    rule_skew: float  # Zipf exponent over rule head ownership (0 = uniform)
    facts: int
    fact_skew: float  # Zipf exponent over per-predicate fact density
    levels: int
    root_predicates: int
    seed: int
    # density multiplier for level-0 predicates; < 1 starves the query
    # targets of direct facts so coverage has to come through inference
    root_fact_weight: float = 1.0

    def __post_init__(self) -> None:
        """Check each key's type, whether the config was loaded or built in
        Python: an int key takes an integer, a float key any number.  A
        mistyped key raises ValueError naming it; ranges are validate's."""
        check_record(SynthConfig, vars(self), "synth config")

    def validate(self) -> None:
        counts = {
            "predicates": self.predicates,
            "entities": self.entities,
            "collections": self.collections,
            "facts": self.facts,
            "levels": self.levels,
            "root_predicates": self.root_predicates,
        }
        for name, value in counts.items():
            if value < 1:
                raise InfeasibleConfigError(f"{name} must be >= 1, got {value}")
        if self.rules < 0 or self.genls_depth < 0:
            raise InfeasibleConfigError("rules and genls_depth must be >= 0")
        if self.rule_skew < 0 or self.fact_skew < 0:
            raise InfeasibleConfigError("skew exponents must be >= 0")
        if self.root_fact_weight < 0:
            raise InfeasibleConfigError("root_fact_weight must be >= 0")
        if not 1 <= self.body_min <= self.body_max:
            raise InfeasibleConfigError("need 1 <= body_min <= body_max")
        if self.genls_depth > self.collections - 1:
            raise InfeasibleConfigError(
                f"genls_depth {self.genls_depth} needs more than {self.collections} collections"
            )
        if self.root_predicates > self.predicates:
            raise InfeasibleConfigError("root_predicates exceeds predicates")
        if self.rules > 0:
            if self.levels < 2:
                raise InfeasibleConfigError("rules need at least two predicate levels")
            if self.predicates < self.root_predicates + self.levels - 1:
                raise InfeasibleConfigError(
                    "not enough predicates to populate every level"
                )

    @classmethod
    def from_json(cls, path: "str | Path") -> "SynthConfig":
        """Load a synth config; a document that is not an object, or an
        unknown, missing or mistyped key, raises ValueError naming the key."""
        return cls(**check_record(cls, json.loads(Path(path).read_text(encoding="utf-8")), "synth config"))


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (i + 1) ** exponent for i in range(n)]


def synth_kb(config: SynthConfig) -> tuple[KnowledgeBase, AxiomSet, list[QueryTemplate]]:
    """Generate a KB, an axiom set, and the question templates for it.

    Every rule's head predicate sits strictly below its body predicates in the
    level stratification, so the query graph the axioms induce is acyclic by
    construction; rule ownership and fact density are Zipf-skewed with the
    configured exponents.  Fully deterministic given the config seed.
    """
    config.validate()
    rng = random.Random(config.seed)

    collections = [f"C{i}" for i in range(config.collections)]
    entities = [f"E{i}" for i in range(config.entities)]
    predicates = [f"p{i}" for i in range(config.predicates)]

    facts: list[Fact] = []

    # genls tree: a chain realizes the requested depth, everything else
    # attaches wherever it keeps the depth bound; depth 0 means no tree at all
    if config.genls_depth > 0:
        tree_depth = {collections[0]: 0}
        for i, col in enumerate(collections[1:], start=1):
            if i <= config.genls_depth:
                parent = collections[i - 1]
            else:
                parent = rng.choice([c for c in collections[:i] if tree_depth[c] < config.genls_depth])
            tree_depth[col] = tree_depth[parent] + 1
            facts.append(Fact("genls", (col, parent)))

    # entities: cover every collection first, then spread at random
    for i, ent in enumerate(entities):
        col = collections[i] if i < len(collections) else rng.choice(collections)
        facts.append(Fact("isa", (ent, col)))

    # a collection's pool: its instances under the genls closure
    hierarchy = KnowledgeBase(facts)
    instance_pool = {c: sorted(hierarchy.instances_of(c)) for c in collections}
    populated = [c for c in collections if instance_pool[c]]

    # predicate levels: roots at level 0, one predicate pinned to each higher
    # level, the rest spread at random
    level_of: dict[str, int] = {}
    for p in predicates[: config.root_predicates]:
        level_of[p] = 0
    rest = predicates[config.root_predicates :]
    for j, p in enumerate(rest):
        if config.levels > 1 and j < config.levels - 1:
            level_of[p] = j + 1
        elif config.levels > 1:
            level_of[p] = rng.randint(1, config.levels - 1)
        else:
            level_of[p] = 0

    arg_cols = {p: (rng.choice(populated), rng.choice(populated)) for p in predicates}
    for p in predicates:
        c1, c2 = arg_cols[p]
        facts.append(Fact("argIsa", (p, "1", c1)))
        facts.append(Fact("argIsa", (p, "2", c2)))

    # rules: Zipf-ranked head ownership over the predicates that have a
    # nonempty higher-level pool, chain-shaped bodies so bindings flow through
    by_level: dict[int, list[str]] = defaultdict(list)
    for p, l in level_of.items():
        by_level[l].append(p)
    max_level = max(by_level) if by_level else 0
    higher_pool = {
        l: [p for p in predicates if level_of[p] > l] for l in range(max_level + 1)
    }
    clauses: list[HornClause] = []
    if config.rules > 0:
        # validate leaves a level-1 predicate, so every root is eligible
        eligible = [p for p in predicates if higher_pool[level_of[p]]]
        ranked = list(eligible)
        rng.shuffle(ranked)
        weights = _zipf_weights(len(ranked), config.rule_skew)
        for rno in range(config.rules):
            head_pred = rng.choices(ranked, weights=weights, k=1)[0]
            pool = higher_pool[level_of[head_pred]]
            length = rng.randint(config.body_min, config.body_max)
            chain: list = [Variable("x")] + [Variable(f"z{i}") for i in range(1, length)] + [Variable("y")]
            if length >= 2 and rng.random() < 0.15:
                # join through a fixed entity: the bottleneck shape behind
                # degenerate percolation
                mid = rng.randrange(1, length)
                chain[mid] = rng.choice(entities)
            body = []
            for i in range(length):
                q = rng.choice(pool)
                a, b = chain[i], chain[i + 1]
                if rng.random() < 0.3:
                    a, b = b, a
                body.append(Atom(q, (a, b)))
            head = Atom(head_pred, (Variable("x"), Variable("y")))
            clauses.append(HornClause(head, tuple(body), id=f"r{rno}"))

    # facts: Zipf-skewed density over predicates, arguments drawn from the
    # argIsa-compatible entity pools, deduplicated exactly
    ranked_f = list(predicates)
    rng.shuffle(ranked_f)
    weights_f = _zipf_weights(len(ranked_f), config.fact_skew)
    if config.root_fact_weight != 1.0:
        weights_f = [
            w * config.root_fact_weight if level_of[p] == 0 else w
            for w, p in zip(weights_f, ranked_f)
        ]
    if not any(weights_f):
        raise InfeasibleConfigError("all fact-density weights are zero")
    capacity = {p: len(instance_pool[arg_cols[p][0]]) * len(instance_pool[arg_cols[p][1]]) for p in predicates}
    if sum(capacity.values()) < config.facts:
        raise InfeasibleConfigError(
            f"cannot place {config.facts} distinct facts; capacity is {sum(capacity.values())}"
        )
    used: dict[str, set[tuple[str, str]]] = defaultdict(set)
    placed = 0
    attempts = 0
    max_attempts = 60 * config.facts + 1000
    while placed < config.facts:
        attempts += 1
        if attempts > max_attempts:
            raise InfeasibleConfigError("fact sampling stalled; lower facts or raise entities")
        p = rng.choices(ranked_f, weights=weights_f, k=1)[0]
        if len(used[p]) >= capacity[p]:
            continue
        a = rng.choice(instance_pool[arg_cols[p][0]])
        b = rng.choice(instance_pool[arg_cols[p][1]])
        if (a, b) in used[p]:
            continue
        used[p].add((a, b))
        facts.append(Fact(p, (a, b)))
        placed += 1

    templates = []
    for i, p in enumerate(by_level[0]):
        bound = rng.choice((1, 2))
        open_pos = 2 if bound == 1 else 1
        templates.append(
            QueryTemplate(
                id=f"t{i}",
                predicate=p,
                bound_position=bound,
                param_collection=arg_cols[p][bound - 1],
                open_position=open_pos,
            )
        )

    return KnowledgeBase(facts), AxiomSet(clauses), templates
