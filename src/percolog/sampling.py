"""Search-space samplers.

Model 1 keeps at most k rule applications per OR node (uniformizing the
out-degree distribution); Model 2 keeps ceil(beta% * c) of a node's c
applications (preserving skew).  Both walk breadth-first from the roots,
decide each visited OR node exactly once, and keep every body child of a kept
rule application, so a sampled space is always closed and acyclic.  RNG
streams are derived deterministically from (master seed, scope, model,
canonical parameter numeral, replicate index) by :func:`cell_params`, so
results depend neither on scheduling nor on how a parameter is spelled.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .graph import AndOrGraph, SearchSpace

# hashlib loads OpenSSL, about 3.6 MiB of a sweep's peak RSS; the
# interpreter's built-in SHA-256 gives the same digest.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


@dataclass(frozen=True)
class SampleParams:
    """One sampling cell: exactly the parameter matching the model is set."""

    model: str  # "model1" | "model2"
    k: Optional[int] = None
    beta: Optional[float] = None
    seed: int = 0
    replicate: int = 0

    def __post_init__(self) -> None:
        if self.model == "model1":
            if self.k is None or self.k < 1 or self.beta is not None:
                raise ValueError("model1 takes k >= 1 and no beta")
        elif self.model == "model2":
            if self.beta is None or not (0 < self.beta <= 100) or self.k is not None:
                raise ValueError("model2 takes beta in (0, 100] and no k")
        else:
            raise ValueError(f"unknown model {self.model!r}")

    @property
    def value(self) -> float:
        return self.k if self.model == "model1" else self.beta  # type: ignore[return-value]

    def keep_count(self, child_count: int) -> int:
        """How many of an OR node's ``child_count`` rule applications to keep."""
        if self.model == "model1":
            return min(self.k, child_count)  # type: ignore[type-var]
        # exact rational arithmetic so 20% of 5 is exactly 1, never 2
        return math.ceil(Fraction(str(self.beta)) * child_count / 100)

    def provenance(self) -> dict:
        return asdict(self)


def derive_seed(master_seed: int, *parts: object) -> int:
    """Stable 64-bit stream seed for a sweep cell."""
    text = f"{master_seed}|" + "|".join(str(p) for p in parts)
    digest = _sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _numeral(value: float) -> str:
    """Canonical spelling of a parameter value: '10' for 10 and 10.0."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def param_tag(model: str, value: float) -> str:
    """Filename-friendly cell parameter: 'model1_k3' / 'model2_beta12.5'."""
    num = _numeral(value)
    return f"{model}_k{num}" if model == "model1" else f"{model}_beta{num}"


def cell_params(model: str, value: float, replicate: int, master_seed: int, *scope: object) -> SampleParams:
    """The sampling cell for (model, value, replicate): its RNG seed is
    derived from the master seed, the scope (e.g. the KB snapshot id), the
    model, the value's canonical numeral and the replicate."""
    seed = derive_seed(master_seed, *scope, model, _numeral(value), replicate)
    if model == "model1":
        return SampleParams("model1", k=int(value), seed=seed, replicate=replicate)
    return SampleParams("model2", beta=float(value), seed=seed, replicate=replicate)


def _sample(
    graph: AndOrGraph,
    params: SampleParams,
    rng: random.Random,
    provenance: Optional[dict],
) -> SearchSpace:
    visited: set[str] = set()
    kept_and: list[str] = []
    queue: deque[str] = deque()
    for rid in graph.roots:
        if rid not in visited:
            visited.add(rid)
            queue.append(rid)
    while queue:
        oid = queue.popleft()
        children = graph.or_nodes[oid].children
        if not children:
            continue
        n_keep = params.keep_count(len(children))
        if n_keep == len(children):
            chosen: Sequence[str] = children
        else:
            picked = set(rng.sample(range(len(children)), n_keep))
            chosen = [c for i, c in enumerate(children) if i in picked]
        for aid in chosen:
            kept_and.append(aid)
            for cid in graph.and_nodes[aid].children:
                if cid not in visited:
                    visited.add(cid)
                    queue.append(cid)
    return SearchSpace(graph, visited, kept_and, provenance)


def model1_sample(graph: AndOrGraph, k: int, rng: random.Random) -> SearchSpace:
    """Keep min(k, c) rule applications per visited OR node, uniformly without
    replacement; every out-degree in the result is <= k."""
    return _sample(graph, SampleParams("model1", k=k), rng, {"model": "model1", "k": k})


def model2_sample(graph: AndOrGraph, beta: float, rng: random.Random) -> SearchSpace:
    """Keep ceil(beta% * c) rule applications per visited OR node; beta=100
    reproduces the parent graph exactly."""
    return _sample(graph, SampleParams("model2", beta=beta), rng, {"model": "model2", "beta": beta})


def sample(graph: AndOrGraph, params: SampleParams) -> SearchSpace:
    """Sample one space from its cell parameters (seed included)."""
    return _sample(graph, params, random.Random(params.seed), params.provenance())


def generate_replicates(
    graph: AndOrGraph,
    settings: Iterable[tuple[str, float]],
    replicates: int = 7,
    master_seed: int = 0,
) -> list[SearchSpace]:
    """Replicated spaces for each (model, parameter) setting, with one derived
    RNG stream per replicate; same master seed, same spaces."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    out = []
    for model, value in settings:
        for rep in range(replicates):
            out.append(sample(graph, cell_params(model, value, rep, master_seed)))
    return out


def greedy_degree_pairs(
    degrees_a: Sequence[float], degrees_b: Sequence[float], tolerance: float
) -> list[tuple[int, int]]:
    """Greedy closest-gap pairing of two degree lists; each index used once."""
    candidates = sorted(
        (abs(da - db), i, j)
        for i, da in enumerate(degrees_a)
        for j, db in enumerate(degrees_b)
        if abs(da - db) <= tolerance
    )
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs = []
    for _, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j))
    return sorted(pairs)
