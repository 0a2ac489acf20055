"""Sweep benchmark for percolog.

    python3 perfbench/run.py --workload grid-skew --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One run:

1. generates the workload's inputs in a separate process (``generate.py``);
2. for about ``--seconds`` seconds, runs whole rounds (as many as the first
   round's time fits best, at least one) of fresh single-threaded processes,
   one after another (``sweep_child.py``):
   untraced, a round is one ``percolog sweep`` plus ``SETUPS_PER_ROUND``
   processes that time ``load_experiment`` alone; traced, a round is one
   untraced and one traced sweep;
3. checks the outputs (``checks.py``, ``oracle.py``) and that every sweep of
   the run wrote the same deterministic bytes;
4. prints a report line, then one JSON line with ``correct``, ``attempted``,
   ``failed`` (sweep cells) and ``metrics``: the end-to-end metrics untraced,
   the per-layer metrics traced.

Exits with 2 when the checkout holds no program to run, and with 1 when a
process of the run fails; in both cases no result line is printed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUPS_PER_ROUND = 2

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """A process of the run failed or the run ran out of time."""


def _child(script: str, args: list, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run time limit reached before {script}")
    cmd = [sys.executable, str(BENCH / script), "--src", str(SRC), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} killed at the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def _sweep(inputs: Path, rundir: Path, traced: bool, deadline: float) -> dict:
    result = rundir / "result.json"
    args = ["--config", inputs / "sweep.json", "--out", rundir / "out", "--result", result]
    _child("sweep_child.py", args + (["--trace"] if traced else []), deadline)
    res = json.loads(result.read_text(encoding="utf-8"))
    with (rundir / "out" / "sweep.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    res["attempted"] = len(rows)
    res["failed"] = sum(1 for r in rows if r["answered_fraction"] == "")
    res["cell_s"] = [float(r["wall_time_s"]) for r in rows if r["wall_time_s"]]
    res["out"] = rundir / "out"
    res["traced"] = traced
    return res


def _setup(inputs: Path, rundir: Path, deadline: float) -> float:
    rundir.mkdir(parents=True, exist_ok=True)
    result = rundir / "setup.json"
    _child("sweep_child.py", ["--config", inputs / "sweep.json", "--result", result, "--setup-only"], deadline)
    return json.loads(result.read_text(encoding="utf-8"))["setup_s"]


def _quantile(values: list, q: int) -> float:
    """The q-th percentile (exclusive method); the median of one value is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(sweeps: list, setups: list) -> dict:
    return {
        "sweep_s": {"value": statistics.median(s["sweep_s"] for s in sweeps), "unit": "s"},
        "cells_per_s": {
            "value": statistics.median((s["attempted"] - s["failed"]) / s["sweep_s"] for s in sweeps),
            "unit": "cells/s",
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in sweeps), "unit": "MiB"},
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer figures from the traced sweeps: times are summed over one
    sweep and the median over the run's traced sweeps is reported; latency
    percentiles pool every call of the run."""

    def total(sweep, layer, facts=None):
        return sum(dt for dt, f in sweep["trace"]["spans"][layer] if facts is None or f == facts)

    def med(fn):
        return statistics.median(fn(s) for s in traced)

    def largest(sweep):
        return max(f for _, f in sweep["trace"]["spans"]["metrics.answered_fraction"])

    def rate(sweep, layer):
        return sweep["trace"]["counts"][layer] / total(sweep, layer)

    asks = [dt for s in traced for dt, _ in s["trace"]["spans"]["engine.ask"]]
    cells = [dt for s in traced for dt in s["cell_s"]]
    out = {
        f"{layer}_s": (med(lambda s, layer=layer: total(s, layer)), "s")
        for layer in (
            "kb.parse",
            "growth.ablate",
            "harness.expand",
            "graph.build",
            "sampling.sample",
            "metrics.alpha",
            "metrics.answered_fraction",
            "engine.depth_profile",
            "harness.report",
            "harness.write",
        )
    }
    for layer in ("metrics.answered_fraction", "engine.depth_profile"):
        out[f"{layer}_s.largest"] = (med(lambda s, layer=layer: total(s, layer, largest(s))), "s")
    out["metrics.qa_answers_per_s"] = (med(lambda s: rate(s, "metrics.answered_fraction")), "answers/s")
    out["engine.profile_atoms_per_s"] = (med(lambda s: rate(s, "engine.depth_profile")), "atoms/s")
    out["engine.ask_s_p50"] = (_quantile(asks, 50), "s")
    out["engine.ask_s_p99"] = (_quantile(asks, 99), "s")
    out["engine.ask_samples"] = (len(asks), "count")
    out["harness.cell_s_p50"] = (_quantile(cells, 50), "s")
    out["harness.cell_s_p90"] = (_quantile(cells, 90), "s")
    out["harness.cell_samples"] = (len(cells), "count")
    out["trace.overhead_s"] = (statistics.median(t["sweep_s"] - u["sweep_s"] for t, u in zip(traced, untraced)), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def run_report(digests: dict) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "output_sha256": digests,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="percolog sweep benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "percolog" / "__init__.py").is_file():
        print(f"error: no percolog sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "input"
    try:
        _child("generate.py", ["--workload", args.workload, "--seed", args.seed, "--out", inputs], deadline)
        sweeps: list[dict] = []
        setups: list[float] = []
        round_s: list[float] = []
        rounds = 1  # fixed after the first round: the whole rounds closest to --seconds
        while len(round_s) < rounds:
            t0 = time.monotonic()
            n = len(round_s)
            sweeps.append(_sweep(inputs, work / f"r{n}u", False, deadline))
            setups.append(sweeps[-1]["setup_s"])
            if args.trace:
                sweeps.append(_sweep(inputs, work / f"r{n}t", True, deadline))
            else:
                for i in range(SETUPS_PER_ROUND):
                    setups.append(_setup(inputs, work / f"r{n}s{i}", deadline))
            round_s.append(time.monotonic() - t0)
            if n == 0:
                rounds = max(1, round(args.seconds / round_s[0]))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    errors = []
    sys.path.insert(0, str(SRC))
    import checks

    digests = [checks.deterministic_digests(s["out"]) for s in sweeps]
    for s, d in zip(sweeps[1:], digests[1:]):
        if d != digests[0]:
            diff = sorted(k for k in d.keys() | digests[0].keys() if d.get(k) != digests[0].get(k))
            kind = "traced" if s["traced"] else "untraced"
            errors.append(f"{kind} sweep {s['out']} differs from the first sweep in {diff[:5]}")
    checker = checks.SweepChecker(inputs / "sweep.json", sweeps[0]["out"], args.seed)
    properties = checker.run()
    errors.extend(checker.errors)
    traced = [s for s in sweeps if s["traced"]]
    untraced = [s for s in sweeps if not s["traced"]]
    for s in traced:
        silent = [layer for layer, spans in s["trace"]["spans"].items() if not spans]
        if silent:
            errors.append(f"traced layers recorded no call: {silent}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    report = run_report(checks.summarize_digests(digests[0]))
    report.update(workload=args.workload, seed=args.seed, rounds=len(round_s), properties=properties)
    print(json.dumps({"report": report}, sort_keys=True))
    if not args.trace:
        metrics = end_to_end(untraced, setups)
    elif not errors:
        metrics = per_layer(traced, untraced)
    else:
        metrics = {}
    result = {
        "correct": not errors,
        "attempted": sum(s["attempted"] for s in sweeps),
        "failed": sum(s["failed"] for s in sweeps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
