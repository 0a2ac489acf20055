"""One timed ``percolog sweep`` in a fresh process.

    python3 perfbench/sweep_child.py --src SRC --config SWEEP.json
        --result RESULT.json (--out DIR [--trace] | --setup-only)

Runs the sweep through the CLI entry point and writes a JSON result: the wall
time of the sweep, the time of its one ``load_experiment`` call, and the
process's peak resident memory.  With ``--trace`` the public functions that
``run_sweep`` calls are wrapped from outside the program and every call's
duration is recorded (see ``Tracer``).  With ``--setup-only`` the process times
one ``load_experiment`` call and nothing else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Wraps module-level functions and methods, records one span per call.

    A span is ``(seconds, facts)``, filed under its layer, where ``facts`` is
    the fact count of the snapshot the call worked on when its arguments name
    one, else None.
    Functions are patched where ``run_sweep`` and the CLI look them up, so the
    program's own code is unchanged.
    """

    def __init__(self):
        self.spans: dict[str, list[tuple[float, "int | None"]]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)  # work counted inside spans

    def wrap(self, owner, name: str, layer: str, count=None) -> None:
        fn = getattr(owner, name)
        spans = self.spans[layer]  # every wrapped layer is listed, called or not
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            facts = next((a.fact_count for a in args if hasattr(a, "fact_count")), None)
            spans.append((dt, facts))
            if count is not None:
                counts[layer] += count(out)
            return out

        setattr(owner, name, traced)

    def install(self) -> None:
        from percolog import cli, engine, harness, metrics

        self.wrap(harness, "parse_kb", "kb.parse")
        self.wrap(harness, "ablate_grow", "growth.ablate")
        self.wrap(harness, "expand_templates", "harness.expand")
        self.wrap(harness, "build_graph", "graph.build")
        self.wrap(harness, "sample", "sampling.sample")
        self.wrap(metrics, "alpha", "metrics.alpha")
        self.wrap(metrics, "answered_fraction", "metrics.answered_fraction", lambda qa: qa.total_answers)
        self.wrap(engine.Evaluator, "ask", "engine.ask")
        self.wrap(harness, "depth_profile", "engine.depth_profile", lambda prof: sum(prof.values()))
        self.wrap(harness, "build_detectors", "harness.report")
        self.wrap(harness, "compare_models", "harness.report")
        self.wrap(harness, "figure_tables", "harness.report")
        self.wrap(cli, "write_sweep_outputs", "harness.write")

    def to_json(self) -> dict:
        return {"spans": dict(self.spans), "counts": dict(self.counts)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from percolog import cli, harness

    if args.setup_only == (args.out is not None):
        ap.error("give --out for a sweep or --setup-only, not both")
    if args.setup_only:
        cfg = harness.ExperimentConfig.from_json(args.config)
        t0 = time.perf_counter()
        harness.load_experiment(cfg)
        Path(args.result).write_text(json.dumps({"setup_s": time.perf_counter() - t0}), encoding="utf-8")
        return 0

    # the one load_experiment call of the sweep is timed in every mode
    setup = []
    load = harness.load_experiment

    def timed_load(cfg):
        t0 = time.perf_counter()
        out = load(cfg)
        setup.append(time.perf_counter() - t0)
        return out

    harness.load_experiment = timed_load
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(["sweep", "--config", args.config, "--out", args.out])
    sweep_s = time.perf_counter() - t0
    if rc != 0:
        print(f"percolog sweep exited with {rc}", file=sys.stderr)
        return rc
    if len(setup) != 1:
        print(f"expected one load_experiment call, saw {len(setup)}", file=sys.stderr)
        return 1
    result = {
        "sweep_s": sweep_s,
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.to_json()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
