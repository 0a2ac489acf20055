"""Write one workload's inputs: the KB family, its templates and the sweep config.

    python3 perfbench/generate.py --src SRC --workload NAME --seed N --out DIR

Runs in its own process before any timed sweep, so the timed processes only
parse the files written here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from percolog.growth import SynthConfig, synth_kb
    from percolog.harness import save_templates
    from percolog.kb import serialize_kb

    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kb, axioms, templates = synth_kb(SynthConfig(**wl["synth"]))
    (out / "family.kb").write_text(serialize_kb(kb, axioms), encoding="utf-8")
    save_templates(templates, out / "templates.json")
    sweep = dict(
        wl["sweep"],
        kb="family.kb",
        templates="templates.json",
        snapshot_seed=args.seed,
    )
    (out / "sweep.json").write_text(json.dumps(sweep, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
