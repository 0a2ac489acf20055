"""The public surface the documentation and the benchmark rely on: the
README's library example runs as written, and every layer the benchmark's
tracer wraps is still called by ``percolog sweep``."""

import importlib.util
import json
import re
from pathlib import Path

import percolog as P
from percolog.cli import main

from test_cli import SYNTH_CONFIG

ROOT = Path(__file__).resolve().parent.parent


def _write_workspace(ws: Path) -> None:
    kb, axioms, templates = P.synth_kb(P.SynthConfig(**SYNTH_CONFIG))
    (ws / "family.kb").write_text(P.serialize_kb(kb, axioms), encoding="utf-8")
    P.harness.save_templates(templates, ws / "templates.json")


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    _write_workspace(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    alpha, fraction, hit = capsys.readouterr().out.split()
    assert float(alpha) >= 0 and 0 <= float(fraction) <= 1 and hit in ("True", "False")


def _load_sweep_child():
    spec = importlib.util.spec_from_file_location("sweep_child", ROOT / "perfbench" / "sweep_child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sees_every_layer(tmp_path, monkeypatch):
    sweep_child = _load_sweep_child()

    class RestoringTracer(sweep_child.Tracer):
        def wrap(self, owner, name, layer, count=None):
            monkeypatch.setattr(owner, name, getattr(owner, name))  # undone after the test
            super().wrap(owner, name, layer, count)

    _write_workspace(tmp_path)
    kb = P.parse_kb((tmp_path / "family.kb").read_text(encoding="utf-8"))[0]
    cfg = {
        "kb": "family.kb",
        "templates": "templates.json",
        "snapshot_sizes": [kb.fact_count - 50, kb.fact_count],
        "model1_k": [2],
        "model2_beta": [40],
        "replicates": 1,
    }
    (tmp_path / "sweep.json").write_text(json.dumps(cfg), encoding="utf-8")
    tracer = RestoringTracer()
    tracer.install()
    assert main(["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "out")]) == 0
    assert len(tracer.spans) == 11
    silent = sorted(layer for layer, spans in tracer.spans.items() if not spans)
    assert silent == [], f"layers with no recorded call: {silent}"
