"""The public surface the documentation and the benchmark rely on: the
README's library example runs as written, its CLI walkthrough parses, every
layer the benchmark's tracer wraps is still called by ``percolog sweep``, and
the benchmark's checker passes on a sweep."""

import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

import percolog as P
from percolog.cli import _HANDLERS, _build_parser, main

from conftest import run_python
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


def test_imports_only_the_standard_library():
    """pyproject.toml declares no dependencies: importing the package and its
    CLI loads no top-level module from outside the standard library (the
    interpreter's start-up, site hooks included, is not counted)."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import percolog, percolog.cli\n"
        "names = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(names - set(sys.stdlib_module_names) - {'percolog'})))"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def _walkthrough_commands() -> list[list[str]]:
    """The argument lists of the README's CLI walkthrough, with backslash
    continuations joined."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("percolog ")]


def test_readme_walkthrough_covers_every_command():
    assert {argv[0] for argv in _walkthrough_commands()} == set(_HANDLERS)


@pytest.mark.parametrize("argv", _walkthrough_commands(), ids=" ".join)
def test_readme_walkthrough_parses(argv, capsys):
    """Argparse alone: a renamed or deleted flag fails here."""
    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"percolog {' '.join(argv)}: {capsys.readouterr().err.strip()}")


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_sweep(ws: Path) -> Path:
    """A two-snapshot sweep config over the workspace's family, one cell per
    sampler and snapshot."""
    kb = P.parse_kb((ws / "family.kb").read_text(encoding="utf-8"))[0]
    cfg = {
        "kb": "family.kb",
        "templates": "templates.json",
        "snapshot_sizes": [kb.fact_count - 50, kb.fact_count],
        "model1_k": [2],
        "model2_beta": [40],
        "replicates": 1,
    }
    (ws / "sweep.json").write_text(json.dumps(cfg), encoding="utf-8")
    return ws / "sweep.json"


def test_benchmark_tracer_sees_every_layer(tmp_path, monkeypatch):
    sweep_child = _load_perfbench("sweep_child")

    class RestoringTracer(sweep_child.Tracer):
        def wrap(self, owner, name, layer, count=None):
            monkeypatch.setattr(owner, name, getattr(owner, name))  # undone after the test
            super().wrap(owner, name, layer, count)

    _write_workspace(tmp_path)
    _write_sweep(tmp_path)
    tracer = RestoringTracer()
    tracer.install()
    assert main(["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "out")]) == 0
    assert len(tracer.spans) == 11
    silent = sorted(layer for layer, spans in tracer.spans.items() if not spans)
    assert silent == [], f"layers with no recorded call: {silent}"
    # Q/A runs through the timed method: one ask per query of every cell
    rows = P.harness.parse_rows(tmp_path / "out" / "sweep.csv")
    assert len(tracer.spans["engine.ask"]) == len(rows) * rows[0].q_count == sum(r.q_count for r in rows)


def test_benchmark_checker_passes_on_a_sweep(tmp_path, monkeypatch):
    """The benchmark's row, space, alpha, growth and oracle checks call the
    library the way ``perfbench/run.py`` does; a change to what they call or
    read fails here, not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # checks.py imports oracle.py
    checks = _load_perfbench("checks")
    _write_workspace(tmp_path)
    config = _write_sweep(tmp_path)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    checker = checks.SweepChecker(config, tmp_path / "out", seed=0)
    props = checker.run()
    assert checker.errors == []
    assert props["cells"] == 4 and props["oracle_cells"] >= 1
