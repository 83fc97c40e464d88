"""The package's documented surface: its exports and README's library
quick start."""

import ast
import re
from pathlib import Path

import labelsim
from labelsim import simulate
from labelsim.corpus import save_corpus

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in labelsim.__all__
               if not hasattr(labelsim, name)]
    assert missing == []


def test_every_module_parses_as_the_oldest_supported_python():
    # pyproject.toml: requires-python = ">=3.10"
    assert 'requires-python = ">=3.10"' in \
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    modules = sorted((ROOT / "src" / "labelsim").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8") \
        .split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    kinds = ((simulate.ProfileKind.RELIABLE, 8),
             (simulate.ProfileKind.CONSTANT, 2),
             (simulate.ProfileKind.UNIFORM_RANDOM, 2))
    corpus, _ = simulate.generate_corpus(simulate.PopulationSpec(
        n_pairs=60, fraction_random=0.2, seed=5,
        profiles=tuple(simulate.ProfileSpec(k, n) for k, n in kinds)))
    save_corpus(corpus, tmp_path / "pairs.csv", tmp_path / "annotations.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert re.match(r"filter \[2, 3\] removes \d+ annotators\n", out)
    assert "Correlation report (all annotators)" in out


def test_reports_read_a_flag_pass_and_run_no_heuristic():
    # the CLI makes a run's one flag pass; the report layer only reads it
    from labelsim import correlate
    for name in ("HeuristicConfig", "Scorers", "compute_flag_reports"):
        assert not hasattr(correlate, name), name
