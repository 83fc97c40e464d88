"""The package's documented surface: its exports and README's library
quick start."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import pytest

import labelsim
from labelsim import simulate
from labelsim.corpus import save_corpus
from labelsim.textmetrics import tokenize

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in labelsim.__all__
               if not hasattr(labelsim, name)]
    assert missing == []


def _in_fresh_process(code):
    """Run ``code`` in a new interpreter that imports this package, and
    return what it printed, read as JSON."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(labelsim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADED = ("import json, sys; print(json.dumps(sorted("
          "m for m in sys.modules if m.startswith('labelsim'))))")


def test_importing_a_module_loads_only_what_it_imports():
    loaded = _in_fresh_process("import labelsim.corpus; " + LOADED)
    assert loaded == ["labelsim", "labelsim.corpus"]


def test_benchmark_loader_imports_load_only_their_modules():
    # the two import lines of perfbench/load_inputs.py on a crowd workload
    loaded = _in_fresh_process(
        "from labelsim.corpus import (attach_precomputed, load_corpus, "
        "load_precomputed); "
        "from labelsim.sentiment import ingest_sentiment; " + LOADED)
    assert loaded == ["labelsim", "labelsim.corpus", "labelsim.sentiment",
                      "labelsim.textmetrics"]


def test_an_export_loads_its_module_on_first_use():
    loaded = _in_fresh_process(
        "import labelsim; labelsim.reduce_label; " + LOADED)
    assert loaded == ["labelsim", "labelsim.corpus", "labelsim.stats"]


def test_star_import_and_dir_list_every_export():
    got = _in_fresh_process(
        "import json, labelsim; from labelsim import *; "
        "print(json.dumps({'all': labelsim.__all__, "
        "'bound': [n for n in labelsim.__all__ if n not in globals()], "
        "'same': [n for n in labelsim.__all__ "
        "if globals()[n] is not getattr(labelsim, n)], "
        "'undir': sorted(set(labelsim.__all__) - set(dir(labelsim)))}))")
    assert got["all"] == sorted(got["all"]) and len(got["all"]) == 35
    assert got["bound"] == []
    assert got["same"] == []
    assert got["undir"] == []


def test_an_unknown_name_raises_attribute_error():
    got = _in_fresh_process(
        "import json, labelsim\n"
        "try:\n"
        "    labelsim.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(labelsim, 'nope')]))\n")
    assert got == ["module 'labelsim' has no attribute 'no_such_name'",
                   False]


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


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A small simulated corpus with a score channel, a sentiment file
    and word vectors for its every token."""
    out = tmp_path_factory.mktemp("cli_inputs")
    corpus, _ = simulate.generate_corpus(
        simulate.PopulationSpec(n_pairs=40, seed=2))
    save_corpus(corpus, out / "pairs.csv", out / "annotations.csv")
    ids = [p.pair_id for p in corpus.pairs]
    (out / "ext.csv").write_text("pair_id,score\n" + "".join(
        f"{pid},{k % 7}\n" for k, pid in enumerate(ids)))
    (out / "sent.csv").write_text("pair_id,score_a,score_b\n" + "".join(
        f"{pid},0.5,-0.5\n" for pid in ids))
    words = sorted({w for p in corpus.pairs
                    for w in tokenize(p.text_a) + tokenize(p.text_b)})
    (out / "vectors.txt").write_text("".join(
        f"{w} {k % 5} {k % 3}\n" for k, w in enumerate(words)))
    return str(out)


_CORPUS = ["--pairs", "{d}/pairs.csv", "--annotations", "{d}/annotations.csv"]


@pytest.mark.parametrize("argv, loaded", [
    (["validate", *_CORPUS], False),
    (["stats", *_CORPUS], False),
    (["flag", *_CORPUS, "--sentiment-file", "{d}/sent.csv"], False),
    (["style-report", *_CORPUS, "--precomputed", "ext={d}/ext.csv",
      "--metrics", "ext", "--sentiment-file", "{d}/sent.csv",
      "--out-format", "json"], False),
    (["report", *_CORPUS, "--metrics", "lexical"], False),
    (["metrics", "--pairs", "{d}/pairs.csv", "--metrics", "bleu1"], False),
    (["report", *_CORPUS, "--metrics", "all",
      "--embeddings", "{d}/vectors.txt"], True),
], ids=["validate", "stats", "flag", "style-report", "report-lexical",
        "metrics-bleu1", "report-embeddings"])
def test_only_embedding_work_loads_embmetrics(cli_inputs, argv, loaded):
    argv = [arg.format(d=cli_inputs) for arg in argv]
    got = _in_fresh_process(
        "import contextlib, io, json, sys\n"
        "from labelsim import cli\n"
        "with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(json.dumps([rc, 'labelsim.embmetrics' in sys.modules]))\n")
    assert got == [0, loaded]


def test_embmetrics_imports_no_report_or_cli_module():
    loaded = _in_fresh_process("import labelsim.embmetrics; " + LOADED)
    assert "labelsim.correlate" not in loaded
    assert "labelsim.cli" not in loaded


def test_reports_read_a_flag_pass_and_run_no_heuristic():
    # the CLI makes a run's one flag pass; the report layer only reads it
    from labelsim import correlate
    for name in ("HeuristicConfig", "Scorers", "compute_flag_reports"):
        assert not hasattr(correlate, name), name


def _binary_reads(tree):
    """(function, line) of each call in ``tree`` that opens a file in
    binary mode, reads one as bytes or decodes bytes."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) \
                else getattr(node.func, "id", None)
            modes = [a for a in node.args if isinstance(a, ast.Constant)] + \
                [k.value for k in node.keywords if k.arg == "mode"]
            binary = name == "open" and any(
                isinstance(m, ast.Constant) and "b" in str(m.value)
                for m in modes)
            if binary or name in ("decode", "read_bytes"):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_one_function_decodes_bytes():
    # every input is read as UTF-8 text; corpus._not_utf8 alone goes back
    # to the bytes, to name the first line that is not UTF-8
    calls = Counter(
        f"{path.stem}.{function}"
        for path in (ROOT / "src" / "labelsim").glob("*.py")
        for function, _ in _binary_reads(
            ast.parse(path.read_text(encoding="utf-8"))))
    assert calls == {"corpus._not_utf8": 2}
    # the scan sees each form it looks for
    probe = ast.parse("def f(p):\n    open(p, 'rb')\n    p.open(mode='wb')\n"
                      "    p.read_bytes()\n    b''.decode()\n    open(p)\n")
    assert [line for _, line in _binary_reads(probe)] == [2, 3, 4, 5]


ENVIRONMENT = ("environ", "environb", "getenv", "putenv")


def _environment_reads(tree):
    """(function, line) of each use in ``tree`` of ``os.environ``,
    ``os.environb``, ``os.getenv`` or ``os.putenv``, or import of one."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT \
                and getattr(node.value, "id", None) == "os" \
                or isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(a.name in ENVIRONMENT for a in node.names):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_module_reads_the_environment():
    # a run's input is its command line and the files it names
    uses = [f"{path.stem}.{function}"
            for path in sorted((ROOT / "src" / "labelsim").glob("*.py"))
            for function, _ in _environment_reads(
                ast.parse(path.read_text(encoding="utf-8")))]
    assert uses == []
    # the scan sees each form it looks for
    probe = ast.parse("import os\nfrom os import getenv\n"
                      "def f():\n    os.environ.get('X')\n"
                      "    os.environb\n    os.getenv('X')\n"
                      "    os.putenv('X', '1')\n    os.path.join('a')\n")
    assert [line for _, line in _environment_reads(probe)] == [2, 4, 5, 6, 7]


def _shadowed_abc_methods(cls):
    """The names of ``cls``'s slots and non-function class attributes that
    hide a method one of its ``collections.abc`` bases provides."""
    provided = {name for base in cls.__mro__
                if base.__module__ == Mapping.__module__
                for name, value in vars(base).items()
                if inspect.isfunction(value)
                or isinstance(value, (classmethod, staticmethod))}
    own = set(getattr(cls, "__slots__", ())) | {
        name for name, value in vars(cls).items()
        if not inspect.isfunction(value)}
    return sorted(own & provided)


def test_no_view_hides_a_method_of_its_abc():
    views = {f"{module.__name__}.{cls.__name__}": cls
             for module in (importlib.import_module(f"labelsim.{info.name}")
                            for info in pkgutil.iter_modules(
                                labelsim.__path__))
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and any(base.__module__ == Mapping.__module__
                     for base in cls.__mro__[1:-1])}
    assert "labelsim.corpus.PairScores" in views
    assert {name: _shadowed_abc_methods(cls)
            for name, cls in views.items()
            if _shadowed_abc_methods(cls)} == {}
    # the scan sees a slot and a class attribute that hide a method

    class Probe(Mapping):
        __slots__ = ("values",)
        keys = property(lambda self: ())

    assert _shadowed_abc_methods(Probe) == ["keys", "values"]
