"""The benchmark's tracer and set-up loader still fit the package.

``perfbench/spans.py`` wraps the package's public functions and reads
counts off their results; a hook that no longer fits the code (a field
renamed, a type replaced) is recorded in ``hook_errors`` and its counters
drop out of the benchmark's table without failing the run.  These tests
run the benchmark's own tracer and loader, with each workload's own
arguments, on a small generated input, so such a break fails here.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FLAG_COUNTERS = [f"heuristics.flagged.{h}" for h in range(1, 6)]
TRANSPORT_COUNTERS = [f"embmetrics.solve_transport.{name}"
                      for name in ("problems", "types_sum", "pivots")]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark's ``run`` module and a 60-pair input set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import gen
        import run
    paths = gen.generate(60, 20, 7, tmp_path_factory.mktemp("inputs"),
                         run.SRC / "labelsim" / "data")
    return run, paths


def run_traced(bench, workload, tmp_path) -> dict:
    run, paths = bench
    wl = run.WORKLOADS[workload]
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), "--",
         *run.cli_argv(wl, paths, tmp_path / wl.out_file)],
        env=run.child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


def generated_rows(paths) -> int:
    """The data rows of the generated pairs and annotations files."""
    total = 0
    for role in ("pairs", "annotations"):
        with paths[role].open(newline="", encoding="utf-8") as fh:
            total += sum(1 for _ in csv.reader(fh)) - 1
    return total


def test_traced_text_report_feeds_every_hook(bench, tmp_path):
    doc = run_traced(bench, "text-report", tmp_path)
    assert doc["hook_errors"] == {}
    counters = doc["counters"]
    assert set(FLAG_COUNTERS + TRANSPORT_COUNTERS) <= set(counters)
    # the one load_corpus call reads every generated pair and annotation
    assert counters["corpus.rows"] == generated_rows(bench[1])
    assert counters["correlate.cells"] > 0
    assert counters["embmetrics.solve_transport.problems"] > 0


def test_traced_style_report_feeds_every_hook(bench, tmp_path):
    doc = run_traced(bench, "crowd-style-report", tmp_path)
    assert doc["hook_errors"] == {}
    counters = doc["counters"]
    assert set(FLAG_COUNTERS + TRANSPORT_COUNTERS) <= set(counters)
    assert counters["corpus.rows"] == generated_rows(bench[1])
    assert counters["correlate.cells"] > 0


@pytest.mark.parametrize("workload", ["text-report", "crowd-style-report"])
def test_setup_loader_reads_every_input(bench, tmp_path, workload):
    run, paths = bench
    spec = tmp_path / "inputs.json"
    spec.write_text(json.dumps(run.loader_inputs(
        run.WORKLOADS[workload].cli_args(paths))), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "load_inputs.py"), str(spec)],
        env=run.child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_solver_probe_reports_sinkhorn_absent(bench):
    # The traced mode runs this probe; the package offers neither the
    # Sinkhorn solver nor the bag-of-words helper it imports, so the probe
    # must return None, leaving its metrics absent, rather than raise.
    run, paths = bench
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import probe
    assert probe.sinkhorn_probe(paths["pairs"], paths["embeddings"],
                                run.PROBE_PROBLEMS) is None
