"""Benchmark of the labelsim CLI on two report workloads.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is text-report, crowd-style-report, or ``all`` to run each in
turn and print one table.  The package is taken from ``src/labelsim``
beside this directory; without it the benchmark exits non-zero and
prints no result.

The seed fixes the generated inputs (see gen.py); the CLI sees only the
files written under ``.perfbench_work/``.  Each CLI run is a fresh child
process, started one at a time from this process: a closed loop with one
client, because a user waits for each report.  Every timed child runs
on one CPU (see ``spawn``).

``--trace 0`` measures the end-to-end metrics: it runs the CLI until
``--seconds`` have passed and at least three runs are done, every
second run followed by a fresh process that only loads the inputs
(set-up time), and reports medians.  ``--trace 1`` instead runs the
CLI three times untraced and three times under the span recorder
(spans.py), alternately, reports per-layer self times, calls and counts
from the last traced run plus the tracing overhead (difference of the
medians), and runs the Sinkhorn probe (probe.py).
Every run's output is checked (checks.py); a run that exits non-zero,
warns that it skipped a metric, differs from the workload's first
output, or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable table and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_RUNS = 3
SETUP_EVERY = 2  # CLI runs per set-up run in the timed mode
TRACE_REPEATS = 3  # untraced and traced runs each in the traced mode
CHILD_TIMEOUT_S = 150.0
PROBE_PROBLEMS = 2
CHILD_CPU = max(os.sched_getaffinity(0))  # the one CPU timed children use


@dataclass(frozen=True)
class Workload:
    name: str
    n_pairs: int
    n_annotators: int
    out_file: str
    check: str  # a check in checks.py
    args: tuple[str, ...]  # CLI arguments; {role} stands for an input path

    def cli_args(self, paths: dict) -> list[str]:
        return [a.format(**paths) for a in self.args]


# Sizes keep each CLI run near 5 s on one CPU, so a run of the benchmark
# takes about ten samples.  Two workloads, not one per layer group: on a
# shared 2-core host the speed drifts for minutes at a time, runs of about
# a minute are needed to average it out, and twenty seeds of such runs fit
# in an hour only for two workloads.
WORKLOADS = {w.name: w for w in (
    Workload("text-report", 800, 64, "report.csv", "text_csv",
             ("report", "--pairs", "{pairs}", "--annotations", "{annotations}",
              "--metrics", "all", "--embeddings", "{embeddings}",
              "--heuristics", "all", "--out-format", "csv")),
    Workload("crowd-style-report", 4000, 300, "report.json",
             "style_json",
             ("style-report", "--pairs", "{pairs}",
              "--annotations", "{annotations}",
              "--precomputed", "ext_sim={ext_sim}",
              "--precomputed", "ext_dist={ext_dist}",
              "--precomputed-distance", "ext_dist",
              "--metrics", "ext_sim,ext_dist",
              "--sentiment-file", "{sentiment}", "--out-format", "json")),
)}

_LOADED_FLAGS = {"--pairs": "pairs", "--annotations": "annotations",
                 "--embeddings": "embeddings", "--sentiment-file": "sentiment"}


def loader_inputs(cli_args: list[str]) -> dict:
    """Every input file the CLI arguments name, for load_inputs.py."""
    spec: dict = {"precomputed": []}
    for flag, value in zip(cli_args, cli_args[1:]):
        if flag in _LOADED_FLAGS:
            spec[_LOADED_FLAGS[flag]] = value
        elif flag == "--precomputed":
            spec["precomputed"].append(value.split("=", 1))
    return spec


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LABELSIM_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {CHILD_CPU})


def spawn(argv: list[str], log_dir: Path) -> ChildRun:
    """Run one child to completion; wall time is spawn to exit.

    The child runs on one CPU.  The CLI's scoring pool is GIL-bound (one
    thread runs at a time), so a second CPU adds no speed; but with two,
    each GIL hand-off crosses CPUs, and a host that takes either virtual
    CPU away for a while stalls the run.  On a shared 2-core virtual
    machine, runs of an 8-metric lexical report (1,600 pairs) alternating
    between one CPU and two read medians of 3.47 s and 3.85 s, and their
    70-second block medians spread 5% and 13% (IQR/median).
    The pool keeps its default size (the CPU count, not the affinity).

    The kernel carries the spawning process's peak resident memory
    across exec into the child's, so the child's peak reads true only
    while this process stays smaller than the child: the output checks
    therefore run in a process of their own (see checks.py).
    """
    err_path = log_dir / "stderr.txt"
    with open(os.devnull, "wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(), preexec_fn=pin_to_one_cpu)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    err_path.read_text(encoding="utf-8", errors="replace"))


def cli_argv(wl: Workload, paths: dict, out: Path) -> list[str]:
    return wl.cli_args(paths) + ["--out", str(out)]


# ---------------------------------------------------------------------------
# output checks


class Outputs:
    """Checks each run's output and remembers the first one's bytes."""

    def __init__(self, wl: Workload, paths: dict, work: Path):
        self.check = wl.check
        self.inputs = work / "check_inputs.json"
        self.inputs.write_text(json.dumps({k: str(p) for k, p in
                                           paths.items()}), encoding="utf-8")
        self.first_digest = None
        self.verdicts: dict[str, str | None] = {}
        self.errors: list[str] = []

    def judge(self, run: ChildRun, out: Path) -> bool:
        if run.returncode != 0:
            return self.fail(f"exit status {run.returncode}: "
                              f"{run.stderr.strip()[-300:]}")
        if "warning: skipping" in run.stderr:
            return self.fail(f"stderr: {run.stderr.strip()[:300]}")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return self.fail("output differs from the first run's")
        if digest not in self.verdicts:
            self.verdicts[digest] = self.run_check(out)
        if self.verdicts[digest] is not None:
            return self.fail(self.verdicts[digest])
        return True

    def run_check(self, out: Path) -> str | None:
        """None if the report passes its check, else the reason."""
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "checks.py"), self.check,
                 str(self.inputs), str(out)],
                capture_output=True, text=True, cwd=ROOT,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"check {self.check} timed out"
        if done.returncode == 0:
            return None
        lines = (done.stdout.strip() or done.stderr.strip()).splitlines()
        return lines[-1][:300] if lines else f"check exit {done.returncode}"

    def fail(self, message: str) -> bool:
        self.errors.append(message)
        print(f"# check failed: {message}", file=sys.stderr)
        return False


# ---------------------------------------------------------------------------
# metadata


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "child_cpu": CHILD_CPU,
            "platform": platform.platform(),
            "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    for dist in ("numpy", "scipy"):  # not imported: see checks.py
        info[dist] = metadata.version(dist)
    return info


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# the two modes


def prepare(wl: Workload, seed: int, work: Path) -> dict:
    return gen.generate(wl.n_pairs, wl.n_annotators, seed, work / "inputs",
                        SRC / "labelsim" / "data")


def timed(wl: Workload, paths: dict, work: Path, seconds: float) -> dict:
    """CLI runs until ``seconds`` pass, every second one followed by a
    set-up run.

    Interleaving the two spreads both sets of samples over the same
    stretch of time, so a slow spell on a shared machine moves their
    medians alike.  One set-up run before the clock starts compiles the
    package's bytecode and warms the file cache, costs a user pays once.
    Every set-up run counts as an attempted run, and as a failed one if
    it exits non-zero.
    """
    spec_path = work / "setup_inputs.json"
    spec_path.write_text(json.dumps(loader_inputs(wl.cli_args(paths))),
                         encoding="utf-8")
    setup_argv = [sys.executable, str(HERE / "load_inputs.py"), str(spec_path)]
    outputs = Outputs(wl, paths, work)
    out = work / wl.out_file
    attempted = failed = 0

    def load_once() -> float:
        nonlocal attempted, failed
        run = spawn(setup_argv, work)
        attempted += 1
        if run.returncode != 0:
            outputs.fail(f"set-up exit status {run.returncode}: "
                         f"{run.stderr.strip()[-300:]}")
            failed += 1
        return run.wall_s

    load_once()
    walls, rss, setup = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
        out.unlink(missing_ok=True)
        run = spawn([sys.executable, "-m", "labelsim.cli"]
                    + cli_argv(wl, paths, out), work)
        attempted += 1
        walls.append(run.wall_s)
        rss.append(run.peak_rss_mb)
        if not outputs.judge(run, out):
            failed += 1
        if len(walls) % SETUP_EVERY == 1:
            setup.append(load_once())
    return {"attempted": attempted, "failed": failed,
            "errors": outputs.errors,
            "samples": {"wall_s": len(walls), "setup_s": len(setup),
                        "peak_rss_mb": len(rss)},
            "values": {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": statistics.median(rss)},
            "spread": {"wall_s": (min(walls), max(walls)),
                       "setup_s": (min(setup), max(setup)),
                       "peak_rss_mb": (min(rss), max(rss))}}


def layer_shares(summary: dict, import_s: float) -> dict[str, float]:
    """Each layer's summed self time, and the import, as a share of their
    total: where the traced run spent the time the spans account for."""
    totals = {"import": import_s}
    for key, value in summary.items():
        if key.endswith(".self_s"):
            layer = key.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return {layer: round(t / whole, 3) for layer, t in
            sorted(totals.items(), key=lambda kv: -kv[1])}


def traced(wl: Workload, paths: dict, work: Path, seed: int) -> dict:
    outputs = Outputs(wl, paths, work)
    out = work / wl.out_file
    failed = 0

    # Untraced and traced runs alternate, so the overhead compares medians
    # taken over the same stretch of time; the spans are the last run's.
    span_file = work / "spans.json"
    plain_walls, traced_walls = [], []
    for _ in range(TRACE_REPEATS):
        for argv, walls in (
                ([sys.executable, "-m", "labelsim.cli"], plain_walls),
                ([sys.executable, str(HERE / "traced_cli.py"),
                  str(span_file), "--"], traced_walls)):
            out.unlink(missing_ok=True)
            run = spawn(argv + cli_argv(wl, paths, out), work)
            walls.append(run.wall_s)
            failed += not outputs.judge(run, out)

    values: dict[str, float] = {}
    extra: dict = {}
    if span_file.exists():
        doc = json.loads(span_file.read_text(encoding="utf-8"))
        values.update(spans.summarize(doc))
        extra["layer_self_share"] = layer_shares(values, doc["import_s"])
        values.update(doc["counters"])
        values["cli.import_s"] = doc["import_s"]
        values["correlate.render.self_s"] = sum(
            v for k, v in values.items()
            if k.startswith("correlate.render") and k.endswith(".self_s"))
        problems = doc["counters"].get("embmetrics.solve_transport.problems", 0)
        values["embmetrics.solve_transport.types_mean"] = (
            doc["counters"].get("embmetrics.solve_transport.types_sum", 0)
            / problems if problems else 0.0)
        # The pool size the CLI resolved, as passed to the scoring layer.
        extra["scoring_pool"] = doc["counters"].get(
            "correlate.compute_metric_scores.jobs")
        extra["hook_errors"] = doc["hook_errors"]
        extra["wrapped_bindings"] = len(doc["wrapped"])
        extra["spans"] = len(doc["spans"])
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.untraced_wall_s"] = statistics.median(plain_walls)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])

    # The probe always uses the text-report inputs for this seed.
    text = WORKLOADS["text-report"]
    probe_paths = paths if wl is text else prepare(text, seed, work / "probe")
    sys.path.insert(0, str(SRC))
    import probe
    got = probe.sinkhorn_probe(probe_paths["pairs"], probe_paths["embeddings"],
                               PROBE_PROBLEMS)
    if got is not None:
        values.update(got)
    return {"attempted": 2 * TRACE_REPEATS, "failed": failed,
            "errors": outputs.errors, "values": values, "extra": extra}


# ---------------------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    work = WORK / f"{wl.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = prepare(wl, seed, work)
        meta = {"workload": wl.name, "seed": seed,
                "why": next((w["why"] for w in spec["workloads"]
                             if w["name"] == wl.name), ""),
                "cli_args": list(wl.args),
                "inputs_sha256": {k: gen.sha256(p) for k, p in paths.items()}}
        if trace:
            res = traced(wl, paths, work, seed)
            wanted = spec["per_layer"]
        else:
            res = timed(wl, paths, work, seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run is using it
            pass

    metrics, absent = {}, []
    for m in wanted:
        value = res["values"].get(m["name"])
        if value is None:
            absent.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    res["metrics"], res["absent"], res["meta"] = metrics, absent, meta
    return res


def print_table(wl_name: str, res: dict, trace: bool) -> None:
    print(f"# {wl_name}: {res['attempted']} runs attempted, "
          f"{res['failed']} failed")
    for name, m in res["metrics"].items():
        note = ""
        if not trace:
            lo, hi = res["spread"][name]
            n = res["samples"][name]
            note = f"  (median of {n}; min {lo:.4g}, max {hi:.4g})"
        print(f"{wl_name:20} {name:48} {m['value']:>14.6g} {m['unit']}{note}")
    if not trace:
        rate = res["failed"] / res["attempted"]
        print(f"{wl_name:20} {'error_rate':48} {rate:>14.6g} share"
              f"  ({res['failed']} of {res['attempted']} runs failed)")
    if res["absent"]:
        print(f"# absent (reported as 0): {', '.join(res['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a polite kill into an exception, so the running child is killed
    # and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "labelsim" / "cli.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no labelsim source checkout around {HERE}",
              file=sys.stderr)
        return 2

    spec = load_spec()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace), spec)
        print_table(name, res, bool(args.trace))
        print("# meta " + json.dumps(dict(res["meta"], **res.get("extra", {}),
                                          errors=res["errors"][:5])))
        results[name] = res
    print("# machine " + json.dumps(machine_info()))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
