"""Output checks, recomputed from the input files with numpy/scipy only.

Usage: python3 perfbench/checks.py CHECK INPUTS_JSON REPORT

Each check takes the workload's input paths and the report text and
raises ``CheckFailed`` naming what disagreed.  None of them imports
labelsim: the reference numbers come straight from the generated files.
The benchmark runs them in a process of their own, so that numpy and
scipy never load into the process that spawns the CLI: a child's peak
resident memory as the kernel reports it includes the spawning
process's own peak.  Exit status 0 means the report passed; otherwise
the reason is the last line of standard output.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import re
from pathlib import Path

import numpy as np
from scipy import stats

LEXICAL = ("word_overlap", "bleu1", "bleu", "chrf", "rouge1", "rouge2",
           "rougeL", "meteor")
EMBEDDING = ("cosine", "l2", "wmd", "pos_dist")
N_SUBSETS = 31

_TOKEN_RE = re.compile(r"[\w']+", re.UNICODE)


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def tokenize(text: str) -> list[str]:
    return [t for t in (raw.strip("'") for raw in
                        _TOKEN_RE.findall(text.lower())) if t]


def read_pairs(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_annotations(path: Path) -> dict[str, list[tuple[str, int, float]]]:
    """annotator_id -> [(pair_id, label, duration)]."""
    out: dict[str, list] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["annotator_id"], []).append(
                (row["pair_id"], int(row["label"]),
                 float(row["duration_seconds"])))
    return out


def gold_means(annotations: dict) -> dict[str, float]:
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for rows in annotations.values():
        for pid, label, _ in rows:
            sums[pid] = sums.get(pid, 0.0) + label
            counts[pid] = counts.get(pid, 0) + 1
    return {pid: sums[pid] / counts[pid] for pid in sums}


def _baseline_series(pairs, annotations, score):
    gold = gold_means(annotations)
    ids = sorted(p["pair_id"] for p in pairs if p["pair_id"] in gold)
    by_id = {p["pair_id"]: p for p in pairs}
    xs = np.array([score(by_id[pid]) for pid in ids])
    ys = np.array([gold[pid] for pid in ids])
    return xs, ys


def read_embeddings(path: Path) -> dict[str, np.ndarray]:
    out = {}
    with path.open(encoding="utf-8") as fh:
        next(fh)  # count/dim header
        for line in fh:
            parts = line.split()
            out[parts[0]] = np.array([float(x) for x in parts[1:]])
    return out


def check_text_csv(paths: dict, text: str) -> None:
    """12 metrics x 32 rows, no drops; word_overlap and cosine baselines."""
    pairs = read_pairs(paths["pairs"])
    rows = list(csv.DictReader(text.splitlines()))
    metrics = LEXICAL + EMBEDDING
    _expect(len(rows) == len(metrics) * (N_SUBSETS + 1),
            f"expected {len(metrics) * (N_SUBSETS + 1)} rows, got {len(rows)}")
    baseline = {r["metric"]: r for r in rows if r["filter"] == "baseline"}
    _expect(tuple(baseline) == metrics,
            f"baseline metrics {list(baseline)} != {list(metrics)}")
    for name, row in baseline.items():
        _expect(row["dropped_pairs"] == "0" and
                row["n_pairs"] == str(len(pairs)),
                f"{name}: n_pairs={row['n_pairs']} "
                f"dropped={row['dropped_pairs']}, expected {len(pairs)} and 0")
    filters = {r["filter"] for r in rows} - {"baseline"}
    _expect(len(filters) == N_SUBSETS, f"{len(filters)} filter subsets")

    def jaccard(p):
        a, b = set(tokenize(p["text_a"])), set(tokenize(p["text_b"]))
        return len(a & b) / len(a | b)

    vectors = read_embeddings(paths["embeddings"])

    def cosine(p):
        va = np.mean([vectors[t] for t in tokenize(p["text_a"])], axis=0)
        vb = np.mean([vectors[t] for t in tokenize(p["text_b"])], axis=0)
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    annotations = read_annotations(paths["annotations"])
    xs, ys = _baseline_series(pairs, annotations, jaccard)
    for stat, want in (("pearson", stats.pearsonr(xs, ys)[0]),
                       ("spearman", stats.spearmanr(xs, ys)[0])):
        got = baseline["word_overlap"][stat]
        _expect(abs(float(got) - want) <= 1.5e-6,
                f"word_overlap baseline {stat} {got} != {want:.6f}")
    xs, ys = _baseline_series(pairs, annotations, cosine)
    want = stats.pearsonr(xs, ys)[0]
    got = baseline["cosine"]["pearson"]
    _expect(abs(float(got) - want) <= 1.5e-6,
            f"cosine baseline pearson {got} != {want:.6f}")


def _variance_below_one(labels: list[int]) -> bool:
    """Population variance < 1, decided exactly in integers:
    sum((l - mean)^2) / n < 1  <=>  n * sum(l^2) - sum(l)^2 < n^2."""
    n, total = len(labels), sum(labels)
    return n * sum(l * l for l in labels) - total * total < n * n


def check_style_json(paths: dict, text: str) -> None:
    """Both panels, both channels with their drop counts, and the
    annotators removed by subsets [1] (slow) and [2] (low variance)."""
    doc = json.loads(text)
    n_pairs = len(read_pairs(paths["pairs"]))
    with paths["ext_dist"].open(encoding="utf-8") as fh:
        n_dist = sum(1 for _ in fh) - 1
    want_dropped = {"ext_dist": n_pairs - n_dist, "ext_sim": 0}

    annotations = read_annotations(paths["annotations"])
    slow = sorted(a for a, rows in annotations.items()
                  if math.fsum(d for _, _, d in rows) > 300.0 * len(rows))
    low_var = sorted(a for a, rows in annotations.items()
                     if _variance_below_one([l for _, l, _ in rows]))
    _expect(slow and low_var, "inputs plant no slow or low-variance annotator")

    _expect(sorted(doc) == ["centrist", "radical"], f"panels {sorted(doc)}")
    for panel, report in doc.items():
        _expect(report["status"] == "ok", f"{panel}: status {report['status']}")
        _expect(report["metrics"] == ["ext_sim", "ext_dist"],
                f"{panel}: metrics {report['metrics']}")
        _expect(report["dropped_pairs"] == want_dropped,
                f"{panel}: dropped {report['dropped_pairs']} != {want_dropped}")
        _expect(len(report["subsets"]) == N_SUBSETS,
                f"{panel}: {len(report['subsets'])} subsets")
        removed = {tuple(s["subset"]): s["removed_annotators"]
                   for s in report["subsets"]}
        for subset, want, what in (((1,), slow, "slow"),
                                   ((2,), low_var, "low-variance")):
            got = removed.get(subset, [])
            _expect(got == want,
                    f"{panel}: subset {list(subset)} removed {len(got)} "
                    f"annotators, expected the {len(want)} {what} ones "
                    f"(extra {sorted(set(got) - set(want))}, "
                    f"missing {sorted(set(want) - set(got))})")


CHECKS = {"text_csv": check_text_csv, "style_json": check_style_json}


def main(argv: list[str]) -> int:
    name, inputs, report = argv
    paths = {role: Path(path) for role, path in
             json.loads(Path(inputs).read_text(encoding="utf-8")).items()}
    try:
        CHECKS[name](paths, Path(report).read_text(encoding="utf-8"))
    except (CheckFailed, ValueError, KeyError, IndexError) as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
