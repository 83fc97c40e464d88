"""Sinkhorn against the exact transport solver on a few WMD problems.

Builds the word mover's transport problems of the first pairs of a
pairs file with the package's own loader, tokenizer and bag-of-words
weights, as ``embmetrics.wmd`` does, and solves each with
``solve_transport`` under its default Sinkhorn settings and exactly.
Only the traced benchmark mode runs it; Sinkhorn is not on any
workload's path.  If the package no longer offers the method, the probe
returns None and its metrics are reported absent.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from scipy.spatial.distance import cdist

from checks import read_pairs


def sinkhorn_probe(pairs_path: Path, embeddings_path: Path,
                   n_problems: int) -> dict | None:
    try:
        from labelsim.embmetrics import (TransportProblem, load_embeddings,
                                         nbow_weights, solve_transport)
        from labelsim.textmetrics import tokenize
    except ImportError:
        return None
    table = load_embeddings(embeddings_path)
    times, exact_times, iterations, converged, gaps = [], [], [], [], []
    for pair in read_pairs(pairs_path)[:n_problems]:
        _, wa, va = nbow_weights(tokenize(pair["text_a"]), table)
        _, wb, vb = nbow_weights(tokenize(pair["text_b"]), table)
        problem = TransportProblem(wa, wb, cdist(va, vb))
        start = time.perf_counter()
        exact = solve_transport(problem, method="exact")
        exact_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        try:
            approx = solve_transport(problem, method="sinkhorn")
        except ValueError:  # the method was removed
            return None
        times.append(time.perf_counter() - start)
        iterations.append(approx.iterations)
        converged.append(bool(approx.converged))
        gaps.append((approx.cost - exact.cost) / max(exact.cost, 1e-12))
    return {
        "embmetrics.sinkhorn.s_per_problem": statistics.median(times),
        "embmetrics.sinkhorn.exact_s_per_problem": statistics.median(exact_times),
        "embmetrics.sinkhorn.iterations_mean": statistics.fmean(iterations),
        "embmetrics.sinkhorn.converged_share": sum(converged) / len(converged),
        "embmetrics.sinkhorn.cost_gap_max": max(gaps),
    }
