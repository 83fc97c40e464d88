"""Correlating metric scores with (filtered) human gold labels.

The gold value of a pair is the arithmetic mean of its surviving labels.
Pearson is the headline statistic; Spearman rides along in a secondary
column.  A constant or non-finite input makes a correlation undefined and
that is an error here, never a silent zero (or a silent one).

A metric score is one plain float per pair; :func:`compute_metric_scores`
negates the :data:`DISTANCE_METRICS` and the distance channels, so higher
always means more similar, and leaves out the pairs a metric cannot score.

:func:`correlation_report` works on integer columns: the corpus's cached
annotation columns give every annotation a (pair index, annotator index,
label) row, with pairs indexed in sorted ``pair_id`` order, and every
metric becomes a value array with a ``defined`` mask over those pairs;
the mask's gaps are the metric's dropped pairs.  A filter subset is then
only a keep mask over annotators (the panel minus the annotators its
flags remove).  The flags are the caller's: one
:class:`~labelsim.heuristics.FlagPass` from ``compute_flag_reports`` is
handed to every report of a run, and this module runs no heuristic
itself.  Gold means come from ``np.bincount`` over the kept rows, and
the observations handed to :func:`pearson` and :func:`spearman` are,
element for element and in order, those of a join on sorted pair ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import LabeledCorpus, SentencePair
from .heuristics import (FlagPass, HeuristicId, flagged_annotators,
                         heuristic_subsets, normalize_subset, subset_label)
from . import embmetrics, textmetrics


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation has no defined value (constant or
    non-finite input)."""


def _finite(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise UndefinedCorrelationError(
            "correlation undefined: an input is not finite")
    return arr


def _constant(arr: np.ndarray) -> bool:
    """Whether every element is the very same value; a mean of equal
    values need not be that value, so the spread is no test of this."""
    return bool(arr.min() == arr.max())


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; raises on constant or non-finite input."""
    if len(xs) != len(ys):
        raise ValueError("correlation inputs must have equal length")
    if len(xs) < 3:
        raise ValueError("correlation needs at least 3 observations")
    x = _finite(xs)
    y = _finite(ys)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0 or _constant(x) or _constant(y):
        raise UndefinedCorrelationError(
            "correlation undefined: an input is constant")
    r = float((dx * dy).sum() / (sx * sy))
    if not math.isfinite(r):
        raise UndefinedCorrelationError(
            "correlation undefined: the result is not finite")
    return max(-1.0, min(1.0, r))


def _ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; ties share the average of the ranks they span.

    Every member of a tie group gets the same rank, so the order of equal
    values inside the sort cannot change any rank: numpy's default sort,
    several times faster than the stable one here, gives the same ranks.
    Sorts whose tie order is read (``_Columns.build``'s rows, the
    transport start, the matching's transpose, the disagreement rows in
    ``stats``) stay stable.
    """
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr)
    ordered = arr[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], arr.size) - 1
    ranks = np.empty(arr.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks on ties); raises on
    constant or non-finite input."""
    if len(xs) != len(ys):
        raise ValueError("correlation inputs must have equal length")
    return pearson(_ranks(_finite(xs)), _ranks(_finite(ys)))


def percent_change(value: float, baseline: float) -> float:
    """Relative change in percent against a non-zero baseline."""
    if baseline == 0.0:
        raise ZeroDivisionError("percent change undefined for zero baseline")
    return (value - baseline) / abs(baseline) * 100.0


# ---------------------------------------------------------------------------
# metric scoring over a corpus


LEXICAL_METRICS = tuple(textmetrics.lexical_metric_names())
EMBEDDING_METRICS = ("cosine", "l2", "wmd", "pos_dist")
# the embedding metrics that always read word vectors; l2 can instead
# come from sentence embeddings
WORD_VECTOR_METRICS = ("cosine", "wmd", "pos_dist")
# the native metrics that are distances: lower means more similar
DISTANCE_METRICS = ("l2", "wmd", "pos_dist")
# a report leaves out a metric undefined on more than this share of pairs
UNAVAILABLE_FRACTION = 0.5


def metric_universe(corpus: Optional[LabeledCorpus] = None) -> list[str]:
    names = list(LEXICAL_METRICS) + list(EMBEDDING_METRICS)
    if corpus is not None:
        names.extend(sorted(corpus.precomputed_scores))
    return names


def compute_metric_scores(corpus: LabeledCorpus,
                          metrics: Sequence[str],
                          table: Optional[embmetrics.EmbeddingTable] = None,
                          noun_tagger: Optional[Callable] = None,
                          gold_tags: Optional[Mapping] = None,
                          sent_embeddings: Optional[Mapping] = None,
                          distance_channels: Iterable[str] = (),
                          overlap_mode: str = "jaccard",
                          pos_aggregate: str = "matched",
                          oriented: bool = True,
                          ) -> dict[str, dict[str, float]]:
    """Score every pair with the requested metrics.

    Returns ``scores[name][pair_id]``; a pair on which a metric is
    undefined is absent from its map.  Precomputed channels are pulled
    from the corpus.  With ``oriented`` every metric in
    :data:`DISTANCE_METRICS` or ``distance_channels`` is negated, last
    and in this one place, so higher always means more similar;
    ``oriented=False`` keeps every value raw (distances stay positive),
    which is what the metric-matrix dump wants.
    """
    metrics = list(metrics)
    known = set(metric_universe(corpus))
    for name in metrics:
        if name not in known:
            raise ValueError(f"unknown metric {name!r}")
    if "pos_dist" in metrics and pos_aggregate not in embmetrics.POS_AGGREGATES:
        raise ValueError(f"unknown pos_distance aggregate {pos_aggregate!r}")
    needs_table = [m for m in metrics if m in WORD_VECTOR_METRICS]
    if needs_table and table is None:
        raise ValueError(f"metrics {needs_table} need an embedding table")
    if "l2" in metrics and table is None and sent_embeddings is None:
        raise ValueError(
            "metric 'l2' needs an embedding table or sentence embeddings")
    if "pos_dist" in metrics and gold_tags is None and noun_tagger is None:
        noun_tagger = embmetrics.lexicon_noun_tagger()

    lexical = [m for m in metrics if m in LEXICAL_METRICS]
    embedding = [m for m in metrics if m in EMBEDDING_METRICS]
    distance_channels = set(distance_channels)

    def embeddable(tokens) -> bool:
        return any(t in table.vectors for t in tokens)

    def score_one(pair: SentencePair, tokens_a, tokens_b) -> dict[str, float]:
        """The embedding metrics of one pair; a metric that needs word
        vectors drops the pair when a side has none, and any other error
        is raised."""
        out: dict[str, float] = {}
        means = None  # each side's mean token vector, computed once
        if "cosine" in metrics or ("l2" in metrics and sent_embeddings is None):
            try:
                means = (embmetrics.sentence_vector(tokens_a, table),
                         embmetrics.sentence_vector(tokens_b, table))
            except ValueError:
                pass
        if "cosine" in metrics and means is not None:
            try:
                out["cosine"] = embmetrics.cosine_similarity(*means)
            except ValueError:
                pass
        if "l2" in metrics:
            if sent_embeddings is not None:
                sides = sent_embeddings.get(pair.pair_id, {})
                vectors = (sides["a"], sides["b"]) \
                    if "a" in sides and "b" in sides else None
            else:
                vectors = means
            if vectors is not None:
                out["l2"] = embmetrics.l2_distance(*vectors)
        if "wmd" in metrics and embeddable(tokens_a) \
                and embeddable(tokens_b):
            out["wmd"] = embmetrics.wmd(tokens_a, tokens_b, table)
        if "pos_dist" in metrics:
            if gold_tags is not None:
                nouns = [embmetrics.nouns_from_tags(
                    tokens, gold_tags.get((pair.pair_id, side), {}))
                    for side, tokens in (("a", tokens_a), ("b", tokens_b))]
            else:
                nouns = [noun_tagger(tokens_a), noun_tagger(tokens_b)]
            dist = embmetrics.pos_distance(*nouns, list, table,
                                           aggregate=pos_aggregate)
            if dist is not None:
                out["pos_dist"] = dist
        return out

    pairs = list(corpus.pairs)
    scores: dict[str, dict[str, float]] = {name: {} for name in metrics}
    # precomputed channels alone need no per-pair pass
    blocks = textmetrics.pair_blocks(len(pairs)) if lexical or embedding \
        else []
    for part in blocks:
        block = pairs[part]
        texts_a = [p.text_a for p in block]
        texts_b = [p.text_b for p in block]
        tokens_a = tokens_b = None
        if embedding:
            tokens_a = [textmetrics.tokenize(t) for t in texts_a]
            tokens_b = [textmetrics.tokenize(t) for t in texts_b]
        try:
            columns = textmetrics.score_lexical_block(
                lexical, texts_a, texts_b, tokens_a, tokens_b, overlap_mode)
        except textmetrics.EmptyText as exc:
            raise exc.for_pair(block[exc.index].pair_id) from None
        for name, column in columns.items():
            for pair, value in zip(block, column):
                scores[name][pair.pair_id] = value
        if embedding:
            for pair, tok_a, tok_b in zip(block, tokens_a, tokens_b):
                try:
                    values = score_one(pair, tok_a, tok_b)
                except ValueError as exc:
                    raise ValueError(f"pair {pair.pair_id!r}: {exc}") \
                        from None
                for name, value in values.items():
                    scores[name][pair.pair_id] = value

    for name in scores:
        if name in corpus.precomputed_scores:
            scores[name] = dict(corpus.precomputed_scores[name])
        if oriented and (name in DISTANCE_METRICS
                         or name in distance_channels):
            scores[name] = {pid: -value for pid, value in scores[name].items()}
    return scores


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class MetricCorrelation:
    """One cell; a subset cell left with fewer than 3 observations (its
    filters emptied the panel, say) or with a constant input (every
    surviving label is a 3, say) has ``None`` for both statistics."""

    pearson: Optional[float]
    spearman: Optional[float]
    n_pairs: int


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[HeuristicId, ...]
    removed_annotators: tuple[str, ...]
    cells: dict[str, MetricCorrelation]
    pct_change: dict[str, tuple[Optional[float], Optional[float]]]


@dataclass(frozen=True)
class CorrelationReport:
    label: str
    status: str
    metrics: tuple[str, ...]
    baseline: dict[str, MetricCorrelation]
    subsets: tuple[SubsetResult, ...]
    dropped: dict[str, int]
    unavailable: dict[str, str]
    n_pairs: int = 0


@dataclass(frozen=True)
class _Columns:
    """A corpus and its metric scores as arrays, built once per report.

    Pairs are indexed in sorted ``pair_id`` order, as in the corpus's
    annotation columns, and the annotation rows are stably sorted by that
    index, so rows of one pair stay in corpus order.  ``values[name]`` /
    ``defined[name]`` hold each metric over the same pair index.
    """

    n_pairs: int           # the length of per-pair arrays
    annotators: dict[str, int]
    pair: np.ndarray       # pair index per annotation row, ascending
    annotator: np.ndarray  # annotator index per annotation row
    label: np.ndarray      # float label per annotation row
    values: dict[str, np.ndarray]
    defined: dict[str, np.ndarray]

    @classmethod
    def build(cls, corpus: LabeledCorpus,
              metric_scores: Mapping[str, Mapping[str, float]],
              names: Sequence[str]) -> "_Columns":
        columns = corpus.columns
        pair_index = {pid: i for i, pid in enumerate(columns.pair_ids)}
        order = np.argsort(columns.pair, kind="stable")
        values: dict[str, np.ndarray] = {}
        defined: dict[str, np.ndarray] = {}
        for name in names:
            vals = np.zeros(len(pair_index), dtype=np.float64)
            mask = np.zeros(len(pair_index), dtype=bool)
            for pid, value in metric_scores[name].items():
                i = pair_index.get(pid)
                if i is not None:
                    vals[i] = value
                    mask[i] = True
            values[name] = vals
            defined[name] = mask
        return cls(n_pairs=len(pair_index),
                   annotators={aid: i for i, aid
                               in enumerate(columns.annotator_ids)},
                   pair=columns.pair[order],
                   annotator=columns.annotator[order],
                   label=columns.label[order].astype(np.float64),
                   values=values, defined=defined)

    def panel(self, annotator_ids: Optional[set]) -> np.ndarray:
        """Keep mask over annotators: everyone, or just ``annotator_ids``."""
        if annotator_ids is None:
            return np.ones(len(self.annotators), dtype=bool)
        return np.fromiter((aid in annotator_ids for aid in self.annotators),
                           dtype=bool, count=len(self.annotators))

    def cells(self, names: Sequence[str], keep: np.ndarray,
              per_annotation: bool, allow_undefined: bool = False
              ) -> dict[str, MetricCorrelation]:
        """Correlate each metric with the gold of the kept annotators.

        Gold is one mean per pair, or with ``per_annotation`` every kept
        label as its own observation (ordered by pair, then corpus order).
        With ``allow_undefined`` a metric with fewer than 3 observations,
        or with a constant input, gets an undefined cell; otherwise such
        a metric is an error that names it.
        """
        kept = keep[self.annotator]
        pair = self.pair[kept]
        label = self.label[kept]
        counts = np.bincount(pair, minlength=self.n_pairs)
        has_gold = counts > 0
        gold = np.bincount(pair, weights=label, minlength=self.n_pairs) \
            / np.maximum(counts, 1)
        cells = {}
        for name in names:
            joined = self.defined[name] & has_gold
            if per_annotation:
                observed = joined[pair]
                xs = self.values[name][pair[observed]]
                ys = label[observed]
            else:
                xs = self.values[name][joined]
                ys = gold[joined]
            if allow_undefined and (xs.size < 3 or _constant(xs)
                                    or _constant(ys)):
                cells[name] = MetricCorrelation(None, None, int(joined.sum()))
                continue
            try:
                cells[name] = MetricCorrelation(
                    pearson=pearson(xs, ys),
                    spearman=spearman(xs, ys),
                    n_pairs=int(joined.sum()),
                )
            except ValueError as exc:
                raise type(exc)(f"metric {name!r}: {exc}") from None
        return cells


def _pct_pair(cell: MetricCorrelation, base: MetricCorrelation
              ) -> tuple[Optional[float], Optional[float]]:
    """Percent changes of Pearson and Spearman; None where the cell is
    undefined or the baseline statistic is exactly 0."""
    def pct(value, baseline):
        if value is None or baseline == 0.0:
            return None
        return percent_change(value, baseline)

    return (pct(cell.pearson, base.pearson),
            pct(cell.spearman, base.spearman))


def correlation_report(corpus: LabeledCorpus,
                       metric_scores: Mapping[str, Mapping[str, float]],
                       reports: FlagPass,
                       subsets: Optional[Sequence[Sequence[HeuristicId]]] = None,
                       annotator_ids: Optional[set] = None,
                       label: str = "all annotators",
                       per_annotation: bool = False,
                       ) -> CorrelationReport:
    """Baseline and per-filter-subset correlations for every metric.

    ``metric_scores`` holds oriented per-pair values as produced by
    :func:`compute_metric_scores`; a pair of ``corpus`` missing from a
    metric's map counts as dropped, and a scored pair outside ``corpus``
    is ignored.  A metric undefined on more than
    :data:`UNAVAILABLE_FRACTION` of the pairs is excluded and listed under
    ``unavailable``.  ``annotator_ids`` restricts the gold computation to
    a sub-population (the style reports use this).  A subset removes the
    annotators whose ``reports`` (one flag pass over ``corpus``) carry any
    of its flags; ``subsets`` defaults to every non-empty subset of the
    heuristics the pass evaluated, and a subset using any other heuristic
    is an error.
    """
    subsets = [normalize_subset(s) for s in subsets] if subsets is not None \
        else heuristic_subsets(reports.heuristics)
    removals = [tuple(sorted(flagged_annotators(reports, s))) for s in subsets]

    columns = _Columns.build(corpus, metric_scores, list(metric_scores))
    n_pairs = columns.n_pairs
    dropped = {name: n_pairs - int(columns.defined[name].sum())
               for name in metric_scores}
    usable: list[str] = []
    unavailable: dict[str, str] = {}
    for name, missing in dropped.items():
        if missing > UNAVAILABLE_FRACTION * n_pairs:
            unavailable[name] = (
                f"undefined on {missing} of {n_pairs} pairs")
        else:
            usable.append(name)

    if annotator_ids is not None and not annotator_ids:
        return CorrelationReport(
            label=label, status="empty: no annotators in this panel",
            metrics=(), baseline={}, subsets=(), dropped=dropped,
            unavailable=unavailable, n_pairs=n_pairs)

    panel = columns.panel(annotator_ids)
    try:
        baseline = columns.cells(usable, panel, per_annotation)
    except ValueError as exc:
        raise type(exc)(f"{label}: {exc}") from None

    subset_rows = []
    for subset, removed in zip(subsets, removals):
        keep = panel.copy()
        keep[[columns.annotators[aid] for aid in removed
              if aid in columns.annotators]] = False
        cells = columns.cells(usable, keep, per_annotation,
                              allow_undefined=True)
        pct = {name: _pct_pair(cells[name], baseline[name]) for name in usable}
        subset_rows.append(SubsetResult(
            subset=subset,
            removed_annotators=removed,
            cells=cells,
            pct_change=pct,
        ))

    return CorrelationReport(
        label=label, status="ok", metrics=tuple(usable), baseline=baseline,
        subsets=tuple(subset_rows), dropped=dropped,
        unavailable=unavailable, n_pairs=n_pairs)


def style_split_report(corpus: LabeledCorpus,
                       metric_scores: Mapping[str, Mapping[str, float]],
                       reports: FlagPass,
                       subsets: Optional[Sequence[Sequence[HeuristicId]]] = None,
                       exclude_midpoint_from_variance: bool = False,
                       ) -> tuple[CorrelationReport, CorrelationReport]:
    """Correlation reports using gold means from Radical-only and
    Centrist-only annotators, in that order, both filtered by the one
    flag pass ``reports``."""
    from .stats import Style, annotator_profiles

    profiles = annotator_profiles(
        corpus, exclude_midpoint_from_variance=exclude_midpoint_from_variance)
    return tuple(
        correlation_report(corpus, metric_scores, reports, subsets,
                           annotator_ids={aid for aid, p in profiles.items()
                                          if p.style is style},
                           label=f"{style.value}-only gold")
        for style in (Style.RADICAL, Style.CENTRIST))


# ---------------------------------------------------------------------------
# renderers


_CSV_HEADER = ("panel,filter,metric,pearson,spearman,pearson_pct,spearman_pct,"
               "n_pairs,dropped_pairs,removed_annotators")


def _fmt(value: Optional[float], spec: str = ".6f") -> str:
    return "" if value is None else format(value, spec)


def _csv_rows(report: CorrelationReport) -> list[str]:
    panel = report.label.replace(",", ";")
    lines = []
    for name in report.metrics:
        cell = report.baseline[name]
        lines.append(
            f"{panel},baseline,{name},{_fmt(cell.pearson)},"
            f"{_fmt(cell.spearman)},,,{cell.n_pairs},"
            f"{report.dropped.get(name, 0)},")
    for row in report.subsets:
        tag = "+".join(str(int(h)) for h in row.subset)
        for name in report.metrics:
            cell = row.cells[name]
            p_pct, s_pct = row.pct_change[name]
            lines.append(
                f"{panel},{tag},{name},{_fmt(cell.pearson)},"
                f"{_fmt(cell.spearman)},{_fmt(p_pct, '.2f')},"
                f"{_fmt(s_pct, '.2f')},{cell.n_pairs},,"
                f"{len(row.removed_annotators)}")
    return lines


def _json_float(value: Optional[float]) -> Optional[float]:
    """A float cut to 12 significant digits, so that the json report does
    not move with last-place changes in the arithmetic; None stays None."""
    return None if value is None else float(f"{value:.12g}")


def report_doc(report: CorrelationReport) -> dict:
    """The report as plain json-ready data, floats at 12 significant digits."""
    def cell_dict(cell: MetricCorrelation) -> dict:
        return {"pearson": _json_float(cell.pearson),
                "spearman": _json_float(cell.spearman),
                "n_pairs": cell.n_pairs}

    return {
        "label": report.label,
        "status": report.status,
        "n_pairs": report.n_pairs,
        "metrics": list(report.metrics),
        "dropped_pairs": {k: report.dropped[k] for k in sorted(report.dropped)},
        "unavailable": {k: report.unavailable[k]
                        for k in sorted(report.unavailable)},
        "baseline": {name: cell_dict(report.baseline[name])
                     for name in report.metrics},
        "subsets": [
            {
                "subset": [int(h) for h in row.subset],
                "removed_annotators": list(row.removed_annotators),
                "cells": {
                    name: dict(cell_dict(row.cells[name]),
                               pearson_pct=_json_float(row.pct_change[name][0]),
                               spearman_pct=_json_float(row.pct_change[name][1]))
                    for name in report.metrics
                },
            }
            for row in report.subsets
        ],
    }


def render_report_text(report: CorrelationReport) -> str:
    lines = [f"Correlation report ({report.label}); gold = mean surviving label"]
    if report.status != "ok":
        lines.append(f"status: {report.status}")
        return "\n".join(lines) + "\n"
    width = max([len("filter")] + [len(subset_label(r.subset))
                                   for r in report.subsets])
    header = "filter".ljust(width) + "".join(
        f"  {name:>20}" for name in report.metrics)
    lines.append(header)
    base_cells = "".join(
        f"  {report.baseline[name].pearson:>20.4f}" for name in report.metrics)
    lines.append("baseline".ljust(width) + base_cells)
    for row in report.subsets:
        cells = ""
        for name in report.metrics:
            val = row.cells[name].pearson
            pct = row.pct_change[name][0]
            if val is None:
                shown = "n/a"
            elif pct is None:
                shown = f"{val:.4f} (n/a)"
            else:
                shown = f"{val:.4f} ({pct:+.1f}%)"
            cells += f"  {shown:>20}"
        lines.append(subset_label(row.subset).ljust(width) + cells)
    if report.unavailable:
        lines.append("")
        for name in sorted(report.unavailable):
            lines.append(f"unavailable: {name} ({report.unavailable[name]})")
    return "\n".join(lines) + "\n"


def render_reports(panels: CorrelationReport | Mapping[str, CorrelationReport],
                   fmt: str) -> str:
    """A run's reports as one document in ``fmt``: "text", "csv" or "json".

    ``panels`` is one report, or a mapping from a key to each panel of a
    multi-panel run.  Text puts the panels one after another; CSV writes
    one header, then every panel's rows; JSON writes the report's object,
    or one object holding each panel's under its key.
    """
    single = isinstance(panels, CorrelationReport)
    reports = [panels] if single else list(panels.values())
    if fmt == "json":
        doc = report_doc(panels) if single \
            else {key: report_doc(r) for key, r in panels.items()}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for r in reports:
            lines.extend(_csv_rows(r))
        return "\n".join(lines) + "\n"
    return "".join(render_report_text(r) for r in reports)
