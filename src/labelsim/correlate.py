"""Correlating metric scores with (filtered) human gold labels.

The gold value of a pair is the arithmetic mean of its surviving labels.
Pearson is the headline statistic; Spearman rides along in a secondary
column.  A constant or non-finite input makes a correlation undefined and
that is an error here, never a silent zero (or a silent one).  A report
has one rule for it: a cell is undefined exactly when :func:`pearson` or
:func:`spearman` raises.  In a baseline that fails the report, naming the
panel and the metric; a filter-subset cell becomes undefined instead, and
its percent changes, derived from the cell and the baseline whenever a
report is rendered, are undefined with it.

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
handed to every report of a run, its heuristics give the report's rows
(every non-empty subset of them), and this module runs no heuristic
itself.  Gold means come from ``np.bincount`` over the kept rows, and
the observations handed to :func:`pearson` and :func:`spearman` are,
element for element and in order, those of a join on sorted pair ids.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import AnnotationColumns, LabeledCorpus, SentencePair
from .heuristics import (FlagPass, HeuristicId, flagged_annotators,
                         heuristic_subsets, subset_label)
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
    """Sample Pearson correlation; raises on constant or non-finite input.

    Each input is scaled by the power of two that puts its largest
    magnitude in [0.5, 1).  That is exact, so ``r`` does not depend on
    the input's scale and equals what the unscaled sums give wherever
    they neither overflow nor underflow.  Limit: an input whose
    magnitudes span more than the double range (about 1e-308 to 1e308)
    can lose its smallest entries to subnormals or zero once scaled.

    The scaling also keeps ``r`` finite: a scaled input that is not
    constant holds its largest magnitude, in [0.5, 1), and another value
    at least 2**-54 from it, so its centred sum of squares lies between
    about 1e-33 and 4n; and ``|cov| <= sx * sy`` up to rounding
    (Cauchy-Schwarz), which the clamp to [-1, 1] absorbs.
    """
    if len(xs) != len(ys):
        raise ValueError("correlation inputs must have equal length")
    if len(xs) < 3:
        raise ValueError("correlation needs at least 3 observations")
    x = _finite(xs)
    y = _finite(ys)
    if _constant(x) or _constant(y):
        raise UndefinedCorrelationError(
            "correlation undefined: an input is constant")
    x = np.ldexp(x, -math.frexp(float(np.abs(x).max()))[1])
    y = np.ldexp(y, -math.frexp(float(np.abs(y).max()))[1])
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    r = float((dx * dy).sum() / (sx * sy))
    return max(-1.0, min(1.0, r))


def _ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; ties share the average of the ranks they span.

    Every member of a tie group gets the same rank, so the order of equal
    values inside the sort cannot change any rank: numpy's default sort,
    several times faster than the stable one here, gives the same ranks.
    Sorts whose tie order is read (``AnnotationColumns.by_pair``, the
    transport start, the matching's transpose) stay stable.
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


LEXICAL_METRICS = tuple(textmetrics.LEXICAL_SCORERS)
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
        return any(t in table for t in tokens)

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
            dist = embmetrics.pos_distance(*nouns, table,
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
    """One cell; a subset cell whose statistics are undefined (its filters
    left fewer than 3 observations, or every surviving label is a 3, say)
    has ``None`` for both."""

    pearson: Optional[float]
    spearman: Optional[float]
    n_pairs: int


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[HeuristicId, ...]
    removed_annotators: tuple[str, ...]
    cells: dict[str, MetricCorrelation]


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
    """A corpus's annotation columns and its metric scores as arrays.

    ``values[name]`` / ``defined[name]`` hold each metric over the pair
    index of ``columns``, the corpus's cached :class:`AnnotationColumns`,
    so every report on one corpus reads the same annotation arrays.
    """

    columns: AnnotationColumns
    values: dict[str, np.ndarray]
    defined: dict[str, np.ndarray]

    @classmethod
    def build(cls, corpus: LabeledCorpus,
              metric_scores: Mapping[str, Mapping[str, float]],
              names: Sequence[str]) -> "_Columns":
        columns = corpus.columns
        pair_index = columns.pair_index
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
        return cls(columns=columns, values=values, defined=defined)

    def panel(self, annotator_ids: Optional[set]) -> np.ndarray:
        """Keep mask over annotators: everyone, or just ``annotator_ids``."""
        ids = self.columns.annotator_ids
        return np.fromiter((annotator_ids is None or aid in annotator_ids
                            for aid in ids), dtype=bool, count=len(ids))

    def cells(self, names: Sequence[str], keep: np.ndarray,
              per_annotation: bool, allow_undefined: bool = False
              ) -> dict[str, MetricCorrelation]:
        """Correlate each metric with the gold of the kept annotators.

        Gold is one mean per pair, or with ``per_annotation`` every kept
        label as its own observation (ordered by pair, then corpus order).
        A metric is undefined exactly when :func:`pearson` or
        :func:`spearman` raises ``ValueError`` on its observations (fewer
        than 3, or a constant input).  With ``allow_undefined`` it gets an
        undefined cell; otherwise it is an error that names it.
        """
        columns = self.columns
        kept = keep[columns.annotator]
        # label sums are exact in any order; observations need pair order
        rows = columns.by_pair[kept[columns.by_pair]] if per_annotation \
            else kept
        pair = columns.pair[rows]
        label = columns.label[rows]
        counts = np.bincount(pair, minlength=len(columns.pair_ids))
        has_gold = counts > 0
        gold = np.bincount(pair, weights=label, minlength=counts.size) \
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
            n = int(joined.sum())
            try:
                cells[name] = MetricCorrelation(pearson(xs, ys),
                                                spearman(xs, ys), n)
            except ValueError as exc:
                if not allow_undefined:
                    raise type(exc)(f"metric {name!r}: {exc}") from None
                cells[name] = MetricCorrelation(None, None, n)
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
    a sub-population (the style reports use this).  There is one row per
    non-empty subset of the heuristics that ``reports`` (one flag pass
    over ``corpus``) evaluated, and a row removes the annotators whose
    reports carry any of its flags.
    """
    subsets = heuristic_subsets(reports.heuristics)
    removals = [tuple(sorted(flagged_annotators(reports, s))) for s in subsets]

    columns = _Columns.build(corpus, metric_scores, list(metric_scores))
    n_pairs = len(corpus.columns.pair_ids)
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

    index = corpus.columns.annotator_index
    subset_rows = []
    for subset, removed in zip(subsets, removals):
        keep = panel.copy()
        keep[[index[aid] for aid in removed if aid in index]] = False
        subset_rows.append(SubsetResult(
            subset=subset,
            removed_annotators=removed,
            cells=columns.cells(usable, keep, per_annotation,
                                allow_undefined=True),
        ))

    return CorrelationReport(
        label=label, status="ok", metrics=tuple(usable), baseline=baseline,
        subsets=tuple(subset_rows), dropped=dropped,
        unavailable=unavailable, n_pairs=n_pairs)


def style_split_report(corpus: LabeledCorpus,
                       metric_scores: Mapping[str, Mapping[str, float]],
                       reports: FlagPass,
                       exclude_midpoint_from_variance: bool = False,
                       ) -> tuple[CorrelationReport, CorrelationReport]:
    """Correlation reports using gold means from Radical-only and
    Centrist-only annotators, in that order, both filtered by the one
    flag pass ``reports``."""
    from .stats import Style, annotator_profiles

    profiles = annotator_profiles(
        corpus, exclude_midpoint_from_variance=exclude_midpoint_from_variance)
    return tuple(
        correlation_report(corpus, metric_scores, reports,
                           annotator_ids={aid for aid, p in profiles.items()
                                          if p.style is style},
                           label=f"{style.value}-only gold")
        for style in (Style.RADICAL, Style.CENTRIST))


# ---------------------------------------------------------------------------
# renderers


_CSV_HEADER = ("panel", "filter", "metric", "pearson", "spearman",
               "pearson_pct", "spearman_pct", "n_pairs", "dropped_pairs",
               "removed_annotators")


def _fmt(value: Optional[float], spec: str = ".6f") -> str:
    return "" if value is None else format(value, spec)


def _csv_rows(report: CorrelationReport) -> list[list]:
    rows = []
    for name in report.metrics:
        cell = report.baseline[name]
        rows.append([report.label, "baseline", name, _fmt(cell.pearson),
                     _fmt(cell.spearman), "", "", cell.n_pairs,
                     report.dropped.get(name, 0), ""])
    for row in report.subsets:
        tag = "+".join(str(int(h)) for h in row.subset)
        for name in report.metrics:
            cell = row.cells[name]
            p_pct, s_pct = _pct_pair(cell, report.baseline[name])
            rows.append([report.label, tag, name, _fmt(cell.pearson),
                         _fmt(cell.spearman), _fmt(p_pct, ".2f"),
                         _fmt(s_pct, ".2f"), cell.n_pairs, "",
                         len(row.removed_annotators)])
    return rows


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

    def subset_cell_dict(cell: MetricCorrelation, name: str) -> dict:
        p_pct, s_pct = _pct_pair(cell, report.baseline[name])
        return dict(cell_dict(cell), pearson_pct=_json_float(p_pct),
                    spearman_pct=_json_float(s_pct))

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
                "cells": {name: subset_cell_dict(row.cells[name], name)
                          for name in report.metrics},
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
            pct = _pct_pair(row.cells[name], report.baseline[name])[0]
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
        return _csv_text([_CSV_HEADER,
                          *(row for r in reports for row in _csv_rows(r))])
    return "".join(render_report_text(r) for r in reports)


def _csv_text(rows) -> str:
    """``rows`` as CSV, quoting only the fields that need it: the one
    writer of the reports' CSV and of the other commands'."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
