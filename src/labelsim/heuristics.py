"""Unreliable-annotator flags and the filter-combination engine.

Five heuristics, numbered as they appear in reports:

1. slow            -- mean labeling time above a threshold
2. low_variance    -- label variance below a threshold
3. high_random     -- labels random pairs above non-random pairs
4. disagreeable    -- overrules unanimous co-annotators too often
5. sentiment_disaligned -- erratic labels on lexically-close but
                           sentiment-divergent pairs

Each heuristic is a threshold rule ``(heuristic, statistic, comparator,
threshold)`` over a per-annotator column: heuristics 1-4 read the
:class:`~labelsim.stats.AnnotatorProfile` records that
:func:`~labelsim.stats.annotator_profiles` builds, the one source of
per-annotator statistics, and heuristic 5 the label sums over
its qualifying pairs (every pair must have word tokens on both sides,
checked once before any overlap is scored).  An annotator is flagged
when the statistic is defined and compares true against the threshold;
the comparison is strict (``>`` for 1, 3, 4 and 5, ``<`` for 2).  A
:class:`FlagReport` keeps the evidence of each flag, and its flags are
the heuristics it has evidence for.

A filter on a heuristic subset is a set of removed annotators:
:func:`flagged_annotators` takes the union of those whose reports carry
any flag of the subset.  Flags are computed once, on the whole corpus,
so a larger subset always removes a superset of annotators.  That one
pass, a :class:`FlagPass`, records the heuristics it evaluated; a
correlation report has one row per non-empty subset of them, and a
subset using any other heuristic is an error: an annotator never tested
for a flag must not read as one who passed.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import LabeledCorpus, pair_scores
from .stats import (AnnotatorProfile, annotator_profiles, label_counts,
                    label_sums, variance_from_sums)
from .textmetrics import (EmptyText, bleu_block, has_tokens, pair_blocks,
                          tokenize)


class HeuristicId(IntEnum):
    SLOW = 1
    LOW_VARIANCE = 2
    HIGH_RANDOM = 3
    DISAGREEABLE = 4
    SENTIMENT_DISALIGNED = 5


@dataclass(frozen=True)
class HeuristicConfig:
    """Thresholds for the five flags; defaults match the report legend."""

    slow_threshold: float = 300.0
    low_variance_threshold: float = 1.0
    disagreement_threshold: float = 0.5
    overlap_threshold: float = 0.8
    sentiment_gap_threshold: float = 1.9
    sentiment_variance_threshold: float = 1.0
    overlap_bleu_order: int = 1
    min_sentiment_pairs: int = 2

    def validate(self) -> None:
        # each test is written to fail on NaN, which compares false
        if not self.slow_threshold > 0:
            raise ValueError("slow_threshold must be positive")
        if not self.low_variance_threshold >= 0:
            raise ValueError("low_variance_threshold must be non-negative")
        if not 0 <= self.disagreement_threshold <= 1:
            raise ValueError("disagreement_threshold must lie in [0, 1]")
        if not 0 <= self.overlap_threshold <= 1:
            raise ValueError("overlap_threshold must lie in [0, 1]")
        if not self.sentiment_gap_threshold >= 0:
            raise ValueError("sentiment_gap_threshold must be non-negative")
        if not self.sentiment_variance_threshold >= 0:
            raise ValueError("sentiment_variance_threshold must be non-negative")
        if self.overlap_bleu_order < 1:
            raise ValueError("overlap_bleu_order must be >= 1")
        if self.min_sentiment_pairs < 1:
            raise ValueError("min_sentiment_pairs must be >= 1")


@dataclass(frozen=True)
class FlagEvidence:
    """The statistic that tripped a flag, with the threshold it crossed."""

    statistic: str
    value: float
    threshold: float


@dataclass(frozen=True)
class FlagReport:
    annotator_id: str
    evidence: dict[HeuristicId, FlagEvidence]

    @property
    def flags(self) -> frozenset[HeuristicId]:
        """The heuristics that flagged the annotator: those with evidence."""
        return frozenset(self.evidence)


@dataclass
class Scorers:
    """Pluggable text scorers used by the sentiment-disalignment flag.

    ``overlap(texts_a, texts_b, order)`` scores a block of pairs at once,
    ``order`` being the config's ``overlap_bleu_order``, and returns one
    lexical-closeness score in [0, 1] per pair ``(texts_a[k], texts_b[k])``
    (a score list of another length is a ValueError); ``sentiment(text)``
    returns a polarity score.  ``overlap`` is only given pairs with word
    tokens on both sides.  Per-pair sentiment overrides (from an ingested file) win over
    the callable, and a pair whose override gap is below
    ``sentiment_gap_threshold`` cannot qualify, so ``overlap`` is never
    given it.
    """

    overlap: Callable[[Sequence[str], Sequence[str], int], Sequence[float]]
    sentiment: Callable[[str], float]
    pair_sentiment: Optional[Mapping[str, tuple[float, float]]] = None


def default_scorers() -> Scorers:
    """Bundled scorers: sentence-BLEU overlap and the built-in sentiment lexicon."""
    from .sentiment import default_sentiment_scorer

    def overlap(texts_a: Sequence[str], texts_b: Sequence[str],
                order: int) -> list[float]:
        values: list[float] = []
        for block in pair_blocks(len(texts_a)):
            refs = [tokenize(t) for t in texts_a[block]]
            cands = [tokenize(t) for t in texts_b[block]]
            values.extend(bleu_block(cands, refs, max_n=order))
        return values

    return Scorers(overlap=overlap, sentiment=default_sentiment_scorer())


def sentiment_qualifying_pairs(corpus: LabeledCorpus, scorers: Scorers,
                               cfg: HeuristicConfig) -> set[str]:
    """Pairs that are lexically close yet far apart in sentiment.

    Qualification: overlap score strictly above ``overlap_threshold`` and
    absolute sentiment gap at least ``sentiment_gap_threshold``.  Every
    pair must have word tokens on both sides (the first without, in
    corpus order and side a first, raises naming the pair), but overlap
    is scored only on pairs that can qualify: a pair whose ingested
    sentiment override falls short of the gap is not scored.
    """
    pairs = corpus.pairs
    for k, pair in enumerate(pairs):
        for side, text in (("text_a", pair.text_a), ("text_b", pair.text_b)):
            if not has_tokens(text):
                raise EmptyText(k, side).for_pair(pair.pair_id)
    gap = cfg.sentiment_gap_threshold
    # per pair in corpus order: whether an override decides its gap, and
    # whether that gap falls short
    overridden = short = np.zeros(len(pairs), dtype=bool)
    if scorers.pair_sentiment:
        overrides = pair_scores(corpus.columns, scorers.pair_sentiment)
        overridden = overrides.defined
        scores = overrides.data
        short = overridden & ~(np.abs(scores[:, 0] - scores[:, 1]) >= gap)

    scored = np.flatnonzero(~short).tolist()
    overlaps = scorers.overlap([pairs[k].text_a for k in scored],
                               [pairs[k].text_b for k in scored],
                               cfg.overlap_bleu_order)
    overridden = overridden.tolist()
    qualifying: set[str] = set()
    for k, overlap in zip(scored, overlaps, strict=True):
        if overlap <= cfg.overlap_threshold:
            continue
        pair = pairs[k]
        # an override that is not short qualifies the pair
        if overridden[k] or abs(scorers.sentiment(pair.text_a)
                                - scorers.sentiment(pair.text_b)) >= gap:
            qualifying.add(pair.pair_id)
    return qualifying


def _rule(h: HeuristicId, corpus: LabeledCorpus,
          profiles: Sequence[AnnotatorProfile], cfg: HeuristicConfig,
          scorers: Optional[Scorers]):
    """Heuristic ``h`` as a threshold rule: ``(evidence statistic,
    comparator, values, thresholds)``, one value and one threshold per
    profile.  None marks an undefined value or threshold."""
    every = itertools.repeat
    if h is HeuristicId.SLOW:
        return ("mean_duration", operator.gt,
                [p.mean_duration for p in profiles],
                every(cfg.slow_threshold))
    if h is HeuristicId.LOW_VARIANCE:
        return ("label_variance", operator.lt,
                [p.label_variance for p in profiles],
                every(cfg.low_variance_threshold))
    if h is HeuristicId.HIGH_RANDOM:
        # both means must be defined: an annotator who never saw one of
        # the two pair kinds is never flagged
        return ("mean_random_label", operator.gt,
                [p.mean_random for p in profiles],
                [p.mean_nonrandom for p in profiles])
    if h is HeuristicId.DISAGREEABLE:
        return ("disagreement_rate", operator.gt,
                [p.disagreement_rate for p in profiles],
                every(cfg.disagreement_threshold))
    qualifying = sentiment_qualifying_pairs(
        corpus, scorers or default_scorers(), cfg)
    return ("sentiment_pair_label_variance", operator.gt,
            _qualifying_variance(corpus, qualifying, cfg.min_sentiment_pairs),
            every(cfg.sentiment_variance_threshold))


def _qualifying_variance(corpus: LabeledCorpus, qualifying: set[str],
                         min_labels: int) -> list[Optional[float]]:
    """Per annotator, the population variance of their labels on the
    qualifying pairs; None with fewer than ``min_labels`` such labels."""
    columns = corpus.columns
    on_pair = np.zeros(len(columns.pair_ids), dtype=bool)
    on_pair[[columns.pair_index[pid] for pid in qualifying]] = True
    sums = zip(*label_sums(label_counts(columns, on_pair[columns.pair])))
    return [variance_from_sums(*s) if s[0] >= min_labels else None
            for s in sums]


class FlagPass(dict[str, FlagReport]):
    """Every annotator's :class:`FlagReport`, by annotator id, from one
    flag pass; ``heuristics`` is the normalized subset it evaluated."""

    def __init__(self, reports: Mapping[str, FlagReport],
                 heuristics: tuple[HeuristicId, ...]):
        super().__init__(reports)
        self.heuristics = heuristics


def compute_flag_reports(corpus: LabeledCorpus,
                         subset: Iterable[HeuristicId],
                         cfg: Optional[HeuristicConfig] = None,
                         scorers: Optional[Scorers] = None) -> FlagPass:
    """Evaluate the given heuristics for every annotator in one pass."""
    cfg = cfg or HeuristicConfig()
    cfg.validate()
    subset = normalize_subset(subset)

    profiles = list(annotator_profiles(corpus).values())
    evidence: list[dict[HeuristicId, FlagEvidence]] = [{} for _ in profiles]
    for h in subset:
        statistic, exceeds, values, thresholds = _rule(h, corpus, profiles,
                                                       cfg, scorers)
        for found, value, limit in zip(evidence, values, thresholds):
            if value is not None and limit is not None and exceeds(value, limit):
                found[h] = FlagEvidence(statistic, value, limit)
    return FlagPass({p.annotator_id: FlagReport(p.annotator_id, found)
                     for p, found in zip(profiles, evidence)}, subset)


def flagged_annotators(reports: FlagPass,
                       subset: Iterable[HeuristicId]) -> frozenset[str]:
    """The annotators whose reports carry a flag of ``subset``: those a
    filter on ``subset`` removes.  A heuristic of ``subset`` that the pass
    did not evaluate is an error."""
    flags = set(subset)
    missing = flags.difference(reports.heuristics)
    if missing:
        raise ValueError(
            f"the flag pass did not evaluate heuristics {subset_label(missing)}"
            f" (it evaluated {subset_label(reports.heuristics)})")
    return frozenset(aid for aid, rep in reports.items() if rep.flags & flags)


def normalize_subset(subset: Iterable[HeuristicId]) -> tuple[HeuristicId, ...]:
    """Deduplicate, validate and sort a heuristic subset."""
    ids = sorted({HeuristicId(h) for h in subset})
    if not ids:
        raise ValueError("heuristic subset must not be empty")
    return tuple(ids)


def heuristic_subsets(universe: Iterable[HeuristicId]
                      ) -> list[tuple[HeuristicId, ...]]:
    """Every non-empty subset of ``universe``, ordered by size then
    lexicographically -- the row order used in the combination reports."""
    ids = sorted({HeuristicId(h) for h in universe})
    out: list[tuple[HeuristicId, ...]] = []
    for size in range(1, len(ids) + 1):
        out.extend(itertools.combinations(ids, size))
    return out


def subset_label(subset: Iterable[HeuristicId]) -> str:
    """Render a subset the way report rows are labeled, e.g. ``[2, 3]``."""
    return "[" + ", ".join(str(int(h)) for h in normalize_subset(subset)) + "]"
