"""Per-annotator aggregate statistics and labeling-style classification.

Every per-annotator statistic comes from one :class:`AnnotatorTable`: a
few ``np.bincount`` passes over the corpus's annotation columns give each
annotator's label histogram (split by random and non-random pairs), the
sum of their durations and their disagreement counts.  Profiles here and
heuristics 1-4 in :mod:`labelsim.heuristics` are plain reads of it.

All variances here are population variances (denominator ``n``), because
the quantities of interest describe the finite set of labels an
annotator actually produced, not a sample from something larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .corpus import AnnotationColumns, LabeledCorpus, VALID_LABELS

_LABELS = np.array(VALID_LABELS)
EXTREME_LABELS = frozenset({1, 5})
CENTRAL_LABELS = frozenset({2, 4})
MIDPOINT_LABEL = 3


class Style(str, Enum):
    """Personal labeling style inferred from an annotator's label histogram."""

    RADICAL = "Radical"
    CENTRIST = "Centrist"
    MIXED = "Mixed"
    EXCLUDED = "Excluded"


def reduce_label(label):
    """Collapse 1-5 similarity labels to the three-way scheme -1/0/+1.

    Labels below 3 mean "not similar" (-1), 3 is neutral (0), labels
    above 3 mean "similar" (+1).  ``label`` is one label, reduced to an
    ``int``, or an integer array, reduced element-wise; any label outside
    1-5 raises ``ValueError``.
    """
    labels = np.asarray(label)
    outside = labels[~np.isin(labels, _LABELS)].tolist()
    if outside:
        raise ValueError(f"label {outside[0]!r} outside the 1-5 scale")
    reduced = np.sign(labels - MIDPOINT_LABEL)
    return int(reduced) if reduced.ndim == 0 else reduced


def population_variance(values: Sequence[float]) -> float:
    """Population (denominator n) variance of a non-empty sequence.

    Integer input (labels) is computed exactly as
    ``(n * sum(l**2) - sum(l)**2) / n**2`` and rounded once, so a variance
    that is exactly a threshold compares as that threshold; other input
    uses the two-pass float formula.
    """
    if not values:
        raise ValueError("variance of an empty sequence is undefined")
    n = len(values)
    if all(isinstance(v, Integral) for v in values):
        ints = [int(v) for v in values]
        return variance_from_sums(n, sum(ints), sum(v * v for v in ints))
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / n


def variance_from_sums(n: int, total: int, total_sq: int) -> float:
    """Population variance of ``n`` integers from their sum and sum of
    squares, computed exactly and rounded once."""
    return (n * total_sq - total * total) / (n * n)


@dataclass(frozen=True)
class AnnotatorProfile:
    """Aggregates for one annotator; fields are None when undefined.

    ``mean_random`` / ``mean_nonrandom`` are mean labels over the random
    and non-random pairs the annotator saw, ``extreme_share`` /
    ``central_share`` are fractions of {1,5} and {2,4} among labels != 3,
    and ``disagreement_rate`` is the fraction of unanimous-co-annotator
    pairs where the reduced label disagreed (None without such pairs).
    """

    annotator_id: str
    n_labels: int
    mean_duration: float
    label_variance: float
    mean_random: Optional[float]
    mean_nonrandom: Optional[float]
    extreme_share: Optional[float]
    central_share: Optional[float]
    disagreement_rate: Optional[float]
    style: Style


def classify_style(label_variance: float,
                   extreme_share: Optional[float],
                   central_share: Optional[float]) -> Style:
    """Apply the style rules: low-variance or all-3 annotators are Excluded,
    then whichever of the extreme/central shares passes 1/2 wins."""
    if extreme_share is None or central_share is None:
        return Style.EXCLUDED
    if label_variance <= 1.0:
        return Style.EXCLUDED
    if extreme_share > 0.5:
        return Style.RADICAL
    if central_share > 0.5:
        return Style.CENTRIST
    return Style.MIXED


def _ratios(numerators: Sequence[int], denominators: Sequence[int]
            ) -> list[Optional[float]]:
    return [a / b if b else None for a, b in zip(numerators, denominators)]


@dataclass(frozen=True)
class AnnotatorTable:
    """Every annotator's statistics, one list per statistic.

    Entry k of every list belongs to ``annotator_ids[k]``; a statistic
    is None where it is undefined, as in :class:`AnnotatorProfile`.  The
    lists come from per-annotator sums: label counts and, from them, the
    exact integer sums of labels and squared labels; the sum of
    durations, which ``np.bincount`` adds in file order, left to right
    and uncompensated (Python's ``sum`` of floats matches it up to 3.11;
    from 3.12 on it is compensated and may differ in the last place);
    and the disagreement counts.  Means, shares and rates are ratios of
    those sums and variances use :func:`variance_from_sums`, so every
    value is the one a loop over the annotator's labels gives.  ``off_mid_variance`` leaves label-3
    judgments out, except for an annotator who has no other label.
    """

    annotator_ids: tuple[str, ...]
    n_labels: list[int]
    mean_duration: list[float]
    label_variance: list[float]
    off_mid_variance: list[float]
    mean_random: list[Optional[float]]
    mean_nonrandom: list[Optional[float]]
    extreme_share: list[Optional[float]]
    central_share: list[Optional[float]]
    disagreement_rate: list[Optional[float]]

    @classmethod
    def build(cls, columns: AnnotationColumns) -> "AnnotatorTable":
        random_counts = label_counts(columns, columns.is_random)
        nonrandom_counts = label_counts(columns, ~columns.is_random)
        every = random_counts + nonrandom_counts
        off_mid = every * (_LABELS != MIDPOINT_LABEL)
        n, label_sum, label_sq_sum = label_sums(every)
        off_mid_n, off_mid_sum, off_mid_sq_sum = label_sums(off_mid)
        variance = [variance_from_sums(*sums)
                    for sums in zip(n, label_sum, label_sq_sum)]
        duration_sum = np.bincount(columns.annotator, weights=columns.duration,
                                   minlength=len(n)).tolist()

        def label_mean(counts: np.ndarray) -> list[Optional[float]]:
            count, total, _ = label_sums(counts)
            return _ratios(total, count)

        def share(labels: frozenset) -> list[Optional[float]]:
            hits = every[:, np.isin(_LABELS, list(labels))].sum(axis=1)
            return _ratios(hits.tolist(), off_mid_n)

        return cls(
            annotator_ids=columns.annotator_ids,
            n_labels=n,
            mean_duration=[d / k for d, k in zip(duration_sum, n)],
            label_variance=variance,
            off_mid_variance=[
                variance_from_sums(*sums) if sums[0] else full
                for sums, full in zip(zip(off_mid_n, off_mid_sum,
                                          off_mid_sq_sum), variance)],
            mean_random=label_mean(random_counts),
            mean_nonrandom=label_mean(nonrandom_counts),
            extreme_share=share(EXTREME_LABELS),
            central_share=share(CENTRAL_LABELS),
            disagreement_rate=_ratios(*_disagreement_counts(columns)),
        )


def label_counts(columns: AnnotationColumns, rows: np.ndarray) -> np.ndarray:
    """``counts[k, l - 1]``: how often annotator k gave label l on the
    annotation rows selected by the mask ``rows``."""
    k, width = len(columns.annotator_ids), _LABELS.size
    label = columns.label[rows]
    if label.size and (label.min() < _LABELS[0] or label.max() > _LABELS[-1]):
        raise ValueError("labels outside the 1-5 scale")
    return np.bincount(columns.annotator[rows] * width + label - _LABELS[0],
                       minlength=k * width).reshape(k, width)


def label_sums(counts: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Per annotator, from :func:`label_counts`: the number of labels,
    their sum and the sum of their squares."""
    return (counts.sum(axis=1).tolist(), (counts @ _LABELS).tolist(),
            (counts @ _LABELS ** 2).tolist())


def _disagreement_counts(columns: AnnotationColumns
                         ) -> tuple[list[int], list[int]]:
    """Per annotator: the pairs where the annotator's reduced label
    differs from that of two co-annotators who agree on theirs
    (``disagreed``), and all pairs with two such co-annotators
    (``considered``).

    A pair with exactly three rows has exactly two co-annotators for each
    of its annotators, since a validated corpus never holds a (pair,
    annotator) twice.
    """
    k = len(columns.annotator_ids)
    triple = np.bincount(columns.pair, minlength=len(columns.pair_ids)) == 3
    by_pair = columns.by_pair
    rows = by_pair[triple[columns.pair[by_pair]]].reshape(-1, 3)
    reduced = reduce_label(columns.label[rows])
    # column j of others_* holds the two co-annotators of position j
    others_a = reduced[:, [1, 0, 0]]
    others_b = reduced[:, [2, 2, 1]]
    considered = others_a == others_b
    disagreed = considered & (reduced != others_a)
    annotator = columns.annotator[rows]
    return (np.bincount(annotator[disagreed], minlength=k).tolist(),
            np.bincount(annotator[considered], minlength=k).tolist())


def annotator_table(corpus: LabeledCorpus) -> AnnotatorTable:
    """Every annotator's statistics in ``corpus``."""
    return AnnotatorTable.build(corpus.columns)


def annotator_profiles(corpus: LabeledCorpus,
                       exclude_midpoint_from_variance: bool = False
                       ) -> dict[str, AnnotatorProfile]:
    """Profiles for every annotator in the corpus, keyed by id."""
    t = annotator_table(corpus)
    variances = t.off_mid_variance if exclude_midpoint_from_variance \
        else t.label_variance
    return {aid: AnnotatorProfile(aid, n, duration, variance, rand, nonrand,
                                  extreme, central, rate,
                                  classify_style(variance, extreme, central))
            for aid, n, duration, variance, rand, nonrand, extreme, central,
            rate in zip(t.annotator_ids, t.n_labels, t.mean_duration,
                        variances, t.mean_random, t.mean_nonrandom,
                        t.extreme_share, t.central_share,
                        t.disagreement_rate)}
