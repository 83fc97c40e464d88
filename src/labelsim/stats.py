"""Per-annotator aggregate statistics and labeling-style classification.

All variances here are population variances (denominator ``n``), because
the quantities of interest describe the finite set of labels an
annotator actually produced, not a sample from something larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Optional, Sequence

from .corpus import LabeledCorpus, VALID_LABELS

EXTREME_LABELS = frozenset({1, 5})
CENTRAL_LABELS = frozenset({2, 4})
MIDPOINT_LABEL = 3


class Style(str, Enum):
    """Personal labeling style inferred from an annotator's label histogram."""

    RADICAL = "Radical"
    CENTRIST = "Centrist"
    MIXED = "Mixed"
    EXCLUDED = "Excluded"


def reduce_label(label: int) -> int:
    """Collapse a 1-5 similarity label to the three-way scheme -1/0/+1.

    Labels below 3 mean "not similar" (-1), 3 is neutral (0), labels
    above 3 mean "similar" (+1).
    """
    if label not in VALID_LABELS:
        raise ValueError(f"label {label!r} outside the 1-5 scale")
    if label < MIDPOINT_LABEL:
        return -1
    if label > MIDPOINT_LABEL:
        return 1
    return 0


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
        total = sum(ints)
        return (n * sum(v * v for v in ints) - total * total) / (n * n)
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / n


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


def annotator_profile(corpus: LabeledCorpus, annotator_id: str,
                      exclude_midpoint_from_variance: bool = False) -> AnnotatorProfile:
    """Compute the aggregate profile of one annotator.

    ``exclude_midpoint_from_variance`` drops label-3 judgments from the
    variance (mirroring the share computation) instead of the default of
    using every label.
    """
    anns = corpus.annotations_by_annotator.get(annotator_id)
    if not anns:
        raise ValueError(f"annotator {annotator_id!r} has no annotations")

    labels = [a.label for a in anns]
    durations = [a.duration for a in anns]

    variance_labels = labels
    if exclude_midpoint_from_variance:
        non_mid = [l for l in labels if l != MIDPOINT_LABEL]
        variance_labels = non_mid or labels
    label_variance = population_variance(variance_labels)

    random_labels = []
    nonrandom_labels = []
    for a in anns:
        pair = corpus.pairs_by_id[a.pair_id]
        (random_labels if pair.is_random else nonrandom_labels).append(a.label)
    mean_random = sum(random_labels) / len(random_labels) if random_labels else None
    mean_nonrandom = (sum(nonrandom_labels) / len(nonrandom_labels)
                      if nonrandom_labels else None)

    off_mid = [l for l in labels if l != MIDPOINT_LABEL]
    if off_mid:
        extreme_share = sum(1 for l in off_mid if l in EXTREME_LABELS) / len(off_mid)
        central_share = sum(1 for l in off_mid if l in CENTRAL_LABELS) / len(off_mid)
    else:
        extreme_share = None
        central_share = None

    from .heuristics import disagreement_rate as _disagreement_rate
    rate = _disagreement_rate(corpus, annotator_id)

    return AnnotatorProfile(
        annotator_id=annotator_id,
        n_labels=len(labels),
        mean_duration=sum(durations) / len(durations),
        label_variance=label_variance,
        mean_random=mean_random,
        mean_nonrandom=mean_nonrandom,
        extreme_share=extreme_share,
        central_share=central_share,
        disagreement_rate=rate,
        style=classify_style(label_variance, extreme_share, central_share),
    )


def annotator_profiles(corpus: LabeledCorpus,
                       exclude_midpoint_from_variance: bool = False
                       ) -> dict[str, AnnotatorProfile]:
    """Profiles for every annotator in the corpus, keyed by id."""
    return {
        aid: annotator_profile(corpus, aid, exclude_midpoint_from_variance)
        for aid in corpus.annotator_ids()
    }
