"""labelsim: reliability filtering for crowd-sourced similarity labels.

The package loads 1-5 similarity judgments over sentence pairs, profiles
each annotator, applies five reliability heuristics (and every non-empty
combination of them), scores the pairs with self-contained lexical and
embedding metrics, and reports how filtering the annotator pool moves
the correlation between mean human labels and each metric.
"""

from .corpus import (Annotation, CorpusError, LabeledCorpus, SentencePair,
                     attach_precomputed, build_corpus, load_corpus,
                     load_precomputed, save_corpus)
from .heuristics import (FlagEvidence, FlagReport, HeuristicConfig,
                         HeuristicId, Scorers, compute_flag_reports,
                         default_scorers, flagged_annotators,
                         heuristic_subsets, subset_label)
from .stats import AnnotatorProfile, Style, annotator_profile, \
    annotator_profiles, classify_style, population_variance, reduce_label
from .correlate import (CorrelationReport, MetricCorrelation, SubsetResult,
                        UndefinedCorrelationError, compute_metric_scores,
                        correlation_report, pearson, percent_change,
                        spearman, style_split_report)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "AnnotatorProfile",
    "CorpusError",
    "CorrelationReport",
    "FlagEvidence",
    "FlagReport",
    "HeuristicConfig",
    "HeuristicId",
    "LabeledCorpus",
    "MetricCorrelation",
    "Scorers",
    "SentencePair",
    "Style",
    "SubsetResult",
    "UndefinedCorrelationError",
    "annotator_profile",
    "annotator_profiles",
    "attach_precomputed",
    "build_corpus",
    "classify_style",
    "compute_flag_reports",
    "compute_metric_scores",
    "correlation_report",
    "default_scorers",
    "flagged_annotators",
    "heuristic_subsets",
    "load_corpus",
    "load_precomputed",
    "pearson",
    "percent_change",
    "population_variance",
    "reduce_label",
    "save_corpus",
    "spearman",
    "style_split_report",
    "subset_label",
]
