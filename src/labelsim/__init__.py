"""labelsim: reliability filtering for crowd-sourced similarity labels.

The package loads 1-5 similarity judgments over sentence pairs, profiles
each annotator, applies five reliability heuristics (and every non-empty
combination of them), scores the pairs with self-contained lexical and
embedding metrics, and reports how filtering the annotator pool moves
the correlation between mean human labels and each metric.

The exports below load lazily (PEP 562): ``import labelsim.corpus`` loads
only that module and what it imports, and ``labelsim.X`` imports the
module that defines ``X`` the first time it is read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("Annotation", "CorpusError", "LabeledCorpus", "PairScores",
               "SentencePair", "attach_precomputed", "build_corpus",
               "load_corpus", "load_precomputed", "save_corpus"),
    "heuristics": ("FlagEvidence", "FlagReport", "HeuristicConfig",
                   "HeuristicId", "Scorers", "compute_flag_reports",
                   "default_scorers", "flagged_annotators",
                   "heuristic_subsets", "subset_label"),
    "stats": ("AnnotatorProfile", "Style", "annotator_profiles",
              "classify_style", "reduce_label"),
    "correlate": ("CorrelationReport", "MetricCorrelation", "SubsetResult",
                  "UndefinedCorrelationError", "compute_metric_scores",
                  "correlation_report", "pearson", "percent_change",
                  "spearman", "style_split_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
