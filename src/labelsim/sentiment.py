"""Lexicon-based sentence polarity scoring.

Token valences are summed with negation flips and intensifier boosts,
then squashed to [-1, 1] via x / (1 + |x|).  The scorer is intentionally
pluggable: anything mapping text to a score in [-1, 1] can replace it,
and per-pair scores from an external tool can be ingested from CSV.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Optional

from .corpus import (CorpusError, LabeledCorpus, _parse_float,
                     _read_csv_rows, _row_pair, pair_scores)
from .textmetrics import tokenize

NEGATION_WINDOW = 3

DEFAULT_NEGATORS = frozenset("""
not no never none neither nor nothing nobody nowhere cannot can't won't
don't doesn't didn't isn't wasn't aren't weren't wouldn't couldn't
shouldn't hasn't haven't hadn't ain't without hardly barely scarcely
""".split())

DEFAULT_INTENSIFIERS = {
    "very": 1.5,
    "really": 1.4,
    "extremely": 1.8,
    "incredibly": 1.8,
    "absolutely": 1.7,
    "utterly": 1.7,
    "completely": 1.6,
    "totally": 1.6,
    "super": 1.6,
    "so": 1.3,
    "too": 1.3,
    "pretty": 1.3,
    "quite": 1.2,
    "rather": 1.1,
    "fairly": 1.1,
    "somewhat": 0.8,
    "slightly": 0.7,
    "mildly": 0.8,
}


def load_lexicon(path: Optional[Path] = None) -> dict[str, float]:
    """Read a word,valence CSV into a word -> valence map; with no path,
    the bundled lexicon is used.  Words are compared lowercased, and a
    word listed twice raises :class:`CorpusError` naming the file and row."""
    ref = resources.files("labelsim.data").joinpath("sentiment_lexicon.csv") \
        if path is None else Path(path)
    valences: dict[str, float] = {}
    with resources.as_file(ref) as csv_path:
        for lineno, (word, raw) in _read_csv_rows(csv_path,
                                                  ("word", "valence")):
            word = word.strip().lower()
            if not word:
                raise CorpusError(f"{csv_path} row {lineno}: empty word")
            if word in valences:
                raise CorpusError(
                    f"{csv_path} row {lineno}: duplicate word {word!r}")
            valences[word] = _parse_float(raw, csv_path, lineno)
    return valences


def sentiment_score(text: str, lexicon: dict[str, float]) -> float:
    """Polarity of a sentence in [-1, 1].

    ``lexicon`` maps a word to its valence, as :func:`load_lexicon` reads
    it.  A valence word contributes its valence, scaled by any intensifier and
    flipped by any negator in the three preceding tokens; the raw sum is
    squashed with x / (1 + |x|), which is odd, so swapping every valence
    for its negative exactly negates the score.
    """
    tokens = tokenize(text)
    total = 0.0
    for idx, tok in enumerate(tokens):
        valence = lexicon.get(tok)
        if valence is None:
            continue
        window = tokens[max(0, idx - NEGATION_WINDOW):idx]
        sign = -1.0 if any(w in DEFAULT_NEGATORS for w in window) else 1.0
        mult = 1.0
        for w in window:
            boost = DEFAULT_INTENSIFIERS.get(w)
            if boost is not None:
                mult *= boost
        total += sign * mult * valence
    squashed = total / (1.0 + abs(total))
    return max(-1.0, min(1.0, squashed))


def default_sentiment_scorer() -> Callable[[str], float]:
    """Closure over the bundled lexicon, suitable as a Scorers.sentiment."""
    lexicon = load_lexicon()

    def score(text: str) -> float:
        return sentiment_score(text, lexicon)

    return score


def ingest_sentiment(path, corpus: Optional[LabeledCorpus] = None
                     ) -> Mapping[str, tuple[float, float]]:
    """Load per-pair sentiment scores (pair_id, score_a, score_b CSV).

    Scores must lie in [-1, 1].  When a corpus is given, every pair_id
    must exist in it, and the scores come back as one
    :class:`~labelsim.corpus.PairScores` column over its pairs, two
    values per pair; without one, as a dict.
    """
    path = Path(path)
    out: dict[str, tuple[float, float]] = {}
    for lineno, (pid, raw_a, raw_b) in _read_csv_rows(
            path, ("pair_id", "score_a", "score_b")):
        pid = _row_pair(pid, path, lineno, corpus)
        if pid in out:
            raise CorpusError(f"{path} row {lineno}: duplicate pair {pid!r}")
        score_a = _parse_float(raw_a, path, lineno)
        score_b = _parse_float(raw_b, path, lineno)
        for score in (score_a, score_b):
            if not -1.0 <= score <= 1.0:
                raise CorpusError(
                    f"{path} row {lineno}: score {score} outside [-1, 1]")
        out[pid] = (score_a, score_b)
    return out if corpus is None else pair_scores(corpus.columns, out)
