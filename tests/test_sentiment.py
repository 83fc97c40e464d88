"""Tests for lexicon-based sentence polarity scoring."""

import random

import pytest

from labelsim.corpus import CorpusError
from labelsim.sentiment import (
    DEFAULT_INTENSIFIERS,
    DEFAULT_NEGATORS,
    default_sentiment_scorer,
    ingest_sentiment,
    load_lexicon,
    sentiment_score,
)

from conftest import make_corpus


def squash(x):
    return x / (1.0 + abs(x))


# ---------------------------------------------------------------- lexicon IO


def test_bundled_lexicon_loads():
    lex = load_lexicon()
    assert len(lex) >= 100
    assert lex["good"] == 1.9
    assert lex["bad"] == -1.9
    assert lex["great"] == 3.1


def test_load_lexicon_from_path(tmp_path):
    p = tmp_path / "lex.csv"
    p.write_text("word,valence\nshiny,2.0\n  Dull  ,-1.5\n")
    lex = load_lexicon(p)
    assert lex == {"shiny": 2.0, "dull": -1.5}


def test_load_lexicon_missing_column(tmp_path):
    p = tmp_path / "lex.csv"
    p.write_text("word,weight\nshiny,2.0\n")
    with pytest.raises(ValueError, match="word,valence"):
        load_lexicon(p)


def test_load_lexicon_empty_word(tmp_path):
    p = tmp_path / "lex.csv"
    p.write_text("word,valence\n   ,2.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_lexicon(p)


def test_load_lexicon_bad_valence(tmp_path):
    p = tmp_path / "lex.csv"
    p.write_text("word,valence\nshiny,strong\n")
    with pytest.raises(CorpusError) as exc:
        load_lexicon(p)
    assert str(exc.value) == f"{p} row 2: expected a number, got 'strong'"


def test_load_lexicon_non_finite_valence(tmp_path):
    # a NaN valence used to score every sentence containing the word 1.0
    p = tmp_path / "lex.csv"
    p.write_text("word,valence\nshiny,2.0\ndull,nan\n")
    with pytest.raises(CorpusError) as exc:
        load_lexicon(p)
    assert str(exc.value) == f"{p} row 3: expected a finite number, got 'nan'"


# ---------------------------------------------------------------- scoring


LEX = {"fine": 1.0, "awful": -2.0, "nice": 0.5}


def test_neutral_text_scores_zero():
    assert sentiment_score("the report arrived on tuesday", LEX) == 0.0
    assert sentiment_score("", LEX) == 0.0


def test_single_word_squash():
    assert sentiment_score("fine", LEX) == pytest.approx(squash(1.0))
    assert sentiment_score("awful", LEX) == pytest.approx(squash(-2.0))


def test_negation_flips_within_window():
    # "not" one, two, and three tokens back all flip the valence.
    assert sentiment_score("not fine", LEX) == pytest.approx(squash(-1.0))
    assert sentiment_score("not so fine", LEX) < 0
    assert sentiment_score("not at all fine", LEX) == pytest.approx(squash(-1.0))


def test_negation_outside_window_ignored():
    # Four tokens between "not" and "fine": no flip.
    got = sentiment_score("not a b c d fine", LEX)
    assert got == pytest.approx(squash(1.0))


def test_intensifier_scales():
    lex = load_lexicon()
    # very = 1.5, good = 1.9
    assert sentiment_score("very good", lex) == pytest.approx(squash(1.5 * 1.9))
    # slightly = 0.7 dampens
    assert sentiment_score("slightly good", lex) == \
        pytest.approx(squash(0.7 * 1.9))


def test_intensifiers_stack_multiplicatively():
    lex = load_lexicon()
    # both "really" (1.4) and "very" (1.5) sit within the 3-token window
    assert sentiment_score("really very good", lex) == \
        pytest.approx(squash(1.4 * 1.5 * 1.9))


def test_negated_intensified():
    lex = load_lexicon()
    assert sentiment_score("not very good", lex) == \
        pytest.approx(squash(-1.5 * 1.9))


def test_valences_sum_across_words():
    got = sentiment_score("fine but awful", LEX)
    assert got == pytest.approx(squash(1.0 - 2.0))


def test_antonym_swap_negates_exactly():
    # Squash x/(1+|x|) is odd, so negating every valence negates the score
    # bit for bit.
    flipped = {w: -v for w, v in LEX.items()}
    texts = [
        "fine",
        "not fine",
        "very nice and fine",
        "awful awful not nice",
        "so very awful yet somewhat fine",
    ]
    for text in texts:
        assert sentiment_score(text, flipped) == -sentiment_score(text, LEX)


def test_scores_bounded_on_random_salads():
    lex = load_lexicon()
    words = (sorted(lex) + sorted(DEFAULT_NEGATORS)
             + sorted(DEFAULT_INTENSIFIERS) + ["the", "swivel", "blue"])
    rng = random.Random(20240817)
    for _ in range(300):
        text = " ".join(rng.choices(words, k=rng.randint(1, 25)))
        score = sentiment_score(text, lex)
        assert -1.0 <= score <= 1.0


def test_default_scorer_frozen_values():
    score = default_sentiment_scorer()
    assert score("this movie was very good") == 0.7402597402597403
    assert score("this movie was not good") == -0.6551724137931034
    assert score("the report arrived on tuesday") == 0.0


# ---------------------------------------------------------------- ingestion


def write_scores(tmp_path, body):
    p = tmp_path / "scores.csv"
    p.write_text("pair_id,score_a,score_b\n" + body)
    return p


def test_ingest_sentiment_round_trip(tmp_path):
    p = write_scores(tmp_path, "p1,0.5,-0.25\np2,1.0,-1.0\n")
    got = ingest_sentiment(p)
    assert got == {"p1": (0.5, -0.25), "p2": (1.0, -1.0)}


def test_ingest_sentiment_checks_corpus_pairs(tmp_path):
    corpus = make_corpus([("p1", "a b", "a c")], [("p1", "ann1", 3)])
    p = write_scores(tmp_path, "p1,0.5,0.5\npX,0.1,0.1\n")
    with pytest.raises(CorpusError, match="unknown pair 'pX'"):
        ingest_sentiment(p, corpus)
    # without a corpus the same file is accepted
    assert set(ingest_sentiment(p)) == {"p1", "pX"}


def test_ingest_sentiment_missing_column(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("pair_id,score_a\np1,0.5\n")
    with pytest.raises(CorpusError, match="pair_id,score_a,score_b"):
        ingest_sentiment(p)


def test_ingest_sentiment_duplicate_pair(tmp_path):
    p = write_scores(tmp_path, "p1,0.5,0.5\np1,0.2,0.2\n")
    with pytest.raises(CorpusError, match="duplicate pair 'p1'"):
        ingest_sentiment(p)


def test_ingest_sentiment_non_numeric(tmp_path):
    # either score, and a NaN, which no range check would catch
    for row, raw, problem in (("p1,high,0.5", "high", "a number"),
                              ("p1,0.5,low", "low", "a number"),
                              ("p1,0.5,nan", "nan", "a finite number")):
        p = write_scores(tmp_path, row + "\n")
        with pytest.raises(CorpusError) as exc:
            ingest_sentiment(p)
        assert str(exc.value) == f"{p} row 2: expected {problem}, got {raw!r}"


def test_ingest_sentiment_out_of_range(tmp_path):
    p = write_scores(tmp_path, "p1,1.5,0.0\n")
    with pytest.raises(CorpusError, match=r"outside \[-1, 1\]"):
        ingest_sentiment(p)
    p2 = write_scores(tmp_path, "p1,0.0,-1.0001\n")
    with pytest.raises(CorpusError, match=r"outside \[-1, 1\]"):
        ingest_sentiment(p2)
