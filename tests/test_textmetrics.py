import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from labelsim import textmetrics
from labelsim.textmetrics import (LEXICAL_SCORERS, EmptyText, bleu,
                                  bleu_block, chrf, chrf_block,
                                  light_stem, meteor_lite, require_tokens,
                                  rouge_l, rouge_n, score_lexical_block,
                                  tokenize, word_overlap)

import oracles
from oracles import score_pair_lexical


def random_tokens(rng, min_len=1, max_len=8, vocab="abcdef"):
    return tuple(rng.choice(vocab) for _ in range(rng.randint(min_len, max_len)))


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_basics():
    assert tokenize("The cat, sat!") == ("the", "cat", "sat")
    assert tokenize("Don't stop") == ("don't", "stop")
    assert tokenize("'quoted' words") == ("quoted", "words")
    assert tokenize("numbers 42 ok") == ("numbers", "42", "ok")
    assert tokenize("...") == ()


def test_tokenize_deterministic():
    text = "Some Mixed-Case text, with punctuation!"
    assert tokenize(text) == tokenize(text)


# apostrophes, digits, underscores, combining marks, and letters whose
# lowercase differs in length ('İ') or class
TOKEN_EDGE_CHARS = "'_09aZ \t.!-́̈İẞ²Ⅰ　"


@settings(max_examples=500)
@given(st.text(st.one_of(st.sampled_from(TOKEN_EDGE_CHARS), st.characters()),
               max_size=8))
def test_has_tokens_matches_tokenize(text):
    assert textmetrics.has_tokens(text) == bool(tokenize(text))


# ---------------------------------------------------------------------------
# word overlap


def test_word_overlap_examples():
    assert word_overlap(("a", "b"), ("a", "c")) == pytest.approx(1 / 3)
    assert word_overlap(("x", "y"), ("x", "y")) == 1.0
    assert word_overlap(("x",), ("y",)) == 0.0


def test_word_overlap_precision_mode():
    score = word_overlap(("a", "b", "c"), ("a", "x"), mode="precision")
    assert score == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        word_overlap(("a",), ("b",), mode="dice")


def test_word_overlap_empty_input():
    with pytest.raises(ValueError):
        word_overlap((), ("a",))


def test_word_overlap_matches_oracle():
    rng = random.Random(101)
    for _ in range(200):
        a, b = random_tokens(rng), random_tokens(rng)
        assert word_overlap(a, b) == pytest.approx(
            oracles.jaccard_oracle(a, b), abs=1e-12)
        assert word_overlap(a, b) == word_overlap(b, a)


# ---------------------------------------------------------------------------
# BLEU


def test_ngrams_counting():
    # the oracles' n-gram multisets, under every clipped-count oracle; the
    # package counts n-grams only as clipped matches of whole blocks
    counts = oracles.gram_counts(("a", "b", "a", "b"), 2)
    assert counts[("a", "b")] == 2
    assert counts[("b", "a")] == 1
    assert oracles.gram_counts(("a",), 2) == {}
    assert oracles.clipped_overlap(("a", "b", "a", "b"), ("b", "a", "b"),
                                   2) == 2


def test_bleu_identity():
    s = ("the", "cat", "sat", "on", "the", "mat")
    assert bleu(s, s) == 1.0
    assert bleu(s, s, max_n=1, smoothing="none") == 1.0


def test_bleu_clipping():
    # "the the the" against "the cat": only one "the" is creditable
    score = bleu(("the", "the", "the"), ("the", "cat"),
                 max_n=1, smoothing="none")
    assert score == pytest.approx(1 / 3)


def test_bleu_brevity_penalty_only_for_short_candidates():
    short = bleu(("the", "cat"), ("the", "cat", "sat"),
                 max_n=1, smoothing="none")
    assert short == pytest.approx(math.exp(-0.5))
    # a long candidate pays through diluted precision, never a boost
    long_ = bleu(("the", "cat", "sat"), ("the", "cat"),
                 max_n=1, smoothing="none")
    assert long_ == pytest.approx(2 / 3)


def test_bleu_disjoint_is_zero_even_smoothed():
    assert bleu(("a", "b"), ("c", "d"), smoothing="none") == 0.0
    # add-one never touches the unigram precision
    assert bleu(("a", "b"), ("c", "d"), smoothing="add_one") == 0.0


def test_bleu_effective_order_capped():
    # one-token sentences can only use unigrams, whatever max_n says
    assert bleu(("cat",), ("cat",), max_n=4) == 1.0


def test_bleu_rejects_bad_args():
    with pytest.raises(ValueError):
        bleu((), ("a",))
    with pytest.raises(ValueError):
        bleu(("a",), ("a",), max_n=0)
    with pytest.raises(ValueError):
        bleu(("a",), ("a",), smoothing="epsilon")


def test_bleu_matches_oracle():
    rng = random.Random(202)
    for _ in range(300):
        cand, ref = random_tokens(rng), random_tokens(rng)
        for max_n in (1, 2, 4):
            for smoothing in ("none", "add_one"):
                got = bleu(cand, ref, max_n=max_n, smoothing=smoothing)
                want = oracles.bleu_oracle(cand, ref, max_n, smoothing)
                assert got == pytest.approx(want, abs=1e-12), \
                    (cand, ref, max_n, smoothing)


# short sequences over a small vocabulary, so n-grams repeat and match;
# some are shorter than the top order
token_seqs = st.lists(st.sampled_from(["a", "b", "c", "\u00e9t\u00e9", "x'y"]),
                      min_size=1, max_size=7).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(token_seqs, token_seqs), min_size=1, max_size=6),
       st.integers(1, 5), st.sampled_from(["none", "add_one"]))
def test_bleu_block_equals_counter_bleu(pairs, max_n, smoothing):
    got = bleu_block([c for c, _ in pairs], [r for _, r in pairs],
                     max_n=max_n, smoothing=smoothing)
    assert got == [
        oracles.counter_bleu(c, r, max_n, smoothing) for c, r in pairs]
    assert got == [
        bleu(c, r, max_n=max_n, smoothing=smoothing) for c, r in pairs]


def test_bleu_block_rejects_bad_blocks():
    with pytest.raises(ValueError, match=r"\(reference\)"):
        bleu_block([("a",), ("b",)], [("a",), ()])
    with pytest.raises(ValueError):
        bleu_block([("a",)], [("a",), ("b",)])
    assert bleu_block([], []) == []


# ---------------------------------------------------------------------------
# chrF


def test_chrf_frozen_example():
    # 1-gram P = R = 3/4, 2-gram P = R = 2/3; mean 17/24 either direction
    assert chrf("abcd", "abce", max_n=2) == pytest.approx(17 / 24)


def test_chrf_identity_and_disjoint():
    assert chrf("same words here", "same words here") == 1.0
    assert chrf("aaa", "zzz") == 0.0


def test_chrf_symmetry():
    rng = random.Random(303)
    for _ in range(100):
        a = " ".join("".join(random_tokens(rng, 1, 4)) for _ in range(rng.randint(1, 4)))
        b = " ".join("".join(random_tokens(rng, 1, 4)) for _ in range(rng.randint(1, 4)))
        assert chrf(a, b) == chrf(b, a)


def test_chrf_whitespace_is_not_credited():
    assert chrf("a  b", "a b") == 1.0
    assert chrf("  a b  ", "ab") == 1.0


def test_chrf_empty_input():
    with pytest.raises(ValueError):
        chrf("", "abc")
    with pytest.raises(ValueError):
        chrf("   ", "abc")


def test_chrf_matches_oracle():
    rng = random.Random(404)
    for _ in range(150):
        a = " ".join("".join(random_tokens(rng, 1, 5)) for _ in range(rng.randint(1, 3)))
        b = " ".join("".join(random_tokens(rng, 1, 5)) for _ in range(rng.randint(1, 3)))
        for max_n in (2, 6):
            assert chrf(a, b, max_n=max_n) == pytest.approx(
                oracles.chrf_oracle(a, b, max_n=max_n), abs=1e-12)


# any text with a character that is not whitespace
scorable_text = st.text(max_size=30).filter(lambda t: t.split())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(scorable_text, scorable_text), min_size=1,
                max_size=6),
       st.integers(1, 7))
def test_chrf_block_equals_oracle_on_unicode(pairs, max_n):
    got = chrf_block([a for a, _ in pairs], [b for _, b in pairs],
                     max_n=max_n)
    assert got == [
        oracles.chrf_oracle(a, b, max_n=max_n) for a, b in pairs]


def test_chrf_block_equals_oracle_on_short_strings():
    # shorter than the top order: the orders a side lacks score 0 for it,
    # and the orders neither side has are not averaged in
    rng = random.Random(505)
    pairs = [("".join(rng.choice("ab c\u00e9\u65e5") for _ in range(rng.randint(1, 5))),
              "".join(rng.choice("abc\u00e9 ") for _ in range(rng.randint(1, 5))))
             for _ in range(400)]
    pairs = [(a, b) for a, b in pairs if a.split() and b.split()]
    got = chrf_block([a for a, _ in pairs], [b for _, b in pairs])
    for (a, b), score in zip(pairs, got):
        assert score == oracles.chrf_oracle(a, b)
        assert score == chrf(a, b)


def test_chrf_block_whitespace_only_side_raises():
    with pytest.raises(ValueError):
        chrf_block(["abc", "de"], ["abc", " \t "])
    with pytest.raises(ValueError):
        chrf_block(["abc"], ["abc", "de"])
    assert chrf_block([], []) == []


# ---------------------------------------------------------------------------
# ROUGE


def test_rouge_1_frozen():
    score = rouge_n(("a", "b", "c"), ("a", "x", "c"), 1)
    assert score == pytest.approx(2 / 3)


def test_rouge_n_rejects_bad_input():
    with pytest.raises(ValueError, match="order"):
        rouge_n(("a",), ("a",), 0)
    with pytest.raises(ValueError, match=r"\(b\)"):
        rouge_n(("a",), (), 1)


def test_rouge_2_no_bigrams():
    assert rouge_n(("a",), ("a", "b"), 2) == 0.0
    assert rouge_n(("a", "b"), ("c",), 2) == 0.0


def test_rouge_l_frozen():
    assert rouge_l(("a", "b", "c"), ("a", "x", "c")) == pytest.approx(2 / 3)
    assert rouge_l(("a", "b"), ("c", "d")) == 0.0


def test_rouge_identity():
    s = ("w", "x", "y", "z")
    assert rouge_n(s, s, 1) == 1.0
    assert rouge_n(s, s, 2) == 1.0
    assert rouge_l(s, s) == 1.0


def test_rouge_matches_oracle():
    rng = random.Random(505)
    for _ in range(200):
        a, b = random_tokens(rng), random_tokens(rng)
        for n in (1, 2):
            assert rouge_n(a, b, n) == pytest.approx(
                oracles.rouge_n_oracle(a, b, n), abs=1e-12)
        assert rouge_l(a, b) == pytest.approx(
            oracles.rouge_l_oracle(a, b), abs=1e-12)


def token_lists(alphabet, max_size):
    """Token lists of any length up to ``max_size``, drawn from
    ``alphabet``; the length is drawn first so long lists come up."""
    return st.integers(0, max_size).flatmap(
        lambda size: st.lists(st.sampled_from(alphabet), min_size=size,
                              max_size=size))


@settings(max_examples=150, deadline=None)
@given(token_lists("abcd", 200), token_lists("abcd", 200))
def test_lcs_length_equals_the_dp(a, b):
    # four token kinds: long bit-vectors full of repeats, carries that
    # run across many bits
    assert textmetrics._lcs_length(a, b) == oracles.lcs_dp_oracle(a, b)


@settings(max_examples=200, deadline=None)
@given(token_lists("abcde", 10), token_lists("abcde", 10))
def test_lcs_length_equals_exhaustive_search(a, b):
    assert textmetrics._lcs_length(a, b) == oracles.lcs_oracle(a, b)


# ---------------------------------------------------------------------------
# METEOR


def test_light_stem_rules():
    assert light_stem("cats") == "cat"
    assert light_stem("runs") == "run"
    assert light_stem("glasses") == "glass"
    assert light_stem("studies") == "studi"
    assert light_stem("running") == "runn"
    assert light_stem("jumped") == "jump"
    # too short to lose a suffix
    assert light_stem("red") == "red"
    assert light_stem("sing") == "sing"


def test_meteor_identity():
    s = ("dogs", "chase", "cats")
    assert meteor_lite(s, s) == 1.0


def test_meteor_stemmed_match():
    assert meteor_lite(("cats", "run"), ("cat", "runs")) == 1.0


def test_meteor_no_match():
    assert meteor_lite(("a", "b"), ("x", "y")) == 0.0


def test_meteor_fragmentation_penalty():
    # alignment has two chunks: P = R = 1 but the penalty bites
    score = meteor_lite(("the", "cat", "sat"), ("sat", "the", "cat"))
    assert score == pytest.approx(23 / 27)


# Words whose stems collide: classes/class, running/runn, runs/run, ...
STEMMABLE = ("cat", "cats", "class", "classes", "running", "runn", "run",
             "runs", "jumped", "jump", "a")


@settings(max_examples=300, deadline=None)
@given(token_lists(STEMMABLE, 16), token_lists(STEMMABLE, 16))
def test_align_equals_the_scanning_alignment(a, b):
    assert textmetrics._align(a, b) == sorted(
        (j, i) for i, j in oracles.align_oracle(a, b))


def test_meteor_matches_oracle():
    rng = random.Random(606)
    vocab = ["cat", "cats", "run", "runs", "dog", "jumped", "jump", "a", "b"]
    for _ in range(300):
        a = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        b = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        assert meteor_lite(a, b) == pytest.approx(
            oracles.meteor_oracle(a, b), abs=1e-12), (a, b)


# ---------------------------------------------------------------------------
# whole-pair scoring and shared properties


def test_score_pair_lexical_channels():
    scores = score_pair_lexical("The cat sat.", "A cat sat!")
    assert sorted(scores) == sorted(LEXICAL_SCORERS)
    for name, score in scores.items():
        assert type(score) is float, name
        assert 0.0 <= score <= 1.0
    assert scores["bleu1"] == pytest.approx(
        bleu(tokenize("A cat sat!"), tokenize("The cat sat."),
             max_n=1, smoothing="none"))


def test_all_metrics_bounded_and_deterministic():
    rng = random.Random(707)
    for _ in range(100):
        a = " ".join(random_tokens(rng, 2, 8, vocab=["cat", "dog", "run", "sat"]))
        b = " ".join(random_tokens(rng, 2, 8, vocab=["cat", "dog", "run", "sat"]))
        first = score_pair_lexical(a, b)
        second = score_pair_lexical(a, b)
        for name in first:
            assert 0.0 <= first[name] <= 1.0
            assert first[name] == second[name]


def test_identity_scores_one_for_all_metrics():
    rng = random.Random(808)
    for _ in range(50):
        text = " ".join(random_tokens(rng, 2, 8, vocab=["cat", "dog", "run"]))
        for name, score in score_pair_lexical(text, text).items():
            assert score == pytest.approx(1.0), name


# Unicode tokens; sides of one to six tokens, so some are shorter than
# the ROUGE-2 bigram and below the BLEU order cap of 4
unicode_tokens = st.lists(st.sampled_from(
    ["a", "b", "\u00e9t\u00e9", "\u65e5\u672c", "x'y", "\u0441\u043e\u043d"]),
    min_size=1, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(unicode_tokens, unicode_tokens), min_size=1,
                max_size=6))
def test_score_lexical_block_equals_one_pair_functions_and_oracles(pairs):
    tokens_a = [a for a, _ in pairs]
    tokens_b = [b for _, b in pairs]
    texts_a = [" ".join(a) for a in tokens_a]
    texts_b = [" ".join(b) for b in tokens_b]
    got = score_lexical_block(list(LEXICAL_SCORERS), texts_a, texts_b,
                              tokens_a, tokens_b)
    one_pair = {
        "word_overlap": [word_overlap(a, b) for a, b in pairs],
        "bleu1": [bleu(b, a, max_n=1, smoothing="none") for a, b in pairs],
        "bleu": [bleu(b, a) for a, b in pairs],
        "chrf": [chrf(a, b) for a, b in zip(texts_a, texts_b)],
        "rouge1": [rouge_n(a, b, 1) for a, b in pairs],
        "rouge2": [rouge_n(a, b, 2) for a, b in pairs],
        "rougeL": [rouge_l(a, b) for a, b in pairs],
        "meteor": [meteor_lite(a, b) for a, b in pairs],
    }
    assert got == one_pair
    oracle = {
        "bleu1": [oracles.counter_bleu(b, a, 1, "none") for a, b in pairs],
        "bleu": [oracles.counter_bleu(b, a) for a, b in pairs],
        "chrf": [oracles.chrf_oracle(a, b) for a, b in zip(texts_a, texts_b)],
        "rouge1": [oracles.rouge_n_oracle(a, b, 1) for a, b in pairs],
        "rouge2": [oracles.rouge_n_oracle(a, b, 2) for a, b in pairs],
    }
    for name, values in oracle.items():
        assert got[name] == values, name


def test_score_lexical_block_counts_token_ngrams_once(monkeypatch):
    orders = []
    original = textmetrics._clipped_matches

    def counting(symbols, lengths, n_symbols, max_n):
        orders.append(max_n)
        return original(symbols, lengths, n_symbols, max_n)

    monkeypatch.setattr(textmetrics, "_clipped_matches", counting)
    texts = (["the cat sat on the mat", "a dog"], ["the cat sat", "a dog ran"])
    score_lexical_block(["bleu1", "bleu", "rouge1", "rouge2"], *texts)
    assert orders == [4]
    orders.clear()
    score_lexical_block(["rouge1"], *texts)
    assert orders == [1]
    orders.clear()
    score_lexical_block(["word_overlap", "rougeL", "meteor"], *texts)
    assert orders == []


def test_score_lexical_block_names_the_first_empty_side():
    with pytest.raises(EmptyText, match=r"\(text_b\)") as caught:
        score_lexical_block(["word_overlap"], ["red", "red", "..."],
                            ["red", "!!!", "red"])
    assert caught.value.index == 1
    assert str(caught.value.for_pair("p7")) == (
        "pair 'p7': cannot score an empty token sequence (text_b)")
    with pytest.raises(EmptyText, match=r"\(text_a\)"):
        require_tokens([(), ("a",)], [(), ()])
    with pytest.raises(EmptyText) as caught:
        require_tokens([("a",), ()], [("a",), ("b",)])
    assert caught.value.index == 1
    # chrF reads no tokens, so a tokenless pair still scores
    [score] = score_lexical_block(["chrf"], ["red oak"], ["!!! ???"])["chrf"]
    assert score == 0.0


def test_disjoint_scores_zero_for_all_metrics():
    # token AND character disjoint, so chrf drops to zero too
    for name, score in score_pair_lexical("aba cab bac", "xyz zyx yzx").items():
        assert score == 0.0, name
