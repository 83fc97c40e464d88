"""Tests for metric scoring, gold aggregation, and correlation reports."""

import csv
import io
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from labelsim.corpus import PairScores, attach_precomputed, select_pairs
from labelsim import correlate, embmetrics, textmetrics
from labelsim.correlate import (
    DISTANCE_METRICS,
    EMBEDDING_METRICS,
    LEXICAL_METRICS,
    CorrelationReport,
    UndefinedCorrelationError,
    compute_metric_scores,
    correlation_report,
    metric_universe,
    pearson,
    percent_change,
    render_report_text,
    report_doc,
    spearman,
    style_split_report,
    write_reports,
)
from labelsim.embmetrics import cosine_similarity, l2_distance
from labelsim.heuristics import (HeuristicId, compute_flag_reports,
                                 flagged_annotators, heuristic_subsets)
from labelsim.simulate import (PopulationSpec, ProfileKind, ProfileSpec,
                               generate_corpus)
from labelsim.textmetrics import (LEXICAL_SCORERS, meteor_lite, rouge_l,
                                  tokenize, word_overlap)

from conftest import make_corpus
from oracles import (bleu, chrf, chrf_oracle, correlation_report_oracle,
                     counter_bleu, jaccard_oracle, loop_ranks, pearson_oracle,
                     rank_oracle, rouge_n, rouge_n_oracle, score_pair_lexical,
                     spearman_oracle)


# ------------------------------------------------------------ correlation


def test_pearson_frozen_value():
    # ranks swap the last two items: classic r = 0.5
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_perfect_and_affine():
    xs = [0.3, 1.4, 2.2, 5.0]
    up = [2.0 * x + 7.0 for x in xs]
    down = [-0.5 * x + 1.0 for x in xs]
    assert pearson(xs, up) == pytest.approx(1.0)
    assert pearson(xs, down) == pytest.approx(-1.0)


def test_pearson_matches_oracle():
    rng = random.Random(20240819)
    for _ in range(100):
        n = rng.randint(3, 30)
        xs = [rng.uniform(-5, 5) for _ in range(n)]
        ys = [rng.uniform(-5, 5) for _ in range(n)]
        got = pearson(xs, ys)
        assert got == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)
        assert -1.0 <= got <= 1.0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pearson_does_not_depend_on_a_power_of_two_scale(data):
    n = data.draw(st.integers(3, 30))
    values = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)
    xs = data.draw(st.lists(values, min_size=n, max_size=n))
    ys = data.draw(st.lists(values, min_size=n, max_size=n))
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    # every k at which each non-zero x * 2**k stays a normal float
    exponents = [math.frexp(x)[1] for x in xs if x != 0.0]
    k = data.draw(st.integers(-1021 - min(exponents), 1024 - max(exponents)))
    scaled = [math.ldexp(x, k) for x in xs]
    assert all(x == 0.0 or sys.float_info.min <= abs(x) <= sys.float_info.max
               for x in scaled)
    assert pearson(scaled, ys) == pearson(xs, ys)
    assert pearson(ys, scaled) == pearson(ys, xs)


# a sign, a mantissa and a decimal exponent: magnitudes from 1e-300 to 1e300
WIDE_FLOATS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, m, e: sign * m * 10.0 ** e, st.sampled_from([-1, 1]),
              st.floats(1, 10, exclude_max=True), st.integers(-300, 299)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pearson_is_finite_on_any_finite_input(data):
    # the power-of-two scaling keeps every sum finite and non-zero, so the
    # result needs no check of its own; the clamp would turn a NaN into
    # 1.0, so every step is checked for overflow and 0/0 instead
    n = data.draw(st.integers(3, 30))
    xs = data.draw(st.lists(WIDE_FLOATS, min_size=n, max_size=n))
    ys = data.draw(st.lists(WIDE_FLOATS, min_size=n, max_size=n))
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        r = pearson(xs, ys)
    assert math.isfinite(r) and -1.0 <= r <= 1.0


def test_pearson_errors():
    with pytest.raises(ValueError, match="equal length"):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="at least 3"):
        pearson([1, 2], [3, 4])
    with pytest.raises(UndefinedCorrelationError, match="constant"):
        pearson([2, 2, 2], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError, match="constant"):
        pearson([1, 2, 3], [5, 5, 5])
    # the mean of three 0.1s is not 0.1, so the spread alone misses this
    with pytest.raises(UndefinedCorrelationError, match="constant"):
        pearson([0.1, 0.1, 0.1], [1, 2, 3])


def test_spearman_monotone_transform_is_one():
    xs = [0.1, 2.0, 3.5, 9.0, 11.0]
    ys = [math.exp(x) for x in xs]
    assert spearman(xs, ys) == pytest.approx(1.0)
    assert spearman(xs, [-y for y in ys]) == pytest.approx(-1.0)


def test_spearman_tie_handling_frozen():
    # xs ranks [1, 2.5, 2.5, 4] against ys ranks [1, 2, 3, 4]:
    # r = 4.5 / sqrt(4.5 * 5) = 3 / sqrt(10)
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == \
        pytest.approx(3.0 / math.sqrt(10.0))


def test_spearman_matches_oracle_with_ties():
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(3, 25)
        xs = [rng.choice([0.0, 1.0, 2.5, 7.0]) for _ in range(n)]
        ys = [rng.choice([0.0, 1.0, 2.5, 7.0]) for _ in range(n)]
        try:
            expected = spearman_oracle(xs, ys)
        except ZeroDivisionError:
            continue
        if math.isnan(expected):
            continue
        try:
            got = spearman(xs, ys)
        except UndefinedCorrelationError:
            assert len(set(xs)) == 1 or len(set(ys)) == 1
            continue
        assert got == pytest.approx(expected, abs=1e-12)


def test_pearson_rejects_nan():
    # a NaN must not pass the [-1, 1] clamp as a perfect 1.0
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        pearson([1, 2, float("nan"), 4], [1, 2, 3, 5])
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        pearson([1, 2, 3, 4], [1, float("inf"), 3, 5])


def test_spearman_rejects_nan():
    # ranking NaN as the largest value would give -0.8 here
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        spearman([1, 2, float("nan"), 4], [1, 2, 3, 5])
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        spearman([1, 2, 3, 4], [1, 2, float("-inf"), 5])


@given(st.lists(st.integers(min_value=-4, max_value=4), max_size=60))
def test_ranks_match_loop_ranks(values):
    got = correlate._ranks(values)
    assert np.array_equal(got, loop_ranks(values))
    assert got.tolist() == rank_oracle(values)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 5000),
       pool=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=8),
       distinct_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_ranks_match_loop_ranks_at_fast_sort_sizes(n, pool, distinct_share,
                                                   seed):
    # Arrays long enough for numpy's unstable (SIMD) sort, mostly drawn
    # from a few values with 0.0 and -0.0 among them, so tie groups are
    # large and hold both zeros.
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(pool + [0.0, -0.0]), size=n)
    distinct = rng.random(n) < distinct_share
    values[distinct] = rng.standard_normal(int(distinct.sum()))
    assert np.array_equal(correlate._ranks(values), loop_ranks(values))


def test_percent_change():
    assert percent_change(1.2, 1.0) == pytest.approx(20.0)
    assert percent_change(-0.5, -1.0) == pytest.approx(50.0)
    assert percent_change(-1.5, -1.0) == pytest.approx(-50.0)
    with pytest.raises(ZeroDivisionError):
        percent_change(1.0, 0.0)


# ------------------------------------------------------------- pair gold


def flags(corpus, *heuristics):
    """One flag pass over the numbered heuristics."""
    return compute_flag_reports(corpus, [HeuristicId(h) for h in heuristics])


def gold_fixture():
    """Five pairs with two, one or no labels: the slow 'junk' never saw
    p3, and nobody labeled p5."""
    pairs = [(f"p{i}", f"w{i} x{i}", f"y{i} z{i}") for i in range(1, 6)]
    annotations = [("p1", "good", 1), ("p1", "junk", 3, 400.0),
                   ("p2", "good", 4), ("p2", "junk", 2, 400.0),
                   ("p3", "good", 5),
                   ("p4", "good", 2), ("p4", "junk", 5, 400.0)]
    metric = {f"p{i}": i / 10.0 for i in range(1, 6)}
    return make_corpus(pairs, annotations), {"m": metric}


def test_pair_gold_means():
    # with unequal label counts, gold is each pair's own mean
    corpus, metric_scores = gold_fixture()
    report = correlation_report(corpus, metric_scores, flags(corpus, 1))
    xs = [0.1, 0.2, 0.3, 0.4]
    assert report.baseline["m"].pearson == pearson(xs, [2.0, 3.0, 5.0, 3.5])
    assert report.baseline["m"].n_pairs == 4
    (slow_row,) = report.subsets
    assert slow_row.removed_annotators == ("junk",)
    assert slow_row.cells["m"].pearson == pearson(xs, [1.0, 4.0, 5.0, 2.0])


def test_pair_gold_annotator_restriction():
    # a panel's gold reads its own labels and skips the pairs it never saw
    corpus, metric_scores = gold_fixture()
    report = correlation_report(corpus, metric_scores, flags(corpus, 1),
                                annotator_ids={"junk"})
    assert report.baseline["m"].pearson == \
        pearson([0.1, 0.2, 0.4], [3.0, 2.0, 5.0])
    assert report.baseline["m"].n_pairs == 3


def test_pair_gold_skips_unannotated_pairs():
    # nobody labeled p5: the report counts it, its gold leaves it out, and
    # the cells are those of the corpus without it, bit for bit
    corpus, metric_scores = gold_fixture()
    pairs = [(p.pair_id, p.text_a, p.text_b) for p in corpus.pairs
             if p.pair_id != "p5"]
    annotations = [(a.pair_id, a.annotator_id, a.label, a.duration)
                   for a in corpus.annotations]
    corpus4 = make_corpus(pairs, annotations)
    for per_annotation in (False, True):
        report, report4 = (
            correlation_report(c, metric_scores, flags(c, 1),
                               per_annotation=per_annotation)
            for c in (corpus, corpus4))
        assert report.n_pairs == 5
        assert report4.n_pairs == 4
        assert report.baseline == report4.baseline
        assert report.subsets[0].cells == report4.subsets[0].cells


# ------------------------------------------------------- metric scoring


def scoring_corpus():
    return make_corpus(
        [("p1", "the cat sat", "the cat sat"),
         ("p2", "dog house tree", "fish moon car"),
         ("p3", "bird tree", "tree bird")],
        [("p1", "good", 5), ("p2", "good", 1), ("p3", "good", 4)],
    )


def scoring_table():
    rng = np.random.default_rng(17)
    words = ["the", "cat", "sat", "dog", "house", "tree", "fish",
             "moon", "car", "bird"]
    return {w: rng.normal(size=4) for w in words}


def test_metric_universe():
    names = metric_universe()
    assert list(LEXICAL_METRICS) == list(LEXICAL_SCORERS)
    assert names == list(LEXICAL_METRICS) + list(EMBEDDING_METRICS)
    corpus = attach_precomputed(scoring_corpus(), "ext", {"p1": 0.5})
    assert metric_universe(corpus) == names + ["ext"]


def test_compute_metric_scores_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'nope'"):
        compute_metric_scores(scoring_corpus(), ["nope"])


def test_compute_metric_scores_missing_table_errors():
    corpus = scoring_corpus()
    with pytest.raises(ValueError, match="need an embedding table"):
        compute_metric_scores(corpus, ["cosine"])
    with pytest.raises(ValueError, match="embedding table or sentence"):
        compute_metric_scores(corpus, ["l2"])


def test_compute_metric_scores_lexical_values():
    corpus = scoring_corpus()
    scores = compute_metric_scores(corpus, list(LEXICAL_METRICS))
    assert set(scores) == set(LEXICAL_METRICS)
    assert all(len(scores[name]) == len(corpus.pairs)
               for name in LEXICAL_METRICS)
    for pair in corpus.pairs:
        direct = score_pair_lexical(pair.text_a, pair.text_b)
        for name in LEXICAL_METRICS:
            assert scores[name][pair.pair_id] == direct[name]
    # identical sentences max out; token-disjoint ones bottom out except
    # chrf, whose character n-grams still share letters like o/s/h/r
    for name in LEXICAL_METRICS:
        assert scores[name]["p1"] == pytest.approx(1.0)
        if name == "chrf":
            assert 0.0 <= scores[name]["p2"] < 0.15
        else:
            assert scores[name]["p2"] == pytest.approx(0.0, abs=1e-12)


BLOCK = textmetrics.BLOCK_PAIRS


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                  2 * BLOCK + 1])
def test_compute_metric_scores_chrf_blocks(size):
    # every lexical column, chrF's among them, over one pair, one pair
    # either side of a block boundary, and two full blocks; sides of one
    # to six words, so some are shorter than the bigram and BLEU orders
    rng = random.Random(size)
    words = ["caf\u00e9", "na\u00efve", "tree", "trees", "\u65e5\u672c", "a", "ox"]
    specs = [(f"p{i}", " ".join(rng.choices(words, k=rng.randint(1, 6))),
              " ".join(rng.choices(words, k=rng.randint(1, 6))))
             for i in range(size)]
    corpus = make_corpus(specs, [])
    scores = compute_metric_scores(corpus, list(LEXICAL_METRICS))
    tokens = [(tokenize(a), tokenize(b)) for _, a, b in specs]
    one_pair = {
        "word_overlap": [word_overlap(a, b) for a, b in tokens],
        "bleu1": [bleu(b, a, max_n=1, smoothing="none") for a, b in tokens],
        "bleu": [bleu(b, a) for a, b in tokens],
        "chrf": [chrf(a, b) for _, a, b in specs],
        "rouge1": [rouge_n(a, b, 1) for a, b in tokens],
        "rouge2": [rouge_n(a, b, 2) for a, b in tokens],
        "rougeL": [rouge_l(a, b) for a, b in tokens],
        "meteor": [meteor_lite(a, b) for a, b in tokens],
    }
    oracle = {
        "word_overlap": [jaccard_oracle(a, b) for a, b in tokens],
        "bleu1": [counter_bleu(b, a, 1, "none") for a, b in tokens],
        "bleu": [counter_bleu(b, a, 4, "add_one") for a, b in tokens],
        "chrf": [chrf_oracle(a, b) for _, a, b in specs],
        "rouge1": [rouge_n_oracle(a, b, 1) for a, b in tokens],
        "rouge2": [rouge_n_oracle(a, b, 2) for a, b in tokens],
    }
    for name in LEXICAL_METRICS:
        assert list(scores[name]) == [pid for pid, _, _ in specs]
        column = [scores[name][pid] for pid, _, _ in specs]
        assert column == one_pair[name], name
        if name in oracle:
            assert column == oracle[name], name


@pytest.mark.parametrize("name", LEXICAL_METRICS)
def test_compute_metric_scores_scores_only_the_requested_metric(
        name, monkeypatch):
    # every other lexical scorer raises, so asking for one metric must not
    # score another on the side
    corpus = scoring_corpus()
    expected = {p.pair_id: score_pair_lexical(p.text_a, p.text_b)[name]
                for p in corpus.pairs}

    def unrequested(*args):
        raise AssertionError("scored a metric that was not requested")

    for other, (order, _) in textmetrics.LEXICAL_SCORERS.items():
        if other != name:
            monkeypatch.setitem(textmetrics.LEXICAL_SCORERS, other,
                                (order, unrequested))
    scores = compute_metric_scores(corpus, [name])
    assert scores == {name: expected}


def test_compute_metric_scores_names_a_pair_without_word_tokens():
    corpus = make_corpus([("p1", "red oak", "red elm"),
                          ("p2", "red oak", "!!! ???")], [])
    with pytest.raises(ValueError, match=r"pair 'p2'.*\(text_b\)"):
        compute_metric_scores(corpus, ["rouge1"])
    # past the first block, the pair is found by its place in its block
    late = make_corpus([(f"q{i}", "red oak", "red elm")
                        for i in range(BLOCK + 2)]
                       + [("q_last", "...", "red elm")], [])
    with pytest.raises(ValueError, match=r"pair 'q_last'.*\(text_a\)"):
        compute_metric_scores(late, ["meteor"])
    # chrF alone scores punctuation
    scores = compute_metric_scores(corpus, ["chrf"])
    assert scores["chrf"]["p2"] == chrf_oracle("red oak", "!!! ???") == 0.0


@pytest.mark.parametrize("name", ["word_overlap", "rougeL", "meteor"])
def test_pair_by_pair_scorers_name_a_pair_without_word_tokens(name):
    # their table entries leave the check to the block, which names the pair
    corpus = make_corpus([("p1", "red oak", "red elm"),
                          ("p2", "red oak", "!!! ???")], [])
    with pytest.raises(ValueError, match=r"^pair 'p2': .*\(text_b\)$"):
        compute_metric_scores(corpus, [name])


def test_compute_metric_scores_orientation():
    # one rule: a metric in DISTANCE_METRICS or among the distance
    # channels is negated, every other metric keeps its raw value
    corpus = scoring_corpus()
    for name, values in (("ext_dist", {"p1": 0.5, "p2": 2.0, "p3": 1.0}),
                         ("ext_sim", {"p1": 0.9, "p2": -0.2, "p3": 0.4})):
        corpus = attach_precomputed(corpus, name, values)
    kwargs = dict(metrics=metric_universe(corpus), table=scoring_table(),
                  noun_tagger=lambda toks: list(toks),
                  distance_channels={"ext_dist"})
    oriented = compute_metric_scores(corpus, **kwargs)
    raw = compute_metric_scores(corpus, oriented=False, **kwargs)
    assert set(DISTANCE_METRICS) < set(EMBEDDING_METRICS)
    for name in metric_universe(corpus):
        assert sorted(raw[name]) == sorted(oriented[name]) == \
            ["p1", "p2", "p3"], name
        for pid, value in raw[name].items():
            if name in DISTANCE_METRICS or name == "ext_dist":
                assert oriented[name][pid] == -value, (name, pid)
                assert value >= 0.0, (name, pid)
            else:
                assert oriented[name][pid] == value, (name, pid)
    # identical sentences: zero distance, cosine 1
    assert raw["wmd"]["p1"] == pytest.approx(0.0, abs=1e-12)
    assert raw["l2"]["p1"] == pytest.approx(0.0, abs=1e-12)
    assert raw["cosine"]["p1"] == pytest.approx(1.0)


def test_compute_metric_scores_mean_vectors_once_per_pair(monkeypatch):
    corpus = scoring_corpus()
    table = scoring_table()
    calls = []
    original = embmetrics.sentence_vector

    def counting(tokens, tab):
        calls.append(tuple(tokens))
        return original(tokens, tab)

    monkeypatch.setattr(embmetrics, "sentence_vector", counting)
    scores = compute_metric_scores(corpus, ["cosine", "l2"], table=table)
    assert len(calls) == 2 * len(corpus.pairs)
    for pair in corpus.pairs:
        va = original(tokenize(pair.text_a), table)
        vb = original(tokenize(pair.text_b), table)
        assert scores["cosine"][pair.pair_id] == cosine_similarity(va, vb)
        assert scores["l2"][pair.pair_id] == -l2_distance(va, vb)


def test_compute_metric_scores_drops_oov_pairs():
    corpus = make_corpus(
        [("p1", "cat dog", "dog cat"), ("p2", "qq zz", "xx yy")],
        [("p1", "good", 5), ("p2", "good", 1)],
    )
    table = scoring_table()
    scores = compute_metric_scores(
        corpus, ["cosine", "wmd", "word_overlap"], table=table)
    assert {name: sorted(values) for name, values in scores.items()} == {
        "cosine": ["p1"], "wmd": ["p1"], "word_overlap": ["p1", "p2"]}
    assert scores["word_overlap"]["p2"] == 0.0


@pytest.mark.parametrize("metric, message", [
    ("wmd", "costs must be finite and non-negative"),
    ("pos_dist", "matching costs must be finite")])
def test_compute_metric_scores_raises_solver_errors_with_the_pair(
        metric, message):
    # "huge" has finite components whose squared distances overflow; p2
    # has no embeddable token on one side, which is a drop, not an error
    table = scoring_table()
    table["huge"] = np.array([1e200, 0.0, 0.0, 0.0])
    pairs = [("p1", "cat dog", "dog cat"), ("p2", "qq zz", "cat"),
             ("p3", "huge cat", "dog tree")]

    def scores(n_pairs):
        corpus = make_corpus(pairs[:n_pairs], [
            (pid, "good", 3) for pid, _, _ in pairs[:n_pairs]])
        return compute_metric_scores(corpus, [metric], table=table,
                                     noun_tagger=lambda toks: list(toks))

    assert sorted(scores(2)[metric]) == ["p1"]
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match=f"^pair 'p3': {message}$"):
        scores(3)
    # a bad argument is not blamed on a pair
    with pytest.raises(ValueError,
                       match="^unknown pos_distance aggregate 'median'$"):
        compute_metric_scores(make_corpus(pairs, []), ["pos_dist"],
                              table=table, pos_aggregate="median")


def test_compute_metric_scores_precomputed_channels():
    corpus = attach_precomputed(
        scoring_corpus(), "ext_dist", {"p1": 0.5, "p2": 2.0})
    scores = compute_metric_scores(
        corpus, ["ext_dist"], distance_channels={"ext_dist"})
    assert scores["ext_dist"] == {"p1": -0.5, "p2": -2.0}  # p3 has no value
    raw = compute_metric_scores(
        corpus, ["ext_dist"], distance_channels={"ext_dist"}, oriented=False)
    assert raw["ext_dist"] == {"p1": 0.5, "p2": 2.0}
    # channels not named as distances pass through untouched
    plain = compute_metric_scores(corpus, ["ext_dist"])
    assert plain["ext_dist"] == {"p1": 0.5, "p2": 2.0}


def test_compute_metric_scores_sentence_embedding_l2():
    corpus = scoring_corpus()
    sent = {
        "p1": {"a": np.array([0.0, 0.0]), "b": np.array([3.0, 4.0])},
        "p2": {"a": np.array([1.0, 1.0]), "b": np.array([1.0, 1.0])},
        # p3 missing entirely -> dropped
    }
    scores = compute_metric_scores(corpus, ["l2"], sent_embeddings=sent)
    assert scores["l2"]["p1"] == pytest.approx(-5.0)
    assert scores["l2"]["p2"] == pytest.approx(0.0)
    assert "p3" not in scores["l2"]


def test_compute_metric_scores_gold_tag_route():
    corpus = make_corpus(
        [("p1", "the cat", "the dog")],
        [("p1", "good", 3)],
    )
    table = scoring_table()
    tags = {("p1", "a"): {1: "NN"}, ("p1", "b"): {1: "NN"}}
    scores = compute_metric_scores(
        corpus, ["pos_dist"], table=table, gold_tags=tags)
    expected = float(np.linalg.norm(
        table["cat"] - table["dog"]))
    assert scores["pos_dist"]["p1"] == pytest.approx(-expected)


def test_compute_metric_scores_precomputed_only_skips_pair_pass():
    corpus = attach_precomputed(scoring_corpus(), "ext", {"p1": 0.5, "p3": 0.2})
    scores = compute_metric_scores(corpus, ["ext"])
    assert scores == {"ext": {"p1": 0.5, "p3": 0.2}}


def test_compute_metric_scores_shares_channel_arrays():
    corpus = attach_precomputed(scoring_corpus(), "ext", {"p1": 0.5, "p3": 0.2})
    corpus = attach_precomputed(corpus, "ext_dist", {"p2": 2.0})
    channels = corpus.precomputed_scores
    scores = compute_metric_scores(corpus, ["ext", "ext_dist", "rouge1"],
                                   distance_channels={"ext_dist"})
    assert all(isinstance(column, PairScores) for column in scores.values())
    assert scores["ext"] is channels["ext"]
    # a distance channel is negated into new values over the same mask
    assert scores["ext_dist"].defined is channels["ext_dist"].defined
    assert scores["ext_dist"] == {"p2": -2.0}
    assert channels["ext_dist"] == {"p2": 2.0}
    assert scores["rouge1"].columns is corpus.columns
    # a cut corpus reads its parent's channels over its own pairs
    cut = select_pairs(corpus, corpus.pairs[1:])
    assert compute_metric_scores(cut, ["ext"]) == {"ext": {"p3": 0.2}}


def test_compute_metric_scores_retains_arrays_not_per_pair_objects():
    # 8 lexical metrics on about 2,000 pairs: what the call leaves behind
    # is its columns, 8 bytes of value and 1 of mask per (pair, metric),
    # not a float object and a dict slot per score (about 47 bytes)
    corpus, _ = generate_corpus(PopulationSpec(n_pairs=2000, seed=5))
    corpus.columns.pair_index  # the cached indexes, made before counting
    metrics = list(LEXICAL_METRICS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scores = compute_metric_scores(corpus, metrics)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(len(scores[name]) == len(corpus.pairs) for name in metrics)
    assert retained / (len(corpus.pairs) * len(metrics)) < 20


# ------------------------------------------------------------- reports


def report_fixture():
    """Six pairs; 'good' tracks the metric, 'junk' is a constant-3 firehose."""
    pairs = [(f"p{i}", f"w{i} x{i}", f"y{i} z{i}") for i in range(1, 7)]
    good_labels = {"p1": 1, "p2": 2, "p3": 2, "p4": 4, "p5": 4, "p6": 5}
    annotations = [(pid, "good", lab) for pid, lab in good_labels.items()]
    annotations += [(pid, "junk", 3) for pid in good_labels]
    corpus = make_corpus(pairs, annotations)
    metric = {f"p{i}": i / 10.0 for i in range(1, 7)}
    return corpus, {"m": metric}


def pct_pair(report, row, name):
    """A subset cell's (Pearson, Spearman) percent changes, derived as the
    renderers derive them."""
    return correlate._pct_pair(row.cells[name], report.baseline[name])


def test_correlation_report_baseline_and_filtering():
    corpus, metric_scores = report_fixture()
    report = correlation_report(corpus, metric_scores, flags(corpus, 1, 2))
    assert report.status == "ok"
    assert report.metrics == ("m",)
    assert report.n_pairs == 6

    xs = [metric_scores["m"][f"p{i}"] for i in range(1, 7)]
    base_gold = [2.0, 2.5, 2.5, 3.5, 3.5, 4.0]
    assert report.baseline["m"].pearson == pearson(xs, base_gold)
    assert report.baseline["m"].n_pairs == 6

    slow_row, lowvar_row, _ = report.subsets
    # nobody is slow: identical to baseline, bit for bit
    assert slow_row.removed_annotators == ()
    assert slow_row.cells["m"].pearson == report.baseline["m"].pearson
    assert pct_pair(report, slow_row, "m")[0] == 0.0

    # the constant annotator goes; gold becomes the informative labels
    assert lowvar_row.removed_annotators == ("junk",)
    filtered_gold = [1.0, 2.0, 2.0, 4.0, 4.0, 5.0]
    assert lowvar_row.cells["m"].pearson == pearson(xs, filtered_gold)
    assert pct_pair(report, lowvar_row, "m")[0] == pytest.approx(
        percent_change(lowvar_row.cells["m"].pearson,
                       report.baseline["m"].pearson))
    assert pct_pair(report, lowvar_row, "m")[1] == pytest.approx(
        percent_change(lowvar_row.cells["m"].spearman,
                       report.baseline["m"].spearman))


def test_correlation_report_default_subsets_are_all_31():
    corpus, metric_scores = report_fixture()
    report = correlation_report(corpus, metric_scores,
                                flags(corpus, *HeuristicId))
    assert len(report.subsets) == 31
    assert report.subsets[0].subset == (HeuristicId.SLOW,)
    assert len(report.subsets[-1].subset) == 5
    # singleton rows come first, ordered by heuristic number
    assert [row.subset for row in report.subsets[:5]] == [
        (HeuristicId.SLOW,),
        (HeuristicId.LOW_VARIANCE,),
        (HeuristicId.HIGH_RANDOM,),
        (HeuristicId.DISAGREEABLE,),
        (HeuristicId.SENTIMENT_DISALIGNED,),
    ]


def test_correlation_report_default_subsets_are_those_of_the_pass():
    corpus, metric_scores = report_fixture()
    report = correlation_report(corpus, metric_scores, flags(corpus, 2, 1))
    assert [row.subset for row in report.subsets] == [
        (HeuristicId.SLOW,), (HeuristicId.LOW_VARIANCE,),
        (HeuristicId.SLOW, HeuristicId.LOW_VARIANCE)]
    assert [row.removed_annotators for row in report.subsets] == [
        (), ("junk",), ("junk",)]


def test_dropped_pairs_counts_only_corpus_pairs():
    # 'm' lacks p6 and scores 4 pairs the corpus does not hold
    corpus, metric_scores = report_fixture()
    inside = {pid: v for pid, v in metric_scores["m"].items() if pid != "p6"}
    outside = {f"x{i}": 0.5 for i in range(4)}
    report = correlation_report(corpus, {"m": {**inside, **outside}},
                                flags(corpus, 2))
    assert report.dropped == {"m": 1}
    alone = correlation_report(corpus, {"m": inside}, flags(corpus, 2))
    assert report == alone


def test_correlation_report_unavailable_metric():
    corpus, metric_scores = report_fixture()
    metric_scores = dict(metric_scores)
    metric_scores["part"] = {"p1": 0.5, "p2": 0.7}  # 4 of 6 missing
    report = correlation_report(corpus, metric_scores, flags(corpus, 1))
    assert report.metrics == ("m",)
    assert "part" in report.unavailable
    assert "undefined on 4 of 6 pairs" in report.unavailable["part"]
    assert report.dropped["part"] == 4
    assert "part" not in report.baseline


def test_correlation_report_skips_metric_only_pairs():
    corpus, metric_scores = report_fixture()
    pairs = [(p.pair_id, p.text_a, p.text_b) for p in corpus.pairs]
    pairs.append(("p7", "spare a", "spare b"))
    annotations = [(a.pair_id, a.annotator_id, a.label)
                   for a in corpus.annotations]
    corpus7 = make_corpus(pairs, annotations)
    report = correlation_report(corpus7,
                                {"m": dict(metric_scores["m"], p7=0.9)},
                                flags(corpus7, 1))
    # p7 has a metric value but no annotations, so it never joins the gold
    assert report.baseline["m"].n_pairs == 6
    assert report.n_pairs == 7


def test_correlation_report_empty_panel():
    corpus, metric_scores = report_fixture()
    report = correlation_report(corpus, metric_scores, flags(corpus, 1),
                                annotator_ids=set(), label="nobody")
    assert report.status == "empty: no annotators in this panel"
    assert report.metrics == ()
    assert report.subsets == ()


def test_correlation_report_rejects_a_flag_pass_over_another_corpus():
    # 'junk' never labeled p3 or p5, so a cut to them lacks it: the full
    # corpus's pass would list it as removed and remove nobody
    corpus, metric_scores = gold_fixture()
    cut = select_pairs(corpus, tuple(p for p in corpus.pairs
                                     if p.pair_id in ("p3", "p5")))
    message = ("dataset x: the flag pass was made over another corpus; "
               "its annotators are not this corpus's")
    for target, source in ((cut, corpus), (corpus, cut)):
        with pytest.raises(ValueError) as exc:
            correlation_report(target, metric_scores, flags(source, 1),
                               label="dataset x")
        assert str(exc.value) == message


def test_correlation_report_subset_that_empties_the_panel_is_undefined():
    # 'slow' is the whole panel and heuristic 1 removes it; heuristic 2
    # removes nobody, so its row stays defined and equals the baseline.
    pairs = [(f"p{i}", f"w{i} x{i}", f"y{i} z{i}") for i in range(1, 7)]
    slow_labels = [1, 2, 4, 3, 5, 5]
    annotations = [(f"p{i}", "slow", lab, 400.0)
                   for i, lab in enumerate(slow_labels, start=1)]
    annotations += [(f"p{i}", "fast", 6 - lab, 20.0)
                    for i, lab in enumerate(slow_labels, start=1)]
    corpus = make_corpus(pairs, annotations)
    metric_scores = {"m": {f"p{i}": i / 10.0 for i in range(1, 7)}}
    report = correlation_report(
        corpus, metric_scores, flags(corpus, 1, 2), annotator_ids={"slow"},
        label="slow panel")
    assert report.status == "ok"
    emptied, kept, _ = report.subsets
    assert emptied.removed_annotators == ("slow",)
    assert emptied.cells["m"] == correlate.MetricCorrelation(None, None, 0)
    assert pct_pair(report, emptied, "m") == (None, None)
    assert kept.cells["m"] == report.baseline["m"]
    assert pct_pair(report, kept, "m") == (0.0, 0.0)

    csv_rows = written(report, "csv").splitlines()
    assert "slow panel,1,m,,,,,0,,1" in csv_rows
    doc = json.loads(written(report, "json"))
    assert doc["subsets"][0]["cells"]["m"] == {
        "pearson": None, "spearman": None, "n_pairs": 0,
        "pearson_pct": None, "spearman_pct": None}
    text_rows = render_report_text(report).splitlines()
    assert text_rows[3].split() == ["[1]", "n/a"]


def scaled_metric_fixture(scale):
    """Six pairs: 'r1' and 'r2' label p0-p4, and the one slow annotator,
    'slow', alone labels p5.  Metric 'm' is ``scale`` times 1 ... 5 on
    p0-p4 and 1.0 on p5."""
    r1, r2 = [1, 2, 3, 4, 5], [2, 4, 1, 3, 5]
    pairs = [(f"p{i}", "a b c", "a b d") for i in range(6)]
    annotations = [(f"p{i}", aid, labels[i], 10.0)
                   for i in range(5) for aid, labels in (("r1", r1),
                                                         ("r2", r2))]
    annotations.append(("p5", "slow", 5, 900.0))
    metric = {f"p{i}": (i + 1) * scale for i in range(5)}
    metric["p5"] = 1.0
    return make_corpus(pairs, annotations), {"m": metric}


def test_subset_cell_at_1e_170_scale_matches_unit_scale():
    corpus, tiny = scaled_metric_fixture(1e-170)
    _, unit = scaled_metric_fixture(1.0)
    report = correlation_report(corpus, tiny, flags(corpus, 1))
    assert f"{report.baseline['m'].pearson:.6f}" == "0.554700"
    (row,) = report.subsets
    # removing 'slow' drops p5; the five values left square to subnormals
    # or zero unless pearson scales them first
    assert row.removed_annotators == ("slow",)
    (unit_row,) = correlation_report(corpus, unit, flags(corpus, 1)).subsets
    cell, unit_cell = row.cells["m"], unit_row.cells["m"]
    assert f"{cell.pearson:.6f}" == f"{unit_cell.pearson:.6f}" == "0.866025"
    assert cell.pearson == pytest.approx(unit_cell.pearson, abs=1e-15)
    assert cell.spearman == unit_cell.spearman
    assert cell.n_pairs == unit_cell.n_pairs == 5

    # the same five values alone make the baseline, which is defined too
    for scores in (tiny, unit):
        del scores["m"]["p5"]
    got = correlation_report(corpus, tiny, flags(corpus, 1)).baseline["m"]
    want = correlation_report(corpus, unit, flags(corpus, 1)).baseline["m"]
    assert got.pearson == pytest.approx(want.pearson, abs=1e-15)
    assert got.n_pairs == want.n_pairs == 5


def test_correlation_report_baseline_needs_three_observations(monkeypatch):
    monkeypatch.setattr(correlate, "UNAVAILABLE_FRACTION", 1.0)
    corpus, metric_scores = report_fixture()
    few = {"m": dict(list(metric_scores["m"].items())[:2])}
    with pytest.raises(ValueError, match="^all annotators: metric 'm': "
                       "correlation needs at least 3 observations$"):
        correlation_report(corpus, few, flags(corpus, 1))


def test_correlation_report_per_annotation_gold():
    corpus, metric_scores = report_fixture()
    report = correlation_report(corpus, metric_scores, flags(corpus, 1),
                                per_annotation=True)
    # each pair contributes one observation per surviving label
    good_labels = {"p1": 1, "p2": 2, "p3": 2, "p4": 4, "p5": 4, "p6": 5}
    xs, ys = [], []
    for i in range(1, 7):
        pid = f"p{i}"
        for label in (float(good_labels[pid]), 3.0):
            xs.append(metric_scores["m"][pid])
            ys.append(label)
    assert report.baseline["m"].pearson == pearson(xs, ys)
    assert report.baseline["m"].n_pairs == 6


def test_correlation_report_panel_restriction_interacts_with_filters():
    corpus, metric_scores = report_fixture()
    # panel of junk alone: baseline gold is constant 3 -> error surfaces
    with pytest.raises(UndefinedCorrelationError):
        correlation_report(corpus, metric_scores, flags(corpus, 1),
                           annotator_ids={"junk"})


def test_style_split_report():
    pairs = [(f"p{i}", f"w{i} x{i}", f"y{i} z{i}") for i in range(1, 7)]
    rad_labels = {"p1": 1, "p2": 5, "p3": 1, "p4": 5, "p5": 1, "p6": 5}
    cen_labels = {"p1": 1, "p2": 2, "p3": 4, "p4": 2, "p5": 4, "p6": 4}
    annotations = [(pid, "rad", lab) for pid, lab in rad_labels.items()]
    annotations += [(pid, "cen", lab) for pid, lab in cen_labels.items()]
    corpus = make_corpus(pairs, annotations)
    metric = {f"p{i}": i / 10.0 for i in range(1, 7)}

    rad_report, cen_report = style_split_report(
        corpus, {"m": metric}, flags(corpus, 1))
    assert rad_report.label == "Radical-only gold"
    assert cen_report.label == "Centrist-only gold"

    xs = [metric[f"p{i}"] for i in range(1, 7)]
    assert rad_report.baseline["m"].pearson == \
        pearson(xs, [float(rad_labels[f"p{i}"]) for i in range(1, 7)])
    assert cen_report.baseline["m"].pearson == \
        pearson(xs, [float(cen_labels[f"p{i}"]) for i in range(1, 7)])


# ------------------------------------------------------------ renderers


def written(panels, fmt):
    """The document that ``write_reports`` writes for ``panels``."""
    fh = io.StringIO()
    write_reports(panels, fmt, fh)
    return fh.getvalue()


def rendered_report():
    corpus, metric_scores = report_fixture()
    return correlation_report(corpus, metric_scores, flags(corpus, 1, 2),
                              label="all, annotators")


def test_render_report_csv():
    report = rendered_report()
    text = written(report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ("panel,filter,metric,pearson,spearman,pearson_pct,"
                        "spearman_pct,n_pairs,dropped_pairs,removed_annotators")
    # 1 metric x (1 baseline + 3 subsets of the pass over [1, 2])
    assert len(lines) == 1 + 4
    # the panel label holds a comma, so it is quoted, not rewritten
    assert lines[1].startswith('"all, annotators",baseline,m,')
    rows = list(csv.DictReader(io.StringIO(text)))
    assert all(None not in row for row in rows)
    assert {row["panel"] for row in rows} == {"all, annotators"}
    assert [row["filter"] for row in rows] == ["baseline", "1", "2", "1+2"]
    assert [row["removed_annotators"] for row in rows] == ["", "0", "1", "1"]
    # baseline rows leave the pct columns empty
    assert rows[0]["pearson_pct"] == ""
    assert rows[0]["spearman_pct"] == ""


def test_render_report_json_round_trip():
    report = rendered_report()
    doc = json.loads(written(report, "json"))
    assert doc["label"] == "all, annotators"
    assert doc["status"] == "ok"
    assert doc["metrics"] == ["m"]
    assert doc["n_pairs"] == 6
    assert [row["subset"] for row in doc["subsets"]] == [[1], [2], [1, 2]]
    assert doc["subsets"][1]["removed_annotators"] == ["junk"]
    cell = doc["subsets"][1]["cells"]["m"]
    assert set(cell) == {"pearson", "spearman", "n_pairs",
                         "pearson_pct", "spearman_pct"}
    # every float is written to 12 significant digits
    assert doc["baseline"]["m"]["pearson"] == \
        float(f"{report.baseline['m'].pearson:.12g}")
    assert cell["pearson_pct"] == \
        float(f"{pct_pair(report, report.subsets[1], 'm')[0]:.12g}")
    assert doc == report_doc(report)


def test_render_reports_joins_panels_into_one_document():
    first = rendered_report()
    corpus, metric_scores = report_fixture()
    second = correlation_report(corpus, metric_scores, flags(corpus, 1),
                                label="other")
    panels = {"x": first, "y": second}

    lines = written(panels, "csv").splitlines()
    assert lines == written(first, "csv").splitlines() \
        + written(second, "csv").splitlines()[1:]
    assert sum(line.startswith("panel,") for line in lines) == 1
    assert json.loads(written(panels, "json")) == {
        "x": report_doc(first), "y": report_doc(second)}
    assert written(panels, "text") == \
        render_report_text(first) + render_report_text(second)
    assert written(first, "text") == render_report_text(first)


def test_report_doc_rounds_floats_and_keeps_undefined_cells():
    # the subset's Pearson is 2/3 % below the baseline's
    base = correlate.MetricCorrelation(1 / 3, None, 3)
    cell = correlate.MetricCorrelation(298 / 900, None, 3)
    report = CorrelationReport(
        label="x", status="ok", metrics=("m",), baseline={"m": base},
        subsets=(correlate.SubsetResult(
            subset=(HeuristicId.SLOW,), removed_annotators=("a",),
            cells={"m": cell}),),
        dropped={}, unavailable={}, n_pairs=3)
    doc = report_doc(report)
    assert doc["baseline"]["m"] == {"pearson": 0.333333333333,
                                    "spearman": None, "n_pairs": 3}
    sub = doc["subsets"][0]["cells"]["m"]
    assert sub["pearson"] == 0.331111111111
    assert sub["pearson_pct"] == -0.666666666667
    assert sub["spearman_pct"] is None
    assert '"pearson": 0.333333333333,' in written(report, "json")


def test_render_report_text():
    report = rendered_report()
    text = render_report_text(report)
    assert "baseline" in text
    assert "[1]" in text and "[2]" in text
    assert "%" in text
    empty = CorrelationReport(
        label="nobody", status="empty: no annotators in this panel",
        metrics=(), baseline={}, subsets=(), dropped={}, unavailable={})
    assert "status: empty" in render_report_text(empty)


def test_render_report_text_lists_unavailable_metrics():
    corpus, metric_scores = report_fixture()
    metric_scores = dict(metric_scores, part={"p1": 0.5})
    report = correlation_report(corpus, metric_scores, flags(corpus, 1))
    text = render_report_text(report)
    assert "unavailable: part" in text


# ------------------------------------------- report engine vs. the oracle


@pytest.fixture(scope="module")
def tied_report_inputs():
    """A simulated corpus whose metric scores are full of ties, with every
    heuristic's flags; one metric is undefined on some pairs."""
    kinds = ((ProfileKind.RELIABLE, 10), (ProfileKind.CONSTANT, 3),
             (ProfileKind.UNIFORM_RANDOM, 3), (ProfileKind.SLOW, 2),
             (ProfileKind.RADICAL, 5), (ProfileKind.CENTRIST, 5))
    corpus, truth = generate_corpus(PopulationSpec(
        n_pairs=240, fraction_random=0.2, seed=11,
        profiles=tuple(ProfileSpec(kind, count) for kind, count in kinds)))
    rng = random.Random(97)
    scores = {
        "coarse": {pid: round(t + rng.gauss(0.0, 0.2), 1)
                   for pid, t in truth.latent.items()},
        "five": {pid: float(min(5, max(1, round(4 * t + 1 + rng.gauss(0, 1)))))
                 for pid, t in truth.latent.items()},
        "holes": {pid: float(round(3 * t)) for pid, t in truth.latent.items()
                  if rng.random() > 0.15},
    }
    reports = compute_flag_reports(corpus, list(HeuristicId))
    return corpus, scores, reports


def assert_report_matches_oracle(report, oracle):
    baseline, rows = oracle
    assert report.baseline == baseline
    assert len(report.subsets) == len(rows)
    for row, (removed, cells, pct) in zip(report.subsets, rows):
        assert row.removed_annotators == removed
        assert row.cells == cells
        assert {name: pct_pair(report, row, name)
                for name in report.metrics} == pct


@pytest.mark.parametrize("per_annotation", [False, True])
def test_report_engine_matches_oracle(tied_report_inputs, per_annotation):
    corpus, scores, reports = tied_report_inputs
    subsets = heuristic_subsets(HeuristicId)
    report = correlation_report(corpus, scores, reports,
                                per_annotation=per_annotation)
    assert report.metrics == ("coarse", "five", "holes")
    # the filters do remove people, and not always the same ones
    assert len({row.removed_annotators for row in report.subsets}) > 5
    assert_report_matches_oracle(report, correlation_report_oracle(
        corpus, scores, report.metrics, subsets, reports,
        per_annotation=per_annotation))


def test_report_engine_matches_oracle_on_a_panel(tied_report_inputs):
    corpus, scores, reports = tied_report_inputs
    ids = corpus.columns.annotator_ids
    panel = set(ids[::2])
    assert any(reports[aid].flags for aid in panel)
    subsets = heuristic_subsets(HeuristicId)
    report = correlation_report(corpus, scores, reports, annotator_ids=panel)
    assert report.status == "ok"
    assert_report_matches_oracle(report, correlation_report_oracle(
        corpus, scores, report.metrics, subsets, reports,
        annotator_ids=panel))

    empty = correlation_report(corpus, scores, reports, annotator_ids=set())
    assert empty.status == "empty: no annotators in this panel"
    assert empty.subsets == ()


def test_zero_baseline_statistic_has_no_percent_change():
    # Spearman of "ext" and both statistics of "orth" are exactly 0 with
    # and without the slow annotator z, whose labels keep gold's ranks.
    labels = {"x": [5, 3, 1, 2], "y": [4, 2, 2, 3], "z": [5, 3, 1, 3]}
    corpus = make_corpus(
        [(f"p{i}", "red blue", "green oak") for i in range(4)],
        [(f"p{i}", aid, labels[aid][i], 900.0 if aid == "z" else 30.0)
         for i in range(4) for aid in labels])
    scores = {"ext": dict(zip(("p0", "p1", "p2", "p3"), (0.5, 0.1, 0.5, 0.5))),
              "orth": dict(zip(("p0", "p1", "p2", "p3"), (1.0, 0.0, 1.0, 2.0)))}
    reports = compute_flag_reports(corpus, [HeuristicId.SLOW])
    report = correlation_report(corpus, scores, reports)
    (row,) = report.subsets
    assert row.removed_annotators == ("z",)
    assert report.baseline["ext"].spearman == 0.0
    assert pct_pair(report, row, "ext")[0] is not None
    assert pct_pair(report, row, "ext")[1] is None
    assert pct_pair(report, row, "orth") == (None, None)
    assert_report_matches_oracle(report, correlation_report_oracle(
        corpus, scores, report.metrics, [(HeuristicId.SLOW,)], reports))


# --------------------------------------------------- gold and keep masks


# file order b, B, a10, a2, a; sorted order B, a, a10, a2, b
ANNOTATORS = ("b", "B", "a10", "a2", "a")


def gold_loop(corpus, kept, per_annotation):
    """Each gold observation's pair id and value, by a loop over the
    annotation rows: pairs in id order, a pair's rows in file order."""
    rows = [a for a in corpus.annotations if a.annotator_id in kept]
    pairs, values = [], []
    for pid in sorted({a.pair_id for a in rows}):
        labels = [a.label for a in rows if a.pair_id == pid]
        if per_annotation:
            pairs += [pid] * len(labels)
            values += labels
        else:
            pairs.append(pid)
            values.append(sum(labels) / len(labels))
    return pairs, values


@pytest.mark.parametrize("per_annotation", [False, True])
def test_gold_equals_a_loop_over_the_annotations(per_annotation):
    rng = random.Random(17)
    pairs = [(f"p{i}", "red blue", "green oak") for i in (3, 0, 7, 1, 5, 2)]
    rows = [(pid, aid, rng.randint(1, 5)) for pid, *_ in pairs
            for aid in ANNOTATORS if rng.random() < 0.7]
    rng.shuffle(rows)
    corpus = make_corpus(pairs, rows)
    columns = corpus.columns
    ids = columns.annotator_ids
    assert ids == ("B", "a", "a10", "a2", "b")
    half = np.random.default_rng(3).random(len(ids)) < 0.5
    masks = [np.ones(len(ids), dtype=bool), np.zeros(len(ids), dtype=bool),
             half, ~half]
    for i in range(len(ids)):
        masks.append(np.arange(len(ids)) != i)
    for keep in masks:
        kept = {aid for aid, k in zip(ids, keep) if k}
        pair, gold = correlate._gold(columns, keep, per_annotation)
        want_pairs, want_values = gold_loop(corpus, kept, per_annotation)
        assert [columns.pair_ids[p] for p in pair.tolist()] == want_pairs
        assert gold.tolist() == want_values


def flagged_corpus():
    """Twenty pairs in reverse id order, four random; B is slow, b answers
    3 to everything, and a10 and a2 rate random pairs high."""
    texts = ["red blue green oak", "the cat sat down", "rain falls in spain",
             "dogs bark loudly now", "a quiet river bend"]
    pairs, rows = [], []
    for i in reversed(range(20)):
        pid, random_pair = f"p{i:02d}", i < 4
        text_b = texts[(3 * i + 1) % 5] if random_pair \
            else texts[i % 5] + " too"
        pairs.append((pid, texts[i % 5], text_b, random_pair))
        truth = 1 if random_pair else 1 + i % 5
        labels = {"b": 3, "B": truth, "a10": 5 if random_pair else truth,
                  "a2": 6 - truth, "a": truth}
        rows += [(pid, aid, labels[aid], 500.0 if aid == "B" else 20.0 + i)
                 for aid in ANNOTATORS]
    return make_corpus(pairs, rows)


def test_removed_annotators_are_the_sorted_flagged_ids():
    corpus = flagged_corpus()
    for c in (corpus, select_pairs(corpus, corpus.pairs[::2])):
        rng = random.Random(4)
        scores = {"m": {p.pair_id: rng.random() for p in c.pairs}}
        reports = compute_flag_reports(c, HeuristicId)
        report = correlation_report(c, scores, reports)
        assert [row.subset for row in report.subsets] \
            == heuristic_subsets(reports.heuristics)
        for row in report.subsets:
            assert row.removed_annotators == tuple(
                sorted(flagged_annotators(reports, row.subset)))
        # some row removes annotators whose file order is not sorted
        assert ("B", "a10", "a2", "b") in \
            {row.removed_annotators for row in report.subsets}
