import random
import statistics

import numpy as np
import pytest

from labelsim.heuristics import (HeuristicConfig, HeuristicId,
                                 compute_flag_reports)
from labelsim.stats import (Style, annotator_profiles, classify_style,
                            population_variance, reduce_label)

from conftest import make_corpus
from oracles import pvariance_oracle


def test_reduce_label_exhaustive():
    assert [reduce_label(l) for l in (1, 2, 3, 4, 5)] == [-1, -1, 0, 1, 1]


def test_reduce_label_monotone():
    reduced = [reduce_label(l) for l in range(1, 6)]
    assert reduced == sorted(reduced)


@pytest.mark.parametrize("bad", [0, 6, -1, 2.5, np.array([1, 0, 3]),
                                 np.array([1, 6, 3])],
                         ids=["0", "6", "-1", "2.5", "array0", "array6"])
def test_reduce_label_rejects(bad):
    with pytest.raises(ValueError, match="outside the 1-5 scale"):
        reduce_label(bad)


def test_reduce_label_works_element_wise():
    got = reduce_label(np.array([1, 2, 3, 4, 5]))
    assert got.tolist() == [-1, -1, 0, 1, 1]
    assert reduce_label(np.array([[5, 3], [2, 4]])).tolist() == [[1, 0],
                                                                [-1, 1]]
    assert type(reduce_label(4)) is int


def test_population_variance_known():
    assert population_variance([4, 4, 4]) == 0.0
    assert population_variance([1, 2, 3, 4, 5]) == 2.0
    assert population_variance([7]) == 0.0


def test_population_variance_random():
    rng = random.Random(42)
    for _ in range(50):
        values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 30))]
        got = population_variance(values)
        assert got == pytest.approx(pvariance_oracle(values), rel=1e-12)
        assert got == pytest.approx(statistics.pvariance(values), rel=1e-9)


def test_population_variance_integer_labels_are_exact():
    # exact variance 1; a two-pass float formula gives 0.9999999999999998,
    # under the low-variance threshold of 1
    labels = [4, 2, 4, 5, 4, 4, 2, 5, 2, 4, 3, 2, 3, 2, 4, 3, 4, 3]
    assert population_variance(labels) == 1.0
    corpus = make_corpus(
        [(f"p{i}", f"a{i} b{i}", f"c{i} d{i}") for i in range(len(labels))],
        [(f"p{i}", "ann", label) for i, label in enumerate(labels)])
    report = compute_flag_reports(corpus, [HeuristicId.LOW_VARIANCE])["ann"]
    assert report.flags == frozenset()


def test_mean_duration_adds_left_to_right():
    # ten durations of 0.1 add left to right to 0.9999999999999999; a
    # compensated sum (math.fsum, or sum() from Python 3.12 on) gives 1.0
    corpus = make_corpus(
        [(f"p{i}", f"a{i} b{i}", f"c{i} d{i}") for i in range(10)],
        [(f"p{i}", "ann", 3, 0.1) for i in range(10)])
    mean = 0.9999999999999999 / 10
    assert mean != 0.1
    assert annotator_profiles(corpus)["ann"].mean_duration == mean
    # heuristic 1 sees the same mean: equal to the threshold, so not slow
    cfg = HeuristicConfig(slow_threshold=mean)
    report = compute_flag_reports(corpus, [HeuristicId.SLOW], cfg)["ann"]
    assert report.flags == frozenset()


def test_population_variance_empty():
    with pytest.raises(ValueError):
        population_variance([])


def test_classify_style_rules():
    assert classify_style(2.1, 0.6, 0.4) is Style.RADICAL
    assert classify_style(1.5, 0.4, 0.6) is Style.CENTRIST
    assert classify_style(1.5, 0.5, 0.5) is Style.MIXED
    # variance at or below 1 excludes regardless of shares
    assert classify_style(0.8, 0.9, 0.1) is Style.EXCLUDED
    assert classify_style(1.0, 0.9, 0.1) is Style.EXCLUDED
    # no labels != 3 at all
    assert classify_style(0.0, None, None) is Style.EXCLUDED


def test_profile_constant_labels():
    corpus = make_corpus(
        [("p1", "a b", "c d"), ("p2", "e f", "g h"), ("p3", "i j", "k l")],
        [("p1", "w", 4), ("p2", "w", 4), ("p3", "w", 4)])
    prof = annotator_profiles(corpus)["w"]
    assert prof.n_labels == 3
    assert prof.label_variance == 0.0
    assert prof.central_share == 1.0
    assert prof.extreme_share == 0.0
    assert prof.style is Style.EXCLUDED


def test_profile_full_scale():
    pairs = [(f"p{i}", "a b", "c d") for i in range(5)]
    anns = [(f"p{i}", "w", i + 1, 10.0 * (i + 1)) for i in range(5)]
    prof = annotator_profiles(make_corpus(pairs, anns))["w"]
    assert prof.label_variance == 2.0
    assert prof.mean_duration == pytest.approx(30.0)
    # labels != 3 are 1,2,4,5: half extreme, half central
    assert prof.extreme_share == 0.5
    assert prof.central_share == 0.5
    assert prof.style is Style.MIXED


def test_profile_random_vs_nonrandom_means():
    corpus = make_corpus(
        [("r1", "a b", "c d", True), ("r2", "e f", "g h", True),
         ("n1", "i j", "k l"), ("n2", "m n", "o p")],
        [("r1", "w", 5), ("r2", "w", 5), ("n1", "w", 2), ("n2", "w", 2)])
    prof = annotator_profiles(corpus)["w"]
    assert prof.mean_random == 5.0
    assert prof.mean_nonrandom == 2.0


def test_profile_undefined_means_are_none():
    corpus = make_corpus([("p1", "a b", "c d")], [("p1", "w", 3)])
    prof = annotator_profiles(corpus)["w"]
    assert prof.mean_random is None
    assert prof.mean_nonrandom == 3.0
    assert prof.extreme_share is None
    assert prof.central_share is None
    assert prof.style is Style.EXCLUDED


def test_share_sum_invariant():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 12)
        pairs = [(f"p{i}", "a b", "c d") for i in range(n)]
        anns = [(f"p{i}", "w", rng.randint(1, 5)) for i in range(n)]
        prof = annotator_profiles(make_corpus(pairs, anns))["w"]
        if prof.extreme_share is not None:
            assert prof.extreme_share + prof.central_share == pytest.approx(1.0)
        assert prof.label_variance >= 0.0


def test_style_depends_only_on_label_multiset():
    rng = random.Random(11)
    labels = [1, 5, 1, 5, 2, 4, 3]
    base = None
    for _ in range(5):
        rng.shuffle(labels)
        pairs = [(f"p{i}", "a b", "c d") for i in range(len(labels))]
        anns = [(f"p{i}", "w", l) for i, l in enumerate(labels)]
        style = annotator_profiles(make_corpus(pairs, anns))["w"].style
        base = base or style
        assert style is base


def test_exclude_midpoint_variance_flag():
    # heavy use of 3 deflates the plain variance; the flag drops the 3s
    labels = [3] * 8 + [1, 5]
    pairs = [(f"p{i}", "a b", "c d") for i in range(len(labels))]
    anns = [(f"p{i}", "w", l) for i, l in enumerate(labels)]
    corpus = make_corpus(pairs, anns)
    plain = annotator_profiles(corpus)["w"]
    flagged = annotator_profiles(
        corpus, exclude_midpoint_from_variance=True)["w"]
    assert plain.label_variance == pytest.approx(pvariance_oracle(labels))
    assert flagged.label_variance == pytest.approx(pvariance_oracle([1, 5]))
    assert plain.style is Style.EXCLUDED       # variance 0.8 is at most 1
    assert flagged.style is Style.RADICAL      # variance 4 clears the bar


def test_profiles_cover_everyone(tiny_corpus):
    profiles = annotator_profiles(tiny_corpus)
    assert sorted(profiles) == ["ann1", "ann2", "ann3"]
    assert all(p.n_labels == 3 for p in profiles.values())
