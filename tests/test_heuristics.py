import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from labelsim import simulate, textmetrics
from labelsim.heuristics import (HeuristicConfig, HeuristicId, Scorers,
                                 compute_flag_reports, default_scorers,
                                 flagged_annotators, heuristic_subsets,
                                 normalize_subset, sentiment_qualifying_pairs,
                                 subset_label)
from labelsim.stats import annotator_profiles

from conftest import make_corpus
import oracles

H = HeuristicId
CFG = HeuristicConfig()


def evidence(corpus, h, annotator_id="w", scorers=None):
    """The evidence heuristic ``h`` gives against one annotator, or None."""
    reports = compute_flag_reports(corpus, [h], CFG, scorers)
    return reports[annotator_id].evidence.get(h)


def disagreement_rate(corpus, annotator_id):
    return annotator_profiles(corpus)[annotator_id].disagreement_rate


def single_annotator_corpus(labels, durations=None, random_flags=None):
    n = len(labels)
    durations = durations or [30.0] * n
    random_flags = random_flags or [False] * n
    pairs = [(f"p{i}", "a b", "c d", random_flags[i]) for i in range(n)]
    anns = [(f"p{i}", "w", labels[i], durations[i]) for i in range(n)]
    return make_corpus(pairs, anns)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    HeuristicConfig().validate()
    with pytest.raises(ValueError):
        HeuristicConfig(slow_threshold=0).validate()
    with pytest.raises(ValueError):
        HeuristicConfig(disagreement_threshold=1.5).validate()
    with pytest.raises(ValueError):
        HeuristicConfig(overlap_threshold=-0.1).validate()
    with pytest.raises(ValueError):
        HeuristicConfig(min_sentiment_pairs=0).validate()


@pytest.mark.parametrize("name", [
    "slow_threshold", "low_variance_threshold", "disagreement_threshold",
    "overlap_threshold", "sentiment_gap_threshold",
    "sentiment_variance_threshold"])
def test_config_validation_rejects_nan_thresholds(name):
    # NaN compares false with every bound, and a NaN threshold flags nobody
    with pytest.raises(ValueError, match=f"^{name} must "):
        HeuristicConfig(**{name: float("nan")}).validate()


# ---------------------------------------------------------------------------
# individual flags


def test_flag_slow_boundaries():
    flagged = single_annotator_corpus([1, 5], durations=[340.0, 360.0])
    ev = evidence(flagged, H.SLOW)
    assert ev is not None and ev.value == pytest.approx(350.0)

    at_threshold = single_annotator_corpus([1, 5], durations=[300.0, 300.0])
    assert evidence(at_threshold, H.SLOW) is None

    fast = single_annotator_corpus([1, 5], durations=[10.0, 10.0])
    assert evidence(fast, H.SLOW) is None


def test_flag_low_variance_boundaries():
    constant = single_annotator_corpus([4, 4, 4, 4])
    ev = evidence(constant, H.LOW_VARIANCE)
    assert ev is not None and ev.value == 0.0

    spread = single_annotator_corpus([1, 5, 1, 5])
    assert evidence(spread, H.LOW_VARIANCE) is None

    # population variance of [2, 4] is exactly 1.0: strictly-below misses it
    boundary = single_annotator_corpus([2, 4])
    assert evidence(boundary, H.LOW_VARIANCE) is None


def test_flag_high_random():
    spammy = single_annotator_corpus(
        [5, 4, 3, 3], random_flags=[True, True, False, False])
    ev = evidence(spammy, H.HIGH_RANDOM)
    assert ev is not None
    assert ev.value == pytest.approx(4.5)
    assert ev.threshold == pytest.approx(3.0)

    sane = single_annotator_corpus(
        [1, 1, 4, 4], random_flags=[True, True, False, False])
    assert evidence(sane, H.HIGH_RANDOM) is None

    no_random = single_annotator_corpus([5, 5])
    assert evidence(no_random, H.HIGH_RANDOM) is None

    all_random = single_annotator_corpus([5, 5], random_flags=[True, True])
    assert evidence(all_random, H.HIGH_RANDOM) is None


@pytest.fixture
def disagreeable_corpus():
    """Three triple-annotated pairs; w overrules the unanimous pair twice."""
    return make_corpus(
        [("q1", "a b", "c d"), ("q2", "e f", "g h"), ("q3", "i j", "k l")],
        [
            ("q1", "x", 4), ("q1", "y", 5), ("q1", "w", 1),   # unanimous +1, w says -1
            ("q2", "x", 1), ("q2", "y", 2), ("q2", "w", 5),   # unanimous -1, w says +1
            ("q3", "x", 4), ("q3", "y", 4), ("q3", "w", 5),   # unanimous +1, w agrees
        ])


def test_disagreement_rate_two_thirds(disagreeable_corpus):
    assert disagreement_rate(disagreeable_corpus, "w") == pytest.approx(2 / 3)
    ev = evidence(disagreeable_corpus, H.DISAGREEABLE)
    assert ev is not None and ev.value == pytest.approx(2 / 3)
    # x never overrules a unanimous verdict (q1/q2 co-annotators split)
    assert disagreement_rate(disagreeable_corpus, "x") == 0.0
    assert evidence(disagreeable_corpus, H.DISAGREEABLE, "x") is None


def test_disagreement_needs_exactly_two_coannotators():
    # q1 has three co-annotators, q2 only one: neither pair counts
    corpus = make_corpus(
        [("q1", "a b", "c d"), ("q2", "e f", "g h")],
        [
            ("q1", "w", 1), ("q1", "x", 5), ("q1", "y", 5), ("q1", "z", 5),
            ("q2", "w", 1), ("q2", "x", 5),
        ])
    assert disagreement_rate(corpus, "w") is None
    assert evidence(corpus, H.DISAGREEABLE) is None


def test_disagreement_nonunanimous_pairs_skipped():
    corpus = make_corpus(
        [("q1", "a b", "c d"), ("q2", "e f", "g h")],
        [
            ("q1", "w", 1), ("q1", "x", 5), ("q1", "y", 2),   # co-annotators split
            ("q2", "w", 1), ("q2", "x", 5), ("q2", "y", 4),   # unanimous, w differs
        ])
    assert disagreement_rate(corpus, "w") == 1.0


def test_disagreement_reduced_scale():
    # labels 4 and 5 both reduce to +1, so w agreeing "in spirit" is agreement
    corpus = make_corpus(
        [("q1", "a b", "c d")],
        [("q1", "w", 4), ("q1", "x", 5), ("q1", "y", 5)])
    assert disagreement_rate(corpus, "w") == 0.0


# ---------------------------------------------------------------------------
# sentiment disalignment (heuristic 5)


def stub_scorers(overlap_value=1.0, sentiments=None, pair_sentiment=None):
    sentiments = sentiments or {}

    return Scorers(
        overlap=lambda texts_a, texts_b: [overlap_value] * len(texts_a),
        sentiment=lambda text: sentiments.get(text, 0.0),
        pair_sentiment=pair_sentiment,
    )


def sentiment_corpus(labels_by_annotator):
    """Pairs s0..sN-1 with text sides of opposite stub sentiment."""
    n = max(len(v) for v in labels_by_annotator.values())
    pairs = [(f"s{i}", "happy text", "gloomy text") for i in range(n)]
    anns = []
    for aid, labels in labels_by_annotator.items():
        anns.extend((f"s{i}", aid, l) for i, l in enumerate(labels))
    return make_corpus(pairs, anns)


SENTS = {"happy text": 0.95, "gloomy text": -0.95}  # gap exactly 1.9


def test_sentiment_flag_fires_on_erratic_labels():
    corpus = sentiment_corpus({"v": [1, 5, 1], "u": [2, 2, 2]})
    scorers = stub_scorers(overlap_value=0.9, sentiments=SENTS)
    qualifying = sentiment_qualifying_pairs(corpus, scorers, CFG)
    assert qualifying == {"s0", "s1", "s2"}

    ev = evidence(corpus, H.SENTIMENT_DISALIGNED, "v", scorers)
    assert ev is not None
    assert ev.value == pytest.approx(32 / 9)  # variance of [1, 5, 1]

    assert evidence(corpus, H.SENTIMENT_DISALIGNED, "u", scorers) is None


def test_sentiment_flag_needs_two_qualifying_pairs():
    corpus = sentiment_corpus({"v": [1, 5, 1], "t": [1]})
    scorers = stub_scorers(overlap_value=0.9, sentiments=SENTS)
    assert evidence(corpus, H.SENTIMENT_DISALIGNED, "t", scorers) is None


def test_sentiment_overlap_threshold_is_strict():
    corpus = sentiment_corpus({"v": [1, 5, 1]})
    at_threshold = stub_scorers(overlap_value=0.8, sentiments=SENTS)
    assert sentiment_qualifying_pairs(corpus, at_threshold, CFG) == set()
    above = stub_scorers(overlap_value=0.8000001, sentiments=SENTS)
    assert len(sentiment_qualifying_pairs(corpus, above, CFG)) == 3


def test_sentiment_overlap_scorer_must_score_every_pair():
    corpus = sentiment_corpus({"v": [1, 5, 1]})
    short = Scorers(overlap=lambda texts_a, texts_b: [1.0],
                    sentiment=lambda text: SENTS.get(text, 0.0))
    with pytest.raises(ValueError):
        sentiment_qualifying_pairs(corpus, short, CFG)


BLOCK = textmetrics.BLOCK_PAIRS


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                  2 * BLOCK + 1])
def test_default_overlap_scores_every_block(size):
    # one pair, one pair either side of a block boundary, and two full
    # blocks
    rng = random.Random(size)
    words = ["red", "oak", "elm", "don't", "'tis", "it's", "a"]
    texts_a = [" ".join(rng.choices(words, k=rng.randint(1, 6)))
               for _ in range(size)]
    texts_b = [" ".join(rng.choices(words, k=rng.randint(1, 6)))
               for _ in range(size)]
    cfg = HeuristicConfig(overlap_bleu_order=2)
    assert default_scorers(cfg).overlap(texts_a, texts_b) == [
        oracles.counter_bleu(textmetrics.tokenize(b), textmetrics.tokenize(a),
                             2, "none")
        for a, b in zip(texts_a, texts_b)]


def test_sentiment_names_a_tokenless_pair_in_a_later_block():
    n = 2 * BLOCK + 1
    corpus = make_corpus(
        [(f"p{i}", "red oak", "red elm" if i < n - 1 else "' !!") for i in range(n)],
        [])
    with pytest.raises(ValueError, match=rf"pair 'p{n - 1}'.*\(text_b\)"):
        sentiment_qualifying_pairs(corpus, default_scorers(CFG), CFG)


def test_sentiment_gap_threshold_is_inclusive():
    corpus = sentiment_corpus({"v": [1, 5]})
    exactly = stub_scorers(sentiments={"happy text": 0.95, "gloomy text": -0.95})
    assert len(sentiment_qualifying_pairs(corpus, exactly, CFG)) == 2
    barely_under = stub_scorers(
        sentiments={"happy text": 0.94, "gloomy text": -0.95})
    assert sentiment_qualifying_pairs(corpus, barely_under, CFG) == set()


def test_sentiment_pair_overrides_win():
    corpus = sentiment_corpus({"v": [1, 5]})
    # the callable sees no sentiment at all, but the ingested file does
    scorers = stub_scorers(sentiments={}, pair_sentiment={
        "s0": (0.95, -0.95), "s1": (-1.0, 1.0)})
    assert sentiment_qualifying_pairs(corpus, scorers, CFG) == {"s0", "s1"}


# no override, then gaps 0, 0.9, 1.89 (below 1.9), exactly 1.9, 2 and -1.9
GAP_OVERRIDES = [None, (0.0, 0.0), (0.5, -0.4), (0.94, -0.95), (0.95, -0.95),
                 (1.0, -1.0), (-0.95, 0.95)]


def overridden_corpus_and_scorers(overlap):
    """A simulated corpus whose pairs cycle through GAP_OVERRIDES; the
    sentiment callable gives a pair without an override a gap of 1.9 or
    0."""
    spec = simulate.PopulationSpec(
        n_pairs=600, fraction_random=0.2,
        profiles=(
            simulate.ProfileSpec(simulate.ProfileKind.RELIABLE, 12, 0.5),
            simulate.ProfileSpec(simulate.ProfileKind.UNIFORM_RANDOM, 3),
            simulate.ProfileSpec(simulate.ProfileKind.RADICAL, 4, 0.9),
            simulate.ProfileSpec(simulate.ProfileKind.CENTRIST, 4, 0.9),
        ),
        seed=3)
    corpus, _ = simulate.generate_corpus(spec)
    overrides = {}
    for i, pair in enumerate(corpus.pairs):
        override = GAP_OVERRIDES[i % len(GAP_OVERRIDES)]
        if override is not None:
            overrides[pair.pair_id] = override
    scorers = Scorers(overlap=overlap,
                      sentiment=lambda text: (0.95 if sum(map(ord, text)) % 2
                                              else -0.95),
                      pair_sentiment=overrides)
    return corpus, scorers


def test_gap_first_path_equals_the_loop_that_scores_every_pair():
    corpus, scorers = overridden_corpus_and_scorers(
        default_scorers(CFG).overlap)
    expected = oracles.sentiment_qualifying_pairs_loop(corpus, scorers, CFG)
    assert sentiment_qualifying_pairs(corpus, scorers, CFG) == expected
    # pairs qualify at a gap of exactly 1.9 and without an override
    overrides = scorers.pair_sentiment
    assert {overrides.get(pid) for pid in expected} == {
        None, (0.95, -0.95), (1.0, -1.0), (-0.95, 0.95)}
    reports = compute_flag_reports(corpus, [H.SENTIMENT_DISALIGNED], CFG,
                                   scorers)
    assert reports == oracles.flag_reports(corpus, [H.SENTIMENT_DISALIGNED],
                                           CFG, expected)
    assert any(report.flags for report in reports.values())


def test_overlap_is_never_given_a_below_gap_override_pair():
    seen = []

    def overlap(texts_a, texts_b):
        seen.extend(zip(texts_a, texts_b))
        return [1.0] * len(texts_a)

    corpus, scorers = overridden_corpus_and_scorers(overlap)
    sentiment_qualifying_pairs(corpus, scorers, CFG)
    below = {pid for pid, (a, b) in scorers.pair_sentiment.items()
             if abs(a - b) < CFG.sentiment_gap_threshold}
    assert {scorers.pair_sentiment[pid] for pid in below} == {
        (0.0, 0.0), (0.5, -0.4), (0.94, -0.95)}
    assert seen == [(p.text_a, p.text_b) for p in corpus.pairs
                    if p.pair_id not in below]


# ---------------------------------------------------------------------------
# report assembly and filtering


def test_compute_flag_reports_evidence_matches_flags(disagreeable_corpus):
    reports = compute_flag_reports(disagreeable_corpus, [H.SLOW, H.DISAGREEABLE])
    assert set(reports) == {"w", "x", "y"}
    for report in reports.values():
        assert set(report.evidence) == set(report.flags)
    assert reports["w"].flags == {H.DISAGREEABLE}
    assert reports["x"].flags == frozenset()


def test_flagged_annotators_union_semantics():
    # w is slow only, v is constant only; the pair subset removes both
    corpus = make_corpus(
        [(f"p{i}", "a b", "c d") for i in range(4)],
        [(f"p{i}", "w", l, 400.0) for i, l in enumerate([1, 5, 2, 4])]
        + [(f"p{i}", "v", 3, 20.0) for i in range(4)]
        + [(f"p{i}", "u", l, 20.0) for i, l in enumerate([2, 5, 1, 4])])
    reports = compute_flag_reports(corpus, [H.SLOW, H.LOW_VARIANCE])
    assert flagged_annotators(reports, [H.SLOW]) == {"w"}
    assert flagged_annotators(reports, [H.LOW_VARIANCE]) == {"v"}
    assert flagged_annotators(reports, [H.SLOW, H.LOW_VARIANCE]) == {"w", "v"}


def test_flagged_annotators_no_flags_removes_nobody(tiny_corpus):
    subset = [H.LOW_VARIANCE, H.HIGH_RANDOM]
    reports = compute_flag_reports(tiny_corpus, subset)
    assert flagged_annotators(reports, subset) == frozenset()


def test_flag_pass_records_its_heuristics(tiny_corpus):
    reports = compute_flag_reports(tiny_corpus, [H.HIGH_RANDOM, H.SLOW, 1])
    assert reports.heuristics == (H.SLOW, H.HIGH_RANDOM)
    assert sorted(reports) == ["ann1", "ann2", "ann3"]
    assert reports["ann3"].flags == {H.SLOW}


def test_flagged_annotators_refuses_a_heuristic_the_pass_never_evaluated(
        tiny_corpus):
    # a pass over heuristic 2 cannot say whom heuristic 1 removes; read
    # as "nobody", its rows would look like an honest +0.0%
    reports = compute_flag_reports(tiny_corpus, [H.LOW_VARIANCE])
    with pytest.raises(ValueError, match=r"^the flag pass did not evaluate "
                       r"heuristics \[1\] \(it evaluated \[2\]\)$"):
        flagged_annotators(reports, [H.SLOW])
    with pytest.raises(ValueError, match=r"heuristics \[1, 3\] "):
        flagged_annotators(reports, [H.SLOW, H.LOW_VARIANCE, H.HIGH_RANDOM])
    assert flagged_annotators(reports, [H.LOW_VARIANCE]) == frozenset()


def test_removal_monotonicity_randomized():
    rng = random.Random(0)
    for seed in range(4):
        spec = simulate.PopulationSpec(
            n_pairs=40, fraction_random=0.25,
            profiles=(
                simulate.ProfileSpec(simulate.ProfileKind.RELIABLE, 4, 0.6),
                simulate.ProfileSpec(simulate.ProfileKind.CONSTANT, 2, 4),
                simulate.ProfileSpec(simulate.ProfileKind.UNIFORM_RANDOM, 2),
                simulate.ProfileSpec(simulate.ProfileKind.SLOW, 1, 450.0),
                simulate.ProfileSpec(simulate.ProfileKind.RADICAL, 1, 0.9),
            ),
            seed=seed)
        corpus, _ = simulate.generate_corpus(spec)
        reports = compute_flag_reports(corpus, list(H))
        removed = {subset: flagged_annotators(reports, subset)
                   for subset in heuristic_subsets(HeuristicId)}
        for _ in range(20):
            small = rng.choice(list(removed))
            big = rng.choice(list(removed))
            if set(small) <= set(big):
                assert removed[small] <= removed[big], (small, big)
        full = removed[tuple(H)]
        for subset, ids in removed.items():
            assert ids <= full, subset


def test_flags_invariant_to_annotation_order(disagreeable_corpus):
    rng = random.Random(5)
    baseline = compute_flag_reports(disagreeable_corpus, list(H))
    rows = [(a.pair_id, a.annotator_id, a.label, a.duration)
            for a in disagreeable_corpus.annotations]
    for _ in range(5):
        rng.shuffle(rows)
        shuffled = make_corpus(
            [(p.pair_id, p.text_a, p.text_b, p.is_random)
             for p in disagreeable_corpus.pairs], rows)
        again = compute_flag_reports(shuffled, list(H))
        assert {a: r.flags for a, r in again.items()} \
            == {a: r.flags for a, r in baseline.items()}


# ---------------------------------------------------------------------------
# subset engine


def test_heuristic_subsets_row_order():
    subsets = heuristic_subsets(HeuristicId)
    assert len(subsets) == 31
    assert subsets[0] == (H.SLOW,)
    assert subsets[-1] == tuple(H)
    # the row after [5] is [1, 2]
    assert subsets[4] == (H.SENTIMENT_DISALIGNED,)
    assert subsets[5] == (H.SLOW, H.LOW_VARIANCE)
    assert len(set(subsets)) == 31
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)
    for size in range(1, 6):
        block = [s for s in subsets if len(s) == size]
        assert block == sorted(block)


def test_heuristic_subsets_restricted_universe():
    subsets = heuristic_subsets([H.HIGH_RANDOM, H.LOW_VARIANCE])
    assert subsets == [(H.LOW_VARIANCE,), (H.HIGH_RANDOM,),
                       (H.LOW_VARIANCE, H.HIGH_RANDOM)]


def test_subset_label_and_normalize():
    assert subset_label([H.HIGH_RANDOM, H.LOW_VARIANCE]) == "[2, 3]"
    assert normalize_subset([3, 2, 3]) == (H.LOW_VARIANCE, H.HIGH_RANDOM)
    with pytest.raises(ValueError):
        normalize_subset([])
    with pytest.raises(ValueError):
        normalize_subset([0])


# ---------------------------------------------------------------------------
# the statistics table against the per-annotator loops it replaced

ANNOTATORS = ("a", "b", "c", "d", "e", "f")
# sums of these are inexact in binary, and 300.0 and 0.3 are thresholds
DURATIONS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 299.9, 300.0, 300.1, 451.25]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False))


@st.composite
def labeled_corpora(draw):
    """A small validated corpus, thresholds its statistics can hit
    exactly, and the pairs heuristic 5 treats as qualifying."""
    n_pairs = draw(st.integers(1, 8))
    pairs, anns = [], []
    for i in range(n_pairs):
        pid = f"p{i}"
        pairs.append((pid, "a b", "c d", draw(st.booleans())))
        annotators = draw(st.lists(st.sampled_from(ANNOTATORS), min_size=1,
                                   max_size=5, unique=True))
        # some pairs are all-3, so some annotators have no other label
        labels = st.just(3) if draw(st.booleans()) else st.integers(1, 5)
        anns.extend((pid, aid, draw(labels), draw(DURATIONS))
                    for aid in annotators)
    cfg = HeuristicConfig(
        slow_threshold=draw(st.sampled_from([0.2, 0.3, 150.0, 300.0])),
        low_variance_threshold=draw(st.sampled_from([0.0, 0.25, 1.0, 2.0])),
        disagreement_threshold=draw(st.sampled_from([0.0, 0.5, 1.0])),
        sentiment_variance_threshold=draw(st.sampled_from([0.0, 1.0, 4.0])),
        min_sentiment_pairs=draw(st.sampled_from([1, 2, 3])))
    qualifying = set(draw(st.lists(st.sampled_from([p[0] for p in pairs]),
                                   unique=True)))
    return make_corpus(pairs, anns), cfg, qualifying


def qualifying_scorers(qualifying):
    """Stub scorers under which exactly ``qualifying`` qualifies."""
    return stub_scorers(pair_sentiment={
        pid: (0.95, -0.95) for pid in qualifying})


def assert_table_matches_loops(corpus, cfg, scorers):
    qualifying = sentiment_qualifying_pairs(corpus, scorers, cfg)
    got = compute_flag_reports(corpus, list(H), cfg, scorers)
    assert got == oracles.flag_reports(corpus, list(H), cfg, qualifying)
    for exclude in (False, True):
        assert annotator_profiles(corpus, exclude) == {
            aid: oracles.annotator_profile(corpus, aid, exclude)
            for aid in corpus.columns.annotator_ids}


@settings(max_examples=300, deadline=None)
@given(labeled_corpora())
def test_table_flags_and_profiles_equal_the_loops(drawn):
    corpus, cfg, qualifying = drawn
    scorers = qualifying_scorers(qualifying)
    assert sentiment_qualifying_pairs(corpus, scorers, cfg) == qualifying
    assert_table_matches_loops(corpus, cfg, scorers)


def test_table_flags_and_profiles_equal_the_loops_on_a_simulated_corpus():
    spec = simulate.PopulationSpec(
        n_pairs=600, fraction_random=0.2,
        profiles=(
            simulate.ProfileSpec(simulate.ProfileKind.RELIABLE, 12, 0.5),
            simulate.ProfileSpec(simulate.ProfileKind.CONSTANT, 3, 3),
            simulate.ProfileSpec(simulate.ProfileKind.UNIFORM_RANDOM, 3),
            simulate.ProfileSpec(simulate.ProfileKind.SLOW, 2, 400.0),
            simulate.ProfileSpec(simulate.ProfileKind.RADICAL, 4, 0.9),
            simulate.ProfileSpec(simulate.ProfileKind.CENTRIST, 4, 0.9),
        ),
        seed=3)
    corpus, _ = simulate.generate_corpus(spec)
    # heuristics 1-4 all fire somewhere, so the comparison is not vacuous
    reports = compute_flag_reports(corpus, list(H))
    fired = {h for report in reports.values() for h in report.flags}
    assert fired >= {H.SLOW, H.LOW_VARIANCE, H.HIGH_RANDOM, H.DISAGREEABLE}
    assert_table_matches_loops(corpus, CFG, default_scorers(CFG))
