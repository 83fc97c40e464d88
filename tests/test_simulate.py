"""Tests for the synthetic corpus generator and its ground truth."""

import csv
import math
from collections import Counter

import numpy as np
import pytest

from labelsim.simulate import (
    PopulationSpec,
    ProfileKind,
    ProfileSpec,
    generate_corpus,
    save_ground_truth,
)
from labelsim.textmetrics import tokenize, word_overlap


def small_spec(**overrides):
    base = dict(
        n_pairs=60,
        fraction_random=0.2,
        profiles=(
            ProfileSpec(ProfileKind.RELIABLE, 4, 0.3),
            ProfileSpec(ProfileKind.CONSTANT, 1, 3.0),
            ProfileSpec(ProfileKind.UNIFORM_RANDOM, 1),
        ),
        seed=11,
    )
    base.update(overrides)
    return PopulationSpec(**base)


# ----------------------------------------------------------- validation


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="n_pairs"):
        small_spec(n_pairs=0).validate()
    with pytest.raises(ValueError, match="fraction_random"):
        small_spec(fraction_random=1.5).validate()
    with pytest.raises(ValueError, match="at least one annotator profile"):
        small_spec(profiles=()).validate()
    with pytest.raises(ValueError, match="annotators_per_pair"):
        small_spec(annotators_per_pair=0).validate()
    with pytest.raises(ValueError, match="roster"):
        small_spec(annotators_per_pair=7).validate()
    with pytest.raises(ValueError, match="min_tokens"):
        small_spec(min_tokens=5, max_tokens=4).validate()
    with pytest.raises(ValueError, match="vocabulary too small"):
        small_spec(max_tokens=301).validate()


def test_profile_validation_errors():
    with pytest.raises(ValueError, match="count"):
        ProfileSpec(ProfileKind.RELIABLE, 0).validate()
    with pytest.raises(ValueError, match="non-negative"):
        ProfileSpec(ProfileKind.RELIABLE, 1, -0.1).validate()
    with pytest.raises(ValueError, match="1..5"):
        ProfileSpec(ProfileKind.CONSTANT, 1, 6.0).validate()
    with pytest.raises(ValueError, match="positive"):
        ProfileSpec(ProfileKind.SLOW, 1, 0.0).validate()
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProfileSpec(ProfileKind.RADICAL, 1, 1.5).validate()
    # defaults are fine
    for kind in ProfileKind:
        ProfileSpec(kind, 1).validate()


def test_resolved_param_defaults():
    assert ProfileSpec(ProfileKind.RELIABLE, 1).resolved_param() == 0.3
    assert ProfileSpec(ProfileKind.CONSTANT, 1).resolved_param() == 3.0
    assert ProfileSpec(ProfileKind.SLOW, 1).resolved_param() == 400.0
    assert ProfileSpec(ProfileKind.RELIABLE, 1, 0.7).resolved_param() == 0.7


# ---------------------------------------------------------- generation


def test_same_seed_reproduces_everything():
    corpus1, truth1 = generate_corpus(small_spec())
    corpus2, truth2 = generate_corpus(small_spec())
    assert corpus1 == corpus2
    assert truth1 == truth2


def test_spec_seed_is_the_only_seed():
    corpus1, _ = generate_corpus(small_spec(seed=1))
    corpus2, _ = generate_corpus(small_spec(seed=2))
    assert corpus1 != corpus2
    assert generate_corpus(small_spec(seed=1))[0] == corpus1
    with pytest.raises(TypeError):
        generate_corpus(small_spec(), seed=1)


def test_roster_names_and_kind_counts():
    _, truth = generate_corpus(small_spec())
    assert sorted(truth.annotator_kinds) == [f"a{i:03d}" for i in range(6)]
    counts = Counter(truth.annotator_kinds.values())
    assert counts[ProfileKind.RELIABLE] == 4
    assert counts[ProfileKind.CONSTANT] == 1
    assert counts[ProfileKind.UNIFORM_RANDOM] == 1


def test_pair_structure_and_latent_ranges():
    spec = small_spec(n_pairs=100)
    corpus, truth = generate_corpus(spec)
    assert len(corpus.pairs) == 100
    n_random = sum(1 for p in corpus.pairs if p.is_random)
    assert n_random == round(100 * 0.2)
    for pair in corpus.pairs:
        t = truth.latent[pair.pair_id]
        if pair.is_random:
            assert 0.0 <= t <= 0.1
        else:
            assert 0.2 <= t <= 1.0
        tokens_a = tokenize(pair.text_a)
        tokens_b = tokenize(pair.text_b)
        assert len(tokens_a) == len(tokens_b)
        assert spec.min_tokens <= len(tokens_a) <= spec.max_tokens
        assert pair.source == "synthetic"


def test_shared_tokens_track_latent_similarity():
    spec = small_spec(n_pairs=150)
    corpus, truth = generate_corpus(spec)
    for pair in corpus.pairs:
        tokens_a = tokenize(pair.text_a)
        tokens_b = tokenize(pair.text_b)
        t = truth.latent[pair.pair_id]
        k = len(tokens_a)
        # tokens within a side are distinct and replacements come from
        # outside side a, so the type intersection is exactly the number
        # of kept positions
        assert len(set(tokens_a)) == k
        shared = len(set(tokens_a) & set(tokens_b))
        assert shared == int(np.rint(t * k))


def test_overlap_correlates_with_latent():
    corpus, truth = generate_corpus(small_spec(n_pairs=200))
    scored = sorted(
        (truth.latent[p.pair_id],
         word_overlap(tokenize(p.text_a), tokenize(p.text_b)))
        for p in corpus.pairs)
    low = [s for _, s in scored[:50]]
    high = [s for _, s in scored[-50:]]
    assert sum(high) / len(high) > sum(low) / len(low) + 0.3


def test_balanced_dealing():
    spec = small_spec(n_pairs=90)
    corpus, _ = generate_corpus(spec)
    per_pair = Counter()
    per_annotator = Counter()
    for ann in corpus.annotations:
        per_pair[ann.pair_id] += 1
        per_annotator[ann.annotator_id] += 1
    assert set(per_pair.values()) == {spec.annotators_per_pair}
    # every pair's annotators are distinct (corpus validation would also
    # trip on duplicates, so this is belt and braces)
    assert len(corpus.annotations) == 90 * 3
    # round-robin dealing keeps the workload spread within one pair
    assert max(per_annotator.values()) - min(per_annotator.values()) <= 1


def test_profile_label_behaviors():
    spec = PopulationSpec(
        n_pairs=120,
        fraction_random=0.25,
        profiles=(
            ProfileSpec(ProfileKind.RELIABLE, 1, 0.0),
            ProfileSpec(ProfileKind.CONSTANT, 1, 5.0),
            ProfileSpec(ProfileKind.UNIFORM_RANDOM, 1),
            ProfileSpec(ProfileKind.SLOW, 1, 400.0),
        ),
        seed=7,
        annotators_per_pair=4,
    )
    corpus, truth = generate_corpus(spec)
    by_kind = {}
    for aid, kind in truth.annotator_kinds.items():
        by_kind[kind] = aid

    labels = {aid: [] for aid in truth.annotator_kinds}
    durations = {aid: [] for aid in truth.annotator_kinds}
    for ann in corpus.annotations:
        labels[ann.annotator_id].append((ann.pair_id, ann.label))
        durations[ann.annotator_id].append(ann.duration)

    # noise-free reliable labels are exactly the rounded latent value
    for pid, label in labels[by_kind[ProfileKind.RELIABLE]]:
        expected = int(min(5, max(1, round(1 + 4 * truth.latent[pid]))))
        assert label == expected

    assert {lab for _, lab in labels[by_kind[ProfileKind.CONSTANT]]} == {5}

    random_labels = {lab for _, lab in labels[by_kind[ProfileKind.UNIFORM_RANDOM]]}
    assert random_labels == {1, 2, 3, 4, 5}

    slow = durations[by_kind[ProfileKind.SLOW]]
    fast = durations[by_kind[ProfileKind.CONSTANT]]
    assert sum(slow) / len(slow) > 300
    assert sum(fast) / len(fast) < 100


def test_radical_and_centrist_label_distributions():
    spec = PopulationSpec(
        n_pairs=200,
        fraction_random=0.0,
        profiles=(
            ProfileSpec(ProfileKind.RADICAL, 1, 1.0),
            ProfileSpec(ProfileKind.CENTRIST, 1, 1.0),
        ),
        seed=13,
        annotators_per_pair=2,
    )
    corpus, truth = generate_corpus(spec)
    rad = next(a for a, k in truth.annotator_kinds.items()
               if k is ProfileKind.RADICAL)
    cen = next(a for a, k in truth.annotator_kinds.items()
               if k is ProfileKind.CENTRIST)
    rad_labels = [a.label for a in corpus.annotations if a.annotator_id == rad]
    cen_labels = [a.label for a in corpus.annotations if a.annotator_id == cen]
    # full-strength radicals never settle for 2 or 4
    assert set(rad_labels) <= {1, 3, 5}
    assert {1, 5} <= set(rad_labels)
    # full-strength centrists never reach 1 or 5
    assert not {1, 5} & set(cen_labels)


# --------------------------------------------------------- ground truth


def test_save_ground_truth_round_trip(tmp_path):
    _, truth = generate_corpus(small_spec(n_pairs=10))
    ann_path = tmp_path / "annotators.csv"
    pairs_path = tmp_path / "pairs.csv"
    save_ground_truth(truth, ann_path, pairs_path)

    with ann_path.open() as fh:
        rows = list(csv.DictReader(fh))
    kinds = {r["annotator_id"]: ProfileKind(r["kind"]) for r in rows}
    assert kinds == truth.annotator_kinds

    with pairs_path.open() as fh:
        rows = list(csv.DictReader(fh))
    latent = {r["pair_id"]: float(r["latent_t"]) for r in rows}
    assert latent == truth.latent  # repr() round-trips floats exactly
