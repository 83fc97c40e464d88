"""Acceptance gate: eight end-to-end checks over the whole pipeline.

Each test prints one ``ACCEPTANCE n ...: PASS/FAIL`` line with the
numbers behind the verdict, then asserts.  Seeds and tolerances are
fixed here, a priori; nothing in this file adapts to observed results.
"""

import os
import random
import time

import numpy as np
import pytest

from labelsim.cli import main as cli_main
from labelsim.correlate import (
    LEXICAL_METRICS,
    compute_metric_scores,
    correlation_report,
)
from labelsim.corpus import load_corpus
from labelsim.embmetrics import (
    TransportProblem,
    cosine_similarity,
    sentence_vector,
    solve_transport,
)
from labelsim.heuristics import (
    HeuristicId,
    compute_flag_reports,
    heuristic_subsets,
)
from labelsim.simulate import (
    PopulationSpec,
    ProfileKind,
    ProfileSpec,
    generate_corpus,
)
from labelsim.stats import reduce_label
from labelsim.textmetrics import tokenize

from oracles import (
    bleu_oracle,
    chrf_oracle,
    jaccard_oracle,
    meteor_oracle,
    rouge_l_oracle,
    rouge_n_oracle,
    score_pair_lexical,
    uniform_transport_oracle,
)


def _verdict(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance check {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. reduced-label mapping


def test_acceptance_1_reduced_label_mapping():
    t0 = time.monotonic()
    got = tuple(reduce_label(lab) for lab in (1, 2, 3, 4, 5))
    elapsed = time.monotonic() - t0
    ok = got == (-1, -1, 0, 1, 1) and elapsed < 1.0
    _verdict(1, "reduced-label mapping", ok,
             f"map={got}, {elapsed:.3f}s < 1s")


# ---------------------------------------------------------------------------
# 2. filter-subset enumeration


EXPECTED_SUBSETS = [
    (1,), (2,), (3,), (4,), (5,),
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
    (3, 4), (3, 5), (4, 5),
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5),
    (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5),
    (1, 2, 3, 4, 5),
]


def test_acceptance_2_subset_enumeration():
    t0 = time.monotonic()
    got = [tuple(int(h) for h in subset)
           for subset in heuristic_subsets(HeuristicId)]
    elapsed = time.monotonic() - t0
    ok = got == EXPECTED_SUBSETS and elapsed < 1.0
    _verdict(2, "filter-subset enumeration", ok,
             f"{len(got)} subsets, order exact, {elapsed:.3f}s < 1s")


# ---------------------------------------------------------------------------
# 3. lexical metrics against brute-force oracles


def test_acceptance_3_lexical_metric_oracles():
    rng = random.Random(20240401)
    vocab = ["cat", "dog", "sun", "tree", "ship", "rain",
             "stone", "bird", "moon", "glass", "river", "cloud"]
    tol = 1e-12
    worst = 0.0
    t0 = time.monotonic()

    for _ in range(500):
        tokens_a = rng.choices(vocab, k=rng.randint(1, 8))
        tokens_b = rng.choices(vocab, k=rng.randint(1, 8))
        text_a = " ".join(tokens_a)
        text_b = " ".join(tokens_b)
        got = {name: s
               for name, s in score_pair_lexical(text_a, text_b).items()}
        expected = {
            "word_overlap": jaccard_oracle(tokens_a, tokens_b),
            "bleu1": bleu_oracle(tokens_b, tokens_a, max_n=1,
                                 smoothing="none"),
            "bleu": bleu_oracle(tokens_b, tokens_a, max_n=4,
                                smoothing="add_one"),
            "chrf": chrf_oracle(text_a, text_b),
            "rouge1": rouge_n_oracle(tokens_a, tokens_b, 1),
            "rouge2": rouge_n_oracle(tokens_a, tokens_b, 2),
            "rougeL": rouge_l_oracle(tokens_a, tokens_b),
            "meteor": meteor_oracle(tokens_a, tokens_b),
        }
        for name in expected:
            err = abs(got[name] - expected[name])
            worst = max(worst, err)
            assert err <= tol, f"{name}: {text_a!r} vs {text_b!r}"

    # identity: every similarity metric scores 1.0 on s == s (two or more
    # tokens so bigram-based rouge2 has anything to count)
    vec_rng = np.random.default_rng(99)
    table = {w: vec_rng.normal(size=3) for w in vocab}
    for _ in range(50):
        text = " ".join(rng.choices(vocab, k=rng.randint(2, 8)))
        for name, s in score_pair_lexical(text, text).items():
            assert s == pytest.approx(1.0, abs=tol), name
        vec = sentence_vector(tokenize(text), table)
        assert cosine_similarity(vec, vec) == pytest.approx(1.0)

    # a single-token sentence has no bigrams, so rouge2 falls back to the
    # zero-denominator convention (0.0); the other seven still score 1.0
    single = {name: s
              for name, s in score_pair_lexical("cat", "cat").items()}
    assert single.pop("rouge2") == 0.0
    assert all(v == pytest.approx(1.0, abs=tol) for v in single.values())

    # disjoint vocabularies (character-disjoint too) score exactly 0
    left = ["aba", "cab", "bac", "abba"]
    right = ["xyz", "zyx", "yzx", "xzzy"]
    for _ in range(100):
        text_a = " ".join(rng.choices(left, k=rng.randint(1, 6)))
        text_b = " ".join(rng.choices(right, k=rng.randint(1, 6)))
        for name, s in score_pair_lexical(text_a, text_b).items():
            assert s == 0.0, (name, text_a, text_b)

    elapsed = time.monotonic() - t0
    ok = worst <= tol and elapsed < 30.0
    _verdict(3, "lexical metrics vs brute-force oracles", ok,
             f"500 pairs, max |err| {worst:.2e} <= 1e-12, identity/disjoint "
             f"exact, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 4. optimal-transport exactness


def test_acceptance_4_transport_exactness():
    rng = random.Random(77)
    t0 = time.monotonic()
    worst_exact = 0.0
    for _ in range(200):
        n = rng.randint(1, 4)
        C = [[rng.uniform(0.0, 10.0) for _ in range(n)] for _ in range(n)]
        marg = np.full(n, 1.0 / n)
        got = solve_transport(TransportProblem(marg, marg, np.array(C))).cost
        worst_exact = max(worst_exact, abs(got - uniform_transport_oracle(C)))
    assert worst_exact <= 1e-9

    elapsed = time.monotonic() - t0
    ok = worst_exact <= 1e-9 and elapsed < 60.0
    _verdict(4, "optimal-transport exactness", ok,
             f"200 exact problems max |err| {worst_exact:.2e} <= 1e-9, "
             f"{elapsed:.1f}s < 1min")


# ---------------------------------------------------------------------------
# 5 & 6 share twenty simulated corpora (seeds fixed a priori)


SEEDS = range(20)


@pytest.fixture(scope="module")
def synthetic_runs():
    profiles = (
        ProfileSpec(ProfileKind.RELIABLE, 12, 0.0),
        ProfileSpec(ProfileKind.RELIABLE, 12, 0.3),
        ProfileSpec(ProfileKind.RELIABLE, 12, 0.5),
        ProfileSpec(ProfileKind.CONSTANT, 12, 3.0),
        ProfileSpec(ProfileKind.UNIFORM_RANDOM, 12),
    )
    runs = []
    t0 = time.monotonic()
    for seed in SEEDS:
        spec = PopulationSpec(n_pairs=500, fraction_random=0.2,
                              profiles=profiles, seed=seed)
        corpus, truth = generate_corpus(spec)
        reports = compute_flag_reports(
            corpus, [HeuristicId.LOW_VARIANCE, HeuristicId.HIGH_RANDOM])
        runs.append((corpus, truth, reports))
    return runs, time.monotonic() - t0


def test_acceptance_5_planted_annotator_recovery(synthetic_runs):
    runs, build_elapsed = synthetic_runs
    t0 = time.monotonic()
    constant_total = constant_flagged = 0
    reliable_total = reliable_false = 0
    uniform_total = uniform_flagged = 0
    for corpus, truth, reports in runs:
        for aid, kind in truth.annotator_kinds.items():
            flags = reports[aid].flags
            if kind is ProfileKind.CONSTANT:
                constant_total += 1
                constant_flagged += HeuristicId.LOW_VARIANCE in flags
            elif kind is ProfileKind.RELIABLE:
                reliable_total += 1
                reliable_false += HeuristicId.LOW_VARIANCE in flags
            elif kind is ProfileKind.UNIFORM_RANDOM:
                uniform_total += 1
                uniform_flagged += HeuristicId.HIGH_RANDOM in flags
    elapsed = build_elapsed + (time.monotonic() - t0)

    recall_ok = constant_flagged >= 0.95 * constant_total
    fp_ok = reliable_false == 0
    majority_ok = uniform_flagged > 0.5 * uniform_total
    ok = recall_ok and fp_ok and majority_ok and elapsed < 120.0
    _verdict(5, "planted-annotator flag recovery", ok,
             f"low-variance recall {constant_flagged}/{constant_total} "
             f"(needs >= {0.95 * constant_total:.0f}), "
             f"false positives on reliables {reliable_false}/{reliable_total} "
             f"(needs 0), high-random majority {uniform_flagged}/"
             f"{uniform_total} (needs > {uniform_total // 2}), "
             f"{elapsed:.1f}s < 2min")


def test_acceptance_6_filtering_improves_correlation(synthetic_runs):
    runs, _ = synthetic_runs
    subset = [HeuristicId.LOW_VARIANCE, HeuristicId.HIGH_RANDOM]
    improved = {name: 0 for name in LEXICAL_METRICS}
    t0 = time.monotonic()
    for corpus, _, reports in runs:
        scores = compute_metric_scores(corpus, list(LEXICAL_METRICS))
        report = correlation_report(corpus, scores, reports)
        assert report.metrics == LEXICAL_METRICS
        row = report.subsets[-1]
        assert row.subset == tuple(subset)
        for name in LEXICAL_METRICS:
            before = report.baseline[name].pearson
            after = row.cells[name].pearson
            improved[name] += after > before
    elapsed = time.monotonic() - t0

    ok = all(count >= 19 for count in improved.values())
    detail = ", ".join(f"{name} {count}/20"
                       for name, count in improved.items())
    _verdict(6, "filtering [2, 3] raises every lexical correlation", ok,
             f"strict increases per metric (needs >= 19/20): {detail}; "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. optional real-data baselines (env-gated)


REAL_ENV = ("LABELSIM_REAL_PAIRS", "LABELSIM_REAL_ANNOTATIONS",
            "LABELSIM_EMBEDDINGS")


def test_acceptance_7_real_data_baselines():
    paths = {name: os.environ.get(name) for name in REAL_ENV}
    if not all(paths.values()):
        missing = ", ".join(n for n, v in paths.items() if not v)
        print(f"ACCEPTANCE 7 real-data baselines: SKIP (set {missing})")
        pytest.skip(f"real-data files not configured ({missing})")

    corpus = load_corpus(paths["LABELSIM_REAL_PAIRS"],
                         paths["LABELSIM_REAL_ANNOTATIONS"])
    scores = compute_metric_scores(corpus, ["rouge1", "bleu"])

    t0 = time.monotonic()
    reports = compute_flag_reports(corpus, list(HeuristicId))
    report = correlation_report(corpus, scores, reports)  # all 31 subsets
    elapsed = time.monotonic() - t0

    rouge1_r = report.baseline["rouge1"].pearson
    bleu_r = report.baseline["bleu"].pearson

    ok = (abs(rouge1_r - 0.61) <= 0.05 and abs(bleu_r - 0.41) <= 0.05
          and elapsed < 600.0)
    _verdict(7, "real-data baselines", ok,
             f"rouge1 r={rouge1_r:.3f} (0.61 +/- 0.05), "
             f"bleu r={bleu_r:.3f} (0.41 +/- 0.05), "
             f"31-subset sweep {elapsed:.0f}s < 10min")


# ---------------------------------------------------------------------------
# 8. byte-identical reports


def test_acceptance_8_report_determinism(tmp_path):
    sim_dir = tmp_path / "sim"
    assert cli_main(["simulate", "--out-dir", str(sim_dir),
                     "--n-pairs", "60", "--seed", "5"]) == 0
    argv = ["report",
            "--pairs", str(sim_dir / "pairs.csv"),
            "--annotations", str(sim_dir / "annotations.csv"),
            "--metrics", "lexical", "--heuristics", "all",
            "--out-format", "csv"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    t0 = time.monotonic()
    assert cli_main(argv + ["--out", str(out1)]) == 0
    assert cli_main(argv + ["--out", str(out2)]) == 0
    elapsed = time.monotonic() - t0
    identical = out1.read_bytes() == out2.read_bytes()
    _verdict(8, "report determinism", identical,
             f"two runs byte-identical over {out1.stat().st_size} bytes, "
             f"{elapsed:.1f}s")
