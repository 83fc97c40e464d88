"""Tests for embedding metrics and the optimal-transport solver."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from labelsim import embmetrics
from labelsim.corpus import CorpusError
from labelsim.embmetrics import (
    MARGINAL_TOL,
    TransportProblem,
    cosine_similarity,
    l2_distance,
    lexicon_noun_tagger,
    load_embeddings,
    load_gold_tags,
    load_noun_lexicon,
    load_sentence_embeddings,
    nouns_from_tags,
    pos_distance,
    sentence_vector,
    solve_transport,
    wmd,
    _euclidean_costs,
    _least_cost_start,
    _min_cost_matching,
    _simplex_pivots,
)
from labelsim.simulate import (PopulationSpec, ProfileKind, ProfileSpec,
                               generate_corpus)
from labelsim.textmetrics import light_stem, tokenize

from conftest import make_corpus
from oracles import (
    assignment_oracle,
    linprog_transport_oracle,
    matching_min_mean_cycle,
    nbow_oracle,
    northwest_corner_wmd,
    rebuild_tree_pivots,
    residual_min_mean_cycle,
    uniform_transport_oracle,
    wmd_residual_problem,
)

# The simplex stops once no reduced cost is below -1e-11 * scale, so no
# residual cycle of its plan has a lower mean cost; the rest is rounding.
SOLVER_TOL = 1.01e-11


def make_table(words, dim=4, seed=7):
    rng = np.random.default_rng(seed)
    return {w: rng.normal(size=dim) for w in words}


# ------------------------------------------------------------ embedding IO


def test_load_embeddings_basic(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    table = load_embeddings(p)
    assert {v.size for v in table.values()} == {2}
    assert set(table) == {"cat", "dog"}
    assert table["cat"].tolist() == [1.0, 0.0]


def test_load_embeddings_skips_count_dim_header(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("2 3\ncat 1 2 3\ndog 4 5 6\n")
    table = load_embeddings(p)
    assert {v.size for v in table.values()} == {3}
    assert set(table) == {"cat", "dog"}


@pytest.mark.parametrize("header", ["", "2 3\n"], ids=["bare", "count-dim"])
def test_load_embeddings_skips_a_byte_order_mark(tmp_path, header):
    text = header + "the 1 2 3\ndog 4 5 6\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    got, want = load_embeddings(marked), load_embeddings(plain)
    assert set(got) == set(want) == {"the", "dog"}
    assert all(got[w].tolist() == want[w].tolist() for w in want)


def test_load_embeddings_keeps_a_later_feff_as_data(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("cat 1 2\n\ufeffdog 3 4\n", encoding="utf-8")
    assert set(load_embeddings(path)) == {"cat", "\ufeffdog"}


def test_load_embeddings_two_field_word_line_is_not_header(tmp_path):
    # "up 1.0" cannot be a count/dim header (1.0 is not an int), so it is
    # a one-dimensional vector entry.
    p = tmp_path / "vec.txt"
    p.write_text("up 1.0\ndown -1.0\n")
    table = load_embeddings(p)
    assert {v.size for v in table.values()} == {1}
    assert table["down"].tolist() == [-1.0]


def test_load_embeddings_dimension_mismatch(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("cat 1 2 3\ndog 4 5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(p)


def test_load_embeddings_duplicates_keep_first(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("cat 1 2\ncat 9 9\n")
    table = load_embeddings(p)
    assert table["cat"].tolist() == [1.0, 2.0]


def test_load_embeddings_vocab_filter(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("cat 1 2\ndog 3 4\neel 5 6\n")
    table = load_embeddings(p, vocab_filter={"dog", "eel"})
    assert set(table) == {"dog", "eel"}


def test_load_embeddings_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="no embedding vectors"):
        load_embeddings(empty)
    bad = tmp_path / "bad.txt"
    bad.write_text("cat one two\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_embeddings(bad)
    bare = tmp_path / "bare.txt"
    bare.write_text("cat 1 2\nword\n")
    with pytest.raises(ValueError, match="no vector components"):
        load_embeddings(bare)


def test_load_embeddings_rejects_non_finite(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cat 1 2\ndog nan 2\n")
    with pytest.raises(ValueError,
                       match=r"vectors\.txt line 2: non-finite vector"):
        load_embeddings(path)
    # a filtered-out word is never parsed, so it cannot fail the load
    assert set(load_embeddings(path, vocab_filter={"cat"})) == {"cat"}


def test_loaders_reject_a_vector_whose_squared_norm_overflows(tmp_path):
    # 4 * |v|^2 is 4e306 for 1e153 but overflows for 1e154
    path = tmp_path / "vectors.txt"
    path.write_text("cat 1e153 0\ndog 1e154 0\n")
    with np.errstate(all="raise"), pytest.raises(
            CorpusError, match=r"^\S*vectors\.txt line 2: vector too large: "
                               "its squared norm overflows distance "
                               "arithmetic$"):
        load_embeddings(path)
    assert load_embeddings(path, vocab_filter={"cat"})["cat"].size == 2
    sent = tmp_path / "sent.csv"
    sent.write_text("pair_id,side,vector\np1,a,1 2\np1,b,0 -1e200\n")
    with np.errstate(all="raise"), pytest.raises(
            CorpusError, match=r"sent\.csv row 3: vector too large"):
        load_sentence_embeddings(sent)


def test_load_embeddings_rejects_non_utf8(tmp_path):
    # Decoded leniently, both words would become "caf\ufffd" and the
    # second vector would be dropped as a duplicate.
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"caf\xe9 1 2\ncaf\xe8 3 4\n")
    with pytest.raises(CorpusError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path} line 1: not UTF-8"
    path.write_bytes(b"cat 1 2\ncaf\xe8 3 4\n")
    with pytest.raises(CorpusError, match=r"vectors\.txt line 2: not UTF-8"):
        load_embeddings(path, vocab_filter={"cat"})


# ------------------------------------------------------ sentence geometry


def test_sentence_vector_mean_skips_oov():
    table = {
        "cat": np.array([2.0, 0.0]),
        "dog": np.array([0.0, 4.0]),
    }
    vec = sentence_vector(["cat", "dog", "zzz"], table)
    assert vec.tolist() == [1.0, 2.0]


def test_sentence_vector_all_oov_errors():
    table = {"cat": np.array([1.0, 0.0])}
    with pytest.raises(ValueError, match="no representable tokens"):
        sentence_vector(["zzz", "qqq"], table)


def test_cosine_similarity_values():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert cosine_similarity(u, u) == pytest.approx(1.0)
    assert cosine_similarity(u, v) == pytest.approx(0.0)
    assert cosine_similarity(u, -u) == pytest.approx(-1.0)


def test_cosine_similarity_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        base = cosine_similarity(u, v)
        assert cosine_similarity(3.7 * u, 0.002 * v) == pytest.approx(base)
        assert -1.0 - 1e-12 <= base <= 1.0 + 1e-12


def test_cosine_zero_norm_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_l2_distance_345():
    assert l2_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


# --------------------------------------------------- transport validation


def test_transport_validate_errors():
    good_a = np.array([0.5, 0.5])
    good_b = np.array([0.25, 0.75])
    C = np.ones((2, 2))
    TransportProblem(good_a, good_b, C).validate()

    with pytest.raises(ValueError, match="one-dimensional"):
        TransportProblem(np.ones((2, 1)), good_b, C).validate()
    with pytest.raises(ValueError, match="shape"):
        TransportProblem(good_a, good_b, np.ones((3, 2))).validate()
    with pytest.raises(ValueError, match="non-negative"):
        TransportProblem(np.array([1.5, -0.5]), good_b, C).validate()
    with pytest.raises(ValueError, match="finite and non-negative"):
        TransportProblem(good_a, good_b, -C).validate()
    with pytest.raises(ValueError, match="finite and non-negative"):
        TransportProblem(good_a, good_b, np.full((2, 2), np.inf)).validate()
    with pytest.raises(ValueError, match="zero-mass"):
        TransportProblem(np.zeros(2), np.zeros(2), C).validate()
    with pytest.raises(ValueError, match="differ"):
        TransportProblem(good_a, np.array([0.3, 0.3]), C).validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transport_rejects_a_non_finite_weight(bad):
    # NaN passes both the "< 0" and the sum checks, so it needs its own
    half = np.array([0.5, 0.5])
    for a, b in ((np.array([bad, 0.5]), half), (half, np.array([0.5, bad]))):
        problem = TransportProblem(a, b, np.ones((2, 2)))
        with pytest.raises(ValueError,
                           match="^weights must be finite and non-negative$"):
            solve_transport(problem)


# ------------------------------------------------------- exact transport


def test_exact_transport_hand_case():
    # Two sources, two sinks; sending mass straight across costs 1 each,
    # crossing costs 5: optimal plan is the identity with cost 1.
    prob = TransportProblem(
        np.array([0.5, 0.5]),
        np.array([0.5, 0.5]),
        np.array([[1.0, 5.0], [5.0, 1.0]]),
    )
    result = solve_transport(prob)
    assert result.cost == pytest.approx(1.0, abs=1e-12)
    assert result.plan == pytest.approx(np.eye(2) * 0.5, abs=1e-12)


def test_exact_transport_matches_permutation_oracle():
    rng = random.Random(20240818)
    for _ in range(120):
        n = rng.randint(1, 4)
        C = [[rng.uniform(0.0, 10.0) for _ in range(n)] for _ in range(n)]
        marg = np.full(n, 1.0 / n)
        result = solve_transport(TransportProblem(marg, marg, np.array(C)))
        expected = uniform_transport_oracle(C)
        assert result.cost == pytest.approx(expected, abs=1e-9)
        assert result.marginal_error <= MARGINAL_TOL
        assert (result.plan >= -1e-12).all()


def test_exact_transport_matches_lp_on_nonuniform_problems():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = rng.randint(2, 6)
        a = np.array([rng.uniform(0.05, 1.0) for _ in range(n)])
        b = np.array([rng.uniform(0.05, 1.0) for _ in range(m)])
        a /= a.sum()
        b /= b.sum()
        C = [[rng.uniform(0.0, 4.0) for _ in range(m)] for _ in range(n)]
        result = solve_transport(TransportProblem(a, b, np.array(C)))
        expected = linprog_transport_oracle(a.tolist(), b.tolist(), C)
        assert result.cost == pytest.approx(expected, abs=1e-8)
        assert result.marginal_error <= MARGINAL_TOL


def test_exact_transport_degenerate_shapes():
    # single source spread over three sinks: cost is the weighted average
    prob = TransportProblem(
        np.array([1.0]),
        np.array([0.2, 0.3, 0.5]),
        np.array([[1.0, 2.0, 4.0]]),
    )
    assert solve_transport(prob).cost == pytest.approx(
        0.2 * 1 + 0.3 * 2 + 0.5 * 4)
    # single sink mirrors it
    prob_t = TransportProblem(
        np.array([0.2, 0.3, 0.5]),
        np.array([1.0]),
        np.array([[1.0], [2.0], [4.0]]),
    )
    assert solve_transport(prob_t).cost == pytest.approx(2.8)


def test_exact_transport_handles_zero_weight_entries():
    prob = TransportProblem(
        np.array([0.5, 0.0, 0.5]),
        np.array([0.25, 0.75]),
        np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 0.5]]),
    )
    result = solve_transport(prob)
    expected = linprog_transport_oracle(
        [0.5, 0.0, 0.5], [0.25, 0.75],
        [[1.0, 2.0], [3.0, 4.0], [2.0, 0.5]])
    assert result.cost == pytest.approx(expected, abs=1e-9)
    assert result.plan[1].sum() == pytest.approx(0.0, abs=1e-12)


@st.composite
def transport_problems(draw):
    """Small problems with tied costs, equal weights, zero-weight entries
    and 1 x m / n x 1 shapes all likely."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))

    def weights(size):
        if draw(st.booleans()):
            return np.ones(size)
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=size,
                                   max_size=size)), dtype=np.float64)
        if w.sum() == 0:
            w[draw(st.integers(0, size - 1))] = 1.0
        return w

    a = weights(n)
    b = weights(m)
    if draw(st.booleans()):
        cells = st.integers(0, 3).map(float)  # many exact ties
    else:
        cells = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    C = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)),
                 dtype=np.float64).reshape(n, m)
    return a / a.sum(), b / b.sum(), C


@settings(max_examples=300, deadline=None)
@given(transport_problems())
# HiGHS answers 7.04e-12 here, within its own tolerances; 0.0 is optimal.
@example((np.array([0.5, 0.5]), np.array([0.0, 0.5, 0.5]),
          np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.408e-11]])))
def test_exact_transport_matches_highs(problem):
    a, b, C = problem
    result = solve_transport(TransportProblem(a, b, C))
    scale = max(1.0, float(C.max()))
    assert result.marginal_error <= 1e-12
    assert (result.plan >= 0).all()
    assert residual_min_mean_cycle(result.plan, C) >= -SOLVER_TOL * scale
    # One-sided: an LP solver may stop above the optimum within its own
    # tolerances.  The simplex may stop above it by at most its stopping
    # tolerance times the unit mass.
    expected = linprog_transport_oracle(a.tolist(), b.tolist(), C.tolist())
    assert result.cost <= expected + SOLVER_TOL * scale


def test_residual_certificate_rejects_a_suboptimal_plan():
    C = np.array([[1.0, 5.0], [5.0, 1.0]])
    crossed = np.array([[0.0, 0.5], [0.5, 0.0]])
    # row 0 -> col 0 -> row 1 -> col 1 -> row 0 costs 1 - 5 + 1 - 5
    assert residual_min_mean_cycle(crossed, C) == -2.0
    assert residual_min_mean_cycle(np.eye(2) * 0.5, C) == 0.0


def test_least_cost_start_spans_when_rounding_leaves_masses_apart():
    # 0.3 + 0.2 + 0.1 rounds above the column sums, so the last open
    # column runs out a hair before the rows do; it must not be closed
    # while two rows are still open.
    a = np.array([0.3, 0.2, 0.1])
    b = np.array([0.19999999999999998, 0.09999999999999999, 0.3])
    C = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 2.0], [2.0, 1.0, 0.0]])
    _, basis = _least_cost_start(a, b, C)
    assert len(basis) == 5
    result = solve_transport(TransportProblem(a, b, C))
    expected = linprog_transport_oracle(a.tolist(), b.tolist(), C.tolist())
    assert result.marginal_error <= 1e-12
    assert abs(result.cost - expected) <= 1e-12


def test_least_cost_start_keeps_wmd_rank_order_and_saves_pivots():
    from scipy.spatial.distance import cdist

    corpus, _ = generate_corpus(PopulationSpec(
        n_pairs=300, fraction_random=0.2, seed=13,
        profiles=(ProfileSpec(ProfileKind.RELIABLE, 6),)))
    sides = [(tokenize(p.text_a), tokenize(p.text_b)) for p in corpus.pairs]
    words = sorted({t for pair in sides for side in pair for t in side})
    table = make_table(words, dim=16, seed=3)
    new, old, new_pivots, old_pivots = [], [], 0, 0
    for tokens_a, tokens_b in sides:
        _, wa, va = nbow_oracle(tokens_a, table)
        _, wb, vb = nbow_oracle(tokens_b, table)
        result = solve_transport(TransportProblem(wa, wb, cdist(va, vb)))
        new.append(result.cost)
        new_pivots += result.iterations
        cost, pivots = northwest_corner_wmd(tokens_a, tokens_b, table)
        old.append(cost)
        old_pivots += pivots
    new, old = np.array(new), np.array(old)
    assert np.abs(new - old).max() <= 1e-12 * max(1.0, old.max())
    assert (np.argsort(new, kind="stable")
            == np.argsort(old, kind="stable")).all()
    assert new_pivots < old_pivots


def unit_mass_problem(dists):
    """A matching posed as a transport problem: unit masses, the smaller
    side padded by one zero-cost dummy node.  Its plans are highly
    degenerate, which is what the pivot-oracle tests below feed the
    simplex."""
    n, m = dists.shape
    a, b, costs = np.ones(n), np.ones(m), dists
    if n < m:
        a = np.append(a, m - n)
        costs = np.vstack([dists, np.zeros((1, m))])
    elif n > m:
        b = np.append(b, n - m)
        costs = np.hstack([dists, np.zeros((n, 1))])
    return a, b, costs


@st.composite
def unit_mass_problems(draw):
    """Matchings with tied integer costs or rounded ones, dummy node included."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 10))
    cells = draw(st.sampled_from([
        st.integers(0, 2).map(float),
        st.integers(0, 10).map(lambda k: k / 10),  # ties that rounding splits
        st.floats(0.0, 5.0).map(lambda x: round(x, 2)),
    ]))
    dists = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)),
                     dtype=np.float64).reshape(n, m)
    return unit_mass_problem(dists)


def assert_same_pivots(a, b, C):
    """The kept-tree pivot loop and the rebuild-every-pivot one take the
    same pivots from the same start, down to the last bit of the plan."""
    plan, pivots = _simplex_pivots(C, *_least_cost_start(a, b, C))
    ref_plan, ref_pivots = rebuild_tree_pivots(C, *_least_cost_start(a, b, C))
    assert pivots == ref_pivots
    assert plan.tobytes() == ref_plan.tobytes()
    return plan, pivots


@settings(max_examples=300, deadline=None)
@given(st.one_of(transport_problems(), unit_mass_problems()))
def test_kept_tree_pivots_equal_rebuilt_tree_pivots(problem):
    assert_same_pivots(*problem)


def test_kept_tree_pivots_equal_rebuilt_tree_pivots_on_seeded_problems():
    # Euclidean costs as in WMD, and costs on a 0.1 grid: sums of those
    # round, so the potentials of a wrongly rebuilt tree would break
    # reduced-cost ties differently.
    rng = np.random.default_rng(5)
    for k in range(300):
        n, m = rng.integers(1, 14, size=2)
        if k % 3 == 0:
            C = _euclidean_costs(rng.normal(size=(n, 8)),
                                 rng.normal(size=(m, 8)))
        else:
            C = rng.integers(0, 11, size=(n, m)) / 10
        if k % 3 == 1:
            assert_same_pivots(*unit_mass_problem(C))
        else:
            a = rng.integers(1, 4, size=n).astype(np.float64)
            b = rng.integers(1, 4, size=m).astype(np.float64)
            assert_same_pivots(a / a.sum(), b / b.sum(), C)


def test_bland_fallback_matches_oracle_and_is_optimal(monkeypatch):
    # Patched to 0, the first degenerate pivot switches the entering rule
    # to Bland's.  No degenerate problem seen in practice stalls long
    # enough to reach it otherwise.
    rng = np.random.default_rng(0)
    problems = []
    for _ in range(150):
        n, m = rng.integers(2, 8, size=2)
        problems.append(unit_mass_problem(
            rng.integers(0, 3, size=(n, m)).astype(np.float64)))
    default_runs = [_simplex_pivots(C, *_least_cost_start(a, b, C))
                    for a, b, C in problems]
    monkeypatch.setattr(embmetrics, "STALL_PIVOTS_PER_NODE", 0)
    changed = 0
    for (a, b, C), (default_plan, default_pivots) in zip(problems,
                                                          default_runs):
        plan, pivots = assert_same_pivots(a, b, C)
        assert residual_min_mean_cycle(plan, C) >= -SOLVER_TOL
        changed += (pivots != default_pivots
                    or not np.array_equal(plan, default_plan))
    assert changed > 0  # the patch really took the Bland path


# ------------------------------------------------------------------ wmd


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 300),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
def test_euclidean_costs_equal_cdist(n, m, dim, seed, scale):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(seed)
    u = rng.normal(scale=scale, size=(n, dim))
    v = rng.normal(scale=scale, size=(m, dim))
    v[: min(n, m) // 2] = u[: min(n, m) // 2]  # some zero distances
    got = _euclidean_costs(u, v)
    assert got.shape == (n, m)
    assert (got == cdist(u, v)).all()


WMD_TABLE = make_table(
    ["cat", "dog", "bird", "house", "tree", "car", "moon", "fish"],
    dim=4, seed=5)


def test_wmd_identical_sentences_cost_zero():
    score = wmd(["cat", "dog", "cat"], ["cat", "dog", "cat"], WMD_TABLE)
    assert score == pytest.approx(0.0, abs=1e-12)


def test_wmd_single_words_is_euclidean_distance():
    got = wmd(["cat"], ["dog"], WMD_TABLE)
    expected = l2_distance(WMD_TABLE["cat"], WMD_TABLE["dog"])
    assert got == pytest.approx(expected, abs=1e-12)


def test_wmd_symmetric():
    rng = random.Random(6)
    words = sorted(WMD_TABLE)
    for _ in range(20):
        a = rng.choices(words, k=rng.randint(1, 5))
        b = rng.choices(words, k=rng.randint(1, 5))
        assert wmd(a, b, WMD_TABLE) == pytest.approx(
            wmd(b, a, WMD_TABLE), abs=1e-9)


def test_wmd_triangle_inequality():
    rng = random.Random(7)
    words = sorted(WMD_TABLE)
    for _ in range(20):
        a = rng.choices(words, k=rng.randint(1, 4))
        b = rng.choices(words, k=rng.randint(1, 4))
        c = rng.choices(words, k=rng.randint(1, 4))
        ab = wmd(a, b, WMD_TABLE)
        bc = wmd(b, c, WMD_TABLE)
        ac = wmd(a, c, WMD_TABLE)
        assert ac <= ab + bc + 1e-9


def test_wmd_ignores_token_order():
    assert wmd(["cat", "dog"], ["tree", "house"], WMD_TABLE) == \
        pytest.approx(wmd(["dog", "cat"], ["house", "tree"], WMD_TABLE),
                      abs=1e-12)


def assert_wmd_is_the_full_bag_optimum(a, b, table):
    """``wmd`` against the simplex and the LP solved on the whole of both
    bags, shared mass included."""
    got = wmd(a, b, table)
    _, wa, va = nbow_oracle(a, table)
    _, wb, vb = nbow_oracle(b, table)
    costs = _euclidean_costs(va, vb)
    full = solve_transport(TransportProblem(wa, wb, costs)).cost
    if not set(a) & set(b) & set(table):
        assert got == full  # nothing shared: the very same problem
    elif sorted(a) == sorted(b):
        assert got == 0.0
    assert abs(got - full) <= 4 * np.spacing(max(abs(got), abs(full)))
    expected = linprog_transport_oracle(wa.tolist(), wb.tolist(),
                                        costs.tolist())
    assert abs(got - expected) <= 1e-9 * max(1.0, expected)


def twin_table(seed, dim=4):
    """Ten words; "twin" has the very vector of "w0"."""
    table = make_table([f"w{i}" for i in range(9)], dim=dim, seed=seed)
    table["twin"] = table["w0"].copy()
    return table


def test_wmd_equals_the_full_bag_optimum_on_seeded_bags():
    rng = random.Random(4)
    kinds = {"shared": 0, "disjoint": 0, "identical": 0}
    for k in range(400):
        table = twin_table(seed=k, dim=rng.randint(1, 8))
        words = sorted(table)
        a = rng.choices(words, k=rng.randint(1, 12))  # repeats tokens
        if k % 8 == 0:
            b = rng.sample(a, len(a))
        elif k % 8 == 1:
            b = rng.choices([w for w in words if w not in a] or words,
                            k=rng.randint(1, 6))
        else:
            b = rng.choices(words, k=rng.randint(1, 12))
        assert_wmd_is_the_full_bag_optimum(a, b, table)
        if sorted(a) == sorted(b):
            kinds["identical"] += 1
        elif set(a) & set(b):
            kinds["shared"] += 1
        else:
            kinds["disjoint"] += 1
    assert min(kinds.values()) >= 40


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=14),
       st.lists(st.integers(0, 9), min_size=1, max_size=14),
       st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_wmd_equals_the_full_bag_optimum(ids_a, ids_b, seed, dim):
    table = twin_table(seed, dim)
    words = sorted(table)
    assert_wmd_is_the_full_bag_optimum([words[i] for i in ids_a],
                                       [words[i] for i in ids_b], table)


def test_wmd_solves_the_residual_problem_on_seeded_bags(monkeypatch):
    # The problem wmd hands the solver is, bit for bit, the one the
    # oracle builds with plain loops; wmd returns its solved cost; and the
    # solver takes as many pivots on those problems as the pivot loop
    # that rebuilds its tree every pivot.
    seen = []
    real = embmetrics.solve_transport

    def recording(problem):
        seen.append(problem)
        return real(problem)

    monkeypatch.setattr(embmetrics, "solve_transport", recording)
    rng = random.Random(9)
    solves = pivots = rebuilt_pivots = 0
    for k in range(300):
        table = make_table([f"w{i}" for i in range(16)],
                           dim=rng.randint(1, 8), seed=k)
        table["twin"] = table["w0"].copy()
        words = sorted(table) + ["oov"]
        a = rng.choices(words, k=rng.randint(1, 24))
        b = rng.choices(words, k=rng.randint(1, 24))
        if not set(a) & set(table) or not set(b) & set(table):
            continue
        seen.clear()
        got = wmd(a, b, table)
        expected = wmd_residual_problem(a, b, table)
        if expected is None:
            assert got == 0.0 and seen == []
            continue
        (problem,) = seen
        wa, wb, costs = expected
        assert problem.source_weights.tobytes() == wa.tobytes()
        assert problem.target_weights.tobytes() == wb.tobytes()
        assert problem.costs.tobytes() == costs.tobytes()
        result = real(TransportProblem(wa, wb, costs))
        assert got == result.cost
        solves += 1
        pivots += result.iterations
        rebuilt_pivots += rebuild_tree_pivots(
            costs, *_least_cost_start(wa, wb, costs))[1]
    assert pivots == rebuilt_pivots
    assert solves > 250 and pivots > 750  # 299 solves, 1,038 pivots


def test_wmd_moves_only_the_unshared_mass(monkeypatch):
    seen = []
    real = embmetrics.solve_transport

    def recording(problem):
        seen.append(problem)
        return real(problem)

    monkeypatch.setattr(embmetrics, "solve_transport", recording)
    # a: cat 1/2, dog 1/4, bird 1/4; b: cat 1/4, dog 1/2, moon 1/4
    got = wmd(["cat", "cat", "dog", "bird"], ["cat", "dog", "dog", "moon"],
              WMD_TABLE)
    (problem,) = seen
    assert problem.source_weights.tolist() == [0.25, 0.25]  # bird, cat
    assert problem.target_weights.tolist() == [0.25, 0.25]  # dog, moon
    assert got == real(problem).cost
    seen.clear()
    assert wmd(["cat", "dog", "cat"], ["dog", "cat", "cat"], WMD_TABLE) == 0.0
    assert seen == []  # identical bags need no solve


def test_nbow_weights():
    # the normalized bag-of-words that wmd builds for each side
    types, weights = embmetrics._bag(
        ["dog", "tree", "cat", "dog", "zzz", "dog"], WMD_TABLE)
    assert types == ["cat", "dog", "tree"]
    assert weights == [1 / 5, 3 / 5, 1 / 5]  # out-of-vocabulary zzz dropped
    assert all(type(w) is float for w in weights)
    with pytest.raises(ValueError, match="no representable tokens"):
        embmetrics._bag(["zzz", "qqq"], WMD_TABLE)


# --------------------------------------------------------- noun distance


def test_load_noun_lexicon_bundled():
    nouns = load_noun_lexicon()
    assert len(nouns) >= 100
    assert all(w == w.lower() for w in nouns)


def test_load_noun_lexicon_custom(tmp_path):
    p = tmp_path / "nouns.txt"
    p.write_text("# header comment\nCat\n\ndog\n")
    assert load_noun_lexicon(p) == frozenset({"cat", "dog"})


def test_load_noun_lexicon_skips_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("cat\ndog\n", encoding="utf-8")
    marked.write_text("cat\ndog\n", encoding="utf-8-sig")
    assert load_noun_lexicon(marked) == load_noun_lexicon(plain) == \
        frozenset({"cat", "dog"})


def test_load_noun_lexicon_errors_name_the_file(tmp_path):
    empty = tmp_path / "none.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(CorpusError) as exc:
        load_noun_lexicon(empty)
    assert str(exc.value) == f"{empty}: noun lexicon is empty"
    latin = tmp_path / "latin.txt"
    latin.write_bytes("cat\n# nouns\ncaf\xe9\n".encode("latin-1"))
    with pytest.raises(CorpusError) as exc:
        load_noun_lexicon(latin)
    assert str(exc.value) == f"{latin} line 3: not UTF-8"


def test_lexicon_noun_tagger_uses_stemming():
    tagger = lexicon_noun_tagger(frozenset({"cat", "house"}))
    assert tagger(["the", "cats", "ran", "past", "a", "house"]) == \
        ["cats", "house"]
    assert tagger(["nothing", "here"]) == []


def test_lexicon_noun_tagger_decides_each_token_type_once(monkeypatch):
    nouns = frozenset({"cat", "house", "glass", "stud", "runn"})
    words = ["cat", "cats", "house", "houses", "glasses", "glass", "studies",
             "stud", "studing", "running", "runs", "the", "a", "ran"]
    stem_calls = []

    def counted_stem(word):
        stem_calls.append(word)
        return light_stem(word)

    monkeypatch.setattr(embmetrics, "light_stem", counted_stem)
    tagger = lexicon_noun_tagger(nouns)
    rng = random.Random(12)
    seen = set()
    for _ in range(300):
        tokens = [rng.choice(words) for _ in range(rng.randint(0, 9))]
        seen.update(tokens)
        assert tagger(tokens) == [t for t in tokens
                                  if t in nouns or light_stem(t) in nouns]
    assert len(stem_calls) == len(set(stem_calls))
    assert set(stem_calls) == seen - nouns


def test_nouns_from_tags():
    tokens = ["the", "cat", "sat", "on", "mats"]
    tags = {1: "NN", 4: "NNS", 2: "VBD", 9: "NN", 0: "DT"}
    assert nouns_from_tags(tokens, tags) == ["cat", "mats"]
    assert nouns_from_tags(tokens, {1: "NOUN"}) == ["cat"]
    assert nouns_from_tags(tokens, {}) == []


def test_pos_distance_single_nouns():
    tagger = lexicon_noun_tagger(frozenset({"cat", "dog"}))
    score = pos_distance(tagger(["the", "cat"]), tagger(["a", "dog"]),
                         WMD_TABLE)
    expected = l2_distance(WMD_TABLE["cat"], WMD_TABLE["dog"])
    assert score == pytest.approx(expected)


def test_pos_distance_matched_matches_assignment_oracle():
    words = sorted(WMD_TABLE)
    tagger = lexicon_noun_tagger(frozenset(words))
    rng = random.Random(8)
    for _ in range(40):
        n_a = rng.randint(1, 4)
        n_b = rng.randint(n_a, 5)  # oracle wants rows <= columns
        nouns_a = rng.sample(words, n_a)
        nouns_b = rng.sample(words, n_b)
        got = pos_distance(tagger(nouns_a), tagger(nouns_b), WMD_TABLE)
        costs = [[l2_distance(WMD_TABLE[x], WMD_TABLE[y])
                  for y in nouns_b] for x in nouns_a]
        assert got == pytest.approx(assignment_oracle(costs) / n_a,
                                          abs=1e-9)


def assert_matching_like_scipy(dists):
    from scipy.optimize import linear_sum_assignment

    n, m = dists.shape
    rows, cols = _min_cost_matching(dists)
    assert len(rows) == min(n, m)
    assert (np.diff(rows) > 0).all()  # row order, each row at most once
    assert len(set(cols.tolist())) == len(cols)
    ref_rows, ref_cols = linear_sum_assignment(dists)
    scale = max(1.0, float(dists.max()))
    assert abs(dists[rows, cols].sum() - dists[ref_rows, ref_cols].sum()) \
        <= 1e-12 * scale
    got, ref = dists[rows, cols].mean(), dists[ref_rows, ref_cols].mean()
    assert abs(got - ref) <= 4 * np.spacing(max(abs(got), abs(ref)))
    assert matching_min_mean_cycle(dists, rows, cols) >= -SOLVER_TOL * scale


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.booleans())
def test_min_cost_matching_matches_linear_sum_assignment(n, m, seed, repeat):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 5))
    v = rng.normal(size=(m, 5))
    if repeat and n > 1:
        u[-1] = u[0]  # a repeated noun: several matchings tie
    assert_matching_like_scipy(_euclidean_costs(u, v))


def test_min_cost_matching_shapes():
    rng = np.random.default_rng(11)
    for n, m in [(1, 1), (1, 5), (5, 1), (3, 3), (2, 6), (6, 2), (4, 7)]:
        dists = _euclidean_costs(rng.normal(size=(n, 3)),
                                 rng.normal(size=(m, 3)))
        assert_matching_like_scipy(dists)
    # all costs tied: any full matching is optimal
    assert_matching_like_scipy(np.ones((3, 4)))
    assert_matching_like_scipy(np.zeros((4, 2)))


def test_min_cost_matching_at_16_by_16_and_taller():
    rng = np.random.default_rng(23)
    for n, m in [(16, 16), (16, 9), (12, 5), (16, 1), (9, 16)]:
        for _ in range(10):
            u = rng.normal(size=(n, 8))
            u[n // 2:] = u[: n - n // 2]  # repeated nouns: tied matchings
            assert_matching_like_scipy(_euclidean_costs(
                u, rng.normal(size=(m, 8))))
        assert_matching_like_scipy(
            rng.integers(0, 3, size=(n, m)).astype(np.float64))


def test_min_cost_matching_rejects_non_finite_costs():
    for bad in (np.inf, np.nan):
        dists = np.ones((3, 4))
        dists[1, 2] = bad
        with pytest.raises(ValueError, match="matching costs must be finite"):
            _min_cost_matching(dists)


def test_pos_distance_repeated_noun_matches_assignment():
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    tagger = lexicon_noun_tagger(frozenset(WMD_TABLE))
    a = ["cat", "dog", "cat", "tree"]
    b = ["dog", "cat", "moon"]
    got = pos_distance(tagger(a), tagger(b), WMD_TABLE)
    dists = cdist(np.stack([WMD_TABLE[t] for t in a]),
                  np.stack([WMD_TABLE[t] for t in b]))
    rows, cols = linear_sum_assignment(dists)
    ref = dists[rows, cols].mean()
    assert abs(got - ref) <= 4 * np.spacing(ref)


def test_pos_distance_all_pairs_mean():
    tagger = lexicon_noun_tagger(frozenset({"cat", "dog", "tree"}))
    got = pos_distance(tagger(["cat", "dog"]), tagger(["tree"]), WMD_TABLE,
                       aggregate="all_pairs")
    d1 = l2_distance(WMD_TABLE["cat"], WMD_TABLE["tree"])
    d2 = l2_distance(WMD_TABLE["dog"], WMD_TABLE["tree"])
    assert got == pytest.approx((d1 + d2) / 2.0)


def test_pos_distance_none_when_side_has_no_nouns():
    tagger = lexicon_noun_tagger(frozenset({"cat"}))
    assert pos_distance(tagger(["cat"]), tagger(["verb", "only"]),
                        WMD_TABLE) is None
    assert pos_distance(tagger(["verb"]), tagger(["cat"]), WMD_TABLE) is None
    # nouns outside the embedding vocabulary do not count either
    tagger2 = lexicon_noun_tagger(frozenset({"cat", "qqq"}))
    assert pos_distance(tagger2(["qqq"]), tagger2(["cat"]), WMD_TABLE) is None


def test_pos_distance_unknown_aggregate():
    tagger = lexicon_noun_tagger(frozenset({"cat"}))
    with pytest.raises(ValueError, match="aggregate"):
        pos_distance(tagger(["cat"]), tagger(["cat"]), WMD_TABLE,
                     aggregate="median")
    # checked before the nouns: a side without nouns does not hide it
    with pytest.raises(ValueError, match="aggregate"):
        pos_distance(tagger(["verb"]), tagger(["cat"]), WMD_TABLE,
                     aggregate="median")


def test_pos_distance_accepts_every_report_aggregate():
    from labelsim.correlate import POS_AGGREGATES
    tagger = lexicon_noun_tagger(frozenset({"cat", "dog", "tree"}))
    for aggregate in POS_AGGREGATES:
        got = pos_distance(tagger(["cat", "dog"]), tagger(["tree"]),
                           WMD_TABLE, aggregate=aggregate)
        assert got is not None and got > 0.0


# ------------------------------------------------- per-pair artifact IO


def test_load_sentence_embeddings(tmp_path):
    p = tmp_path / "sent.csv"
    p.write_text("pair_id,side,vector\np1,a,1.0 2.0\np1,b,3.0 4.0\n")
    got = load_sentence_embeddings(p)
    assert set(got) == {"p1"}
    assert got["p1"]["a"].tolist() == [1.0, 2.0]
    assert got["p1"]["b"].tolist() == [3.0, 4.0]


def test_load_sentence_embeddings_errors(tmp_path):
    def attempt(body):
        p = tmp_path / "sent.csv"
        p.write_text(body)
        return p

    with pytest.raises(ValueError, match="pair_id,side,vector"):
        load_sentence_embeddings(attempt("pair_id,vec\np1,1.0\n"))
    with pytest.raises(ValueError, match="side must be a or b"):
        load_sentence_embeddings(
            attempt("pair_id,side,vector\np1,c,1.0\n"))
    with pytest.raises(ValueError, match="non-numeric"):
        load_sentence_embeddings(
            attempt("pair_id,side,vector\np1,a,one two\n"))
    with pytest.raises(ValueError, match="no vector components"):
        load_sentence_embeddings(
            attempt("pair_id,side,vector\np1,a,\n"))
    with pytest.raises(ValueError, match="expected 2 components"):
        load_sentence_embeddings(
            attempt("pair_id,side,vector\np1,a,1 2\np1,b,1 2 3\n"))
    with pytest.raises(ValueError, match="duplicate side"):
        load_sentence_embeddings(
            attempt("pair_id,side,vector\np1,a,1 2\np1,a,3 4\n"))


def test_load_sentence_embeddings_rejects_non_finite(tmp_path):
    path = tmp_path / "sent.csv"
    path.write_text("pair_id,side,vector\np1,a,1 2\np1,b,3 inf\n")
    with pytest.raises(ValueError, match=r"sent\.csv row 3: non-finite"):
        load_sentence_embeddings(path)


def test_load_gold_tags(tmp_path):
    p = tmp_path / "tags.csv"
    p.write_text("pair_id,side,token_index,tag\n"
                 "p1,a,0,DT\np1,a,1,NN\np1,b,0,NN\n")
    got = load_gold_tags(p)
    assert got[("p1", "a")] == {0: "DT", 1: "NN"}
    assert got[("p1", "b")] == {0: "NN"}


def test_load_gold_tags_errors(tmp_path):
    def attempt(body):
        p = tmp_path / "tags.csv"
        p.write_text(body)
        return p

    with pytest.raises(ValueError, match="expected columns"):
        load_gold_tags(attempt("pair_id,side,tag\np1,a,NN\n"))
    with pytest.raises(ValueError, match="side must be a or b"):
        load_gold_tags(
            attempt("pair_id,side,token_index,tag\np1,x,0,NN\n"))
    with pytest.raises(CorpusError) as exc:
        load_gold_tags(
            attempt("pair_id,side,token_index,tag\np1,a,first,NN\n"))
    assert str(exc.value) == \
        f"{tmp_path / 'tags.csv'} row 2: expected an integer, got 'first'"
    with pytest.raises(ValueError, match="row 2: negative token_index -1"):
        load_gold_tags(
            attempt("pair_id,side,token_index,tag\np1,a,-1,NN\n"))
    with pytest.raises(ValueError, match="duplicate token_index"):
        load_gold_tags(
            attempt("pair_id,side,token_index,tag\np1,a,0,NN\np1,a,0,DT\n"))



def one_pair_corpus():
    # side a tokenizes to 3 tokens, side b to 2
    return make_corpus([("p1", "the red car", "a car")], [("p1", "x", 3)])


def test_load_sentence_embeddings_checks_corpus_pairs(tmp_path):
    p = tmp_path / "sent.csv"
    p.write_text("pair_id,side,vector\nzz,a,1 2\nzz,b,3 4\n")
    with pytest.raises(CorpusError) as exc:
        load_sentence_embeddings(p, one_pair_corpus())
    assert str(exc.value) == f"{p} row 2: unknown pair 'zz'"
    # without a corpus the same file is accepted
    assert set(load_sentence_embeddings(p)) == {"zz"}


def test_load_gold_tags_checks_corpus(tmp_path):
    corpus = one_pair_corpus()
    p = tmp_path / "tags.csv"
    p.write_text("pair_id,side,token_index,tag\n"
                 "p1,a,2,NN\np1,b,1,NN\np1,a,0,DT\n")
    assert load_gold_tags(p, corpus) == {("p1", "a"): {2: "NN", 0: "DT"},
                                         ("p1", "b"): {1: "NN"}}
    p.write_text("pair_id,side,token_index,tag\np1,a,0,DT\nzz,a,0,NN\n")
    with pytest.raises(CorpusError) as exc:
        load_gold_tags(p, corpus)
    assert str(exc.value) == f"{p} row 3: unknown pair 'zz'"
    assert set(load_gold_tags(p)) == {("p1", "a"), ("zz", "a")}
    p.write_text("pair_id,side,token_index,tag\np1,a,2,NN\np1,b,2,NN\n")
    with pytest.raises(CorpusError) as exc:
        load_gold_tags(p, corpus)
    assert str(exc.value) == (f"{p} row 3: token_index 2 out of range; "
                              "side b of 'p1' has 2 tokens")


def test_load_gold_tags_reads_each_pairs_own_text_out_of_id_order(tmp_path):
    # listed in reverse id order, so a pair's place in the corpus is not
    # its index among the sorted ids; p2's side a has 4 tokens, p1's 2
    corpus = make_corpus([("p2", "one two three four", "x y"),
                          ("p1", "one two", "x y")], [("p1", "w", 3)])
    p = tmp_path / "tags.csv"
    p.write_text("pair_id,side,token_index,tag\np2,a,3,NN\np1,a,1,NN\n")
    assert load_gold_tags(p, corpus) == {("p2", "a"): {3: "NN"},
                                         ("p1", "a"): {1: "NN"}}
    p.write_text("pair_id,side,token_index,tag\np2,a,3,NN\np1,a,3,NN\n")
    with pytest.raises(CorpusError) as exc:
        load_gold_tags(p, corpus)
    assert str(exc.value) == (f"{p} row 3: token_index 3 out of range; "
                              "side a of 'p1' has 2 tokens")

