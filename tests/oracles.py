"""Slow reference implementations that the package must agree with.

Everything here favors obviousness over speed: explicit loops, exhaustive
enumeration, permutation search.  Test modules import these to cross-check
the real code; nothing in src/ may import from here.
"""

import itertools
import math
import re
from numbers import Integral

from labelsim import textmetrics
from labelsim.textmetrics import (LEXICAL_SCORERS, light_stem,
                                  score_lexical_block)


# ---------------------------------------------------------------------------
# one-pair calls of the package's block scorers


def bleu(candidate, reference, max_n=4, smoothing="add_one"):
    """Sentence BLEU of one pair, by the package's own count
    (``textmetrics._token_matches``) and per-pair step
    (``textmetrics._bleu_value``); ``smoothing`` is "none" or "add_one"."""
    if max_n < 1:
        raise ValueError("BLEU max_n must be >= 1")
    if smoothing not in ("none", "add_one"):
        raise ValueError(f"unknown BLEU smoothing {smoothing!r}")
    textmetrics.require_tokens([candidate], [reference],
                               sides=("candidate", "reference"))
    found = textmetrics._token_matches([candidate], [reference], max_n)[0]
    return textmetrics._bleu_value(found, len(candidate), len(reference),
                                   max_n, smoothing)


def chrf(text_a, text_b, max_n=6):
    """chrF of one pair: ``textmetrics.chrf_block`` of a one-pair block."""
    return textmetrics.chrf_block([text_a], [text_b], max_n=max_n)[0]


def rouge_n(a, b, n):
    """ROUGE-N of one pair, by the package's own count and per-pair step
    (``textmetrics._rouge_score``); recall is taken against ``a``."""
    if n < 1:
        raise ValueError("n-gram order must be >= 1")
    textmetrics.require_tokens([a], [b], sides=("a", "b"))
    return textmetrics._rouge_score(
        a, b, textmetrics._token_matches([a], [b], n)[0], n)


# ---------------------------------------------------------------------------
# tokenizer


def tokenize_oracle(text):
    """Maximal runs of word characters and apostrophes, each stripped of
    its outer apostrophes; the runs left empty are dropped."""
    tokens = []
    for raw in re.findall(r"[\w']+", text.lower()):
        tok = raw.strip("'")
        if tok:
            tokens.append(tok)
    return tuple(tokens)


# ---------------------------------------------------------------------------
# n-gram bookkeeping


def gram_counts(seq, n):
    """Count n-grams of ``seq`` (any sliceable sequence) the long way."""
    counts = {}
    for start in range(len(seq) - n + 1):
        gram = tuple(seq[start:start + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def clipped_overlap(seq_a, seq_b, n):
    """Total n-gram matches with counts clipped to the smaller side."""
    counts_a = gram_counts(seq_a, n)
    counts_b = gram_counts(seq_b, n)
    total = 0
    for gram, count in counts_b.items():
        total += min(count, counts_a.get(gram, 0))
    return total


# ---------------------------------------------------------------------------
# lexical metrics


def jaccard_oracle(tokens_a, tokens_b):
    types_a = set(tokens_a)
    types_b = set(tokens_b)
    return len(types_a & types_b) / len(types_a | types_b)


def bleu_oracle(candidate, reference, max_n=4, smoothing="add_one"):
    orders = min(max_n, len(candidate), len(reference))
    log_sum = 0.0
    for n in range(1, orders + 1):
        matches = clipped_overlap(reference, candidate, n)
        total = len(candidate) - n + 1
        if smoothing == "add_one" and n >= 2:
            matches += 1
            total += 1
        if matches == 0:
            return 0.0
        log_sum += math.log(matches / total)
    precision_mean = math.exp(log_sum / orders)
    if len(candidate) < len(reference):
        precision_mean *= math.exp(1.0 - len(reference) / len(candidate))
    return precision_mean


def counter_bleu(candidate, reference, max_n=4, smoothing="add_one"):
    """Sentence BLEU one pair at a time on Counter n-gram multisets: the
    package's former ``bleu``, value only."""
    from collections import Counter

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n])
                       for i in range(len(tokens) - n + 1))

    effective_n = min(max_n, len(candidate), len(reference))
    log_sum = 0.0
    for n in range(1, effective_n + 1):
        cand_counts = ngrams(candidate, n)
        ref_counts = ngrams(reference, n)
        matches = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        total = sum(cand_counts.values())
        if smoothing == "add_one" and n >= 2:
            precision = (matches + 1) / (total + 1)
        else:
            if matches == 0:
                return 0.0
            precision = matches / total
        log_sum += math.log(precision)
    geo_mean = math.exp(log_sum / effective_n)
    if len(candidate) < len(reference):
        bp = math.exp(1.0 - len(reference) / len(candidate))
    else:
        bp = 1.0
    return bp * geo_mean


def _chrf_stream(text):
    return "".join(text.lower().split())


def chrf_oracle(text_a, text_b, max_n=6, beta=2.0):
    stream_a = _chrf_stream(text_a)
    stream_b = _chrf_stream(text_b)
    p_values, r_values = [], []
    for n in range(1, max_n + 1):
        total_a = max(len(stream_a) - n + 1, 0)
        total_b = max(len(stream_b) - n + 1, 0)
        if total_a == 0 and total_b == 0:
            continue
        matches = clipped_overlap(stream_a, stream_b, n)
        p_values.append(matches / total_b if total_b else 0.0)
        r_values.append(matches / total_a if total_a else 0.0)
    p = sum(p_values) / len(p_values)
    r = sum(r_values) / len(r_values)

    def f_beta(prec, rec):
        denom = beta * beta * prec + rec
        return (1 + beta * beta) * prec * rec / denom if denom else 0.0

    return (f_beta(p, r) + f_beta(r, p)) / 2.0


def rouge_n_oracle(tokens_a, tokens_b, n):
    total_a = max(len(tokens_a) - n + 1, 0)
    total_b = max(len(tokens_b) - n + 1, 0)
    if total_a == 0 or total_b == 0:
        return 0.0
    matches = clipped_overlap(tokens_a, tokens_b, n)
    precision = matches / total_b
    recall = matches / total_a
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(any(tok == h for h in it) for tok in needle)


def lcs_oracle(tokens_a, tokens_b):
    """Longest common subsequence length by exhaustive enumeration.

    Exponential in the shorter sequence; keep inputs under ~14 tokens.
    """
    short, long_ = (tokens_a, tokens_b) if len(tokens_a) <= len(tokens_b) \
        else (tokens_b, tokens_a)
    best = 0
    for size in range(len(short), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(short, size):
            if is_subsequence(combo, long_):
                best = size
                break
    return best


def lcs_dp_oracle(tokens_a, tokens_b):
    """Longest common subsequence length by the row-by-row dynamic
    program: ``L[i][j]`` is the LCS of the first ``i`` tokens of ``a``
    and the first ``j`` of ``b``.  Quadratic, so fit for long inputs."""
    prev = [0] * (len(tokens_b) + 1)
    for tok_a in tokens_a:
        cur = [0]
        for j, tok_b in enumerate(tokens_b, start=1):
            if tok_a == tok_b:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l_oracle(tokens_a, tokens_b):
    lcs = lcs_oracle(tokens_a, tokens_b)
    if lcs == 0:
        return 0.0
    precision = lcs / len(tokens_b)
    recall = lcs / len(tokens_a)
    return 2 * precision * recall / (precision + recall)


def align_oracle(tokens_a, tokens_b):
    """METEOR's two-stage greedy alignment by plain scans: each stage
    walks ``b`` left to right and scans ``a`` for the earliest untaken
    match, exact tokens first, then equal stems.  Returns ``(i, j)``
    pairs in the order they were made.

    The stemming rules are shared with the implementation (they are an
    arbitrary fixed choice, not a derived quantity).
    """
    taken = [False] * len(tokens_a)
    pairs = []
    for stage in ("exact", "stem"):
        for j, tok_b in enumerate(tokens_b):
            if any(jj == j for _, jj in pairs):
                continue
            for i, tok_a in enumerate(tokens_a):
                if taken[i]:
                    continue
                if stage == "exact":
                    hit = tok_a == tok_b
                else:
                    hit = light_stem(tok_a) == light_stem(tok_b)
                if hit:
                    taken[i] = True
                    pairs.append((i, j))
                    break
    return pairs


def meteor_oracle(tokens_a, tokens_b, alpha=0.9, gamma=0.5, chunk_exp=3.0):
    """Recompute the alignment (``align_oracle``) and scoring from
    scratch; the chunking and scoring are re-derived independently."""
    pairs = align_oracle(tokens_a, tokens_b)
    if not pairs:
        return 0.0
    matches = len(pairs)
    precision = matches / len(tokens_b)
    recall = matches / len(tokens_a)
    f_mean = precision * recall / (alpha * precision + (1 - alpha) * recall)
    pairs.sort(key=lambda ij: ij[1])
    chunks = 1
    for (i_prev, j_prev), (i_cur, j_cur) in zip(pairs, pairs[1:]):
        if not (i_cur == i_prev + 1 and j_cur == j_prev + 1):
            chunks += 1
    penalty = gamma * (chunks / matches) ** chunk_exp if chunks > 1 else 0.0
    return f_mean * (1.0 - penalty)


def score_pair_lexical(text_a, text_b, overlap_mode="jaccard"):
    """All lexical metrics for one sentence pair, keyed by metric name: the
    one-pair call of ``score_lexical_block``."""
    return {name: column[0] for name, column in score_lexical_block(
        list(LEXICAL_SCORERS), [text_a], [text_b],
        overlap_mode=overlap_mode).items()}


# ---------------------------------------------------------------------------
# statistics


def mean_oracle(values):
    return sum(values) / len(values)


def pvariance_oracle(values):
    mu = mean_oracle(values)
    return sum((v - mu) ** 2 for v in values) / len(values)


def population_variance(values):
    """Population (denominator n) variance of a non-empty sequence.

    Integer input (labels) is computed exactly as
    ``(n * sum(l**2) - sum(l)**2) / n**2`` and rounded once, as the
    package's ``stats.variance_from_sums`` does, so a variance that is
    exactly a threshold compares as that threshold; other input uses the
    two-pass float formula.
    """
    from labelsim.stats import variance_from_sums

    if not values:
        raise ValueError("variance of an empty sequence is undefined")
    n = len(values)
    if all(isinstance(v, Integral) for v in values):
        ints = [int(v) for v in values]
        return variance_from_sums(n, sum(ints), sum(v * v for v in ints))
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / n


def pearson_oracle(xs, ys):
    mx, my = mean_oracle(xs), mean_oracle(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs)) \
        * math.sqrt(sum((y - my) ** 2 for y in ys))
    return num / den


def rank_oracle(values):
    ranks = [0.0] * len(values)
    for distinct in sorted(set(values)):
        positions = [i for i, v in enumerate(values) if v == distinct]
        low = sum(1 for v in values if v < distinct) + 1
        avg = low + (len(positions) - 1) / 2.0
        for i in positions:
            ranks[i] = avg
    return ranks


def spearman_oracle(xs, ys):
    return pearson_oracle(rank_oracle(xs), rank_oracle(ys))


# ---------------------------------------------------------------------------
# optimal transport / assignment


def uniform_transport_oracle(cost_rows):
    """Minimal mean cost over permutation couplings (uniform marginals)."""
    n = len(cost_rows)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost_rows[i][perm[i]] for i in range(n))
        best = min(best, total / n)
    return best


def assignment_oracle(cost_rows):
    """Min-sum rectangular assignment by brute force (rows <= columns)."""
    n_rows = len(cost_rows)
    n_cols = len(cost_rows[0])
    best = math.inf
    for perm in itertools.permutations(range(n_cols), n_rows):
        total = sum(cost_rows[i][perm[i]] for i in range(n_rows))
        best = min(best, total)
    return best


def linprog_transport_oracle(a, b, cost_rows):
    """Exact transport optimum via scipy's LP solver (test-only route)."""
    from scipy.optimize import linprog

    n, m = len(a), len(b)
    costs = [cost_rows[i][j] for i in range(n) for j in range(m)]
    a_eq = []
    for i in range(n):
        row = [0.0] * (n * m)
        for j in range(m):
            row[i * m + j] = 1.0
        a_eq.append(row)
    for j in range(m):
        row = [0.0] * (n * m)
        for i in range(n):
            row[i * m + j] = 1.0
        a_eq.append(row)
    result = linprog(costs, A_eq=a_eq, b_eq=list(a) + list(b),
                     bounds=[(0, None)] * (n * m), method="highs")
    assert result.success, result.message
    return result.fun


def residual_min_mean_cycle(plan, cost_rows):
    """Optimality certificate for a feasible transport plan.

    The residual graph has a node per row (0..n-1) and per column
    (n..n+m-1), an edge ``i -> n+j`` of cost ``C[i][j]`` for every cell
    (its flow can grow), and an edge ``n+j -> i`` of cost ``-C[i][j]``
    wherever ``plan[i][j] > 0`` (its flow can shrink).  The plan is
    optimal exactly when no cycle of this graph has negative cost, and
    within ``eps`` of optimal, in the sense of every reduced cost being
    at least ``-eps``, exactly when no cycle has a mean cost per edge
    below ``-eps``.  Returns the minimum mean cycle cost by Karp's
    algorithm (``math.inf`` if the graph has no cycle).  Karp's table
    holds shortest walks of at most n + m edges, so unlike Floyd-Warshall
    it does not compound a slightly negative cycle into a large one.
    """
    n, m = len(cost_rows), len(cost_rows[0])
    size = n + m
    edges = []
    for i in range(n):
        for j in range(m):
            c = float(cost_rows[i][j])
            edges.append((i, n + j, c))
            if plan[i][j] > 0:
                edges.append((n + j, i, -c))
    # walks[k][v]: cheapest walk of exactly k edges ending at v, from any start
    walks = [[0.0] * size]
    for _ in range(size):
        prev = walks[-1]
        cur = [math.inf] * size
        for x, y, c in edges:
            if prev[x] + c < cur[y]:
                cur[y] = prev[x] + c
        walks.append(cur)
    best = math.inf
    for v in range(size):
        if walks[size][v] == math.inf:
            continue
        best = min(best, max((walks[size][v] - walks[k][v]) / (size - k)
                             for k in range(size)
                             if walks[k][v] < math.inf))
    return best


def matching_min_mean_cycle(dists, rows, cols):
    """``residual_min_mean_cycle`` of a one-to-one matching, posed as the
    unit-mass transport problem whose smaller side is padded by one
    zero-cost dummy node that takes every unmatched node."""
    import numpy as np

    n, m = dists.shape
    costs = np.zeros((n + (n < m), m + (m < n)))
    costs[:n, :m] = dists
    plan = np.zeros_like(costs)
    plan[rows, cols] = 1.0
    if n < m:
        plan[n, sorted(set(range(m)) - set(cols.tolist()))] = 1.0
    elif n > m:
        plan[sorted(set(range(n)) - set(rows.tolist())), m] = 1.0
    return residual_min_mean_cycle(plan, costs)


# ---------------------------------------------------------------------------
# correlation reports


def loop_ranks(values):
    """Average ranks by walking the tie runs of a stable sort, one by one."""
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def correlation_report_oracle(corpus, metric_scores, metrics, subsets, reports,
                              annotator_ids=None, per_annotation=False):
    """Baseline cells and per-subset rows of a correlation report, the long
    way: each subset's removed annotators from a loop over ``reports``, a
    keep set of the panel minus them, a dict join on sorted pair ids, and
    loop ranks.

    Returns ``(baseline, rows)`` with ``rows`` a list of
    ``(removed_annotators, cells, pct)`` in subset order, ``pct`` holding
    each metric's (Pearson, Spearman) percent changes.  Pearson
    itself is the package's, so every value must agree bit for bit.
    """
    from labelsim.correlate import MetricCorrelation, pearson, percent_change

    def gold_observations(keep):
        labels = {}
        for ann in corpus.annotations:
            if ann.annotator_id not in keep:
                continue
            labels.setdefault(ann.pair_id, []).append(float(ann.label))
        if per_annotation:
            return labels
        return {pid: [sum(vals) / len(vals)] for pid, vals in labels.items()}

    def cells(gold):
        out = {}
        for name in metrics:
            defined = metric_scores[name]
            joined = sorted(pid for pid in defined if pid in gold)
            xs, ys = [], []
            for pid in joined:
                for obs in gold[pid]:
                    xs.append(defined[pid])
                    ys.append(obs)
            out[name] = MetricCorrelation(
                pearson=pearson(xs, ys),
                spearman=pearson(loop_ranks(xs), loop_ranks(ys)),
                n_pairs=len(joined))
        return out

    def pct_or_none(value, base):
        # a percent change from a baseline of exactly 0 is undefined
        return None if base == 0.0 else percent_change(value, base)

    panel = set(annotator_ids) if annotator_ids is not None \
        else {ann.annotator_id for ann in corpus.annotations}
    baseline = cells(gold_observations(panel))
    rows = []
    for subset in subsets:
        removed = set()
        for aid, report in reports.items():
            if any(h in report.flags for h in subset):
                removed.add(aid)
        got = cells(gold_observations(panel - removed))
        pct = {name: (pct_or_none(got[name].pearson, baseline[name].pearson),
                      pct_or_none(got[name].spearman,
                                  baseline[name].spearman))
               for name in metrics}
        rows.append((tuple(sorted(removed)), got, pct))
    return baseline, rows


# ---------------------------------------------------------------------------
# word mover's distance from the northwest-corner start


def northwest_corner_start(a, b, C):
    """The exact solver's former initial basis: walk from the top-left cell,
    moving down when the row is used up (or the column is the last one)
    and right otherwise, for ``n + m - 1`` cells."""
    import numpy as np

    n, m = C.shape
    flow = np.zeros((n, m))
    basis = []
    rem_a = a.copy()
    rem_b = b.copy()
    i = j = 0
    for _ in range(n + m - 1):
        basis.append((i, j))
        q = min(rem_a[i], rem_b[j])
        flow[i, j] = q
        rem_a[i] -= q
        rem_b[j] -= q
        if i == n - 1:
            j += 1
        elif j == m - 1:
            i += 1
        elif rem_a[i] <= rem_b[j]:
            i += 1
        else:
            j += 1
    return flow, basis


def nbow_oracle(tokens, table):
    """Normalized bag-of-words over the in-vocabulary token types.

    Returns ``(types, weights, vectors)``: the sorted types, each type's
    count over the in-vocabulary token total, and one embedding row per
    type.
    """
    from collections import Counter

    import numpy as np

    counts = Counter(t for t in tokens if t in table)
    total = sum(counts.values())
    types = sorted(counts)
    weights = np.array([counts[t] / total for t in types])
    return types, weights, np.array([table[t] for t in types])


def northwest_corner_wmd(tokens_a, tokens_b, table):
    """WMD from the northwest-corner start and the package's pivot loop.

    Returns ``(cost, pivots)``.
    """
    from scipy.spatial.distance import cdist

    from labelsim.embmetrics import _simplex_pivots

    _, wa, va = nbow_oracle(tokens_a, table)
    _, wb, vb = nbow_oracle(tokens_b, table)
    C = cdist(va, vb)
    flow, pivots = _simplex_pivots(C, *northwest_corner_start(wa, wb, C))
    return float((flow * C).sum()), pivots


def wmd_residual_problem(tokens_a, tokens_b, table):
    """The transport problem ``wmd`` solves, built with plain loops.

    Each bag weighs a word type by its count over the bag's size; a type
    in both bags loses the smaller of its two weights on both sides, and
    the types left with no weight are dropped.  The costs are Euclidean
    distances, the squares added one dimension at a time.  Returns
    ``(source_weights, target_weights, costs)`` as arrays, or None when
    no mass is left to move.
    """
    import numpy as np

    def bag(tokens):
        counts = {}
        for tok in tokens:
            if tok in table:
                counts[tok] = counts.get(tok, 0) + 1
        total = sum(counts.values())
        return {tok: count / total for tok, count in counts.items()}

    bag_a, bag_b = bag(tokens_a), bag(tokens_b)
    for tok in bag_a:
        if tok in bag_b:
            shared = min(bag_a[tok], bag_b[tok])
            bag_a[tok] -= shared
            bag_b[tok] -= shared
    left_a = sorted(tok for tok, w in bag_a.items() if w > 0.0)
    left_b = sorted(tok for tok, w in bag_b.items() if w > 0.0)
    if not left_a and not left_b:
        return None
    costs = []
    for ta in left_a:
        row = []
        for tb in left_b:
            total = 0.0
            for x, y in zip(table[ta].tolist(),
                            table[tb].tolist()):
                total += (x - y) * (x - y)
            row.append(math.sqrt(total))
        costs.append(row)
    return (np.array([bag_a[t] for t in left_a]),
            np.array([bag_b[t] for t in left_b]),
            np.array(costs).reshape(len(left_a), len(left_b)))


# ---------------------------------------------------------------------------
# the transport simplex that rebuilds its tree on every pivot


def rebuild_tree_pivots(C, flow, basis):
    """The pivot loop as it was before the spanning tree was kept between
    pivots: every pivot rebuilds the adjacency lists, walks the whole tree
    for the potentials and finds the cycle by a breadth-first search.
    Same signature and result as ``embmetrics._simplex_pivots``; it reads
    ``STALL_PIVOTS_PER_NODE`` from that module at call time."""
    from collections import deque

    import numpy as np

    from labelsim import embmetrics

    n, m = C.shape
    scale = max(1.0, float(C.max()))
    opt_tol = 1e-11 * scale

    max_pivots = 1000 + 40 * (n + m) * (n + m)
    stall_limit = embmetrics.STALL_PIVOTS_PER_NODE * (n + m)
    stalled = 0
    use_bland = False

    for pivot_count in range(max_pivots):
        adj = [[] for _ in range(n + m)]
        for (bi, bj) in basis:
            adj[bi].append(n + bj)
            adj[n + bj].append(bi)

        u = np.zeros(n)
        v = np.zeros(m)
        seen = [False] * (n + m)
        seen[0] = True
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if seen[nxt]:
                    continue
                seen[nxt] = True
                if node < n:
                    v[nxt - n] = C[node, nxt - n] - u[node]
                else:
                    u[nxt] = C[nxt, node - n] - v[node - n]
                stack.append(nxt)

        reduced = C - u[:, None] - v[None, :]
        for (bi, bj) in basis:
            reduced[bi, bj] = np.inf

        if use_bland:
            candidates = np.argwhere(reduced < -opt_tol)
            if candidates.size == 0:
                return flow, pivot_count
            enter_i, enter_j = (int(candidates[0][0]), int(candidates[0][1]))
        else:
            flat = int(np.argmin(reduced))
            enter_i, enter_j = divmod(flat, m)
            if reduced[enter_i, enter_j] >= -opt_tol:
                return flow, pivot_count

        parent = {enter_i: -1}
        queue = deque([enter_i])
        target = n + enter_j
        while queue:
            node = queue.popleft()
            if node == target:
                break
            for nxt in adj[node]:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        path = [target]
        while path[-1] != enter_i:
            path.append(parent[path[-1]])

        cycle = [(enter_i, enter_j, 1)]
        sign = -1
        for x, y in zip(path, path[1:]):
            if x >= n:
                cycle.append((y, x - n, sign))
            else:
                cycle.append((x, y - n, sign))
            sign = -sign

        minus_cells = [(ci, cj) for ci, cj, s in cycle if s < 0]
        theta = min(flow[ci, cj] for ci, cj in minus_cells)
        leaving = min((ci, cj) for ci, cj in minus_cells
                      if flow[ci, cj] <= theta)

        for ci, cj, s in cycle:
            flow[ci, cj] += s * theta
        basis.remove(leaving)
        basis.append((enter_i, enter_j))
        flow[leaving] = 0.0

        if theta <= 1e-15 * scale:
            stalled += 1
            if stalled > stall_limit:
                use_bland = True
        else:
            stalled = 0

    raise RuntimeError("transport simplex exceeded its pivot budget")


# ---------------------------------------------------------------------------
# corpus loading


def load_annotations_oracle(pairs, path):
    """The annotation rows of ``path`` as one ``Annotation`` object each,
    every row checked against ``pairs`` and the rows before it: the
    package's former row-object loader."""
    from pathlib import Path

    from labelsim.corpus import (ANNOTATION_FIELDS, VALID_LABELS, Annotation,
                                 CorpusError, _parse_float, _parse_int,
                                 _read_rows)
    path = Path(path)
    pair_ids = {p.pair_id for p in pairs}
    labeled = set()
    annotations = []
    for lineno, (pid, aid, label, duration) in _read_rows(
            path, ANNOTATION_FIELDS):
        a = Annotation(pair_id=str(pid).strip(),
                       annotator_id=str(aid).strip(),
                       label=_parse_int(label, path, lineno),
                       duration=_parse_float(duration, path, lineno))
        where = f"{path} row {lineno}"
        if a.pair_id not in pair_ids:
            raise CorpusError(f"{where}: annotation references unknown "
                              f"pair_id {a.pair_id!r}")
        if a.label not in VALID_LABELS:
            raise CorpusError(f"{where}: label {a.label!r} for pair "
                              f"{a.pair_id!r} outside 1-5")
        if a.duration < 0:
            raise CorpusError(f"{where}: negative duration {a.duration!r} "
                              f"for pair {a.pair_id!r}")
        if (a.pair_id, a.annotator_id) in labeled:
            raise CorpusError(f"{where}: annotator {a.annotator_id!r} "
                              f"labeled pair {a.pair_id!r} twice")
        labeled.add((a.pair_id, a.annotator_id))
        annotations.append(a)
    return tuple(annotations)


# ---------------------------------------------------------------------------
# per-annotator flags and profiles, one annotator at a time


def _annotations_by_annotator(corpus):
    out = {}
    for ann in corpus.annotations:
        out.setdefault(ann.annotator_id, []).append(ann)
    return out


def _annotations_by_pair(corpus):
    out = {}
    for ann in corpus.annotations:
        out.setdefault(ann.pair_id, []).append(ann)
    return out


def _annotations_of(corpus, annotator_id):
    anns = _annotations_by_annotator(corpus).get(annotator_id)
    if not anns:
        raise ValueError(f"annotator {annotator_id!r} has no annotations")
    return anns


def _mean_duration(anns):
    # an explicit loop: from Python 3.12 on, sum() of floats is compensated
    total = 0
    for a in anns:
        total += a.duration
    return total / len(anns)


def flag_slow(corpus, annotator_id, cfg):
    from labelsim.heuristics import FlagEvidence

    anns = _annotations_of(corpus, annotator_id)
    mean_duration = _mean_duration(anns)
    if mean_duration > cfg.slow_threshold:
        return FlagEvidence("mean_duration", mean_duration, cfg.slow_threshold)
    return None


def flag_low_variance(corpus, annotator_id, cfg):
    from labelsim.heuristics import FlagEvidence

    anns = _annotations_of(corpus, annotator_id)
    variance = population_variance([a.label for a in anns])
    if variance < cfg.low_variance_threshold:
        return FlagEvidence("label_variance", variance,
                            cfg.low_variance_threshold)
    return None


def flag_high_random(corpus, annotator_id):
    from labelsim.heuristics import FlagEvidence

    anns = _annotations_of(corpus, annotator_id)
    pairs_by_id = {p.pair_id: p for p in corpus.pairs}
    random_labels = []
    nonrandom_labels = []
    for a in anns:
        if pairs_by_id[a.pair_id].is_random:
            random_labels.append(a.label)
        else:
            nonrandom_labels.append(a.label)
    if not random_labels or not nonrandom_labels:
        return None
    mean_random = sum(random_labels) / len(random_labels)
    mean_nonrandom = sum(nonrandom_labels) / len(nonrandom_labels)
    if mean_random > mean_nonrandom:
        return FlagEvidence("mean_random_label", mean_random, mean_nonrandom)
    return None


def disagreement_rate(corpus, annotator_id):
    from labelsim.stats import reduce_label

    by_pair = _annotations_by_pair(corpus)
    anns = _annotations_of(corpus, annotator_id)
    considered = 0
    disagreed = 0
    for a in anns:
        others = [x for x in by_pair[a.pair_id]
                  if x.annotator_id != annotator_id]
        if len(others) != 2:
            continue
        reduced = [reduce_label(x.label) for x in others]
        if reduced[0] != reduced[1]:
            continue
        considered += 1
        if reduce_label(a.label) != reduced[0]:
            disagreed += 1
    if considered == 0:
        return None
    return disagreed / considered


def flag_disagreeable(corpus, annotator_id, cfg):
    from labelsim.heuristics import FlagEvidence

    rate = disagreement_rate(corpus, annotator_id)
    if rate is not None and rate > cfg.disagreement_threshold:
        return FlagEvidence("disagreement_rate", rate,
                            cfg.disagreement_threshold)
    return None


def sentiment_qualifying_pairs_loop(corpus, scorers, cfg):
    """Heuristic 5's qualifying pairs, scoring the overlap of every pair
    before looking at any sentiment gap."""
    from labelsim.textmetrics import EmptyText

    pairs = corpus.pairs
    try:
        overlaps = scorers.overlap([p.text_a for p in pairs],
                                   [p.text_b for p in pairs],
                                   cfg.overlap_bleu_order)
    except EmptyText as exc:
        raise exc.for_pair(pairs[exc.index].pair_id) from None
    qualifying = set()
    overrides = scorers.pair_sentiment or {}
    for pair, overlap in zip(pairs, overlaps, strict=True):
        if overlap <= cfg.overlap_threshold:
            continue
        if pair.pair_id in overrides:
            score_a, score_b = overrides[pair.pair_id]
        else:
            score_a = scorers.sentiment(pair.text_a)
            score_b = scorers.sentiment(pair.text_b)
        if abs(score_a - score_b) >= cfg.sentiment_gap_threshold:
            qualifying.add(pair.pair_id)
    return qualifying


def flag_sentiment_disaligned(corpus, annotator_id, cfg, qualifying):
    from labelsim.heuristics import FlagEvidence

    anns = _annotations_of(corpus, annotator_id)
    labels = [a.label for a in anns if a.pair_id in qualifying]
    if len(labels) < cfg.min_sentiment_pairs:
        return None
    variance = population_variance(labels)
    if variance > cfg.sentiment_variance_threshold:
        return FlagEvidence("sentiment_pair_label_variance", variance,
                            cfg.sentiment_variance_threshold)
    return None


def flag_reports(corpus, subset, cfg, qualifying=None):
    """Every annotator's FlagReport, heuristic by heuristic; heuristic 5
    reads the given qualifying pairs."""
    from labelsim.heuristics import FlagReport, HeuristicId

    reports = {}
    for annotator_id in sorted(_annotations_by_annotator(corpus)):
        evidence = {}
        for h in sorted(set(subset)):
            if h is HeuristicId.SLOW:
                ev = flag_slow(corpus, annotator_id, cfg)
            elif h is HeuristicId.LOW_VARIANCE:
                ev = flag_low_variance(corpus, annotator_id, cfg)
            elif h is HeuristicId.HIGH_RANDOM:
                ev = flag_high_random(corpus, annotator_id)
            elif h is HeuristicId.DISAGREEABLE:
                ev = flag_disagreeable(corpus, annotator_id, cfg)
            else:
                ev = flag_sentiment_disaligned(corpus, annotator_id, cfg,
                                               qualifying)
            if ev is not None:
                evidence[h] = ev
        reports[annotator_id] = FlagReport(annotator_id=annotator_id,
                                           evidence=evidence)
    return reports


def annotator_profile(corpus, annotator_id,
                      exclude_midpoint_from_variance=False):
    from labelsim.stats import (CENTRAL_LABELS, EXTREME_LABELS,
                                MIDPOINT_LABEL, AnnotatorProfile,
                                classify_style)

    anns = _annotations_of(corpus, annotator_id)
    labels = [a.label for a in anns]

    variance_labels = labels
    if exclude_midpoint_from_variance:
        non_mid = [l for l in labels if l != MIDPOINT_LABEL]
        variance_labels = non_mid or labels
    label_variance = population_variance(variance_labels)

    pairs_by_id = {p.pair_id: p for p in corpus.pairs}
    random_labels = []
    nonrandom_labels = []
    for a in anns:
        pair = pairs_by_id[a.pair_id]
        (random_labels if pair.is_random else nonrandom_labels).append(a.label)
    mean_random = sum(random_labels) / len(random_labels) if random_labels else None
    mean_nonrandom = (sum(nonrandom_labels) / len(nonrandom_labels)
                      if nonrandom_labels else None)

    off_mid = [l for l in labels if l != MIDPOINT_LABEL]
    if off_mid:
        extreme_share = sum(1 for l in off_mid if l in EXTREME_LABELS) / len(off_mid)
        central_share = sum(1 for l in off_mid if l in CENTRAL_LABELS) / len(off_mid)
    else:
        extreme_share = None
        central_share = None

    return AnnotatorProfile(
        annotator_id=annotator_id,
        n_labels=len(labels),
        mean_duration=_mean_duration(anns),
        label_variance=label_variance,
        mean_random=mean_random,
        mean_nonrandom=mean_nonrandom,
        extreme_share=extreme_share,
        central_share=central_share,
        disagreement_rate=disagreement_rate(corpus, annotator_id),
        style=classify_style(label_variance, extreme_share, central_share),
    )
