"""Embedding-backed similarity metrics and the optimal-transport solver.

The transport solver is written here from scratch because it is the
numerical core of the distance suite: the transportation simplex
(network simplex on the bipartite transport graph) from a least-cost
start, run to a provably optimal vertex.  Word mover's distance is
defined by that exact optimum; ``wmd`` solves it on the mass the two
bags do not share, which for a metric ground cost has the same optimum.
The one-to-one noun matching of ``pos_distance`` is an assignment
problem, solved by shortest augmenting paths (Jonker & Volgenant 1987).
The module needs numpy only.

An embedding table is a plain dict from a word to its vector
(:data:`EmbeddingTable` names that type); every vector has the length of
the first one loaded.  Every metric returns a plain float;
``l2_distance``, ``wmd`` and ``pos_distance`` are distances, which
``correlate`` negates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import (CorpusError, LabeledCorpus, _not_utf8, _parse_int,
                     _read_csv_rows, _row_pair)
from .textmetrics import TokenSeq, light_stem, tokenize

MARGINAL_TOL = 1e-9
# Degenerate pivots in a row, per node of the transport graph, after which
# the simplex picks entering cells by Bland's rule.
STALL_PIVOTS_PER_NODE = 4


# ---------------------------------------------------------------------------
# embedding tables


EmbeddingTable = dict[str, np.ndarray]


def load_embeddings(path, vocab_filter: Optional[set] = None) -> EmbeddingTable:
    """Read a text-format embedding file: ``word v1 v2 ... vd`` per line.

    A leading ``count dim`` header line is detected and skipped, and so
    is a UTF-8 byte-order mark at the very start of the file.  The
    dimension is fixed by the first vector line; any later mismatch is an
    error naming the line, and so is a line that is not UTF-8.  Duplicate
    words keep their first vector.  ``vocab_filter`` restricts loading to
    the given words.  Returns the word -> vector map.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    # lines end at "\n" alone, as _not_utf8 counts them
    with path.open(encoding="utf-8-sig", newline="\n") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if lineno == 1 and len(parts) == 2:
                    try:
                        int(parts[0]), int(parts[1])
                    except ValueError:
                        pass
                    else:
                        continue  # count/dim header
                word = parts[0]
                if vocab_filter is not None and word not in vocab_filter:
                    continue
                values = _parse_vector(parts[1:], f"{path} line {lineno}",
                                       dimension)
                dimension = values.size
                if word not in vectors:
                    vectors[word] = values
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    if dimension is None:
        raise CorpusError(f"{path}: no embedding vectors found")
    return vectors


def _parse_vector(fields: Sequence[str], where: str,
                  dimension: Optional[int]) -> np.ndarray:
    """One embedding vector from its whitespace-separated components.

    ``where`` (``"<file> line N"`` or ``"<file> row N"``) prefixes each
    error; a vector must match ``dimension`` once one is fixed.  Four
    times its squared norm must be finite: that bound keeps every squared
    distance and dot product between two such vectors, or their means,
    finite.
    """
    try:
        values = np.array([float(x) for x in fields], dtype=np.float64)
    except ValueError:
        raise CorpusError(f"{where}: non-numeric vector component") from None
    if values.size == 0:
        raise CorpusError(f"{where}: no vector components")
    if not np.isfinite(values).all():
        raise CorpusError(f"{where}: non-finite vector component")
    with np.errstate(over="ignore"):
        bounded = np.isfinite(4.0 * (values @ values))
    if not bounded:
        raise CorpusError(f"{where}: vector too large: its squared norm "
                          "overflows distance arithmetic")
    if dimension is not None and values.size != dimension:
        raise CorpusError(f"{where}: expected {dimension} components, "
                          f"got {values.size}")
    return values


def sentence_vector(tokens: TokenSeq, table: EmbeddingTable) -> np.ndarray:
    """Mean of the in-vocabulary token vectors; out-of-vocabulary tokens
    are skipped and an all-OOV sentence is an error."""
    rows = [table[t] for t in tokens if t in table]
    if not rows:
        raise ValueError("no representable tokens in sentence")
    return np.mean(rows, axis=0)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(u, v) / (nu * nv))


def l2_distance(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(u) - np.asarray(v)))


def _euclidean_costs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distance between every row of ``u`` and every row of ``v``.

    ``cumsum`` adds the squared differences one dimension at a time, left
    to right, as a plain loop over the dimensions would; ``sum`` and
    ``einsum`` add pairwise, which can move the last place.
    """
    d = u[:, None, :] - v[None, :, :]
    return np.sqrt(np.cumsum(d * d, axis=-1)[..., -1])


# ---------------------------------------------------------------------------
# optimal transport


@dataclass(frozen=True)
class TransportProblem:
    """Discrete OT instance: source weights, target weights, cost matrix."""

    source_weights: np.ndarray
    target_weights: np.ndarray
    costs: np.ndarray

    def validate(self) -> None:
        a = np.asarray(self.source_weights, dtype=np.float64)
        b = np.asarray(self.target_weights, dtype=np.float64)
        C = np.asarray(self.costs, dtype=np.float64)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if C.shape != (a.size, b.size):
            raise ValueError(
                f"cost matrix shape {C.shape} does not match weights "
                f"({a.size}, {b.size})")
        if not (np.isfinite(a).all() and np.isfinite(b).all()) \
                or (a < 0).any() or (b < 0).any():
            raise ValueError("weights must be finite and non-negative")
        if not np.isfinite(C).all() or (C < 0).any():
            raise ValueError("costs must be finite and non-negative")
        mass_a, mass_b = a.sum(), b.sum()
        if mass_a <= 0 or mass_b <= 0:
            raise ValueError("zero-mass transport problem")
        if abs(mass_a - mass_b) > MARGINAL_TOL:
            raise ValueError(
                f"weight sums differ by {abs(mass_a - mass_b):.3g} "
                f"(tolerance {MARGINAL_TOL})")


@dataclass(frozen=True)
class TransportResult:
    plan: np.ndarray
    cost: float
    iterations: int  # simplex pivots
    marginal_error: float


def solve_transport(problem: TransportProblem) -> TransportResult:
    """Solve the transport problem exactly with the transportation simplex.

    The plan is a provably optimal vertex of the transport polytope.
    """
    problem.validate()
    a = np.asarray(problem.source_weights, dtype=np.float64)
    b = np.asarray(problem.target_weights, dtype=np.float64)
    C = np.asarray(problem.costs, dtype=np.float64)
    plan, iterations = _simplex_pivots(C, *_least_cost_start(a, b, C))
    cost = float((plan * C).sum())
    marginal_error = max(
        float(np.abs(plan.sum(axis=1) - a).max()),
        float(np.abs(plan.sum(axis=0) - b).max()),
    )
    return TransportResult(plan=plan, cost=cost, iterations=iterations,
                           marginal_error=marginal_error)


def _least_cost_start(a: np.ndarray, b: np.ndarray, C: np.ndarray
                      ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Initial basic feasible plan by the least-cost (matrix-minimum) rule.

    Cells are taken in ascending cost order (stable, so ties go row-major)
    while their row and column are both open; each ships what it can and
    closes one line.  The last open row is never closed and, while more
    than one row is open, neither is the last open column, so exactly
    ``n + m - 1`` cells are taken even when rounding leaves the remaining
    masses a hair apart.  Closing one line per cell makes them a spanning
    tree of the transport graph, degenerate zero cells included.
    """
    n, m = C.shape
    flow = np.zeros((n, m))
    basis: list[tuple[int, int]] = []
    rem_a = a.tolist()
    rem_b = b.tolist()
    row_open = [True] * n
    col_open = [True] * m
    rows_left, cols_left = n, m
    rows, cols = np.divmod(np.argsort(C, axis=None, kind="stable"), m)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        basis.append((i, j))
        q = min(rem_a[i], rem_b[j])
        flow[i, j] = q
        rem_a[i] -= q
        rem_b[j] -= q
        if rows_left > 1 and (cols_left == 1 or rem_a[i] <= rem_b[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
        if len(basis) == n + m - 1:
            break
    return flow, basis


def _simplex_pivots(C: np.ndarray, flow: np.ndarray,
                    basis: list[tuple[int, int]]) -> tuple[np.ndarray, int]:
    """Pivot a basic feasible plan to optimality; returns it and the pivots.

    The basis is always a spanning tree of the bipartite transport graph
    (rows 0..n-1, columns n..n+m-1), kept between pivots as parent and
    depth arrays rooted at row 0.  The dual potentials follow the tree
    down from ``u[0] = 0``: ``v[j] = C[i][j] - u[i]`` below a row,
    ``u[i] = C[i][j] - v[j]`` below a column.  So each potential is an
    alternating sum along the node's unique path from the root, computed
    in the same order whatever walk reaches it, and a pivot, which
    changes the path of no node outside the subtree it cuts off and hangs
    back by the entering cell, needs new potentials for that subtree
    only.  The entering cell's cycle is its two ends' paths up to their
    common ancestor.  Entering cells are picked by most negative reduced
    cost, priced on a copy of ``C`` that holds +inf on the basic cells
    (a pivot updates it at the two cells it swaps); after
    ``STALL_PIVOTS_PER_NODE * (n + m)`` degenerate pivots in a row the
    rule drops to Bland's smallest-index selection, which cannot cycle.
    """
    n, m = C.shape
    scale = max(1.0, float(C.max()))
    opt_tol = 1e-11 * scale

    max_pivots = 1000 + 40 * (n + m) * (n + m)
    stall_limit = STALL_PIVOTS_PER_NODE * (n + m)
    stalled = 0
    use_bland = False

    cost = C.tolist()
    plan = flow.tolist()
    # C with +inf on the basic cells, which no pricing round may pick
    priced = C.copy()
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for (bi, bj) in basis:
        priced[bi, bj] = np.inf
        adj[bi].append(n + bj)
        adj[n + bj].append(bi)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    u = [0.0] * n
    v = [0.0] * m

    def hang(top: int) -> None:
        # Potentials, parents and depths of everything below ``top``.
        stack = [top]
        while stack:
            node = stack.pop()
            up = parent[node]
            below = depth[node] + 1
            if node < n:
                row, base = cost[node], u[node]
                for nxt in adj[node]:
                    if nxt != up:
                        parent[nxt] = node
                        depth[nxt] = below
                        v[nxt - n] = row[nxt - n] - base
                        stack.append(nxt)
            else:
                j, base = node - n, v[node - n]
                for nxt in adj[node]:
                    if nxt != up:
                        parent[nxt] = node
                        depth[nxt] = below
                        u[nxt] = cost[nxt][j] - base
                        stack.append(nxt)

    hang(0)
    # Reduced costs (C[i][j] - u[i]) - v[j], rebuilt in place each round;
    # the basic cells stay +inf.
    ucol = np.empty((n, 1))
    vrow = np.empty(m)
    reduced = np.empty((n, m))
    for pivot_count in range(max_pivots):
        ucol[:, 0] = u
        vrow[:] = v
        np.subtract(priced, ucol, out=reduced)
        reduced -= vrow

        if use_bland:
            candidates = np.argwhere(reduced < -opt_tol)
            if candidates.size == 0:
                return np.array(plan), pivot_count
            enter_i, enter_j = (int(candidates[0][0]), int(candidates[0][1]))
        else:
            flat = int(reduced.argmin())
            enter_i, enter_j = divmod(flat, m)
            if reduced[enter_i, enter_j] >= -opt_tol:
                return np.array(plan), pivot_count

        # The tree path from the entering column node to the entering row
        # node, through their common ancestor; each node on it stands for
        # the tree edge to its parent.  With the entering edge it forms
        # the cycle, whose signs alternate from + on the entering cell:
        # its even cells gain theta and its odd cells lose it.
        row_side: list[int] = []
        col_side: list[int] = []
        x, y = enter_i, n + enter_j
        while depth[x] > depth[y]:
            row_side.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            col_side.append(y)
            y = parent[y]
        while x != y:
            row_side.append(x)
            x = parent[x]
            col_side.append(y)
            y = parent[y]
        cycle = [(enter_i, enter_j)]
        for node in col_side + row_side[::-1]:
            cycle.append((parent[node], node - n) if node >= n
                         else (node, parent[node] - n))

        minus_cells = cycle[1::2]
        theta = min([plan[ci][cj] for ci, cj in minus_cells])
        leaving = min([(ci, cj) for ci, cj in minus_cells
                       if plan[ci][cj] <= theta])

        for ci, cj in cycle[::2]:
            plan[ci][cj] += theta
        for ci, cj in minus_cells:
            plan[ci][cj] -= theta
        leave_i, leave_j = leaving
        plan[leave_i][leave_j] = 0.0

        # Swap the leaving edge for the entering one.  The subtree below
        # the leaving edge holds exactly one end of the entering edge; it
        # hangs from the other end now.
        priced[leave_i, leave_j] = C[leave_i, leave_j]
        priced[enter_i, enter_j] = np.inf
        adj[leave_i].remove(n + leave_j)
        adj[n + leave_j].remove(leave_i)
        adj[enter_i].append(n + enter_j)
        adj[n + enter_j].append(enter_i)
        if cycle.index(leaving) <= len(col_side):
            top, above = n + enter_j, enter_i
            v[enter_j] = cost[enter_i][enter_j] - u[enter_i]
        else:
            top, above = enter_i, n + enter_j
            u[enter_i] = cost[enter_i][enter_j] - v[enter_j]
        parent[top] = above
        depth[top] = depth[above] + 1
        hang(top)

        if theta <= 1e-15 * scale:
            stalled += 1
            if stalled > stall_limit:
                use_bland = True
        else:
            stalled = 0

    raise RuntimeError("transport simplex exceeded its pivot budget")


# ---------------------------------------------------------------------------
# word mover's distance


def _bag(tokens: TokenSeq, table: EmbeddingTable
         ) -> tuple[list[str], list[float]]:
    """Normalized bag-of-words over in-vocabulary token types: the sorted
    types and their frequency-proportional weights, as Python floats.

    Each weight is its count over the token total, both exact integers,
    so the quotient rounds the same whether numpy or Python divides.
    """
    counts = Counter(t for t in tokens if t in table)
    if not counts:
        raise ValueError("no representable tokens in sentence")
    types = sorted(counts)
    total = sum(counts.values())
    return types, [counts[t] / total for t in types]


def _gather(words: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """The embedding vectors of ``words``, one row each."""
    return np.array([table[t] for t in words])


def wmd(a: TokenSeq, b: TokenSeq, table: EmbeddingTable) -> float:
    """Word mover's distance: minimal cost of moving one sentence's
    normalized bag-of-words onto the other's, with Euclidean ground costs,
    solved exactly.

    Only the mass the bags do not share is moved: each word type in both
    bags loses ``min(wa, wb)`` on both sides, and the types left with no
    mass are dropped.  The Euclidean cost is a metric, and for a metric
    cost the optimal transport cost W1(mu, nu) depends only on mu - nu
    (Kantorovich-Rubinstein duality), so the shared mass stays in place
    at zero cost and the residual problem has the same optimum.
    Identical bags cost 0.0 without a solve.
    """
    types_a, wa = _bag(a, table)
    types_b, wb = _bag(b, table)
    index_b = {t: j for j, t in enumerate(types_b)}
    for i, t in enumerate(types_a):
        j = index_b.get(t)
        if j is not None:
            shared = min(wa[i], wb[j])
            wa[i] -= shared
            wb[j] -= shared
    keep_a = [i for i, w in enumerate(wa) if w > 0.0]
    keep_b = [j for j, w in enumerate(wb) if w > 0.0]
    if not keep_a and not keep_b:
        return 0.0
    costs = _euclidean_costs(_gather([types_a[i] for i in keep_a], table),
                             _gather([types_b[j] for j in keep_b], table))
    return solve_transport(TransportProblem(
        np.array([wa[i] for i in keep_a]), np.array([wb[j] for j in keep_b]),
        costs)).cost


# ---------------------------------------------------------------------------
# noun-based distance


def load_noun_lexicon(path: Optional[Path] = None) -> frozenset:
    """Noun word list, one per line, '#' comments allowed; default bundled.

    A list with no word, or a line that is not UTF-8, raises
    :class:`CorpusError` naming the file (and the line).
    """
    if path is None:
        path = resources.files("labelsim.data").joinpath("nouns.txt")
    else:
        path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    nouns = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            nouns.add(word)
    if not nouns:
        raise CorpusError(f"{path}: noun lexicon is empty")
    return frozenset(nouns)


def lexicon_noun_tagger(nouns: Optional[frozenset] = None
                        ) -> Callable[[TokenSeq], list[str]]:
    """Tagger that keeps tokens found (directly or via stemming) in a noun list.

    Each token type is decided once per tagger: the answers are kept in a
    dict bounded by the vocabulary the tagger sees.
    """
    if nouns is None:
        nouns = load_noun_lexicon()
    is_noun: dict[str, bool] = {}

    def tagger(tokens: TokenSeq) -> list[str]:
        kept = []
        for t in tokens:
            noun = is_noun.get(t)
            if noun is None:
                noun = is_noun[t] = t in nouns or light_stem(t) in nouns
            if noun:
                kept.append(t)
        return kept

    return tagger


def nouns_from_tags(tokens: TokenSeq, tags: dict) -> list[str]:
    """Select noun tokens using gold tags: a map token_index -> POS tag."""
    out = []
    for idx in sorted(tags):
        tag = tags[idx].upper()
        if 0 <= idx < len(tokens) and (tag.startswith("NN") or tag == "NOUN"):
            out.append(tokens[idx])
    return out


def pos_distance(nouns_a: TokenSeq, nouns_b: TokenSeq,
                 table: EmbeddingTable,
                 aggregate: str = "matched") -> Optional[float]:
    """Mean embedding distance between two sentences' nouns, as a tagger
    or :func:`nouns_from_tags` selects them; nouns without a vector are
    skipped.

    With ``matched`` aggregation the nouns are paired one-to-one by a
    minimum-cost assignment over min(#nouns) pairs; ``all_pairs``
    averages the full cross-product instead.  Returns None when either
    side has no embeddable noun, so callers can drop the pair.
    """
    if aggregate not in ("matched", "all_pairs"):
        raise ValueError(f"unknown pos_distance aggregate {aggregate!r}")
    nouns_a = [t for t in nouns_a if t in table]
    nouns_b = [t for t in nouns_b if t in table]
    if not nouns_a or not nouns_b:
        return None
    dists = _euclidean_costs(_gather(nouns_a, table), _gather(nouns_b, table))
    if aggregate == "all_pairs":
        return float(dists.mean())
    rows, cols = _min_cost_matching(dists)
    return float(dists[rows, cols].mean())


def _min_cost_matching(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost one-to-one matching of min(n, m) rows and columns.

    Shortest augmenting paths (Jonker & Volgenant 1987), in the form
    without an initial matching: each row in turn is matched by a
    Dijkstra search over reduced costs ``C[i][j] - u[i] - v[j]``, after
    which the dual potentials of the rows and columns it reached are
    shifted so that every reduced cost stays non-negative and the matched
    cells' stay zero.  Columns are scanned, and ties broken towards a
    free column, in the order scipy's ``linear_sum_assignment`` uses, so
    tied matchings come out the same.  A taller matrix is solved
    transposed.  Returns the matched cells in row order; raises
    ``ValueError`` on a non-finite cost.
    """
    dists = np.asarray(dists, dtype=np.float64)
    if not np.isfinite(dists).all():
        raise ValueError("matching costs must be finite")
    transposed = dists.shape[0] > dists.shape[1]
    if transposed:
        dists = dists.T
    n, m = dists.shape
    cost = dists.tolist()
    u = [0.0] * n
    v = [0.0] * m
    col4row = [-1] * n
    row4col = [-1] * m
    inf = float("inf")
    for start in range(n):
        # Dijkstra from ``start`` until it reaches a free column.
        dist = [inf] * m
        path = [-1] * m
        row_seen = []
        col_seen = []
        remaining = list(range(m - 1, -1, -1))
        i, reached = start, 0.0
        while True:
            row_seen.append(i)
            row_cost = cost[i]
            u_i = u[i]
            best, best_at = inf, -1
            for at, j in enumerate(remaining):
                r = reached + row_cost[j] - u_i - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                if dist[j] < best or (dist[j] == best and row4col[j] == -1):
                    best, best_at = dist[j], at
            reached = best
            j = remaining[best_at]
            col_seen.append(j)
            remaining[best_at] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                sink = j
                break
            i = row4col[j]
        u[start] += reached
        for r in row_seen[1:]:
            u[r] += reached - dist[col4row[r]]
        for c in col_seen:
            v[c] -= reached - dist[c]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    rows = np.arange(n)
    cols = np.array(col4row, dtype=np.intp)
    if transposed:
        order = np.argsort(cols, kind="stable")
        rows, cols = cols[order], rows[order]
    return rows, cols


# ---------------------------------------------------------------------------
# external per-pair artifacts


def _parse_side(raw: str, where: str) -> str:
    side = raw.strip().lower()
    if side not in ("a", "b"):
        raise CorpusError(f"{where}: side must be a or b")
    return side


def load_sentence_embeddings(path,
                             corpus: Optional[LabeledCorpus] = None) -> dict:
    """Per-pair sentence vectors: CSV pair_id, side in {a, b}, then the
    vector as whitespace-separated floats.  Returns pair_id -> {side: vec}.
    When a corpus is given, every pair_id must exist in it."""
    path = Path(path)
    out: dict[str, dict[str, np.ndarray]] = {}
    dimension: Optional[int] = None
    for lineno, (pid, side, vector) in _read_csv_rows(
            path, ("pair_id", "side", "vector")):
        where = f"{path} row {lineno}"
        pid = _row_pair(pid, path, lineno, corpus)
        side = _parse_side(side, where)
        vec = _parse_vector(vector.split(), where, dimension)
        dimension = vec.size
        sides = out.setdefault(pid, {})
        if side in sides:
            raise CorpusError(f"{where}: duplicate side {side!r} for {pid!r}")
        sides[side] = vec
    return out


def load_gold_tags(path, corpus: Optional[LabeledCorpus] = None) -> dict:
    """Gold POS tags: CSV pair_id, side, token_index, tag.
    Returns (pair_id, side) -> {token_index: tag}.

    A token_index must not be negative.  When a corpus is given, every
    pair_id must exist in it and every token_index must fall inside the
    tokenized text of that side.
    """
    path = Path(path)
    out: dict[tuple[str, str], dict[int, str]] = {}
    n_tokens: dict[tuple[str, str], int] = {}
    for lineno, (pid, side, token_index, tag) in _read_csv_rows(
            path, ("pair_id", "side", "token_index", "tag")):
        where = f"{path} row {lineno}"
        pid = _row_pair(pid, path, lineno, corpus)
        side = _parse_side(side, where)
        idx = _parse_int(token_index, path, lineno)
        if idx < 0:
            raise CorpusError(f"{where}: negative token_index {idx}")
        key = (pid, side)
        if corpus is not None:
            if key not in n_tokens:
                pair = corpus.pairs[corpus.columns.pair_index[pid]]
                n_tokens[key] = len(tokenize(
                    pair.text_a if side == "a" else pair.text_b))
            if idx >= n_tokens[key]:
                raise CorpusError(
                    f"{where}: token_index {idx} out of range; side {side} "
                    f"of {pid!r} has {n_tokens[key]} tokens")
        tags = out.setdefault(key, {})
        if idx in tags:
            raise CorpusError(f"{where}: duplicate token_index {idx}")
        tags[idx] = tag.strip()
    return out
