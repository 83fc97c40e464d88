"""Embedding-backed similarity metrics and the optimal-transport solver.

The transport solver is written here from scratch because it is the
numerical core of the distance suite: the exact path runs the classic
transportation simplex (network simplex on the bipartite transport
graph) from a least-cost start.  Word mover's distance always uses it,
and so does the one-to-one noun matching of ``pos_distance``, posed as
a transport problem with unit masses.  A log-domain Sinkhorn iteration
is the entropic alternative, reachable only through
``solve_transport(method="sinkhorn")``: it is slower than the exact path
at every size measured (6 to 60 word types per side).  Sinkhorn plans
are rounded onto the transport polytope before costing, so the returned
cost is always the cost of a feasible plan and can never undercut the
exact optimum.  The module needs numpy only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import CorpusError, _read_csv_rows
from .textmetrics import MetricScore, TokenSeq, light_stem

MARGINAL_TOL = 1e-9
# Degenerate pivots in a row, per node of the transport graph, after which
# the simplex picks entering cells by Bland's rule.
STALL_PIVOTS_PER_NODE = 4


# ---------------------------------------------------------------------------
# embedding tables


@dataclass(frozen=True)
class EmbeddingTable:
    dimension: int
    vectors: dict  # word -> np.ndarray, all of length `dimension`


def load_embeddings(path, vocab_filter: Optional[set] = None) -> EmbeddingTable:
    """Read a text-format embedding file: ``word v1 v2 ... vd`` per line.

    A leading ``count dim`` header line is detected and skipped.  The
    dimension is fixed by the first vector line; any later mismatch is an
    error naming the line.  Duplicate words keep their first vector.
    ``vocab_filter`` restricts loading to the given words.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    with path.open(encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
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
    if dimension is None:
        raise CorpusError(f"{path}: no embedding vectors found")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def _parse_vector(fields: Sequence[str], where: str,
                  dimension: Optional[int]) -> np.ndarray:
    """One embedding vector from its whitespace-separated components.

    ``where`` (``"<file> line N"`` or ``"<file> row N"``) prefixes each
    error; a vector must match ``dimension`` once one is fixed.
    """
    try:
        values = np.array([float(x) for x in fields], dtype=np.float64)
    except ValueError:
        raise CorpusError(f"{where}: non-numeric vector component") from None
    if values.size == 0:
        raise CorpusError(f"{where}: no vector components")
    if not np.isfinite(values).all():
        raise CorpusError(f"{where}: non-finite vector component")
    if dimension is not None and values.size != dimension:
        raise CorpusError(f"{where}: expected {dimension} components, "
                          f"got {values.size}")
    return values


def sentence_vector(tokens: TokenSeq, table: EmbeddingTable) -> np.ndarray:
    """Mean of the in-vocabulary token vectors; out-of-vocabulary tokens
    are skipped and an all-OOV sentence is an error."""
    rows = [table.vectors[t] for t in tokens if t in table.vectors]
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
        if (a < 0).any() or (b < 0).any():
            raise ValueError("weights must be non-negative")
        if not np.isfinite(C).all() or (C < 0).any():
            raise ValueError("costs must be finite and non-negative")
        if a.sum() <= 0 or b.sum() <= 0:
            raise ValueError("zero-mass transport problem")
        if abs(a.sum() - b.sum()) > MARGINAL_TOL:
            raise ValueError(
                f"weight sums differ by {abs(a.sum() - b.sum()):.3g} "
                f"(tolerance {MARGINAL_TOL})")


@dataclass(frozen=True)
class TransportResult:
    plan: np.ndarray
    cost: float
    method: str
    iterations: int
    converged: bool
    marginal_error: float


def solve_transport(problem: TransportProblem, method: str = "exact",
                    epsilon: float = 0.01, max_iter: int = 10000,
                    tol: float = 1e-9) -> TransportResult:
    """Solve the transport problem exactly or with entropic regularization.

    ``exact`` runs the transportation simplex to a provably optimal
    vertex.  ``sinkhorn`` iterates in the log domain until the plan's
    marginal residual drops below ``tol`` (or ``max_iter`` is hit, which
    is reported via ``converged``), then rounds the plan to exact
    marginals.
    """
    problem.validate()
    a = np.asarray(problem.source_weights, dtype=np.float64)
    b = np.asarray(problem.target_weights, dtype=np.float64)
    C = np.asarray(problem.costs, dtype=np.float64)

    if method == "exact":
        plan, iterations = _transport_simplex(a, b, C)
        converged = True
    elif method == "sinkhorn":
        if epsilon <= 0:
            raise ValueError("sinkhorn epsilon must be positive")
        plan, iterations, converged = _sinkhorn_log(a, b, C, epsilon,
                                                    max_iter, tol)
    else:
        raise ValueError(f"unknown transport method {method!r}")

    cost = float((plan * C).sum())
    marginal_error = max(
        float(np.abs(plan.sum(axis=1) - a).max()),
        float(np.abs(plan.sum(axis=0) - b).max()),
    )
    return TransportResult(plan=plan, cost=cost, method=method,
                           iterations=iterations, converged=converged,
                           marginal_error=marginal_error)


def _transport_simplex(a: np.ndarray, b: np.ndarray,
                       C: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact solver: least-cost start, then dual-guided pivots."""
    return _simplex_pivots(C, *_least_cost_start(a, b, C))


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
    for flat in np.argsort(C, axis=None, kind="stable").tolist():
        i, j = divmod(flat, m)
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
    cost; after ``STALL_PIVOTS_PER_NODE * (n + m)`` degenerate pivots in a
    row the rule drops to Bland's smallest-index selection, which cannot
    cycle.
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
    in_basis = np.zeros((n, m), dtype=bool)
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for (bi, bj) in basis:
        in_basis[bi, bj] = True
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
            for nxt in adj[node]:
                if nxt == parent[node]:
                    continue
                parent[nxt] = node
                depth[nxt] = depth[node] + 1
                if node < n:
                    v[nxt - n] = cost[node][nxt - n] - u[node]
                else:
                    u[nxt] = cost[nxt][node - n] - v[node - n]
                stack.append(nxt)

    hang(0)
    for pivot_count in range(max_pivots):
        reduced = C - np.array(u)[:, None] - np.array(v)[None, :]
        reduced[in_basis] = np.inf

        if use_bland:
            candidates = np.argwhere(reduced < -opt_tol)
            if candidates.size == 0:
                return np.array(plan), pivot_count
            enter_i, enter_j = (int(candidates[0][0]), int(candidates[0][1]))
        else:
            flat = int(np.argmin(reduced))
            enter_i, enter_j = divmod(flat, m)
            if reduced[enter_i, enter_j] >= -opt_tol:
                return np.array(plan), pivot_count

        # The tree path from the entering column node to the entering row
        # node, through their common ancestor; each node on it stands for
        # the tree edge to its parent.  With the entering edge it forms
        # the cycle, whose signs alternate from + on the entering cell.
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
        path = col_side + row_side[::-1]

        cycle = [(enter_i, enter_j, 1)]
        sign = -1
        for node in path:
            if node >= n:
                cycle.append((parent[node], node - n, sign))
            else:
                cycle.append((node, parent[node] - n, sign))
            sign = -sign

        minus_cells = [(ci, cj) for ci, cj, s in cycle if s < 0]
        theta = min(plan[ci][cj] for ci, cj in minus_cells)
        leaving = min((ci, cj) for ci, cj in minus_cells
                      if plan[ci][cj] <= theta)

        for ci, cj, s in cycle:
            plan[ci][cj] += s * theta
        leave_i, leave_j = leaving
        plan[leave_i][leave_j] = 0.0

        # Swap the leaving edge for the entering one.  The subtree below
        # the leaving edge holds exactly one end of the entering edge; it
        # hangs from the other end now.
        in_basis[leave_i, leave_j] = False
        in_basis[enter_i, enter_j] = True
        adj[leave_i].remove(n + leave_j)
        adj[n + leave_j].remove(leave_i)
        adj[enter_i].append(n + enter_j)
        adj[n + enter_j].append(enter_i)
        if cycle.index((leave_i, leave_j, -1)) <= len(col_side):
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


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(x)))`` along ``axis``, shifted by the maximum so that
    nothing overflows."""
    top = x.max(axis=axis, keepdims=True)
    total = np.exp(x - top).sum(axis=axis)
    return np.log(total) + np.squeeze(top, axis=axis)


def _sinkhorn_log(a: np.ndarray, b: np.ndarray, C: np.ndarray,
                  epsilon: float, max_iter: int,
                  tol: float) -> tuple[np.ndarray, int, bool]:
    pos_a = a > 0
    pos_b = b > 0
    aa = a[pos_a]
    bb = b[pos_b]
    CC = C[np.ix_(pos_a, pos_b)]
    log_a = np.log(aa)
    log_b = np.log(bb)
    f = np.zeros(aa.size)
    g = np.zeros(bb.size)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        f = epsilon * (log_a
                       - _logsumexp((g[None, :] - CC) / epsilon, axis=1))
        g = epsilon * (log_b
                       - _logsumexp((f[:, None] - CC) / epsilon, axis=0))
        plan = np.exp((f[:, None] + g[None, :] - CC) / epsilon)
        err = max(
            float(np.abs(plan.sum(axis=1) - aa).max()),
            float(np.abs(plan.sum(axis=0) - bb).max()),
        )
        if err <= tol:
            converged = True
            break
    plan = _round_to_feasible(plan, aa, bb)
    full = np.zeros_like(C)
    full[np.ix_(pos_a, pos_b)] = plan
    return full, iterations, converged


def _round_to_feasible(plan: np.ndarray, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Project a near-feasible plan onto the transport polytope."""
    row = plan.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(row > 0, np.minimum(a / row, 1.0), 1.0)
    plan = plan * scale[:, None]
    col = plan.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(col > 0, np.minimum(b / col, 1.0), 1.0)
    plan = plan * scale[None, :]
    err_a = a - plan.sum(axis=1)
    err_b = b - plan.sum(axis=0)
    total = err_a.sum()
    if total > 1e-300:
        plan = plan + np.outer(err_a, err_b) / total
    return plan


# ---------------------------------------------------------------------------
# word mover's distance


def nbow_weights(tokens: TokenSeq, table: EmbeddingTable
                 ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Normalized bag-of-words over in-vocabulary token types.

    Returns the sorted types, their frequency-proportional weights, and
    the stacked embedding matrix.
    """
    counts = Counter(t for t in tokens if t in table.vectors)
    if not counts:
        raise ValueError("no representable tokens in sentence")
    types = sorted(counts)
    weights = np.array([counts[t] for t in types], dtype=np.float64)
    weights /= weights.sum()
    matrix = np.stack([table.vectors[t] for t in types])
    return types, weights, matrix


def wmd(a: TokenSeq, b: TokenSeq, table: EmbeddingTable) -> MetricScore:
    """Word mover's distance: minimal cost of moving one sentence's
    normalized bag-of-words onto the other's, with Euclidean ground costs,
    solved exactly."""
    _, wa, va = nbow_weights(a, table)
    _, wb, vb = nbow_weights(b, table)
    costs = _euclidean_costs(va, vb)
    result = solve_transport(TransportProblem(wa, wb, costs))
    return MetricScore("wmd", result.cost, orientation="distance")


# ---------------------------------------------------------------------------
# noun-based distance


def load_noun_lexicon(path: Optional[Path] = None) -> frozenset:
    """Noun word list, one per line, '#' comments allowed; default bundled."""
    if path is None:
        ref = resources.files("labelsim.data").joinpath("nouns.txt")
        text = ref.read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    nouns = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            nouns.add(word)
    if not nouns:
        raise ValueError("noun lexicon is empty")
    return frozenset(nouns)


def lexicon_noun_tagger(nouns: Optional[frozenset] = None
                        ) -> Callable[[TokenSeq], list[str]]:
    """Tagger that keeps tokens found (directly or via stemming) in a noun list."""
    if nouns is None:
        nouns = load_noun_lexicon()

    def tagger(tokens: TokenSeq) -> list[str]:
        return [t for t in tokens if t in nouns or light_stem(t) in nouns]

    return tagger


def nouns_from_tags(tokens: TokenSeq, tags: dict) -> list[str]:
    """Select noun tokens using gold tags: a map token_index -> POS tag."""
    out = []
    for idx in sorted(tags):
        tag = tags[idx].upper()
        if 0 <= idx < len(tokens) and (tag.startswith("NN") or tag == "NOUN"):
            out.append(tokens[idx])
    return out


def pos_distance(a: TokenSeq, b: TokenSeq,
                 noun_tagger: Callable[[TokenSeq], list[str]],
                 table: EmbeddingTable,
                 aggregate: str = "matched") -> Optional[MetricScore]:
    """Mean embedding distance between the nouns of the two sentences.

    With ``matched`` aggregation the nouns are paired one-to-one by a
    minimum-cost assignment over min(#nouns) pairs; ``all_pairs``
    averages the full cross-product instead.  Returns None when either
    side has no embeddable noun, so callers can drop the pair.
    """
    nouns_a = [t for t in noun_tagger(a) if t in table.vectors]
    nouns_b = [t for t in noun_tagger(b) if t in table.vectors]
    if not nouns_a or not nouns_b:
        return None
    dists = _euclidean_costs(np.stack([table.vectors[t] for t in nouns_a]),
                             np.stack([table.vectors[t] for t in nouns_b]))
    if aggregate == "matched":
        rows, cols = _min_cost_matching(dists)
        value = float(dists[rows, cols].mean())
    elif aggregate == "all_pairs":
        value = float(dists.mean())
    else:
        raise ValueError(f"unknown pos_distance aggregate {aggregate!r}")
    return MetricScore("pos_dist", value, orientation="distance")


def _min_cost_matching(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost one-to-one matching of min(n, m) rows and columns.

    Posed as a transport problem with unit masses, the smaller side
    padded by one zero-cost dummy node that holds the surplus.  With
    integer masses every basic plan is 0/1, so the simplex optimum is an
    exact matching.  Returns the matched cells in row order.
    """
    n, m = dists.shape
    a = np.ones(n)
    b = np.ones(m)
    costs = dists
    if n < m:
        a = np.append(a, m - n)
        costs = np.vstack([dists, np.zeros((1, m))])
    elif n > m:
        b = np.append(b, n - m)
        costs = np.hstack([dists, np.zeros((n, 1))])
    plan, _ = _transport_simplex(a, b, costs)
    return np.nonzero(plan[:n, :m] > 0.5)


def orient(score: MetricScore) -> float:
    """Map a score to the higher-means-more-similar axis used in correlations."""
    if score.orientation == "distance":
        return -score.value
    return score.value


# ---------------------------------------------------------------------------
# external per-pair artifacts


def _parse_side(row: dict, where: str) -> str:
    side = row["side"].strip().lower()
    if side not in ("a", "b"):
        raise CorpusError(f"{where}: side must be a or b")
    return side


def load_sentence_embeddings(path) -> dict:
    """Per-pair sentence vectors: CSV pair_id, side in {a, b}, then the
    vector as whitespace-separated floats.  Returns pair_id -> {side: vec}."""
    path = Path(path)
    out: dict[str, dict[str, np.ndarray]] = {}
    dimension: Optional[int] = None
    for lineno, row in _read_csv_rows(path, ("pair_id", "side", "vector")):
        where = f"{path} row {lineno}"
        pid = row["pair_id"].strip()
        side = _parse_side(row, where)
        vec = _parse_vector(row["vector"].split(), where, dimension)
        dimension = vec.size
        sides = out.setdefault(pid, {})
        if side in sides:
            raise CorpusError(f"{where}: duplicate side {side!r} for {pid!r}")
        sides[side] = vec
    return out


def load_gold_tags(path) -> dict:
    """Gold POS tags: CSV pair_id, side, token_index, tag.
    Returns (pair_id, side) -> {token_index: tag}."""
    path = Path(path)
    out: dict[tuple[str, str], dict[int, str]] = {}
    for lineno, row in _read_csv_rows(
            path, ("pair_id", "side", "token_index", "tag")):
        where = f"{path} row {lineno}"
        side = _parse_side(row, where)
        try:
            idx = int(row["token_index"])
        except ValueError:
            raise CorpusError(f"{where}: bad token_index") from None
        tags = out.setdefault((row["pair_id"].strip(), side), {})
        if idx in tags:
            raise CorpusError(f"{where}: duplicate token_index {idx}")
        tags[idx] = row["tag"].strip()
    return out
