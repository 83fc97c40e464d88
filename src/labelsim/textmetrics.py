"""Natively implemented lexical similarity metrics for sentence pairs.

Everything runs off one deterministic tokenizer: lowercase, split on
whitespace and punctuation, punctuation dropped (inner apostrophes are
kept so contractions stay whole).  chrF is the exception -- it works on
the raw character stream with whitespace runs collapsed.

Every scorer returns a plain float (the block scorers one per pair).
All scores live in [0, 1] and are exactly 1.0 on identical inputs and
0.0 on inputs that share no vocabulary.

One table, :data:`LEXICAL_SCORERS`, says how each metric is scored, and
:func:`score_lexical_block` scores the requested names over a block of
pairs: BLEU and ROUGE-N from one clipped token n-gram count of the block,
chrF from its character n-grams, and word overlap, rougeL and METEOR pair
by pair, the block's tokens checked once.  :func:`bleu_block` (heuristic
5's unsmoothed overlap) and :func:`chrf_block` score a block of pairs
too; ``word_overlap``, ``rouge_l`` and ``meteor_lite`` score one pair.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

import numpy as np

TokenSeq = Sequence[str]

# A token is a maximal run of word characters and apostrophes, stripped
# of its leading and trailing apostrophes: it runs from the run's first
# word character to its last.
_TOKEN_RE = re.compile(r"\w(?:[\w']*\w)?")
_WORD_CHAR_RE = re.compile(r"\w")


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase and split into word tokens; punctuation is discarded."""
    return tuple(_TOKEN_RE.findall(text.lower()))


def has_tokens(text: str) -> bool:
    """``bool(tokenize(text))`` without building the tokens: every word
    character starts or lies inside a token."""
    return _WORD_CHAR_RE.search(text.lower()) is not None


class EmptyText(ValueError):
    """A text without word tokens, at position ``index`` of a scored block."""

    def __init__(self, index: int, side: str):
        super().__init__(f"cannot score an empty token sequence ({side})")
        self.index = index

    def for_pair(self, pair_id: str) -> ValueError:
        """The same error, naming the pair at ``index``."""
        return ValueError(f"pair {pair_id!r}: {self}")


def require_tokens(tokens_a: Sequence[TokenSeq], tokens_b: Sequence[TokenSeq],
                   sides: tuple[str, str] = ("text_a", "text_b")) -> None:
    """Raise :class:`EmptyText` for the first pair ``(tokens_a[k],
    tokens_b[k])`` with an empty side, side a first; ``sides`` names the
    two sides."""
    if all(tokens_a) and all(tokens_b):
        return
    k = next(k for k, (a, b) in enumerate(zip(tokens_a, tokens_b))
             if not a or not b)
    raise EmptyText(k, sides[1] if tokens_a[k] else sides[0])


def word_overlap(a: TokenSeq, b: TokenSeq, mode: str = "jaccard") -> float:
    """Unigram type overlap: Jaccard by default, |A&B|/|A| in precision mode."""
    require_tokens([a], [b], sides=("a", "b"))
    return _word_overlap(a, b, mode)


def _word_overlap(a: TokenSeq, b: TokenSeq, mode: str) -> float:
    """:func:`word_overlap` of sides already checked to hold tokens."""
    types_a, types_b = set(a), set(b)
    common = len(types_a & types_b)
    if mode == "jaccard":
        return common / len(types_a | types_b)
    if mode == "precision":
        return common / len(types_a)
    raise ValueError(f"unknown word_overlap mode {mode!r}")


# Pairs per block when a caller scores many pairs with score_lexical_block
# or bleu_block; see pair_blocks.
BLOCK_PAIRS = 16


def pair_blocks(n_pairs: int) -> list[slice]:
    """Consecutive slices of ``BLOCK_PAIRS`` pairs covering ``n_pairs``.

    The block scorers' arrays grow with the block's text, so a corpus is
    scored block by block.  On 4,000 pairs of 8-20 words, one BLEU block
    of every pair raised style-report's peak memory from 39.6 MB to 57 MB.
    On 800 such pairs, report peaked at 34.7 MB with 16-pair blocks and
    35.5 MB with 64-pair ones, with wall times within the run-to-run
    spread.
    """
    return [slice(start, start + BLOCK_PAIRS)
            for start in range(0, n_pairs, BLOCK_PAIRS)]


def bleu_block(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq],
               max_n: int = 4) -> list[float]:
    """Unsmoothed sentence BLEU of every pair ``(candidates[k],
    references[k])``, in one pass; heuristic 5 scores its overlap so.

    Per pair: clipped n-gram precision, geometric mean, brevity penalty
    (see :func:`_bleu_value`, which the table's smoothed ``bleu`` shares).

    The clipped matches come from one count of the block
    (:func:`_token_matches`) and are integers; the float steps run per
    pair, in the order a loop over one pair would take, so every value is
    the one-pair value.  Memory grows with the total length of the
    sequences, so callers with many pairs pass them in blocks.
    """
    if len(candidates) != len(references):
        raise ValueError("bleu_block needs as many candidates as references")
    if max_n < 1:
        raise ValueError("BLEU max_n must be >= 1")
    require_tokens(candidates, references, sides=("candidate", "reference"))
    matches = _token_matches(candidates, references, max_n)
    return [_bleu_value(found, len(c), len(r), max_n, "none")
            for found, c, r in zip(matches, candidates, references)]


def _token_matches(tokens_a: Sequence[TokenSeq], tokens_b: Sequence[TokenSeq],
                   max_n: int) -> list[list[int]]:
    """Clipped n-gram matches of each pair ``(tokens_a[k], tokens_b[k])``
    for the orders 1..max_n, one list per pair.

    The block's tokens are interned to ids and counted by
    :func:`_clipped_matches`.  The counts are symmetric, so one count
    serves BLEU (text b as the candidate) and ROUGE-N (recall against a).
    The lists stop at the block's longest sequence: no pair has an
    n-gram of a higher order, and BLEU and ROUGE-N read only orders that
    both of a pair's sides hold, so a huge ``max_n`` costs no memory.
    """
    texts = list(tokens_a) + list(tokens_b)
    vocab: dict[str, int] = {}
    tokens = np.array([vocab.setdefault(tok, len(vocab))
                       for text in texts for tok in text], dtype=np.int64)
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    max_n = min(max_n, int(lengths.max(initial=0)))
    return _clipped_matches(tokens, lengths, len(vocab), max_n).T.tolist()


def _bleu_value(matches: list[int], len_c: int, len_r: int, max_n: int,
                smoothing: str) -> float:
    """BLEU of one pair from its clipped matches per order.

    The effective order is capped by the shorter sentence.  With
    ``add_one`` smoothing, orders above 1 use (matches+1)/(total+1); the
    unigram precision is never smoothed, so disjoint sentences score 0.
    The brevity penalty exp(1 - |ref|/|cand|) applies only when the
    candidate is shorter than the reference.
    """
    effective_n = min(max_n, len_c, len_r)
    log_sum = 0.0
    for n in range(1, effective_n + 1):
        total = len_c - n + 1
        if smoothing == "add_one" and n >= 2:
            precision = (matches[n - 1] + 1) / (total + 1)
        else:
            if matches[n - 1] == 0:
                return 0.0
            precision = matches[n - 1] / total
        log_sum += math.log(precision)
    geo_mean = math.exp(log_sum / effective_n)
    if len_c < len_r:
        bp = math.exp(1.0 - len_r / len_c)
    else:
        bp = 1.0
    return bp * geo_mean


def _char_stream(text: str) -> str:
    # whitespace is not a character worth crediting: two texts with no
    # shared letters must score 0, so the stream drops all of it
    return re.sub(r"\s+", "", text.lower())


# chrF's F-score weight: recall counts CHRF_BETA times as much as precision
CHRF_BETA = 2.0


def chrf_block(texts_a: Sequence[str], texts_b: Sequence[str],
               max_n: int = 6) -> list[float]:
    """chrF, the character n-gram F-score over orders 1..max_n, of every
    pair ``(texts_a[k], texts_b[k])``, in one pass.

    Per pair: precision and recall are averaged across the orders where
    either side has n-grams, then combined with F_beta, beta
    :data:`CHRF_BETA` (which favors recall).  Neither text plays a
    privileged reference role: the score is the mean of the two
    directional F_beta values, so swapping the sides changes no score.

    Characters get dense ids by code point; each order's n-gram ids are
    built from them as :func:`_clipped_matches` describes.
    Clipped matches are the smaller count of each (pair, n-gram) seen on
    both sides.  Counts are integers; the float steps run per order, in
    the order a loop over one pair would take, so every value is the
    one-pair value.  Memory grows with the total length of the texts, so
    callers with many pairs pass them in blocks.
    """
    if len(texts_a) != len(texts_b):
        raise ValueError("chrf_block needs as many texts on each side")
    if max_n < 1:
        raise ValueError("chrf max_n must be >= 1")
    streams = [_char_stream(t) for t in texts_a] + \
        [_char_stream(t) for t in texts_b]
    if not all(streams):
        raise ValueError("cannot score empty text with chrf")
    n_pairs = len(texts_a)
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    codes = np.frombuffer("".join(streams).encode("utf-32-le", "surrogatepass"),
                          dtype=np.uint32).astype(np.int64)
    char_id, n_chars = _dense_ids(codes)
    matches = _clipped_matches(char_id, lengths, n_chars, max_n)
    sum_p = np.zeros(n_pairs)
    sum_r = np.zeros(n_pairs)
    orders = np.zeros(n_pairs, dtype=np.int64)
    len_a, len_b = lengths[:n_pairs], lengths[n_pairs:]
    for n in range(1, max_n + 1):
        total_a = np.maximum(len_a - n + 1, 0)
        total_b = np.maximum(len_b - n + 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sum_p += np.where(total_b > 0, matches[n - 1] / total_b, 0.0)
            sum_r += np.where(total_a > 0, matches[n - 1] / total_a, 0.0)
        orders += (total_a > 0) | (total_b > 0)
    chr_p = sum_p / orders
    chr_r = sum_r / orders
    values = (_f_beta(chr_p, chr_r) + _f_beta(chr_r, chr_p)) / 2.0
    return values.tolist()


# Bound on the (pair, n-gram, side) sort keys, safely inside int64.
_KEY_LIMIT = 1 << 62


def _clipped_matches(symbols: np.ndarray, lengths: np.ndarray,
                     n_symbols: int, max_n: int) -> np.ndarray:
    """Clipped n-gram matches of each pair, for the orders 1..max_n.

    ``symbols`` holds the dense ids (below ``n_symbols``) of 2k texts laid
    end to end, the k side-a texts first, and ``lengths`` their lengths.
    Row n-1 of the result gives, per pair, the sum over its order-n
    n-grams of the smaller of the two sides' counts.  An order-n
    n-gram's id is its order n-1 id times ``n_symbols`` plus its last
    symbol's id; the ids are renumbered densely only when a (pair,
    n-gram, side) key could reach :data:`_KEY_LIMIT`.  Each (pair,
    n-gram, side) is counted by one sort.  Orders longer than every
    pair's shorter side match nothing and are not counted.
    """
    n_pairs = lengths.size // 2
    text = np.repeat(np.arange(2 * n_pairs), lengths)
    room = np.cumsum(lengths)[text] - np.arange(symbols.size)  # symbols left
    pair = text % n_pairs
    side = text // n_pairs  # 0 for side a, 1 for side b
    matches = np.zeros((max_n, n_pairs), dtype=np.int64)
    top = min(max_n, int(np.minimum(lengths[:n_pairs],
                                    lengths[n_pairs:]).max(initial=0)))
    gram_id, n_grams = symbols, n_symbols
    for n in range(1, top + 1):
        if n > 1:
            if n_grams * n_symbols * 2 * n_pairs < _KEY_LIMIT:
                gram_id = gram_id[:-1] * n_symbols + symbols[n - 1:]
                n_grams *= n_symbols
            else:
                # the composed ids or keys could overflow int64: number
                # the n-grams densely, below symbols.size, on both sides
                # of the step
                gram_id, _ = _dense_ids(gram_id)
                gram_id, n_grams = _dense_ids(
                    gram_id[:-1] * n_symbols + symbols[n - 1:])
        whole = np.flatnonzero(room[:gram_id.size] >= n)
        # side in the lowest bit: a pair's n-gram on side a sorts just
        # before the same n-gram on side b
        keys, counts = _key_counts(
            (pair[whole] * n_grams + gram_id[whole]) * 2 + side[whole])
        both = np.flatnonzero(keys[1:] - keys[:-1] == 1)
        both = both[keys[both] % 2 == 0]
        matches[n - 1] = np.bincount(keys[both] // (2 * n_grams),
                                     np.minimum(counts[both], counts[both + 1]),
                                     minlength=n_pairs)
    return matches


def _dense_ids(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Each key's index among the sorted distinct keys, and their number."""
    order = np.argsort(keys)
    first = _run_starts(keys[order])
    ids = np.empty(keys.size, dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids, int(first.sum())


def _key_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys and how often each occurs."""
    ordered = np.sort(keys)
    starts = np.flatnonzero(_run_starts(ordered))
    return ordered[starts], np.diff(np.append(starts, keys.size))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal sorted keys begins."""
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _f_beta(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    denom = CHRF_BETA * CHRF_BETA * p + r
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, 0.0,
                        (1 + CHRF_BETA * CHRF_BETA) * p * r / denom)


def _rouge_score(a: TokenSeq, b: TokenSeq, matches: list[int],
                 n: int) -> float:
    """ROUGE-N of one pair from its clipped matches per order: n-gram
    overlap F1 with clipped counts, recall taken against ``a``."""
    total_a = max(len(a) - n + 1, 0)
    total_b = max(len(b) - n + 1, 0)
    if total_a == 0 or total_b == 0:
        return 0.0
    return _f1(matches[n - 1] / total_b, matches[n - 1] / total_a)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Length of a longest common subsequence of ``a`` and ``b``.

    Bit-parallel (Allison & Dix 1986, in the form of Hyyro 2004): bit j
    of ``v`` is 0 exactly where the DP row ``L[i][j + 1]`` steps up from
    ``L[i][j]``.  One add, one subtract and a few masks update all of
    ``b``'s bits for a token of ``a``, as the DP recurrence does cell by
    cell, so the count of zero bits after the last token is the DP's
    ``L[len(a)][len(b)]``.  A token absent from ``b`` leaves ``v`` as it
    is and is skipped.
    """
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        mask = masks.get(tok)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(a: TokenSeq, b: TokenSeq) -> float:
    """Longest-common-subsequence F1."""
    require_tokens([a], [b], sides=("a", "b"))
    return _rouge_l(a, b)


def _rouge_l(a: TokenSeq, b: TokenSeq) -> float:
    """:func:`rouge_l` of sides already checked to hold tokens."""
    lcs = _lcs_length(a, b)
    return _f1(lcs / len(b), lcs / len(a))


_STEM_RULES = (
    ("sses", "ss"),
    ("ies", "i"),
    ("ss", "ss"),
    ("s", ""),
)


def light_stem(word: str) -> str:
    """Tiny rule-based suffix stripper (plural endings, -ing, -ed)."""
    for suffix, repl in _STEM_RULES:
        if word.endswith(suffix):
            word = word[: len(word) - len(suffix)] + repl
            break
    for suffix in ("ing", "ed"):
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            word = word[: len(word) - len(suffix)]
            break
    return word


def _align(a: TokenSeq, b: TokenSeq) -> list[tuple[int, int]]:
    """One-to-one unigram alignment: exact matches first, then stem matches.

    Each stage takes the positions of ``b`` left to right and gives each
    the earliest unmatched position in ``a`` with the same key (the token,
    then its ``light_stem``), which keeps the procedure deterministic and
    cheap.  A stage keeps, per key, the unmatched positions of ``a``,
    latest first, and pops the last: a position leaves that list only
    when it is matched, so the last is the earliest unmatched one, the
    position a left-to-right scan of ``a`` would find.  Only the tokens
    left unmatched by the exact stage are stemmed.  Returns ``(j, i)``
    pairs sorted by ``j``.
    """
    free: dict[str, list[int]] = {}
    for i in range(len(a) - 1, -1, -1):
        free.setdefault(a[i], []).append(i)
    alignment: dict[int, int] = {}
    unmatched_b = []
    for j, tok in enumerate(b):
        positions = free.get(tok)
        if positions:
            alignment[j] = positions.pop()
        else:
            unmatched_b.append(j)
    if unmatched_b and len(alignment) < len(a):
        taken = set(alignment.values())
        free = {}
        for i in range(len(a) - 1, -1, -1):
            if i not in taken:
                free.setdefault(light_stem(a[i]), []).append(i)
        for j in unmatched_b:
            positions = free.get(light_stem(b[j]))
            if positions:
                alignment[j] = positions.pop()
    return sorted(alignment.items())


# meteor_lite's alpha, gamma and chunk_exp
METEOR_ALPHA = 0.9
METEOR_GAMMA = 0.5
METEOR_CHUNK_EXP = 3.0


def meteor_lite(a: TokenSeq, b: TokenSeq) -> float:
    """Unigram-alignment score with a fragmentation penalty.

    Matches are exact or rule-stemmed.  F = P*R / (alpha*P + (1-alpha)*R),
    multiplied by (1 - gamma*(chunks/matches)**chunk_exp) with the
    ``METEOR_*`` constants; a single contiguous chunk carries no penalty
    at all.
    """
    require_tokens([a], [b], sides=("a", "b"))
    return _meteor(a, b)


def _meteor(a: TokenSeq, b: TokenSeq) -> float:
    """:func:`meteor_lite` of sides already checked to hold tokens."""
    pairs = _align(a, b)
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(b)
    recall = matches / len(a)
    f_mean = precision * recall / (METEOR_ALPHA * precision
                                   + (1 - METEOR_ALPHA) * recall)
    chunks = 1
    for (j_prev, i_prev), (j_cur, i_cur) in zip(pairs, pairs[1:]):
        if j_cur != j_prev + 1 or i_cur != i_prev + 1:
            chunks += 1
    if chunks > 1:
        penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_CHUNK_EXP
    else:
        penalty = 0.0
    return f_mean * (1.0 - penalty)


# How each lexical metric is scored, in report order: name -> (order,
# scorer).  The scorer of a metric with an order scores one pair from its
# tokens a and b, their clipped n-gram matches of orders 1..order (none
# for order 0) and the overlap mode; BLEU takes text b as the candidate.
# These scorers leave the empty-side check to score_lexical_block, which
# makes it once per block.  chrF's (order None) scores the texts of a
# whole block and reads no tokens.
LEXICAL_SCORERS = {
    "word_overlap": (0, lambda a, b, _, mode: _word_overlap(a, b, mode)),
    "bleu1": (1, lambda a, b, found, _: _bleu_value(found, len(b), len(a), 1,
                                                    "none")),
    "bleu": (4, lambda a, b, found, _: _bleu_value(found, len(b), len(a), 4,
                                                   "add_one")),
    "chrf": (None, chrf_block),
    "rouge1": (1, lambda a, b, found, _: _rouge_score(a, b, found, 1)),
    "rouge2": (2, lambda a, b, found, _: _rouge_score(a, b, found, 2)),
    "rougeL": (0, lambda a, b, *_: _rouge_l(a, b)),
    "meteor": (0, lambda a, b, *_: _meteor(a, b)),
}


def score_lexical_block(names: Sequence[str], texts_a: Sequence[str],
                        texts_b: Sequence[str],
                        tokens_a: Optional[Sequence[TokenSeq]] = None,
                        tokens_b: Optional[Sequence[TokenSeq]] = None,
                        overlap_mode: str = "jaccard"
                        ) -> dict[str, list[float]]:
    """The lexical metrics ``names`` of every pair ``(texts_a[k],
    texts_b[k])``, keyed by name, one score per pair.

    ``tokens_a`` and ``tokens_b`` are the texts' tokens when the caller
    has them; otherwise they are made here, and only if a requested
    metric reads tokens.  When one does, a pair with an empty side raises
    :class:`EmptyText`, checked once for the block.  The clipped token
    n-gram matches are counted once, up to the highest order the
    requested metrics read.
    """
    scorers = {name: LEXICAL_SCORERS[name] for name in names}
    orders = [order for order, _ in scorers.values() if order is not None]
    rows = []
    if orders:
        if tokens_a is None or tokens_b is None:
            tokens_a = [tokenize(t) for t in texts_a]
            tokens_b = [tokenize(t) for t in texts_b]
        require_tokens(tokens_a, tokens_b)
        matches = _token_matches(tokens_a, tokens_b, max(orders)) \
            if max(orders) else [[]] * len(tokens_a)
        rows = list(zip(tokens_a, tokens_b, matches))
    return {name: score(texts_a, texts_b) if order is None
            else [score(a, b, found, overlap_mode) for a, b, found in rows]
            for name, (order, score) in scorers.items()}

