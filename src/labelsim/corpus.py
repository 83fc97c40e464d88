"""Data model and loaders for sentence-pair corpora with per-annotator labels.

A corpus is two tables: sentence pairs (``pair_id, source, is_random,
text_a, text_b``) and annotations (``pair_id, annotator_id, label,
duration_seconds``), each a CSV or JSONL file; a loader reads which
from the file's content, a writer from the file's name.  Text is kept
verbatim at load time; all normalization happens in the tokenizer so
there is exactly one place where it can go wrong.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

VALID_LABELS = (1, 2, 3, 4, 5)

PAIR_FIELDS = ("pair_id", "source", "is_random", "text_a", "text_b")
ANNOTATION_FIELDS = ("pair_id", "annotator_id", "label", "duration_seconds")


class CorpusError(ValueError):
    """Schema or referential-integrity violation, with file/row context."""


@dataclass(frozen=True)
class SentencePair:
    """One sentence pair to be judged for semantic similarity."""

    pair_id: str
    text_a: str
    text_b: str
    source: str = ""
    is_random: bool = False


@dataclass(frozen=True)
class Annotation:
    """A single 1-5 similarity label with the time the annotator spent."""

    pair_id: str
    annotator_id: str
    label: int
    duration: float


@dataclass(frozen=True)
class AnnotationColumns:
    """The annotations as arrays, one row per annotation in file order.

    A corpus holds its annotations only in this form, and these columns
    are its one map from an id to a position.  ``pair`` indexes
    ``pair_ids``, every pair of the corpus in corpus order, so a pair's
    index is its place in ``corpus.pairs``; ``annotator`` indexes
    ``annotator_ids``, every annotator with a label, sorted, so a mask
    over ``annotator_ids`` selects annotators in sorted order;
    ``pair_is_random`` is each pair's flag, in ``pair_ids`` order.  The
    fields are the whole store; the properties below derive the rest from
    them when first read, and are the one place each is derived:
    ``pair_index`` maps each pair id to its index (side files check their
    pair ids against it), ``is_random`` is the flag of each row's pair,
    ``by_id`` lists the pair indexes in sorted ``pair_id`` order (the
    order a report takes its observations in), and ``by_pair`` lists the
    rows grouped by pair in that order (a pair's rows keep their file
    order).
    """

    pair_ids: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    pair: np.ndarray            # intp
    annotator: np.ndarray       # intp
    label: np.ndarray           # int64
    duration: np.ndarray        # float64
    pair_is_random: np.ndarray  # bool

    @cached_property
    def pair_index(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.pair_ids)}

    @cached_property
    def is_random(self) -> np.ndarray:
        return self.pair_is_random[self.pair]

    @cached_property
    def by_id(self) -> np.ndarray:
        return np.array(sorted(range(len(self.pair_ids)),
                               key=self.pair_ids.__getitem__),
                        dtype=np.intp)

    @cached_property
    def by_pair(self) -> np.ndarray:
        rank = np.empty(len(self.pair_ids), dtype=np.intp)
        rank[self.by_id] = np.arange(rank.size)
        return np.argsort(rank[self.pair], kind="stable")

    def __eq__(self, other) -> bool:
        """Field by field, each array as a whole (the generated ``__eq__``
        would ask an array of per-element results for its truth)."""
        if not isinstance(other, AnnotationColumns):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


def _annotation_columns(pairs: tuple[SentencePair, ...],
                        rows: Iterable[tuple]) -> AnnotationColumns:
    """The columns of annotation ``rows``, each a tuple ``(pair_id,
    annotator_id, label, duration, path, lineno)``; ``path`` is None for a
    row read from no file.

    Each row is checked against the pairs and the rows before it as it is
    read, so the first bad row in order is the one reported.  An
    annotator's code is its order of first appearance until the end maps
    it to its place among the sorted ids.
    """
    pair_ids = tuple(p.pair_id for p in pairs)
    pair_code = {pid: i for i, pid in enumerate(pair_ids)}
    annotator_code: dict[str, int] = {}
    labeled: set[int] = set()  # annotator code * pairs + pair code
    pair, annotator, label, duration = \
        array("q"), array("q"), array("q"), array("d")
    for pair_id, annotator_id, value, seconds, path, lineno in rows:
        p = pair_code.get(pair_id)
        if p is None:
            raise _fail(f"annotation references unknown pair_id {pair_id!r}",
                        path, lineno)
        if not annotator_id.strip():
            raise _fail("annotation with empty annotator_id", path, lineno)
        if value not in VALID_LABELS:
            raise _fail(f"label {value!r} for pair {pair_id!r} outside 1-5",
                        path, lineno)
        if seconds < 0:
            raise _fail(f"negative duration {seconds!r} for pair "
                        f"{pair_id!r}", path, lineno)
        a = annotator_code.setdefault(annotator_id, len(annotator_code))
        key = a * len(pair_ids) + p
        if key in labeled:
            raise _fail(f"annotator {annotator_id!r} labeled pair "
                        f"{pair_id!r} twice", path, lineno)
        labeled.add(key)
        pair.append(p)
        annotator.append(a)
        label.append(int(value))  # 3.0 is the label 3
        duration.append(seconds)

    first_seen = tuple(annotator_code)
    order = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    place = np.empty(len(order), dtype=np.intp)
    place[order] = np.arange(len(order))
    return AnnotationColumns(
        pair_ids=pair_ids,
        annotator_ids=tuple(first_seen[i] for i in order),
        pair=np.array(pair, dtype=np.intp),
        annotator=place[np.array(annotator, dtype=np.intp)],
        label=np.array(label, dtype=np.int64),
        duration=np.array(duration, dtype=np.float64),
        pair_is_random=np.array([p.is_random for p in pairs], dtype=bool),
    )


class AnnotationRows(Sequence):
    """A corpus's annotations as :class:`Annotation` rows in file order,
    each made from the columns when it is read."""

    def __init__(self, columns: AnnotationColumns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns.pair)

    def __getitem__(self, i: int) -> Annotation:
        c = self._columns
        return Annotation(c.pair_ids[c.pair[i]],
                          c.annotator_ids[c.annotator[i]],
                          int(c.label[i]), float(c.duration[i]))

    def __iter__(self):
        c = self._columns
        for pair, annotator, label, duration in zip(
                c.pair.tolist(), c.annotator.tolist(), c.label.tolist(),
                c.duration.tolist()):
            yield Annotation(c.pair_ids[pair], c.annotator_ids[annotator],
                             label, duration)


class PairScores(Mapping):
    """One per-pair score column: arrays over the pair index of
    ``columns``, read as a mapping from pair id to score.

    ``values[i]`` is the score of ``columns.pair_ids[i]``, the corpus's
    ``i``-th pair, where ``defined[i]``; any other pair has no score.  A
    score is a float, or a tuple of floats where ``values`` has a second
    axis (heuristic 5's two sentiment scores).  The mapping is read-only
    and iterates its pairs in corpus order, as :class:`AnnotationRows`
    reads annotations in file order.  Build one from any score mapping
    with :func:`pair_scores`.
    """

    __slots__ = ("columns", "values", "defined")

    def __init__(self, columns: AnnotationColumns, values: np.ndarray,
                 defined: np.ndarray):
        self.columns = columns
        self.values = values
        self.defined = defined

    def __getitem__(self, pair_id: str):
        i = self.columns.pair_index.get(pair_id)
        if i is None or not self.defined[i]:
            raise KeyError(pair_id)
        value = self.values[i].tolist()
        return tuple(value) if isinstance(value, list) else value

    def __iter__(self):
        return map(self.columns.pair_ids.__getitem__,
                   np.flatnonzero(self.defined).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.defined))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def pair_scores(columns: AnnotationColumns, scores: Mapping,
                unknown: Optional[Callable[[str], Exception]] = None
                ) -> PairScores:
    """``scores``, any mapping from pair id to score, as a column over the
    pair index of ``columns``; a column already over it is returned as it
    is.  Every other mapping (a dict, a column over another corpus) is
    converted in one pass.  A scored pair outside ``columns`` is left out,
    or, with ``unknown``, raises ``unknown(pair_id)`` for the first in
    the mapping's order.
    """
    if isinstance(scores, PairScores):
        if scores.columns is columns:
            return scores
        values = scores.values[scores.defined]
    else:
        values = np.array(list(scores.values()), dtype=np.float64)
    keys = list(scores)
    at = np.fromiter(map(columns.pair_index.get, keys, repeat(-1)),
                     dtype=np.intp, count=len(keys))
    known = at >= 0
    if unknown is not None and not known.all():
        raise unknown(keys[int(np.argmin(known))])
    n_pairs = len(columns.pair_ids)
    column = np.zeros((n_pairs,) + values.shape[1:], dtype=np.float64)
    column[at[known]] = values[known]
    defined = np.zeros(n_pairs, dtype=bool)
    defined[at[known]] = True
    return PairScores(columns, column, defined)


@dataclass(frozen=True)
class LabeledCorpus:
    """Immutable bundle of pairs, annotations and optional score channels.

    The annotations are held as :class:`AnnotationColumns` only;
    ``annotations`` reads them back as rows.  ``precomputed_scores`` maps
    a metric name to a per-pair :class:`PairScores` column; it is how
    externally computed similarity scores (contextual-embedding models
    and the like) enter the pipeline.  A corpus cut by
    :func:`select_pairs` holds its own columns and channels.
    """

    pairs: tuple[SentencePair, ...]
    columns: AnnotationColumns
    precomputed_scores: dict[str, PairScores] = field(default_factory=dict)

    @property
    def annotations(self) -> AnnotationRows:
        return AnnotationRows(self.columns)


def build_corpus(pairs: Iterable[SentencePair],
                 annotations: Iterable[Annotation]) -> LabeledCorpus:
    """Validate and assemble a corpus from already-parsed rows; each
    annotation is checked as :func:`load_corpus` checks a row of its
    file."""
    pairs = tuple(pairs)
    pair_ids: set[str] = set()
    for p in pairs:
        _check_pair(p, pair_ids)
    rows = ((a.pair_id, a.annotator_id, a.label, a.duration, None, 0)
            for a in annotations)
    return LabeledCorpus(pairs=pairs,
                         columns=_annotation_columns(pairs, rows))


def select_pairs(corpus: LabeledCorpus,
                 pairs: tuple[SentencePair, ...]) -> LabeledCorpus:
    """The corpus cut to ``pairs``, some of its pairs, with their
    annotations and every score channel; the cut lists them once each,
    in corpus order.  The columns and each channel are cut by a pair mask
    and coded as :func:`build_corpus` would code the kept rows."""
    columns = corpus.columns
    keep = np.zeros(len(columns.pair_ids), dtype=bool)
    keep[[columns.pair_index[p.pair_id] for p in pairs]] = True
    rows = keep[columns.pair]
    annotator = columns.annotator[rows]
    labeled = np.zeros(len(columns.annotator_ids), dtype=bool)
    labeled[annotator] = True
    cut = AnnotationColumns(
        pair_ids=tuple(compress(columns.pair_ids, keep)),
        annotator_ids=tuple(compress(columns.annotator_ids, labeled)),
        pair=(np.cumsum(keep) - 1)[columns.pair[rows]],
        annotator=(np.cumsum(labeled) - 1)[annotator],
        label=columns.label[rows],
        duration=columns.duration[rows],
        pair_is_random=columns.pair_is_random[keep],
    )
    return LabeledCorpus(
        pairs=tuple(compress(corpus.pairs, keep)), columns=cut,
        precomputed_scores={
            name: PairScores(cut, channel.values[keep], channel.defined[keep])
            for name, channel in corpus.precomputed_scores.items()})


def _fail(problem: str, path: Optional[Path], lineno: int) -> CorpusError:
    """The error for a bad row, naming its file and row when it has one."""
    if path is None:
        return CorpusError(problem)
    return CorpusError(f"{path} row {lineno}: {problem}")


def _check_pair(p: SentencePair, pair_ids: set[str],
                path: Optional[Path] = None, lineno: int = 0) -> None:
    """Check one pair row against the rows before it; adds its id to
    ``pair_ids``."""
    if not p.pair_id:
        raise _fail("pair with empty pair_id", path, lineno)
    if p.pair_id in pair_ids:
        raise _fail(f"duplicate pair_id {p.pair_id!r}", path, lineno)
    if not p.text_a.strip() or not p.text_b.strip():
        raise _fail(f"pair {p.pair_id!r} has an empty text side",
                    path, lineno)
    pair_ids.add(p.pair_id)


def _parse_bool01(raw: str, path: Path, lineno: int) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise CorpusError(
        f"{path} row {lineno}: is_random must be 0 or 1, got {raw!r}")


def _parse_int(raw, path: Path, lineno: int) -> int:
    """An integer field of an input row.  Every one-number field of the
    corpus and side files is read here or by :func:`_parse_float`, so a bad
    one fails alike: :class:`CorpusError` naming the file and row."""
    try:
        return int(str(raw).strip())
    except (TypeError, ValueError):
        raise CorpusError(
            f"{path} row {lineno}: expected an integer, got {raw!r}") from None


def _parse_float(raw, path: Path, lineno: int) -> float:
    """A finite float field of an input row; see :func:`_parse_int`."""
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        raise CorpusError(
            f"{path} row {lineno}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise CorpusError(
            f"{path} row {lineno}: expected a finite number, got {raw!r}")
    return value


def _read_csv_rows(path: Path, required: tuple[str, ...]):
    """Yield ``(lineno, fields)`` for each data row of a CSV file.

    ``fields`` is a tuple of the row's ``required`` columns, in that
    order (``required`` names at least two); a header naming a column
    twice gives its last one, as :class:`csv.DictReader` does.
    ``lineno`` is the physical line the record starts on, so a blank line
    or a quoted line break before it counts; blank lines yield nothing.
    Every CSV input is read here, so each fails the same way: a missing
    header or column, or a row short of a required column, raises
    :class:`CorpusError` naming the file and row, and a byte that is not
    UTF-8 one naming the file and line.  A UTF-8 byte-order mark that
    opens the file, as spreadsheet exports write, is skipped.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CorpusError(f"{path}: empty file, header required")
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in required if c not in position]
            if missing:
                raise CorpusError(f"{path}: missing columns {missing}; "
                                  f"expected columns {','.join(required)}")
            index = [position[c] for c in required]
            pick = operator.itemgetter(*index)
            last = max(index)
            lineno = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) <= last:
                        raise CorpusError(f"{path} row {lineno}: short row")
                    yield lineno, pick(row)
                lineno = reader.line_num + 1
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path: Path) -> CorpusError:
    """The error naming a file's first line that is not UTF-8.  The
    decoder's error counts from the start of a chunk, not of the file."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return CorpusError(f"{path} line {lineno}: not UTF-8")
    return CorpusError(f"{path}: not UTF-8")


def _row_pair(raw_pid: str, path: Path, lineno: int,
              corpus: Optional[LabeledCorpus]) -> str:
    """A side-file row's pair_id.  With a corpus, a pair_id outside its
    ``columns.pair_index`` raises :class:`CorpusError` naming the file
    and row."""
    pid = raw_pid.strip()
    if corpus is not None and pid not in corpus.columns.pair_index:
        raise CorpusError(f"{path} row {lineno}: unknown pair {pid!r}")
    return pid


# The JSON values a text field may not hold, by their Python type.  A
# text field is a string or a number; ``str`` of any other value (a null
# read as "None", an array as "['x']") would pass for data.
_NOT_TEXT = {type(None): "null", bool: "a boolean", list: "an array",
             dict: "an object"}
_TEXT_FIELDS = frozenset(("pair_id", "source", "text_a", "text_b",
                          "annotator_id"))


def _read_jsonl_rows(path: Path, required: tuple[str, ...]):
    """Yield ``(lineno, fields)`` for each object of a JSONL file, in the
    shape :func:`_read_csv_rows` yields; blank lines, and a byte-order
    mark that opens the file, are skipped.  A text
    field (an id, a source or a text) that holds neither a string nor a
    number raises :class:`CorpusError` naming the file, row and field."""
    with path.open(encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(
                        f"{path} line {lineno}: bad JSON ({exc})") from None
                if not isinstance(row, dict):
                    raise CorpusError(f"{path} line {lineno}: expected an object")
                missing = [c for c in required if c not in row]
                if missing:
                    raise CorpusError(
                        f"{path} line {lineno}: missing fields {missing}")
                for c in required:
                    kind = c in _TEXT_FIELDS and _NOT_TEXT.get(type(row[c]))
                    if kind:
                        raise CorpusError(
                            f"{path} row {lineno}: {c} must be a string or a"
                            f" number, got {kind}")
                yield lineno, tuple(row[c] for c in required)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _read_rows(path: Path, required: tuple[str, ...]):
    """The rows of a CSV or JSONL file, read as its content says: JSONL
    when its first non-blank line, after an optional byte-order mark,
    starts with ``{`` (a JSON object does; a CSV header naming
    ``pair_id`` cannot), else CSV.  An empty or all-blank file raises
    :class:`CorpusError`, as a CSV file without a header does."""
    with path.open(encoding="utf-8-sig") as fh:
        try:
            head = next(filter(None, map(str.strip, fh)), "")
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    if not head:
        raise CorpusError(f"{path}: empty file, header required")
    read = _read_jsonl_rows if head.startswith("{") else _read_csv_rows
    yield from read(path, required)


def load_corpus(pairs_path, annotations_path=None) -> LabeledCorpus:
    """Load pairs (and optionally annotations) from CSV or JSONL files.

    Each file's format is read from its content, whatever its name.
    Raises :class:`CorpusError` with the offending file and row for any
    schema violation.
    """
    pairs_path = Path(pairs_path)
    pairs = []
    pair_ids: set[str] = set()
    rows = _read_rows(pairs_path, PAIR_FIELDS)
    for lineno, (pid, source, raw_random, text_a, text_b) in rows:
        if isinstance(raw_random, bool):
            is_random = raw_random
        else:
            is_random = _parse_bool01(str(raw_random).strip(), pairs_path,
                                      lineno)
        pair = SentencePair(
            pair_id=str(pid).strip(),
            source=str(source).strip(),
            is_random=is_random,
            text_a=str(text_a),
            text_b=str(text_b),
        )
        _check_pair(pair, pair_ids, pairs_path, lineno)
        pairs.append(pair)

    pairs = tuple(pairs)
    rows = ()
    if annotations_path is not None:
        path = Path(annotations_path)
        rows = ((str(pid).strip(), str(aid).strip(),
                 _parse_int(label, path, lineno),
                 _parse_float(duration, path, lineno), path, lineno)
                for lineno, (pid, aid, label, duration)
                in _read_rows(path, ANNOTATION_FIELDS))
    return LabeledCorpus(pairs=pairs, columns=_annotation_columns(pairs, rows))


def save_corpus(corpus: LabeledCorpus, pairs_path, annotations_path) -> None:
    """Write a corpus back to disk; inverse of :func:`load_corpus`.

    Both files take the format that ``pairs_path``'s suffix names: JSONL
    for ``.jsonl``, ``.ndjson`` or ``.json``, else CSV (a writer has no
    content to read it from).  Each row is one dict of its fields,
    written by ``DictWriter`` as CSV or by ``json.dumps`` as JSONL; the
    CSV's float durations read as ``repr`` does.
    """
    pairs_path = Path(pairs_path)
    jsonl = pairs_path.suffix.lower() in (".jsonl", ".ndjson", ".json")
    tables = (
        (pairs_path, PAIR_FIELDS,
         ((p.pair_id, p.source, int(p.is_random), p.text_a, p.text_b)
          for p in corpus.pairs)),
        (Path(annotations_path), ANNOTATION_FIELDS,
         ((a.pair_id, a.annotator_id, a.label, a.duration)
          for a in corpus.annotations)),
    )
    for path, fields, values in tables:
        rows = (dict(zip(fields, row)) for row in values)
        if not jsonl:
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(rows)
        else:
            with path.open("w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def load_precomputed(path, corpus: Optional[LabeledCorpus] = None
                     ) -> dict[str, float]:
    """Read a per-pair score channel from a two-column CSV (pair_id, score).

    With ``corpus``, a pair_id it does not hold raises :class:`CorpusError`
    naming the file and row.
    """
    path = Path(path)
    scores: dict[str, float] = {}
    for lineno, (pid, score) in _read_csv_rows(path, ("pair_id", "score")):
        pid = _row_pair(pid, path, lineno, corpus)
        if pid in scores:
            raise CorpusError(f"{path} row {lineno}: duplicate pair_id {pid!r}")
        scores[pid] = _parse_float(score, path, lineno)
    return scores


def attach_precomputed(corpus: LabeledCorpus, metric_name: str,
                       scores: Mapping[str, float]) -> LabeledCorpus:
    """Return a new corpus with an extra named score channel attached,
    held as a :class:`PairScores` column over the corpus's pairs."""
    if metric_name in corpus.precomputed_scores:
        raise CorpusError(f"score channel {metric_name!r} already attached")

    def unknown(pid: str) -> CorpusError:
        return CorpusError(f"precomputed channel {metric_name!r} "
                           f"references unknown pair {pid!r}")

    column = pair_scores(corpus.columns, scores, unknown)
    return replace(corpus, precomputed_scores={**corpus.precomputed_scores,
                                               metric_name: column})
