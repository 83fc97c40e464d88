"""Data model and loaders for sentence-pair corpora with per-annotator labels.

A corpus is two tables: sentence pairs (``pair_id, source, is_random,
text_a, text_b``) and annotations (``pair_id, annotator_id, label,
duration_seconds``).  Text is kept verbatim at load time; all
normalization happens in the tokenizer so there is exactly one place
where it can go wrong.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, Optional

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

    A corpus holds its annotations only in this form.  ``pair`` indexes
    ``pair_ids``, every pair of the corpus in sorted order; ``annotator``
    indexes ``annotator_ids``, every annotator with a label, sorted;
    ``is_random`` is the flag of the row's pair.  ``pair_index`` and
    ``annotator_index`` map each id to its index, in the same order; they
    are the one place an id becomes an index.  ``by_pair`` lists the rows
    stably sorted by ``pair`` (a pair's rows keep their file order); it is
    the one place rows are put in pair order.
    """

    pair_ids: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    pair_index: dict[str, int]
    annotator_index: dict[str, int]
    pair: np.ndarray       # intp
    annotator: np.ndarray  # intp
    label: np.ndarray      # int64
    duration: np.ndarray   # float64
    is_random: np.ndarray  # bool
    by_pair: np.ndarray    # intp

    @classmethod
    def build(cls, pairs: tuple[SentencePair, ...],
              annotations: Iterable[Annotation]) -> "AnnotationColumns":
        """The columns of ``annotations``, each row checked as
        :func:`load_corpus` checks a row of its file."""
        table = _AnnotationTable(pairs)
        for a in annotations:
            table.add(a.pair_id, a.annotator_id, a.label, a.duration)
        return table.columns()

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


class _AnnotationTable:
    """Annotation rows gathered into column buffers.

    Each row is checked against the pairs and the rows before it as it is
    added, so the first bad row in file order is the one reported.  An
    annotator's code is its order of first appearance until
    :meth:`columns` maps it to its place among the sorted ids.
    """

    def __init__(self, pairs: tuple[SentencePair, ...]):
        self.pairs = pairs
        self.pair_ids = tuple(sorted(p.pair_id for p in pairs))
        self.pair_index = {pid: i for i, pid in enumerate(self.pair_ids)}
        self.annotator_code: dict[str, int] = {}
        self.labeled: set[int] = set()  # annotator code * pairs + pair
        self.pair = array("q")
        self.annotator = array("q")
        self.label = array("q")
        self.duration = array("d")

    def add(self, pair_id: str, annotator_id: str, label: int,
            duration: float, path: Optional[Path] = None,
            lineno: int = 0) -> None:
        pair = self.pair_index.get(pair_id)
        if pair is None:
            raise _fail(f"annotation references unknown pair_id {pair_id!r}",
                        path, lineno)
        if label not in VALID_LABELS:
            raise _fail(f"label {label!r} for pair {pair_id!r} outside 1-5",
                        path, lineno)
        if duration < 0:
            raise _fail(f"negative duration {duration!r} for pair "
                        f"{pair_id!r}", path, lineno)
        code = self.annotator_code.setdefault(annotator_id,
                                              len(self.annotator_code))
        key = code * len(self.pair_ids) + pair
        if key in self.labeled:
            raise _fail(f"annotator {annotator_id!r} labeled pair "
                        f"{pair_id!r} twice", path, lineno)
        self.labeled.add(key)
        self.pair.append(pair)
        self.annotator.append(code)
        self.label.append(int(label))  # 3.0 is the label 3
        self.duration.append(duration)

    def columns(self) -> AnnotationColumns:
        first_seen = tuple(self.annotator_code)
        order = sorted(range(len(first_seen)), key=first_seen.__getitem__)
        place = np.empty(len(order), dtype=np.intp)
        place[order] = np.arange(len(order))
        annotator_ids = tuple(first_seen[i] for i in order)
        pair = np.array(self.pair, dtype=np.intp)
        random_pairs = np.zeros(len(self.pair_ids), dtype=bool)
        random_pairs[[self.pair_index[p.pair_id]
                      for p in self.pairs if p.is_random]] = True
        return AnnotationColumns(
            pair_ids=self.pair_ids,
            annotator_ids=annotator_ids,
            pair_index=self.pair_index,
            annotator_index={aid: i for i, aid in enumerate(annotator_ids)},
            pair=pair,
            annotator=place[np.array(self.annotator, dtype=np.intp)],
            label=np.array(self.label, dtype=np.int64),
            duration=np.array(self.duration, dtype=np.float64),
            is_random=random_pairs[pair],
            by_pair=np.argsort(pair, kind="stable"),
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


@dataclass(frozen=True)
class LabeledCorpus:
    """Immutable bundle of pairs, annotations and optional score channels.

    The annotations are held as :class:`AnnotationColumns` only;
    ``annotations`` reads them back as rows.  ``precomputed_scores`` maps
    a metric name to a per-pair score map; it is how externally computed
    similarity scores (contextual-embedding models and the like) enter the
    pipeline.
    """

    pairs: tuple[SentencePair, ...]
    columns: AnnotationColumns
    precomputed_scores: dict[str, dict[str, float]] = field(default_factory=dict)

    @cached_property
    def pairs_by_id(self) -> dict[str, SentencePair]:
        return {p.pair_id: p for p in self.pairs}

    @property
    def annotations(self) -> AnnotationRows:
        return AnnotationRows(self.columns)


def build_corpus(pairs: Iterable[SentencePair],
                 annotations: Iterable[Annotation]) -> LabeledCorpus:
    """Validate and assemble a corpus from already-parsed rows."""
    pairs = tuple(pairs)
    pair_ids: set[str] = set()
    for p in pairs:
        _check_pair(p, pair_ids)
    return LabeledCorpus(pairs=pairs,
                         columns=AnnotationColumns.build(pairs, annotations))


def select_pairs(corpus: LabeledCorpus,
                 pairs: tuple[SentencePair, ...]) -> LabeledCorpus:
    """The corpus cut to ``pairs``, some of its pairs in its order, with
    their annotations and every score channel.  The columns are cut by a
    pair mask and indexed as :meth:`AnnotationColumns.build` would index
    the kept rows."""
    columns = corpus.columns
    keep = np.zeros(len(columns.pair_ids), dtype=bool)
    keep[[columns.pair_index[p.pair_id] for p in pairs]] = True
    rows = keep[columns.pair]
    annotator = columns.annotator[rows]
    labeled = np.zeros(len(columns.annotator_ids), dtype=bool)
    labeled[annotator] = True
    pair_ids = tuple(compress(columns.pair_ids, keep))
    annotator_ids = tuple(compress(columns.annotator_ids, labeled))
    pair = (np.cumsum(keep) - 1)[columns.pair[rows]]
    return LabeledCorpus(
        pairs=pairs,
        columns=AnnotationColumns(
            pair_ids=pair_ids,
            annotator_ids=annotator_ids,
            pair_index={pid: i for i, pid in enumerate(pair_ids)},
            annotator_index={aid: i for i, aid in enumerate(annotator_ids)},
            pair=pair,
            annotator=(np.cumsum(labeled) - 1)[annotator],
            label=columns.label[rows],
            duration=columns.duration[rows],
            is_random=columns.is_random[rows],
            by_pair=np.argsort(pair, kind="stable"),
        ),
        precomputed_scores=corpus.precomputed_scores)


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
    UTF-8 one naming the file and line.
    """
    with path.open(newline="", encoding="utf-8") as fh:
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
              corpus: Optional[LabeledCorpus]
              ) -> tuple[str, Optional[SentencePair]]:
    """A side-file row's pair_id and, when a corpus is given, its pair.

    With a corpus, a pair_id it does not hold raises :class:`CorpusError`
    naming the file and row.
    """
    pid = raw_pid.strip()
    if corpus is None:
        return pid, None
    pair = corpus.pairs_by_id.get(pid)
    if pair is None:
        raise CorpusError(f"{path} row {lineno}: unknown pair {pid!r}")
    return pid, pair


def _read_jsonl_rows(path: Path, required: tuple[str, ...]):
    """Yield ``(lineno, fields)`` for each object of a JSONL file, in the
    shape :func:`_read_csv_rows` yields; blank lines are skipped."""
    with path.open(encoding="utf-8") as fh:
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
                yield lineno, tuple(row[c] for c in required)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _detect_format(path: Path, fmt: Optional[str]) -> str:
    if fmt is not None:
        if fmt not in ("csv", "jsonl"):
            raise CorpusError(f"unknown corpus format {fmt!r}")
        return fmt
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    return "csv"


def _read_rows(path: Path, required: tuple[str, ...], fmt: Optional[str]):
    """The rows of a CSV or JSONL file, read as its format says."""
    read = _read_csv_rows if _detect_format(path, fmt) == "csv" \
        else _read_jsonl_rows
    return read(path, required)


def load_corpus(pairs_path, annotations_path=None, fmt: Optional[str] = None) -> LabeledCorpus:
    """Load pairs (and optionally annotations) from CSV or JSONL files.

    The format is inferred from the file suffix unless ``fmt`` forces it.
    Raises :class:`CorpusError` with the offending file and row for any
    schema violation.
    """
    pairs_path = Path(pairs_path)
    pairs = []
    pair_ids: set[str] = set()
    rows = _read_rows(pairs_path, PAIR_FIELDS, fmt)
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
    table = _AnnotationTable(pairs)
    if annotations_path is not None:
        annotations_path = Path(annotations_path)
        rows = _read_rows(annotations_path, ANNOTATION_FIELDS, fmt)
        for lineno, (pid, aid, label, duration) in rows:
            table.add(str(pid).strip(), str(aid).strip(),
                      _parse_int(label, annotations_path, lineno),
                      _parse_float(duration, annotations_path, lineno),
                      annotations_path, lineno)
    return LabeledCorpus(pairs=pairs, columns=table.columns())


def save_corpus(corpus: LabeledCorpus, pairs_path, annotations_path) -> None:
    """Write a corpus back to disk; inverse of :func:`load_corpus`.

    Both files take the format that ``pairs_path``'s suffix names.  Each
    row is one dict of its fields, written by ``DictWriter`` as CSV or by
    ``json.dumps`` as JSONL; the CSV's float durations read as ``repr``
    does.
    """
    pairs_path = Path(pairs_path)
    use_fmt = _detect_format(pairs_path, None)
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
        if use_fmt == "csv":
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
        pid, _ = _row_pair(pid, path, lineno, corpus)
        if pid in scores:
            raise CorpusError(f"{path} row {lineno}: duplicate pair_id {pid!r}")
        scores[pid] = _parse_float(score, path, lineno)
    return scores


def attach_precomputed(corpus: LabeledCorpus, metric_name: str,
                       scores: dict[str, float]) -> LabeledCorpus:
    """Return a new corpus with an extra named score channel attached."""
    if metric_name in corpus.precomputed_scores:
        raise CorpusError(f"score channel {metric_name!r} already attached")
    known = corpus.pairs_by_id
    for pid in scores:
        if pid not in known:
            raise CorpusError(
                f"precomputed channel {metric_name!r} references unknown pair {pid!r}")
    merged = dict(corpus.precomputed_scores)
    merged[metric_name] = dict(scores)
    return replace(corpus, precomputed_scores=merged)
