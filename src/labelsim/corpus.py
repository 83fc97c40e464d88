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
from dataclasses import dataclass, field, replace
from functools import cached_property
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

    ``pair`` indexes ``pair_ids``, every pair of the corpus in sorted
    order; ``annotator`` indexes ``annotator_ids``, every annotator with
    a label, sorted; ``is_random`` is the flag of the row's pair.
    """

    pair_ids: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    pair: np.ndarray       # intp
    annotator: np.ndarray  # intp
    label: np.ndarray      # int64
    duration: np.ndarray   # float64
    is_random: np.ndarray  # bool

    @classmethod
    def build(cls, pairs: tuple[SentencePair, ...],
              annotations: tuple[Annotation, ...]) -> "AnnotationColumns":
        pair_ids = tuple(sorted(p.pair_id for p in pairs))
        pair_index = {pid: i for i, pid in enumerate(pair_ids)}
        annotator_ids = tuple(sorted({a.annotator_id for a in annotations}))
        annotator_index = {aid: i for i, aid in enumerate(annotator_ids)}
        n = len(annotations)
        pair = np.fromiter((pair_index[a.pair_id] for a in annotations),
                           dtype=np.intp, count=n)
        random_pairs = np.zeros(len(pair_ids), dtype=bool)
        random_pairs[[pair_index[p.pair_id] for p in pairs if p.is_random]] = True
        return cls(
            pair_ids=pair_ids,
            annotator_ids=annotator_ids,
            pair=pair,
            annotator=np.fromiter((annotator_index[a.annotator_id]
                                   for a in annotations),
                                  dtype=np.intp, count=n),
            label=np.fromiter((a.label for a in annotations),
                              dtype=np.int64, count=n),
            duration=np.fromiter((a.duration for a in annotations),
                                 dtype=np.float64, count=n),
            is_random=random_pairs[pair],
        )


@dataclass(frozen=True)
class LabeledCorpus:
    """Immutable bundle of pairs, annotations and optional score channels.

    ``precomputed_scores`` maps a metric name to a per-pair score map; it
    is how externally computed similarity scores (contextual-embedding
    models and the like) enter the pipeline.
    """

    pairs: tuple[SentencePair, ...]
    annotations: tuple[Annotation, ...]
    precomputed_scores: dict[str, dict[str, float]] = field(default_factory=dict)

    @cached_property
    def pairs_by_id(self) -> dict[str, SentencePair]:
        return {p.pair_id: p for p in self.pairs}

    @cached_property
    def columns(self) -> AnnotationColumns:
        """The annotations as arrays, built on first use and kept."""
        return AnnotationColumns.build(self.pairs, self.annotations)

    def annotator_ids(self) -> list[str]:
        return list(self.columns.annotator_ids)


def build_corpus(pairs: Iterable[SentencePair],
                 annotations: Iterable[Annotation]) -> LabeledCorpus:
    """Validate and assemble a corpus from already-parsed rows."""
    pairs = tuple(pairs)
    annotations = tuple(annotations)
    _validate(pairs, annotations)
    return LabeledCorpus(pairs=pairs, annotations=annotations)


def _validate(pairs: tuple[SentencePair, ...],
              annotations: tuple[Annotation, ...]) -> None:
    seen_pairs: set[str] = set()
    for p in pairs:
        if not p.pair_id:
            raise CorpusError("pair with empty pair_id")
        if p.pair_id in seen_pairs:
            raise CorpusError(f"duplicate pair_id {p.pair_id!r}")
        seen_pairs.add(p.pair_id)
        if not p.text_a.strip() or not p.text_b.strip():
            raise CorpusError(f"pair {p.pair_id!r} has an empty text side")
    seen_ann: set[tuple[str, str]] = set()
    for a in annotations:
        if a.pair_id not in seen_pairs:
            raise CorpusError(
                f"annotation references unknown pair_id {a.pair_id!r}")
        if a.label not in VALID_LABELS:
            raise CorpusError(
                f"label {a.label!r} for pair {a.pair_id!r} outside 1-5")
        if a.duration < 0:
            raise CorpusError(
                f"negative duration {a.duration!r} for pair {a.pair_id!r}")
        key = (a.pair_id, a.annotator_id)
        if key in seen_ann:
            raise CorpusError(
                f"annotator {a.annotator_id!r} labeled pair {a.pair_id!r} twice")
        seen_ann.add(key)


def _parse_bool01(raw: str, where: str) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise CorpusError(f"{where}: is_random must be 0 or 1, got {raw!r}")


def _parse_int(raw, where: str) -> int:
    try:
        return int(str(raw).strip())
    except (TypeError, ValueError):
        raise CorpusError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_float(raw, where: str) -> float:
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        raise CorpusError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise CorpusError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _read_csv_rows(path: Path, required: tuple[str, ...]):
    """Yield ``(lineno, row)`` for each data row of a CSV file, from row 2.

    Every CSV input is read here, so each fails the same way: a missing
    header or column, or a row short of a required column, raises
    :class:`CorpusError` naming the file and row, and a byte that is not
    UTF-8 one naming the file and line.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise CorpusError(f"{path}: empty file, header required")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise CorpusError(f"{path}: missing columns {missing}; "
                                  f"expected columns {','.join(required)}")
            for lineno, row in enumerate(reader, start=2):
                if any(row.get(c) is None for c in required):
                    raise CorpusError(f"{path} row {lineno}: short row")
                yield lineno, row
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


def _row_pair(row: dict, where: str, corpus: Optional[LabeledCorpus]
              ) -> tuple[str, Optional[SentencePair]]:
    """A side-file row's pair_id and, when a corpus is given, its pair.

    With a corpus, a pair_id it does not hold raises :class:`CorpusError`
    prefixed by ``where``.
    """
    pid = row["pair_id"].strip()
    if corpus is None:
        return pid, None
    pair = corpus.pairs_by_id.get(pid)
    if pair is None:
        raise CorpusError(f"{where}: unknown pair {pid!r}")
    return pid, pair


def _read_jsonl_rows(path: Path, required: tuple[str, ...]):
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
                yield lineno, row
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


def load_corpus(pairs_path, annotations_path=None, fmt: Optional[str] = None) -> LabeledCorpus:
    """Load pairs (and optionally annotations) from CSV or JSONL files.

    The format is inferred from the file suffix unless ``fmt`` forces it.
    Raises :class:`CorpusError` with the offending file and row for any
    schema violation.
    """
    pairs_path = Path(pairs_path)
    use_fmt = _detect_format(pairs_path, fmt)

    pairs = []
    if use_fmt == "csv":
        rows = _read_csv_rows(pairs_path, PAIR_FIELDS)
    else:
        rows = _read_jsonl_rows(pairs_path, PAIR_FIELDS)
    for lineno, row in rows:
        where = f"{pairs_path} row {lineno}"
        raw_random = row["is_random"]
        if isinstance(raw_random, bool):
            is_random = raw_random
        else:
            is_random = _parse_bool01(str(raw_random).strip(), where)
        pairs.append(SentencePair(
            pair_id=str(row["pair_id"]).strip(),
            source=str(row["source"]).strip(),
            is_random=is_random,
            text_a=str(row["text_a"]),
            text_b=str(row["text_b"]),
        ))

    annotations = []
    if annotations_path is not None:
        annotations_path = Path(annotations_path)
        ann_fmt = _detect_format(annotations_path, fmt)
        if ann_fmt == "csv":
            rows = _read_csv_rows(annotations_path, ANNOTATION_FIELDS)
        else:
            rows = _read_jsonl_rows(annotations_path, ANNOTATION_FIELDS)
        for lineno, row in rows:
            where = f"{annotations_path} row {lineno}"
            annotations.append(Annotation(
                pair_id=str(row["pair_id"]).strip(),
                annotator_id=str(row["annotator_id"]).strip(),
                label=_parse_int(row["label"], where),
                duration=_parse_float(row["duration_seconds"], where),
            ))

    return build_corpus(pairs, annotations)


def save_corpus(corpus: LabeledCorpus, pairs_path, annotations_path,
                fmt: Optional[str] = None) -> None:
    """Write a corpus back to disk; inverse of :func:`load_corpus`."""
    pairs_path = Path(pairs_path)
    annotations_path = Path(annotations_path)
    use_fmt = _detect_format(pairs_path, fmt)

    if use_fmt == "csv":
        with pairs_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(PAIR_FIELDS))
            writer.writeheader()
            for p in corpus.pairs:
                writer.writerow({
                    "pair_id": p.pair_id,
                    "source": p.source,
                    "is_random": int(p.is_random),
                    "text_a": p.text_a,
                    "text_b": p.text_b,
                })
        with annotations_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(ANNOTATION_FIELDS))
            writer.writeheader()
            for a in corpus.annotations:
                writer.writerow({
                    "pair_id": a.pair_id,
                    "annotator_id": a.annotator_id,
                    "label": a.label,
                    "duration_seconds": repr(a.duration),
                })
    else:
        with pairs_path.open("w", encoding="utf-8") as fh:
            for p in corpus.pairs:
                fh.write(json.dumps({
                    "pair_id": p.pair_id,
                    "source": p.source,
                    "is_random": int(p.is_random),
                    "text_a": p.text_a,
                    "text_b": p.text_b,
                }, ensure_ascii=False) + "\n")
        with annotations_path.open("w", encoding="utf-8") as fh:
            for a in corpus.annotations:
                fh.write(json.dumps({
                    "pair_id": a.pair_id,
                    "annotator_id": a.annotator_id,
                    "label": a.label,
                    "duration_seconds": a.duration,
                }, ensure_ascii=False) + "\n")


def load_precomputed(path) -> dict[str, float]:
    """Read a per-pair score channel from a two-column CSV (pair_id, score)."""
    path = Path(path)
    scores: dict[str, float] = {}
    for lineno, row in _read_csv_rows(path, ("pair_id", "score")):
        where = f"{path} row {lineno}"
        pid = str(row["pair_id"]).strip()
        if pid in scores:
            raise CorpusError(f"{where}: duplicate pair_id {pid!r}")
        scores[pid] = _parse_float(row["score"], where)
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
