import csv
import dataclasses
import gc
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from labelsim import corpus as corpus_module
from labelsim.corpus import (Annotation, AnnotationColumns, CorpusError,
                             SentencePair, attach_precomputed, build_corpus,
                             load_corpus, load_precomputed, save_corpus,
                             select_pairs)
from labelsim.simulate import PopulationSpec, generate_corpus

from conftest import make_corpus
import oracles

PAIRS_CSV = """\
pair_id,source,is_random,text_a,text_b
p1,sts,0,the cat sat,a cat sat
p2,sick,1,dogs bark,markets fell
"""

ANNOTATIONS_CSV = """\
pair_id,annotator_id,label,duration_seconds
p1,w1,5,12.5
p1,w2,4,30.0
p2,w1,1,8.25
"""


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


def test_load_csv(tmp_path):
    corpus = load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV),
                         write(tmp_path, "ann.csv", ANNOTATIONS_CSV))
    assert len(corpus.pairs) == 2
    assert corpus.pairs_by_id["p2"].is_random is True
    assert corpus.pairs_by_id["p1"].source == "sts"
    assert len(corpus.annotations) == 3
    assert [a.label for a in corpus.annotations if a.pair_id == "p1"] == [5, 4]
    assert corpus.columns.annotator_ids == ("w1", "w2")


def test_load_jsonl(tmp_path):
    pairs = write(tmp_path, "pairs.jsonl", "\n".join([
        '{"pair_id": "p1", "source": "", "is_random": false,'
        ' "text_a": "one two", "text_b": "one three"}',
        '{"pair_id": "p2", "source": "x", "is_random": true,'
        ' "text_a": "a b", "text_b": "c d"}',
    ]) + "\n")
    ann = write(tmp_path, "ann.jsonl",
                '{"pair_id": "p1", "annotator_id": "w1", "label": 3,'
                ' "duration_seconds": 9.5}\n')
    corpus = load_corpus(pairs, ann)
    assert corpus.pairs_by_id["p2"].is_random is True
    assert corpus.annotations[0].duration == 9.5


def test_pairs_only(tmp_path):
    corpus = load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV))
    assert tuple(corpus.annotations) == ()


def test_format_override(tmp_path):
    # jsonl content behind a .txt suffix needs the explicit format
    path = write(tmp_path, "pairs.txt",
                 '{"pair_id": "p1", "source": "", "is_random": 0,'
                 ' "text_a": "a b", "text_b": "b c"}\n')
    corpus = load_corpus(path, fmt="jsonl")
    assert corpus.pairs[0].text_b == "b c"
    with pytest.raises(CorpusError):
        load_corpus(path, fmt="tsv")


def test_round_trip_preserves_durations(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path / "p.csv", tmp_path / "a.csv")
    again = load_corpus(tmp_path / "p.csv", tmp_path / "a.csv")
    assert again.pairs == tiny_corpus.pairs
    assert tuple(again.annotations) == tuple(tiny_corpus.annotations)


def test_round_trip_jsonl(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path / "p.jsonl", tmp_path / "a.jsonl")
    again = load_corpus(tmp_path / "p.jsonl", tmp_path / "a.jsonl")
    assert again.pairs == tiny_corpus.pairs
    assert tuple(again.annotations) == tuple(tiny_corpus.annotations)


def test_missing_column(tmp_path):
    bad = PAIRS_CSV.replace("is_random", "random")
    with pytest.raises(CorpusError, match="missing columns"):
        load_corpus(write(tmp_path, "pairs.csv", bad))


def test_bad_is_random(tmp_path):
    bad = PAIRS_CSV.replace("sts,0", "sts,yes")
    with pytest.raises(CorpusError, match="is_random must be 0 or 1"):
        load_corpus(write(tmp_path, "pairs.csv", bad))


def test_bad_label(tmp_path):
    bad = ANNOTATIONS_CSV.replace("w1,5", "w1,6")
    with pytest.raises(CorpusError, match=r"ann\.csv row 2: label 6 for "
                                          r"pair 'p1' outside 1-5$"):
        load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV),
                    write(tmp_path, "ann.csv", bad))


def test_non_numeric_duration(tmp_path):
    bad = ANNOTATIONS_CSV.replace("12.5", "fast")
    with pytest.raises(CorpusError, match="expected a number"):
        load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV),
                    write(tmp_path, "ann.csv", bad))


@pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
def test_non_finite_duration(tmp_path, raw):
    bad = ANNOTATIONS_CSV.replace("30.0", raw)
    with pytest.raises(CorpusError, match=r"ann\.csv row 3: expected a "
                                          r"finite number"):
        load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV),
                    write(tmp_path, "ann.csv", bad))


def test_non_finite_precomputed_score(tmp_path):
    path = write(tmp_path, "scores.csv", "pair_id,score\np1,0.5\np2,NaN\n")
    with pytest.raises(CorpusError, match=r"scores\.csv row 3: expected a "
                                          r"finite number, got 'NaN'"):
        load_precomputed(path)


def test_unknown_pair_reference(tmp_path):
    bad = ANNOTATIONS_CSV + "p9,w1,3,10\n"
    with pytest.raises(CorpusError, match=r"ann\.csv row 5: annotation "
                                          r"references unknown pair_id 'p9'$"):
        load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV),
                    write(tmp_path, "ann.csv", bad))


@pytest.mark.parametrize("pairs_extra, ann_extra, message", [
    ("p1,sts,0,a b,c d\n", "",
     "pairs.csv row 4: duplicate pair_id 'p1'"),
    ("", "p1,w2,3,9.0\n",
     "ann.csv row 5: annotator 'w2' labeled pair 'p1' twice"),
    ("", "p2,w2,3,-1.0\n",
     "ann.csv row 5: negative duration -1.0 for pair 'p2'"),
    ("p3,sts,0,a b,  \n", "",
     "pairs.csv row 4: pair 'p3' has an empty text side"),
    (",sts,0,a b,c d\n", "",
     "pairs.csv row 4: pair with empty pair_id"),
], ids=["duplicate pair", "duplicate annotation", "negative duration",
        "empty text side", "empty pair_id"])
def test_bad_corpus_row_names_file_and_row(tmp_path, pairs_extra, ann_extra,
                                           message):
    pairs = write(tmp_path, "pairs.csv", PAIRS_CSV + pairs_extra)
    ann = write(tmp_path, "ann.csv", ANNOTATIONS_CSV + ann_extra)
    with pytest.raises(CorpusError) as exc:
        load_corpus(pairs, ann)
    assert str(exc.value) == f"{tmp_path}/{message}"


def test_first_bad_row_in_file_order_is_reported(tmp_path):
    # row 2's label is out of range; row 3's duration is not a number
    ann = write(tmp_path, "ann.csv",
                "pair_id,annotator_id,label,duration_seconds\n"
                "p1,w1,7,1.0\np1,w2,3,fast\n")
    with pytest.raises(CorpusError, match=r"ann\.csv row 2: label 7 "):
        load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV), ann)


def test_duplicate_pair_id():
    with pytest.raises(CorpusError, match="duplicate pair_id"):
        build_corpus([SentencePair("p1", "a", "b"),
                      SentencePair("p1", "c", "d")], [])


def test_empty_text_side():
    with pytest.raises(CorpusError, match="empty text side"):
        build_corpus([SentencePair("p1", "a", "   ")], [])


def test_duplicate_annotation():
    with pytest.raises(CorpusError, match="twice"):
        make_corpus([("p1", "a", "b")],
                    [("p1", "w1", 3), ("p1", "w1", 4)])


def test_negative_duration():
    with pytest.raises(CorpusError, match="negative duration"):
        make_corpus([("p1", "a", "b")], [("p1", "w1", 3, -1.0)])


def test_bad_json_line(tmp_path):
    path = write(tmp_path, "pairs.jsonl", "{not json}\n")
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)


def test_precomputed_channel(tmp_path, tiny_corpus):
    path = write(tmp_path, "scores.csv",
                 "pair_id,score\np1,0.91\np2,0.05\np3,0.77\n")
    scores = load_precomputed(path)
    assert scores == {"p1": 0.91, "p2": 0.05, "p3": 0.77}
    corpus = attach_precomputed(tiny_corpus, "bert", scores)
    assert corpus.precomputed_scores["bert"]["p2"] == 0.05
    # the original corpus is untouched
    assert "bert" not in tiny_corpus.precomputed_scores
    with pytest.raises(CorpusError, match="already attached"):
        attach_precomputed(corpus, "bert", scores)


def test_precomputed_unknown_pair(tiny_corpus):
    with pytest.raises(CorpusError, match="unknown pair"):
        attach_precomputed(tiny_corpus, "bert", {"nope": 1.0})


def test_precomputed_unknown_pair_names_file_and_row(tmp_path, tiny_corpus):
    path = write(tmp_path, "scores.csv", "pair_id,score\np1,0.5\np9,x\n")
    with pytest.raises(CorpusError) as exc:
        load_precomputed(path, tiny_corpus)
    assert str(exc.value) == f"{path} row 3: unknown pair 'p9'"
    # without a corpus the ids are not checked
    write(tmp_path, "scores.csv", "pair_id,score\np9,0.5\n")
    assert load_precomputed(path) == {"p9": 0.5}


def test_precomputed_duplicate_row(tmp_path):
    path = write(tmp_path, "scores.csv",
                 "pair_id,score\np1,0.9\np1,0.8\n")
    with pytest.raises(CorpusError, match="duplicate pair_id"):
        load_precomputed(path)


@pytest.mark.parametrize("first_rows", [
    "p1,sts,0,the cat sat,a cat sat\n\n",
    'p1,sts,0,"the cat\nsat",a cat sat\n',
], ids=["blank line", "quoted line break"])
def test_csv_error_names_the_line_the_record_starts_on(tmp_path, first_rows):
    # p2 starts on line 4 of the file but is only its second record
    path = write(tmp_path, "pairs.csv",
                 "pair_id,source,is_random,text_a,text_b\n" + first_rows
                 + "p2,sick,2,dogs bark,markets fell\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert str(exc.value) == \
        f"{path} row 4: is_random must be 0 or 1, got '2'"


def test_csv_header_naming_a_column_twice_reads_the_last(tmp_path):
    path = write(tmp_path, "scores.csv",
                 "pair_id,score,score\np1,0.1,0.9\np2,0.2,0.8,extra\n")
    assert load_precomputed(path) == {"p1": 0.9, "p2": 0.8}
    # a row that reaches the first 'score' column but not the last
    write(tmp_path, "scores.csv", "pair_id,score,score\np1,0.1,0.9\np2,0.2\n")
    with pytest.raises(CorpusError) as exc:
        load_precomputed(path)
    assert str(exc.value) == f"{path} row 3: short row"


def test_empty_csv_file(tmp_path):
    path = write(tmp_path, "pairs.csv", "")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: empty file, header required"


# ------------------------------------------------------- columnar store


def assert_same_columns(got: AnnotationColumns, want: AnnotationColumns):
    for f in dataclasses.fields(AnnotationColumns):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name
    assert got == want


def test_loaded_corpus_holds_no_annotation_objects(tmp_path, monkeypatch):
    pairs = write(tmp_path, "pairs.csv", PAIRS_CSV)
    ann = write(tmp_path, "ann.csv", ANNOTATIONS_CSV)

    def no_rows(*args, **kwargs):
        raise AssertionError("load_corpus built an Annotation")

    monkeypatch.setattr(corpus_module, "Annotation", no_rows)
    corpus = load_corpus(pairs, ann)
    monkeypatch.undo()
    seen, todo = set(), [corpus]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, Annotation)
        todo.extend(gc.get_referents(obj))
    assert len(corpus.annotations) == 3
    assert list(corpus.annotations)[2] == corpus.annotations[-1] == \
        Annotation("p2", "w1", 1, 8.25)


def test_select_pairs_matches_a_corpus_built_from_those_rows():
    corpus, _ = generate_corpus(PopulationSpec(n_pairs=40, seed=3))
    for keep in (lambda i: i % 3 == 0, lambda i: i >= 35, lambda i: False):
        pairs = tuple(p for i, p in enumerate(corpus.pairs) if keep(i))
        ids = {p.pair_id for p in pairs}
        sub = select_pairs(corpus, pairs)
        built = build_corpus(pairs, [a for a in corpus.annotations
                                     if a.pair_id in ids])
        assert sub.pairs == pairs
        assert_same_columns(sub.columns, built.columns)


LOADER_PAIRS_CSV = ("pair_id,source,is_random,text_a,text_b\n"
                    + "".join(f"p{i},s,{i % 2},a b,c d\n" for i in range(5)))
ANNOTATORS = ["w1", "w2", "w3", " w3 ", "10", "9", "a,b", 'q"x', "\u00e9"]
GOOD_ROW = st.tuples(st.sampled_from([f"p{i}" for i in range(5)]),
                     st.sampled_from(ANNOTATORS), st.integers(1, 5),
                     st.floats(0, 1e4, allow_nan=False))
BAD_ROW = st.one_of(
    st.tuples(st.just("p9"), st.sampled_from(ANNOTATORS), st.just(3),
              st.just(1.0)),
    st.tuples(st.just("p0"), st.just("w1"),
              st.sampled_from([0, 6, -2, "x", "2.5"]), st.just(1.0)),
    st.tuples(st.just("p1"), st.just("w2"), st.just(2),
              st.sampled_from([-0.5, "fast", "nan"])),
    # a row of a (pair, annotator) the good rows may hold
    GOOD_ROW)


def write_annotations(path, rows, fmt):
    with path.open("w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(["pair_id", "annotator_id", "label",
                             "duration_seconds"])
            writer.writerows(rows)
        else:
            for pid, aid, label, duration in rows:
                fh.write(json.dumps({"pair_id": pid, "annotator_id": aid,
                                     "label": label,
                                     "duration_seconds": duration}) + "\n")


@settings(max_examples=150, deadline=None)
@given(good=st.lists(GOOD_ROW, max_size=30,
                     unique_by=lambda r: (r[0], r[1].strip())),
       bad=st.lists(st.tuples(st.integers(0, 30), BAD_ROW), max_size=3),
       fmt=st.sampled_from(["csv", "jsonl"]))
def test_loader_columns_match_build_over_oracle_rows(good, bad, fmt):
    rows = list(good)
    for position, row in bad:
        rows.insert(position, row)
    with tempfile.TemporaryDirectory() as tmp:
        pairs_path = Path(tmp, "pairs.csv")
        pairs_path.write_text(LOADER_PAIRS_CSV, encoding="utf-8")
        ann_path = Path(tmp, "ann." + fmt)
        write_annotations(ann_path, rows, fmt)
        pairs = load_corpus(pairs_path).pairs
        try:
            want = oracles.load_annotations_oracle(pairs, ann_path)
        except CorpusError as exc:
            # several bad rows: the first in file order, as the oracle says
            with pytest.raises(CorpusError) as got:
                load_corpus(pairs_path, ann_path)
            assert str(got.value) == str(exc)
            event("a bad row")
            return
        corpus = load_corpus(pairs_path, ann_path)
    assert corpus.pairs == pairs
    assert_same_columns(corpus.columns, AnnotationColumns.build(pairs, want))
    assert tuple(corpus.annotations) == want
