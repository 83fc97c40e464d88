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
                             PairScores, SentencePair, attach_precomputed,
                             build_corpus, load_corpus, load_precomputed,
                             pair_scores, save_corpus, select_pairs)
from labelsim.correlate import compute_metric_scores, correlation_report
from labelsim.heuristics import HeuristicId, compute_flag_reports
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
    p1, p2 = corpus.pairs
    assert p2.pair_id == "p2" and p2.is_random is True
    assert p1.pair_id == "p1" and p1.source == "sts"
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
    p2 = corpus.pairs[1]
    assert p2.pair_id == "p2" and p2.is_random is True
    assert corpus.annotations[0].duration == 9.5


def test_csv_and_jsonl_inputs_skip_a_byte_order_mark(tmp_path):
    jsonl_pairs = ('{"pair_id": "p1", "source": "", "is_random": false,'
                   ' "text_a": "one two", "text_b": "one three"}\n')
    jsonl_ann = ('{"pair_id": "p1", "annotator_id": "w1", "label": 3,'
                 ' "duration_seconds": 9.5}\n')
    for ext, pairs, ann in (("csv", PAIRS_CSV, ANNOTATIONS_CSV),
                            ("jsonl", jsonl_pairs, jsonl_ann)):
        plain = load_corpus(write(tmp_path, f"pairs.{ext}", pairs),
                            write(tmp_path, f"ann.{ext}", ann))
        marked = load_corpus(write(tmp_path, f"bom_pairs.{ext}",
                                   "\ufeff" + pairs),
                             write(tmp_path, f"bom_ann.{ext}", "\ufeff" + ann))
        assert marked.pairs == plain.pairs
        assert list(marked.annotations) == list(plain.annotations)
    # a side file goes through the same CSV reader
    channel = "pair_id,score\np1,0.5\np2,0.25\n"
    assert load_precomputed(write(tmp_path, "bom.csv", "\ufeff" + channel)) \
        == load_precomputed(write(tmp_path, "plain.csv", channel))


def test_a_later_feff_in_a_csv_input_stays_data(tmp_path):
    ann = ANNOTATIONS_CSV.replace("p1,w2,", "p1,\ufeffw2,")
    corpus = load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV),
                         write(tmp_path, "ann.csv", ann))
    assert corpus.columns.annotator_ids == ("w1", "\ufeffw2")


def test_pairs_only(tmp_path):
    corpus = load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV))
    assert tuple(corpus.annotations) == ()


PAIR_OBJECT = ('{"pair_id": "p1", "source": "", "is_random": 0,'
               ' "text_a": "a b", "text_b": "b c"}\n')


@pytest.mark.parametrize("name, content, problem", [
    ("pairs.txt", PAIR_OBJECT, None),
    ("pairs.csv", PAIR_OBJECT, None),
    ("pairs.jsonl", "pair_id,source,is_random,text_a,text_b\np1,,0,a b,b c\n",
     None),
    ("pairs.txt", "\ufeff" + PAIR_OBJECT, None),
    ("pairs.csv", "\n  \n" + PAIR_OBJECT, None),
    ("pairs.jsonl", "", "empty file, header required"),
    ("pairs.jsonl", "\n \n", "empty file, header required"),
    ("pairs.txt", "caf\xe9\n" + PAIR_OBJECT, "line 1: not UTF-8"),
], ids=["jsonl as txt", "jsonl as csv", "csv as jsonl", "byte-order mark",
        "blank lines first", "empty", "all blank", "not utf-8"])
def test_format_is_read_from_content(tmp_path, name, content, problem):
    # a corpus file is JSONL when its first non-blank line opens an
    # object, CSV otherwise, whatever its name
    path = tmp_path / name
    path.write_bytes(content.encode("latin-1" if "\xe9" in content
                                    else "utf-8"))
    if problem is not None:
        with pytest.raises(CorpusError) as exc:
            load_corpus(path)
        assert str(exc.value).endswith(problem)
        return
    (pair,) = load_corpus(path).pairs
    assert (pair.pair_id, pair.text_a, pair.text_b) == ("p1", "a b", "b c")


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


def test_empty_annotator_id_is_rejected(tmp_path):
    # an empty id would load as an annotator named "", whom a filter could
    # remove with no id to show for it
    pairs = write(tmp_path, "pairs.csv", PAIRS_CSV)
    ann = write(tmp_path, "ann.csv", ANNOTATIONS_CSV + "p2,,3,10\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(pairs, ann)
    assert str(exc.value) == \
        f"{ann} row 5: annotation with empty annotator_id"

    pairs = write(tmp_path, "pairs.jsonl",
                  '{"pair_id": "p1", "source": "", "is_random": false,'
                  ' "text_a": "one two", "text_b": "one three"}\n')
    ann = write(tmp_path, "ann.jsonl",
                '{"pair_id": "p1", "annotator_id": "w1", "label": 3,'
                ' "duration_seconds": 9.5}\n'
                '{"pair_id": "p1", "annotator_id": " \\t", "label": 3,'
                ' "duration_seconds": 9.5}\n')
    with pytest.raises(CorpusError) as exc:
        load_corpus(pairs, ann)
    assert str(exc.value) == \
        f"{ann} row 2: annotation with empty annotator_id"

    with pytest.raises(CorpusError) as exc:
        make_corpus([("p1", "a b", "c d")], [("p1", "w1", 3), ("p1", " ", 4)])
    assert str(exc.value) == "annotation with empty annotator_id"


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


@pytest.mark.parametrize("field", ["pair_id", "source", "text_a", "text_b",
                                   "annotator_id"])
@pytest.mark.parametrize("value, kind", [
    (None, "null"), (True, "a boolean"), (False, "a boolean"),
    (["x"], "an array"), ({"x": 1}, "an object")])
def test_jsonl_text_field_must_be_a_string_or_number(tmp_path, field, value,
                                                     kind):
    pair = {"pair_id": "p1", "source": "s", "is_random": 0,
            "text_a": "a b", "text_b": "b c"}
    ann = {"pair_id": "p1", "annotator_id": "w1", "label": 3,
           "duration_seconds": 1.0}
    if field == "annotator_id":
        name, ann = "ann.jsonl", dict(ann, annotator_id=value)
    else:
        name, pair = "pairs.jsonl", dict(pair, **{field: value})
    pairs = write(tmp_path, "pairs.jsonl", json.dumps(pair) + "\n")
    anns = write(tmp_path, "ann.jsonl", json.dumps(ann) + "\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(pairs, anns)
    assert str(exc.value) == (f"{tmp_path / name} row 1: {field} must be a"
                              f" string or a number, got {kind}")


def test_jsonl_numbers_in_text_fields_load_as_their_text(tmp_path):
    pairs = write(tmp_path, "pairs.jsonl",
                  '{"pair_id": 7, "source": 1.5, "is_random": 0,'
                  ' "text_a": 12, "text_b": "b c"}\n')
    ann = write(tmp_path, "ann.jsonl",
                '{"pair_id": 7, "annotator_id": 42, "label": 3,'
                ' "duration_seconds": 1.0}\n')
    corpus = load_corpus(pairs, ann)
    assert corpus.pairs == (SentencePair("7", "12", "b c", "1.5", False),)
    assert corpus.columns.annotator_ids == ("42",)


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


# ------------------------------------------------- per-pair score columns


def unsorted_corpus():
    """Pairs listed p10, p2, p1: sorted, they read p1, p10, p2."""
    return make_corpus([("p10", "a b", "a c"), ("p2", "d e", "d f"),
                        ("p1", "g h", "g i")], [])


def test_pair_scores_read_as_a_mapping_in_corpus_order():
    corpus = unsorted_corpus()
    scores = {"p1": 0.25, "p10": -1.5}
    column = attach_precomputed(corpus, "ext", scores).precomputed_scores["ext"]
    assert isinstance(column, PairScores)
    assert column == scores and scores == column
    assert column != {"p1": 0.25} and column != {**scores, "p2": 0.0}
    assert column["p10"] == -1.5 and type(column["p10"]) is float
    assert column.get("p1") == 0.25
    assert column.get("p2") is None and column.get("p2", 7.0) == 7.0
    assert column.get("nope", 7.0) == 7.0
    for undefined in ("p2", "nope"):  # a pair without a score, no pair
        with pytest.raises(KeyError):
            column[undefined]
        assert undefined not in column
    assert "p1" in column
    assert len(column) == 2
    assert list(column) == ["p10", "p1"]  # corpus order, not sorted
    assert list(column.items()) == [("p10", -1.5), ("p1", 0.25)]
    assert dict(column) == scores
    # the store: arrays over the corpus's pairs, in corpus order
    assert column.columns is corpus.columns
    assert corpus.columns.pair_ids == ("p10", "p2", "p1")
    assert column.data.tolist() == [-1.5, 0.0, 0.25]
    assert column.defined.tolist() == [True, False, True]


def test_pair_scores_converts_every_other_mapping_in_one_pass():
    corpus = attach_precomputed(unsorted_corpus(), "ext",
                                {"p1": 0.25, "p10": -1.5})
    column = corpus.precomputed_scores["ext"]
    assert pair_scores(corpus.columns, column) is column
    # a cut corpus holds its own channels; over the cut's pairs a
    # parent's channel is converted, and a pair outside the cut is left out
    cut = select_pairs(corpus, corpus.pairs[:2])  # p10, p2
    own = cut.precomputed_scores["ext"]
    assert own.columns is cut.columns and own == {"p10": -1.5}
    sub = pair_scores(cut.columns, column)
    assert sub.columns is cut.columns and sub == {"p10": -1.5}
    assert sub.data.tolist() == [-1.5, 0.0]
    # a dict: numbers read as floats; a pair outside the columns is left
    # out, or raises through ``unknown``, the first in the dict's order
    assert pair_scores(cut.columns, {"p2": 3, "zz": 1.0}) == {"p2": 3.0}
    with pytest.raises(KeyError, match="zz"):
        pair_scores(cut.columns, {"p2": 3.0, "zz": 1.0, "yy": 2.0},
                    unknown=KeyError)
    empty = pair_scores(cut.columns, {})
    assert len(empty) == 0 and empty == {} and list(empty) == []


def test_a_cut_corpus_cuts_each_channel_by_its_pairs():
    corpus = attach_precomputed(unsorted_corpus(), "ext",
                                {"p1": 0.25, "p10": -1.5})
    two_sided = pair_scores(corpus.columns, {"p2": (0.5, -0.5),
                                             "p1": (1.0, 0.0)})
    corpus = dataclasses.replace(corpus, precomputed_scores={
        **corpus.precomputed_scores, "sent": two_sided})
    cut = select_pairs(corpus, (corpus.pairs[2], corpus.pairs[1]))  # p1, p2
    ext, sent = cut.precomputed_scores["ext"], cut.precomputed_scores["sent"]
    assert ext.columns is cut.columns and sent.columns is cut.columns
    assert len(ext.data) == len(ext.defined) == 2 and ext == {"p1": 0.25}
    assert sent.data.shape == (2, 2)
    assert sent == {"p2": (0.5, -0.5), "p1": (1.0, 0.0)}
    # the parent's channels are left as they were
    assert corpus.precomputed_scores["ext"] == {"p1": 0.25, "p10": -1.5}


def test_annotations_read_back_as_a_tuple_of_the_columns_rows(tiny_corpus):
    rows = tiny_corpus.annotations
    c = tiny_corpus.columns
    assert type(rows) is tuple and len(rows) == len(c.pair) == 9
    assert rows == tiny_corpus.annotations  # made anew, equal each time
    assert rows[0] == Annotation("p1", "ann1", 5, 20.0)
    assert rows[-1] == rows[8] and rows[1:3] == (rows[1], rows[2])
    assert [(a.pair_id, a.annotator_id, a.label, a.duration)
            for a in rows] == [
        (c.pair_ids[p], c.annotator_ids[k], label, duration)
        for p, k, label, duration in zip(c.pair.tolist(),
                                         c.annotator.tolist(),
                                         c.label.tolist(),
                                         c.duration.tolist())]


def test_pair_scores_keeps_the_mapping_contract():
    corpus = attach_precomputed(unsorted_corpus(), "ext",
                                {"p1": 0.25, "p10": -1.5})
    column = corpus.precomputed_scores["ext"]
    plain = dict(column)
    assert list(column.keys()) == list(plain.keys())
    assert list(column.values()) == list(plain.values()) == [-1.5, 0.25]
    assert list(column.items()) == list(plain.items())
    assert column.get("p10") == plain.get("p10")
    assert column.get("p2", 7.0) == plain.get("p2", 7.0) == 7.0
    assert ("p1" in column) == ("p1" in plain) and "p2" not in column
    assert column == plain and len(column) == len(plain) == 2


def test_a_corpus_holds_each_channel_as_a_column_over_its_pairs():
    corpus = unsorted_corpus()
    made = dataclasses.replace(corpus, precomputed_scores={
        "x": {"p1": 0.25, "p10": -1.5}})
    scores = compute_metric_scores(made, ["x"])
    assert isinstance(scores["x"], PairScores)
    assert scores["x"].columns is made.columns
    assert scores["x"] == {"p1": 0.25, "p10": -1.5}
    cut = select_pairs(made, made.pairs[:2])  # p10, p2
    assert cut.precomputed_scores["x"] == {"p10": -1.5}
    # the constructor keeps a column already over the corpus's pairs
    again = dataclasses.replace(made, pairs=made.pairs)
    assert again.precomputed_scores["x"] is made.precomputed_scores["x"]
    with pytest.raises(CorpusError, match="channel 'y' references "
                                          "unknown pair 'zz'"):
        dataclasses.replace(corpus, precomputed_scores={"y": {"zz": 1.0}})


def test_a_channel_over_another_corpus_is_an_error():
    corpus, _ = generate_corpus(PopulationSpec(n_pairs=200, seed=3))
    halves = [select_pairs(corpus, corpus.pairs[:100]),
              select_pairs(corpus, corpus.pairs[100:])]
    half_a, half_b = (
        attach_precomputed(half, "x",
                           compute_metric_scores(half, ["bleu1"])["bleu1"])
        for half in halves)
    with pytest.raises(CorpusError) as exc:
        dataclasses.replace(half_a,
                            precomputed_scores=half_b.precomputed_scores)
    assert str(exc.value) == \
        "precomputed channel 'x' references unknown pair 'p0100'"
    # the half's own channel gives the report its number
    cut = select_pairs(half_a, half_a.pairs[:80])
    report = correlation_report(
        cut, compute_metric_scores(cut, ["x"]),
        compute_flag_reports(cut, list(HeuristicId)[:4]))
    assert report.baseline["x"].pearson == pytest.approx(0.890472, abs=1e-6)


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


DERIVED = ("pair_index", "is_random", "by_id", "by_pair")


def assert_same_columns(got: AnnotationColumns, want: AnnotationColumns):
    # the stored fields, then what the class derives from them
    names = [f.name for f in dataclasses.fields(AnnotationColumns)]
    for name in names + list(DERIVED):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        elif isinstance(b, dict):
            assert type(a) is dict and list(a.items()) == list(b.items()), \
                name
        else:
            assert type(a) is type(b) and a == b, name
    assert got == want


def test_columns_store_codes_and_derive_the_indexes(tmp_path):
    pairs = write(tmp_path, "pairs.csv", PAIRS_CSV)
    ann = write(tmp_path, "ann.csv",
                "pair_id,annotator_id,label,duration_seconds\n"
                "p2,w2,1,1\np1,w1,5,2\np2,w1,2,3\np1,w2,4,4\n")
    columns = load_corpus(pairs, ann).columns
    assert [f.name for f in dataclasses.fields(AnnotationColumns)] == [
        "pair_ids", "annotator_ids", "pair", "annotator", "label",
        "duration", "pair_is_random"]
    assert columns.pair.tolist() == [1, 0, 1, 0]
    assert columns.annotator.tolist() == [1, 0, 0, 1]
    assert columns.pair_is_random.tolist() == [False, True]
    assert columns.pair_index == {"p1": 0, "p2": 1}
    assert columns.is_random.tolist() == [True, False, True, False]
    assert columns.by_pair.tolist() == [1, 3, 0, 2]
    # derived once, then read from the instance
    assert columns.by_pair is columns.by_pair


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


def assert_one_pair_index(corpus):
    """The columns index pairs in corpus order; ``by_id`` and ``by_pair``
    give sorted-id order."""
    columns = corpus.columns
    ids = columns.pair_ids
    assert ids == tuple(p.pair_id for p in corpus.pairs)
    assert columns.pair_is_random.tolist() == \
        [p.is_random for p in corpus.pairs]
    assert [ids[i] for i in columns.by_id.tolist()] == sorted(ids)
    # rows grouped by pair, pairs in id order, a pair's rows in file order
    pair = columns.pair.tolist()
    assert columns.by_pair.tolist() == sorted(
        range(len(pair)), key=lambda row: (ids[pair[row]], row))


def assert_cut_matches_build(corpus, pairs, want):
    """``select_pairs(corpus, pairs)`` lists ``want``, its pairs once each
    in corpus order, with the columns ``build_corpus`` gives them."""
    sub = select_pairs(corpus, pairs)
    ids = {p.pair_id for p in want}
    built = build_corpus(want, [a for a in corpus.annotations
                                if a.pair_id in ids])
    assert sub.pairs == want
    assert_same_columns(sub.columns, built.columns)
    assert_one_pair_index(sub)


def test_columns_index_pairs_in_corpus_order(tmp_path):
    # out of id order; code-point order puts "B" before "a", "p10"
    # before "p2", and "z" before "\u00e9"
    ids = ["p2", "\u00e9", "p10", "a", "B", "z", "p1"]
    pairs_path = write(tmp_path, "pairs.csv",
                       "pair_id,source,is_random,text_a,text_b\n" + "".join(
                           f"{pid},s,{i % 2},x y,x z\n"
                           for i, pid in enumerate(ids)))
    ann_path = write(tmp_path, "ann.csv",
                     "pair_id,annotator_id,label,duration_seconds\n"
                     + "".join(f"{pid},w{k // len(ids)},{k % 5 + 1},1\n"
                               for k, pid in enumerate(ids[::-1] + ids)))
    loaded = load_corpus(pairs_path, ann_path)
    built = build_corpus(loaded.pairs, loaded.annotations)
    generated, _ = generate_corpus(PopulationSpec(n_pairs=30, seed=5))
    for corpus in (loaded, built, generated):
        assert_one_pair_index(corpus)
        pairs = corpus.pairs
        assert_cut_matches_build(corpus, pairs[::-1], pairs)
        assert_cut_matches_build(corpus, (pairs[4], pairs[1], pairs[4]),
                                 (pairs[1], pairs[4]))
        assert_cut_matches_build(corpus, pairs[::2], pairs[::2])
    assert loaded.columns.pair_ids == tuple(ids)
    assert loaded.columns.by_id.tolist() == [4, 3, 6, 2, 0, 5, 1]
    assert_same_columns(loaded.columns, built.columns)


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
    assert_same_columns(corpus.columns, build_corpus(pairs, want).columns)
    assert tuple(corpus.annotations) == want
