import pytest

from labelsim.corpus import (Annotation, CorpusError, SentencePair,
                             attach_precomputed, build_corpus, load_corpus,
                             load_precomputed, save_corpus)

from conftest import make_corpus

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
    assert corpus.annotator_ids() == ["w1", "w2"]


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
    assert corpus.annotations == ()


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
    assert again.annotations == tiny_corpus.annotations


def test_round_trip_jsonl(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path / "p.jsonl", tmp_path / "a.jsonl")
    again = load_corpus(tmp_path / "p.jsonl", tmp_path / "a.jsonl")
    assert again.pairs == tiny_corpus.pairs
    assert again.annotations == tiny_corpus.annotations


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
    with pytest.raises(CorpusError, match="outside 1-5"):
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
    with pytest.raises(CorpusError, match="unknown pair_id"):
        load_corpus(write(tmp_path, "pairs.csv", PAIRS_CSV),
                    write(tmp_path, "ann.csv", bad))


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


def test_precomputed_duplicate_row(tmp_path):
    path = write(tmp_path, "scores.csv",
                 "pair_id,score\np1,0.9\np1,0.8\n")
    with pytest.raises(CorpusError, match="duplicate pair_id"):
        load_precomputed(path)
