"""End-to-end tests of the command-line interface (in-process)."""

import csv
import dataclasses
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from labelsim import cli, correlate, embmetrics, simulate
from labelsim.cli import _build_heuristic_config, build_parser, main
from labelsim.corpus import CorpusError, load_corpus
from labelsim.heuristics import (HeuristicConfig, HeuristicId,
                                 default_scorers, heuristic_subsets,
                                 sentiment_qualifying_pairs, subset_label)
from labelsim.sentiment import load_lexicon

import oracles


OVERLAP_TEXTS = [
    ("red blue green", "red blue green"),   # overlap 1
    ("red blue green", "red blue oak"),     # overlap 1/2
    ("red blue green", "oak elm fir"),      # overlap 0
]


def write_corpus(tmp_path, with_radical=False):
    """Six pairs; 'good' is informative, 'junk' answers 3 to everything."""
    pairs_lines = ["pair_id,source,is_random,text_a,text_b"]
    ann_lines = ["pair_id,annotator_id,label,duration_seconds"]
    good_labels = [1, 2, 2, 4, 4, 5]
    rad_labels = [5, 3, 1, 5, 3, 1]  # tracks the overlap ladder exactly
    for i in range(6):
        pid = f"p{i + 1}"
        text_a, text_b = OVERLAP_TEXTS[i % 3]
        pairs_lines.append(f"{pid},s1,0,{text_a},{text_b}")
        ann_lines.append(f"{pid},good,{good_labels[i]},30")
        ann_lines.append(f"{pid},junk,3,30")
        if with_radical:
            ann_lines.append(f"{pid},rad,{rad_labels[i]},30")
    pairs = tmp_path / "pairs.csv"
    annotations = tmp_path / "annotations.csv"
    pairs.write_text("\n".join(pairs_lines) + "\n")
    annotations.write_text("\n".join(ann_lines) + "\n")
    return str(pairs), str(annotations)


def write_two_source_corpus(tmp_path):
    """Four pairs per source, wide label spread so each slice keeps its
    informative annotator under the low-variance filter."""
    ladder = OVERLAP_TEXTS + [("red blue green", "red oak elm")]
    pairs_lines = ["pair_id,source,is_random,text_a,text_b"]
    ann_lines = ["pair_id,annotator_id,label,duration_seconds"]
    good_labels = [1, 2, 4, 5]
    for i in range(8):
        pid = f"p{i + 1}"
        text_a, text_b = ladder[i % 4]
        source = "s1" if i < 4 else "s2"
        pairs_lines.append(f"{pid},{source},0,{text_a},{text_b}")
        ann_lines.append(f"{pid},good,{good_labels[i % 4]},30")
        ann_lines.append(f"{pid},junk,3,30")
    pairs = tmp_path / "pairs.csv"
    annotations = tmp_path / "annotations.csv"
    pairs.write_text("\n".join(pairs_lines) + "\n")
    annotations.write_text("\n".join(ann_lines) + "\n")
    return str(pairs), str(annotations)


def write_embeddings(tmp_path):
    rng = np.random.default_rng(5)
    words = ["red", "blue", "green", "oak", "elm", "fir"]
    lines = [w + " " + " ".join(f"{x:.6f}" for x in rng.normal(size=3))
             for w in words]
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# -------------------------------------------------------------- validate


def test_validate_ok(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["validate", "--pairs", pairs, "--annotations", annotations])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pairs: 6 (0 random)" in out
    assert "annotations: 12" in out
    assert "annotators: 2" in out
    assert "ok" in out


def test_report_names_the_pair_with_no_word_tokens(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    lines = open(pairs).read().splitlines()
    lines[4] = "p4,s1,0,red blue green,!!! ???"
    open(pairs, "w").write("\n".join(lines) + "\n")
    assert main(["validate", "--pairs", pairs,
                 "--annotations", annotations]) == 0
    assert "ok" in capsys.readouterr().out
    rc = main(["report", "--pairs", pairs, "--annotations", annotations,
               "--metrics", "lexical"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: pair 'p4': cannot score an empty "
                            "token sequence (text_b)\n")


def test_validate_names_the_file_and_row_of_a_bad_row(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    with open(annotations, "a") as fh:
        fh.write("p2,good,3,30\n")
    rc = main(["validate", "--pairs", pairs, "--annotations", annotations])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (f"error: {annotations} row 14: annotator 'good' "
                            "labeled pair 'p2' twice\n")


def test_validate_pairs_only(tmp_path, capsys):
    pairs, _ = write_corpus(tmp_path)
    rc = main(["validate", "--pairs", pairs])
    assert rc == 0
    assert "annotations: 0" in capsys.readouterr().out


def test_missing_file_is_data_error(tmp_path, capsys):
    rc = main(["validate", "--pairs", str(tmp_path / "nope.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


def _child_env():
    import os
    from pathlib import Path

    import labelsim

    # the child imports the same package this process is testing
    return dict(os.environ,
                PYTHONPATH=str(Path(labelsim.__file__).resolve().parents[1]))


def test_import_loads_no_scipy():
    import subprocess
    import sys

    code = ("import sys, labelsim, labelsim.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=_child_env(), capture_output=True,
                         text=True).stdout
    assert out.strip() == "[]"


def test_full_report_loads_no_scipy(tmp_path):
    """All 12 native metrics, WMD and the noun matching included, on numpy
    alone."""
    import subprocess
    import sys

    nouns = ["cat", "dog", "house", "tree", "car", "moon", "river", "bird"]
    rng = np.random.default_rng(3)
    pairs_lines = ["pair_id,source,is_random,text_a,text_b"]
    ann_lines = ["pair_id,annotator_id,label,duration_seconds"]
    for i in range(12):
        a = " ".join(rng.choice(nouns, size=4))
        b = " ".join(rng.choice(nouns, size=3))
        pairs_lines.append(f"p{i},s1,0,the {a},a {b}")
        for ann in ("x", "y", "z"):
            ann_lines.append(f"p{i},{ann},{rng.integers(1, 6)},30")
    (tmp_path / "pairs.csv").write_text("\n".join(pairs_lines) + "\n")
    (tmp_path / "ann.csv").write_text("\n".join(ann_lines) + "\n")
    (tmp_path / "vec.txt").write_text("".join(
        w + " " + " ".join(f"{x:.6f}" for x in rng.normal(size=4)) + "\n"
        for w in nouns + ["the", "a"]))
    argv = ["report", "--pairs", str(tmp_path / "pairs.csv"),
            "--annotations", str(tmp_path / "ann.csv"), "--metrics", "all",
            "--embeddings", str(tmp_path / "vec.txt"), "--heuristics", "all",
            "--out-format", "csv", "--out", str(tmp_path / "report.csv")]
    code = ("import sys; from labelsim.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, sorted(k for k in sys.modules if k.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"
    assert "warning" not in done.stderr
    rows = (tmp_path / "report.csv").read_text().splitlines()
    baseline = {r.split(",")[2]: r for r in rows if ",baseline," in r}
    for name in ("cosine", "l2", "wmd", "pos_dist"):
        assert baseline[name].split(",")[8] == "0"  # no pair dropped


def test_seed_and_jobs_are_not_report_options(tmp_path):
    pairs, annotations = write_corpus(tmp_path)
    base = ["report", "--pairs", pairs, "--annotations", annotations]
    for extra in (["--seed", "1"], ["--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2


def test_sinkhorn_knobs_are_not_report_options(tmp_path):
    pairs, annotations = write_corpus(tmp_path)
    base = ["report", "--pairs", pairs, "--annotations", annotations]
    for extra in (["--wmd-method", "sinkhorn"], ["--epsilon", "0.1"],
                  ["--max-iter", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2


def test_bad_usage_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])  # --pairs is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["stats", "--pairs", "p.csv", "--annotations", "a.csv",
     "--config", "c.cfg"],
    ["metrics", "--pairs", "p.csv", "--config", "c.cfg"],
    ["simulate", "--out-dir", "sim", "--out", "x"],
], ids=["stats --config", "metrics --config", "simulate --out"])
def test_options_no_handler_reads_are_usage_errors(tmp_path, monkeypatch,
                                                   argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("name, header, good, argv", [
    ("pairs", None, None, ["flag"]),
    ("annotations", None, None, ["flag"]),
    ("precomputed", "pair_id,score", "p1,0.5",
     ["metrics", "--metrics", "ext", "--precomputed", "ext=PATH"]),
    ("sentiment", "pair_id,score_a,score_b", "p1,0.5,0.5",
     ["flag", "--sentiment-file", "PATH"]),
    ("sent-embeddings", "pair_id,side,vector", "p1,a,1 2",
     ["metrics", "--metrics", "l2", "--sent-embeddings", "PATH"]),
    ("pos-tags", "pair_id,side,token_index,tag", "p1,a,0,NN",
     ["metrics", "--metrics", "pos_dist", "--embeddings", "EMB",
      "--pos-tags", "PATH"]),
    ("lexicon", "word,valence", "shiny,2.0", None),
], ids=["pairs", "annotations", "precomputed", "sentiment", "sent-embeddings",
        "pos-tags", "lexicon"])
def test_short_row_in_any_csv_input_names_file_and_row(
        tmp_path, capsys, name, header, good, argv):
    pairs, annotations = write_corpus(tmp_path)
    if header is None:
        path = Path(pairs if name == "pairs" else annotations)
        row = len(path.read_text().splitlines()) + 1
        path.write_text(path.read_text() + "p1,s1\n")
    else:
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{header}\n{good}\np1\n")
        row = 3
    expected = f"{path} row {row}: short row"
    if argv is None:  # the lexicon is read by the library, not the CLI
        with pytest.raises(CorpusError) as exc:
            load_lexicon(path)
        assert str(exc.value) == expected
        return
    embeddings = write_embeddings(tmp_path)
    rc = main(argv[:1] + ["--pairs", pairs, "--annotations", annotations]
              + [a.replace("PATH", str(path)).replace("EMB", embeddings)
                 for a in argv[1:]])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("name, body, message", [
    ("sent-embeddings", "pair_id,side,vector\nzz,a,1 2\nzz,b,3 4\n",
     "row 2: unknown pair 'zz'"),
    ("pos-tags", "pair_id,side,token_index,tag\nzz,a,0,NN\nzz,b,0,NN\n",
     "row 2: unknown pair 'zz'"),
    ("pos-tags", "pair_id,side,token_index,tag\np1,a,0,NN\np1,b,99,NN\n",
     "row 3: token_index 99 out of range; side b of 'p1' has 3 tokens"),
    ("pos-tags", "pair_id,side,token_index,tag\np1,a,-1,NN\n",
     "row 2: negative token_index -1"),
], ids=["sent-embeddings unknown pair", "pos-tags unknown pair",
        "pos-tags index too high", "pos-tags negative index"])
def test_side_files_are_checked_against_the_corpus(tmp_path, capsys, name,
                                                   body, message):
    # Loaded unchecked, each file would leave every l2 or pos_dist cell
    # empty and the command would exit 0.
    pairs, _ = write_corpus(tmp_path)
    path = tmp_path / f"{name}.csv"
    path.write_text(body)
    metric = "l2" if name == "sent-embeddings" else "pos_dist"
    rc = main(["metrics", "--pairs", pairs, "--metrics", metric,
               "--embeddings", write_embeddings(tmp_path),
               f"--{name}", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path} {message}\n"


def test_non_utf8_embeddings_file_is_data_error(tmp_path, capsys):
    pairs, _ = write_corpus(tmp_path)
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 1 2\ncaf\xe8 3 4\n")
    rc = main(["metrics", "--pairs", pairs, "--metrics", "cosine",
               "--embeddings", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path} line 1: not UTF-8\n"


def _latin1_pairs_csv(tmp_path):
    # 600 rows, the bad byte on line 451: past the first chunk the text
    # decoder reads, so its own error would give a position in that chunk
    lines = [b"pair_id,source,is_random,text_a,text_b"] + [
        b"p%03d,s1,0,red blue green,red blue oak" % i for i in range(600)]
    lines[450] = b"p449,s1,0,caf\xe9 au lait,red blue oak"
    path = tmp_path / "pairs.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path, ["validate", "--pairs", str(path)], 451


def _latin1_pairs_jsonl(tmp_path):
    rows = [json.dumps({"pair_id": f"p{i}", "source": "s1", "is_random": 0,
                        "text_a": "red blue", "text_b": "red oak"}).encode()
            for i in range(3)]
    rows[1] = rows[1].replace(b"red oak", b"caf\xe9")
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(b"\n".join(rows) + b"\n")
    return path, ["validate", "--pairs", str(path)], 2


def _latin1_precomputed(tmp_path):
    pairs, _ = write_corpus(tmp_path)
    path = tmp_path / "ext.csv"
    path.write_bytes(b"pair_id,score\np1,0.5\np2,0.4 caf\xe9\n")
    return path, ["metrics", "--pairs", pairs, "--precomputed", f"ext={path}",
                  "--metrics", "ext"], 3


@pytest.mark.parametrize("write", [_latin1_pairs_csv, _latin1_pairs_jsonl,
                                   _latin1_precomputed])
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, write):
    path, argv, line = write(tmp_path)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {path} line {line}: not UTF-8\n"


def test_corrupt_corpus_is_data_error(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("pair_id,source,is_random,text_a,text_b\np1,s,2,a,b\n")
    rc = main(["validate", "--pairs", str(pairs)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- stats


def write_comma_id_corpus(tmp_path):
    """write_corpus with the pair p1 renamed 'p,1' and the annotator junk
    renamed 'a,"x"'."""
    pairs, annotations = write_corpus(tmp_path)
    for path in (pairs, annotations):
        text = Path(path).read_text().replace("p1,", '"p,1",')
        Path(path).write_text(text.replace(",junk,", ',"a,""x""",'))
    return pairs, annotations


@pytest.mark.parametrize("argv, column, value", [
    (["stats"], "annotator_id", 'a,"x"'),
    (["flag", "--heuristics", "2"], "annotator_id", 'a,"x"'),
    (["metrics", "--metrics", "word_overlap"], "pair_id", "p,1"),
    (["flag", "--heuristics", "1,2", "--all-subsets"], "removed_annotators",
     'a,"x"'),
])
def test_csv_output_quotes_ids_that_need_it(tmp_path, capsys, argv, column,
                                            value):
    pairs, annotations = write_comma_id_corpus(tmp_path)
    assert main([*argv, "--pairs", pairs, "--annotations", annotations]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert all(len(row) == len(header) for row in rows)
    assert value in [row[header.index(column)] for row in rows[1:]]
    # quoting is what changes: every other row reads as before
    if argv[0] == "stats":
        assert out.splitlines()[1].startswith('"a,""x""",6,30.000000,')
    elif "--all-subsets" in argv:
        # the subset label keeps its hand quoting
        assert out.splitlines()[1:] == ['"[1]",0,', '"[2]",1,"a,""x"""',
                                        '"[1, 2]",1,"a,""x"""']
    elif argv[0] == "flag":
        assert out.splitlines()[1] == (
            '"a,""x""",2,2:label_variance=0.000000 vs 1')
        assert out.splitlines()[2] == "good,,"
    else:
        assert out.splitlines()[1:3] == ['"p,1",1.000000', "p2,0.500000"]



def test_stats_csv(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["stats", "--pairs", pairs, "--annotations", annotations])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("annotator_id,n_labels,mean_duration,")
    assert len(lines) == 3
    good_row = next(l for l in lines if l.startswith("good,"))
    junk_row = next(l for l in lines if l.startswith("junk,"))
    assert good_row.endswith(",Centrist")
    assert junk_row.endswith(",Excluded")
    assert ",2.000000," in good_row  # label variance of [1,2,2,4,4,5]
    assert ",0.000000," in junk_row


def test_stats_out_file(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    out_path = tmp_path / "stats.csv"
    rc = main(["stats", "--pairs", pairs, "--annotations", annotations,
               "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text().startswith("annotator_id,")


# ------------------------------------------------------------------ flag


def test_flag_reports_low_variance(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["flag", "--pairs", pairs, "--annotations", annotations])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "annotator_id,flags,evidence"
    junk_row = next(l for l in lines if l.startswith("junk,"))
    assert junk_row.split(",")[1] == "2"
    assert "2:label_variance=0.000000 vs 1" in junk_row
    good_row = next(l for l in lines if l.startswith("good,"))
    assert good_row.split(",")[1] == ""


def test_flag_heuristic_selection(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--heuristics", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    # slow flag never fires at 30s, so nobody carries any flag
    for line in out.strip().split("\n")[1:]:
        assert line.split(",")[1] == ""

    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--heuristics", "9"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "bad heuristic list" in captured.err


def test_flag_all_subsets(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--all-subsets"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "subset,n_removed,removed_annotators"
    assert len(lines) == 1 + 31
    assert lines[1] == '"[1]",0,'
    assert lines[2] == '"[2]",1,junk'

    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--all-subsets", "--heuristics", "1,2"])
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 1 + 3  # [1], [2], [1, 2]


def test_flag_all_subsets_matches_flag_reports(one_radical_corpus, capsys):
    pairs, annotations = one_radical_corpus
    capsys.readouterr()
    assert main(["flag", "--pairs", pairs, "--annotations", annotations,
                 "--all-subsets"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    corpus = load_corpus(pairs, annotations)
    cfg = HeuristicConfig()
    qualifying = sentiment_qualifying_pairs(corpus, default_scorers(cfg), cfg)
    reports = oracles.flag_reports(corpus, list(HeuristicId), cfg, qualifying)
    subsets = heuristic_subsets(HeuristicId)
    assert len(rows) == len(subsets)
    for row, subset in zip(rows, subsets):
        removed = sorted(aid for aid, report in reports.items()
                         if report.flags & set(subset))
        assert row == '"%s",%d,%s' % (subset_label(subset), len(removed),
                                      ";".join(removed))


@pytest.mark.parametrize("ids", [("junk", "a;b"), ("good", "a;b"),
                                 ("junk", "x;y", "good", "a;b")],
                         ids=["flagged", "not flagged", "two ids"])
def test_flag_all_subsets_refuses_an_id_holding_the_joiner(tmp_path, capsys,
                                                           ids):
    # ids a;b and c would read the same as a and b;c once joined, so the
    # command fails on the first such id in the pass, flagged or not
    pairs, annotations = write_corpus(tmp_path)
    path = Path(annotations)
    text = path.read_text()
    for old, new in zip(ids[::2], ids[1::2]):
        text = text.replace(f",{old},", f",{new},")
    path.write_text(text)
    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--all-subsets"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: annotator id 'a;b' contains ';', which "
                            "--all-subsets uses to join removed ids\n")
    # without --all-subsets nothing is joined, and the id is fine
    assert main(["flag", "--pairs", pairs, "--annotations", annotations]) == 0
    assert "a;b" in capsys.readouterr().out


def test_flag_and_report_read_the_sentiment_file_alike(tmp_path, capsys):
    # heuristic 5 is not selected, yet both commands check the file
    pairs, annotations = write_corpus(tmp_path)
    sentiment = tmp_path / "sentiment.csv"
    sentiment.write_text("pair_id,score_a,score_b\nzz,0.5,0.5\n")
    errors = []
    for argv in (["flag"], ["report", "--metrics", "bleu"]):
        rc = main([*argv, "--pairs", pairs, "--annotations", annotations,
                   "--heuristics", "2", "--sentiment-file", str(sentiment)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == [f"error: {sentiment} row 2: unknown pair 'zz'\n"] * 2


def write_tokenless_text_a(pairs):
    """Give pair p2 a text_a with no word tokens; validate still passes."""
    path = Path(pairs)
    lines = path.read_text().splitlines()
    lines[2] = "p2,s1,0,!!!,red blue oak"
    path.write_text("\n".join(lines) + "\n")


TOKENLESS_ERROR = ("error: pair 'p2': cannot score an empty token sequence "
                   "(text_a)\n")


def test_flag_names_the_pair_with_no_word_tokens(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    write_tokenless_text_a(pairs)
    assert main(["validate", "--pairs", pairs,
                 "--annotations", annotations]) == 0
    assert "ok" in capsys.readouterr().out
    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--heuristics", "5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == TOKENLESS_ERROR


@pytest.mark.parametrize("tokenless_p4", [False, True],
                         ids=["one tokenless pair", "two tokenless pairs"])
def test_flag_names_a_tokenless_pair_whose_overlap_is_not_scored(
        tmp_path, capsys, tokenless_p4):
    # p2's override gap is below the threshold, so its overlap is never
    # scored; p4 has no override and is scored.  The error still names
    # p2, the first tokenless pair in corpus order.
    pairs, annotations = write_corpus(tmp_path)
    write_tokenless_text_a(pairs)
    if tokenless_p4:
        path = Path(pairs)
        lines = path.read_text().splitlines()
        lines[4] = "p4,s1,0,red blue oak,'' ..."
        path.write_text("\n".join(lines) + "\n")
    sentiment = tmp_path / "sentiment.csv"
    sentiment.write_text("pair_id,score_a,score_b\np2,0.1,-0.1\n")
    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--heuristics", "5", "--sentiment-file", str(sentiment)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == TOKENLESS_ERROR


def test_metrics_names_the_pair_with_no_word_tokens(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    write_tokenless_text_a(pairs)
    rc = main(["metrics", "--pairs", pairs, "--metrics", "rouge2,chrf"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == TOKENLESS_ERROR
    # chrF alone reads no word tokens and scores the pair
    assert main(["metrics", "--pairs", pairs, "--metrics", "chrf"]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("p2,0.")


def test_style_report_names_the_pair_with_no_word_tokens(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path, with_radical=True)
    write_tokenless_text_a(pairs)
    channel = tmp_path / "ext.csv"
    channel.write_text("pair_id,score\n" + "".join(
        f"p{i},{i / 10}\n" for i in range(1, 7)))
    rc = main(["style-report", "--pairs", pairs, "--annotations", annotations,
               "--precomputed", f"ext={channel}", "--metrics", "ext"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == TOKENLESS_ERROR


@pytest.mark.parametrize("field", dataclasses.fields(HeuristicConfig),
                         ids=lambda f: f.name)
def test_every_heuristic_config_field_is_a_flag_and_a_config_key(
        field, tmp_path):
    # a valid value other than the default, of the default's type
    value = field.default + 1 if isinstance(field.default, int) \
        else field.default / 2
    argv = ["flag", "--pairs", "pairs.csv", "--annotations", "ann.csv"]
    flag = "--" + field.name.replace("_", "-")
    from_flag = _build_heuristic_config(
        build_parser().parse_args(argv + [flag, str(value)]))
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text(f"{field.name} = {value}\n")
    from_file = _build_heuristic_config(
        build_parser().parse_args(argv + ["--config", str(cfg)]))
    expected = dataclasses.replace(HeuristicConfig(), **{field.name: value})
    assert from_flag == from_file == expected
    assert type(getattr(from_flag, field.name)) is type(field.default)


def test_flag_config_file_and_flag_precedence(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text("# comment\nlow-variance-threshold = 0\n")
    # config: threshold 0, strict < never fires on variance 0
    main(["flag", "--pairs", pairs, "--annotations", annotations,
          "--config", str(cfg)])
    out = capsys.readouterr().out
    junk_row = next(l for l in out.strip().split("\n")
                    if l.startswith("junk,"))
    assert junk_row.split(",")[1] == ""
    # explicit flag beats the config file
    main(["flag", "--pairs", pairs, "--annotations", annotations,
          "--config", str(cfg), "--low-variance-threshold", "1"])
    out = capsys.readouterr().out
    junk_row = next(l for l in out.strip().split("\n")
                    if l.startswith("junk,"))
    assert junk_row.split(",")[1] == "2"
    # a flag does not excuse a bad line of the file for the same key
    cfg.write_text("low-variance-threshold = none\n")
    rc = main(["flag", "--pairs", pairs, "--annotations", annotations,
               "--config", str(cfg), "--low-variance-threshold", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (f"error: {cfg} line 1: low_variance_threshold: "
                            "expected a number, got 'none'\n")


def test_read_config_rejects_garbage(tmp_path, capsys):
    # a config key must name one of the command's settings, and its value
    # must be one that setting's flag takes
    pairs, annotations = write_corpus(tmp_path)
    cfg = tmp_path / "bad.cfg"
    flag = ["flag", "--pairs", pairs, "--annotations", annotations]
    sim = ["simulate", "--out-dir", str(tmp_path / "sim")]
    thresholds = ", ".join(f.name for f in dataclasses.fields(HeuristicConfig))
    population = ", ".join(
        f.name for f in dataclasses.fields(simulate.PopulationSpec))
    for argv, body, problem in (
            (flag, "this line has no equals sign\n",
             "line 1: expected key = value"),
            (flag, "slow_treshold = 45\n",
             f"line 1: unknown key 'slow_treshold'; expected one of "
             f"{thresholds}"),
            (flag, "slow_threshold = abc\n",
             "line 1: slow_threshold: expected a number, got 'abc'"),
            (flag, "# heuristic 5\nmin_sentiment_pairs = 2.5\n",
             "line 2: min_sentiment_pairs: expected an integer, got '2.5'"),
            (flag, "slow_threshold = 45\n# caf\xe9\n", "line 2: not UTF-8"),
            (sim, "seed = 3\n\nslow-threshold = 45\n",
             f"line 3: unknown key 'slow_threshold'; expected one of "
             f"{population}")):
        cfg.write_bytes(body.encode("latin-1"))
        assert main(argv + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg} {problem}\n"
    assert not (tmp_path / "sim").exists()


def test_flag_rejects_nan_threshold_from_flag_and_config(tmp_path, capsys):
    # a NaN threshold flags nobody, so it must fail, not print an empty
    # removal list
    pairs, annotations = write_corpus(tmp_path)
    argv = ["flag", "--pairs", pairs, "--annotations", annotations,
            "--heuristics", "1", "--all-subsets"]
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text("slow_threshold = nan\n")
    for extra in (["--slow-threshold", "nan"], ["--config", str(cfg)]):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: slow_threshold must be positive\n"


# --------------------------------------------------------------- metrics


def test_metrics_lexical_dump(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["metrics", "--pairs", pairs, "--metrics",
               "word_overlap,rouge1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "pair_id,word_overlap,rouge1"
    assert lines[1] == "p1,1.000000,1.000000"
    row3 = lines[3].split(",")
    assert row3[0] == "p3"
    assert row3[1] == "0.000000"


def test_metrics_warn_skips_embedding_metrics(tmp_path, capsys):
    pairs, _ = write_corpus(tmp_path)
    rc = main(["metrics", "--pairs", pairs])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning: skipping cosine, l2, wmd, pos_dist" in captured.err
    assert captured.out.startswith(
        "pair_id,word_overlap,bleu1,bleu,chrf,rouge1,rouge2,rougeL,meteor")


@pytest.mark.parametrize("command, metrics, skipped", [
    ("metrics", "cosine", "cosine"),
    ("report", "embedding", "cosine, l2, wmd, pos_dist"),
    ("style-report", "cosine,wmd", "cosine, wmd")])
def test_a_run_whose_every_metric_is_skipped_fails(tmp_path, capsys, command,
                                                   metrics, skipped):
    pairs, annotations = write_corpus(tmp_path)
    rc = main([command, "--pairs", pairs, "--annotations", annotations,
               "--metrics", metrics])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        f"warning: skipping {skipped}: no --embeddings file given\n"
        f"error: every requested metric was skipped: {skipped}\n")


def test_metrics_with_embeddings(tmp_path, capsys):
    pairs, _ = write_corpus(tmp_path)
    vectors = write_embeddings(tmp_path)
    rc = main(["metrics", "--pairs", pairs, "--metrics", "cosine,l2,wmd",
               "--embeddings", vectors])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "pair_id,cosine,l2,wmd"
    # identical sentences: cosine 1, zero distances, raw (unoriented) values
    assert lines[1] == "p1,1.000000,0.000000,0.000000"
    p3 = lines[3].split(",")
    assert float(p3[2]) > 0.0 and float(p3[3]) > 0.0


def test_metrics_env_var_supplies_embeddings(tmp_path, capsys, monkeypatch):
    pairs, _ = write_corpus(tmp_path)
    monkeypatch.setenv("LABELSIM_EMBEDDINGS", write_embeddings(tmp_path))
    rc = main(["metrics", "--pairs", pairs, "--metrics", "cosine"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" not in captured.err
    assert captured.out.splitlines()[1].startswith("p1,1.000000")


def test_metrics_embeddings_flag_beats_env_var(tmp_path, capsys,
                                               monkeypatch):
    pairs, _ = write_corpus(tmp_path)
    monkeypatch.setenv("LABELSIM_EMBEDDINGS", str(tmp_path / "missing.txt"))
    rc = main(["metrics", "--pairs", pairs, "--metrics", "cosine",
               "--embeddings", write_embeddings(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert captured.out.splitlines()[1].startswith("p1,1.000000")


def test_metrics_unknown_metric(tmp_path, capsys):
    pairs, _ = write_corpus(tmp_path)
    rc = main(["metrics", "--pairs", pairs, "--metrics", "nope"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown metric 'nope'" in captured.err


def test_metrics_precomputed_channel(tmp_path, capsys):
    pairs, _ = write_corpus(tmp_path)
    channel = tmp_path / "ext.csv"
    channel.write_text("pair_id,score\np1,0.9\np2,0.5\np3,0.1\n"
                       "p4,0.9\np5,0.5\np6,0.1\n")
    rc = main(["metrics", "--pairs", pairs,
               "--precomputed", f"ext={channel}", "--metrics", "ext"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "pair_id,ext"
    assert out.splitlines()[1] == "p1,0.900000"


def test_precomputed_unknown_pair_names_file_and_row(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    channel = tmp_path / "ext.csv"
    channel.write_text("pair_id,score\np1,0.9\np9,0.5\n")
    for argv in (["metrics", "--pairs", pairs],
                 ["report", "--pairs", pairs, "--annotations", annotations]):
        rc = main([*argv, "--precomputed", f"ext={channel}",
                   "--metrics", "ext"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {channel} row 3: unknown pair 'p9'\n"


def test_precomputed_channel_may_not_take_a_native_name(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    channel = tmp_path / "ch.csv"
    channel.write_text("pair_id,score\np1,0.9\np2,0.5\np3,0.1\n")
    for argv in (["metrics", "--pairs", pairs, "--metrics", "lexical"],
                 ["report", "--pairs", pairs, "--annotations", annotations,
                  "--metrics", "chrf"]):
        rc = main([*argv, "--precomputed", f"chrf={channel}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "error: --precomputed chrf: a native metric has that name\n")


def test_precomputed_distance_must_name_an_attached_channel(tmp_path,
                                                            capsys):
    pairs, annotations = write_corpus(tmp_path)
    channel = tmp_path / "ch.csv"
    channel.write_text("pair_id,score\np1,0.9\np2,0.5\np3,0.1\n")
    argv = ["--pairs", pairs, "--annotations", annotations,
            "--metrics", "word_overlap", "--precomputed-distance", "exd"]
    for command, attached in (("report", "ext"), ("style-report", "ext"),
                              ("metrics", None)):
        extra = ["--precomputed", f"ext={channel}"] if attached else []
        rc = main([command, *argv, *extra])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "error: --precomputed-distance exd: no precomputed channel has "
            f"that name (attached: {attached or 'none'})\n")


# ---------------------------------------------------------------- report


def test_report_text_default(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["report", "--pairs", pairs, "--annotations", annotations,
               "--metrics", "word_overlap,chrf", "--heuristics", "1,2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("Correlation report (all annotators)")
    assert "baseline" in out
    assert "[1, 2]" in out
    assert "%" in out


def test_report_csv_structure(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    rc = main(["report", "--pairs", pairs, "--annotations", annotations,
               "--metrics", "word_overlap", "--heuristics", "2",
               "--out-format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("panel,filter,metric,pearson,")
    # one metric, baseline plus the single [2] subset
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "baseline"
    assert lines[2].split(",")[1] == "2"
    assert lines[2].split(",")[-1] == "1"  # junk removed


def test_report_json_and_out_file(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    out_path = tmp_path / "report.json"
    rc = main(["report", "--pairs", pairs, "--annotations", annotations,
               "--metrics", "word_overlap", "--heuristics", "2",
               "--out-format", "json", "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "ok"
    assert doc["metrics"] == ["word_overlap"]
    assert doc["subsets"][0]["removed_annotators"] == ["junk"]


def test_report_nan_precomputed_channel_is_an_error(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    channel = tmp_path / "ext.csv"
    channel.write_text("pair_id,score\np1,0.9\np2,0.5\np3,nan\n"
                       "p4,0.9\np5,0.5\np6,0.1\n")
    rc = main(["report", "--pairs", pairs, "--annotations", annotations,
               "--precomputed", f"ext={channel}", "--metrics", "ext",
               "--heuristics", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert f"error: {channel} row 4: expected a finite number, got 'nan'" \
        in captured.err


def write_zero_baseline_corpus(tmp_path):
    """Four pairs with gold means 4.5, 2.5, 1.5, 2.5, and two channels:
    ``ext`` has Spearman exactly 0 with gold, ``orth`` both statistics."""
    labels = {"x": [5, 3, 1, 2], "y": [4, 2, 2, 3]}
    pairs = tmp_path / "pairs.csv"
    annotations = tmp_path / "annotations.csv"
    pairs.write_text("pair_id,source,is_random,text_a,text_b\n" + "".join(
        f"p{i},s1,0,red blue,green oak\n" for i in range(4)))
    annotations.write_text(
        "pair_id,annotator_id,label,duration_seconds\n" + "".join(
            f"p{i},{aid},{labels[aid][i]},30\n"
            for i in range(4) for aid in labels))
    argv = ["--pairs", str(pairs), "--annotations", str(annotations)]
    for name, values in (("ext", [0.5, 0.1, 0.5, 0.5]),
                         ("orth", [1.0, 0.0, 1.0, 2.0])):
        path = tmp_path / f"{name}.csv"
        path.write_text("pair_id,score\n" + "".join(
            f"p{i},{v}\n" for i, v in enumerate(values)))
        argv += ["--precomputed", f"{name}={path}"]
    return argv


def test_report_with_a_zero_baseline_has_no_percent_change(tmp_path,
                                                           capsys):
    argv = ["report", *write_zero_baseline_corpus(tmp_path),
            "--metrics", "ext,orth", "--heuristics", "1"]
    assert main([*argv, "--out-format", "csv"]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:]]
    cells = {(r[1], r[2]): r[3:7] for r in rows}
    assert cells["baseline", "ext"][1] == "0.000000"
    assert cells["1", "ext"][2:] == ["0.00", ""]  # nobody is slow
    assert cells["baseline", "orth"][:2] == ["0.000000", "0.000000"]
    assert cells["1", "orth"][2:] == ["", ""]

    assert main([*argv, "--out-format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baseline"]["ext"]["spearman"] == 0.0
    ext, orth = (doc["subsets"][0]["cells"][name] for name in ("ext", "orth"))
    assert (ext["pearson_pct"], ext["spearman_pct"]) == (0.0, None)
    assert (orth["pearson_pct"], orth["spearman_pct"]) == (None, None)

    assert main([*argv, "--out-format", "text"]) == 0
    row = capsys.readouterr().out.splitlines()[3]
    assert row.split()[-4:] == ["0.1325", "(+0.0%)", "0.0000", "(n/a)"]


@pytest.mark.parametrize("metric, message", [
    ("wmd", "costs must be finite and non-negative"),
    ("pos_dist", "matching costs must be finite")])
def test_report_fails_on_a_solver_error(tmp_path, capsys, monkeypatch,
                                       metric, message):
    # oak's squared distances overflow: an error, not a dropped pair.  The
    # loader rejects so large a vector, so it goes into the loaded table.
    pairs, annotations = write_corpus(tmp_path)
    words = ["red", "blue", "green", "oak", "elm", "fir"]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(
        f"{w} {i} {i % 2} 1\n" for i, w in enumerate(words)))
    load_embeddings = embmetrics.load_embeddings

    def load_with_a_huge_oak(path, vocab_filter=None):
        table = load_embeddings(path, vocab_filter)
        table["oak"] = np.array([1e200, 1.0, 1.0])
        return table

    monkeypatch.setattr(embmetrics, "load_embeddings", load_with_a_huge_oak)
    nouns = tmp_path / "nouns.txt"
    nouns.write_text("\n".join(words) + "\n")
    with np.errstate(over="ignore"):
        rc = main(["report", "--pairs", pairs, "--annotations", annotations,
                   "--metrics", metric, "--embeddings", str(vectors),
                   "--noun-lexicon", str(nouns), "--out-format", "csv"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: pair 'p2': {message}\n"


@pytest.mark.parametrize("metric", ["cosine", "l2", "wmd"])
def test_embedding_vector_too_large_is_a_load_error(tmp_path, capsys, metric):
    pairs, _ = write_corpus(tmp_path)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("red 1 0\nblue 0 1\ngreen 1 1\noak 1e200 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        rc = main(["metrics", "--pairs", pairs, "--metrics", metric,
                   "--embeddings", str(vectors)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (f"error: {vectors} line 4: vector too large: "
                            "its squared norm overflows distance "
                            "arithmetic\n")


def write_unanimous_pair_corpus(tmp_path, annotators=("a", "b", "c")):
    """Five pairs on an overlap ladder; 'a' labels them 1-5 and overrules
    'b' and 'c', who give every pair a 3."""
    texts = OVERLAP_TEXTS + [("red blue green", "red oak elm"),
                             ("red blue green", "red blue green oak")]
    pairs = tmp_path / "pairs.csv"
    annotations = tmp_path / "annotations.csv"
    pairs.write_text("pair_id,source,is_random,text_a,text_b\n" + "".join(
        f"p{i},s1,0,{a},{b}\n" for i, (a, b) in enumerate(texts)))
    annotations.write_text(
        "pair_id,annotator_id,label,duration_seconds\n" + "".join(
            f"p{i},{aid},{i + 1 if aid == 'a' else 3},30\n"
            for i in range(5) for aid in annotators))
    return ["--pairs", str(pairs), "--annotations", str(annotations)]


def test_report_subset_with_constant_gold_is_undefined(tmp_path, capsys):
    # heuristic 4 removes 'a'; the gold left is 3 on every pair
    argv = ["report", *write_unanimous_pair_corpus(tmp_path),
            "--metrics", "bleu1", "--heuristics", "4"]
    assert main([*argv, "--out-format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "all annotators,baseline,bleu1,-0.338643,-0.300000,,,5,0,"
    assert rows[2] == "all annotators,4,bleu1,,,,,5,,1"

    assert main([*argv, "--out-format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["subsets"]
    assert row["removed_annotators"] == ["a"]
    assert row["cells"]["bleu1"] == {
        "pearson": None, "spearman": None, "n_pairs": 5,
        "pearson_pct": None, "spearman_pct": None}

    assert main([*argv, "--out-format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[3].split() == ["[4]", "n/a"]


@pytest.mark.parametrize("extra, message", [
    ([], "all annotators: metric 'bleu1': correlation undefined: "
         "an input is constant"),
    (["--precomputed", "k={const}", "--metrics", "bleu1,k"],
     "all annotators: metric 'k': correlation undefined: "
     "an input is constant"),
    (["--per-dataset"],
     "dataset t: metric 'bleu1': correlation needs at least 3 observations"),
])
def test_report_baseline_error_names_panel_and_metric(tmp_path, capsys,
                                                      extra, message):
    const = tmp_path / "const.csv"
    const.write_text("pair_id,score\n" + "".join(
        f"p{i},0.5\n" for i in range(5)))
    if not extra:  # only the unanimous 3s: the baseline gold is constant
        corpus = write_unanimous_pair_corpus(tmp_path, annotators=("b", "c"))
    else:
        corpus = write_unanimous_pair_corpus(tmp_path)
    if "--per-dataset" in extra:  # p3 and p4 come from a source 't'
        pairs = Path(corpus[1])
        lines = pairs.read_text().splitlines()
        for i in (4, 5):
            lines[i] = lines[i].replace(",s1,", ",t,")
        pairs.write_text("\n".join(lines) + "\n")
    rc = main(["report", *corpus, "--metrics", "bleu1", "--heuristics", "4",
               *[arg.format(const=const) for arg in extra]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def write_scaled_channel_corpus(tmp_path, exponent):
    """Six pairs: 'r1' and 'r2' label p0-p4, and 'slow' alone labels p5.
    The channel 'ext' is 1 ... 5 times ``10**exponent`` on p0-p4, written
    as ``1e<exponent>`` and so on, and 1.0 on p5."""
    r1, r2 = [1, 2, 3, 4, 5], [2, 4, 1, 3, 5]
    pairs = tmp_path / "pairs.csv"
    annotations = tmp_path / "annotations.csv"
    ext = tmp_path / f"ext{exponent}.csv"
    pairs.write_text("pair_id,source,is_random,text_a,text_b\n" + "".join(
        f"p{i},s1,0,a b c,a b d\n" for i in range(6)))
    annotations.write_text(
        "pair_id,annotator_id,label,duration_seconds\n"
        + "".join(f"p{i},r1,{r1[i]},10\np{i},r2,{r2[i]},10\n"
                  for i in range(5))
        + "p5,slow,5,900\n")
    ext.write_text("pair_id,score\n"
                   + "".join(f"p{i},{i + 1}e{exponent}\n" for i in range(5))
                   + "p5,1.0\n")
    return ["--pairs", str(pairs), "--annotations", str(annotations),
            "--precomputed", f"ext={ext}", "--metrics", "ext",
            "--heuristics", "1"]


def test_report_subset_at_1e_170_scale_matches_unit_scale(tmp_path,
                                                          capsys):
    # heuristic 1 removes 'slow' and with it p5: the five values left
    # square to subnormals or zero unless pearson scales them first
    rows = {}
    for exponent in (-170, 0):
        argv = ["report", *write_scaled_channel_corpus(tmp_path, exponent)]
        assert main([*argv, "--out-format", "csv"]) == 0
        rows[exponent] = list(csv.DictReader(
            io.StringIO(capsys.readouterr().out)))
    baseline, row = rows[-170]
    assert baseline["filter"] == "baseline"
    assert baseline["pearson"] == "0.554700"
    assert baseline["n_pairs"] == "6"
    assert row["filter"] == "1"
    assert row["removed_annotators"] == "1"
    unit_row = rows[0][1]
    assert [row[k] for k in ("pearson", "spearman", "n_pairs")] == \
        [unit_row[k] for k in ("pearson", "spearman", "n_pairs")] == \
        ["0.866025", "0.900000", "5"]


def test_report_pearson_does_not_depend_on_channel_scale(tmp_path, capsys):
    pairs, annotations = write_unanimous_pair_corpus(tmp_path)[1::2]
    outputs = {}
    for exponent in (0, 200, -170):
        channel = tmp_path / f"ext{exponent}.csv"
        channel.write_text("pair_id,score\n" + "".join(
            f"p{i},{v}e{exponent}\n" for i, v in enumerate([1, 3, 2, 5, 4])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            rc = main(["report", "--pairs", pairs, "--annotations",
                       annotations, "--precomputed", f"ext={channel}",
                       "--metrics", "ext", "--heuristics", "4",
                       "--out-format", "csv"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        outputs[exponent] = captured.out
    assert outputs[200] == outputs[-170] == outputs[0]
    baseline = next(csv.DictReader(io.StringIO(outputs[0])))
    assert baseline["pearson"] == "0.800000"


def test_report_runs_are_byte_identical(tmp_path):
    pairs, annotations = write_corpus(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    argv = ["report", "--pairs", pairs, "--annotations", annotations,
            "--metrics", "lexical", "--out-format", "csv"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_per_dataset(tmp_path, capsys):
    pairs, annotations = write_two_source_corpus(tmp_path)
    rc = main(["report", "--pairs", pairs, "--annotations", annotations,
               "--metrics", "word_overlap,chrf", "--heuristics", "2",
               "--per-dataset"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Correlation report (dataset s1)" in out
    assert "Correlation report (dataset s2)" in out


def test_report_per_dataset_json_is_one_document(tmp_path, capsys):
    pairs, annotations = write_two_source_corpus(tmp_path)
    argv = ["report", "--pairs", pairs, "--annotations", annotations,
            "--metrics", "word_overlap,chrf", "--heuristics", "2",
            "--out-format", "json"]
    assert main([*argv, "--per-dataset"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"s1", "s2"}
    for source in ("s1", "s2"):
        assert doc[source]["label"] == f"dataset {source}"
        assert doc[source]["n_pairs"] == 4
    # one panel keeps the report's own object, not one keyed by panel
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "all annotators"


@pytest.mark.parametrize("command, extra, panels", [
    ("report", ["--per-dataset"], ["dataset s1", "dataset s2"]),
    ("style-report", [], ["Radical-only gold", "Centrist-only gold"]),
])
def test_multi_panel_csv_has_one_header(tmp_path, capsys, command, extra,
                                        panels):
    if command == "report":
        pairs, annotations = write_two_source_corpus(tmp_path)
    else:
        pairs, annotations = write_corpus(tmp_path, with_radical=True)
    assert main([command, "--pairs", pairs, "--annotations", annotations,
                 "--metrics", "word_overlap,chrf", "--heuristics", "2",
                 "--out-format", "csv", *extra]) == 0
    out = capsys.readouterr().out
    assert out.count("panel,filter,metric,") == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    # per panel: 2 metrics x (baseline + subset [2])
    assert [r["panel"] for r in rows] == [p for p in panels for _ in range(4)]
    assert [r["filter"] for r in rows] == ["baseline"] * 2 + ["2"] * 2 \
        + ["baseline"] * 2 + ["2"] * 2


def test_report_csv_quotes_panel_and_metric_names(tmp_path, capsys):
    # a channel name holding ',' and a source holding '"' and a line
    # break: every field still reads back under its own header
    ladder = OVERLAP_TEXTS + [("red blue green", "red oak elm")]
    odd = 'src "q"\nx'
    pairs = tmp_path / "pairs.csv"
    annotations = tmp_path / "annotations.csv"
    channel = tmp_path / "ext.csv"
    with pairs.open("w", newline="") as fp, \
            annotations.open("w", newline="") as fa, \
            channel.open("w", newline="") as fc:
        pair_rows, ann_rows, score_rows = (csv.writer(f)
                                           for f in (fp, fa, fc))
        pair_rows.writerow(["pair_id", "source", "is_random", "text_a",
                            "text_b"])
        ann_rows.writerow(["pair_id", "annotator_id", "label",
                           "duration_seconds"])
        score_rows.writerow(["pair_id", "score"])
        for i in range(8):
            pid = f"p{i + 1}"
            pair_rows.writerow([pid, "plain" if i < 4 else odd, 0,
                                *ladder[i % 4]])
            ann_rows.writerow([pid, "good", [1, 2, 4, 5][i % 4], 30])
            ann_rows.writerow([pid, "junk", 3, 30])
            score_rows.writerow([pid, [0.9, 0.6, 0.1, 0.4][i % 4]])
    base = ["--pairs", str(pairs), "--annotations", str(annotations),
            "--precomputed", f"a,b={channel}"]
    assert main(["report", *base, "--metrics", "lexical", "--heuristics", "2",
                 "--out-format", "csv", "--per-dataset"]) == 0
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert reader.fieldnames == [
        "panel", "filter", "metric", "pearson", "spearman", "pearson_pct",
        "spearman_pct", "n_pairs", "dropped_pairs", "removed_annotators"]
    assert rows and all(None not in row and None not in row.values()
                        for row in rows)
    assert {r["panel"] for r in rows} == {"dataset plain", f"dataset {odd}"}
    assert {r["metric"] for r in rows} == {*correlate.LEXICAL_METRICS, "a,b"}
    assert {r["filter"] for r in rows} == {"baseline", "2"}
    for row in rows:
        float(row["pearson"])
        assert row["n_pairs"] == "4"
        assert row["dropped_pairs" if row["filter"] == "baseline"
                   else "removed_annotators"] in ("0", "1")
    # metrics writes the channel's name the same way
    assert main(["metrics", *base, "--metrics", "lexical"]) == 0
    header = next(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert header[-1] == "a,b"


def test_dropped_pairs_of_a_partial_distance_channel(tmp_path, capsys):
    # the channel lacks p2 and p7, one pair of each source
    pairs, annotations = write_two_source_corpus(tmp_path)
    channel = tmp_path / "ext.csv"
    channel.write_text("pair_id,score\n" + "".join(
        f"p{i},{0.1 * i * i % 1.7:.3f}\n" for i in (1, 3, 4, 5, 6, 8)))
    argv = ["--pairs", pairs, "--annotations", annotations,
            "--precomputed", f"ext={channel}", "--precomputed-distance", "ext",
            "--metrics", "word_overlap,ext", "--heuristics", "2"]

    def baseline(out):
        # (panel, metric) -> (n_pairs, dropped_pairs)
        return {(r[0], r[2]): (r[7], r[8]) for r in
                (line.split(",") for line in out.splitlines())
                if r[1] == "baseline"}

    assert main(["report", *argv, "--out-format", "csv"]) == 0
    assert baseline(capsys.readouterr().out) == {
        ("all annotators", "word_overlap"): ("8", "0"),
        ("all annotators", "ext"): ("6", "2")}
    assert main(["report", *argv, "--out-format", "csv",
                 "--per-dataset"]) == 0
    assert baseline(capsys.readouterr().out) == {
        (f"dataset {s}", name): counts for s in ("s1", "s2")
        for name, counts in (("word_overlap", ("4", "0")),
                             ("ext", ("3", "1")))}
    assert main(["style-report", *argv, "--out-format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for panel in ("radical", "centrist"):
        assert doc[panel]["dropped_pairs"] == {"ext": 2, "word_overlap": 0}


def test_report_per_annotation_gold(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path)
    argv = ["report", "--pairs", pairs, "--annotations", annotations,
            "--metrics", "word_overlap", "--heuristics", "2",
            "--out-format", "json"]
    assert main(argv) == 0
    mean_doc = json.loads(capsys.readouterr().out)
    assert main(argv + ["--per-annotation-gold"]) == 0
    per_doc = json.loads(capsys.readouterr().out)
    # per-annotation gold doubles the observations, changing the estimate
    assert mean_doc["baseline"]["word_overlap"]["pearson"] != \
        per_doc["baseline"]["word_overlap"]["pearson"]


def test_style_report_text(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path, with_radical=True)
    rc = main(["style-report", "--pairs", pairs,
               "--annotations", annotations,
               "--metrics", "word_overlap", "--heuristics", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Correlation report (Radical-only gold)" in out
    assert "Correlation report (Centrist-only gold)" in out


@pytest.mark.parametrize("command, extra, sizes", [
    ("style-report", [], [8]),  # both panels read one pass
    ("report", [], [8]),
    ("report", ["--per-dataset"], [4, 4]),  # one pass per source corpus
], ids=["style-report", "report", "report-per-dataset"])
def test_report_runs_one_flag_pass_per_corpus(tmp_path, capsys, monkeypatch,
                                              command, extra, sizes):
    made = []
    real = cli.compute_flag_reports

    def counting(corpus, *args, **kwargs):
        made.append(len(corpus.pairs))
        return real(corpus, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_flag_reports", counting)
    pairs, annotations = write_two_source_corpus(tmp_path)
    assert main([command, "--pairs", pairs, "--annotations", annotations,
                 "--metrics", "word_overlap", "--heuristics", "1,2",
                 *extra]) == 0
    assert made == sizes


@pytest.fixture(scope="module")
def one_radical_corpus(tmp_path_factory):
    """Default simulated population, seed 3: the Radical panel is a single
    annotator whom some filter subsets remove."""
    out_dir = tmp_path_factory.mktemp("sim3")
    assert main(["simulate", "--out-dir", str(out_dir), "--n-pairs", "600",
                 "--seed", "3"]) == 0
    return str(out_dir / "pairs.csv"), str(out_dir / "annotations.csv")


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_style_report_survives_an_emptied_panel(one_radical_corpus, fmt,
                                                capsys):
    pairs, annotations = one_radical_corpus
    capsys.readouterr()
    rc = main(["style-report", "--pairs", pairs, "--annotations", annotations,
               "--metrics", "lexical", "--out-format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    if fmt == "csv":
        rows = [line.split(",") for line in out.splitlines()
                if line.startswith("Radical")]
        undefined = [r for r in rows if r[3] == ""]
        assert undefined and all(r[1] != "baseline" for r in undefined)
        assert all(r[3:7] == ["", "", "", ""] and r[7] == "0"
                   for r in undefined)
        assert all(r[3] != "" for r in rows if r[1] == "baseline")
    elif fmt == "json":
        radical = json.loads(out)["radical"]
        assert radical["status"] == "ok"
        assert all(c["pearson"] is not None
                   for c in radical["baseline"].values())
        cells = [c for row in radical["subsets"] for c in row["cells"].values()]
        assert any(c["pearson"] is None and c["pearson_pct"] is None
                   for c in cells)
    else:
        assert "n/a" in out


def test_style_report_json(tmp_path, capsys):
    pairs, annotations = write_corpus(tmp_path, with_radical=True)
    rc = main(["style-report", "--pairs", pairs,
               "--annotations", annotations,
               "--metrics", "word_overlap", "--heuristics", "2",
               "--out-format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"radical", "centrist"}
    assert doc["radical"]["label"] == "Radical-only gold"
    assert doc["centrist"]["status"] == "ok"


_CORPUS = ["-h", "--help", "--pairs", "--annotations", "--format"]
_THRESHOLDS = ["--slow-threshold", "--low-variance-threshold",
               "--disagreement-threshold", "--overlap-threshold",
               "--sentiment-gap-threshold", "--sentiment-variance-threshold",
               "--overlap-bleu-order", "--min-sentiment-pairs"]
_METRICS = ["--metrics", "--embeddings", "--sent-embeddings", "--pos-tags",
            "--noun-lexicon", "--precomputed", "--precomputed-distance",
            "--overlap-mode", "--pos-aggregate"]
_REPORT = [*_CORPUS, "--config", "--out", *_METRICS, "--heuristics",
           "--out-format", "--sentiment-file"]


@pytest.mark.parametrize("command, options", [
    ("validate", _CORPUS),
    ("stats", [*_CORPUS, "--out", "--style-variance-excludes-midpoint"]),
    ("flag", [*_CORPUS, "--config", "--out", "--heuristics", "--all-subsets",
              "--sentiment-file", *_THRESHOLDS]),
    ("metrics", [*_CORPUS, "--out", *_METRICS]),
    ("report", [*_REPORT, "--per-dataset", "--per-annotation-gold",
                *_THRESHOLDS]),
    ("style-report", [*_REPORT, "--style-variance-excludes-midpoint",
                      *_THRESHOLDS]),
    ("simulate", ["-h", "--help", "--config", "--out-dir", "--seed",
                  "--n-pairs", "--fraction-random", "--profiles",
                  "--annotators-per-pair", "--min-tokens", "--max-tokens"]),
])
def test_help_lists_every_option_in_a_fixed_order(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # after the usage block, each option's line starts two spaces in
    body = capsys.readouterr().out.split("\n\n", 1)[1]
    listed = [opt for line in re.findall(r"(?m)^  (-.*?)(?:  |$)", body)
              for opt in (part.split()[0] for part in line.split(", "))]
    assert listed == options


# -------------------------------------------------------------- simulate


def test_simulate_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    rc = main(["simulate", "--out-dir", str(out_dir), "--n-pairs", "40",
               "--profiles", "reliable:4:0.3,constant:1:3", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote 40 pairs" in captured.out
    for name in ("pairs.csv", "annotations.csv",
                 "truth_annotators.csv", "truth_pairs.csv"):
        assert (out_dir / name).exists()
    # the output is itself a loadable corpus
    rc = main(["validate", "--pairs", str(out_dir / "pairs.csv"),
               "--annotations", str(out_dir / "annotations.csv")])
    assert rc == 0
    assert "pairs: 40" in capsys.readouterr().out


def test_simulate_is_seed_deterministic(tmp_path):
    argv = ["simulate", "--n-pairs", "30",
            "--profiles", "reliable:3:0.3,uniform:1", "--seed", "9"]
    assert main(argv + ["--out-dir", str(tmp_path / "one")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "two")]) == 0
    for name in ("pairs.csv", "annotations.csv", "truth_annotators.csv",
                 "truth_pairs.csv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_simulate_bad_profiles(tmp_path, capsys):
    for profile in ("wizard:3", "reliable:x", "reliable:3:y", "reliable",
                    "reliable:3:0.5:1"):
        rc = main(["simulate", "--out-dir", str(tmp_path / "sim"),
                   "--profiles", profile])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (f"error: bad profile {profile!r}; "
                                "expected kind:count[:param]\n")


def test_simulate_bad_profiles_in_config_name_file_and_line(tmp_path,
                                                            capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("seed = 5\nprofiles = wizard:3\n")
    out_dir = tmp_path / "sim"
    # a flag does not excuse a bad line of the file for the same key
    for extra in ([], ["--profiles", "reliable:3"]):
        rc = main(["simulate", "--out-dir", str(out_dir), "--config",
                   str(cfg)] + extra)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (f"error: {cfg} line 2: profiles: bad profile "
                                "'wizard:3'; expected kind:count[:param]\n")
    assert not out_dir.exists()


def test_simulate_reads_seed_from_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("seed = 5\n")
    runs = {"file": ["--config", str(cfg)],
            "flag": ["--seed", "5"],
            "default": [],
            "flag_wins": ["--config", str(cfg), "--seed", "0"]}
    out = {}
    for name, extra in runs.items():
        out_dir = tmp_path / name
        assert main(["simulate", "--n-pairs", "30", "--profiles",
                     "reliable:3:0.3", "--out-dir", str(out_dir)] + extra) == 0
        out[name] = (out_dir / "annotations.csv").read_bytes()
    assert out["file"] == out["flag"]
    assert out["file"] != out["default"]  # the default seed is 0
    assert out["flag_wins"] == out["default"]


def test_simulate_reads_config_defaults(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n-pairs = 25\nprofiles = reliable:2:0.0,constant:1:5\n")
    rc = main(["simulate", "--out-dir", str(tmp_path / "sim"),
               "--config", str(cfg)])
    assert rc == 0
    assert "wrote 25 pairs" in capsys.readouterr().out
