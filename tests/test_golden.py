"""Golden output: the CLI's stdout on fixed inputs, pinned by sha256.

Byte-identical output for the same inputs is the contract that lets the
internals change.  The inputs come from ``simulate.generate_corpus`` and a
fixed numpy seed, not from the benchmark's generator, so only a change
to the package can move them.  The pairs file lists the pairs out of id
order and in two sources; the side files are word embeddings, two score
channels (a few pairs missing from the distance one), sentiment
overrides and gold POS tags.  The pairs file is also written in id
order, reversed and shuffled, and every command but ``metrics`` must
print the same bytes from each.  The pairs and annotations are also
written as JSONL under ``.txt`` names, and every command must print the
same bytes from these twins: a corpus file's format is its content.  Every command also writes the same
bytes to an ``--out`` file as to stdout, and prints the same bytes with
``LABELSIM_`` path variables naming another corpus's files or missing
ones: a run's input is its command line and the files it names.

A hash that moves means some output byte moved.  Update a hash only for
a change that means to alter output, and say so where the change is
recorded.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from labelsim import cli, simulate
from labelsim.simulate import PopulationSpec, ProfileKind, ProfileSpec

SPEC = PopulationSpec(
    seed=11, n_pairs=80, annotators_per_pair=5,
    profiles=(ProfileSpec(ProfileKind.RELIABLE, 6),
              ProfileSpec(ProfileKind.CONSTANT, 1),
              ProfileSpec(ProfileKind.UNIFORM_RANDOM, 1),
              ProfileSpec(ProfileKind.SLOW, 1),
              ProfileSpec(ProfileKind.RADICAL, 2),
              ProfileSpec(ProfileKind.CENTRIST, 2)))


def _write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def _write_jsonl(path, header, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(header, row))) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    corpus, _ = simulate.generate_corpus(SPEC)
    rng = np.random.default_rng(2024)
    pairs = [corpus.pairs[i] for i in rng.permutation(len(corpus.pairs))]
    by_id = sorted(corpus.pairs, key=lambda p: p.pair_id)
    source = {p.pair_id: ("news", "forum")[i % 2]
              for i, p in enumerate(by_id)}

    def write_pairs(name, pairs, write=_write_csv):
        return write(
            out / name, ("pair_id", "source", "is_random", "text_a",
                         "text_b"),
            [(p.pair_id, source[p.pair_id], int(p.is_random), p.text_a,
              p.text_b) for p in pairs])

    annotation_fields = ("pair_id", "annotator_id", "label",
                         "duration_seconds")

    paths = {
        "pairs": write_pairs("pairs.csv", pairs),
        # the same pairs file in other row orders
        "pairs_by_id": write_pairs("pairs_by_id.csv", by_id),
        "pairs_reversed": write_pairs("pairs_reversed.csv", by_id[::-1]),
        "pairs_shuffled": write_pairs(
            "pairs_shuffled.csv",
            [by_id[i] for i in
             np.random.default_rng(7).permutation(len(by_id))]),
        "annotations": _write_csv(
            out / "annotations.csv", annotation_fields,
            [(a.pair_id, a.annotator_id, a.label, repr(a.duration))
             for a in corpus.annotations]),
        # the JSONL twins: integer flags and labels, float durations
        "pairs_jsonl": write_pairs("pairs.txt", pairs, _write_jsonl),
        "annotations_jsonl": _write_jsonl(
            out / "annotations.txt", annotation_fields,
            [(a.pair_id, a.annotator_id, a.label, a.duration)
             for a in corpus.annotations]),
    }
    words = sorted({w for p in pairs for w in (p.text_a + " " + p.text_b)
                    .split()})
    kept = [w for w in words if rng.random() < 0.9]
    vectors = rng.normal(size=(len(kept), 5))
    (out / "vectors.txt").write_text("".join(
        w + " " + " ".join(f"{x:.6f}" for x in v) + "\n"
        for w, v in zip(kept, vectors)))
    paths["embeddings"] = str(out / "vectors.txt")
    ids = [p.pair_id for p in pairs]
    paths["ext_sim"] = _write_csv(
        out / "ext_sim.csv", ("pair_id", "score"),
        [(pid, f"{x:.6f}") for pid, x in zip(ids, rng.random(len(ids)))])
    missing = set(rng.choice(ids, size=4, replace=False).tolist())
    paths["ext_dist"] = _write_csv(
        out / "ext_dist.csv", ("pair_id", "score"),
        [(pid, f"{x:.6f}") for pid, x in zip(ids, rng.random(len(ids)) * 3)
         if pid not in missing])
    paths["sentiment"] = _write_csv(
        out / "sentiment.csv", ("pair_id", "score_a", "score_b"),
        [(pid, f"{a:.4f}", f"{b:.4f}")
         for pid, (a, b) in zip(ids, rng.uniform(-1, 1, (len(ids), 2)))])
    tags = []
    for p in pairs:
        for side, text in (("a", p.text_a), ("b", p.text_b)):
            for i in range(len(text.split())):
                tags.append((p.pair_id, side, i,
                             "NN" if rng.random() < 0.5 else "VB"))
    paths["pos_tags"] = _write_csv(
        out / "tags.csv", ("pair_id", "side", "token_index", "tag"), tags)
    # drawn from a second generator, so the files above stay as they were
    rng = np.random.default_rng(2025)
    paths["sent_embeddings"] = _write_csv(
        out / "sent.csv", ("pair_id", "side", "vector"),
        [(pid, side, " ".join(f"{x:.6f}" for x in rng.normal(size=3)))
         for pid in ids for side in "ab" if rng.random() < 0.95])
    (out / "nouns.txt").write_text("".join(
        w + "\n" for w in words if rng.random() < 0.3))
    paths["noun_lexicon"] = str(out / "nouns.txt")
    return paths


ATTACH = ("--precomputed", "ext_sim={ext_sim}",
          "--precomputed", "ext_dist={ext_dist}")
CHANNELS = (*ATTACH, "--precomputed-distance", "ext_dist")
CORPUS = ("--pairs", "{pairs}", "--annotations", "{annotations}")

COMMANDS = {
    "report-csv": (
        "report", *CORPUS, *CHANNELS, "--metrics", "all",
        "--embeddings", "{embeddings}", "--sentiment-file", "{sentiment}",
        "--out-format", "csv"),
    "report-text": (
        "report", *CORPUS, *CHANNELS, "--metrics", "all",
        "--embeddings", "{embeddings}", "--out-format", "text"),
    "report-per-dataset-json": (
        "report", *CORPUS, *CHANNELS, "--metrics", "all",
        "--embeddings", "{embeddings}", "--per-dataset",
        "--per-annotation-gold", "--out-format", "json"),
    "style-report-json": (
        "style-report", *CORPUS, *CHANNELS, "--metrics", "ext_sim,ext_dist",
        "--sentiment-file", "{sentiment}", "--out-format", "json"),
    "flag-all-subsets": (
        "flag", *CORPUS, "--all-subsets", "--sentiment-file", "{sentiment}"),
    "stats": ("stats", *CORPUS),
    "stats-excludes-midpoint": (
        "stats", *CORPUS, "--style-variance-excludes-midpoint"),
    "style-report-excludes-midpoint-csv": (
        "style-report", *CORPUS, *CHANNELS, "--metrics", "ext_sim,ext_dist",
        "--sentiment-file", "{sentiment}",
        "--style-variance-excludes-midpoint", "--out-format", "csv"),
    "metrics-pos-tags": (
        "metrics", "--pairs", "{pairs}", *ATTACH, "--metrics", "all",
        "--embeddings", "{embeddings}", "--pos-tags", "{pos_tags}"),
    "metrics-sent-embeddings-noun-lexicon": (
        "metrics", "--pairs", "{pairs}", "--metrics", "all",
        "--embeddings", "{embeddings}", "--sent-embeddings",
        "{sent_embeddings}", "--noun-lexicon", "{noun_lexicon}",
        "--pos-aggregate", "all_pairs"),
}

GOLDEN = {
    "report-csv":
        "affb0a55aebc6542c7ee05099d9d9f7e12f1f5dd7b68b8ac8838d837b7386b4b",
    "report-text":
        "fa7f28330e5388074bec1aa6db9ec2d23b3ae13ab31f86f3500fe4705c048fc7",
    "report-per-dataset-json":
        "646916081bc465ec8e48aad6eb567a8e6a0624c07e40a86dc9a1853aa5c7d31f",
    "style-report-json":
        "740648cce9bb028da3b262978e88bc44a26761d090ff6fa4124763eb0e0210d0",
    "flag-all-subsets":
        "8685a6fbff986fa759318be64628a1a7fd88937b3d8e2e8a64c3a6226aa4daeb",
    "stats":
        "0c3d31d38146d99c86059342c1948eb60f1be92ec450d37c6d5ef02bc843e747",
    "stats-excludes-midpoint":
        "bbc02bd77d0194b0c2d7f0754034d307b3aa92d6bb827ebcda476694ea5ef75b",
    "style-report-excludes-midpoint-csv":
        "86c1dbdf4bbb2235a9df0261162a793796ed201b02b4c2e4f8b49d54bbe0173f",
    "metrics-pos-tags":
        "576df2aa1ffd38ed58bfef4730533c882d77b9d87251419f2241c54c2c5dfc46",
    "metrics-sent-embeddings-noun-lexicon":
        "b72abf72e63407e70d9d14fbc729a034205b8d22d093a192a47efffbf49e0013",
}


@pytest.fixture(scope="module")
def stray_environments(tmp_path_factory):
    """Two settings of the five ``LABELSIM_`` path variables: files of
    another corpus (pair ``zz``, a 3-word vector file), then missing
    paths."""
    out = tmp_path_factory.mktemp("stray")
    files = {
        "EMBEDDINGS": ("vectors.txt", "zz 1 0\nyy 0 1\nxx 1 1\n"),
        "SENT_EMBEDDINGS": ("sent.csv", "pair_id,side,vector\nzz,a,1 0\n"),
        "POS_TAGS": ("tags.csv", "pair_id,side,token_index,tag\nzz,a,0,NN\n"),
        "NOUN_LEXICON": ("nouns.txt", "zz\n"),
        "SENTIMENT_FILE": ("sentiment.csv",
                           "pair_id,score_a,score_b\nzz,0.5,-0.5\n"),
    }
    for name, text in files.values():
        (out / name).write_text(text)
    return [{"LABELSIM_" + var: str(where / name)
             for var, (name, _) in files.items()}
            for where in (out, out / "missing")]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_byte_identical(inputs, stray_environments, capsys,
                                  monkeypatch, name):
    argv = [arg.format(**inputs) for arg in COMMANDS[name]]
    for environment in ({}, *stray_environments):
        for var, value in environment.items():
            monkeypatch.setenv(var, value)
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 10
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            GOLDEN[name], environment


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_out_file_is_byte_identical(inputs, capsys, tmp_path, name):
    out_path = tmp_path / "out.txt"
    argv = [arg.format(**inputs) for arg in COMMANDS[name]]
    assert cli.main([*argv, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_jsonl_twins_give_the_golden_bytes(inputs, capsys, name):
    twins = {**inputs, "pairs": inputs["pairs_jsonl"],
             "annotations": inputs["annotations_jsonl"]}
    argv = [arg.format(**twins) for arg in COMMANDS[name]]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name]


# the commands whose output does not depend on the pairs file's row order
# (``metrics`` lists its rows in that order)
ORDER_FREE = ("report-csv", "report-text", "report-per-dataset-json", "style-report-json",
              "flag-all-subsets", "stats", "stats-excludes-midpoint",
              "style-report-excludes-midpoint-csv")


@pytest.mark.parametrize("name", ORDER_FREE)
def test_stdout_does_not_depend_on_the_pairs_row_order(inputs, capsys, name):
    outs = []
    for order in ("pairs_by_id", "pairs_reversed", "pairs_shuffled"):
        argv = [arg.format(**{**inputs, "pairs": inputs[order]})
                for arg in COMMANDS[name]]
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    # and the same as from the golden inputs' own order
    assert hashlib.sha256(outs[0].encode("utf-8")).hexdigest() == GOLDEN[name]
