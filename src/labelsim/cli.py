"""Command-line interface.

Subcommands: validate, stats, flag, metrics, report, style-report,
simulate.  Exit code 0 on success, 1 on data errors, 2 on usage errors
(argparse's own convention).  Defaults can come from a ``key = value``
config file via --config; explicit flags always win.  A run's whole
input is its command line and the files it names, each read and checked
whether the run uses it or not; a corpus file's content gives its format.

The embedding metrics' module, :mod:`~labelsim.embmetrics`, is loaded
only by a run that scores an embedding metric or names a word- or
sentence-embedding, POS-tag or noun-lexicon file.  Each command writes
its document straight into its output as it renders it: into the --out
file, opened once every result is computed, or into a buffer that goes
to stdout in one write.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import sys
from pathlib import Path

from . import correlate, simulate, stats
from .corpus import (CorpusError, _not_utf8, attach_precomputed, load_corpus,
                     load_precomputed, save_corpus, select_pairs)
from .heuristics import (HeuristicConfig, HeuristicId, compute_flag_reports,
                         default_scorers, flagged_annotators,
                         heuristic_subsets, subset_label)
from .sentiment import ingest_sentiment
from .textmetrics import tokenize

# HeuristicConfig's fields, each a --flag and a config key
_CONFIG_FIELDS = {f.name: type(f.default)
                  for f in dataclasses.fields(HeuristicConfig)}


def _parse_profiles(raw: str) -> tuple:
    aliases = {k.value: k for k in simulate.ProfileKind}
    aliases["uniform"] = simulate.ProfileKind.UNIFORM_RANDOM
    specs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, rest = chunk.partition(":")
        count, sep, param = rest.partition(":")
        try:
            specs.append(simulate.ProfileSpec(
                kind=aliases[name.strip().lower()], count=int(count),
                param=float(param) if sep else None))
        except (KeyError, ValueError):
            raise ValueError(
                f"bad profile {chunk!r}; expected kind:count[:param]") from None
    if not specs:
        raise ValueError("no annotator profiles given")
    return tuple(specs)


# PopulationSpec's fields, each a simulate --flag and a config key; a
# profiles value is text that _parse_profiles reads
_SIM_CONFIG_FIELDS = {
    f.name: _parse_profiles if f.name == "profiles" else type(f.default)
    for f in dataclasses.fields(simulate.PopulationSpec)}

# the field types a flag reads itself, and what a value of each must be; a
# field of another kind is read as text and parsed by its function
_NUMBER_KINDS = {int: "an integer", float: "a number"}


def _given_values(args, fields: dict) -> dict:
    """The ``fields`` set by a flag, or else by a ``key = value`` line of
    the --config file ('#' starts a comment line; a key may spell ``_`` as
    ``-``), read by the field's type or parser; explicit flags win.  A
    line that is no such pair, names none of ``fields`` or holds a value
    the field refuses raises ``ValueError`` naming the file, line and key.
    """
    values = {}
    path = args.config
    try:
        text = Path(path).read_text(encoding="utf-8-sig") if path else ""
    except UnicodeDecodeError:
        raise _not_utf8(Path(path)) from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        where = f"{path} line {lineno}"
        if not sep:
            raise ValueError(f"{where}: expected key = value")
        if key not in fields:
            raise ValueError(f"{where}: unknown key {key!r}; expected one "
                             f"of {', '.join(fields)}")
        cast = fields[key]
        try:
            values[key] = cast(raw)
        except ValueError as exc:
            problem = f"expected {_NUMBER_KINDS[cast]}, got {raw!r}" \
                if cast in _NUMBER_KINDS else exc
            raise ValueError(f"{where}: {key}: {problem}") from None
    for name, cast in fields.items():
        value = getattr(args, name)
        if value is not None:
            values[name] = value if cast in _NUMBER_KINDS else cast(value)
    return values


def _build_heuristic_config(args) -> HeuristicConfig:
    cfg = HeuristicConfig(**_given_values(args, _CONFIG_FIELDS))
    cfg.validate()
    return cfg


def _add_corpus_args(p, annotations=True):
    """--pairs and --annotations; ``annotations`` is whether the latter is
    required, or None for a command that reads no labels."""
    p.add_argument("--pairs", required=True, help="pairs file (CSV or JSONL)")
    if annotations is not None:
        p.add_argument("--annotations", required=annotations,
                       help="annotations file (CSV or JSONL)")


def _add_config_arg(p):
    p.add_argument("--config", help="key = value config file with defaults")


def _add_out_arg(p):
    p.add_argument("--out", help="output path (default: stdout)")


def _add_field_args(p, fields: dict, helps: dict) -> None:
    """One --flag per config field, named after it with - for _."""
    for name, cast in fields.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=cast if cast in _NUMBER_KINDS else str,
                       help=helps.get(name))


def _add_threshold_args(p):
    _add_field_args(p.add_argument_group("heuristic thresholds"),
                    _CONFIG_FIELDS, {})


def _add_metric_args(p, distances=True):
    """The scoring options; ``distances`` adds --precomputed-distance,
    which only a command that orients its scores reads."""
    p.add_argument("--metrics", default="all",
                   help="'lexical', 'embedding', 'all', or comma-separated names")
    p.add_argument("--embeddings", default=None,
                   help="word-embedding text file (word v1 ... vd)")
    p.add_argument("--sent-embeddings", default=None,
                   help="per-pair sentence-embedding CSV (pair_id,side,vector)")
    p.add_argument("--pos-tags", default=None,
                   help="gold POS tag CSV (pair_id,side,token_index,tag)")
    p.add_argument("--noun-lexicon", default=None,
                   help="noun word list for the dictionary tagger")
    p.add_argument("--precomputed", action="append", default=[],
                   metavar="NAME=PATH",
                   help="attach a per-pair score channel (repeatable)")
    if distances:
        p.add_argument("--precomputed-distance", action="append", default=[],
                       metavar="NAME",
                       help="treat this precomputed channel as a distance")
    p.add_argument("--overlap-mode", choices=["jaccard", "precision"],
                   default="jaccard")
    p.add_argument("--pos-aggregate", choices=["matched", "all_pairs"],
                   default="matched")


def _parse_heuristics(raw: str) -> list[HeuristicId]:
    if raw.strip().lower() == "all":
        return list(HeuristicId)
    try:
        ids = [HeuristicId(int(tok)) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad heuristic list {raw!r}; use e.g. '2,3' or 'all'")
    if not ids:
        raise ValueError("empty heuristic list")
    return sorted(set(ids))


def _parse_metric_names(raw: str, corpus) -> list[str]:
    raw = raw.strip()
    channels = sorted(corpus.precomputed_scores)
    if raw == "lexical":
        return list(correlate.LEXICAL_METRICS) + channels
    if raw == "embedding":
        return list(correlate.EMBEDDING_METRICS)
    if raw == "all":
        return correlate.metric_universe(corpus)
    # a repeated name is scored and shown once, where it first appears
    names = list(dict.fromkeys(tok.strip() for tok in raw.split(",")
                               if tok.strip()))
    if not names:
        raise ValueError("empty metric list")
    universe = set(correlate.metric_universe(corpus))
    for name in names:
        if name not in universe:
            raise ValueError(f"unknown metric {name!r}")
    return names


def _attach_channels(corpus, args):
    for spec in args.precomputed:
        name, sep, path = map(str.strip, spec.partition("="))
        if not sep or not name or not path:
            raise ValueError(f"--precomputed expects NAME=PATH, got {spec!r}")
        if name in correlate.metric_universe():
            raise ValueError(
                f"--precomputed {name}: a native metric has that name")
        corpus = attach_precomputed(corpus, name,
                                    load_precomputed(path, corpus))
    return corpus


def _prepare_scoring(corpus, args):
    """Resolve metric names and load whatever artifacts they need."""
    metrics = _parse_metric_names(args.metrics, corpus)
    channels = sorted(corpus.precomputed_scores)
    distance_channels = getattr(args, "precomputed_distance", [])
    for name in distance_channels:
        if name not in channels:
            raise ValueError(
                f"--precomputed-distance {name}: no precomputed channel has "
                f"that name (attached: {', '.join(channels) or 'none'})")

    if args.pos_tags and args.noun_lexicon:
        raise ValueError("--pos-tags and --noun-lexicon both choose "
                         "pos_dist's nouns; give one")
    side_files = args.embeddings or args.sent_embeddings or args.pos_tags \
        or args.noun_lexicon
    if side_files:
        from . import embmetrics
    table = sent_embeddings = nouns = None
    if args.embeddings:  # the vectors of the corpus's own words
        table = embmetrics.load_embeddings(args.embeddings, vocab_filter={
            t for p in corpus.pairs for text in (p.text_a, p.text_b)
            for t in tokenize(text)})
    if args.sent_embeddings:
        sent_embeddings = embmetrics.load_sentence_embeddings(
            args.sent_embeddings, corpus)

    if table is None:
        skipped = [m for m in metrics if m in correlate.EMBEDDING_METRICS
                   and (m != "l2" or sent_embeddings is None)]
        if skipped:
            print(f"warning: skipping {', '.join(skipped)}: "
                  "no --embeddings file given", file=sys.stderr)
            metrics = [m for m in metrics if m not in skipped]
            if not metrics:
                raise ValueError(
                    f"every requested metric was skipped: {', '.join(skipped)}")

    if args.pos_tags:
        nouns = embmetrics.tagged_nouns(
            embmetrics.load_gold_tags(args.pos_tags, corpus))
    if args.noun_lexicon:
        nouns = embmetrics.lexicon_nouns(
            embmetrics.load_noun_lexicon(args.noun_lexicon))

    return metrics, dict(
        embedding=embmetrics.EmbeddingInputs(
            table, sent_embeddings, nouns, args.pos_aggregate)
        if side_files else None,
        distance_channels=set(distance_channels),
        overlap_mode=args.overlap_mode,
    )


def _build_scorers(corpus, args):
    scorers = default_scorers()
    if args.sentiment_file:
        scorers.pair_sentiment = ingest_sentiment(args.sentiment_file, corpus)
    return scorers


@contextlib.contextmanager
def _output(out_path):
    """The text stream a command writes its document into, once every
    result is computed: the ``out_path`` file, or else a buffer that is
    written to stdout's bytes in one call when the document is complete
    (an unbuffered stdout would take a system call per piece).  Both get
    the same UTF-8, whatever stdout's own encoding and newline."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        buf = io.StringIO()
        yield buf
        sys.stdout.flush()
        sys.stdout.buffer.write(buf.getvalue().encode("utf-8"))


def _write_csv(rows, out_path) -> None:
    with _output(out_path) as fh:
        correlate._csv_writer(fh).writerows(rows)


def _write_reports(panels, args) -> None:
    """Write a run's correlation reports in ``--out-format``.  CSV rows
    have no place for a panel's status or a metric it left out, so with
    CSV each is named on stderr, as text and JSON name them in the
    document."""
    if args.out_format == "csv":
        reports = [panels] if isinstance(panels, correlate.CorrelationReport) \
            else panels.values()
        for report in reports:
            if report.status != "ok":
                print(f"warning: {report.label}: {report.status}",
                      file=sys.stderr)
            for name in sorted(report.unavailable):
                print(f"warning: {report.label}: left out {name} "
                      f"({report.unavailable[name]})", file=sys.stderr)
    with _output(args.out) as fh:
        correlate.write_reports(panels, args.out_format, fh)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    corpus = load_corpus(args.pairs, args.annotations)
    n_random = sum(1 for p in corpus.pairs if p.is_random)
    print(f"pairs: {len(corpus.pairs)} ({n_random} random)")
    print(f"annotations: {len(corpus.columns.pair)}")
    print(f"annotators: {len(corpus.columns.annotator_ids)}")
    print("ok")
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.pairs, args.annotations)
    profiles = stats.annotator_profiles(
        corpus, exclude_midpoint_from_variance=args.style_variance_excludes_midpoint)
    rows = [["annotator_id", "n_labels", "mean_duration", "label_variance",
             "mean_random", "mean_nonrandom", "extreme_share",
             "central_share", "disagreement_rate", "style"]]
    for aid in sorted(profiles):
        p = profiles[aid]
        values = (p.mean_duration, p.label_variance, p.mean_random,
                  p.mean_nonrandom, p.extreme_share, p.central_share,
                  p.disagreement_rate)
        rows.append([aid, p.n_labels, *map(correlate._fmt, values),
                     p.style.value])
    _write_csv(rows, args.out)
    return 0


def cmd_flag(args) -> int:
    corpus = load_corpus(args.pairs, args.annotations)
    cfg = _build_heuristic_config(args)
    scorers = _build_scorers(corpus, args)
    subset = _parse_heuristics(args.heuristics)
    reports = compute_flag_reports(corpus, subset, cfg, scorers)

    if args.all_subsets:
        # removed ids are joined with ';', so an id holding one could not
        # be split back out
        bad = next((aid for aid in sorted(reports) if ";" in aid), None)
        if bad is not None:
            raise ValueError(f"annotator id {bad!r} contains ';', which "
                             "--all-subsets uses to join removed ids")
        # the subset label is always quoted, by hand; the ids only where
        # CSV needs it
        with _output(args.out) as fh:
            writer = correlate._csv_writer(fh)
            fh.write("subset,n_removed,removed_annotators\n")
            for sub in heuristic_subsets(subset):
                removed = sorted(flagged_annotators(reports, sub))
                fh.write('"%s",' % subset_label(sub))
                writer.writerow([len(removed), ";".join(removed)])
        return 0
    rows = [["annotator_id", "flags", "evidence"]]
    for aid in sorted(reports):
        rep = reports[aid]
        flags = ";".join(str(int(h)) for h in sorted(rep.flags))
        evidence = ";".join(
            f"{int(h)}:{ev.statistic}={ev.value:.6f} vs {ev.threshold:g}"
            for h, ev in sorted(rep.evidence.items()))
        rows.append([aid, flags, evidence])
    _write_csv(rows, args.out)
    return 0


def cmd_metrics(args) -> int:
    corpus = load_corpus(args.pairs)
    corpus = _attach_channels(corpus, args)
    metrics, kwargs = _prepare_scoring(corpus, args)
    scores = correlate.compute_metric_scores(
        corpus, metrics, oriented=False, **kwargs)
    # each metric's cells in corpus order, read off its column's arrays
    shown = [[correlate._fmt(value) if ok else ""
              for value, ok in zip(scores[m].data.tolist(),
                                   scores[m].defined.tolist())]
             for m in metrics]
    rows = [["pair_id", *metrics]]
    rows.extend([pair.pair_id, *(column[k] for column in shown)]
                for k, pair in enumerate(corpus.pairs))
    _write_csv(rows, args.out)
    return 0


def _report_common(args):
    corpus = load_corpus(args.pairs, args.annotations)
    corpus = _attach_channels(corpus, args)
    cfg = _build_heuristic_config(args)
    scorers = _build_scorers(corpus, args)
    metrics, kwargs = _prepare_scoring(corpus, args)
    scores = correlate.compute_metric_scores(corpus, metrics, **kwargs)
    heuristics = _parse_heuristics(args.heuristics)
    # a run's one flag pass over a corpus: the same call `flag` makes
    return corpus, scores, \
        lambda c: compute_flag_reports(c, heuristics, cfg, scorers)


def cmd_report(args) -> int:
    corpus, scores, flag_pass = _report_common(args)

    def one(c, label):
        return correlate.correlation_report(
            c, scores, flag_pass(c), label=label,
            per_annotation=args.per_annotation_gold)

    if args.per_dataset:
        panels = {}
        for source in sorted({p.source for p in corpus.pairs}):
            sub = select_pairs(corpus, tuple(p for p in corpus.pairs
                                             if p.source == source))
            panels[source] = one(sub, f"dataset {source or '(unnamed)'}")
    else:
        panels = one(corpus, "all annotators")
    _write_reports(panels, args)
    return 0


def cmd_style_report(args) -> int:
    corpus, scores, flag_pass = _report_common(args)
    radical, centrist = correlate.style_split_report(
        corpus, scores, flag_pass(corpus),
        exclude_midpoint_from_variance=args.style_variance_excludes_midpoint)
    _write_reports({"radical": radical, "centrist": centrist}, args)
    return 0


def cmd_simulate(args) -> int:
    spec = simulate.PopulationSpec(**_given_values(args, _SIM_CONFIG_FIELDS))
    corpus, truth = simulate.generate_corpus(spec)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, out_dir / "pairs.csv", out_dir / "annotations.csv")
    simulate.save_ground_truth(truth, out_dir / "truth_annotators.csv",
                               out_dir / "truth_pairs.csv")
    print(f"wrote {len(corpus.pairs)} pairs, {len(corpus.columns.pair)} "
          f"annotations for {len(truth.annotator_kinds)} annotators "
          f"to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelsim",
        description="Reliability filtering for similarity labels and "
                    "correlation with automated metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check corpus files and summarize")
    _add_corpus_args(p, annotations=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="per-annotator statistics as CSV")
    _add_corpus_args(p)
    _add_out_arg(p)
    p.add_argument("--style-variance-excludes-midpoint", action="store_true",
                   help="drop label-3 judgments from the style variance")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("flag", help="evaluate reliability heuristics")
    _add_corpus_args(p)
    _add_config_arg(p)
    _add_out_arg(p)
    _add_threshold_args(p)
    p.add_argument("--heuristics", default="all",
                   help="comma-separated heuristic ids (1-5) or 'all'")
    p.add_argument("--all-subsets", action="store_true",
                   help="summarize removals for every non-empty subset")
    p.add_argument("--sentiment-file", default=None,
                   help="per-pair sentiment CSV (pair_id,score_a,score_b)")
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("metrics", help="score every pair with the metrics")
    _add_corpus_args(p, annotations=None)
    _add_out_arg(p)
    _add_metric_args(p, distances=False)
    p.set_defaults(func=cmd_metrics)

    for name, handler in (("report", cmd_report),
                          ("style-report", cmd_style_report)):
        p = sub.add_parser(name, help="correlation report "
                           + ("per labeling style" if "style" in name else
                              "against gold mean labels"))
        _add_corpus_args(p)
        _add_config_arg(p)
        _add_out_arg(p)
        _add_threshold_args(p)
        _add_metric_args(p)
        p.add_argument("--heuristics", default="all",
                       help="heuristic universe for the subset rows")
        p.add_argument("--out-format", choices=["text", "csv", "json"],
                       default="text")
        p.add_argument("--sentiment-file", default=None)
        if name == "report":
            p.add_argument("--per-dataset", action="store_true",
                           help="one report per pair source")
            p.add_argument("--per-annotation-gold", action="store_true",
                           help="correlate against individual labels "
                                "instead of per-pair means")
        else:
            p.add_argument("--style-variance-excludes-midpoint",
                           action="store_true")
        p.set_defaults(func=handler)

    p = sub.add_parser("simulate", help="generate a synthetic labeled corpus")
    _add_config_arg(p)
    p.add_argument("--out-dir", required=True)
    _add_field_args(p, _SIM_CONFIG_FIELDS, {
        "seed": "random seed of the generated corpus (default "
                f"{simulate.PopulationSpec.seed})",
        "profiles": "e.g. 'reliable:36:0.5,constant:12:3,uniform:12'"})
    p.set_defaults(func=cmd_simulate)

    # an option must be spelled out: a removed one such as simulate's
    # --out would otherwise be taken as a prefix of --out-dir
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
