"""Import labelsim and load one workload's inputs through the public loaders.

Usage: python3 perfbench/load_inputs.py INPUTS_JSON

INPUTS_JSON names ``pairs`` and ``annotations`` and, when the workload
uses them, ``precomputed`` ([name, path] pairs), ``embeddings`` and
``sentiment``.  ``src`` must be on PYTHONPATH.  The benchmark times this
process from spawn to exit as the workload's set-up time.
"""

import json
import sys


def main() -> int:
    spec = json.loads(open(sys.argv[1], encoding="utf-8").read())
    from labelsim.corpus import attach_precomputed, load_corpus, load_precomputed
    corpus = load_corpus(spec["pairs"], spec["annotations"])
    for name, path in spec.get("precomputed", []):
        corpus = attach_precomputed(corpus, name, load_precomputed(path))
    if spec.get("embeddings"):
        # As the CLI does: load only the words the corpus uses.
        from labelsim.embmetrics import load_embeddings
        from labelsim.textmetrics import tokenize
        vocab = set()
        for pair in corpus.pairs:
            vocab.update(tokenize(pair.text_a))
            vocab.update(tokenize(pair.text_b))
        load_embeddings(spec["embeddings"], vocab_filter=vocab)
    if spec.get("sentiment"):
        from labelsim.sentiment import ingest_sentiment
        ingest_sentiment(spec["sentiment"], corpus)
    return 0


if __name__ == "__main__":
    sys.exit(main())
