"""Seeded input generator for the benchmark workloads.

Writes plain files (pairs, annotations, embeddings, score channels,
sentiment overrides) that the CLI reads; nothing here imports labelsim,
so a change to the package cannot move the inputs.  The vocabulary is
the package's bundled noun list and sentiment lexicon plus function
words, so the noun tagger and the sentiment scorer see real entries.

Every pair gets a latent similarity ``s``; text_b keeps each token of
text_a with probability ``s`` and otherwise swaps in a word of the same
class, so lexical and embedding metrics track ``s``.  Every side holds
at least one noun, so no native metric drops a pair.  Annotators label
``s`` through planted behaviours that trip each of the five flags.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from pathlib import Path

FUNCTION_WORDS = tuple("""
the a an of and to in on at by for with from as that this these those it
its is was are were be been has have had will would can could should may
might must do does did not but or if then than so very just also about
into over under after before while because through between
""".split())

EMBEDDING_DIM = 50
MIN_TOKENS, MAX_TOKENS = 8, 20
FRACTION_RANDOM = 0.2
LABELS_PER_PAIR = 3
FLIP_SHARE = 0.05          # near-paraphrases with opposite sentiment
MISSING_DIST_SHARE = 0.01  # pairs absent from the distance channel


def load_vocabulary(data_dir: Path) -> tuple[list[str], list[str], list[str]]:
    """(nouns, positive words, negative words) from the bundled data files."""
    func = set(FUNCTION_WORDS)
    valences: dict[str, float] = {}
    with (data_dir / "sentiment_lexicon.csv").open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            valences[row["word"].strip().lower()] = float(row["valence"])
    nouns = []
    for line in (data_dir / "nouns.txt").read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#") and word.isalpha() \
                and word not in func and word not in valences:
            nouns.append(word)
    positive = sorted(w for w, v in valences.items()
                      if v >= 1.5 and w.isalpha() and w not in func)
    negative = sorted(w for w, v in valences.items()
                      if v <= -1.5 and w.isalpha() and w not in func)
    return sorted(set(nouns)), positive, negative


class _Words:
    def __init__(self, rng: random.Random, nouns, positive, negative):
        self.rng = rng
        self.by_class = {"f": list(FUNCTION_WORDS), "n": nouns,
                         "p": positive, "q": negative}

    def draw_class(self) -> str:
        x = self.rng.random()
        if x < 0.40:
            return "f"
        if x < 0.90:
            return "n"
        return "p" if x < 0.95 else "q"

    def word(self, cls: str) -> str:
        return self.rng.choice(self.by_class[cls])

    def sentence(self) -> list[tuple[str, str]]:
        length = self.rng.randint(MIN_TOKENS, MAX_TOKENS)
        classes = [self.draw_class() for _ in range(length)]
        classes[self.rng.randrange(length)] = "n"
        return [(c, self.word(c)) for c in classes]


def _label(s: float, kind: str, rng: random.Random) -> int:
    if kind == "constant":
        return 3 if rng.random() < 0.9 else 4
    if kind == "uniform":
        return rng.randint(1, 5)
    base = min(5, max(1, round(1 + 4 * s + rng.gauss(0.0, 0.6))))
    if kind == "contrarian":
        return 6 - base
    if kind == "radical" and base in (2, 4) and rng.random() < 0.8:
        return base - 1 if base == 2 else base + 1
    if kind == "centrist" and base in (1, 5) and rng.random() < 0.8:
        return 2 if base == 1 else 4
    return base


# Share of each planted annotator kind; the rest are plain reliable.
_KINDS = (("radical", 0.22), ("centrist", 0.22), ("slow", 0.05),
          ("constant", 0.06), ("uniform", 0.08), ("contrarian", 0.05),
          ("erratic", 0.06))


def generate(n_pairs: int, n_annotators: int, seed: int, out_dir: Path,
             data_dir: Path) -> dict[str, Path]:
    """Write every input file into ``out_dir``; returns the paths by role."""
    rng = random.Random(seed)
    nouns, positive, negative = load_vocabulary(data_dir)
    words = _Words(rng, nouns, positive, negative)
    out_dir.mkdir(parents=True, exist_ok=True)

    pairs = []      # (pair_id, is_random, text_a, text_b, s, flip_sign)
    width = len(str(n_pairs))
    for i in range(n_pairs):
        pid = f"p{i:0{width}d}"
        side_a = words.sentence()
        flip_sign = 0
        if rng.random() < FRACTION_RANDOM:
            is_random, s = True, 0.0
            side_b = words.sentence()
        elif rng.random() < FLIP_SHARE / (1 - FRACTION_RANDOM):
            is_random, s = False, 0.9
            at = rng.randrange(len(side_a) + 1)
            flip_sign = 1 if rng.random() < 0.5 else -1
            side_a.insert(at, ("p", rng.choice(positive)) if flip_sign > 0
                          else ("q", rng.choice(negative)))
            side_b = list(side_a)
            side_b[at] = ("q", rng.choice(negative)) if flip_sign > 0 \
                else ("p", rng.choice(positive))
        else:
            is_random, s = False, rng.random()
            side_b = [(c, w) if rng.random() < s else (c, words.word(c))
                      for c, w in side_a]
            if not any(c == "n" for c, _ in side_b):
                side_b[0] = ("n", words.word("n"))
        text_a = " ".join(w for _, w in side_a).capitalize() + "."
        text_b = " ".join(w for _, w in side_b).capitalize() + "."
        pairs.append((pid, is_random, text_a, text_b, s, flip_sign))

    kinds = []
    for aid in range(n_annotators):
        x = (aid + 0.5) / n_annotators
        kind, acc = "reliable", 0.0
        for name, share in _KINDS:
            acc += share
            if x < acc:
                kind = name
                break
        kinds.append(kind)
    rng.shuffle(kinds)

    aid_width = len(str(n_annotators))
    paths = {"pairs": out_dir / "pairs.csv",
             "annotations": out_dir / "annotations.csv",
             "embeddings": out_dir / "embeddings.txt",
             "ext_sim": out_dir / "ext_sim.csv",
             "ext_dist": out_dir / "ext_dist.csv",
             "sentiment": out_dir / "sentiment.csv"}

    with paths["pairs"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["pair_id", "source", "is_random", "text_a", "text_b"])
        for pid, is_random, text_a, text_b, _, _ in pairs:
            w.writerow([pid, "gen", int(is_random), text_a, text_b])

    with paths["annotations"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["pair_id", "annotator_id", "label", "duration_seconds"])
        for pid, _, _, _, s, flip_sign in pairs:
            for aid in rng.sample(range(n_annotators),
                                  LABELS_PER_PAIR):
                kind = kinds[aid]
                if kind == "erratic" and flip_sign:
                    label = rng.randint(1, 5)
                else:
                    label = _label(s, kind, rng)
                mean = 420.0 if kind == "slow" else 45.0
                duration = mean * math.exp(rng.gauss(0.0, 0.3))
                w.writerow([pid, f"w{aid:0{aid_width}d}", label,
                            f"{duration:.3f}"])

    with paths["ext_sim"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["pair_id", "score"])
        for pid, _, _, _, s, _ in pairs:
            w.writerow([pid, f"{s + rng.gauss(0.0, 0.15):.6f}"])

    with paths["ext_dist"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["pair_id", "score"])
        for pid, _, _, _, s, _ in pairs:
            if rng.random() >= MISSING_DIST_SHARE:
                w.writerow([pid, f"{1.0 - s + rng.gauss(0.0, 0.15):.6f}"])

    with paths["sentiment"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["pair_id", "score_a", "score_b"])
        for pid, _, _, _, _, flip_sign in pairs:
            if flip_sign:
                w.writerow([pid, f"{flip_sign:.1f}", f"{-flip_sign:.1f}"])
            elif rng.random() < 0.5:
                score = rng.uniform(-0.5, 0.5)
                w.writerow([pid, f"{score:.4f}",
                            f"{score + rng.uniform(-0.3, 0.3):.4f}"])

    vocab = sorted(set(FUNCTION_WORDS) | set(nouns) | set(positive)
                   | set(negative))
    with paths["embeddings"].open("w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab)} {EMBEDDING_DIM}\n")
        for word in vocab:
            vec = " ".join(f"{rng.gauss(0.0, 1.0):.5f}"
                           for _ in range(EMBEDDING_DIM))
            fh.write(f"{word} {vec}\n")

    return paths


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
