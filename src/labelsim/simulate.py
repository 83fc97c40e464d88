"""Synthetic corpora with planted annotator behaviors.

Every pair carries a latent similarity t (uniform on [0.2, 1] for real
pairs, [0, 0.1] for random fillers); its two token sequences share a
fraction of tokens that tracks t, so lexical metrics correlate with the
latent value.  Annotator profiles then label t through different kinds
of noise.  Generation is a pure function of the population spec and
seed.

Task assignment is balanced: within each pair kind, pairs are dealt
round-robin in latent-similarity order, so every annotator sees a
representative slice of both easy and hard pairs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import Annotation, LabeledCorpus, SentencePair, build_corpus

_CONSONANTS = "bdfgklmnprst"
_VOWELS = "aeiou"
VOCAB_SIZE = 600  # words the generated sentences draw from


class ProfileKind(str, Enum):
    RELIABLE = "reliable"
    CONSTANT = "constant"
    UNIFORM_RANDOM = "uniform_random"
    SLOW = "slow"
    RADICAL = "radical"
    CENTRIST = "centrist"


_DEFAULT_PARAMS = {
    ProfileKind.RELIABLE: 0.3,       # label noise sd
    ProfileKind.CONSTANT: 3.0,       # the constant label
    ProfileKind.UNIFORM_RANDOM: 0.0,  # unused
    ProfileKind.SLOW: 400.0,         # mean labeling duration, seconds
    ProfileKind.RADICAL: 0.8,        # probability of pushing to {1, 5}
    ProfileKind.CENTRIST: 0.8,       # probability of pulling to {2, 4}
}


@dataclass(frozen=True)
class ProfileSpec:
    """``count`` annotators of one kind; ``param`` meaning depends on kind
    (noise sd / constant label / mean duration / push-pull probability)."""

    kind: ProfileKind
    count: int
    param: Optional[float] = None

    def resolved_param(self) -> float:
        return _DEFAULT_PARAMS[self.kind] if self.param is None else self.param

    def validate(self) -> None:
        if self.count < 1:
            raise ValueError(f"profile {self.kind.value}: count must be >= 1")
        p = self.resolved_param()
        if self.kind is ProfileKind.RELIABLE and p < 0:
            raise ValueError("reliable noise_sd must be non-negative")
        if self.kind is ProfileKind.CONSTANT and int(p) not in (1, 2, 3, 4, 5):
            raise ValueError("constant label must be in 1..5")
        if self.kind is ProfileKind.SLOW and p <= 0:
            raise ValueError("slow mean duration must be positive")
        if self.kind in (ProfileKind.RADICAL, ProfileKind.CENTRIST) \
                and not 0 <= p <= 1:
            raise ValueError(f"{self.kind.value} strength must lie in [0, 1]")


@dataclass(frozen=True)
class PopulationSpec:
    """A population to simulate; the defaults are ``simulate``'s, and the
    field order is its ``--help`` order."""

    seed: int = 0
    n_pairs: int = 100
    fraction_random: float = 0.2
    profiles: tuple[ProfileSpec, ...] = (
        ProfileSpec(ProfileKind.RELIABLE, 8, 0.3),
        ProfileSpec(ProfileKind.CONSTANT, 1, 3.0),
        ProfileSpec(ProfileKind.UNIFORM_RANDOM, 1),
    )
    annotators_per_pair: int = 3
    min_tokens: int = 4
    max_tokens: int = 9

    def n_annotators(self) -> int:
        return sum(p.count for p in self.profiles)

    def validate(self) -> None:
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if not 0 <= self.fraction_random <= 1:
            raise ValueError("fraction_random must lie in [0, 1]")
        if not self.profiles:
            raise ValueError("at least one annotator profile is required")
        for p in self.profiles:
            p.validate()
        if self.annotators_per_pair < 1:
            raise ValueError("annotators_per_pair must be >= 1")
        if self.annotators_per_pair > self.n_annotators():
            raise ValueError("annotators_per_pair exceeds the roster size")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError("need 1 <= min_tokens <= max_tokens")
        if VOCAB_SIZE < 2 * self.max_tokens:
            raise ValueError("vocabulary too small for the token range")


@dataclass(frozen=True)
class GroundTruth:
    annotator_kinds: dict  # annotator_id -> ProfileKind
    latent: dict           # pair_id -> t


def _vocabulary(size: int) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = []
    for s1 in syllables:
        for s2 in syllables:
            words.append(s1 + s2)
            if len(words) == size:
                return words
    raise ValueError(f"cannot build a vocabulary of {size} words")


def _reliable_label(t: float, noise_sd: float, rng: np.random.Generator) -> int:
    base = float(np.rint(1.0 + 4.0 * t))
    noisy = base + (rng.normal(0.0, noise_sd) if noise_sd > 0 else 0.0)
    return int(min(5.0, max(1.0, np.rint(noisy))))


def _label_for(kind: ProfileKind, param: float, t: float,
               rng: np.random.Generator) -> int:
    if kind is ProfileKind.CONSTANT:
        return int(param)
    if kind is ProfileKind.UNIFORM_RANDOM:
        return int(rng.integers(1, 6))
    if kind in (ProfileKind.RELIABLE, ProfileKind.SLOW):
        sd = param if kind is ProfileKind.RELIABLE else 0.3
        return _reliable_label(t, sd, rng)
    label = _reliable_label(t, 0.3, rng)
    if kind is ProfileKind.RADICAL:
        if rng.random() < param:
            if label <= 2:
                return 1
            if label >= 4:
                return 5
            return int(rng.choice((1, 5)))
        return label
    if kind is ProfileKind.CENTRIST:
        if rng.random() < param:
            if label == 1:
                return 2
            if label == 5:
                return 4
        return label
    raise ValueError(f"unhandled profile kind {kind!r}")


def _duration_for(kind: ProfileKind, param: float,
                  rng: np.random.Generator) -> float:
    if kind is ProfileKind.SLOW:
        return float(max(1.0, rng.normal(param, param / 8.0)))
    return float(max(1.0, rng.normal(45.0, 10.0)))


def generate_corpus(spec: PopulationSpec) -> tuple[LabeledCorpus, GroundTruth]:
    """Simulate a labeled corpus; returns it with the planted ground truth."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    vocab = np.array(_vocabulary(VOCAB_SIZE))

    n_random = int(np.rint(spec.n_pairs * spec.fraction_random))
    random_mask = np.zeros(spec.n_pairs, dtype=bool)
    random_mask[rng.permutation(spec.n_pairs)[:n_random]] = True

    width = max(4, len(str(spec.n_pairs - 1)))
    pairs = []
    latent: dict[str, float] = {}
    for idx in range(spec.n_pairs):
        pair_id = f"p{idx:0{width}d}"
        is_random = bool(random_mask[idx])
        t = float(rng.uniform(0.0, 0.1) if is_random
                  else rng.uniform(0.2, 1.0))
        k = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        token_idx_a = rng.choice(vocab.size, size=k, replace=False)
        tokens_a = vocab[token_idx_a]
        keep = int(np.rint(t * k))
        keep_positions = set(rng.choice(k, size=keep, replace=False).tolist()) \
            if keep else set()
        complement = np.setdiff1d(np.arange(vocab.size), token_idx_a)
        fresh = vocab[rng.choice(complement, size=k - keep, replace=False)] \
            if k - keep else np.array([], dtype=vocab.dtype)
        tokens_b = []
        fresh_iter = iter(fresh)
        for pos in range(k):
            if pos in keep_positions:
                tokens_b.append(tokens_a[pos])
            else:
                tokens_b.append(next(fresh_iter))
        pairs.append(SentencePair(
            pair_id=pair_id,
            text_a=" ".join(tokens_a),
            text_b=" ".join(tokens_b),
            source="synthetic",
            is_random=is_random,
        ))
        latent[pair_id] = t

    roster: list[tuple[str, ProfileKind, float]] = []
    idx = 0
    for prof in spec.profiles:
        for _ in range(prof.count):
            roster.append((f"a{idx:03d}", prof.kind, prof.resolved_param()))
            idx += 1
    kinds = {aid: kind for aid, kind, _ in roster}
    params = {aid: param for aid, _, param in roster}

    # Balanced dealing: within each pair kind, walk pairs in latent order
    # and hand each to the next annotators in a fixed shuffled cycle.
    order = [roster[i][0] for i in rng.permutation(len(roster))]
    cursor = 0
    assignment: dict[str, list[str]] = {}
    for group in (False, True):
        group_pairs = sorted(
            (p for p in pairs if p.is_random == group),
            key=lambda p: latent[p.pair_id])
        for pair in group_pairs:
            chosen = []
            for _ in range(spec.annotators_per_pair):
                chosen.append(order[cursor % len(order)])
                cursor += 1
            assignment[pair.pair_id] = chosen

    annotations = []
    for pair in pairs:
        t = latent[pair.pair_id]
        for aid in assignment[pair.pair_id]:
            kind = kinds[aid]
            param = params[aid]
            annotations.append(Annotation(
                pair_id=pair.pair_id,
                annotator_id=aid,
                label=_label_for(kind, param, t, rng),
                duration=_duration_for(kind, param, rng),
            ))

    corpus = build_corpus(pairs, annotations)
    return corpus, GroundTruth(annotator_kinds=kinds, latent=latent)


def save_ground_truth(truth: GroundTruth, annotators_path, pairs_path) -> None:
    """Write the planted annotator kinds and latent similarities as CSV."""
    with Path(annotators_path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["annotator_id", "kind"])
        for aid in sorted(truth.annotator_kinds):
            writer.writerow([aid, truth.annotator_kinds[aid].value])
    with Path(pairs_path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "latent_t"])
        for pid in sorted(truth.latent):
            writer.writerow([pid, repr(truth.latent[pid])])
