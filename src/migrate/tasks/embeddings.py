"""Word embedding tables: file-loadable or synthesized with planted clusters.

The synthetic generator grows each cluster as an edit tree: every member is
a one-character mutation of an earlier member, and its vector is a small
random step from its parent's vector. Surface-form neighbors therefore have
similar vectors by construction, giving the word-search landscape the
smoothness that local, mutation-driven search relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
WORD_LENGTH = 6  # letters in each synthesized cluster root
HUB_COUNT = 6  # each cluster's members that later members branch from


@dataclass(frozen=True)
class EmbeddingTable:
    """Distinct words with finite unit-norm vectors; rows are normalized on build."""

    words: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if len(self.words) != len(self.vectors):
            raise ValueError("words and vectors must align")
        if len(set(self.words)) != len(self.words):
            raise ValueError("words must be distinct")
        finite = np.isfinite(self.vectors).all(axis=1)
        if not finite.all():
            word = self.words[int(np.argmin(finite))]
            raise ValueError(f"the vector of word {word!r} is not finite")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero vector cannot be normalized")
        object.__setattr__(self, "vectors", self.vectors / norms[:, None])
        self.vectors.setflags(write=False)
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})

    @property
    def size(self) -> int:
        return len(self.words)

    @functools.cached_property
    def alphabet(self) -> tuple[str, ...]:
        """The distinct characters of the words, sorted."""
        return tuple(sorted({ch for word in self.words for ch in word}))

    @functools.cached_property
    def max_word_length(self) -> int:
        """The length of the longest word."""
        return max(map(len, self.words))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        return self._index[word]

    def cosine(self, a: str, b: str) -> float:
        return float(self.vectors[self._index[a]] @ self.vectors[self._index[b]])


def load_embedding_table(path: str | Path) -> EmbeddingTable:
    """Read the "V d" header format: one "word f1 .. fd" line per word."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("first line must be 'V d'")
        count, dim = int(header[0]), int(header[1])
        words: list[str] = []
        rows = np.empty((count, dim))
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise ValueError(f"line {i + 2}: expected word plus {dim} values")
            words.append(parts[0])
            rows[i] = [float(x) for x in parts[1:]]
    return EmbeddingTable(tuple(words), rows)


def save_embedding_table(table: EmbeddingTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.size} {table.dim}\n")
        for word, vec in zip(table.words, table.vectors):
            fh.write(word + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def _mutate_word(word: str, edits: int, rng: np.random.Generator) -> str:
    chars = list(word)
    for _ in range(edits):
        pos = int(rng.integers(0, len(chars)))
        chars[pos] = _LETTERS[int(rng.integers(0, 26))]
    return "".join(chars)


def synthesize_embedding_table(rng: np.random.Generator, vocab_size: int = 2000, dim: int = 16,
                               clusters: int = 12, step_scale: float = 0.25) -> EmbeddingTable:
    """Edit-tree clusters: each member is one substitution away from an
    earlier member and its raw vector is the parent's plus a small step.

    Parents are drawn from each cluster's first ``HUB_COUNT`` members, so
    trees stay shallow and most words sit within a couple of edits of a
    hub. Cluster roots are well-separated Gaussian centers, so similarity
    decays smoothly along each cluster's edit graph while staying low
    across clusters.
    """
    if clusters < 1 or vocab_size < clusters:
        raise ValueError("need 1 <= clusters <= vocab_size")
    words: list[str] = []
    seen: set[str] = set()
    rows = np.empty((vocab_size, dim))
    sizes = np.full(clusters, vocab_size // clusters)
    sizes[: vocab_size % clusters] += 1
    i = 0
    for c in range(clusters):
        stem = ""
        while not stem or stem in seen:
            stem = "".join(_LETTERS[int(rng.integers(0, 26))] for _ in range(WORD_LENGTH))
        cluster_words = [stem]
        raw = [rng.normal(size=dim)]
        seen.add(stem)
        for member in range(1, int(sizes[c])):
            parent = int(rng.integers(0, min(member, HUB_COUNT)))
            edits, attempts, word = 1, 0, ""
            while not word or word in seen:
                word = _mutate_word(cluster_words[parent], edits, rng)
                attempts += 1
                if attempts % 50 == 0:
                    edits += 1
            seen.add(word)
            cluster_words.append(word)
            raw.append(raw[parent] + step_scale * rng.normal(size=dim))
        words.extend(cluster_words)
        rows[i: i + len(cluster_words)] = raw
        i += len(cluster_words)
    return EmbeddingTable(tuple(words), rows)
