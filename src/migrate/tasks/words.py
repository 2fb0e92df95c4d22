"""Hidden-word search scored by embedding cosine similarity.

Completions are character sequences holding up to two space-separated
words. A guess scores its cosine to the hidden word when it appears in the
embedding table and 0 otherwise, so almost all raw strings are worthless
and progress hinges on exploiting the table's planted edit-tree structure:
one-character edits of known words tend to be nearby words with similar
scores.

New group members are generated as word batches: all fresh words of a
provenance class are scored individually, sorted by score, and re-paired
into two-word completions whose reward is the better word's score. Guessing
the hidden word scores exactly 1.0, which doubles as the optimality signal.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

import numpy as np

from ..completion import WARMSTART, Completion
from ..policy import Vocabulary
from .base import SearchTask
from .embeddings import EmbeddingTable

SEPARATOR = " "
END = "</s>"
WORDS_PER_COMPLETION = 2


class WordSearchTask(SearchTask):
    """Guesses of the hidden word. A distinct word is scored once: the task
    keeps each word ``score_new`` scores with its :func:`word_reward`."""

    def __init__(self, table: EmbeddingTable, hidden_word: str, warmstart_count: int):
        if hidden_word not in table:
            raise ValueError(f"hidden word {hidden_word!r} not in table")
        if warmstart_count > table.size:
            raise ValueError(f"warmstart_count {warmstart_count} exceeds the table's "
                             f"{table.size} words")
        chars = table.alphabet
        if SEPARATOR in chars or "" in table:
            raise ValueError("table words must be non-empty and contain no spaces")
        self.table = table
        self.hidden_word = hidden_word
        self.warmstart_count = warmstart_count
        self.word_cap = table.max_word_length
        self.vocab = Vocabulary(chars + (SEPARATOR, END), end_token=len(chars) + 1)
        self.max_len = WORDS_PER_COMPLETION * (self.word_cap + 1) - 1
        self._char_index = {ch: i for i, ch in enumerate(self.vocab.tokens[:-1])}
        self._rewards: dict[str, float] = {}

    def decode_words(self, tokens: tuple[int, ...]) -> list[str]:
        """Words in a completion, each capped at the table's longest word."""
        parts = [w for w in self.decode(tokens).split(SEPARATOR) if w]
        return [w[: self.word_cap] for w in parts[:WORDS_PER_COMPLETION]]

    def encode_words(self, words: list[str]) -> tuple[int, ...]:
        return tuple(map(self._char_index.__getitem__, SEPARATOR.join(words)))

    def warmstart(self, rng: np.random.Generator) -> list[Completion]:
        picks = rng.choice(self.table.size, size=self.warmstart_count, replace=False)
        out = []
        for idx in picks:
            word = self.table.words[int(idx)]
            out.append(Completion(tokens=self.encode_words([word]), provenance=WARMSTART,
                                  born_iteration=0, text=word, score=word_reward(self, word)))
        return out

    def score_new(self, completions: list[Completion]) -> list[Completion]:
        """Regroup each provenance's fresh words by score, WORDS_PER_COMPLETION per completion."""
        out: list[Completion] = []
        for provenance, run in groupby(completions, attrgetter("provenance")):
            segment = list(run)
            words = [w for c in segment for w in self.decode_words(c.tokens)]
            for w in words:
                if w not in self._rewards:
                    self._rewards[w] = word_reward(self, w)
            ranked = sorted(words, key=self._rewards.__getitem__, reverse=True)
            for i, c in enumerate(segment):
                pair = ranked[WORDS_PER_COMPLETION * i: WORDS_PER_COMPLETION * (i + 1)]
                if pair:
                    tokens, score = self.encode_words(pair), self._rewards[pair[0]]
                    text = SEPARATOR.join(pair)
                else:
                    tokens, score, text = (self.vocab.end_token,), 0.0, ""
                out.append(Completion(tokens=tokens, provenance=provenance,
                                      born_iteration=c.born_iteration, text=text, score=score))
        return out


def word_reward(task: WordSearchTask, guess: str) -> float:
    """Cosine similarity to the hidden word; 1.0 exactly on a correct guess,
    0.0 for strings outside the table."""
    if guess == task.hidden_word:
        return 1.0
    if guess not in task.table:
        return 0.0
    return min(max(task.table.cosine(guess, task.hidden_word), -1.0), 1.0)
