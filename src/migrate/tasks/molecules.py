"""Synthetic two-objective string task with the docking-style scalarization.

Strings over a small SMILES-like alphabet are mapped by two seeded smooth
proxies: a binding-affinity analog in [-13, 0] (lower is better) and a
druglikeness analog in [0, 1] (higher is better). The scalar reward
min-max-normalizes their sum over the combined range [-13, 1], which makes
a full-range affinity swing worth 13x a full-range druglikeness swing.
Invalid strings and repeat guesses score 0.
"""

from __future__ import annotations

import numpy as np

from ..completion import WARMSTART, Completion
from ..policy import Vocabulary
from .base import SearchTask

CHARS = ("C", "N", "O", "c", "n", "o", "(", ")", "=", "#", "1", "2")
END = "</s>"

VINA_RANGE = (-13.0, 0.0)
QED_RANGE = (0.0, 1.0)
# Combined objective vina + (1 - qed) spans [-13, 1].
_COMBINED_LO = VINA_RANGE[0] + (1.0 - QED_RANGE[1])
_COMBINED_HI = VINA_RANGE[1] + (1.0 - QED_RANGE[0])

SEED_FRAGMENTS = ("CC(=O)N", "CCCCC", "c1ccccc1")
# The least max_len: every seed fragment, one token per character, must fit.
MIN_MAX_LEN = max(map(len, SEED_FRAGMENTS))


def scalarize(vina: float, qed: float) -> float:
    """1 - minmax(vina + (1 - qed)) over [-13, 1]; best corner scores 1.0."""
    combined = vina + (1.0 - qed)
    return 1.0 - (combined - _COMBINED_LO) / (_COMBINED_HI - _COMBINED_LO)


def is_valid(text: str) -> bool:
    """Non-empty, balanced parentheses, every ring digit paired."""
    if not text:
        return False
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    if depth != 0:
        return False
    return text.count("1") % 2 == 0 and text.count("2") % 2 == 0


class TwoObjectiveTask(SearchTask):
    def __init__(self, rng: np.random.Generator, max_len: int = 16):
        if max_len < MIN_MAX_LEN:
            raise ValueError(f"molecules max_len must be >= {MIN_MAX_LEN}, the length of its "
                             f"longest seed fragment, got {max_len!r}")
        self.vocab = Vocabulary(CHARS + (END,), end_token=len(CHARS))
        self.max_len = max_len
        self.seen: set[str] = set()
        n = len(CHARS)
        # Seeded proxy landscapes: smooth functions of character statistics.
        self._vina_unigram = rng.uniform(-1.0, 1.0, size=n)
        self._vina_bigram = rng.uniform(-1.0, 1.0, size=(n, n))
        self._qed_unigram = rng.uniform(-1.0, 1.0, size=n)
        self._qed_bigram = rng.uniform(-1.0, 1.0, size=(n, n))
        self._char_index = {ch: i for i, ch in enumerate(CHARS)}

    def _features(self, text: str, unigram: np.ndarray, bigram: np.ndarray) -> float:
        ids = [self._char_index[ch] for ch in text]
        total = sum(unigram[i] for i in ids) / len(ids)
        if len(ids) > 1:
            total += sum(bigram[a, b] for a, b in zip(ids, ids[1:])) / (len(ids) - 1)
        return total

    def vina_proxy(self, text: str) -> float:
        """Deterministic affinity analog in (-13, 0)."""
        raw = self._features(text, self._vina_unigram, self._vina_bigram)
        return VINA_RANGE[0] / (1.0 + np.exp(2.0 * raw))

    def qed_proxy(self, text: str) -> float:
        """Deterministic druglikeness analog in (0, 1)."""
        raw = self._features(text, self._qed_unigram, self._qed_bigram)
        return 1.0 / (1.0 + np.exp(-2.0 * raw))

    def warmstart(self, rng: np.random.Generator) -> list[Completion]:
        self.seen.clear()  # a search starts here, so each search on this task is the same
        out = []
        for text in SEED_FRAGMENTS:
            tokens = tuple(self._char_index[ch] for ch in text)
            out.append(Completion(tokens=tokens, provenance=WARMSTART, born_iteration=0,
                                  text=text, score=scalarized_reward(self, text)))
        return out

    def score_new(self, completions: list[Completion]) -> list[Completion]:
        for c in completions:
            c.text = self.decode(c.tokens)
            c.set_score(scalarized_reward(self, c.text))
        return completions


def scalarized_reward(task: TwoObjectiveTask, text: str) -> float:
    """Scalarized two-objective score; 0 for invalid or repeated strings.

    Every scored string (valid or not) is marked seen until the next
    ``warmstart``, mirroring the no-score-on-repeat rule.
    """
    repeat = text in task.seen
    task.seen.add(text)
    if repeat or not is_valid(text):
        return 0.0
    return scalarize(task.vina_proxy(text), task.qed_proxy(text))
