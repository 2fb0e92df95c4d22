"""Shared surface the search harness drives for every black-box task."""

from __future__ import annotations

import numpy as np

from ..completion import Completion
from ..policy import Vocabulary


class SearchTask:
    """A task owns the token alphabet, decoding, scoring, and warm start.

    ``score_new`` may restructure the newly generated members (the word task
    re-pairs them) but must return exactly as many scored completions as it
    received, per provenance class.
    """

    vocab: Vocabulary
    max_len: int
    position_buckets: int = 4

    def warmstart(self, rng: np.random.Generator) -> list[Completion]:
        return []

    def decode(self, tokens: tuple[int, ...]) -> str:
        raise NotImplementedError

    def score_new(self, completions: list[Completion], born_iteration: int) -> list[Completion]:
        raise NotImplementedError

    def strip_end(self, tokens: tuple[int, ...]) -> tuple[int, ...]:
        """Tokens up to (excluding) the first terminator."""
        try:
            return tuple(tokens[:tokens.index(self.vocab.end_token)])
        except ValueError:
            return tuple(tokens)
