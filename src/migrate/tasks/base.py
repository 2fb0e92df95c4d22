"""Shared surface the search harness drives for every black-box task."""

from __future__ import annotations

import numpy as np

from ..completion import Completion
from ..policy import Vocabulary


class SearchTask:
    """A task is its ``vocab``, ``max_len``, ``warmstart`` and
    ``score_new(completions)``; ``decode`` is shared, joining the token
    strings up to the terminator with the class's ``joiner``.

    ``score_new`` may restructure the newly generated members (the word task
    re-pairs them) but must return exactly as many scored completions as it
    received, per provenance class, each keeping its input's
    ``born_iteration``.
    """

    vocab: Vocabulary
    max_len: int
    joiner: str = ""

    def warmstart(self, rng: np.random.Generator) -> list[Completion]:
        return []

    def decode(self, tokens: tuple[int, ...]) -> str:
        return self.joiner.join(map(self.vocab.tokens.__getitem__, self.strip_end(tokens)))

    def score_new(self, completions: list[Completion]) -> list[Completion]:
        raise NotImplementedError

    def strip_end(self, tokens: tuple[int, ...]) -> tuple[int, ...]:
        """Tokens up to (excluding) the first terminator."""
        try:
            return tuple(tokens[:tokens.index(self.vocab.end_token)])
        except ValueError:
            return tuple(tokens)
