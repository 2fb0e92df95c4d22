"""Sampled candidate solutions and their provenance."""

from __future__ import annotations

from dataclasses import dataclass, field

ONLINE = "online"
GREEDY = "greedy"
NS = "ns"
OPRO = "opro"
WARMSTART = "warmstart"

PROVENANCES = (ONLINE, GREEDY, NS, OPRO, WARMSTART)


@dataclass
class Completion:
    """One candidate solution: token sequence, decoded text, score.

    ``score`` is set exactly once via :meth:`set_score`. Greedy reuse does
    not re-score: ``select_greedy`` builds a new ``GREEDY``-labelled
    completion carrying the stored entry's tokens, text, birth and score.
    """

    tokens: tuple[int, ...]
    provenance: str
    born_iteration: int = 0
    text: str = ""
    score: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        self.tokens = tuple(map(int, self.tokens))

    def set_score(self, value: float) -> None:
        if self.score is not None:
            raise ValueError("completion score is already set")
        self.score = float(value)
