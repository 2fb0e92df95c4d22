"""Database of evaluated completions with budget accounting and islands.

The archive holds each scored completion once, so its length is the
evaluation count (the search budget currency). Entries stay ranked as they
arrive: one sorted list of keys ``(-score, born_iteration, index)`` covers
the whole archive, so top-k reads never re-sort and the best entry is its
head.

Islands, when enabled, are sets of entry indices visited cyclically; an
island's ranking is the archive's ranking restricted to its set. A
per-step selection mixes exploitation (island members that are also
globally top-k) with exploration (island elites outside the global top-k),
and elites migrate periodically to the next island along a ring by joining
its set, so an entry may belong to several islands.
"""

from __future__ import annotations

import bisect
import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .completion import GREEDY, Completion


class ArchiveError(ValueError):
    pass


@dataclass(frozen=True)
class IslandConfig:
    island_count: int = 4
    exploit_prob: float = 0.7
    migration_interval: int = 10
    migration_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.island_count < 1:
            raise ValueError("island_count must be >= 1")
        if not 0 <= self.exploit_prob <= 1:
            raise ValueError("exploit_prob must be in [0, 1]")
        if self.migration_interval < 1:
            raise ValueError("migration_interval must be >= 1")
        if not 0 <= self.migration_fraction <= 1:
            raise ValueError("migration_fraction must be in [0, 1]")


class Archive:
    """Single-writer store; reads may snapshot freely."""

    def __init__(self, islands: IslandConfig | None = None):
        self.entries: list[Completion] = []
        self.islands = islands
        self.cursor = 0
        self._rank: list[tuple[float, int, int]] = []
        count = islands.island_count if islands else 0
        self._island_set: list[set[int]] = [set() for _ in range(count)]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def evaluated_count(self) -> int:
        return len(self.entries)

    @property
    def best(self) -> Completion | None:
        """The entry ``topk(1)`` returns, or None while the archive is empty."""
        return self.entries[self._rank[0][2]] if self._rank else None

    @property
    def best_score(self) -> float:
        return -np.inf if self.best is None else float(self.best.score)

    def islands_of(self, index: int) -> list[int] | None:
        if not self.islands:
            return None
        return [isl for isl, members in enumerate(self._island_set) if index in members]

    def _ranked(self, island: int) -> Iterator[int]:
        """The island's entry indices in ranking order."""
        members = self._island_set[island]
        return (i for _, _, i in self._rank if i in members)

    def _append(self, entry: Completion, island: int) -> None:
        index = len(self.entries)
        self.entries.append(entry)
        bisect.insort(self._rank, (-entry.score, entry.born_iteration, index))
        if self.islands:
            self._island_set[island].add(index)

    def insert(self, completions: list[Completion], *, island: int | None = None) -> None:
        """Add newly evaluated completions, charging them to the budget.

        Greedy-provenance members are reused, not new, and are rejected;
        every member must already carry a score. With islands enabled the
        batch lands on the current cursor island unless ``island`` names one
        in ``[0, island_count)``; any other island raises ArchiveError.
        """
        for c in completions:
            if c.provenance == GREEDY:
                raise ArchiveError("greedy members are reused, not inserted")
            if c.score is None:
                raise ArchiveError("cannot insert an unscored completion")
        target = self.cursor if island is None else island
        if self.islands and not 0 <= target < self.islands.island_count:
            raise ArchiveError(f"island {target} is outside [0, {self.islands.island_count})")
        for c in completions:
            self._append(c, target)

    def topk(self, k: int) -> list[Completion]:
        """Best k entries, score descending; ties go to the earlier
        born_iteration, then earlier insertion."""
        if k < 1:
            raise ArchiveError("k must be >= 1")
        return [self.entries[i] for _, _, i in self._rank[:k]]

    def island_select(self, rng: np.random.Generator, k: int) -> Completion:
        """Advance to the next non-empty island and pick an exemplar from it.

        With probability ``exploit_prob`` the pick is uniform over island
        members that are also globally top-k; otherwise (or when the island
        holds none) it is uniform over the island's top min(k, size) entries
        that are *not* globally top-k, falling back to the exploit pool when
        the island consists purely of global top-k members.
        """
        if not self.islands:
            raise ArchiveError("islands are not enabled")
        if not self.entries:
            raise ArchiveError("all islands are empty")
        n = self.islands.island_count
        for step in range(1, n + 1):
            candidate = (self.cursor + step) % n
            if self._island_set[candidate]:
                self.cursor = candidate
                break
        global_top = {i for _, _, i in self._rank[:k]}
        exploit_pool = sorted(global_top & self._island_set[self.cursor])
        explore_pool = [i for i in islice(self._ranked(self.cursor), k) if i not in global_top]
        exploit = rng.random() < self.islands.exploit_prob
        if exploit:
            pool = exploit_pool or explore_pool
        else:
            pool = explore_pool or exploit_pool
        return self.entries[pool[int(rng.integers(0, len(pool)))]]

    def migrate(self) -> None:
        """Add each island's top fraction of members to the next island on
        the ring (island count-1 feeds island 0). Migration adds membership,
        not entries, so it neither consumes budget nor moves the ranking.

        Every island's sources, its first ``ceil(fraction * size)`` indices
        in ranking order, are taken before any island gains members.
        """
        if not self.islands:
            raise ArchiveError("islands are not enabled")
        fraction = self.islands.migration_fraction
        sources = [list(islice(self._ranked(island), int(np.ceil(fraction * len(members)))))
                   for island, members in enumerate(self._island_set)]
        for island, indices in enumerate(sources):
            self._island_set[(island + 1) % self.islands.island_count].update(indices)

    def dump_jsonl(self, path: str | Path) -> None:
        """One record per entry: {text, score, provenance, iteration, islands}."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, c in enumerate(self.entries):
                record = {"text": c.text, "score": c.score, "provenance": c.provenance,
                          "iteration": c.born_iteration, "islands": self.islands_of(i)}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
