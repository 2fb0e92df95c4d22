"""Mixed-policy group construction: online, greedy, and local proposals.

Each iteration draws ``alpha`` fresh on-policy samples, reuses ``beta``
archive members chosen uniformly from the top-k, and generates ``gamma``
local proposals (neighborhood mutations of high-reward exemplars, or
score-weighted trajectory recombinations for the OPRO-style variant).
Only online and local members are newly evaluated; greedy members ride
along with their stored scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .archive import Archive
from .completion import GREEDY, NS, ONLINE, OPRO, Completion
# ``sample_completion`` (the one-draw form of ``sample_online``) stays
# importable from here: searchbench/spans.py wraps it under this name.
from .policy import (TASK_CONTEXT, ContextKind, PolicyParams, mutate_tokens,  # noqa: F401
                     sample_completion, sample_tokens)


@dataclass(frozen=True)
class MixSpec:
    """Group composition: ``alpha`` online, ``beta`` greedy (from the top
    ``top_k``) and ``gamma`` local members, so a group holds their sum."""

    alpha: int
    beta: int
    gamma: int
    top_k: int = 1
    mutation_rate: float = 0.25

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be >= 0")
        if self.alpha + self.gamma < 1:
            raise ValueError("at least one new sample per iteration is required")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0 < self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in (0, 1]")

    @property
    def group_size(self) -> int:
        return self.alpha + self.beta + self.gamma


@dataclass
class GroupDraft:
    """Unscored group in fixed (online, greedy, local) order."""

    online: list[Completion]
    greedy: list[Completion]
    local: list[Completion]


def sample_online(params: PolicyParams, context: ContextKind, alpha: int, temperature: float,
                  rng: np.random.Generator, *, born_iteration: int = 0) -> list[Completion]:
    """``alpha`` independent ancestral draws under the given context.

    Draw i reads row i of one ``(alpha, max_len)`` block of uniforms, the
    same stream ``alpha`` calls of :func:`sample_completion` would consume.
    """
    if alpha <= 0:
        return []
    uniforms = rng.random((alpha, params.max_len))
    return [Completion(tokens=tokens, provenance=ONLINE, born_iteration=born_iteration)
            for tokens in sample_tokens(params, context, temperature, uniforms)]


def select_greedy(archive: Archive, k: int, beta: int,
                  rng: np.random.Generator) -> list[Completion]:
    """Uniform draws (with replacement) from the archive's top-k.

    Selections are relabeled ``greedy`` copies of the stored entries (score
    carried over, never re-evaluated); an empty archive yields an empty list
    and the caller backfills with online samples.
    """
    if beta <= 0:
        return []
    pool = archive.topk(k)
    if not pool:
        return []
    picks = rng.integers(0, len(pool), size=beta)
    return [Completion(tokens=pool[int(i)].tokens, provenance=GREEDY,
                       born_iteration=pool[int(i)].born_iteration,
                       text=pool[int(i)].text, score=pool[int(i)].score)
            for i in picks]


def propose_neighborhood(params: PolicyParams, greedy_samples: list[Completion], gamma: int,
                         mutation_rate: float, rng: np.random.Generator, temperature: float = 1.0,
                         *, born_iteration: int = 0) -> list[Completion]:
    """Stochastic variations of exemplars under the neighborhood context.

    Each proposal copies a uniformly chosen exemplar and independently
    resamples every token position with probability ``mutation_rate`` from
    the policy conditioned on the neighborhood context.
    """
    if gamma <= 0:
        return []
    if not greedy_samples:
        raise ValueError("neighborhood proposals need at least one exemplar")
    bases, gate_u, tok_u = [], [], []
    for _ in range(gamma):
        base = greedy_samples[int(rng.integers(0, len(greedy_samples)))].tokens
        bases.append(base)
        # One call, the same stream as random(len(base)) twice: gates, then draws.
        u = rng.random(2 * len(base))
        gate_u.append(u[:len(base)])
        tok_u.append(u[len(base):])
    return [Completion(tokens=tokens, provenance=NS, born_iteration=born_iteration)
            for tokens in mutate_tokens(params, ContextKind.NEIGHBORHOOD, temperature, bases,
                                        gate_u, tok_u, mutation_rate)]


def _trajectory_weights(scores: np.ndarray) -> np.ndarray:
    # Shift to non-negative; the floor keeps every parent selectable and
    # degrades to uniform when all scores tie.
    lo, hi = scores.min(), scores.max()
    w = (scores - lo) + 0.05 * (hi - lo) + 1e-12
    return w / w.sum()


def propose_trajectory(top_m: list[Completion], gamma: int, mutation_rate: float,
                       rng: np.random.Generator, vocab_size: int,
                       *, born_iteration: int = 0) -> list[Completion]:
    """Positional recombination of a ranked trajectory of past solutions.

    Proposal length is drawn from the score-weighted length distribution of
    the parents; each position is drawn from the score-weighted empirical
    token distribution at that position, then mutated uniformly over the
    vocabulary with probability ``mutation_rate``.
    """
    if gamma <= 0:
        return []
    if not top_m:
        raise ValueError("trajectory proposals need a non-empty ranked list")
    scores = np.asarray([c.score if c.score is not None else 0.0 for c in top_m])
    weights = _trajectory_weights(scores)
    lengths = np.asarray([len(c.tokens) for c in top_m])
    out: list[Completion] = []
    for _ in range(gamma):
        n = int(lengths[int(rng.choice(len(top_m), p=weights))])
        tokens: list[int] = []
        for pos in range(n):
            live = [i for i in range(len(top_m)) if lengths[i] > pos]
            w = weights[live] / weights[live].sum()
            parent = top_m[live[int(rng.choice(len(live), p=w))]]
            tok = parent.tokens[pos]
            if rng.random() < mutation_rate:
                tok = int(rng.integers(0, vocab_size))
            tokens.append(int(tok))
        out.append(Completion(tokens=tuple(tokens), provenance=OPRO,
                              born_iteration=born_iteration))
    return out


def construct_group(mix: MixSpec, params: PolicyParams, archive: Archive, temperature: float,
                    rng: np.random.Generator, *, born_iteration: int = 0,
                    opro_depth: int | None = None,
                    island_rng: np.random.Generator | None = None) -> GroupDraft:
    """Build one group of exactly ``mix.group_size`` members, online ones
    drawn under the task context.

    Local members are trajectory recombinations of the archive's top
    ``opro_depth`` entries, or neighborhood proposals when ``opro_depth`` is
    None. Cold start (empty archive) backfills every greedy/local slot with
    extra online samples; all of those count as new evaluations. When the
    archive has islands the neighborhood exemplar comes from its island
    cursor, drawn with ``island_rng`` (ValueError if None), instead of the
    global top-k.
    """
    alpha, beta, gamma = mix.alpha, mix.beta, mix.gamma
    if len(archive) == 0:
        alpha, beta, gamma = mix.group_size, 0, 0

    online = sample_online(params, TASK_CONTEXT, alpha, temperature, rng,
                           born_iteration=born_iteration)
    greedy = select_greedy(archive, mix.top_k, beta, rng)
    local: list[Completion] = []
    if gamma > 0:
        if opro_depth is not None:
            top_m = archive.topk(opro_depth)
            local = propose_trajectory(top_m, gamma, mix.mutation_rate, rng,
                                       params.vocab.size, born_iteration=born_iteration)
        else:
            if archive.islands:
                if island_rng is None:
                    raise ValueError("island_rng is required on an island archive")
                exemplars = [archive.island_select(island_rng, mix.top_k)]
            elif greedy:
                exemplars = greedy
            else:
                exemplars = select_greedy(archive, mix.top_k, 1, rng)
            local = propose_neighborhood(params, exemplars, gamma, mix.mutation_rate, rng,
                                         temperature, born_iteration=born_iteration)
    return GroupDraft(online, greedy, local)
