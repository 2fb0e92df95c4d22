"""Layer spans and work counters recorded from outside the program.

The search loop in ``migrate.harness`` calls each layer through a public
function looked up at call time: ``construct_group`` (sampler),
``sample_completion`` and ``logprobs`` (policy), ``make_group`` and
``update_policy`` (grpo), ``SearchTask.score_new`` (tasks) and the
``Archive`` methods (archive). ``instrument`` replaces each of those names
with a wrapper that records a span (name, start, end, parent) and the work
counts seen at that boundary, and restores the originals on exit. Spans are
kept in memory and aggregated after each search; nothing is written while a
search runs.

``iteration_clock`` is the untraced counterpart: it wraps only
``construct_group``, which the loop calls once per iteration, and records
one timestamp per call.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from collections.abc import Iterator

from migrate import archive, grpo, harness, sampler

# (owner, attribute, span name). The attribute is the name the caller looks
# up, so harness-level names are patched on ``harness`` and calls made inside
# the sampler on ``sampler``.
_BOUNDARIES = (
    (harness, "build_task", "harness.build_task"),
    (harness, "construct_group", "sampler.construct_group"),
    (harness, "make_group", "grpo.make_group"),
    (harness, "update_policy", "grpo.update_policy"),
    (sampler, "sample_online", "sampler.sample_online"),
    (sampler, "select_greedy", "sampler.select_greedy"),
    (sampler, "propose_neighborhood", "sampler.propose_neighborhood"),
    (sampler, "propose_trajectory", "sampler.propose_trajectory"),
    (sampler, "sample_completion", "policy.sample_completion"),
    (grpo, "logprobs", "policy.logprobs"),
    (archive.Archive, "insert", "archive.insert"),
    (archive.Archive, "topk", "archive.topk"),
    (archive.Archive, "island_select", "archive.island_select"),
    (archive.Archive, "migrate", "archive.migrate"),
)


def _count_online(counts: Counter, args: tuple, result) -> None:
    counts["sampler.online_tokens"] += sum(len(c.tokens) for c in result)


def _count_logprobs(counts: Counter, args: tuple, result) -> None:
    counts["policy.logprobs.tokens"] += len(result)


def _count_update(counts: Counter, args: tuple, result) -> None:
    group = args[1]
    counts["grpo.groups"] += 1
    if (group.advantages == 0.0).all():
        counts["grpo.noop_groups"] += 1
        return
    tokens = sum(len(c.tokens) for c in group.completions)
    diags = result[1]
    counts["grpo.steps"] += len(diags)
    counts["grpo.tokens"] += tokens * len(diags)
    counts["grpo.clipped_tokens"] += sum(
        round((d.clip_low_frac + d.clip_high_frac) * tokens) for d in diags)


def _count_scores(counts: Counter, args: tuple, result) -> None:
    counts["tasks.score_new.completions"] += len(result)
    counts["tasks.zero_scores"] += sum(1 for c in result if c.score == 0.0)


_COUNTERS = {
    "sampler.sample_online": _count_online,
    "policy.logprobs": _count_logprobs,
    "grpo.update_policy": _count_update,
    "tasks.score_new": _count_scores,
}

#: Every count the counters above keep; a layer that never runs counts 0.
COUNTS = ("sampler.online_tokens", "policy.logprobs.tokens", "grpo.groups", "grpo.noop_groups",
          "grpo.steps", "grpo.tokens", "grpo.clipped_tokens", "tasks.score_new.completions",
          "tasks.zero_scores")


class Tracer:
    """In-memory span list; ``spans[i] = [name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def aggregate(self, since: float) -> tuple[Counter, Counter, Counter, float]:
        """(calls, total seconds, self seconds) per span name over the spans
        that start at or after ``since``, plus the summed duration of those
        among them that have no parent."""
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        calls, total, own = Counter(), Counter(), Counter()
        top = 0.0
        for i, (name, start, _, parent) in enumerate(self.spans):
            if start < since:
                continue
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - child[i]
            if parent < 0:
                top += duration[i]
        return calls, total, own, top


@contextlib.contextmanager
def _patched(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer boundary; ``score_new`` is wrapped on each task that
    ``build_task`` returns, since the harness calls it on the instance."""
    replacements = []
    for owner, attr, name in _BOUNDARIES:
        wrapped = tracer.wrap(name, getattr(owner, attr))
        if attr == "build_task":
            wrapped = _wrap_score_new(tracer, wrapped)
        replacements.append((owner, attr, wrapped))
    with _patched(replacements):
        yield


def _wrap_score_new(tracer: Tracer, build_task):
    @functools.wraps(build_task)
    def build(config):
        task = build_task(config)
        task.score_new = tracer.wrap("tasks.score_new", task.score_new)
        return task

    return build


class FirstIteration(BaseException):
    """Ends a search at its first iteration. A ``BaseException`` so that the
    harness's ``except Exception`` does not record it as a failed run."""


@contextlib.contextmanager
def iteration_clock(stamps: list[float], stop: bool = False) -> Iterator[None]:
    """Append ``time.perf_counter()`` to ``stamps`` at the start of every
    search iteration; with ``stop``, raise FirstIteration at the first."""
    construct_group = harness.construct_group

    def clocked(*args, **kwargs):
        stamps.append(time.perf_counter())
        if stop:
            raise FirstIteration
        return construct_group(*args, **kwargs)

    with _patched([(harness, "construct_group", clocked)]):
        yield
