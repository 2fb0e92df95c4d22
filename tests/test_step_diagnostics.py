"""The diagnostics of a GRPO step equal the plain formulas, bit for bit.

The step clips with ``minimum``/``maximum``, counts clips with
``count_nonzero`` and takes the mean ratio as ``add.reduce / T``; these
tests check each diagnostic against ``np.clip``, ``ratios.mean()`` and
boolean sums on groups with clipped and tied ratios.
"""

import functools
import math
import operator
from dataclasses import astuple

import numpy as np
import pytest

from migrate.completion import Completion
from migrate.grpo import (GrpoDiagnostics, NonFiniteLossError, UpdateSpec, grpo_loss_and_grad,
                          make_group, update_policy)
from migrate.policy import TASK_CONTEXT, Vocabulary, init_params, logprobs, step_rows

UPDATE = UpdateSpec(learning_rate=0.3, mu=2)


def make_params(rng, V=7, P=3, max_len=6, scale=0.8):
    vocab = Vocabulary(tuple(f"t{i}" for i in range(V - 1)) + ("</s>",), end_token=V - 1)
    base = init_params(vocab, position_buckets=P, max_len=max_len)
    return base.with_weights(rng.normal(scale=scale, size=base.W.shape))


def make_members(rng, params, scores):
    V, max_len = params.vocab.size, params.max_len
    return [Completion(tokens=tuple(int(t) for t in rng.integers(0, V, size=int(n))),
                       provenance="online", score=score)
            for n, score in zip(rng.integers(1, max_len + 1, size=len(scores)), scores)]


def old_logprobs(old_params, group):
    """The group's task-context log-probs under ``old_params``, member by member."""
    return np.concatenate([logprobs(old_params, TASK_CONTEXT, c.tokens)
                           for c in group.completions])


def ref_diagnostics(probs, group, old, update):
    """The step diagnostics by the plain formulas, from the (T, V) rows
    ``probs`` and the old log-probs ``old``."""
    T = group.tokens.size
    ratios = np.exp(np.log(probs[np.arange(T), group.tokens]) - old)
    low_edge, high_edge = 1.0 - update.eps_low, 1.0 + update.eps_high
    unclipped = ratios * group.token_advantages
    clipped = np.clip(ratios, low_edge, high_edge) * group.token_advantages
    live = unclipped <= clipped
    below = ratios < low_edge
    obj_sum = functools.reduce(operator.add, np.where(live, unclipped, clipped).tolist(), 0.0)
    return GrpoDiagnostics(loss=float(-obj_sum / T), mean_ratio=float(ratios.mean()),
                           clip_low_frac=float((~live & below).sum()) / T,
                           clip_high_frac=float((~live & ~below).sum()) / T)


def bits(diag):
    """Each field's exact value (``-0.0``, ``inf`` and ``nan`` included), and its type."""
    return [(float.hex(v), type(v)) for v in astuple(diag)]


def edge_old(lp, ratio):
    """An old log-prob ``o`` with ``exp(lp - o) == ratio`` exactly, stepping
    ``o`` one float at a time from ``lp - log(ratio)``; None if none is met."""
    o = lp - np.log(ratio)
    for _ in range(8):
        got = np.exp(lp - o)
        if got == ratio:
            return o
        o = np.nextafter(o, np.inf if got > ratio else -np.inf)
    return None


def edge_group(rng, params, update):
    """A group and its old log-probs: one token on each clip edge, exactly,
    and the others frozen under perturbed weights, so both clip sides occur too."""
    old_params = params.with_weights(params.W + rng.normal(scale=1.5, size=params.W.shape))
    while True:
        group = make_group(params, make_members(rng, params, rng.normal(size=6)))
        old = old_logprobs(old_params, group)
        probs = step_rows(params.W, TASK_CONTEXT, group.prev, group.buckets)
        lp = np.log(probs[np.arange(group.tokens.size), group.tokens])
        free = list(range(group.tokens.size))
        for edge in (1.0 - update.eps_low, 1.0 + update.eps_high):
            hit = next((t for t in free if edge_old(lp[t], edge) is not None), None)
            if hit is None:
                break
            old[hit] = edge_old(lp[hit], edge)
            free.remove(hit)
        else:
            return group, old


class TestDiagnostics:
    def test_equal_the_plain_formulas_bit_for_bit(self):
        rng = np.random.default_rng(6)
        clipped_low = clipped_high = off_policy = 0
        for _ in range(40):
            params = make_params(rng, V=int(rng.integers(2, 12)), P=int(rng.integers(1, 5)))
            group, old = edge_group(rng, params, UPDATE)
            probs = step_rows(params.W, TASK_CONTEXT, group.prev, group.buckets)
            ref = ref_diagnostics(probs, group, old, UPDATE)
            _, _, diag = grpo_loss_and_grad(params, group, UPDATE, old)
            assert bits(diag) == bits(ref)
            # The update's second step, against the first step's log-probs.
            _, (_, second) = update_policy(params, group, UPDATE)
            _, grad, _ = grpo_loss_and_grad(params, group, UPDATE)
            step1 = params.with_weights(params.W - UPDATE.learning_rate * grad)
            ref_second = ref_diagnostics(step_rows(step1.W, TASK_CONTEXT, group.prev,
                                                   group.buckets),
                                         group, old_logprobs(params, group), UPDATE)
            assert bits(second) == bits(ref_second)
            off_policy += second.mean_ratio != 1.0
            ratios = np.exp(np.log(probs[np.arange(group.tokens.size), group.tokens]) - old)
            assert (ratios == 1.0 - UPDATE.eps_low).any()
            assert (ratios == 1.0 + UPDATE.eps_high).any()
            clipped_low += diag.clip_low_frac > 0
            clipped_high += diag.clip_high_frac > 0
        assert clipped_low and clipped_high and off_policy >= 30

    def test_non_finite_old_logprob_raises_with_diagnostics(self):
        rng = np.random.default_rng(7)
        for score in (1.0, -1.0):  # the -inf token's advantage, either sign
            params = make_params(rng)
            group = make_group(params, make_members(rng, params, [score, 0.0, 0.0]))
            old = old_logprobs(params, group)
            old[0] = -np.inf
            probs = step_rows(params.W, TASK_CONTEXT, group.prev, group.buckets)
            ref = ref_diagnostics(probs, group, old, UPDATE)
            with pytest.raises(NonFiniteLossError) as err:
                grpo_loss_and_grad(params, group, UPDATE, old)
            assert bits(err.value.diagnostics) == bits(ref)
            assert err.value.diagnostics.mean_ratio == np.inf
            # Under weights where the first token's probability underflows
            # to 0, the update's own old log-prob is -inf too: ratio nan.
            W = params.W.copy()
            W[int(TASK_CONTEXT), group.tokens[0]] = -1e4
            underflow = params.with_weights(W)
            probs = step_rows(underflow.W, TASK_CONTEXT, group.prev, group.buckets)
            assert probs[0, group.tokens[0]] == 0.0
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteLossError) as err:
                ref = ref_diagnostics(probs, group, old_logprobs(underflow, group), UPDATE)
                update_policy(underflow, group, UPDATE)
            assert bits(err.value.diagnostics) == bits(ref)
            assert math.isnan(err.value.diagnostics.mean_ratio)
