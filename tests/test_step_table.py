"""Step rows and draw CDFs against straight per-step references, bit for bit.

Each reference below is the one-step-at-a-time form of an operation: a
softmax of the three active W rows, one inverse-CDF draw per step with
``searchsorted``, and a per-token loop for the clipped-surrogate terms and
gradient. The rows ``step_rows`` gathers, the CDFs draws read and the
update's steps must reproduce every bit of it.
"""

import numpy as np
import pytest

from migrate import harness
from migrate.completion import NS, Completion
from migrate.grpo import Adam, UpdateSpec, grpo_loss_and_grad, make_group, update_policy
from migrate.policy import (TASK_CONTEXT, ContextKind, PolicyParams, Vocabulary, init_params,
                            logprobs, mutate_tokens, sample_tokens, step_rows)
from migrate.sampler import propose_neighborhood, sample_online
from migrate.tasks.grids import GRID_VOCAB

NS_CONTEXT = ContextKind.NEIGHBORHOOD
# The loss and gradient tests read only its clip edges.
UPDATE = UpdateSpec(learning_rate=0.4, mu=3)


def make_params(rng, V, P=4, max_len=6, scale=1.5):
    vocab = Vocabulary(tuple(f"t{i}" for i in range(V - 1)) + ("</s>",), end_token=V - 1)
    base = init_params(vocab, position_buckets=P, max_len=max_len)
    return base.with_weights(rng.normal(scale=scale, size=base.W.shape))


def ref_step(params, ctx, prev, pos, temperature):
    W, V, P = params.W, params.vocab.size, params.position_buckets
    prev = params.vocab.end_token if prev is None else prev
    bucket = min(pos * P // params.max_len, P - 1)
    logits = W[ctx] + W[2 + prev] + W[2 + V + bucket]
    p = np.exp((logits - logits.max()) / temperature)
    return p / p.sum()


def ref_token(p, u):
    cdf = np.cumsum(p)
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), p.size - 1)


def ref_sample(params, ctx, temperature, rng):
    uniforms = rng.random(params.max_len)
    out, prev = [], None
    for pos in range(params.max_len):
        prev = ref_token(ref_step(params, ctx, prev, pos, temperature), uniforms[pos])
        out.append(prev)
        if prev == params.vocab.end_token:
            break
    return tuple(out)


def all_steps(params):
    """``(prev, buckets)`` of every step, prev-major."""
    V, P = params.vocab.size, params.position_buckets
    return tuple(a.ravel() for a in np.meshgrid(np.arange(V), np.arange(P), indexing="ij"))


def old_logprobs(old_params, group):
    """The group's task-context log-probs under ``old_params``, member by member."""
    return np.concatenate([logprobs(old_params, TASK_CONTEXT, c.tokens)
                           for c in group.completions])


CASES = [(V, P, max_len) for V in (2, 5, 28, GRID_VOCAB.size) for P, max_len in ((1, 3), (4, 9))]


@pytest.mark.parametrize("temperature", [1.0, 0.7])
@pytest.mark.parametrize("V,P,max_len", CASES)
def test_table_equals_per_step_softmax(V, P, max_len, temperature):
    params = make_params(np.random.default_rng(V * 100 + P), V, P, max_len)
    for ctx in (0, 1):
        cdf = params.cdf(ctx, temperature)
        assert cdf.shape == (V, P, V)
        for prev in [None] + list(range(V)):
            prev_row = params.vocab.end_token if prev is None else prev
            for pos in range(max_len):
                ref = ref_step(params, ctx, prev, pos, temperature)
                step = (prev_row, min(pos * P // max_len, P - 1))
                row = step_rows(params.W, ctx, np.array(step[:1]), np.array(step[1:]), temperature)
                assert row[0].tobytes() == ref.tobytes()
                assert cdf[step].tobytes() == np.cumsum(ref).tobytes()


@pytest.mark.parametrize("V,P,max_len", CASES)
def test_gathered_rows_equal_table_rows(V, P, max_len):
    params = make_params(np.random.default_rng(V * 100 + P + 1), V, P, max_len)
    prev, buckets = all_steps(params)
    for ctx in (TASK_CONTEXT, NS_CONTEXT):
        rows = step_rows(params.W, ctx, prev, buckets)
        for i in range(prev.size):
            one = step_rows(params.W, ctx, prev[i:i + 1], buckets[i:i + 1])
            assert rows[i].tobytes() == one[0].tobytes()


@pytest.mark.parametrize("temperature", [1.0, 0.6])
@pytest.mark.parametrize("V,P,max_len", CASES)
def test_broadcast_rows_equal_flattened_rows(V, P, max_len, temperature):
    params = make_params(np.random.default_rng(V * 100 + P + 2), V, P, max_len)
    for ctx in (TASK_CONTEXT, NS_CONTEXT):
        grid = step_rows(params.W, ctx, np.arange(V)[:, None], np.arange(P), temperature)
        flat = step_rows(params.W, ctx, *all_steps(params), temperature)
        assert grid.shape == (V, P, V)
        assert grid.tobytes() == flat.tobytes()
        assert step_rows(params.W, ctx, V - 1, P - 1, temperature).tobytes() \
            == grid[V - 1, P - 1].tobytes()


def test_table_is_cached_per_temperature_and_read_only():
    params = make_params(np.random.default_rng(0), 6)
    assert params.cdf(NS_CONTEXT, 0.7) is params.cdf(NS_CONTEXT, 0.7)
    assert params.cdf(NS_CONTEXT, 0.7) is not params.cdf(NS_CONTEXT, 1.0)
    assert params.with_weights(params.W.copy()).cdf(NS_CONTEXT, 0.7) \
        is not params.cdf(NS_CONTEXT, 0.7)
    assert params.cdf(NS_CONTEXT) is params.cdf(1) is not params.cdf(TASK_CONTEXT)
    for array in (params.cdf(TASK_CONTEXT), params.cdf(NS_CONTEXT)):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


@pytest.mark.parametrize("temperature", [1.0, 0.7, 0.05])
@pytest.mark.parametrize("V", [3, 28])
def test_batched_sampling_equals_one_at_a_time(V, temperature):
    params = make_params(np.random.default_rng(V), V, P=3, max_len=7)
    for seed in range(20):
        alpha = 1 + seed % 6
        ctx = TASK_CONTEXT if seed % 2 else NS_CONTEXT
        batched_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = sample_online(params, ctx, alpha, temperature, batched_rng, born_iteration=4)
        expected = [ref_sample(params, int(ctx), temperature, ref_rng) for _ in range(alpha)]
        assert [c.tokens for c in drawn] == expected
        assert all(c.provenance == "online" and c.born_iteration == 4 for c in drawn)
        assert batched_rng.bit_generator.state == ref_rng.bit_generator.state


def first_draws(params, ctx, temperature, us):
    """The first token drawn with each uniform in ``us``, plus its reference."""
    uniforms = np.zeros((len(us), params.max_len))
    uniforms[:, 0] = us
    got = [tokens[0] for tokens in sample_tokens(params, ctx, temperature, uniforms)]
    ref = [ref_token(ref_step(params, int(ctx), None, 0, temperature), u) for u in us]
    return got, ref


@pytest.mark.parametrize("scale", [1.5, 40.0])
def test_every_cdf_row_draws_as_the_reference(scale):
    # Mutating only the last position of a base whose other tokens are all
    # ``prev`` draws from the (prev, bucket) row; all_steps runs prev-major from
    # (0, 0) to (V - 1, P - 1), the first and last rows of the flat running sum.
    V, P, max_len = 9, 3, 7
    params = make_params(np.random.default_rng(13), V, P=P, max_len=max_len, scale=scale)
    # The last position of each bucket; each is at least 1, so it has a previous token.
    last_pos = {min(pos * P // max_len, P - 1): pos for pos in range(max_len)}
    us = (0.0, 0.5, 1.0 - 2 ** -53, 1.0)  # 1.0 never comes from a generator: the V - 1 cap
    for ctx, temperature in ((TASK_CONTEXT, 1.0), (NS_CONTEXT, 0.05)):
        prev, buckets = all_steps(params)
        rows = step_rows(params.W, ctx, prev, buckets, temperature)
        for p, b, row in zip(prev.tolist(), buckets.tolist(), rows):
            pos = last_pos[b]
            bases = [(p,) * pos + (0,)] * len(us)
            gates = [np.r_[np.ones(pos), 0.0]] * len(us)
            draws = [np.r_[np.zeros(pos), u] for u in us]
            got = mutate_tokens(params, ctx, temperature, bases, gates, draws, 0.5)
            assert [tokens[pos] for tokens in got] == [ref_token(row, u) for u in us]
        got, ref = first_draws(params, ctx, temperature, us)
        assert got == ref


def test_zero_uniform_skips_leading_zero_probability_tokens():
    params = make_params(np.random.default_rng(8), 6, scale=0.5)
    W = params.W.copy()
    W[0, :2] = -1e4  # exp underflows: tokens 0 and 1 get probability exactly 0
    params = params.with_weights(W)
    assert (params.cdf(TASK_CONTEXT)[:, :, :2] == 0.0).all()
    got, ref = first_draws(params, TASK_CONTEXT, 1.0, [0.0])
    assert got == ref and got[0] >= 2
    mutated = mutate_tokens(params, TASK_CONTEXT, 1.0, [(0, 1, 0)], [np.zeros(3)],
                            [np.zeros(3)], 0.5)
    assert all(tok >= 2 for tok in mutated[0])


def test_underflowed_rows_draw_as_the_reference():
    params = make_params(np.random.default_rng(9), 28, P=3, max_len=7, scale=40.0)
    assert np.mean([(step_rows(params.W, ctx, *all_steps(params), 0.05) == 0.0).mean()
                    for ctx in (TASK_CONTEXT, NS_CONTEXT)]) > 0.5
    us = np.random.default_rng(10).random(200).tolist() + [0.0, 1.0 - 2 ** -53]
    got, ref = first_draws(params, NS_CONTEXT, 0.05, us)
    assert got == ref
    for seed in range(20):
        drawn = sample_online(params, TASK_CONTEXT, 3, 0.05, np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        assert [c.tokens for c in drawn] == [ref_sample(params, 0, 0.05, ref_rng)
                                             for _ in range(3)]


def test_uniform_landing_on_a_cdf_entry_takes_the_right_side_index():
    # Zero weights over V=4: the CDF row is exactly (0.25, 0.5, 0.75, 1.0).
    vocab = Vocabulary(("a", "b", "c", "</s>"), end_token=3)
    params = init_params(vocab, position_buckets=1, max_len=3)
    assert params.cdf(0)[3, 0].tolist() == [0.25, 0.5, 0.75, 1.0]
    got, ref = first_draws(params, TASK_CONTEXT, 1.0, [0.0, 0.25, 0.5, 0.75])
    assert got == ref == [0, 1, 2, 3]


def test_mutating_a_base_longer_than_max_len_raises():
    # The policy has no position past max_len, so no bucket for such a tail.
    params = make_params(np.random.default_rng(11), 7, P=3, max_len=4)
    rng = np.random.default_rng(12)
    bases = [(1, 2, 3, 4), tuple(int(t) for t in rng.integers(0, 7, size=5))]
    gate_u, tok_u = [rng.random(4), rng.random(5)], [rng.random(4), rng.random(5)]
    with pytest.raises(ValueError, match="bases must have at most max_len=4 tokens"):
        mutate_tokens(params, NS_CONTEXT, 1.0, bases, gate_u, tok_u, 0.6)
    assert len(mutate_tokens(params, NS_CONTEXT, 1.0, bases[:1], gate_u[:1], tok_u[:1],
                             0.6)[0]) == 4


def test_zero_alpha_draws_nothing():
    params = make_params(np.random.default_rng(1), 5)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert sample_online(params, TASK_CONTEXT, 0, 1.0, rng) == []
    assert rng.bit_generator.state == state


def test_neighborhood_mutation_equals_per_step_reference():
    params = make_params(np.random.default_rng(2), 9, P=3, max_len=8)
    rng = np.random.default_rng(5)
    exemplars = [Completion(tokens=tuple(int(t) for t in rng.integers(0, 9, size=n)),
                            provenance="online", score=0.0) for n in (1, 4, 8)]
    for seed in range(20):
        got = propose_neighborhood(params, exemplars, 6, 0.5, np.random.default_rng(seed), 0.8)
        ref_rng = np.random.default_rng(seed)
        for proposal in got:
            base = exemplars[int(ref_rng.integers(0, len(exemplars)))].tokens
            gate_u, tok_u = ref_rng.random(len(base)), ref_rng.random(len(base))
            out, prev = [], None
            for pos, tok in enumerate(base):
                if gate_u[pos] < 0.5:
                    tok = ref_token(ref_step(params, 1, prev, pos, 0.8), tok_u[pos])
                out.append(tok)
                prev = tok
            assert proposal.tokens == tuple(out) and proposal.provenance == NS


@pytest.mark.parametrize("count", [1, 3])
def test_neighborhood_proposals_read_the_two_call_stream(count):
    # Each proposal's gates and draws are the two random(len(base)) calls in a row.
    params = make_params(np.random.default_rng(6), 9, P=3, max_len=8)
    rng = np.random.default_rng(7)
    exemplars = [Completion(tokens=tuple(int(t) for t in rng.integers(0, 9, size=n)),
                            provenance="online", score=0.0) for n in (5, 1, 8)[:count]]
    for seed in range(10):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = propose_neighborhood(params, exemplars, 5, 0.4, got_rng, 0.9, born_iteration=2)
        bases, gate_u, tok_u = [], [], []
        for _ in range(5):
            bases.append(exemplars[int(ref_rng.integers(0, count))].tokens)
            gate_u.append(ref_rng.random(len(bases[-1])))
            tok_u.append(ref_rng.random(len(bases[-1])))
        ref = mutate_tokens(params, NS_CONTEXT, 0.9, bases, gate_u, tok_u, 0.4)
        assert [c.tokens for c in got] == ref
        assert all(c.provenance == NS and c.born_iteration == 2 for c in got)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_logprobs_equal_per_step_reference():
    params = make_params(np.random.default_rng(3), 7, max_len=6)
    rng = np.random.default_rng(4)
    for _ in range(30):
        tokens = tuple(int(t) for t in rng.integers(0, 7, size=int(rng.integers(1, 7))))
        for ctx in (TASK_CONTEXT, NS_CONTEXT):
            prevs = (None,) + tokens[:-1]
            ref = np.array([np.log(ref_step(params, int(ctx), prev, pos, 1.0)[tok])
                            for pos, (prev, tok) in enumerate(zip(prevs, tokens))])
            assert logprobs(params, ctx, tokens).tobytes() == ref.tobytes()


def test_frozen_group_logprobs_equal_per_member_logprobs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        V, P, max_len = int(rng.integers(2, 12)), int(rng.integers(1, 6)), int(rng.integers(1, 9))
        params = make_params(rng, V, P=P, max_len=max_len)
        # Every length from 1 to max_len, so every position bucket, then random ones.
        lengths = list(range(1, max_len + 1)) + list(rng.integers(1, max_len + 1, size=3))
        comps = [Completion(tokens=tuple(int(t) for t in rng.integers(0, V, size=n)),
                            provenance="online", score=float(rng.normal())) for n in lengths]
        ref = np.concatenate([logprobs(params, TASK_CONTEXT, c.tokens) for c in comps])
        group = make_group(params, comps)
        # The update's old log-probs: its first step's rows, at its tokens.
        probs = step_rows(params.W, TASK_CONTEXT, group.prev, group.buckets)
        assert np.log(probs[np.arange(ref.size), group.tokens]).tobytes() == ref.tobytes()
        _, _, diag = grpo_loss_and_grad(params, group, UPDATE)
        assert grpo_loss_and_grad(params, group, UPDATE, ref)[2] == diag
        assert diag.mean_ratio == 1.0


def ref_loss_and_grad(params, group, old, update):
    """Per-token loop against old log-probs ``old``: running objective sum
    and per-row gradient updates."""
    V, P, F = params.vocab.size, params.position_buckets, params.feature_dim
    total = sum(len(c.tokens) for c in group.completions)
    grad = np.zeros((F, V))
    obj_sum = 0.0
    lengths = [len(c.tokens) for c in group.completions]
    olds = np.split(old, np.cumsum(lengths)[:-1])
    for comp, adv, old in zip(group.completions, group.advantages, olds):
        prev = None
        for pos, tok in enumerate(comp.tokens):
            p = ref_step(params, 0, prev, pos, 1.0)
            rho = np.exp(np.log(p[tok]) - old[pos])
            clipped = min(max(rho, 1.0 - update.eps_low), 1.0 + update.eps_high)
            if rho * adv <= clipped * adv:
                obj_sum += rho * adv
                scale = adv * rho / total
                bucket = min(pos * P // params.max_len, P - 1)
                end = params.vocab.end_token if prev is None else prev
                for row in (0, 2 + end, 2 + V + bucket):
                    grad[row] += scale * p
                    grad[row, tok] -= scale
            else:
                obj_sum += clipped * adv
            prev = tok
    return -obj_sum / total, grad


def test_gradient_equals_per_token_loop():
    rng = np.random.default_rng(6)
    for trial in range(40):
        V = int(rng.integers(2, 12))
        params = make_params(rng, V, P=int(rng.integers(1, 5)), max_len=6, scale=0.8)
        old_params = params.with_weights(params.W + rng.normal(scale=0.5, size=params.W.shape))
        comps = [Completion(tokens=tuple(int(t) for t in rng.integers(0, V, size=n)),
                            provenance="online", score=float(rng.normal()))
                 for n in rng.integers(1, 7, size=int(rng.integers(2, 9)))]
        group = make_group(params, comps)
        old = old_logprobs(old_params if trial % 2 else params, group)
        loss, grad, _ = grpo_loss_and_grad(params, group, UPDATE, old if trial % 2 else None)
        ref_loss, ref_grad = ref_loss_and_grad(params, group, old, UPDATE)
        assert float(loss) == float(ref_loss)
        assert grad.tobytes() == ref_grad.tobytes()


def random_group(rng, params):
    V = params.vocab.size
    comps = [Completion(tokens=tuple(int(t) for t in rng.integers(0, V, size=n)),
                        provenance="online", score=float(rng.normal()))
             for n in rng.integers(1, 7, size=int(rng.integers(2, 9)))]
    return make_group(params, comps)


@pytest.mark.parametrize("adam", [False, True], ids=["sgd", "adam"])
def test_update_equals_per_step_reference_loop(adam):
    # mu=3: steps 2 and 3 read rows computed from the intermediate weights,
    # against the first step's log-probs. Each step, Adam's too, is at the
    # spec's rate, whichever it is.
    rng = np.random.default_rng(13 + adam)
    for _ in range(20):
        params = make_params(rng, int(rng.integers(2, 12)), P=int(rng.integers(1, 5)),
                             max_len=6, scale=0.8)
        group = random_group(rng, params)
        old = old_logprobs(params, group)
        for lr in (0.4, 0.05):
            update = UpdateSpec(lr, 3, "adam" if adam else "sgd")
            new, diags = update_policy(params, group, update, Adam() if adam else None)
            optimizer, current, ref_losses = Adam(), params, []
            for _ in range(3):
                loss, grad = ref_loss_and_grad(current, group, old, update)
                ref_losses.append(float(loss))
                W = optimizer.apply(current.W, grad, lr) if adam else current.W - lr * grad
                current = current.with_weights(W)
            assert [d.loss for d in diags] == ref_losses
            assert new.W.tobytes() == current.W.tobytes()


def test_dead_tokens_leave_the_gradient_unchanged():
    # Scores 1, 0, 0.5, 0.5: the last two members have advantage exactly 0,
    # and old log-probs far from the current ones clip many tokens.
    rng = np.random.default_rng(14)
    seen_clipped = 0
    for _ in range(20):
        params = make_params(rng, 9, P=3, max_len=6, scale=0.8)
        old_params = params.with_weights(params.W + rng.normal(scale=2.0, size=params.W.shape))
        comps = [Completion(tokens=tuple(int(t) for t in rng.integers(0, 9, size=6)),
                            provenance="online", score=score) for score in (1.0, 0.0, 0.5, 0.5)]
        group = make_group(params, comps)
        old = old_logprobs(old_params, group)
        assert (group.advantages[2:] == 0.0).all()
        _, grad, diag = grpo_loss_and_grad(params, group, UPDATE, old)
        seen_clipped += diag.clip_low_frac + diag.clip_high_frac > 0
        assert grad.tobytes() == ref_loss_and_grad(params, group, old, UPDATE)[1].tobytes()
        assert not np.signbit(grad[grad == 0.0]).any()
    assert seen_clipped == 20


def test_words_search_builds_no_task_context_cdf(monkeypatch):
    """A words search draws only from the neighborhood context, so it builds
    no task-context CDF, and at most one CDF per weights it samples from."""
    built, updates = [], []
    cdf, update = PolicyParams.cdf, harness.update_policy

    def counting_cdf(params, context, temperature=1.0):
        if (int(context), temperature) not in params._cdfs:
            built.append((params, int(context)))
        return cdf(params, context, temperature)

    def counting_update(params, *args, **kwargs):
        new, diags = update(params, *args, **kwargs)
        updates.append(new is not params)
        return new, diags

    monkeypatch.setattr(PolicyParams, "cdf", counting_cdf)
    monkeypatch.setattr(harness, "update_policy", counting_update)
    config = harness.default_config("words", "migrate", budget=200, stop_threshold=None)
    assert config.update.mu == 2
    harness.run_any(config)
    assert sum(updates) >= 20
    assert len(built) <= sum(updates) + 1
    assert {context for _, context in built} == {int(NS_CONTEXT)}
    assert len({id(params) for params, _ in built}) == len(built)
