import numpy as np
import pytest

from migrate.completion import Completion
from migrate.grpo import make_group
from migrate.policy import (TASK_CONTEXT, ContextKind, PolicyIOError, PolicyParams, Vocabulary,
                            init_params, load_params, logprobs, position_bucket,
                            sample_completion, save_params, step_rows, token_steps)

NS_CONTEXT = ContextKind.NEIGHBORHOOD


def make_vocab(size, end_last=True):
    names = tuple(f"t{i}" for i in range(size - 1)) + ("</s>",)
    return Vocabulary(names, end_token=size - 1 if end_last else 0)


def random_params(rng, size=6, buckets=3, max_len=5, scale=0.7):
    vocab = make_vocab(size)
    base = init_params(vocab, position_buckets=buckets, max_len=max_len)
    return base.with_weights(rng.normal(scale=scale, size=base.W.shape))


def step_probs(params, ctx, prev, pos, temperature=1.0):
    """The step distribution at (ctx, prev, pos), read from ``step_rows``;
    ``prev=None`` is the first step."""
    prev = params.vocab.end_token if prev is None else prev
    bucket = position_bucket(pos, params.position_buckets, params.max_len)
    return step_rows(params.W, ctx, np.array([prev]), np.array([bucket]), temperature)[0]


def first_step_old(params, group):
    """The old log-probs an update of ``group`` from ``params`` takes from
    its first step's rows."""
    probs = step_rows(params.W, TASK_CONTEXT, group.prev, group.buckets)
    return np.log(probs[np.arange(group.tokens.size), group.tokens])


class TestVocabulary:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a"), end_token=0)

    def test_rejects_end_out_of_range(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "b"), end_token=2)


class TestDistribution:
    def test_zero_weights_uniform(self):
        params = init_params(make_vocab(8), max_len=4)
        p = step_probs(params, TASK_CONTEXT, None, 0)
        assert np.allclose(p, 1 / 8, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = random_params(rng)
            prev = int(rng.integers(0, params.vocab.size - 1))
            pos = int(rng.integers(0, params.max_len))
            ctx = TASK_CONTEXT if rng.random() < 0.5 else NS_CONTEXT
            p = step_probs(params, ctx, prev, pos)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_temperature_preserves_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = random_params(rng)
            base = step_probs(params, TASK_CONTEXT, None, 0, temperature=1.0)
            for temp in (0.25, 0.5, 2.0, 7.5):
                p = step_probs(params, TASK_CONTEXT, None, 0, temperature=temp)
                assert np.argmax(p) == np.argmax(base)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_step_table_rejects_non_positive_or_non_finite_temperature(self, temperature):
        params = random_params(np.random.default_rng(3))
        with pytest.raises(ValueError, match="temperature"):
            params.cdf(TASK_CONTEXT, temperature)


class TestSampling:
    def test_zero_weights_uniform_frequencies(self):
        params = init_params(make_vocab(8), max_len=3)
        rng = np.random.default_rng(11)
        counts = np.zeros(8)
        draws = 0
        while draws < 10_000:
            c = sample_completion(params, TASK_CONTEXT, 1.0, rng)
            for t in c.tokens:
                counts[t] += 1
                draws += 1
        p = 1 / 8
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_greedy_limit_takes_argmax(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, size=6, max_len=4)
        c = sample_completion(params, TASK_CONTEXT, 1e-6, np.random.default_rng(3))
        prev = None
        for pos, tok in enumerate(c.tokens):
            p = step_probs(params, TASK_CONTEXT, prev, pos)
            assert tok == int(np.argmax(p))
            prev = tok

    def test_fixed_seed_replays(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, size=8, max_len=6)
        a = sample_completion(params, TASK_CONTEXT, 1.0, np.random.default_rng(99))
        b = sample_completion(params, TASK_CONTEXT, 1.0, np.random.default_rng(99))
        assert a.tokens == b.tokens

    def test_stops_at_end_or_max_len(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, size=4, max_len=5)
        for seed in range(50):
            c = sample_completion(params, TASK_CONTEXT, 1.0, np.random.default_rng(seed))
            assert len(c.tokens) <= 5
            end = params.vocab.end_token
            if end in c.tokens:
                assert c.tokens.index(end) == len(c.tokens) - 1


class TestLogprobs:
    def test_zero_weights_uniform(self):
        params = init_params(make_vocab(8), max_len=4)
        lp = logprobs(params, TASK_CONTEXT, (0, 3, 5))
        assert np.allclose(lp, -np.log(8), atol=1e-14)

    def test_length_one_mass_at_most_one(self):
        # Enumerating the V=4 single-token space exhausts the first-step
        # distribution, so the probability mass must total at most 1.
        rng = np.random.default_rng(6)
        params = random_params(rng, size=4, max_len=3)
        mass = sum(np.exp(logprobs(params, TASK_CONTEXT, (t,)).sum()) for t in range(4))
        assert mass <= 1.0 + 1e-12
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_weight_perturbation_hits_only_active_features(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, size=5, buckets=2, max_len=4)
        tokens = (1, 3, 0)
        base = logprobs(params, TASK_CONTEXT, tokens)
        delta = 1e-6
        for f in range(params.feature_dim):
            W = params.W.copy()
            W[f, 2] += delta
            bumped = logprobs(params.with_weights(W), TASK_CONTEXT, tokens)
            for pos in range(len(tokens)):
                prev = tokens[pos - 1] if pos else params.vocab.end_token
                bucket = min(pos * params.position_buckets // params.max_len,
                             params.position_buckets - 1)
                active = {int(TASK_CONTEXT), 2 + prev, 2 + params.vocab.size + bucket}
                changed = abs(bumped[pos] - base[pos]) > 0
                assert changed == (f in active), (f, pos)

    def test_rejects_out_of_vocab(self):
        params = init_params(make_vocab(4), max_len=4)
        with pytest.raises(ValueError):
            logprobs(params, TASK_CONTEXT, (0, 9))

    def test_rejects_too_long(self):
        params = init_params(make_vocab(4), max_len=2)
        with pytest.raises(ValueError):
            logprobs(params, TASK_CONTEXT, (0, 1, 2))


class TestTokenSteps:
    """``token_steps`` edge cases, read through ``logprobs`` and ``make_group``."""

    @staticmethod
    def group(params, sequences):
        return make_group(params, [Completion(tokens=t, provenance="online", score=float(i))
                                   for i, t in enumerate(sequences)])

    def test_empty_sequence(self):
        params = random_params(np.random.default_rng(12), size=5, max_len=4)
        tokens, prev, buckets = token_steps(params, [()])
        assert tokens.size == prev.size == buckets.size == 0
        assert logprobs(params, TASK_CONTEXT, ()).shape == (0,)
        group = self.group(params, [(), (1, 2)])
        assert group.tokens.tolist() == [1, 2]
        assert group.prev.tolist() == [params.vocab.end_token, 1]
        assert first_step_old(params, group).tobytes() == \
            logprobs(params, TASK_CONTEXT, (1, 2)).tobytes()

    def test_exactly_max_len_accepted_one_more_rejected(self):
        params = random_params(np.random.default_rng(13), size=5, buckets=3, max_len=4)
        full = (0, 1, 2, 3)
        _, _, buckets = token_steps(params, [full])
        assert buckets.tolist() == [0, 0, 1, 2]
        assert logprobs(params, TASK_CONTEXT, full).shape == (4,)
        group = self.group(params, [full, (1,)])
        assert group.buckets.tolist() == [0, 0, 1, 2, 0]
        with pytest.raises(ValueError, match="max_len"):
            logprobs(params, TASK_CONTEXT, full + (0,))
        with pytest.raises(ValueError, match="max_len"):
            self.group(params, [full + (0,), (1,)])

    def test_end_token_is_prev_at_each_member_start(self):
        params = random_params(np.random.default_rng(14), size=5, max_len=4)
        end = params.vocab.end_token
        sequences = [(1, 2), (3,), (0, 4, 1)]
        tokens, prev, _ = token_steps(params, sequences)
        assert prev.tolist() == [end, 1, end, end, 0, 4]
        group = self.group(params, sequences)
        assert group.prev.tolist() == prev.tolist()
        ref = np.concatenate([logprobs(params, TASK_CONTEXT, t) for t in sequences])
        assert first_step_old(params, group).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("buckets,max_len", [(1, 1), (1, 5), (3, 4), (4, 9), (6, 6)])
    def test_equal_per_token_reference_loop(self, buckets, max_len):
        rng = np.random.default_rng(buckets * 10 + max_len)
        params = random_params(rng, size=5, buckets=buckets, max_len=max_len)
        end = params.vocab.end_token
        for _ in range(30):
            extra = rng.integers(0, max_len + 1, size=int(rng.integers(0, 5)))
            lengths = [0, max_len] + list(extra)
            rng.shuffle(lengths)
            sequences = [tuple(int(t) for t in rng.integers(0, 5, size=n)) for n in lengths]
            ref_tokens, ref_prev, ref_buckets = [], [], []
            for seq in sequences:
                last = end
                for pos, tok in enumerate(seq):
                    ref_tokens.append(tok)
                    ref_prev.append(last)
                    ref_buckets.append(min(pos * buckets // max_len, buckets - 1))
                    last = tok
            got = token_steps(params, sequences)
            assert [a.dtype for a in got] == [np.dtype(np.intp)] * 3
            assert [a.tolist() for a in got] == [ref_tokens, ref_prev, ref_buckets]


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, size=7, buckets=3, max_len=6)
        loaded = load_params(save_params(params), vocab=params.vocab)
        assert loaded.W.tobytes() == params.W.tobytes()
        assert loaded.position_buckets == params.position_buckets
        assert loaded.max_len == params.max_len
        assert loaded.vocab == params.vocab

    def test_truncated_stream(self):
        params = init_params(make_vocab(4), max_len=3)
        data = save_params(params)
        with pytest.raises(PolicyIOError, match="expected"):
            load_params(data[:-1])
        with pytest.raises(PolicyIOError, match="header needs"):
            load_params(data[:10])

    def test_version_mismatch(self):
        params = init_params(make_vocab(4), max_len=3)
        data = bytearray(save_params(params))
        data[3] = ord("2")  # MGP2
        with pytest.raises(PolicyIOError, match="unsupported magic/version"):
            load_params(bytes(data))

    def test_non_finite_payload(self):
        params = init_params(make_vocab(4), max_len=3)
        data = bytearray(save_params(params))
        data[20:28] = np.array([np.nan]).tobytes()
        with pytest.raises(PolicyIOError, match="non-finite"):
            load_params(bytes(data))

    def test_inconsistent_header(self):
        params = init_params(make_vocab(4), max_len=3)
        data = bytearray(save_params(params))
        data[8:12] = (99).to_bytes(4, "little")  # F that contradicts V and P
        with pytest.raises(PolicyIOError, match="inconsistent header"):
            load_params(bytes(data))

    def test_vocab_size_mismatch(self):
        params = init_params(make_vocab(4), max_len=3)
        with pytest.raises(PolicyIOError, match="vocabulary size"):
            load_params(save_params(params), vocab=make_vocab(5))


class TestImmutability:
    def test_weights_are_read_only(self):
        params = init_params(make_vocab(4), max_len=3)
        with pytest.raises(ValueError):
            params.W[0, 0] = 1.0

    def test_rejects_non_finite_weights(self):
        vocab = make_vocab(4)
        W = np.zeros((2 + 4 + 4, 4))
        W[0, 0] = np.inf
        with pytest.raises(ValueError):
            PolicyParams(W, vocab, 4, 3)
