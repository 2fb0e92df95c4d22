import numpy as np
import pytest

from migrate.policy import (TASK_CONTEXT, ContextKind, ParamsFormatError, ParamsNonFiniteError,
                            ParamsTruncatedError, ParamsVersionError, PolicyParams, Vocabulary,
                            encode_features, feature_slots, init_params, load_params,
                            logprob_grad, logprobs, sample_completion, save_params,
                            token_distribution)

NS_CONTEXT = ContextKind.NEIGHBORHOOD


def make_vocab(size, end_last=True):
    names = tuple(f"t{i}" for i in range(size - 1)) + ("</s>",)
    return Vocabulary(names, end_token=size - 1 if end_last else 0)


def random_params(rng, size=6, buckets=3, max_len=5, scale=0.7):
    vocab = make_vocab(size)
    base = init_params(vocab, position_buckets=buckets, max_len=max_len)
    return base.with_weights(rng.normal(scale=scale, size=base.W.shape))


class TestVocabulary:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a"), end_token=0)

    def test_rejects_end_out_of_range(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "b"), end_token=2)


class TestEncodeFeatures:
    def test_first_step_slots(self):
        params = init_params(make_vocab(8), position_buckets=4, max_len=4)
        phi = encode_features(params, TASK_CONTEXT, None, 0)
        # context slot 0, start aliases the end token's row, bucket 0
        assert phi[0] == 1.0
        assert phi[2 + params.vocab.end_token] == 1.0
        assert phi[2 + 8] == 1.0
        assert phi.sum() == 3.0

    def test_index_arithmetic(self):
        params = init_params(make_vocab(8), position_buckets=4, max_len=4)
        phi = encode_features(params, NS_CONTEXT, 3, 2)
        assert set(np.flatnonzero(phi)) == {1, 2 + 3, 2 + 8 + 2}

    def test_distinct_triples_distinct_vectors(self):
        # Exhaustive over V=4, P=2: every reachable (context, prev, pos)
        # triple maps to a distinct vector. prev=end is unreachable
        # mid-sequence (generation stops), so "start" may share its row.
        params = init_params(make_vocab(4), position_buckets=2, max_len=4)
        seen = {}
        for ctx in (TASK_CONTEXT, NS_CONTEXT):
            prevs = [None] + [t for t in range(4) if t != params.vocab.end_token]
            for prev in prevs:
                for pos in range(4):
                    key = tuple(np.flatnonzero(encode_features(params, ctx, prev, pos)))
                    bucket = pos * 2 // 4
                    triple = (ctx, prev, bucket)
                    if key in seen:
                        assert seen[key] == triple
                    seen[key] = triple
        distinct_triples = {v for v in seen.values()}
        assert len(seen) == len(distinct_triples)

    def test_position_out_of_range(self):
        params = init_params(make_vocab(4), position_buckets=2, max_len=4)
        with pytest.raises(ValueError):
            encode_features(params, TASK_CONTEXT, None, 4)

    def test_prev_token_out_of_vocab(self):
        params = init_params(make_vocab(4), position_buckets=2, max_len=4)
        with pytest.raises(ValueError):
            feature_slots(params, TASK_CONTEXT, 4, 0)


class TestDistribution:
    def test_zero_weights_uniform(self):
        params = init_params(make_vocab(8), max_len=4)
        p = token_distribution(params, TASK_CONTEXT, None, 0)
        assert np.allclose(p, 1 / 8, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = random_params(rng)
            prev = int(rng.integers(0, params.vocab.size - 1))
            pos = int(rng.integers(0, params.max_len))
            ctx = TASK_CONTEXT if rng.random() < 0.5 else NS_CONTEXT
            p = token_distribution(params, ctx, prev, pos)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_temperature_preserves_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = random_params(rng)
            base = token_distribution(params, TASK_CONTEXT, None, 0, temperature=1.0)
            for temp in (0.25, 0.5, 2.0, 7.5):
                p = token_distribution(params, TASK_CONTEXT, None, 0, temperature=temp)
                assert np.argmax(p) == np.argmax(base)


    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_step_table_rejects_non_positive_or_non_finite_temperature(self, temperature):
        params = random_params(np.random.default_rng(3))
        with pytest.raises(ValueError, match="temperature"):
            params.step_table(temperature)
        with pytest.raises(ValueError, match="temperature"):
            token_distribution(params, TASK_CONTEXT, None, 0, temperature=temperature)


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
            p = token_distribution(params, TASK_CONTEXT, prev, pos)
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
                prev = tokens[pos - 1] if pos else None
                phi = encode_features(params, TASK_CONTEXT, prev, pos)
                changed = abs(bumped[pos] - base[pos]) > 0
                assert changed == bool(phi[f]), (f, pos)

    def test_rejects_out_of_vocab(self):
        params = init_params(make_vocab(4), max_len=4)
        with pytest.raises(ValueError):
            logprobs(params, TASK_CONTEXT, (0, 9))

    def test_rejects_too_long(self):
        params = init_params(make_vocab(4), max_len=2)
        with pytest.raises(ValueError):
            logprobs(params, TASK_CONTEXT, (0, 1, 2))


class TestGradient:
    def test_analytic_matches_central_differences(self):
        # d log p / dW == (onehot - softmax) outer phi, checked by central
        # finite differences on random small instances.
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(25):
            params = random_params(rng, size=int(rng.integers(3, 9)),
                                   buckets=int(rng.integers(1, 5)), max_len=5)
            n = int(rng.integers(1, 6))
            tokens = tuple(int(t) for t in rng.integers(0, params.vocab.size, size=n))
            pos = int(rng.integers(0, n))
            ctx = TASK_CONTEXT if rng.random() < 0.5 else NS_CONTEXT
            grad = logprob_grad(params, ctx, tokens, pos)
            fd = np.zeros_like(grad)
            for f in range(grad.shape[0]):
                for v in range(grad.shape[1]):
                    for sign in (1.0, -1.0):
                        W = params.W.copy()
                        W[f, v] += sign * h
                        lp = logprobs(params.with_weights(W), ctx, tokens)[pos]
                        fd[f, v] += sign * lp / (2 * h)
            scale = max(1e-8, np.abs(grad).max(), np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale <= 1e-6

    def test_structure_matches_outer_product(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, size=5, max_len=4)
        tokens = (2, 0)
        grad = logprob_grad(params, TASK_CONTEXT, tokens, 1)
        p = token_distribution(params, TASK_CONTEXT, 2, 1)
        row = -p
        row[0] += 1.0
        phi = encode_features(params, TASK_CONTEXT, 2, 1)
        assert np.allclose(grad, np.outer(phi, row), atol=1e-15)


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
        with pytest.raises(ParamsTruncatedError):
            load_params(data[:-1])
        with pytest.raises(ParamsTruncatedError):
            load_params(data[:10])

    def test_version_mismatch(self):
        params = init_params(make_vocab(4), max_len=3)
        data = bytearray(save_params(params))
        data[3] = ord("2")  # MGP2
        with pytest.raises(ParamsVersionError):
            load_params(bytes(data))

    def test_non_finite_payload(self):
        params = init_params(make_vocab(4), max_len=3)
        data = bytearray(save_params(params))
        data[20:28] = np.array([np.nan]).tobytes()
        with pytest.raises(ParamsNonFiniteError):
            load_params(bytes(data))

    def test_inconsistent_header(self):
        params = init_params(make_vocab(4), max_len=3)
        data = bytearray(save_params(params))
        data[8:12] = (99).to_bytes(4, "little")  # F that contradicts V and P
        with pytest.raises(ParamsFormatError):
            load_params(bytes(data))

    def test_vocab_size_mismatch(self):
        params = init_params(make_vocab(4), max_len=3)
        with pytest.raises(ParamsFormatError):
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
