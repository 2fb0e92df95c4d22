import numpy as np
import pytest

from migrate.archive import Archive, IslandConfig
from migrate.completion import GREEDY, NS, ONLINE, OPRO, Completion
from migrate.policy import TASK_CONTEXT, Vocabulary, init_params
from migrate.sampler import (MixSpec, construct_group, propose_neighborhood,
                             propose_trajectory, sample_online, select_greedy)


def make_params(size=8, max_len=6):
    vocab = Vocabulary(tuple(f"t{i}" for i in range(size - 1)) + ("</s>",), end_token=size - 1)
    return init_params(vocab, max_len=max_len)


def scored(tokens, score, provenance=ONLINE, born=1):
    return Completion(tokens=tuple(tokens), provenance=provenance, born_iteration=born,
                      text=str(tokens), score=score)


def filled_archive(scores, tokens_len=3):
    archive = Archive()
    archive.insert([scored((i % 4,) * tokens_len, s, born=i) for i, s in enumerate(scores)])
    return archive


class TestMixSpec:
    def test_group_size_is_the_sum(self):
        assert MixSpec(2, 2, 2).group_size == 6

    def test_needs_new_samples(self):
        with pytest.raises(ValueError):
            MixSpec(0, 5, 0)

    def test_valid(self):
        mix = MixSpec(0, 1, 4, top_k=3)
        assert mix.group_size == 5


class TestSampleOnline:
    def test_alpha_zero_empty(self):
        assert sample_online(make_params(), TASK_CONTEXT, 0, 1.0, np.random.default_rng(0)) == []

    def test_empirical_frequencies_uniform(self):
        params = make_params(size=8, max_len=2)
        rng = np.random.default_rng(1)
        counts = np.zeros(8)
        total = 0
        while total < 10_000:
            for c in sample_online(params, TASK_CONTEXT, 5, 1.0, rng):
                for t in c.tokens:
                    counts[t] += 1
                    total += 1
        p = 1 / 8
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) <= 3 * sigma)

    def test_deterministic(self):
        params = make_params()
        a = sample_online(params, TASK_CONTEXT, 5, 1.0, np.random.default_rng(7))
        b = sample_online(params, TASK_CONTEXT, 5, 1.0, np.random.default_rng(7))
        assert [c.tokens for c in a] == [c.tokens for c in b]
        assert all(c.provenance == ONLINE for c in a)


class TestSelectGreedy:
    def test_top_one(self):
        archive = filled_archive([0.9, 0.5, 0.1])
        picks = select_greedy(archive, 1, 1, np.random.default_rng(0))
        assert len(picks) == 1
        assert picks[0].score == 0.9
        assert picks[0].provenance == GREEDY

    def test_selections_within_top_k(self):
        archive = filled_archive(list(np.linspace(0, 1, 10)))
        top3 = {c.score for c in archive.topk(3)}
        for seed in range(1000):
            for c in select_greedy(archive, 3, 2, np.random.default_rng(seed)):
                assert c.score in top3

    def test_empty_archive(self):
        assert select_greedy(Archive(), 3, 1, np.random.default_rng(0)) == []

    def test_beta_beyond_k_draws_with_replacement(self):
        archive = filled_archive([0.9, 0.5])
        picks = select_greedy(archive, 1, 4, np.random.default_rng(0))
        assert len(picks) == 4
        assert all(c.score == 0.9 for c in picks)

    def test_greedy_scores_dominate_rest_of_archive(self):
        # Every selection scores at least as well as the (k+1)-th best entry.
        rng = np.random.default_rng(3)
        for trial in range(50):
            scores = list(rng.random(20))
            archive = filled_archive(scores)
            k = int(rng.integers(1, 6))
            floor = sorted(scores, reverse=True)[k] if len(scores) > k else -np.inf
            for c in select_greedy(archive, k, 4, rng):
                assert c.score >= floor


class TestProposeNeighborhood:
    def test_tiny_rate_copies_exemplar(self):
        params = make_params()
        exemplar = scored((1, 2, 3), 0.5)
        out = propose_neighborhood(params, [exemplar], 5, 1e-12, np.random.default_rng(0))
        assert all(c.tokens == exemplar.tokens for c in out)
        assert all(c.provenance == NS for c in out)

    def test_full_rate_expected_hamming(self):
        # Under a uniform policy with V=4, every resample keeps the original
        # token with probability 1/V, so E[dist] = len * (1 - 1/V).
        params = make_params(size=4, max_len=8)
        exemplar = scored((0, 1, 2, 0, 1, 2, 0, 1), 0.5)
        rng = np.random.default_rng(2)
        n, length = 4000, len(exemplar.tokens)
        dists = []
        for c in propose_neighborhood(params, [exemplar], n, 1.0, rng):
            dists.append(sum(a != b for a, b in zip(c.tokens, exemplar.tokens)))
        expected = length * (1 - 1 / 4)
        sigma = np.sqrt(length * (3 / 4) * (1 / 4) / n)
        assert abs(np.mean(dists) - expected) <= 4 * sigma

    def test_proposals_stay_near_some_exemplar(self):
        # Empirically frozen radius: with rate 0.25 every proposal lands in
        # a small Hamming ball around its source exemplar.
        params = make_params(size=4, max_len=8)
        exemplars = [scored((0, 0, 0, 0, 0, 0, 0, 0), 0.9),
                     scored((2, 2, 2, 2, 2, 2, 2, 2), 0.8)]
        worst = 0
        for seed in range(100):
            out = propose_neighborhood(params, exemplars, 6, 0.25,
                                       np.random.default_rng(seed))
            for c in out:
                dist = min(sum(a != b for a, b in zip(c.tokens, e.tokens))
                           for e in exemplars)
                worst = max(worst, dist)
        assert worst <= 6

    def test_changed_fraction_bounded_by_rate(self):
        # Resampling may redraw the original token, so the expected changed
        # fraction never exceeds the mutation rate, whatever the weights.
        rng = np.random.default_rng(9)
        vocab_size = 6
        params = make_params(size=vocab_size, max_len=10)
        params = params.with_weights(rng.normal(scale=1.0, size=params.W.shape))
        exemplar = scored(tuple(int(t) for t in rng.integers(0, vocab_size, 10)), 0.5)
        for rate in (0.1, 0.4, 0.8):
            changed = []
            for c in propose_neighborhood(params, [exemplar], 2000, rate, rng):
                changed.append(np.mean([a != b for a, b in zip(c.tokens, exemplar.tokens)]))
            margin = 3 * np.sqrt(rate * (1 - rate) / (2000 * 10))
            assert np.mean(changed) <= rate + margin

    def test_requires_exemplars(self):
        with pytest.raises(ValueError):
            propose_neighborhood(make_params(), [], 2, 0.25, np.random.default_rng(0))

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_rejects_non_positive_temperature(self, temperature):
        # Unchecked, 0.0 builds a NaN table (with only a RuntimeWarning) and
        # -1.0 samples from an inverted distribution.
        with pytest.raises(ValueError, match="temperature"):
            propose_neighborhood(make_params(), [scored((1, 2), 0.5)], 3, 0.25,
                                 np.random.default_rng(0), temperature=temperature)

    def test_gamma_zero_empty(self):
        out = propose_neighborhood(make_params(), [scored((1,), 0.1)], 0, 0.25,
                                   np.random.default_rng(0))
        assert out == []


class TestProposeTrajectory:
    def test_singleton_parent_copies(self):
        parent = scored((3, 1, 2), 0.7)
        out = propose_trajectory([parent], 4, 0.0, np.random.default_rng(0), vocab_size=8)
        assert all(c.tokens == parent.tokens for c in out)
        assert all(c.provenance == OPRO for c in out)

    def test_disjoint_parents_mix_positions(self):
        a = scored((0, 0, 0, 0), 0.9)
        b = scored((1, 1, 1, 1), 0.8)
        rng = np.random.default_rng(3)
        out = propose_trajectory([a, b], 50, 0.0, rng, vocab_size=8)
        mixed = [c for c in out if len(set(c.tokens)) > 1]
        assert mixed, "proposals should recombine positions of both parents"
        for c in out:
            assert set(c.tokens) <= {0, 1}

    def test_gamma_zero(self):
        assert propose_trajectory([scored((1,), 0.5)], 0, 0.1,
                                  np.random.default_rng(0), vocab_size=4) == []


class TestConstructGroup:
    def test_word_search_style_mix(self):
        # (alpha, beta, gamma) = (0, 1, 4): one reused member plus four
        # neighborhood proposals.
        params = make_params()
        archive = filled_archive(list(np.linspace(0.1, 0.9, 6)))
        mix = MixSpec(0, 1, 4, top_k=3)
        draft = construct_group(mix, params, archive, 1.0,
                                np.random.default_rng(0))
        assert len(draft.online + draft.greedy + draft.local) == 5
        provs = [c.provenance for c in draft.online + draft.greedy + draft.local]
        assert provs == [GREEDY] + [NS] * 4

    def test_large_mix(self):
        params = make_params()
        archive = filled_archive(list(np.linspace(0.1, 0.9, 6)))
        mix = MixSpec(11, 1, 4, top_k=1)
        draft = construct_group(mix, params, archive, 1.0,
                                np.random.default_rng(1))
        assert len(draft.online + draft.greedy + draft.local) == 16
        provs = [c.provenance for c in draft.online + draft.greedy + draft.local]
        assert provs == [ONLINE] * 11 + [GREEDY] + [NS] * 4

    def test_cold_start_backfills_online(self):
        params = make_params()
        mix = MixSpec(2, 1, 2, top_k=3)
        draft = construct_group(mix, params, Archive(), 1.0,
                                np.random.default_rng(2))
        assert len(draft.online + draft.greedy + draft.local) == 5
        assert all(c.provenance == ONLINE for c in draft.online + draft.greedy + draft.local)

    def test_ns_without_greedy_uses_topk_exemplar(self):
        params = make_params()
        archive = filled_archive([0.2, 0.9, 0.5])
        mix = MixSpec(0, 0, 5, top_k=1)
        draft = construct_group(mix, params, archive, 1.0,
                                np.random.default_rng(3))
        assert len(draft.online + draft.greedy + draft.local) == 5
        assert all(c.provenance == NS for c in draft.online + draft.greedy + draft.local)

    def test_opro_local_kind(self):
        params = make_params()
        archive = filled_archive([0.2, 0.9, 0.5])
        mix = MixSpec(1, 0, 4, top_k=1)
        draft = construct_group(mix, params, archive, 1.0,
                                np.random.default_rng(4), opro_depth=2)
        provs = [c.provenance for c in draft.online + draft.greedy + draft.local]
        assert provs == [ONLINE] + [OPRO] * 4

    def test_island_archive_needs_island_rng(self):
        archive = Archive(islands=IslandConfig(island_count=2))
        archive.insert([scored((1, 2), 0.5)], island=0)
        mix = MixSpec(0, 1, 4, top_k=1)
        with pytest.raises(ValueError, match="island_rng"):
            construct_group(mix, make_params(), archive, 1.0, np.random.default_rng(0))
        draft = construct_group(mix, make_params(), archive, 1.0, np.random.default_rng(0),
                                island_rng=np.random.default_rng(1))
        provs = [c.provenance for c in draft.online + draft.greedy + draft.local]
        assert provs == [GREEDY] + [NS] * 4

    def test_new_member_accounting(self):
        params = make_params()
        archive = filled_archive(list(np.linspace(0.1, 0.9, 8)))
        for alpha, beta, gamma in [(0, 1, 4), (2, 1, 2), (11, 1, 4), (3, 2, 3)]:
            mix = MixSpec(alpha, beta, gamma, top_k=2)
            draft = construct_group(mix, params, archive, 1.0,
                                    np.random.default_rng(alpha))
            assert len(draft.online + draft.local) == alpha + gamma
            assert len(draft.online + draft.greedy + draft.local) == mix.group_size
