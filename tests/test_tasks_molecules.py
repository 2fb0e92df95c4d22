import numpy as np
import pytest

from migrate.completion import ONLINE, Completion
from migrate.tasks import TwoObjectiveTask, is_valid, scalarize, scalarized_reward
from migrate.tasks.molecules import CHARS, SEED_FRAGMENTS


@pytest.fixture()
def task():
    return TwoObjectiveTask(np.random.default_rng(0))


class TestScalarize:
    def test_best_corner_exact(self):
        assert scalarize(-13.0, 1.0) == 1.0

    def test_worst_corner_exact(self):
        assert scalarize(0.0, 0.0) == 0.0

    def test_affinity_unit_vs_druglikeness_tenth(self):
        # Improving the affinity analog by 1 changes the score by 1/14,
        # about 10x the effect of a 0.1 druglikeness gain (0.1/14).
        base = scalarize(-5.0, 0.5)
        d_vina = scalarize(-6.0, 0.5) - base
        d_qed = scalarize(-5.0, 0.6) - base
        assert d_vina == pytest.approx(1 / 14, abs=1e-15)
        assert d_qed == pytest.approx(0.1 / 14, abs=1e-15)
        assert d_vina / d_qed == pytest.approx(10.0, abs=1e-9)

    def test_full_range_weighting_13_to_1(self):
        # Equal per-unit slopes over a 13-wide vs 1-wide range: the affinity
        # term owns 13/14 of the score, druglikeness 1/14.
        vina_swing = scalarize(-13.0, 0.5) - scalarize(0.0, 0.5)
        qed_swing = scalarize(-5.0, 1.0) - scalarize(-5.0, 0.0)
        assert vina_swing / qed_swing == pytest.approx(13.0, abs=1e-9)

    def test_monotonicity_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            vina = float(rng.uniform(-13.0, 0.0))
            qed = float(rng.uniform(0.0, 1.0))
            s = scalarize(vina, qed)
            assert 0.0 <= s <= 1.0
            eps = 1e-3
            if vina - eps >= -13.0:
                assert scalarize(vina - eps, qed) > s
            if qed + eps <= 1.0:
                assert scalarize(vina, qed + eps) > s


class TestValidity:
    @pytest.mark.parametrize("text,ok", [
        ("CC(=O)N", True),
        ("CCCCC", True),
        ("c1ccccc1", True),
        ("", False),
        ("CC)C(", False),
        ("CC(C", False),
        ("c1ccc", False),  # unpaired ring digit
        ("C1C1C2C2", True),
    ])
    def test_cases(self, text, ok):
        assert is_valid(text) is ok


class TestProxies:
    def test_ranges(self, task):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            text = "".join(CHARS[int(i)] for i in rng.integers(0, len(CHARS), n))
            assert -13.0 < task.vina_proxy(text) < 0.0
            assert 0.0 < task.qed_proxy(text) < 1.0

    def test_deterministic_given_seed(self):
        a = TwoObjectiveTask(np.random.default_rng(42))
        b = TwoObjectiveTask(np.random.default_rng(42))
        for text in ("CCO", "c1ccccc1", "N#CC"):
            assert a.vina_proxy(text) == b.vina_proxy(text)
            assert a.qed_proxy(text) == b.qed_proxy(text)

    def test_small_edits_small_changes(self, task):
        # Continuity: a one-character substitution moves the proxies by a
        # bounded amount relative to the full range.
        rng = np.random.default_rng(3)
        diffs = []
        for _ in range(200):
            chars = [CHARS[int(i)] for i in rng.integers(0, len(CHARS), 10)]
            text = "".join(chars)
            pos = int(rng.integers(0, 10))
            chars[pos] = CHARS[int(rng.integers(0, len(CHARS)))]
            edited = "".join(chars)
            diffs.append(abs(task.vina_proxy(text) - task.vina_proxy(edited)))
        assert np.mean(diffs) < 13.0 * 0.25


class TestScalarizedReward:
    def test_invalid_scores_zero(self, task):
        assert scalarized_reward(task, "CC(((") == 0.0

    def test_repeat_scores_zero(self, task):
        text = "CCO"
        first = scalarized_reward(task, text)
        assert first > 0.0
        assert scalarized_reward(task, text) == 0.0

    def test_matches_proxies(self, task):
        text = "c1ccccc1"
        expected = scalarize(task.vina_proxy(text), task.qed_proxy(text))
        assert scalarized_reward(task, text) == expected

    def test_strictly_better_with_better_objectives(self, task):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v1, v2 = sorted(rng.uniform(-13.0, 0.0, 2))
            q = float(rng.uniform(0, 1))
            assert scalarize(v1, q) > scalarize(v2, q)


class TestTaskSurface:
    def test_warmstart_fragments(self, task):
        warm = task.warmstart(np.random.default_rng(0))
        assert [c.text for c in warm] == list(SEED_FRAGMENTS)
        assert all(c.score is not None and c.score > 0 for c in warm)
        for c in warm:
            assert task.decode(c.tokens) == c.text

    def test_score_new_marks_seen(self, task):
        tokens = tuple(task.vocab.tokens.index(ch) for ch in "CCO")
        first = task.score_new([Completion(tokens=tokens, provenance=ONLINE)])
        second = task.score_new([Completion(tokens=tokens, provenance=ONLINE)])
        assert first[0].score > 0.0
        assert second[0].score == 0.0

    @pytest.mark.parametrize("max_len", [0, -3, 7])
    def test_max_len_below_the_longest_seed_fragment_rejected(self, max_len):
        # Every warm start must fit the policy: c1ccccc1 is 8 tokens.
        with pytest.raises(ValueError, match=f"molecules max_len must be >= 8, the length of "
                                             f"its longest seed fragment, got {max_len}"):
            TwoObjectiveTask(np.random.default_rng(0), max_len=max_len)
