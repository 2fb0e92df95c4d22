import numpy as np
import pytest

from migrate.completion import NS, ONLINE, Completion
from migrate.tasks import (EmbeddingTable, WordSearchTask, load_embedding_table,
                           save_embedding_table, synthesize_embedding_table, word_reward)


@pytest.fixture(scope="module")
def table():
    return synthesize_embedding_table(np.random.default_rng(0), vocab_size=300, dim=12,
                                      clusters=5)


@pytest.fixture()
def task(table):
    return WordSearchTask(table, table.words[17], warmstart_count=20)


def levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class TestEmbeddingTable:
    def test_vectors_unit_norm(self, table):
        norms = np.linalg.norm(table.vectors, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_words_distinct(self, table):
        assert len(set(table.words)) == table.size == 300

    def test_file_round_trip(self, table, tmp_path):
        path = tmp_path / "emb.txt"
        save_embedding_table(table, path)
        loaded = load_embedding_table(path)
        assert loaded.words == table.words
        assert np.allclose(loaded.vectors, table.vectors, atol=1e-15)
        first = path.read_text().splitlines()[0]
        assert first == "300 12"

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            EmbeddingTable(("a", "b"), np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vector(self, value):
        # A NaN row used to load, and cosine then returned nan.
        with pytest.raises(ValueError, match="vector of word 'b' is not finite"):
            EmbeddingTable(("a", "b"), np.array([[1.0, 0.0], [value, 1.0]]))

    def test_planted_continuity(self, table):
        # Rewards of edit-distance-1 word pairs correlate more strongly than
        # rewards of random pairs: the landscape is smooth by construction.
        rng = np.random.default_rng(1)
        hidden = table.words[int(rng.integers(0, table.size))]
        rewards = table.vectors @ table.vectors[table.index(hidden)]
        close_pairs = []
        words = table.words
        for i in range(table.size):
            for j in range(i + 1, min(i + 60, table.size)):
                if levenshtein(words[i], words[j]) == 1:
                    close_pairs.append((i, j))
        assert len(close_pairs) >= 30
        idx = rng.integers(0, table.size, size=(len(close_pairs), 2))
        random_pairs = [(int(a), int(b)) for a, b in idx if a != b]

        def pair_corr(pairs):
            x = np.array([rewards[a] for a, _ in pairs])
            y = np.array([rewards[b] for _, b in pairs])
            return np.corrcoef(x, y)[0, 1]

        assert pair_corr(close_pairs) > pair_corr(random_pairs) + 0.2


class TestWordReward:
    def test_hidden_word_scores_one(self, task):
        assert word_reward(task, task.hidden_word) == 1.0

    def test_out_of_table_scores_zero(self, task):
        assert word_reward(task, "zzzzzzzzz") == 0.0

    def test_matches_dot_product_oracle(self, task, table):
        rng = np.random.default_rng(2)
        hv = table.vectors[table.index(task.hidden_word)]
        for _ in range(100):
            word = table.words[int(rng.integers(0, table.size))]
            if word == task.hidden_word:
                continue
            oracle = float(np.dot(table.vectors[table.index(word)], hv))
            assert word_reward(task, word) == pytest.approx(oracle, abs=1e-12)

    def test_bounded(self, task, table):
        for word in table.words[:200]:
            assert -1.0 <= word_reward(task, word) <= 1.0

    def test_one_only_for_hidden(self, task, table):
        for word in table.words:
            if word != task.hidden_word:
                assert word_reward(task, word) < 1.0


class TestVocabulary:
    def test_tokens_are_characters_plus_separator(self, task):
        assert task.vocab.tokens[-1] == "</s>"
        assert task.vocab.tokens[-2] == " "
        assert all(len(t) == 1 for t in task.vocab.tokens[:-1])

    def test_max_len_fits_two_capped_words(self, task):
        assert task.max_len == 2 * (task.word_cap + 1) - 1

    def test_tokens_and_word_cap_match_a_scan_of_the_words(self, task, table):
        # The table computes both once; a scan of every word is the reference.
        assert tuple(task.vocab.tokens[:-2]) == tuple(sorted({ch for w in table.words
                                                              for ch in w}))
        assert task.word_cap == max(len(w) for w in table.words)

    @pytest.mark.parametrize("words", [("ab", ""), ("ab", "a b")])
    def test_empty_or_spaced_words_rejected(self, words):
        table = EmbeddingTable(words, np.eye(2))
        with pytest.raises(ValueError, match="non-empty and contain no spaces"):
            WordSearchTask(table, "ab", warmstart_count=1)


class TestWarmstart:
    def test_more_warm_starts_than_words_rejected_at_construction(self):
        # warmstart used to raise "Cannot take a larger sample than
        # population" inside the search.
        table = EmbeddingTable(("ab", "ba"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert WordSearchTask(table, "ab", warmstart_count=2).warmstart_count == 2
        with pytest.raises(ValueError, match="warmstart_count 3 exceeds the table's 2 words"):
            WordSearchTask(table, "ab", warmstart_count=3)

    def test_twenty_scored_words(self, task, table):
        warm = task.warmstart(np.random.default_rng(3))
        assert len(warm) == 20
        assert all(c.provenance == "warmstart" for c in warm)
        assert len({c.text for c in warm}) == 20
        for c in warm:
            assert c.text in table
            assert c.score == word_reward(task, c.text)
            assert task.decode(c.tokens) == c.text


class TestScoreNew:
    def test_pairs_sorted_and_rewarded_by_max(self, task, table):
        # Fresh words are sorted by score and re-paired; each pair's reward
        # is its better word's score.
        rng = np.random.default_rng(4)
        picks = [table.words[int(i)] for i in rng.integers(0, table.size, 10)]
        completions = [
            Completion(tokens=task.encode_words([picks[2 * i], picks[2 * i + 1]]),
                       provenance=ONLINE, born_iteration=1)
            for i in range(5)
        ]
        scores = sorted((word_reward(task, w) for w in picks), reverse=True)
        out = task.score_new(list(completions))
        assert len(out) == 5
        assert [c.score for c in out] == [scores[0], scores[2], scores[4], scores[6], scores[8]]
        college = sorted(picks, key=lambda w: -word_reward(task, w))
        assert out[0].text == f"{college[0]} {college[1]}"

    def test_provenance_classes_kept_separate(self, task, table):
        online = [Completion(tokens=task.encode_words([table.words[0], table.words[1]]),
                             provenance=ONLINE, born_iteration=1)]
        local = [Completion(tokens=task.encode_words([table.words[2], table.words[3]]),
                            provenance=NS, born_iteration=1),
                 Completion(tokens=task.encode_words([table.words[4], table.words[5]]),
                            provenance=NS, born_iteration=1)]
        out = task.score_new(online + local)
        assert [c.provenance for c in out] == [ONLINE, NS, NS]
        assert set(out[0].text.split(" ")) == {table.words[0], table.words[1]}

    def test_junk_and_empty_decodes(self, task):
        end = task.vocab.end_token
        junk = Completion(tokens=(end,), provenance=ONLINE, born_iteration=1)
        offtable = Completion(tokens=task.encode_words(["zq"]), provenance=ONLINE,
                              born_iteration=1)
        out = task.score_new([junk, offtable])
        assert len(out) == 2
        assert out[0].text == "zq" and out[0].score == 0.0
        assert out[1].tokens == (end,) and out[1].score == 0.0

    def test_long_words_capped_before_scoring(self, task, table):
        word = table.words[7]
        padded = word + "x" * (task.max_len - len(word))
        tokens = tuple(task.vocab.tokens.index(ch) for ch in padded[: task.max_len])
        out = task.score_new([Completion(tokens=tokens, provenance=ONLINE, born_iteration=1)])
        assert out[0].text == padded[: task.word_cap]
        assert len(out[0].tokens) <= task.max_len

    def test_count_preserved(self, task):
        rng = np.random.default_rng(5)
        comps = [Completion(tokens=tuple(int(t) for t in rng.integers(0, task.vocab.size, 9)),
                            provenance=NS, born_iteration=2) for _ in range(7)]
        out = task.score_new(comps)
        assert len(out) == 7
        assert all(c.score is not None for c in out)

    def test_words_per_completion_sets_length_decode_and_grouping(self, table, monkeypatch):
        from migrate.tasks import words
        monkeypatch.setattr(words, "WORDS_PER_COMPLETION", 3)
        task = WordSearchTask(table, table.words[17], warmstart_count=20)
        assert task.max_len == 3 * (task.word_cap + 1) - 1
        picks = list(table.words[:6])
        completions = [Completion(tokens=task.encode_words(picks[3 * i: 3 * i + 3]),
                                  provenance=ONLINE, born_iteration=1) for i in range(2)]
        out = task.score_new(completions)
        ranked = sorted(picks, key=lambda w: -word_reward(task, w))
        assert [c.text for c in out] == [" ".join(ranked[:3]), " ".join(ranked[3:])]
        assert [c.score for c in out] == [word_reward(task, ranked[0]),
                                          word_reward(task, ranked[3])]

    def test_repeats_score_as_a_fresh_task_with_one_reward_per_word(self, task, table,
                                                                    monkeypatch):
        from migrate.tasks import words
        rewarded = []

        def counted(task, guess):
            rewarded.append(guess)
            return word_reward(task, guess)

        end, picks = task.vocab.end_token, list(table.words[:4]) + ["zq"]
        rng = np.random.default_rng(8)
        batches = []
        for _ in range(3):
            batch = []
            for i in rng.integers(0, len(picks), size=(6, 2)):
                tokens = task.encode_words([picks[i[0]], picks[i[1]]])
                tail = ((), (end,), (end, 0, 1))[len(batch) % 3]  # ignored after the end
                batch.append(Completion(tokens + tail, NS if len(batch) > 3 else ONLINE))
            batches.append(batch)
        refs = [WordSearchTask(table, task.hidden_word, warmstart_count=20).score_new(
            [Completion(c.tokens, c.provenance) for c in batch]) for batch in batches]
        monkeypatch.setattr(words, "word_reward", counted)
        for batch, ref in zip(batches, refs):
            out = task.score_new([Completion(c.tokens, c.provenance) for c in batch])
            assert [(c.tokens, c.text, c.score, c.provenance) for c in out] == \
                [(c.tokens, c.text, c.score, c.provenance) for c in ref]
        seen = {w for batch in batches for c in batch for w in task.decode_words(c.tokens)}
        assert sorted(rewarded) == sorted(seen)

    @pytest.mark.parametrize("planted", [True, False], ids=["planted-ties", "synthesized"])
    def test_tie_order_matches_the_stable_argsort_regrouping(self, table, planted):
        if planted:
            # Exact ties: "aa" and "abb" at 0.6, "ba", "aab" and the off-table
            # words at 0.0 (-0.0 once negated); "bb" and "bab" score below zero.
            rows = {"ab": [1.0, 0.0, 0.0], "ba": [0.0, -1.0, 0.0], "aa": [0.6, 0.8, 0.0],
                    "abb": [0.6, 0.0, 0.8], "bb": [-0.6, 0.8, 0.0], "bab": [-1.0, 0.0, 0.0],
                    "aab": [0.0, 0.0, 1.0]}
            table = EmbeddingTable(tuple(rows), np.array(list(rows.values())))
            task = WordSearchTask(table, "ab", warmstart_count=1)
            pool = list(table.words) + ["bbb", "aaa", "a", "b"]
            assert word_reward(task, "ba") == word_reward(task, "aab") == 0.0
        else:
            task = WordSearchTask(table, table.words[17], warmstart_count=20)
            by_reward = sorted(table.words, key=lambda w: word_reward(task, w))
            pool = by_reward[:6] + by_reward[-6:] + ["zq", "qqq", "xz"]
            assert min(word_reward(task, w) for w in pool) < 0.0
        end = task.vocab.end_token
        rng = np.random.default_rng(11)
        for _ in range(30):
            batch = []
            for provenance, length in ((ONLINE, 1), (NS, 4), (ONLINE, 3), (NS, 1)):
                for _ in range(length):
                    words = [pool[int(i)] for i in rng.integers(0, len(pool), rng.integers(0, 3))]
                    tokens = task.encode_words(words) if words else (end,)
                    batch.append(Completion(tokens, provenance, born_iteration=4))
            out = task.score_new([Completion(c.tokens, c.provenance, 4) for c in batch])
            assert [(c.tokens, c.text, c.score, c.provenance, c.born_iteration) for c in out] \
                == reference_regroup(task, batch)

    def test_decode_words(self, task, table):
        w1, w2 = table.words[4], table.words[9]
        assert task.decode_words(task.encode_words([w1, w2])) == [w1, w2]
        assert task.decode(task.encode_words([w1])) == w1


def reference_regroup(task, completions):
    """Each provenance run's words by ``np.argsort(-scores, kind="stable")``,
    re-paired in order: the regrouping ``score_new`` must reproduce."""
    segments, start = [], 0
    for i in range(1, len(completions) + 1):
        if i == len(completions) or completions[i].provenance != completions[start].provenance:
            segments.append(completions[start:i])
            start = i
    out = []
    for segment in segments:
        words = [w for c in segment for w in task.decode_words(c.tokens)]
        scores = np.asarray([word_reward(task, w) for w in words])
        order = np.argsort(-scores, kind="stable") if words else []
        ranked = [words[i] for i in order]
        for i, c in enumerate(segment):
            pair = ranked[2 * i: 2 * i + 2]
            if pair:
                out.append((task.encode_words(pair), " ".join(pair), float(scores[order[2 * i]]),
                            c.provenance, c.born_iteration))
            else:
                out.append(((task.vocab.end_token,), "", 0.0, c.provenance, c.born_iteration))
    return out
