import json

import numpy as np
import pytest

from migrate.archive import Archive, ArchiveError, IslandConfig
from migrate.completion import GREEDY, NS, ONLINE, Completion


def scored(score, tokens=(0,), provenance=ONLINE, born=0, text=""):
    return Completion(tokens=tokens, provenance=provenance, born_iteration=born,
                      text=text or f"s{score}", score=score)


def island_members(archive, island):
    """The island's entry indices, ascending, read through the public ``islands_of``."""
    return [i for i in range(len(archive)) if island in archive.islands_of(i)]


def island_archive(count=3, p=0.7, fraction=0.25):
    return Archive(islands=IslandConfig(island_count=count, exploit_prob=p,
                                        migration_fraction=fraction))


class TestInsert:
    def test_counts_accumulate(self):
        archive = Archive()
        archive.insert([scored(i / 10) for i in range(10)])
        archive.insert([scored(i / 10) for i in range(10)])
        assert archive.evaluated_count == 20
        assert len(archive) == 20

    def test_best_pointer_moves(self):
        archive = Archive()
        archive.insert([scored(0.5)])
        assert archive.best.score == 0.5
        archive.insert([scored(0.9)])
        assert archive.best.score == 0.9
        archive.insert([scored(0.2)])
        assert archive.best.score == 0.9

    def test_best_is_topk_head_when_a_later_entry_ties_with_an_earlier_birth(self):
        archive = Archive()
        assert archive.best is None
        archive.insert([scored(1.0, born=5, text="late"), scored(1.0, born=3, text="early")])
        assert archive.best is archive.topk(1)[0]
        assert archive.best.text == "early"

    def test_rejects_greedy_provenance(self):
        archive = Archive()
        with pytest.raises(ArchiveError):
            archive.insert([scored(0.5, provenance=GREEDY)])

    def test_rejects_unscored(self):
        archive = Archive()
        with pytest.raises(ArchiveError):
            archive.insert([Completion(tokens=(0,), provenance=ONLINE)])

    @pytest.mark.parametrize("island", [-1, 4, 5])
    def test_rejects_island_outside_range(self, island):
        # -1 used to land on island 3, and 4 raised a bare IndexError.
        archive = island_archive(count=4)
        with pytest.raises(ArchiveError, match=f"island {island}"):
            archive.insert([scored(0.5)], island=island)
        assert len(archive) == 0
        archive.insert([scored(0.5)], island=3)
        assert island_members(archive, 3) == [0]


class TestTopK:
    def test_basic_order(self):
        archive = Archive()
        archive.insert([scored(0.1), scored(0.9), scored(0.5)])
        assert [c.score for c in archive.topk(2)] == [0.9, 0.5]

    def test_tie_broken_by_born_iteration(self):
        archive = Archive()
        late = scored(0.5, born=4, text="late")
        early = scored(0.5, born=1, text="early")
        archive.insert([late, early])
        assert archive.topk(1)[0].text == "early"

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        archive = Archive()
        entries = [scored(float(rng.integers(0, 50)) / 10, born=int(rng.integers(0, 5)),
                          text=str(i)) for i in range(1000)]
        archive.insert(entries)
        # Brute-force oracle: stable sort of (score desc, born asc, insert asc).
        oracle = sorted(range(len(entries)),
                        key=lambda i: (-entries[i].score, entries[i].born_iteration, i))
        for k in (1, 3, 10, 50):
            assert [c.text for c in archive.topk(k)] == [entries[i].text for i in oracle[:k]]

    def test_short_archive(self):
        archive = Archive()
        archive.insert([scored(0.3)])
        assert len(archive.topk(5)) == 1


class TestIslandSelect:
    def test_requires_islands(self):
        with pytest.raises(ArchiveError):
            Archive().island_select(np.random.default_rng(0), 3)

    def test_empty_islands_rejected(self):
        with pytest.raises(ArchiveError):
            island_archive().island_select(np.random.default_rng(0), 3)

    def test_exploit_path_reaches_global_best(self):
        archive = island_archive(count=2, p=1.0)
        archive.insert([scored(0.9, text="best"), scored(0.1)], island=0)
        archive.insert([scored(0.5), scored(0.4)], island=1)
        seen = set()
        for s in range(50):
            archive.cursor = 1  # advance lands on island 0, which holds the best
            seen.add(archive.island_select(np.random.default_rng(s), 1).text)
        assert seen == {"best"}

    def test_explore_path_avoids_global_topk(self):
        # p=0: selections never come from the global top-k unless the island
        # holds nothing else.
        archive = island_archive(count=2, p=0.0)
        archive.insert([scored(0.9, text="g0"), scored(0.3, text="a"),
                        scored(0.2, text="b")], island=0)
        archive.insert([scored(0.8, text="g1"), scored(0.4, text="c")], island=1)
        top2 = {c.text for c in archive.topk(2)}
        assert top2 == {"g0", "g1"}
        for seed in range(1000):
            pick = archive.island_select(np.random.default_rng(seed), 2)
            assert pick.text not in top2

    def test_exploit_fallback_when_island_lacks_topk(self):
        archive = island_archive(count=2, p=1.0)
        archive.insert([scored(0.9, text="g0"), scored(0.8, text="g1")], island=0)
        archive.insert([scored(0.1, text="weak")], island=1)
        archive.cursor = 0  # advance to island 1: no global top-2 members
        pick = archive.island_select(np.random.default_rng(0), 2)
        assert pick.text == "weak"

    def test_single_island_degenerates_to_top_selection(self):
        archive = island_archive(count=1, p=0.0)
        archive.insert([scored(0.9, text="a"), scored(0.5, text="b"), scored(0.1, text="c")])
        picks = {archive.island_select(np.random.default_rng(s), 2).text for s in range(200)}
        # top min(k, size) pool is all-top-k; fallback covers both entries
        assert picks == {"a", "b"}

    def test_cursor_advances_cyclically_skipping_empty(self):
        archive = island_archive(count=4)
        archive.insert([scored(0.5)], island=1)
        archive.insert([scored(0.6)], island=3)
        rng = np.random.default_rng(1)
        archive.cursor = 0
        archive.island_select(rng, 1)
        assert archive.cursor == 1
        archive.island_select(rng, 1)
        assert archive.cursor == 3
        archive.island_select(rng, 1)
        assert archive.cursor == 1

    def test_exploit_probability_honored(self):
        # Both pools non-empty on every island, so membership in the global
        # top-k identifies the branch taken; the exploit rate must sit within
        # binomial 3 sigma of p.
        p = 0.7
        archive = island_archive(count=2, p=p)
        archive.insert([scored(0.95, text="t0"), scored(0.2, text="e0")], island=0)
        archive.insert([scored(0.90, text="t1"), scored(0.3, text="e1")], island=1)
        top = {"t0", "t1"}
        rng = np.random.default_rng(42)
        n = 10_000
        exploits = sum(archive.island_select(rng, 2).text in top for _ in range(n))
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(exploits - n * p) <= 3 * sigma


class TestMigrate:
    def test_hand_counted_exchange(self):
        # I=2, fraction 0.5, four entries each: both islands gain two members.
        archive = island_archive(count=2, fraction=0.5)
        archive.insert([scored(s, text=f"a{s}") for s in (0.1, 0.2, 0.3, 0.4)], island=0)
        archive.insert([scored(s, text=f"b{s}") for s in (0.5, 0.6, 0.7, 0.8)], island=1)
        archive.migrate()
        assert len(archive) == 8
        island0 = [archive.entries[i].text for i in island_members(archive, 0)]
        island1 = [archive.entries[i].text for i in island_members(archive, 1)]
        assert sorted(island0)[:2] == ["a0.1", "a0.2"]  # originals stay
        assert "b0.8" in island0 and "b0.7" in island0  # top members arrive
        assert "a0.4" in island1 and "a0.3" in island1
        assert archive.evaluated_count == 8  # migration is budget-free

    def test_zero_fraction_noop(self):
        archive = island_archive(count=2, fraction=0.0)
        archive.insert([scored(0.5)], island=0)
        archive.insert([scored(0.6)], island=1)
        archive.migrate()
        assert len(archive) == 2

    def test_ring_wraps_last_island_into_first(self):
        archive = island_archive(count=3, fraction=1.0)
        archive.insert([scored(0.9, text="last")], island=2)
        archive.migrate()
        island0 = [archive.entries[i].text for i in island_members(archive, 0)]
        assert island0 == ["last"]

    def test_migration_preserves_entries(self):
        rng = np.random.default_rng(2)
        archive = island_archive(count=4, fraction=0.3)
        for i in range(4):
            archive.insert([scored(float(rng.random()), text=f"{i}.{j}") for j in range(5)],
                           island=i)
        before = [c.text for c in archive.entries]
        archive.migrate()
        after = [c.text for c in archive.entries]
        assert after == before

    def test_migrate_adds_no_entry(self):
        archive = island_archive(count=3, fraction=0.5)
        archive.insert([scored(s, text=f"a{s}") for s in (0.9, 0.2, 0.9)], island=0)
        archive.insert([scored(s, text=f"b{s}") for s in (0.4, 0.9)], island=1)
        members = [{0, 1, 2}, {3, 4}, set()]
        best, evaluated = archive.best, archive.evaluated_count
        migrate_and_check(archive, members)
        assert archive.best is best and archive.best is archive.entries[0]
        assert archive.best_score == 0.9
        assert archive.evaluated_count == evaluated == len(archive) == 5

    def test_empty_islands_match_reference(self):
        archive = island_archive(count=4, fraction=0.75)
        archive.insert([scored(s, born=b) for s, b in ((0.5, 1), (0.5, 0), (0.7, 2))], island=0)
        archive.insert([scored(s) for s in (0.6, 0.5)], island=2)
        members = [{0, 1, 2}, set(), {3, 4}, set()]
        migrate_and_check(archive, members)
        assert_ranked_like_reference(archive, members)
        assert [archive.islands_of(i) for i in range(len(archive))] == \
            [[0, 1], [0, 1], [0, 1], [2, 3], [2, 3]]


def brute_ranked(entries, indices):
    return sorted(indices, key=lambda i: (-entries[i].score, entries[i].born_iteration, i))


def brute_island_select(archive, members, cursor, rng, k):
    """Full-sort reference of ``island_select``: (new cursor, picked index).
    ``members`` holds one set of entry indices per island."""
    n = archive.islands.island_count
    for step in range(1, n + 1):
        candidate = (cursor + step) % n
        if members[candidate]:
            cursor = candidate
            break
    island = sorted(members[cursor])
    global_top = set(brute_ranked(archive.entries, range(len(archive)))[:k])
    island_top = brute_ranked(archive.entries, island)[:k]
    exploit_pool = [i for i in island if i in global_top]
    explore_pool = [i for i in island_top if i not in global_top]
    if rng.random() < archive.islands.exploit_prob:
        pool = exploit_pool or explore_pool
    else:
        pool = explore_pool or exploit_pool
    return cursor, pool[int(rng.integers(0, len(pool)))]


def brute_moves(archive, members):
    """Full-sort reference of one ``migrate`` call: (source index, dest)
    pairs, sources taken from every island before any island gains one."""
    count = archive.islands.island_count
    moves = []
    for isl in range(count):
        take = int(np.ceil(archive.islands.migration_fraction * len(members[isl])))
        ranked = brute_ranked(archive.entries, members[isl])
        moves += [(i, (isl + 1) % count) for i in ranked[:take]]
    return moves


def migrate_and_check(archive, members):
    """Migrate, check that the entry list is untouched and add each move's
    source to its destination's set in ``members``."""
    moves = brute_moves(archive, members)
    before = list(archive.entries)
    archive.migrate()
    assert len(archive.entries) == len(before)
    assert all(after is entry for after, entry in zip(archive.entries, before))
    for i, dest in moves:
        members[dest].add(i)


def assert_ranked_like_reference(archive, members):
    order = brute_ranked(archive.entries, range(len(archive)))
    expected = [id(archive.entries[i]) for i in order]
    for k in range(1, len(archive) + 2):
        assert list(map(id, archive.topk(k))) == expected[:k]
    for isl in range(archive.islands.island_count):
        assert island_members(archive, isl) == sorted(members[isl])
        ranked = list(archive._ranked(isl))
        assert ranked == brute_ranked(archive.entries, members[isl])
    for i in range(len(archive)):
        assert archive.islands_of(i) == [isl for isl, held in enumerate(members) if i in held]


class TestRankIndex:
    """The incrementally kept ranking equals a full sort after every insert,
    island insert and migration."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_sort_reference(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 5))
        archive = island_archive(count=count, p=float(rng.random()),
                                 fraction=float(rng.choice([0.0, 0.25, 0.5])))
        members: list[set[int]] = [set() for _ in range(count)]
        for step in range(40):
            if rng.random() < 0.15 and archive.entries:
                migrate_and_check(archive, members)
            else:
                # Coarse scores and births make ties on both key fields common.
                batch = [scored(float(rng.integers(0, 6)) / 5, born=int(rng.integers(0, 4)),
                                text=f"{step}.{j}") for j in range(int(rng.integers(1, 4)))]
                island = int(rng.integers(0, count)) if rng.random() < 0.5 else None
                target = archive.cursor if island is None else island
                members[target].update(range(len(archive), len(archive) + len(batch)))
                archive.insert(batch, island=island)
            assert_ranked_like_reference(archive, members)
            if archive.entries:
                k = int(rng.integers(1, 5))
                draw_seed = int(rng.integers(0, 2**32))
                expected_cursor, expected = brute_island_select(
                    archive, members, archive.cursor, np.random.default_rng(draw_seed), k)
                picked = archive.island_select(np.random.default_rng(draw_seed), k)
                assert archive.cursor == expected_cursor
                assert picked is archive.entries[expected]

    @pytest.mark.parametrize("count,fraction,seed",
                             [(3, 1.0, 0), (4, 1.0, 1), (3, 0.75, 2), (4, 0.75, 3)])
    def test_back_to_back_migrations(self, count, fraction, seed):
        # Every island holds entries after the first call, so each later
        # call merges one run into every island's ranking (or finds all its
        # sources already held).
        rng = np.random.default_rng(seed)
        archive = island_archive(count=count, fraction=fraction)
        members: list[set[int]] = [set() for _ in range(count)]
        for j in range(count + 1):
            isl = j % count
            archive.insert([scored(float(rng.integers(0, 4)) / 3, born=int(rng.integers(0, 3)),
                                   text=f"{j}")], island=isl)
            members[isl].add(j)
        for _ in range(10):
            migrate_and_check(archive, members)
            assert_ranked_like_reference(archive, members)
            k = int(rng.integers(1, 6))
            draw_seed = int(rng.integers(0, 2**32))
            expected_cursor, expected = brute_island_select(
                archive, members, archive.cursor, np.random.default_rng(draw_seed), k)
            picked = archive.island_select(np.random.default_rng(draw_seed), k)
            assert archive.cursor == expected_cursor
            assert picked is archive.entries[expected]


class TestDump:
    def test_jsonl_schema(self, tmp_path):
        archive = island_archive(count=2)
        archive.insert([scored(0.5, text="hello", provenance=NS, born=3)], island=1)
        path = tmp_path / "archive.jsonl"
        archive.dump_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {"text": "hello", "score": 0.5, "provenance": "ns",
                          "iteration": 3, "islands": [1]}
