import concurrent.futures
import json
import math
import os
import re
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import migrate
from migrate.harness import (CONFIG_KEYS, METHODS, TASK_DEFAULTS, TASK_OPTIONS, RunConfig,
                             SolvedRun, _fmt, bootstrap_nearest, build_task, default_config,
                             emit_trace, initial_params, run_any, save_run_artifacts, sweep,
                             sweep_to_csv, trace_csv, trace_jsonl)
from migrate.policy import init_params, save_params
from migrate.tasks import DslProgram, synthesize_grid_task

SMALL_WORDS = {"vocab_size": 60, "dim": 8, "clusters": 6}

# A partial words/migrate config file: its mix, top_k, budget and warm starts.
PARTIAL_WORDS = {"method": "migrate", "task": "words", "alpha": 0, "beta": 1,
                 "gamma": 4, "top_k": 3, "budget": 1000, "warmstart_count": 20}


# The keys that also take null; no other key does.
OPTIONAL_KEYS = {"stop_threshold", "task_file", "bootstrap_params", "hidden_word"}
# Values of the wrong kind for each kind: a bool is never a count or a number.
WRONG_KINDS = {"an integer": [True], "a number": [True, "x"], "a string": [5],
               "an object": [5], "true or false": ["no"]}


def wrong_kind_cases():
    """(task, key, value, kind, option) for every CONFIG_KEYS key and, as an
    ``option`` of ``task``, every TASK_OPTIONS key: one case per wrong value."""
    keys = [("grids", key, kind, False) for key, (_, kind) in CONFIG_KEYS.items()]
    keys += [(task, key, kind, True) for task, options in TASK_OPTIONS.items()
             for key, kind in options.items()]
    return [pytest.param(task, key, value, kind, option, id=f"{key}-{value!r}")
            for task, key, kind, option in keys
            for value in WRONG_KINDS[kind.removesuffix(" or null")]]


def words_config(method, **overrides):
    overrides.setdefault("task_options", SMALL_WORDS)
    overrides.setdefault("budget", 60)
    return default_config("words", method, **overrides)


@pytest.fixture
def synthesized(monkeypatch):
    """The options of each words table the harness synthesizes, counted from
    an empty table memo."""
    from migrate import harness
    synthesize = harness.synthesize_embedding_table
    calls = []

    def counted(rng, **options):
        calls.append(options)
        return synthesize(rng, **options)

    harness._synthesized_words.cache_clear()
    monkeypatch.setattr(harness, "synthesize_embedding_table", counted)
    yield calls
    harness._synthesized_words.cache_clear()


class TestRunConfig:
    @pytest.mark.parametrize("overrides", [{"mutation_rate": 0.0},
                                           {"alpha": -1, "beta": 2, "gamma": 4},
                                           {"top_k": 0},
                                           {"alpha": 1, "beta": 0, "gamma": 0}])
    def test_invalid_mix_fails_at_construction(self, overrides):
        with pytest.raises(ValueError):
            default_config("words", "migrate", **overrides)

    def test_island_count_positive(self):
        # Warm starts are dealt round-robin over island_count islands.
        with pytest.raises(ValueError, match="island_count"):
            default_config("words", "migrate", islands=True, island_count=0)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_temperature_rejected(self, temperature):
        # words/migrate has alpha=0, so only its neighborhood draws read the
        # temperature; it must fail at construction, not return status ok.
        with pytest.raises(ValueError, match="temperature"):
            run_any(default_config("words", "migrate", seed=1, budget=100,
                                   temperature=temperature))

    @pytest.mark.parametrize("learning_rate", [-0.3, 0.0, float("nan"), float("inf")])
    def test_non_positive_learning_rate_rejected(self, learning_rate):
        # At -0.3 the run used to return status ok while every update
        # climbed the GRPO loss.
        with pytest.raises(ValueError, match="learning_rate"):
            default_config("words", "migrate", seed=1, budget=100, learning_rate=learning_rate)

    def test_huge_learning_rate_ends_the_run_with_error(self):
        # The first update leaves weights so large that the next group's
        # log-probs are not finite; the run keeps the records made so far.
        with np.errstate(all="ignore"):
            trace = run_any(default_config("words", "migrate", learning_rate=1e308, budget=200))
        assert trace.summary.status == "error"
        assert trace.summary.error.startswith("NonFiniteLossError")
        assert trace.records and trace.summary.iterations == len(trace.records)

    def test_opro_depth_positive(self):
        with pytest.raises(ValueError, match="opro_depth"):
            default_config("words", "migrate-opro", opro_depth=0)

    @pytest.mark.parametrize("overrides", [{"exploit_prob": 1.5}, {"migration_interval": 0},
                                           {"migration_fraction": -0.1}, {"eps_low": 1.0},
                                           {"eps_high": 0.0}, {"eps_high": float("nan")},
                                           {"eps_high": float("inf")}],
                             ids=["exploit_prob", "migration_interval", "migration_fraction",
                                  "eps_low", "eps_high", "eps_high-nan", "eps_high-inf"])
    def test_invalid_island_or_clip_setting_fails_at_construction(self, overrides):
        with pytest.raises(ValueError):
            default_config("grids", "migrate", islands=True, **overrides)

    @pytest.mark.parametrize("stop_threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_stop_threshold_rejected(self, stop_threshold):
        # A NaN threshold used to build a run that could never stop early,
        # and its config.json held the non-JSON token NaN.
        with pytest.raises(ValueError, match="stop_threshold must be finite or null"):
            default_config("molecules", "random", stop_threshold=stop_threshold)
        assert default_config("words", "random", stop_threshold=None).stop_threshold is None

    @pytest.mark.parametrize("task", ["words", "molecules", "grids"])
    def test_negative_warmstart_count_rejected(self, task):
        # A negative count used to slice the warm start from the end:
        # molecules began from 2 of its 3 fragments, grids from none, and
        # words failed inside its table lookup.
        with pytest.raises(ValueError, match="warmstart_count must be >= 0, got -1"):
            default_config(task, "random", budget=30, warmstart_count=-1)
        assert default_config(task, "random", budget=30, warmstart_count=0).warmstart_count == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            default_config("molecules", "random", seed=-1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'; accepted: random, ns, "):
            default_config("words", "bogus")
        with pytest.raises(ValueError, match="unknown task 'bogus'; accepted: words, molecules, "
                                             "grids"):
            default_config("bogus", "migrate")

    def test_budget_exceeds_warmstart(self):
        with pytest.raises(ValueError):
            default_config("words", "migrate", budget=10, warmstart_count=20)

    def test_json_round_trip(self):
        cfg = default_config("molecules", "migrate", seed=3)
        assert RunConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("islands", [False, True], ids=["islands-off", "islands-on"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("task", list(TASK_DEFAULTS))
    def test_every_default_config_round_trips(self, task, method, islands):
        # The kind check accepts every value a config.json holds, null included.
        cfg = default_config(task, method, islands=islands)
        text = cfg.to_json()
        assert RunConfig.from_json(text) == cfg
        assert json.loads(text)["stop_threshold"] == (None if task == "molecules" else 1.0)

    @pytest.mark.parametrize("task,key,value,kind,option", wrong_kind_cases())
    def test_value_of_the_wrong_kind_rejected(self, task, key, value, kind, option):
        # True used to pass as a count or a number, "no" turned islands on,
        # and a string in a float key failed only inside the search.
        keys = {"task": task, "method": "migrate-opro", "islands": True}
        keys.update({"task_options": {key: value}} if option else {key: value})
        with pytest.raises(ValueError) as err:
            default_config(**keys)
        assert str(err.value) == f"{key} must be {kind}, got {value!r}"
        assert ("or null" in str(err.value)) == (key in OPTIONAL_KEYS)

    def test_partial_json_takes_task_defaults(self):
        # The file leaves out learning_rate, mu, mutation_rate and
        # stop_threshold, which used to take RunConfig's own 0.35 / 1 / 0.25
        # / None instead of the words defaults 0.3 / 2 / 0.2 / 1.0.
        expected = default_config("words", "migrate")
        assert RunConfig.from_json(json.dumps(PARTIAL_WORDS)) == expected

    def test_group_size_is_the_mix_sum(self):
        # A group_size had to be passed with any mix that changed the sum.
        cfg = default_config("words", "migrate", alpha=3, beta=1, gamma=4,
                             task_options=SMALL_WORDS, budget=100, stop_threshold=None)
        assert cfg.mix.group_size == 8
        trace = run_any(cfg)
        assert len(trace.records) == (100 - 20) // 7
        assert all(r.new_count == 7 for r in trace.records)
        with pytest.raises(ValueError, match=r"unknown config key 'group_size'.*alpha, beta"):
            default_config("words", "random", group_size=5)

    @pytest.mark.parametrize("key,value", [("optimizer", "adam"), ("mu", 3),
                                           ("learning_rate", 5.0), ("eps_high", 0.9),
                                           ("opro_depth", 2), ("exploit_prob", 0.1)])
    def test_key_for_an_absent_part_rejected(self, key, value):
        # random reads no update, no OPRO depth and, without islands=True,
        # no island setting; each of these used to run as if it applied.
        with pytest.raises(ValueError, match=f"'{key}' sets the .* part, which this 'random'"):
            default_config("molecules", "random", **{key: value})

    def test_parts_follow_the_method(self):
        cfg = default_config("grids", "migrate-opro", islands=True, island_count=3, mu=2)
        assert cfg.update.mu == 2 and cfg.islands.island_count == 3 and cfg.opro_depth == 1
        plain = default_config("grids", "ns")
        assert (plain.update, plain.islands, plain.opro_depth) == (None, None, None)
        with pytest.raises(ValueError, match="'migration_interval'.*islands=True"):
            default_config("grids", "migrate", migration_interval=3)

    def test_parts_are_frozen(self):
        cfg = default_config("grids", "migrate", islands=True)
        with pytest.raises(FrozenInstanceError):
            cfg.islands.island_count = 2
        with pytest.raises(FrozenInstanceError):
            cfg.update.mu = 5

    def test_per_task_defaults(self):
        words = default_config("words", "migrate")
        assert (words.mix.alpha, words.mix.beta, words.mix.gamma) == (0, 1, 4)
        assert words.budget == 1000 and words.update.mu == 2 and words.mix.top_k == 3
        mols = default_config("molecules", "migrate")
        assert (mols.mix.alpha, mols.mix.beta, mols.mix.gamma) == (2, 1, 2)
        assert mols.budget == 200 and mols.update.mu == 1 and mols.mix.top_k == 1
        grids = default_config("grids", "migrate")
        assert (grids.mix.alpha, grids.mix.beta, grids.mix.gamma) == (11, 1, 4)
        assert grids.budget == 1024 and grids.mix.group_size == 16


class TestBudgetLoop:
    def test_random_exact_budget_without_warmstart(self):
        cfg = default_config("molecules", "random", budget=200, warmstart_count=0)
        trace = run_any(cfg)
        assert trace.summary.total_evaluations == 200
        assert all(r.loss is None for r in trace.records)

    def test_iteration_bound_matches_arithmetic(self):
        # At most ceil((budget - warmstart) / (alpha + gamma)) iterations.
        cfg = words_config("migrate", budget=200, warmstart_count=20)
        trace = run_any(cfg)
        new_per_iter = cfg.alpha + cfg.gamma
        assert trace.summary.iterations <= math.ceil((200 - 20) / new_per_iter)
        if not trace.summary.found:
            assert trace.summary.total_evaluations == 20 + trace.summary.iterations * new_per_iter

    def test_warmstart_containing_optimum_stops_at_zero(self):
        cfg = words_config("migrate", budget=60, warmstart_count=20)
        task = build_task(cfg)
        cfg = default_config("words", "migrate", budget=60, warmstart_count=20,
                             task_options={**SMALL_WORDS,
                                           "hidden_word": None})
        # Force the hidden word to be one the warmstart rng will draw: pick
        # it after observing the warmstart set.
        probe = build_task(cfg)
        warm = probe.warmstart(np.random.default_rng([cfg.seed, 3]))
        hidden = warm[0].text
        cfg = default_config("words", "migrate", budget=60, warmstart_count=20,
                             task_options={**SMALL_WORDS, "hidden_word": hidden})
        trace = run_any(cfg)
        assert trace.summary.found is True
        assert trace.summary.iterations == 0
        assert trace.records == []

    def test_best_so_far_monotone(self):
        for method in ("random", "ns", "opro"):
            trace = run_any(words_config(method, seed=4))
            bests = [r.best_so_far for r in trace.records]
            assert bests == sorted(bests)

    def test_ns_cold_start_is_pure_online(self):
        cfg = default_config("molecules", "ns", budget=20, warmstart_count=0)
        trace = run_any(cfg)
        first = trace.records[0]
        assert all(p == "online" for _, _, p in first.new_completions)
        assert first.new_count == cfg.mix.group_size

    def test_early_stop_undershoots_budget(self):
        cfg = words_config("migrate", seed=11, budget=400, warmstart_count=20,
                           stop_threshold=1.0)
        trace = run_any(cfg)
        if trace.summary.found:
            assert trace.summary.total_evaluations <= 400

    def test_evaluations_never_exceed_budget(self):
        for seed in range(5):
            for budget in (37, 53, 61):
                cfg = words_config("migrate", seed=seed, budget=budget, warmstart_count=5)
                trace = run_any(cfg)
                assert trace.summary.total_evaluations <= budget


class TestMethodEquivalences:
    def test_grpo_is_all_online_mix(self):
        base = words_config("grpo", seed=2)
        explicit = words_config("migrate", seed=2, alpha=base.mix.group_size, beta=0, gamma=0)
        a, b = run_any(base), run_any(explicit)
        assert trace_csv(a) == trace_csv(b)

    def test_grpo_greedy_equals_migrate_gamma_zero(self):
        kw = dict(seed=5, budget=80, alpha=4, beta=1, gamma=0)
        a = run_any(words_config("grpo-greedy", **kw))
        b = run_any(words_config("migrate", **kw))
        assert trace_csv(a) == trace_csv(b)
        assert trace_jsonl(a) == trace_jsonl(b)


class TestDeterminism:
    @pytest.mark.parametrize("task,method", [("words", "migrate"), ("molecules", "grpo"),
                                             ("grids", "migrate-opro"), ("molecules", "opro")])
    def test_identical_configs_identical_files(self, task, method):
        overrides = {"budget": 60}
        if task == "words":
            overrides["task_options"] = SMALL_WORDS
        if task == "grids":
            overrides = {"budget": 80}
        cfg = default_config(task, method, seed=13, **overrides)
        a, b = run_any(cfg), run_any(cfg)
        assert trace_csv(a) == trace_csv(b)
        assert trace_jsonl(a) == trace_jsonl(b)

    def test_islands_run_deterministic(self):
        cfg = words_config("migrate", seed=6, islands=True, island_count=3,
                           migration_interval=3)
        a, b = run_any(cfg), run_any(cfg)
        assert trace_csv(a) == trace_csv(b)
        assert a.summary.best_score == b.summary.best_score

    @pytest.mark.parametrize("task", ["words", "molecules", "grids"])
    def test_a_built_task_gives_every_search_the_same_result(self, task):
        # A task's score memo or repeat set must not leak from one search
        # into the next.
        config = default_config(task, "migrate", seed=1, budget=300, stop_threshold=None)
        built = build_task(config)
        first, second = search_task(config, built), search_task(config, built)
        assert trace_jsonl(first) == trace_jsonl(second)
        assert first.archive.entries == second.archive.entries
        assert first.final_params.W.tobytes() == second.final_params.W.tobytes()


class TestWordsTableMemo:
    """``build_task`` keeps the last words table it synthesized, keyed on the
    seed and the synthesis options; every build is still a fresh task."""

    def test_builds_share_the_table_but_not_the_scores(self, synthesized):
        config = words_config("migrate", seed=4, stop_threshold=None)
        first, second = build_task(config), build_task(config)
        assert len(synthesized) == 1
        assert first is not second and first.table is second.table
        search_task(config, first)
        assert first._rewards and second._rewards == {}

    def test_search_on_a_shared_table_matches_a_cold_build(self, synthesized):
        from migrate import harness
        config = words_config("migrate", seed=4, stop_threshold=None)
        build_task(config)
        warm = search_task(config, build_task(config))
        harness._synthesized_words.cache_clear()
        cold = run_any(config)
        assert len(synthesized) == 2
        assert trace_csv(warm) + trace_jsonl(warm) == trace_csv(cold) + trace_jsonl(cold)
        assert warm.final_params.W.tobytes() == cold.final_params.W.tobytes()

    @pytest.mark.parametrize("seeds,tables", [((0, 1, 0), 3), ((0, 0), 1)])
    def test_the_memo_holds_one_table(self, synthesized, seeds, tables):
        for seed in seeds:
            build_task(words_config("random", seed=seed))
        assert len(synthesized) == tables

    def test_synthesis_options_key_the_memo_and_hidden_word_does_not(self, synthesized):
        build_task(words_config("random"))
        build_task(words_config("random", task_options={**SMALL_WORDS, "clusters": 5}))
        assert [options["clusters"] for options in synthesized] == [6, 5]
        reordered = dict(reversed({**SMALL_WORDS, "clusters": 5}.items()))
        task = build_task(words_config("random", task_options=reordered))
        hidden = next(word for word in task.table.words if word != task.hidden_word)
        chosen = build_task(words_config("random", task_options={**reordered,
                                                                 "hidden_word": hidden}))
        assert len(synthesized) == 2
        assert chosen.hidden_word == hidden and chosen.table is task.table

    def test_a_words_task_file_is_read_on_every_build(self, synthesized, tmp_path):
        from migrate.tasks import save_embedding_table, synthesize_embedding_table
        path = tmp_path / "table.txt"
        config = words_config("random", task_file=str(path), task_options={})
        sizes = []
        for size in (50, 40):
            save_embedding_table(synthesize_embedding_table(
                np.random.default_rng(size), vocab_size=size, dim=4, clusters=5), path)
            sizes.append(build_task(config).table.size)
        assert sizes == [50, 40] and synthesized == []

    def test_a_failed_synthesis_is_not_kept(self, synthesized):
        config = words_config("random", task_options={**SMALL_WORDS, "clusters": 0})
        for _ in range(2):
            with pytest.raises(ValueError, match="clusters"):
                build_task(config)
        assert len(synthesized) == 2


def search_task(config, task):
    """:func:`harness.search` of ``task`` from the config's first params."""
    from migrate.harness import search
    return search(config, task, initial_params(config, task))


class TestIslandMembership:
    """Migration adds island membership, never archive entries."""

    @pytest.mark.parametrize("task,method", [("words", "grpo-greedy"), ("words", "opro"),
                                             ("words", "migrate-opro"),
                                             ("molecules", "migrate-opro")])
    def test_islands_do_not_change_island_blind_methods(self, task, method):
        # These methods never read an island, so turning islands on must
        # leave their traces and weights as they are.
        off = run_any(default_config(task, method, seed=1, budget=300))
        on = run_any(default_config(task, method, seed=1, budget=300, islands=True,
                                    migration_interval=3))
        assert trace_csv(on) + trace_jsonl(on) == trace_csv(off) + trace_jsonl(off)
        assert on.final_params.W.tobytes() == off.final_params.W.tobytes()

    def test_archive_holds_each_evaluation_once(self):
        cfg = default_config("grids", "migrate", seed=1, budget=600, stop_threshold=None,
                             islands=True, migration_interval=1)
        archive = run_any(cfg).archive
        assert len(archive) == archive.evaluated_count
        for island in range(cfg.islands.island_count):
            ranked = list(archive._ranked(island))
            held = [i for i in range(len(archive)) if island in archive.islands_of(i)]
            assert len(ranked) == len(set(ranked)) == len(held)
        for k in (1, 3, 10, 50):
            top = archive.topk(k)
            assert len(top) == k and len({id(c) for c in top}) == k


class TestEmit:
    def make_trace(self, n=3):
        cfg = default_config("molecules", "migrate", seed=1,
                             budget=3 + n * 5, warmstart_count=3)
        return run_any(cfg)

    def test_csv_rows_match_iterations(self, tmp_path):
        trace = self.make_trace(3)
        paths = emit_trace(trace, ("csv",), tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "iteration,evaluations,best_so_far,loss,clip_low_frac,clip_high_frac"
        assert len(lines) == 1 + len(trace.records) == 4

    def test_csv_parse_reemit_byte_identical(self, tmp_path):
        trace = self.make_trace(4)
        text = trace_csv(trace)
        import csv as csv_mod
        import io
        rows = list(csv_mod.reader(io.StringIO(text)))
        buf = io.StringIO()
        writer = csv_mod.writer(buf, lineterminator="\n")
        for row in rows:
            out = []
            for cell in row:
                if cell == "" or not any(ch.isdigit() for ch in cell):
                    out.append(cell)
                elif cell.isdigit():
                    out.append(str(int(cell)))
                else:
                    out.append(repr(float(cell)))
            writer.writerow(out)
        assert buf.getvalue() == text

    def test_jsonl_one_record_per_iteration(self):
        trace = self.make_trace(3)
        lines = trace_jsonl(trace).splitlines()
        assert len(lines) == len(trace.records)
        record = json.loads(lines[0])
        assert set(record) == {"iteration", "evaluations", "best_so_far", "loss",
                               "clip_low_frac", "clip_high_frac", "new"}

    def test_svg_well_formed_single_polyline(self, tmp_path):
        trace = self.make_trace(3)
        (path,) = emit_trace(trace, ("svg",), tmp_path)
        root = ET.fromstring(path.read_text())
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert "evaluations" in texts and "best-so-far" in texts

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_trace(self.make_trace(1), ("png",), tmp_path)

    def test_unwritable_path_leaves_no_partials(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        (target / "trace.csv.tmp").mkdir()  # collides with the temp file
        trace = self.make_trace(1)
        with pytest.raises(OSError):
            emit_trace(trace, ("csv", "jsonl"), target)
        assert not (target / "trace.csv").exists()
        assert not (target / "trace.jsonl").exists()
        assert not (target / "trace.jsonl.tmp").exists()

    def test_save_run_artifacts(self, tmp_path):
        trace = self.make_trace(2)
        save_run_artifacts(trace, tmp_path)
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "params.mgp").exists()
        best = json.loads((tmp_path / "best.json").read_text())
        assert best["score"] == trace.summary.best_score
        assert (tmp_path / "archive.jsonl").exists()


class TestFmt:
    """CSV cells: a float is the repr of a Python float, whatever its type."""

    @pytest.mark.parametrize("x", [0.1, -0.024634, 1e-300, 2.0])
    def test_numpy_float_as_plain_repr(self, x):
        assert _fmt(np.float64(x)) == repr(x)

    def test_ints_and_none(self):
        assert _fmt(7) == "7"
        assert _fmt(np.int64(7)) == "7"
        assert _fmt(None) == ""

    def test_infinities_round_trip(self):
        for x in (-math.inf, np.float64(-math.inf), math.inf):
            assert float(_fmt(x)) == x
        assert _fmt(np.float64(-math.inf)) == "-inf"


class TestSweep:
    def test_grid_times_seeds_rows(self):
        base = words_config("migrate", budget=40, warmstart_count=5)
        grid = [{"alpha": 5, "beta": 0, "gamma": 0},
                {"alpha": 4, "beta": 1, "gamma": 0},
                {"alpha": 0, "beta": 1, "gamma": 4}]
        rows = sweep(base, grid, seeds=[1, 2, 3])
        assert len(rows) == 3
        assert all(r["seeds"] == 3 for r in rows)

    def test_invalid_point_skipped(self, caplog):
        base = words_config("migrate", budget=40, warmstart_count=5)
        grid = [{"alpha": 0, "beta": 1, "gamma": 0}, {"alpha": 0, "beta": 1, "gamma": 4}]
        rows = sweep(base, grid, seeds=[1])
        assert len(rows) == 1

    def test_point_with_invalid_island_setting_skipped(self, caplog):
        import logging
        base = default_config("grids", "migrate", islands=True, budget=200)
        with caplog.at_level(logging.WARNING):
            rows = sweep(base, [{"exploit_prob": 0.5}, {"exploit_prob": 1.5}], [1])
        assert [r["exploit_prob"] for r in rows] == [0.5]
        assert any("exploit_prob" in r.message for r in caplog.records)

    def test_point_may_change_the_group_size(self):
        base = words_config("migrate", budget=40, warmstart_count=5)
        (row,) = sweep(base, [{"alpha": 3, "beta": 1, "gamma": 4}], seeds=[1])
        assert (row["alpha"], row["beta"], row["gamma"], row["seeds"]) == (3, 1, 4, 1)

    def test_key_for_an_absent_part_raises_before_any_run(self, monkeypatch):
        from migrate import harness

        def no_search(config):
            raise AssertionError("a search ran before the grid was checked")

        monkeypatch.setattr(harness, "run_any", no_search)
        base = words_config("migrate", budget=40, warmstart_count=5)
        with pytest.raises(ValueError, match="'exploit_prob'.*islands=True"):
            sweep(base, [{"alpha": 0, "beta": 1, "gamma": 4}, {"exploit_prob": 0.5}], seeds=[1])

    def test_unknown_grid_key_raises(self):
        base = words_config("migrate", budget=40, warmstart_count=5)
        with pytest.raises(ValueError, match=r"'P'.*alpha, beta, gamma, mutation_rate, "
                                             r"exploit_prob"):
            sweep(base, [{"alpha": 0, "beta": 1, "gamma": 4}, {"P": 0.5}], seeds=[1])

    def test_empty_seeds_warn_empty_table(self, caplog):
        base = words_config("migrate")
        import logging
        with caplog.at_level(logging.WARNING):
            rows = sweep(base, [{"alpha": 0, "beta": 1, "gamma": 4}], seeds=[])
        assert rows == []
        assert any("no seeds" in r.message for r in caplog.records)

    def test_warmstart_optimum_reads_one_at_every_checkpoint(self):
        # A run stopped by a warm start has no iteration records; its
        # checkpoints used to read -inf.
        cfg = words_config("migrate")
        probe = build_task(cfg)
        hidden = probe.warmstart(np.random.default_rng([cfg.seed, 3]))[0].text
        base = words_config("migrate", task_options={**SMALL_WORDS, "hidden_word": hidden})
        (row,) = sweep(base, [{}], seeds=[cfg.seed])
        assert row["found_rate"] == 1.0
        for frac in (25, 50, 75, 100):
            assert row[f"best_at_{frac}_mean"] == 1.0
            assert row[f"best_at_{frac}_std"] == 0.0

    @pytest.mark.parametrize("task,method", [("words", "migrate"), ("grids", "migrate"),
                                             ("molecules", "ns")])
    def test_checkpoints_match_brute_force_over_entries(self, task, method):
        from dataclasses import replace
        overrides = {"task_options": SMALL_WORDS} if task == "words" else {}
        base = default_config(task, method, budget=50, stop_threshold=None, **overrides)
        seed = 3
        (row,) = sweep(base, [{}], seeds=[seed])
        entries = run_any(replace(base, seed=seed)).archive.entries
        for frac in (0.25, 0.5, 0.75, 1.0):
            mark = int(round(frac * base.budget))
            best = -math.inf
            for i, c in enumerate(entries):
                if i < mark and c.score > best:
                    best = c.score
            assert row[f"best_at_{int(frac * 100)}_mean"] == best

    def test_means_match_single_run_replays(self):
        # Replay oracle: the sweep's aggregates must equal statistics of
        # independently re-run traces, row by row.
        base = words_config("migrate", budget=40, warmstart_count=5)
        grid = [{"alpha": 0, "beta": 1, "gamma": 4}, {"alpha": 4, "beta": 1, "gamma": 0}]
        seeds = [7, 8]
        rows = sweep(base, grid, seeds=seeds)
        assert len(rows) == len(grid)
        for point, row in zip(grid, rows):
            finals = []
            for seed in seeds:
                cfg = default_config(**{**base.flat(), **point, "seed": seed})
                finals.append(run_any(cfg).records[-1].best_so_far)
            assert row["best_at_100_mean"] == pytest.approx(np.mean(finals), abs=1e-15)
            assert row["best_at_100_std"] == pytest.approx(np.std(finals), abs=1e-15)

    def test_serial_sweep_synthesizes_one_words_table_per_seed(self, synthesized,
                                                               monkeypatch):
        # Jobs run seed-major; in point-major order this sweep synthesized 6.
        monkeypatch.delenv("MIGRATE_WORKERS", raising=False)
        base = words_config("migrate", budget=40, warmstart_count=5)
        grid = [{"alpha": 0, "beta": 1, "gamma": 4}, {"alpha": 4, "beta": 1, "gamma": 0},
                {"alpha": 3, "beta": 1, "gamma": 4}]
        assert len(sweep(base, grid, seeds=[1, 2])) == 3
        assert len(synthesized) == 2

    def test_csv_emission(self, tmp_path):
        base = words_config("migrate", budget=40, warmstart_count=5)
        rows = sweep(base, [{"alpha": 0, "beta": 1, "gamma": 4}], seeds=[1])
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("alpha,beta,gamma,mutation_rate,exploit_prob,seeds,found_rate")

    def test_thread_env_parallel_matches_serial(self, monkeypatch):
        base = words_config("migrate", budget=30, warmstart_count=5)
        grid = [{"alpha": 0, "beta": 1, "gamma": 4}, {"alpha": 4, "beta": 1, "gamma": 0}]
        serial = sweep(base, grid, seeds=[1, 2])
        monkeypatch.setenv("MIGRATE_WORKERS", "2")
        parallel = sweep(base, grid, seeds=[1, 2])
        assert serial == parallel

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5"])
    def test_bad_thread_env_raises(self, monkeypatch, value):
        monkeypatch.setenv("MIGRATE_WORKERS", value)
        base = words_config("migrate", budget=30, warmstart_count=5)
        with pytest.raises(ValueError, match=f"MIGRATE_WORKERS.*{re.escape(repr(value))}"):
            sweep(base, [{"alpha": 0, "beta": 1, "gamma": 4}], seeds=[1, 2])

    @pytest.mark.parametrize("value", ["1", "2", "abc"])
    def test_old_thread_env_name_raises(self, monkeypatch, value):
        monkeypatch.setenv("MIGRATE_THREADS", value)
        base = words_config("migrate", budget=30, warmstart_count=5)
        with pytest.raises(ValueError, match="MIGRATE_THREADS.*MIGRATE_WORKERS"):
            sweep(base, [{"alpha": 0, "beta": 1, "gamma": 4}], seeds=[1, 2])

    @pytest.mark.parametrize("value", [None, ""])
    def test_unset_or_empty_thread_env_runs_serially(self, monkeypatch, value):
        def no_pool(*args, **kwargs):
            raise AssertionError("sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        if value is None:
            monkeypatch.delenv("MIGRATE_WORKERS", raising=False)
        else:
            monkeypatch.setenv("MIGRATE_WORKERS", value)
        base = words_config("migrate", budget=30, warmstart_count=5)
        rows = sweep(base, [{"alpha": 0, "beta": 1, "gamma": 4}], seeds=[1, 2])
        assert len(rows) == 1 and rows[0]["seeds"] == 2

    def test_import_loads_no_process_pool(self):
        # The pool is imported only when a sweep runs in parallel, so a
        # single search does not pay for multiprocessing at import.
        code = ("import sys, migrate.harness; "
                "print('concurrent.futures.process' in sys.modules)")
        src = str(Path(migrate.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "False"


class TestBootstrap:
    def donor(self, tmp_path, name, program, task):
        params = init_params(task.vocab, max_len=task.max_len)
        path = tmp_path / f"{name}.mgp"
        path.write_bytes(save_params(params))
        return SolvedRun(name=name, program_tokens=program.tokens(), params_path=str(path))

    def test_dominant_donor_selected(self, tmp_path):
        rng = np.random.default_rng(0)
        unsolved = synthesize_grid_task(rng)
        # Recover the hidden transformation: a donor carrying a program that
        # maps train inputs to outputs scores 1.0 and must win.
        flip = DslProgram((("flip_h", ()),))
        ident = DslProgram((("identity", ()),))
        base = default_config("grids", "migrate", seed=1)
        # Build a task solved exactly by flip_h.
        inp = np.array([[1, 2], [3, 4]])
        task = synthesize_grid_task(rng)
        task.train_pairs[:] = [(inp, inp[:, ::-1])]
        donors = [self.donor(tmp_path, "weak", ident, task),
                  self.donor(tmp_path, "strong", flip, task)]
        cfg = bootstrap_nearest(task, donors, base)
        assert cfg.bootstrap_params == donors[1].params_path

    def test_all_zero_ties_pick_first(self, tmp_path):
        rng = np.random.default_rng(1)
        inp = np.array([[1, 1], [1, 1]])
        out = np.array([[2, 2], [2, 2]])
        task = synthesize_grid_task(rng)
        task.train_pairs[:] = [(inp, out)]
        ident = DslProgram((("identity", ()),))
        flip = DslProgram((("flip_h", ()),))
        donors = [self.donor(tmp_path, "first", ident, task),
                  self.donor(tmp_path, "second", flip, task)]
        cfg = bootstrap_nearest(task, donors, default_config("grids", "migrate"))
        assert cfg.bootstrap_params == donors[0].params_path

    def test_unparseable_donors_fall_back(self, tmp_path, caplog):
        import logging
        rng = np.random.default_rng(2)
        task = synthesize_grid_task(rng)
        bad = SolvedRun(name="bad", program_tokens=(999,), params_path="missing.mgp")
        with caplog.at_level(logging.WARNING):
            cfg = bootstrap_nearest(task, [bad], default_config("grids", "migrate"))
        assert cfg.bootstrap_params is None
        assert any("parseable" in r.message for r in caplog.records)

    def test_selection_matches_argmax_oracle(self, tmp_path):
        from migrate.tasks import eval_program, parse_program
        rng = np.random.default_rng(3)
        task = synthesize_grid_task(rng)
        donors = []
        for i in range(6):
            n_ops = int(rng.integers(1, 3))
            ops = tuple((("identity", "flip_h", "flip_v", "rot90")[int(rng.integers(0, 4))], ())
                        for _ in range(n_ops))
            donors.append(self.donor(tmp_path, f"d{i}", DslProgram(ops), task))
        cfg = bootstrap_nearest(task, donors, default_config("grids", "migrate"))
        scores = [eval_program(task, parse_program(d.program_tokens)) for d in donors]
        expected = donors[int(np.argmax(scores))]
        assert cfg.bootstrap_params == expected.params_path

    def test_bootstrapped_run_loads_params(self, tmp_path):
        cfg = default_config("grids", "migrate", seed=4, budget=40)
        trace = run_any(cfg)
        save_run_artifacts(trace, tmp_path)
        boot = default_config("grids", "migrate", seed=5, budget=40,
                              bootstrap_params=str(tmp_path / "params.mgp"))
        trace2 = run_any(boot)
        assert trace2.summary.status == "ok"


class TestCli:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        from migrate.cli import main
        out = tmp_path / "run"
        code = main(["run", "--task", "molecules", "--method", "migrate",
                     "--budget", "30", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "trace.jsonl").exists()
        assert (out / "trace.svg").exists()
        assert "best_score" in capsys.readouterr().out

    def test_run_flags_override_defaults(self, tmp_path):
        from migrate.cli import main
        out = tmp_path / "run2"
        code = main(["run", "--task", "molecules", "--method", "grpo", "--budget", "25",
                     "--alpha", "5", "--beta", "0", "--gamma", "0",
                     "--topk", "2", "--mu", "1", "--eps-low", "0.1", "--eps-high", "0.3",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["eps_low"] == 0.1 and cfg["top_k"] == 2

    def test_unknown_format_fails_before_the_search(self, tmp_path, capsys, monkeypatch):
        from migrate import cli

        def no_search(*args):
            raise AssertionError("the search ran before --formats was checked")

        monkeypatch.setattr(cli, "search", no_search)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--task", "grids", "--budget", "400", "--formats", "csv,xml",
                      "--out", str(out)])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--formats" in message and "'xml'" in message
        assert "accepted: csv, jsonl, svg" in message
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--gamma", "0"], "at least one new sample"),
        (["--task", "molecules", "--method", "random", "--mu", "3"], "'mu'.*update part"),
        (["--islands", "--island-count", "0"], "island_count must be >= 1"),
        (["--eps-high", "nan"], "eps_high must be finite and > 0, got nan"),
        (["--stop-threshold", "nan"], "stop_threshold must be finite or null, got nan"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--warmstart-count", "-5"], "warmstart_count must be >= 0, got -5"),
        (["--method", "bogus"], "unknown method 'bogus'; accepted: random, ns, opro, grpo, "
                                "grpo-greedy, migrate, migrate-opro"),
        (["--task", "bogus"], "unknown task 'bogus'; accepted: words, molecules, grids"),
        # One member has no group baseline: the update used to fail after
        # its first iteration.
        (["--task", "molecules", "--method", "grpo", "--alpha", "1"],
         "'grpo' update needs a group of at least 2 members"),
    ])
    def test_config_error_exits_2_before_the_search(self, argv, message, capsys, monkeypatch):
        from migrate import cli

        def no_search(*args):
            raise AssertionError("the search ran with a config it should reject")

        monkeypatch.setattr(cli, "search", no_search)
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--budget", "30", *argv])
        assert err.value.code == 2
        assert re.search(f"migrate run: error: .*{message}", capsys.readouterr().err)

    @pytest.mark.parametrize("grid,env,message,argv", [
        ([{"exploit_prob": 0.5}], {}, "'exploit_prob' sets the islands part", []),
        ([{"alpha": 0, "beta": 1, "gamma": 4}], {"MIGRATE_WORKERS": "abc"},
         "MIGRATE_WORKERS must be an integer", []),
        ({"alpha": 0}, {}, "grid must be a list of objects", []),
        ([{"alpha": 0, "beta": 1, "gamma": 4}], {},
         "task 'molecules' is synthesized and reads no task_file", ["--task-file", "nofile.json"]),
        ([{"mutation_rate": "x"}], {}, "mutation_rate must be a number, got 'x'", []),
        ([{"exploit_prob": True}], {}, "exploit_prob must be a number, got True", ["--islands"]),
    ], ids=["absent-part", "bad-workers", "not-a-list", "unread-task-file",
            "mutation-rate-string", "exploit-prob-true"])
    def test_sweep_setting_error_exits_2_before_any_search(self, grid, env, message, argv,
                                                           tmp_path, capsys, monkeypatch):
        from migrate import cli, harness

        def no_search(config):
            raise AssertionError("the sweep ran a search with settings it should reject")

        monkeypatch.setattr(harness, "run_any", no_search)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--task", "molecules", "--budget", "25", "--grid", str(grid_file),
                      "--seeds", "1", "--out", str(out), *argv])
        assert err.value.code == 2
        assert re.search(f"migrate sweep: error: .*{message}", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("seeds,message", [
        ("0,-1", "seed must be >= 0, got -1"),
        ("", "--seeds must list at least one seed"),
        (" , ", "--seeds must list at least one seed"),
    ], ids=["negative", "empty", "blank"])
    def test_sweep_seeds_error_exits_2_before_any_search(self, seeds, message, tmp_path,
                                                        capsys, monkeypatch):
        from migrate import cli, harness

        def no_search(config):
            raise AssertionError("the sweep ran a search with seeds it should reject")

        monkeypatch.setattr(harness, "run_any", no_search)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"alpha": 0, "beta": 1, "gamma": 4}]))
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--task", "molecules", "--budget", "25", "--grid", str(grid_file),
                      "--seeds", seeds, "--out", str(out)])
        assert err.value.code == 2
        assert f"migrate sweep: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_cli(self, tmp_path):
        from migrate.cli import main
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"alpha": 0, "beta": 1, "gamma": 4}]))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--task", "molecules", "--method", "migrate",
                     "--budget", "25", "--grid", str(grid_file), "--seeds", "1,2",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_bootstrap_cli(self, tmp_path):
        from migrate.cli import main
        # Produce one solved-run artifact dir, then a grid task file.
        run_dir = tmp_path / "solved" / "taskA"
        cfg = default_config("grids", "migrate", seed=4, budget=40)
        save_run_artifacts(run_any(cfg), run_dir)
        task_file = tmp_path / "task.json"
        task_file.write_text(json.dumps({
            "train": [{"input": [[1, 0], [0, 1]], "output": [[1, 0], [0, 1]]}],
            "test": [{"input": [[1, 1], [0, 0]], "output": [[1, 1], [0, 0]]}]}))
        out = tmp_path / "boot.json"
        code = main(["bootstrap", "--solved-dir", str(tmp_path / "solved"),
                     "--task", str(task_file), "--out", str(out)])
        assert code == 0
        boot = json.loads(out.read_text())
        assert boot["task_file"] == str(task_file)


    @pytest.mark.parametrize("command", ["run", "sweep", "bootstrap"])
    def test_out_that_cannot_be_written_exits_2_before_any_work(self, command, tmp_path,
                                                                capsys, monkeypatch):
        from migrate import cli, harness

        def no_work(*args):
            raise AssertionError(f"migrate {command} worked towards an --out it cannot write")

        for owner, name in ((cli, "search"), (harness, "run_any"), (cli, "bootstrap_nearest")):
            monkeypatch.setattr(owner, name, no_work)
        existing_file = tmp_path / "taken"
        existing_file.write_text("")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"alpha": 0, "beta": 1, "gamma": 4}]))
        run_dir = tmp_path / "solved" / "taskA"
        run_dir.mkdir(parents=True)
        (run_dir / "best.json").write_text('{"tokens": [1]}')
        (run_dir / "params.mgp").write_bytes(b"")
        task_file = tmp_path / "task.json"
        task_file.write_text(json.dumps({"train": [{"input": [[1]], "output": [[1]]}],
                                         "test": [{"input": [[1]], "output": [[1]]}]}))
        out, argv = {
            "run": (existing_file, ["--task", "molecules", "--method", "random",
                                    "--budget", "30"]),
            "sweep": (existing_file / "x.csv", ["--task", "molecules", "--budget", "25",
                                                "--grid", str(grid_file), "--seeds", "1"]),
            "bootstrap": (run_dir, ["--solved-dir", str(tmp_path / "solved"),
                                    "--task", str(task_file)]),
        }[command]
        with pytest.raises(SystemExit) as err:
            cli.main([command, *argv, "--out", str(out)])
        assert err.value.code == 2
        assert f"migrate {command}: error: --out {out}: " in capsys.readouterr().err
        assert existing_file.read_text() == ""

# For each flat key but task_options, a value its flag sets: none is the
# default of the molecules/migrate-opro config with islands that flag_base holds.
FLAG_VALUES = {"method": "grpo", "task": "grids", "seed": 5, "budget": 40, "warmstart_count": 2,
               "stop_threshold": 0.5, "temperature": 0.7, "task_file": "task.json",
               "bootstrap_params": "params.mgp", "islands": True, "alpha": 3, "beta": 0,
               "gamma": 3, "top_k": 2, "mutation_rate": 0.5, "learning_rate": 0.1, "mu": 3,
               "optimizer": "adam", "eps_low": 0.1, "eps_high": 0.4, "island_count": 2,
               "exploit_prob": 0.5, "migration_interval": 3, "migration_fraction": 0.5,
               "opro_depth": 2}


class TestCliSearch:
    """``migrate run`` searches the task and first params its check built: the
    same search, file for file, as ``run_any`` of its config."""

    @pytest.mark.parametrize("task", ["words", "molecules", "grids"])
    def test_run_builds_its_task_and_reads_its_params_once(self, task, tmp_path, monkeypatch):
        from migrate import cli, harness
        config = default_config(task, "migrate", budget=40)
        params_file = tmp_path / "params.mgp"
        params_file.write_bytes(save_params(initial_params(config, build_task(config))))
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        for owner, name in ((harness, "build_task"), (cli, "build_task"),
                            (harness, "load_params")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        for argv, loads in (([], 0), (["--bootstrap-params", str(params_file)], 1)):
            calls.clear()
            assert cli.main(["run", "--task", task, "--budget", "40", *argv]) == 0
            assert (calls.count("build_task"), calls.count("load_params")) == (1, loads)

    @pytest.mark.parametrize("task,budget,seeds", [
        ("words", 60, (1,)), ("molecules", 40, (1,)), ("grids", 200, (1, 3, 0))])
    def test_run_writes_the_files_of_run_any(self, task, budget, seeds, tmp_path, capsys):
        from migrate.cli import main
        from migrate.tasks import compute_metrics
        printed = set()
        for seed in seeds:
            out = tmp_path / str(seed)
            assert main(["run", "--task", task, "--seed", str(seed), "--budget", str(budget),
                         "--out", str(out)]) == 0
            config = default_config(task, "migrate", seed=seed, budget=budget)
            trace = run_any(config)
            assert (out / "trace.csv").read_bytes() == trace_csv(trace).encode()
            assert (out / "trace.jsonl").read_bytes() == trace_jsonl(trace).encode()
            assert (out / "params.mgp").read_bytes() == save_params(trace.final_params)
            if task == "grids":
                metrics = compute_metrics(trace.archive.entries, build_task(config))
                line = f"pass_at_2={metrics.pass_at_2} oracle={metrics.oracle}"
                assert capsys.readouterr().out.splitlines()[-1] == line
                printed.add(line)
        # Seeds 3 and 0 differ in pass_at_2 and oracle, so the grids check is not vacuous.
        assert task != "grids" or len(printed) > 1


class TestFlags:
    def flag_base(self, key, tmp_path) -> list[str]:
        """``--config`` with the base keys for ``key``'s flag, writing the file
        that flag names: a grid task file (whose task is grids) or a policy."""
        keys = {"task": "molecules", "method": "migrate-opro", "budget": 30,
                "islands": key != "islands"}
        if key == "task_file":
            keys["task"] = "grids"
            (tmp_path / "task.json").write_text(json.dumps({
                "train": [{"input": [[1, 0]], "output": [[0, 1]]}],
                "test": [{"input": [[1, 1]], "output": [[1, 1]]}]}))
        if key == "bootstrap_params":
            config = default_config(**keys)
            (tmp_path / "params.mgp").write_bytes(save_params(
                initial_params(config, build_task(config))))
        path = tmp_path / "base.json"
        path.write_text(json.dumps(keys))
        return ["--config", str(path)]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("key", [key for key in CONFIG_KEYS if key != "task_options"])
    def test_each_key_has_a_flag_that_lands_in_config_json(self, key, command, tmp_path,
                                                           monkeypatch):
        # optimizer, migration_interval, migration_fraction and opro_depth had no flag.
        from migrate.cli import _search_from_args, build_parser, main
        monkeypatch.chdir(tmp_path)
        base = self.flag_base(key, tmp_path)
        value = FLAG_VALUES[key]
        flag = ["--" + key.replace("_", "-"), *([] if value is True else [str(value)])]
        assert json.loads(_search_from_args(build_parser().parse_args(
            ["run", *base]))[0].to_json()).get(key) != value
        if command == "run":
            assert main(["run", *base, *flag, "--out", "out"]) == 0
            written = json.loads((tmp_path / "out" / "config.json").read_text())
        else:
            args = build_parser().parse_args(["sweep", *base, *flag, "--grid", "g.json",
                                              "--seeds", "1"])
            written = json.loads(_search_from_args(args)[0].to_json())
        assert written[key] == value

    def test_old_spellings_still_parse(self):
        from migrate.cli import _search_from_args, build_parser
        old = ["--topk", "2", "--lr", "0.1", "--warmstart", "2"]
        new = ["--top-k", "2", "--learning-rate", "0.1", "--warmstart-count", "2"]
        configs = [_search_from_args(build_parser().parse_args(["run", "--budget", "30", *argv]))[0]
                   for argv in (old, new)]
        assert configs[0] == configs[1] == default_config(
            "words", "migrate", budget=30, top_k=2, learning_rate=0.1, warmstart_count=2)

    def test_bootstrap_unknown_method_exits_2_naming_the_methods(self, tmp_path, capsys):
        from migrate.cli import main
        with pytest.raises(SystemExit) as err:
            main(["bootstrap", "--solved-dir", str(tmp_path), "--task", "t.json",
                  "--method", "bogus"])
        assert err.value.code == 2
        assert ("migrate bootstrap: error: unknown method 'bogus'; accepted: random, ns, opro, "
                "grpo, grpo-greedy, migrate, migrate-opro") in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_with_flag_overrides(self, tmp_path):
        from migrate.cli import main
        cfg = default_config("molecules", "migrate", seed=9, budget=30)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "out"
        code = main(["run", "--task", "molecules", "--method", "migrate",
                     "--config", str(cfg_path), "--budget", "25", "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        merged = json.loads((out / "config.json").read_text())
        assert merged["budget"] == 25

    def test_config_file_sets_task_method_and_seed(self, tmp_path, capsys):
        from migrate.cli import main
        cfg = default_config("molecules", "grpo", seed=7, budget=30)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "method=grpo task=molecules seed=7"
        assert RunConfig.from_json((out / "config.json").read_text()) == cfg

    def test_partial_config_file_takes_task_defaults(self, tmp_path):
        from migrate.cli import _search_from_args, build_parser, main
        partial = {**PARTIAL_WORDS, "budget": 60, "task_options": SMALL_WORDS}
        cfg_path = tmp_path / "partial.json"
        cfg_path.write_text(json.dumps(partial))
        expected = default_config("words", "migrate", budget=60, task_options=SMALL_WORDS)
        args = build_parser().parse_args(["run", "--config", str(cfg_path)])
        assert _search_from_args(args)[0] == expected
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text()) == json.loads(expected.to_json())

    def test_unknown_key_in_config_file_exits_2(self, tmp_path, capsys):
        from migrate.cli import main
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**PARTIAL_WORDS, "group_size": 5}))
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert "unknown config key 'group_size'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys,message", [
        ([1, 2], "--config must hold a JSON object, not a list"),
        ({"task": "molecules", "method": "random", "task_options": {"bogus": 1}},
         "unknown task_options key 'bogus' for task 'molecules'"),
        ({"task": "molecules", "method": "random", "task_options": 5},
         "task_options must be an object, got 5"),
        ({"task": "molecules", "method": "random", "task_file": "nofile.json", "budget": 30},
         "task 'molecules' is synthesized and reads no task_file"),
        ({"task": "words", "method": "random", "task_file": "table.txt",
          "task_options": {"hidden_word": "w3", "dim": 3}},
         "task_options ['dim'] are not read with a words task_file"),
        ({"task": "molecules", "method": "random", "task_options": {"max_len": 0}, "budget": 30},
         "molecules max_len must be >= 8, the length of its longest seed fragment, got 0"),
        ({"task": "grids", "method": "random", "task_options": {"dsl_step_limit": 0},
          "budget": 30}, "none of 20 hidden programs ran within dsl_step_limit=0"),
        ({"task": "molecules", "method": "random", "budget": "30"},
         "budget must be an integer, got '30'"),
        ({"task": "molecules", "method": "random", "task_options": {"max_len": "8"},
          "budget": 30}, "max_len must be an integer, got '8'"),
        ({"task": "molecules", "method": "random", "task_options": {"max_len": 2.5},
          "budget": 30}, "max_len must be an integer, got 2.5"),
        ({"task": "grids", "method": "random", "task_options": {"dsl_step_limit": "x"},
          "budget": 30}, "dsl_step_limit must be an integer, got 'x'"),
        ({"task": "words", "method": "random", "task_options": {"vocab_size": "x"},
          "budget": 30}, "vocab_size must be an integer, got 'x'"),
        ({"task": "molecules", "method": "grpo", "learning_rate": "x", "budget": 30},
         "learning_rate must be a number, got 'x'"),
        ({"task": "molecules", "method": "random", "stop_threshold": "x", "budget": 30},
         "stop_threshold must be a number or null, got 'x'"),
        ({"task": "grids", "method": "random", "islands": "no", "budget": 30},
         "islands must be true or false, got 'no'"),
        ({"task": "molecules", "method": "grpo", "mu": True, "budget": 30},
         "mu must be an integer, got True"),
        ({"task": "molecules", "method": "grpo", "learning_rate": True, "budget": 30},
         "learning_rate must be a number, got True"),
        ({"task": "molecules", "method": "random", "seed": False, "budget": 30},
         "seed must be an integer, got False"),
        ({"task": "molecules", "method": "random", "stop_threshold": True, "budget": 30},
         "stop_threshold must be a number or null, got True"),
        ({"task": "grids", "method": "random", "islands": True, "exploit_prob": True,
          "budget": 30}, "exploit_prob must be a number, got True"),
        ({"task": "words", "method": "random", "task_options": {"step_scale": True},
          "budget": 30}, "step_scale must be a number, got True"),
        ({"task": "words", "method": "random", "task_options": {"vocab_size": 12, "clusters": 2},
          "budget": 30}, "warmstart_count 20 exceeds the table's 12 words"),
    ], ids=["not-an-object", "unknown-task-option", "task-options-not-an-object",
            "molecules-task-file", "words-task-file-with-synthesis-options",
            "molecules-max-len-0", "grids-dsl-step-limit-0", "budget-string",
            "molecules-max-len-string", "molecules-max-len-float",
            "grids-dsl-step-limit-string", "words-vocab-size-string", "learning-rate-string",
            "stop-threshold-string", "islands-string", "mu-true", "learning-rate-true",
            "seed-false", "stop-threshold-true", "exploit-prob-true", "step-scale-true",
            "words-warm-starts-past-the-table"])
    def test_invalid_config_file_exits_2_before_the_search(self, keys, message, tmp_path,
                                                           capsys, monkeypatch):
        from migrate import cli

        def no_search(*args):
            raise AssertionError("the search ran with a config it should reject")

        monkeypatch.setattr(cli, "search", no_search)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(keys))
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert f"migrate run: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_with_invalid_task_option_exits_2_before_any_search(self, tmp_path, capsys,
                                                                       monkeypatch):
        from migrate import cli, harness

        def no_search(config):
            raise AssertionError("the sweep ran a search on a task that does not build")

        monkeypatch.setattr(harness, "run_any", no_search)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "molecules", "method": "random",
                                        "task_options": {"max_len": 0}, "budget": 30}))
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"alpha": 0, "beta": 1, "gamma": 4}]))
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--config", str(cfg_path), "--grid", str(grid_file),
                      "--seeds", "1", "--out", str(out)])
        assert err.value.code == 2
        assert ("migrate sweep: error: molecules max_len must be >= 8, the length of its "
                "longest seed fragment, got 0") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["run", "--config", "{missing}.json"], "No such file or directory: '{missing}.json'"),
        (["run", "--task", "grids", "--task-file", "{missing}.json"],
         "No such file or directory: '{missing}.json'"),
        (["run", "--task", "words", "--task-file", "{missing}.txt"],
         "No such file or directory: '{missing}.txt'"),
        (["run", "--task", "molecules", "--bootstrap-params", "{missing}.mgp"],
         "No such file or directory: '{missing}.mgp'"),
        (["run", "--task", "molecules", "--bootstrap-params", "{short}"],
         "bootstrap_params {short}: stream has 7 bytes, header needs 20"),
        (["run", "--task", "molecules", "--bootstrap-params", "{retired}"],
         "bootstrap_params {retired}: unsupported magic/version b'MGP1', expected b'MGP2'"),
        (["sweep", "--task", "molecules", "--grid", "{missing}.json", "--seeds", "1"],
         "No such file or directory: '{missing}.json'"),
        (["bootstrap", "--solved-dir", "{tmp}", "--task", "{missing}.json"],
         "No such file or directory: '{missing}.json'"),
        (["bootstrap", "--solved-dir", "{solved}", "--task", "{grid_task}"],
         "{solved}/taskA/params.mgp: stream has 8 bytes, header needs 20"),
    ], ids=["run-config", "grids-task-file", "words-task-file", "bootstrap-params",
            "truncated-bootstrap-params", "retired-format-bootstrap-params", "sweep-grid",
            "bootstrap-task", "truncated-donor-params"])
    def test_file_that_does_not_load_exits_2_before_any_search(self, argv, message, tmp_path,
                                                              capsys, monkeypatch):
        from migrate import cli, harness

        def no_search(*args):
            raise AssertionError("a search ran with a file that does not load")

        monkeypatch.setattr(cli, "search", no_search)
        monkeypatch.setattr(harness, "run_any", no_search)
        monkeypatch.setattr(cli, "bootstrap_nearest", no_search)
        short = tmp_path / "short.mgp"
        short.write_bytes(b"MGP2abc")
        # A full-length params file of the retired MGP1 layout, whose W had
        # F = 2 + V + P rows, for the molecules task's vocabulary and max_len.
        molecules = build_task(default_config("molecules", "migrate"))
        V, P = molecules.vocab.size, 4
        retired = tmp_path / "retired.mgp"
        retired.write_bytes(struct.pack("<4sIIII", b"MGP1", V, 2 + V + P, P, molecules.max_len)
                            + bytes(8 * (2 + V + P) * V))
        # A solved run whose params.mgp is cut short, and a grid task to bootstrap.
        donor = tmp_path / "solved" / "taskA"
        donor.mkdir(parents=True)
        (donor / "best.json").write_text('{"tokens": [1]}')
        (donor / "params.mgp").write_bytes(b"MGP2abcd")
        grid_task = tmp_path / "task.json"
        grid_task.write_text(json.dumps({"train": [{"input": [[1]], "output": [[1]]}],
                                         "test": [{"input": [[1]], "output": [[1]]}]}))
        names = dict(missing=tmp_path / "missing", short=short, tmp=tmp_path, retired=retired,
                     solved=tmp_path / "solved", grid_task=grid_task)
        with pytest.raises(SystemExit) as err:
            cli.main([arg.format(**names) for arg in argv])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert f"migrate {argv[0]}: error: " in stderr and message.format(**names) in stderr

    @pytest.mark.parametrize("data,message", [
        ({"train": []}, "a grid task needs a 'test' list of pairs"),
        ({"train": [{"input": [[1]]}], "test": []}, "grid task train pair 0 has no 'output' grid"),
        ({"train": [], "test": []}, "a grid task needs at least one train pair and one test pair"),
        ([1, 2], "a grid task must be a JSON object, not a list"),
        ({"train": [{"input": [[1]], "output": [[1]]}], "test": []},
         "a grid task needs at least one train pair and one test pair"),
        *[({"train": [{"input": [[1]], "output": [[cell]]}],
            "test": [{"input": [[1]], "output": [[1]]}]},
           f"grid task train pair 0 'output' grid has a cell that is not an integer 0-9: "
           f"{cell!r}") for cell in (1.5, True, "1", None)],
    ], ids=["no-test", "pair-without-output", "no-pairs", "not-an-object", "no-test-pairs",
            "float-cell", "bool-cell", "string-cell", "null-cell"])
    def test_grid_task_file_of_the_wrong_shape_exits_2_before_the_search(
            self, data, message, tmp_path, capsys, monkeypatch):
        from migrate import cli

        def no_search(*args):
            raise AssertionError("the search ran on a grid task file it should reject")

        monkeypatch.setattr(cli, "search", no_search)
        task_file = tmp_path / "t.json"
        task_file.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--task", "grids", "--task-file", str(task_file), "--budget", "30"])
        assert err.value.code == 2
        assert f"migrate run: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("rows,message", [
        (["a 1.0 0.0", "b nan 1.0"], "the vector of word 'b' is not finite"),
        (["a 1.0 0.0", "b 0.0 1.0"], "warmstart_count 20 exceeds the table's 2 words"),
    ], ids=["nan-vector", "fewer-words-than-warm-starts"])
    def test_words_task_file_that_does_not_build_exits_2_before_the_search(
            self, rows, message, tmp_path, capsys, monkeypatch):
        from migrate import cli

        def no_search(*args):
            raise AssertionError("the search ran on a words task file it should reject")

        monkeypatch.setattr(cli, "search", no_search)
        table = tmp_path / "table.txt"
        table.write_text("\n".join([f"{len(rows)} 2", *rows]) + "\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--task", "words", "--task-file", str(table), "--budget", "30"])
        assert err.value.code == 2
        assert f"migrate run: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("best,message", [
        ("{not json", "Expecting property name enclosed in double quotes"),
        ('{"tokens": "ab"}', "must hold an object whose 'tokens' is a list of integers"),
        ('[1, 2]', "must hold an object whose 'tokens' is a list of integers"),
    ], ids=["not-json", "tokens-string", "not-an-object"])
    def test_corrupt_solved_run_exits_2_naming_the_file(self, best, message, tmp_path, capsys,
                                                        monkeypatch):
        from migrate import cli

        def no_search(*args):
            raise AssertionError("bootstrap picked a donor from a corrupt solved run")

        monkeypatch.setattr(cli, "bootstrap_nearest", no_search)
        run_dir = tmp_path / "solved" / "taskA"
        run_dir.mkdir(parents=True)
        (run_dir / "best.json").write_text(best)
        (run_dir / "params.mgp").write_bytes(b"")
        task_file = tmp_path / "task.json"
        task_file.write_text(json.dumps({"train": [{"input": [[1]], "output": [[1]]}],
                                         "test": [{"input": [[1]], "output": [[1]]}]}))
        with pytest.raises(SystemExit) as err:
            cli.main(["bootstrap", "--solved-dir", str(tmp_path / "solved"),
                      "--task", str(task_file)])
        assert err.value.code == 2
        assert f"migrate bootstrap: error: {run_dir / 'best.json'}: {message}" in \
            capsys.readouterr().err

    def test_without_config_file_defaults_to_words_migrate_seed_0(self):
        from migrate.cli import _search_from_args, build_parser
        args = build_parser().parse_args(["run", "--budget", "30"])
        assert _search_from_args(args)[0] == default_config("words", "migrate", seed=0, budget=30)


class TestMaxLen:
    """No sequence is longer than the policy's max_len: the task's max_len
    holds its warm starts, and bootstrap params must share it."""

    @pytest.mark.parametrize("method", ["migrate", "grpo-greedy", "migrate-opro"])
    def test_molecules_max_len_below_a_seed_fragment_exits_2(self, method, tmp_path, capsys,
                                                            monkeypatch):
        # Neighborhood proposals keep the 8 tokens of the c1ccccc1 warm
        # start, which the policy cannot score.
        from migrate import cli

        def no_search(*args):
            raise AssertionError("the search ran with a max_len below a seed fragment")

        monkeypatch.setattr(cli, "search", no_search)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task_options": {"max_len": 7}}))
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--task", "molecules", "--method", method, "--budget", "30",
                      "--config", str(cfg_path)])
        assert err.value.code == 2
        assert ("migrate run: error: molecules max_len must be >= 8, the length of its longest "
                "seed fragment, got 7") in capsys.readouterr().err

    def test_molecules_max_len_of_the_longest_seed_fragment_runs(self, tmp_path, capsys):
        from migrate.cli import main
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task_options": {"max_len": 8}}))
        assert main(["run", "--task", "molecules", "--method", "migrate", "--budget", "60",
                     "--config", str(cfg_path)]) == 0
        assert "status=ok" in capsys.readouterr().out

    def test_bootstrap_params_of_another_max_len_exits_2_naming_the_file(self, tmp_path, capsys,
                                                                        monkeypatch):
        from migrate import cli

        def no_search(*args):
            raise AssertionError("the search ran with params of another max_len")

        monkeypatch.setattr(cli, "search", no_search)
        task = build_task(default_config("molecules", "migrate"))
        params_file = tmp_path / "short.mgp"
        params_file.write_bytes(save_params(init_params(task.vocab, max_len=5)))
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--task", "molecules", "--method", "migrate", "--budget", "30",
                      "--bootstrap-params", str(params_file)])
        assert err.value.code == 2
        assert (f"migrate run: error: bootstrap_params {params_file}: stored max_len=5 != "
                f"the task's max_len={task.max_len}") in capsys.readouterr().err

    @pytest.mark.parametrize("islands", [False, True], ids=["one-archive", "islands"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("task", TASK_DEFAULTS)
    def test_every_archive_entry_fits_max_len(self, task, method, islands):
        options = {"task_options": SMALL_WORDS} if task == "words" else {}
        warm = TASK_DEFAULTS[task]["warmstart_count"]
        cfg = default_config(task, method, seed=3, budget=warm + 60, stop_threshold=None,
                             islands=islands, **options)
        trace = run_any(cfg)
        assert trace.summary.status == "ok", trace.summary.error
        max_len = trace.final_params.max_len
        assert max_len == build_task(cfg).max_len
        assert trace.archive.entries
        assert all(len(c.tokens) <= max_len for c in trace.archive.entries)

class TestTaskOptions:
    def test_unknown_key_rejected_with_accepted_keys(self):
        with pytest.raises(ValueError, match=r"'vocab_szie'.*vocab_size") as err:
            words_config("random", task_options={**SMALL_WORDS, "vocab_szie": 10})
        for key in ("clusters", "dim", "hidden_word", "step_scale"):
            assert key in str(err.value)
        with pytest.raises(ValueError, match="'vocab_size'"):
            default_config("molecules", "random", task_options={"vocab_size": 10})

    def test_valid_keys_apply(self):
        words = build_task(words_config("random", task_options={
            "vocab_size": 50, "dim": 4, "clusters": 3, "step_scale": 0.5}))
        assert words.table.size == 50
        assert build_task(default_config("molecules", "random",
                                         task_options={"max_len": 9})).max_len == 9
        grids = build_task(default_config("grids", "random",
                                          task_options={"dsl_step_limit": 5_000}))
        assert grids.dsl_step_limit == 5_000

    def test_molecules_task_file_rejected(self, tmp_path):
        # The file was never opened, and the run returned status ok.
        with pytest.raises(ValueError, match="task_file"):
            default_config("molecules", "random", budget=20,
                           task_file=str(tmp_path / "missing.json"))

    def test_words_task_file_rejects_synthesis_options(self, tmp_path):
        from migrate.tasks import save_embedding_table, synthesize_embedding_table
        table = synthesize_embedding_table(np.random.default_rng(0), vocab_size=50, dim=4,
                                           clusters=5)
        path = tmp_path / "table.txt"
        save_embedding_table(table, path)
        # Both options used to be ignored, leaving the file's 50 x 4 table.
        with pytest.raises(ValueError, match=r"\['dim', 'vocab_size'\].*task_file"):
            words_config("random", task_file=str(path),
                         task_options={"vocab_size": 9999, "dim": 3})
        task = build_task(words_config("random", task_file=str(path),
                                       task_options={"hidden_word": table.words[3]}))
        assert task.table.size == 50 and task.hidden_word == table.words[3]

    def test_small_dsl_step_limit(self):
        # A hidden program that overruns the limit on some input is redrawn;
        # when every draw overruns, the error names the limit.
        with pytest.raises(ValueError, match="dsl_step_limit=5"):
            build_task(default_config("grids", "random", task_options={"dsl_step_limit": 5}))
        for seed in range(30):
            task = build_task(default_config("grids", "random", seed=seed,
                                             task_options={"dsl_step_limit": 150}))
            assert all(out is not None for _, out in task.train_pairs + task.test_pairs)
