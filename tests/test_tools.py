"""Tests of the behaviour-hash tool, the one behaviour pin: every pinned line
holds in tier-1, island membership is part of the hash, a pin file that is
not one exits 2, and a name the tool imports cannot disappear without a
failure."""

import importlib.util
import re
from pathlib import Path

import pytest

from migrate.archive import Archive

TRACE_HASHES = Path(__file__).resolve().parents[1] / "tools" / "trace_hashes.py"
PINNED = TRACE_HASHES.with_suffix(".txt")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("trace_hashes", TRACE_HASHES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hash_is_a_stable_sha256(tool):
    first = tool.trace_hash("grids", "migrate", 1, {})
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert tool.trace_hash("grids", "migrate", 1, {}) == first


def test_every_pinned_trace_hash_holds(tool, capsys):
    # On a failure the output names each config whose line moved.
    assert tool.main(["--check", str(PINNED)]) == 0, capsys.readouterr().out
    assert capsys.readouterr().out == ""


# The ten former golden cases, each with its seed, budget and overrides:
# name -> (task, method, seed, overrides).
GOLDEN_CASES = {
    "words-migrate-mu2": ("words", "migrate", 3, dict(mu=2, budget=600)),
    "words-ns": ("words", "ns", 4, dict(budget=300)),
    "grids-migrate-islands": ("grids", "migrate", 5, dict(islands=True, budget=960)),
    "grids-migrate-opro": ("grids", "migrate-opro", 6, dict(budget=480)),
    "grids-grpo-greedy-t07": ("grids", "grpo-greedy", 7, dict(temperature=0.7, budget=480)),
    "molecules-grpo": ("molecules", "grpo", 8, dict(budget=300)),
    "molecules-opro": ("molecules", "opro", 9, dict(budget=400)),
    "molecules-migrate-adam": ("molecules", "migrate", 10, dict(optimizer="adam", budget=300)),
    "grids-grpo-adam-mu3": ("grids", "grpo", 12, dict(optimizer="adam", mu=3, budget=480)),
    "heavy-migration": ("grids", "migrate", 11, dict(islands=True, island_count=3,
                                                      migration_interval=3,
                                                      migration_fraction=0.5, budget=300)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_case_is_pinned(tool, name):
    # Each former golden config runs as its own named line of the pin file, so
    # re-pinning after editing its seed, budget or overrides fails here.
    task, method, seed, overrides = GOLDEN_CASES[name]
    [config] = [config for config in tool.CONFIGS if config[3] == name]
    assert config[:3] == (task, method, seed)
    assert {"budget": 300, **config[4]} == overrides  # trace_hash's default budget is 300
    pinned = tool.pins(PINNED.read_text(encoding="utf-8"), str(PINNED))
    assert f"{task} {method} seed={seed} {name}" in pinned


def test_differences_name_each_moved_unpinned_and_missing_config(tool):
    pinned = ("aa  words random seed=1 default\n"
              "bb  words random seed=2 default\n"
              "cc  grids ns seed=1 t0.6\n")
    produced = ["aa  words random seed=1 default", "bx  words random seed=2 default",
                "dd  grids ns seed=2 t0.6"]
    assert list(tool.differences(tool.pins(pinned, "pins"), produced)) == [
        "words random seed=2 default: bb -> bx",
        "grids ns seed=2 t0.6: not pinned -> dd",
        "grids ns seed=1 t0.6: cc -> not run"]
    assert list(tool.differences(tool.pins(pinned, "pins"), pinned.splitlines())) == []


@pytest.mark.parametrize("text, problem", [
    ("aa  words random seed=1 default\n\nbb  words random seed=2 default\n",
     ":2: not a '<sha256>  <config>' line: ''"),
    ("aa  words random seed=1 default\nbb words random seed=2 default\n",
     ":2: not a '<sha256>  <config>' line: 'bb words random seed=2 default'"),
    ("  words random seed=1 default\n",
     ":1: not a '<sha256>  <config>' line: '  words random seed=1 default'"),
    ("aa  words random seed=1 default\nbb  grids ns seed=1 t0.6\n"
     "cc  words random seed=1 default\n", ":3: words random seed=1 default is pinned twice"),
    (None, ": No such file or directory"),
], ids=["blank-line", "one-space", "no-digest", "pinned-twice", "missing"])
def test_a_bad_pin_file_exits_2_naming_its_line(tool, tmp_path, capsys, monkeypatch, text,
                                                problem):
    # Exit 1 means lines differ; a file that is not a pin file exits 2 before any run.
    monkeypatch.setattr(tool, "lines", lambda: pytest.fail("ran the configs"))
    pinned = tmp_path / "pins.txt"
    if text is not None:
        pinned.write_text(text, encoding="utf-8")
    assert tool.main(["--check", str(pinned)]) == 2
    assert capsys.readouterr() == ("", f"{pinned}{problem}\n")


def test_island_membership_is_pinned(tool, monkeypatch):
    # The heavy-migration case's elites belong to several islands, so listing
    # each entry's islands in reverse moves its line; a run without islands
    # has no membership to hash.
    heavy = next(config for config in tool.CONFIGS if config[3] == "heavy-migration")
    task, method, seed, _, overrides = heavy
    before = (tool.trace_hash(task, method, seed, overrides),
              tool.trace_hash("words", "migrate", 1, {}))
    islands_of = Archive.islands_of
    monkeypatch.setattr(Archive, "islands_of", lambda self, index: islands_of(self, index)[::-1])
    after = (tool.trace_hash(task, method, seed, overrides),
             tool.trace_hash("words", "migrate", 1, {}))
    assert after[0] != before[0]
    assert after[1] == before[1]
