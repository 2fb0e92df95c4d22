"""Tests of the behaviour-hash tool: every pinned line holds in tier-1, and a
name it imports cannot disappear without a failure."""

import importlib.util
import re
from pathlib import Path

import pytest

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


def test_differences_name_each_moved_unpinned_and_missing_config(tool):
    pinned = ("aa  words random seed=1 default\n"
              "bb  words random seed=2 default\n"
              "cc  grids ns seed=1 t0.6\n")
    produced = ["aa  words random seed=1 default", "bx  words random seed=2 default",
                "dd  grids ns seed=2 t0.6"]
    assert list(tool.differences(pinned, produced)) == [
        "words random seed=2 default: bb -> bx",
        "grids ns seed=2 t0.6: not pinned -> dd",
        "grids ns seed=1 t0.6: cc -> not run"]
    assert list(tool.differences(pinned, pinned.splitlines())) == []
