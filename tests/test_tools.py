"""Smoke test for the behaviour-hash tool, so a name it imports cannot
disappear without a tier-1 failure."""

import importlib.util
import re
from pathlib import Path

TRACE_HASHES = Path(__file__).resolve().parents[1] / "tools" / "trace_hashes.py"


def test_trace_hash_is_a_stable_sha256():
    spec = importlib.util.spec_from_file_location("trace_hashes", TRACE_HASHES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.trace_hash("grids", "migrate", 1, {})
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert tool.trace_hash("grids", "migrate", 1, {}) == first
