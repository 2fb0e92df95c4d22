"""The names the benchmark harness looks up or patches must exist."""

import importlib.util
from pathlib import Path

import migrate

SPANS = Path(__file__).resolve().parents[1] / "searchbench" / "spans.py"


def test_benchmark_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("searchbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._BOUNDARIES
    for owner, attr, _ in spans._BOUNDARIES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_package_exports_resolve():
    for name in migrate.__all__:
        assert hasattr(migrate, name), name
