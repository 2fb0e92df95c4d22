"""Fixed-seed behaviour hashes: one sha256 line per config.

Runs every task x method at seeds 1 and 2 under four variants (defaults,
islands migrating every third iteration, temperature 0.6, and Adam with
mu=3), each at budget 300 with early stopping off. A method without an
update (random, ns, opro) runs its Adam variant at the defaults, so that
line repeats its default line. Each line hashes the
trace CSV and JSONL, every archive entry's (text, score, provenance,
born_iteration) and the bytes of the final weight matrix.

The lines are pinned in ``tools/trace_hashes.txt``. To check that a change
keeps behaviour, regenerate them and compare; each config whose line
differs is printed, and the exit status is 1:

    python3 tools/trace_hashes.py --check tools/trace_hashes.txt

A change that is meant to alter behaviour re-pins by rewriting the file:

    python3 tools/trace_hashes.py > tools/trace_hashes.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from migrate.harness import (METHODS, TASK_DEFAULTS, TTT_METHODS, default_config,  # noqa: E402
                             run_any, trace_csv, trace_jsonl)

SEEDS = (1, 2)
VARIANTS = {
    "default": {},
    "islands-m3": dict(islands=True, migration_interval=3),
    "t0.6": dict(temperature=0.6),
    "adam-mu3": dict(optimizer="adam", mu=3),
}


def trace_hash(task: str, method: str, seed: int, overrides: dict) -> str:
    config = default_config(task, method, seed=seed, budget=300, stop_threshold=None,
                            **overrides)
    trace = run_any(config)
    if trace.summary.status != "ok":
        raise RuntimeError(f"{task} {method} seed {seed}: {trace.summary.error}")
    rows = [(c.text, c.score, c.provenance, c.born_iteration) for c in trace.archive.entries]
    h = hashlib.sha256()
    h.update((trace_csv(trace) + trace_jsonl(trace)).encode())
    h.update(json.dumps(rows).encode())
    h.update(trace.final_params.W.tobytes())
    return h.hexdigest()


def lines() -> Iterator[str]:
    """One ``"<sha256>  <task> <method> seed=<seed> <variant>"`` line per config."""
    for task in TASK_DEFAULTS:
        # Run a task's configs seed-major, so that build_task synthesizes each
        # seed's words table once; the lines keep their method-major order.
        digests = {}
        for seed in SEEDS:
            for method in METHODS:
                for name, overrides in VARIANTS.items():
                    if name == "adam-mu3" and method not in TTT_METHODS:
                        overrides = {}
                    digests[method, seed, name] = trace_hash(task, method, seed, overrides)
        for method in METHODS:
            for seed in SEEDS:
                for name in VARIANTS:
                    yield f"{digests[method, seed, name]}  {task} {method} seed={seed} {name}"


def differences(pinned: str, produced: Iterable[str]) -> Iterator[str]:
    """One message per config whose ``produced`` line is not its line in the
    ``pinned`` text, then one per pinned config that ``produced`` lacks."""
    expected = {config: digest for digest, config in
                (line.split("  ", 1) for line in pinned.splitlines())}
    for line in produced:
        digest, config = line.split("  ", 1)
        old = expected.pop(config, "not pinned")
        if old != digest:
            yield f"{config}: {old} -> {digest}"
    for config, old in expected.items():
        yield f"{config}: {old} -> not run"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print one behaviour hash per fixed-seed "
                                                 "config, or check them against a file.")
    parser.add_argument("--check", metavar="FILE",
                        help="print each config whose line differs from FILE's; exit 1 if any")
    args = parser.parse_args(argv)
    if args.check is None:
        for line in lines():
            print(line, flush=True)
        return 0
    differing = 0
    for message in differences(Path(args.check).read_text(encoding="utf-8"), lines()):
        print(message, flush=True)
        differing += 1
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
