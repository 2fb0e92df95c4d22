"""Fixed-seed behaviour hashes: one sha256 line per config.

Runs every task x method at seeds 1 and 2 under four variants (defaults,
islands migrating every third iteration, temperature 0.6, and Adam with
mu=3), each at budget 300 with early stopping off. A method without an
update (random, ns, opro) runs its Adam variant at the defaults, so that
line repeats its default line. Each line hashes the
trace CSV and JSONL, every archive entry's (text, score, provenance,
born_iteration) and the bytes of the final weight matrix.

To check that a change keeps behaviour, run it in two checkouts and diff
the outputs:

    python3 tools/trace_hashes.py > after.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
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


def main() -> None:
    for task in TASK_DEFAULTS:
        for method in METHODS:
            for seed in SEEDS:
                for name, overrides in VARIANTS.items():
                    if name == "adam-mu3" and method not in TTT_METHODS:
                        overrides = {}
                    digest = trace_hash(task, method, seed, overrides)
                    print(f"{digest}  {task} {method} seed={seed} {name}", flush=True)


if __name__ == "__main__":
    main()
