"""Fixed-seed behaviour hashes: one sha256 line per config.

Runs every task x method at seeds 1 and 2 under four variants (defaults,
islands migrating every third iteration, temperature 0.6, and Adam with
mu=3), each at budget 300 with early stopping off. A method without an
update (random, ns, opro) runs its Adam variant at the defaults, so that
line repeats its default line. Ten named cases follow, each with its own
seed, budget and overrides (Adam with mu > 1, migration over several
islands, longer budgets). Each line hashes the trace CSV and JSONL, every
archive entry's (text, score, provenance, born_iteration), the bytes of the
final weight matrix and, when the archive has islands, each entry's island
membership. So a one-ulp change to any emitted value (a sampled token, a
score, a loss, a weight, an archive entry or an island membership) moves a
line. A value that only shifts a draw probability moves none unless some
draw flips. The configs run in worker processes, one (task, seed) group at
a time each; the lines do not depend on which worker ran them.

The lines are pinned in ``tools/trace_hashes.txt``. To check that a change
keeps behaviour, regenerate them and compare; each config whose line
differs is printed, and the exit status is 1. A pin file that cannot be read,
or that holds a line other than ``<sha256>  <config>`` or a config twice,
is named with its line and the exit status is 2:

    python3 tools/trace_hashes.py --check tools/trace_hashes.txt

Re-pin only in the change that causes the drift, with the reason recorded
in CHANGES.md, by rewriting the file:

    python3 tools/trace_hashes.py > tools/trace_hashes.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
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

# (task, method, seed, name, overrides), one per line, in the file's order.
CONFIGS: list[tuple[str, str, int, str, dict]] = [
    (task, method, seed, name, {} if name == "adam-mu3" and method not in TTT_METHODS
     else overrides)
    for task in TASK_DEFAULTS for method in METHODS for seed in SEEDS
    for name, overrides in VARIANTS.items()
] + [
    ("words", "migrate", 3, "words-migrate-mu2", dict(mu=2, budget=600)),
    ("words", "ns", 4, "words-ns", {}),
    ("grids", "migrate", 5, "grids-migrate-islands", dict(islands=True, budget=960)),
    ("grids", "migrate-opro", 6, "grids-migrate-opro", dict(budget=480)),
    ("grids", "grpo-greedy", 7, "grids-grpo-greedy-t07", dict(temperature=0.7, budget=480)),
    ("molecules", "grpo", 8, "molecules-grpo", {}),
    ("molecules", "opro", 9, "molecules-opro", dict(budget=400)),
    ("molecules", "migrate", 10, "molecules-migrate-adam", dict(optimizer="adam")),
    # Adam with mu > 1: every step of an update reuses the same frozen group.
    ("grids", "grpo", 12, "grids-grpo-adam-mu3", dict(optimizer="adam", mu=3, budget=480)),
    # Migration every third iteration over three islands, half of each island's
    # members joining the next: the elites come to belong to several islands.
    ("grids", "migrate", 11, "heavy-migration",
     dict(islands=True, island_count=3, migration_interval=3, migration_fraction=0.5)),
]


def trace_hash(task: str, method: str, seed: int, overrides: dict) -> str:
    config = default_config(task, method, seed=seed, stop_threshold=None,
                            **{"budget": 300, **overrides})
    trace = run_any(config)
    if trace.summary.status != "ok":
        raise RuntimeError(f"{task} {method} seed {seed}: {trace.summary.error}")
    archive = trace.archive
    rows = [(c.text, c.score, c.provenance, c.born_iteration) for c in archive.entries]
    h = hashlib.sha256()
    h.update((trace_csv(trace) + trace_jsonl(trace)).encode())
    h.update(json.dumps(rows).encode())
    h.update(trace.final_params.W.tobytes())
    if archive.islands:
        h.update(json.dumps([archive.islands_of(i) for i in range(len(archive))]).encode())
    return h.hexdigest()


def group_digests(configs: list[tuple[str, str, int, str, dict]]) -> dict[tuple, str]:
    """The digest of each of ``configs``, by ``(task, method, seed, name)``."""
    return {(task, method, seed, name): trace_hash(task, method, seed, overrides)
            for task, method, seed, name, overrides in configs}


def lines() -> Iterator[str]:
    """One ``"<sha256>  <task> <method> seed=<seed> <name>"`` line per config,
    in ``CONFIGS`` order."""
    # One worker process runs all of a (task, seed) group's configs, so that
    # build_task synthesizes each seed's words table once; the largest groups
    # start first.
    groups: dict[tuple[str, int], list] = {}
    for config in CONFIGS:
        groups.setdefault((config[0], config[2]), []).append(config)
    digests = {}
    # Spawned, not forked: the calling process (a test runner, say) may hold threads.
    with ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn")) as pool:
        for done in pool.map(group_digests, sorted(groups.values(), key=len, reverse=True)):
            digests.update(done)
    for task, method, seed, name, _ in CONFIGS:
        yield f"{digests[task, method, seed, name]}  {task} {method} seed={seed} {name}"


def pins(text: str, source: str) -> dict[str, str]:
    """The pinned digest of each config in ``text``, one ``"<sha256>  <config>"``
    line each. A line of another form, or a config pinned twice, raises
    ValueError naming ``source:<line>``."""
    pinned = {}
    for number, line in enumerate(text.splitlines(), 1):
        digest, separator, config = line.partition("  ")
        if not (digest and separator and config):
            raise ValueError(f"{source}:{number}: not a '<sha256>  <config>' line: {line!r}")
        if config in pinned:
            raise ValueError(f"{source}:{number}: {config} is pinned twice")
        pinned[config] = digest
    return pinned


def differences(pinned: dict[str, str], produced: Iterable[str]) -> Iterator[str]:
    """One message per config whose ``produced`` line does not hold its
    ``pinned`` digest, then one per pinned config that ``produced`` lacks."""
    expected = dict(pinned)
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
                        help="print each config whose line differs from FILE's; exit 1 if "
                             "any, 2 if FILE is not a pin file")
    args = parser.parse_args(argv)
    if args.check is None:
        for line in lines():
            print(line, flush=True)
        return 0
    try:
        pinned = pins(Path(args.check).read_text(encoding="utf-8"), args.check)
    except OSError as error:
        print(f"{args.check}: {error.strerror}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    differing = 0
    for message in differences(pinned, lines()):
        print(message, flush=True)
        differing += 1
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
