"""Closed-loop benchmark of the MiGrATe search, end to end and layer by layer.

One process, one search at a time, no threads: each search iteration starts
only after the previous one ends. Every search goes through the public API
(``default_config(..., stop_threshold=None)`` then ``run_any``), so it spends
its whole evaluation budget and does a fixed amount of work. The workload
seed derives the search seeds; the same seed gives the same searches.

    python3 searchbench/run.py --workload words-migrate --seed 0 --seconds 30 --trace 0

``--trace 0`` times the searches with one timestamp per iteration and
reports the end-to-end metrics. ``--trace 1`` runs each search untraced and
then with every layer boundary wrapped (see ``spans.py``), writes and parses
back the run's files, and reports the per-layer metrics. Either way the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report. The
run exits with code 2, printing no result, when the package source is not
beside this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    task: str
    method: str
    overrides: dict
    searches: int  # distinct search seeds of an untraced run
    traced: int  # seeds in each pass of a traced run


# Why each workload is here, with its measured layer shares, is recorded in
# BENCHMARK.json and in README.md beside this file.
WORKLOADS = {
    "words-migrate": Workload("words", "migrate", dict(mu=2, budget=2000), 12, 2),
    "grids-islands": Workload("grids", "migrate", dict(islands=True, budget=2000), 22, 3),
    "molecules-opro": Workload("molecules", "opro", dict(budget=8000), 6, 1),
}

# Ratio metrics: name -> (numerator, denominator), both summed over searches.
RATIOS = {
    "grpo.noop_frac": ("grpo.noop_groups", "grpo.groups"),
    "grpo.clip_frac": ("grpo.clipped_tokens", "grpo.tokens"),
    "tasks.zero_frac": ("tasks.zero_scores", "tasks.score_new.completions"),
    "archive.distinct_frac": ("archive.distinct", "archive.entries"),
}

LAYERS = ("sampler", "policy", "grpo", "tasks", "archive", "harness")

# Files the run writes: ``emit_trace`` in these formats plus ``save_run_artifacts``.
TRACE_FORMATS = ("csv", "jsonl", "svg")

# Searches stopped at their first iteration after each full search, to
# time set-up alone.
SETUP_REPEATS = 3


@dataclass
class Search:
    """Timings, checks and deterministic outcomes of one search. The trace
    is dropped once no caller needs it, so that peak memory is that of one
    search, not of all."""

    seed: int
    config: object
    trace: object | None
    setup_s: float
    loop_start: float
    iter_s: list[float]
    loop_s: float
    new_evals: int
    work: dict[str, int]
    jsonl_sha256: str
    best_score: float
    evals_to_best: int
    problems: list[str]


def search_seeds(seed: int, count: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def check_outputs(config, trace) -> list[str]:
    """Output checks of one search; each failed check is one problem."""
    problems = []
    summary, archive = trace.summary, trace.archive
    if summary.status != "ok":
        problems.append(f"status {summary.status!r}: {summary.error}")
    per_iteration = config.alpha + config.gamma
    if not config.budget - per_iteration < summary.total_evaluations <= config.budget:
        problems.append(f"{summary.total_evaluations} evaluations for budget {config.budget}")
    best = [r.best_so_far for r in trace.records]
    if any(later < earlier for earlier, later in zip(best, best[1:])):
        problems.append("best_so_far decreased")
    if not best or best[-1] != archive.best_score or summary.best_score != archive.best_score:
        problems.append("final best_so_far differs from archive.best_score")
    if not all(math.isfinite(score) for r in trace.records for _, score, _ in r.new_completions):
        problems.append("non-finite score")
    return problems


def evals_to_best(trace) -> int:
    """Evaluations spent when the final best score first appeared."""
    from migrate.completion import WARMSTART

    final = trace.summary.best_score
    first = trace.records[0]
    warm = [c.score for c in trace.archive.entries if c.provenance == WARMSTART]
    if warm and max(warm) >= final:
        return first.evaluations - first.new_count
    return next(r.evaluations for r in trace.records if r.best_so_far >= final)


def make_config(workload: Workload, seed: int):
    from migrate.harness import default_config

    return default_config(workload.task, workload.method, seed=seed, stop_threshold=None,
                          **workload.overrides)


def time_setup(workload: Workload, seed: int) -> float:
    """Seconds from the config to the first iteration of a search that is
    then stopped."""
    from migrate.harness import run_any
    from spans import FirstIteration, iteration_clock

    stamps: list[float] = []
    start = time.perf_counter()
    config = make_config(workload, seed)
    with iteration_clock(stamps, stop=True), contextlib.suppress(FirstIteration):
        run_any(config)
    return stamps[0] - start


def run_search(workload: Workload, seed: int, tracer=None) -> Search:
    """One full-budget search; a ``tracer`` wraps every layer boundary."""
    from migrate.harness import run_any, trace_jsonl
    from spans import instrument, iteration_clock

    stamps: list[float] = []
    start = time.perf_counter()
    config = make_config(workload, seed)
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        with iteration_clock(stamps):
            trace = run_any(config)
    end = time.perf_counter()
    if not stamps:
        raise RuntimeError("search ran no iterations")
    bounds = stamps + [end]
    first = trace.records[0]
    summary, archive = trace.summary, trace.archive
    work = {"iterations": summary.iterations, "evaluations": summary.total_evaluations,
            "archive_entries": len(archive),
            "archive_tokens": sum(len(c.tokens) for c in archive.entries)}
    return Search(seed, config, trace, setup_s=stamps[0] - start, loop_start=stamps[0],
                  iter_s=[b - a for a, b in zip(bounds, bounds[1:])], loop_s=end - stamps[0],
                  new_evals=summary.total_evaluations - (first.evaluations - first.new_count),
                  work=work,
                  jsonl_sha256=hashlib.sha256(trace_jsonl(trace).encode()).hexdigest(),
                  best_score=summary.best_score, evals_to_best=evals_to_best(trace),
                  problems=check_outputs(config, trace))


class Runner:
    """Runs a workload's searches and keeps the score of the checks.

    Every repeat of a seed must give byte-identical ``trace_jsonl`` and equal
    work counts; a search that raises or fails any check counts as failed.
    """

    def __init__(self, workload: Workload, seeds: list[int]):
        self.workload = workload
        self.seeds = seeds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, Search] = {}

    def attempt(self, seed: int, tracer=None) -> Search | None:
        """Run one search; its trace is kept only when it is traced."""
        self.attempted += 1
        try:
            search = run_search(self.workload, seed, tracer)
        except Exception as exc:  # a benchmark boundary: count the failure and go on
            self.fail(seed, [f"raised {type(exc).__name__}: {exc}"])
            return None
        if tracer is None:
            search.trace = None
        first = self.first.setdefault(seed, search)
        if search.jsonl_sha256 != first.jsonl_sha256:
            search.problems.append("trace_jsonl differs from an earlier run of this config")
        if search.work != first.work:
            search.problems.append(f"work counts {search.work} != {first.work}")
        if search.problems:
            self.fail(seed, search.problems)
        return search

    def fail(self, seed: int, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"seed {seed}: {p}" for p in problems)

    @staticmethod
    def repeat(seconds: float, minimum: int, step) -> int:
        """Call ``step(i)`` for i = 0, 1, ... at least ``minimum`` times and
        until one more call would likely end after ``seconds``; returns the
        number of calls."""
        start = time.perf_counter()
        done = 0
        while True:
            step(done)
            done += 1
            elapsed = time.perf_counter() - start
            if done >= minimum and elapsed * (done + 1) / done > seconds:
                return done


def growth(iter_s: list[float]) -> float:
    """Median iteration time in the last quarter of a search ÷ the same in
    its first quarter."""
    quarter = max(1, len(iter_s) // 4)
    return statistics.median(iter_s[-quarter:]) / statistics.median(iter_s[:quarter])


def end_to_end(searches: list[Search], setups: list[float]) -> dict[str, float]:
    iter_ms = [t * 1e3 for s in searches for t in s.iter_s]
    return {
        "evals_per_s": sum(s.new_evals for s in searches) / sum(s.loop_s for s in searches),
        "iter_ms_p50": statistics.median(iter_ms),
        "iter_ms_p90": statistics.quantiles(iter_ms, n=10, method="inclusive")[8],
        # A mean over searches: seeds differ in their first-quarter cost, and
        # the median of a pooled mixture of them jumps between seeds' modes.
        "iter_ms_growth": statistics.fmean(growth(s.iter_s) for s in searches),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def emit_and_parse_back(search: Search, out_dir: Path) -> dict[str, float]:
    """Write the run's files, parse each back, and return the emit values."""
    from migrate.harness import emit_trace, save_run_artifacts

    start = time.perf_counter()
    emit_trace(search.trace, TRACE_FORMATS, out_dir)
    save_run_artifacts(search.trace, out_dir)
    emit_s = time.perf_counter() - start
    errors = parse_back(out_dir, search.config)
    return {"harness.emit.ms": emit_s * 1e3,
            "harness.emit.bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
            "harness.emit.parse_errors": len(errors), "errors": errors}


def parse_back(out_dir: Path, config) -> list[str]:
    """One entry per trace-CSV cell, JSONL line or other file that does not
    parse back."""
    from migrate.harness import CSV_COLUMNS, TTT_METHODS, RunConfig
    from migrate.policy import PolicyIOError, load_params

    errors = []
    with open(out_dir / "trace.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != CSV_COLUMNS:
        errors.append(f"trace.csv header {rows[0]}")
    for number, row in enumerate(rows[1:]):
        if len(row) != len(CSV_COLUMNS):
            errors.append(f"trace.csv row {number + 1} has {len(row)} cells")
        for column, cell in zip(CSV_COLUMNS, row):
            try:
                if cell:
                    float(cell)
            except ValueError:
                errors.append(f"trace.csv {column}={cell!r}")
    for name in ("trace.jsonl", "archive.jsonl"):
        for number, line in enumerate((out_dir / name).read_text(encoding="utf-8").splitlines()):
            try:
                json.loads(line)
            except ValueError:
                errors.append(f"{name} line {number + 1}")
    parsers = {"trace.svg": ET.parse,
               "best.json": lambda p: json.loads(p.read_text(encoding="utf-8")),
               "config.json": lambda p: RunConfig.from_json(p.read_text(encoding="utf-8"))}
    if config.method in TTT_METHODS:
        parsers["params.mgp"] = lambda p: load_params(p.read_bytes())
    for name, parse in parsers.items():
        try:
            parsed = parse(out_dir / name)
        except (OSError, ValueError, TypeError, ET.ParseError, PolicyIOError) as exc:
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if name == "config.json" and parsed != config:
            errors.append("config.json does not round-trip")
    return errors


def layer_values(search: Search, tracer) -> dict[str, float]:
    """Per-layer values of one traced search, in ms and counts. Keys outside
    the per-layer metrics are ratio parts and span self times (``self.<span>``)."""
    from spans import COUNTS

    calls, total, own, top = tracer.aggregate(search.loop_start)
    counts = tracer.counts
    archive = search.trace.archive
    values = {
        "sampler.construct_group.self_ms": own["sampler.construct_group"] * 1e3,
        "sampler.sample_online.ms": total["sampler.sample_online"] * 1e3,
        "sampler.select_greedy.self_ms": own["sampler.select_greedy"] * 1e3,
        "sampler.propose_neighborhood.ms": total["sampler.propose_neighborhood"] * 1e3,
        "sampler.propose_trajectory.ms": total["sampler.propose_trajectory"] * 1e3,
        "policy.sample_completion.calls": calls["policy.sample_completion"],
        "policy.sample_completion.ms": total["policy.sample_completion"] * 1e3,
        "policy.logprobs.calls": calls["policy.logprobs"],
        "policy.logprobs.ms": total["policy.logprobs"] * 1e3,
        "grpo.update_policy.calls": calls["grpo.update_policy"],
        "grpo.update_policy.ms": total["grpo.update_policy"] * 1e3,
        "grpo.make_group.self_ms": own["grpo.make_group"] * 1e3,
        "tasks.score_new.ms": total["tasks.score_new"] * 1e3,
        "archive.topk.calls": calls["archive.topk"],
        "archive.topk.ms": total["archive.topk"] * 1e3,
        "archive.island_select.ms": total["archive.island_select"] * 1e3,
        "archive.migrate.ms": total["archive.migrate"] * 1e3,
        "archive.migrate.copies": len(archive) - archive.evaluated_count,
        "archive.insert.ms": total["archive.insert"] * 1e3,
        "archive.entries": len(archive),
        "archive.distinct": len({c.tokens for c in archive.entries}),
        "harness.iterations": search.trace.summary.iterations,
        "harness.evaluations": search.trace.summary.total_evaluations,
        "harness.loop.self_ms": (search.loop_s - top) * 1e3,
        "harness.build_task.ms": sum(end - start for name, start, end, _ in tracer.spans
                                     if name == "harness.build_task") * 1e3,
        "trace.loop_ms": search.loop_s * 1e3,
        "search.best_score": search.best_score,
        "search.evals_to_best": search.evals_to_best,
    }
    values.update({name: counts[name] for name in COUNTS})
    values.update({f"self.{name}": seconds * 1e3 for name, seconds in own.items()})
    return values


def is_count(name: str) -> bool:
    return not (name.endswith("ms") or name.startswith("self."))


def per_layer(layers: list[dict],
              untraced: list[Search]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics over the traced searches (means per search, ratios
    of sums) and their untraced twins, and the mean self time of each span
    name."""
    sums: Counter = Counter()
    for values in layers:
        sums.update(values)
    out = {name: sums[name] / len(layers) for name in layers[0]}
    for name, (numerator, denominator) in RATIOS.items():
        out[name] = sums[numerator] / sums[denominator] if sums[denominator] else 0.0
    untraced_ms = sum(s.loop_s for s in untraced) * 1e3
    out["trace.overhead_frac"] = sums["trace.loop_ms"] / untraced_ms - 1
    out["harness.iter_ms_p50"] = statistics.median(t * 1e3 for s in untraced for t in s.iter_s)
    own = {name[len("self."):]: sums[name] / len(layers) for name in sums
           if name.startswith("self.")}
    return out, own


def run_untraced(runner: Runner, seconds: float):
    """Searches cycling over the seeds, each seed at least once and one of
    them twice. After each, SETUP_REPEATS searches of the same seed stop at
    their first iteration; their set-up times join those of the full
    searches in ``setup_s``."""
    searches: list[Search] = []
    setups: list[float] = []
    seeds = runner.seeds

    def one_search(i: int):
        seed = seeds[i % len(seeds)]
        search = runner.attempt(seed)
        if search is not None:
            searches.append(search)
            setups.append(search.setup_s)
            setups.extend(time_setup(runner.workload, seed) for _ in range(SETUP_REPEATS))

    runner.repeat(seconds, len(seeds) + 1, one_search)
    return searches, setups


def run_traced(runner: Runner, seconds: float, out_dir: Path):
    """Whole passes over the workload's first ``traced`` seeds. Each seed
    runs untraced, then traced; the untraced twins give the base of
    ``trace.overhead_frac`` and ``harness.iter_ms_p50``."""
    from spans import Tracer

    tracer = Tracer()
    layers: list[dict] = []
    untraced: list[Search] = []
    parse_errors: list[str] = []
    first_counts: dict[int, dict] = {}

    def one_pass(_: int):
        for seed in runner.seeds[: runner.workload.traced]:
            plain = runner.attempt(seed)
            tracer.reset()
            search = runner.attempt(seed, tracer)
            if plain is None or search is None:
                continue
            values = layer_values(search, tracer)
            emitted = emit_and_parse_back(search, out_dir)
            parse_errors.extend(emitted.pop("errors"))
            values.update(emitted)
            self_sum = sum(v for k, v in values.items() if k.startswith("self."))
            self_sum += values["harness.loop.self_ms"]
            if not math.isclose(self_sum, values["trace.loop_ms"], rel_tol=1e-9):
                runner.fail(seed, [f"self times sum to {self_sum} ms of a "
                                   f"{values['trace.loop_ms']} ms loop"])
            counts = {k: v for k, v in values.items() if is_count(k)}
            if first_counts.setdefault(seed, counts) != counts:
                runner.fail(seed, ["per-layer work counts differ from an earlier pass"])
            untraced.append(plain)
            layers.append(values)
            search.trace = None

    passes = runner.repeat(seconds, 1, one_pass)
    return layers, untraced, parse_errors, passes, first_counts


def report_header(args, runner: Runner) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop: 1 process, 1 search at a time, no threads")
    print(f"search seeds {list(runner.first)}  searches attempted {runner.attempted}")


def report_checks(runner: Runner) -> None:
    print(f"checks: {runner.failed} of {runner.attempted} searches failed  "
          f"fail_frac {runner.failed / runner.attempted:.4f}")
    for problem in runner.problems[:10]:
        print(f"  FAILED {problem}")


def main_untraced(args, runner: Runner):
    """Untraced searches; returns the end-to-end values and report notes."""
    searches, setups = run_untraced(runner, args.seconds)
    if not searches:
        return None
    report_header(args, runner)
    for seed, s in runner.first.items():
        print(f"  seed {seed}: {s.work}  best_score {s.best_score:.6f}  "
              f"evals_to_best {s.evals_to_best}")
    iterations = sum(len(s.iter_s) for s in searches)
    values = end_to_end(searches, setups)
    # Reported, not bounded: see harness.iter_ms_p50 in README.md.
    print(f"  iter_ms_p50 {values['iter_ms_p50']:.6g} ms over {iterations} iterations "
          f"(report only)")
    notes = {"evals_per_s": f"{len(searches)} searches",
             "iter_ms_p90": f"{iterations} iterations",
             "iter_ms_growth": f"mean of {len(searches)} searches",
             "setup_s": f"median of {len(setups)} set-ups", "peak_rss_mb": "this process"}
    return values, notes


def main_traced(args, runner: Runner, names: list[str]):
    """Traced searches; returns the per-layer values. ``names`` selects the
    work counts printed per seed."""
    with tempfile.TemporaryDirectory(prefix=".searchbench-", dir=ROOT) as out_dir:
        layers, untraced, parse_errors, passes, first_counts = run_traced(
            runner, args.seconds, Path(out_dir))
    if not layers:
        return None
    report_header(args, runner)
    print(f"passes over the traced seeds: {passes}")
    metrics, own = per_layer(layers, untraced)
    loop_ms = metrics["trace.loop_ms"]
    print(f"traced searches {len(layers)}; self times sum to "
          f"{sum(own.values()) + metrics['harness.loop.self_ms']:.3f} ms of a "
          f"{loop_ms:.3f} ms loop per search")
    shares = Counter()
    for name, ms in own.items():
        shares[name.split(".")[0]] += ms
    shares["harness"] += metrics["harness.loop.self_ms"]
    print("layer shares of loop time: " + "  ".join(
        f"{layer} {shares[layer] / loop_ms:.1%}" for layer in LAYERS))
    print("span self shares: " + "  ".join(
        f"{name} {ms / loop_ms:.1%}" for name, ms in sorted(own.items(), key=lambda kv: -kv[1])))
    for seed, counts in first_counts.items():
        print(f"  seed {seed} work counts: {({k: v for k, v in counts.items() if k in names})}")
    if parse_errors:
        print(f"emitted files that do not parse back: {len(parse_errors)} errors over "
              f"{len(layers)} searches, e.g. {parse_errors[0]}")
    return metrics, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "migrate" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'migrate'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import migrate

    if Path(migrate.__file__).resolve().parent != SRC / "migrate":
        print(f"error: imported migrate from {migrate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, search_seeds(args.seed, workload.searches))
    measured = (main_traced(args, runner, list(units)) if args.trace
                else main_untraced(args, runner))
    if measured is None:
        report_checks(runner)
        print("error: no search completed", file=sys.stderr)
        return 1
    values, notes = measured
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']:<14} {note}")
    report_checks(runner)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
