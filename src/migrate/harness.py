"""Search driver: budget loop, baselines, traces, sweeps, bootstrapping.

Every run is a pure function of its config (seed included): one master seed
fans out to named sub-streams for task synthesis, sampling, and island
selection, and all emitted trace files are byte-reproducible. Wall time
(of the search, not of the task build before it) is reported in the
in-memory summary only, never written to files.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .archive import Archive, IslandConfig
from .grpo import Adam, GrpoDiagnostics, UpdateSpec, make_group, update_policy
from .policy import PolicyIOError, PolicyParams, init_params, load_params, save_params
from .sampler import MixSpec, construct_group
from .tasks import (EmbeddingTable, GridTask, SearchTask, TwoObjectiveTask, WordSearchTask,
                    eval_program, load_embedding_table, load_grid_task, parse_program,
                    synthesize_embedding_table, synthesize_grid_task)

logger = logging.getLogger(__name__)

TTT_METHODS = ("grpo", "grpo-greedy", "migrate", "migrate-opro")
OPRO_METHODS = ("opro", "migrate-opro")
METHODS = ("random", "ns", "opro") + TTT_METHODS

# Sub-stream tags fanned out from the master seed.
_STREAM_TASK = 0
_STREAM_SAMPLING = 1
_STREAM_ISLANDS = 2
_STREAM_WARMSTART = 3

# The only run defaults: default_config (and so every --config file) takes a
# task's entry whole, each key into the part that reads it. Mixes are
# (alpha, beta, gamma); the group size is their sum.
TASK_DEFAULTS: dict[str, dict] = {
    "words": dict(budget=1000, warmstart_count=20, top_k=3, mu=2,
                  learning_rate=0.3, mutation_rate=0.2, stop_threshold=1.0, opro_depth=10,
                  mixes={"random": (5, 0, 0), "ns": (0, 0, 5), "opro": (0, 0, 5),
                         "grpo": (5, 0, 0), "grpo-greedy": (4, 1, 0),
                         "migrate": (0, 1, 4), "migrate-opro": (0, 1, 4)}),
    "molecules": dict(budget=200, warmstart_count=3, top_k=1, mu=1,
                      learning_rate=0.35, mutation_rate=0.25, stop_threshold=None, opro_depth=5,
                      mixes={"random": (5, 0, 0), "ns": (3, 0, 2), "opro": (0, 0, 5),
                             "grpo": (5, 0, 0), "grpo-greedy": (4, 1, 0),
                             "migrate": (2, 1, 2), "migrate-opro": (2, 1, 2)}),
    "grids": dict(budget=1024, warmstart_count=1, top_k=1, mu=1,
                  learning_rate=0.35, mutation_rate=0.25, stop_threshold=1.0, opro_depth=1,
                  mixes={"random": (16, 0, 0), "ns": (12, 0, 4), "opro": (12, 0, 4),
                         "grpo": (16, 0, 0), "grpo-greedy": (15, 1, 0),
                         "migrate": (11, 1, 4), "migrate-opro": (11, 1, 4)}),
}

# The value types of each kind a key may take. A bool is never a number.
_NUMBER = (int, float, np.integer, np.floating)
_KINDS = {"an integer": (int, np.integer), "a number": _NUMBER, "a string": str,
         "a number or null": (*_NUMBER, type(None)), "a string or null": (str, type(None)),
         "an object": dict, "true or false": bool}

# The flat config keys, each with its part and kind: the one vocabulary of
# default_config, --config files, CLI flags and sweep points. A key names its
# part's field; "islands", of no part, turns islands on.
CONFIG_KEYS: dict[str, tuple[str | None, str]] = {
    "method": ("run", "a string"), "task": ("run", "a string"), "seed": ("run", "an integer"),
    "budget": ("run", "an integer"), "warmstart_count": ("run", "an integer"),
    "stop_threshold": ("run", "a number or null"), "temperature": ("run", "a number"),
    "task_file": ("run", "a string or null"), "task_options": ("run", "an object"),
    "bootstrap_params": ("run", "a string or null"), "islands": (None, "true or false"),
    "alpha": ("mix", "an integer"), "beta": ("mix", "an integer"), "gamma": ("mix", "an integer"),
    "top_k": ("mix", "an integer"), "mutation_rate": ("mix", "a number"),
    "learning_rate": ("update", "a number"), "mu": ("update", "an integer"),
    "optimizer": ("update", "a string"), "eps_low": ("update", "a number"),
    "eps_high": ("update", "a number"), "island_count": ("islands", "an integer"),
    "exploit_prob": ("islands", "a number"), "migration_interval": ("islands", "an integer"),
    "migration_fraction": ("islands", "a number"), "opro_depth": ("opro_depth", "an integer"),
}

# The task_options keys each task reads, with their kinds.
TASK_OPTIONS: dict[str, dict[str, str]] = {
    "words": {"clusters": "an integer", "dim": "an integer", "hidden_word": "a string or null",
              "step_scale": "a number", "vocab_size": "an integer"},
    "molecules": {"max_len": "an integer"},
    "grids": {"dsl_step_limit": "an integer"},
}


def _check_kind(key: str, value, kind: str) -> None:
    """Raise ValueError unless ``value`` is of ``kind``, a _KINDS name."""
    types = _KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ValueError(f"{key} must be {kind}, got {value!r}")


def _check_keys(keys: dict, task: str, method: str, islands: bool, accepted=CONFIG_KEYS) -> None:
    """Raise ValueError on a key outside ``accepted``, a value not of its key's
    kind (or a ``task_options`` key the task lacks), or a key for a part that a
    ``method`` config with or without ``islands`` does not have."""
    lacks = {"update": method not in TTT_METHODS, "islands": not islands,
             "opro_depth": method not in OPRO_METHODS}
    for key, value in keys.items():
        if key not in accepted:
            raise ValueError(f"unknown config key {key!r}; accepted keys: {', '.join(accepted)}")
        part, kind = CONFIG_KEYS[key]
        _check_kind(key, value, kind)
        if lacks.get(part):
            where = " without islands=True" if part == "islands" else ""
            raise ValueError(f"config key {key!r} sets the {part} part, which this "
                             f"{method!r} config{where} does not have")
        if key == "task_options":
            options = TASK_OPTIONS[task]
            for option, setting in value.items():
                if option not in options:
                    raise ValueError(f"unknown task_options key {option!r} for task {task!r}; "
                                     f"accepted keys: {', '.join(options)}")
                _check_kind(option, setting, options[option])


@dataclass(frozen=True)
class RunConfig:
    """One search run: its settings and the parts its method reads, built by
    ``default_config``, which checks each key and its kind; this class checks
    ranges and how fields fit together. ``update`` is present exactly for
    TTT_METHODS (whose groups need two members), ``islands`` when the archive
    has islands, and ``opro_depth`` (how many top entries trajectory proposals
    recombine) exactly for OPRO_METHODS. A words ``task_file`` takes only the
    ``hidden_word`` task option; molecules reads no ``task_file``."""

    method: str
    task: str
    budget: int
    warmstart_count: int
    stop_threshold: float | None
    mix: MixSpec
    update: UpdateSpec | None = None
    islands: IslandConfig | None = None
    opro_depth: int | None = None
    temperature: float = 1.0
    seed: int = 0
    task_file: str | None = None
    task_options: dict = field(default_factory=dict)
    bootstrap_params: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.task not in TASK_DEFAULTS:
            raise ValueError(f"unknown task {self.task!r}")
        for name in ("seed", "warmstart_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.budget <= self.warmstart_count:
            raise ValueError("budget must exceed warmstart_count")
        if self.stop_threshold is not None and not math.isfinite(self.stop_threshold):
            raise ValueError(f"stop_threshold must be finite or null, got {self.stop_threshold!r}")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature!r}")
        if ((self.update is None) == (self.method in TTT_METHODS)
                or (self.opro_depth is None) == (self.method in OPRO_METHODS)):
            raise ValueError(f"a {self.method!r} config must have an update exactly when it is "
                             f"in TTT_METHODS, and an opro_depth exactly when in OPRO_METHODS")
        if self.update is not None and self.mix.group_size < 2:
            raise ValueError(f"a {self.method!r} update needs a group of at least 2 members "
                             f"(alpha + beta + gamma), got {self.mix.group_size}")
        if self.opro_depth is not None and self.opro_depth < 1:
            raise ValueError("opro_depth must be >= 1")
        if self.task_file and self.task == "molecules":
            raise ValueError("task 'molecules' is synthesized and reads no task_file")
        synthesis = sorted(set(self.task_options) - {"hidden_word"})
        if self.task_file and self.task == "words" and synthesis:
            raise ValueError(f"task_options {synthesis} are not read with a words task_file")

    # searchbench/run.py reads these two: a full iteration evaluates alpha + gamma.
    @property
    def alpha(self) -> int:
        return self.mix.alpha

    @property
    def gamma(self) -> int:
        return self.mix.gamma

    def flat(self) -> dict:
        """This config in the flat keys of ``default_config``; a part it lacks adds none."""
        holders = {"run": self, "mix": self.mix, "update": self.update, "islands": self.islands,
                   "opro_depth": None if self.opro_depth is None else self}
        keys = {"islands": self.islands is not None}
        for key, (part, _) in CONFIG_KEYS.items():
            if holders.get(part) is not None:
                keys[key] = getattr(holders[part], key)
        return keys

    def to_json(self) -> str:
        return json.dumps(self.flat(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        """``default_config`` of a JSON object: keys it omits take the task's defaults."""
        return default_config(**json.loads(text))


def default_config(task: str, method: str, seed: int = 0, **overrides) -> RunConfig:
    """``TASK_DEFAULTS[task]`` with the method's mix and the flat-key
    ``overrides`` on top, each key put into the part that reads it. Before any
    part is built, each key passed is checked once (the task and method for
    kind and name, the others by :func:`_check_keys`), and then each part
    checks its values; either raises ValueError."""
    for key, value, known in (("task", task, TASK_DEFAULTS), ("method", method, METHODS)):
        _check_kind(key, value, CONFIG_KEYS[key][1])
        if value not in known:
            raise ValueError(f"unknown {key} {value!r}; accepted: {', '.join(known)}")
    _check_keys({"seed": seed, **overrides}, task, method, bool(overrides.get("islands")))
    defaults = TASK_DEFAULTS[task]
    keys = {**dict(zip(("alpha", "beta", "gamma"), defaults["mixes"][method])), **defaults,
            "method": method, "task": task, "seed": seed, **overrides}
    parts: dict[str, dict] = {"islands": {}}
    for key, (part, _) in CONFIG_KEYS.items():
        if part and key in keys:
            parts.setdefault(part, {})[key] = keys[key]

    update = UpdateSpec(**parts["update"]) if method in TTT_METHODS else None
    return RunConfig(**parts["run"], mix=MixSpec(**parts["mix"]), update=update,
                     islands=IslandConfig(**parts["islands"]) if keys.get("islands") else None,
                     opro_depth=keys["opro_depth"] if method in OPRO_METHODS else None)


@dataclass
class IterationRecord:
    iteration: int
    evaluations: int
    best_so_far: float
    new_count: int
    loss: float | None = None
    clip_low_frac: float | None = None
    clip_high_frac: float | None = None
    new_completions: list[tuple[str, float, str]] = field(default_factory=list)


@dataclass
class RunSummary:
    """How a search ended; ``wall_time`` times :func:`search`, not the task build."""

    found: bool
    best_score: float
    best_text: str
    total_evaluations: int
    iterations: int
    wall_time: float
    status: str = "ok"
    error: str = ""


@dataclass
class Trace:
    config: RunConfig
    records: list[IterationRecord]
    summary: RunSummary
    final_params: PolicyParams
    archive: Archive


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@functools.lru_cache(maxsize=1)
def _synthesized_words(seed: int, options: tuple) -> tuple[EmbeddingTable, str]:
    """The words table that the task stream of ``seed`` synthesizes from the
    sorted ``(key, value)`` synthesis ``options``, and the hidden word it then
    draws. The last one is kept: the table is frozen and read-only."""
    rng = _rng(seed, _STREAM_TASK)
    table = synthesize_embedding_table(rng, **dict(options))
    return table, table.words[int(rng.integers(0, table.size))]


def build_task(config: RunConfig) -> SearchTask:
    """Materialize the task from the config's task-synthesis stream.

    ``task_options`` are keyword arguments of the task's constructor (RunConfig checks
    their keys, and which of them a ``task_file`` leaves unread).

    Every call returns a fresh task, but a synthesized words table (the most
    costly part of a words build) is shared: the last one built is kept,
    keyed on the seed and the synthesis options (every option but
    ``hidden_word``), so searches of one seed build it once. One search per
    process, as in ``migrate run``, gains nothing. A words ``task_file`` is
    read on every call.
    """
    opts = dict(config.task_options)
    if config.task == "words":
        hidden = opts.pop("hidden_word", None)
        if config.task_file:
            table = load_embedding_table(config.task_file)
            if hidden is None:
                hidden = table.words[int(_rng(config.seed, _STREAM_TASK).integers(0, table.size))]
        else:
            table, drawn = _synthesized_words(config.seed, tuple(sorted(opts.items())))
            hidden = drawn if hidden is None else hidden
        return WordSearchTask(table, hidden, warmstart_count=config.warmstart_count)
    rng = _rng(config.seed, _STREAM_TASK)
    if config.task == "molecules":
        return TwoObjectiveTask(rng, **opts)
    if config.task_file:
        return load_grid_task(config.task_file, **opts)
    return synthesize_grid_task(rng, **opts)


def initial_params(config: RunConfig, task: SearchTask) -> PolicyParams:
    """The search's first params: the ``bootstrap_params`` file when set (OSError
    when it cannot be read, :class:`policy.PolicyIOError` when it does not
    load or its vocabulary size or ``max_len`` is not the task's), else uniform."""
    if config.bootstrap_params:
        params = load_params(Path(config.bootstrap_params).read_bytes(), vocab=task.vocab)
        if params.max_len != task.max_len:
            raise PolicyIOError(f"stored max_len={params.max_len} != the task's "
                                f"max_len={task.max_len}")
        return params
    return init_params(task.vocab, max_len=task.max_len)


def run_any(config: RunConfig) -> Trace:
    """Build the config's task and first params, and :func:`search` them."""
    task = build_task(config)
    return search(config, task, initial_params(config, task))


def search(config: RunConfig, task: SearchTask, params: PolicyParams) -> Trace:
    """Search ``task`` from ``params`` within the config's budget; with an
    update (the test-time-training methods) the policy is updated after every
    group, otherwise it stays ``params``."""
    started = time.perf_counter()
    sampling_rng = _rng(config.seed, _STREAM_SAMPLING)
    island_rng = _rng(config.seed, _STREAM_ISLANDS)
    mix, update, islands = config.mix, config.update, config.islands
    archive = Archive(islands=islands)

    warm = task.warmstart(_rng(config.seed, _STREAM_WARMSTART))[: config.warmstart_count]
    for i, c in enumerate(warm):
        archive.insert([c], island=i % islands.island_count if islands else None)

    adam = Adam() if update is not None and update.optimizer == "adam" else None

    records: list[IterationRecord] = []
    found = config.stop_threshold is not None and archive.best_score >= config.stop_threshold
    status, error = "ok", ""
    iteration = 0
    try:
        while not found:
            next_new = mix.group_size if len(archive) == 0 else mix.alpha + mix.gamma
            if archive.evaluated_count + next_new > config.budget:
                break
            iteration += 1
            draft = construct_group(mix, params, archive, config.temperature,
                                    sampling_rng, born_iteration=iteration,
                                    opro_depth=config.opro_depth, island_rng=island_rng)
            fresh = task.score_new(draft.online + draft.local)
            group_members = fresh[:len(draft.online)] + draft.greedy + fresh[len(draft.online):]
            archive.insert(fresh)
            record = IterationRecord(
                iteration=iteration, evaluations=archive.evaluated_count,
                best_so_far=archive.best_score, new_count=len(fresh),
                new_completions=[(c.text, c.score, c.provenance) for c in fresh])
            records.append(record)
            if config.stop_threshold is not None and archive.best_score >= config.stop_threshold:
                found = True
                break
            if update is not None:
                group = make_group(params, group_members)
                params, diags = update_policy(params, group, update, adam)
                last: GrpoDiagnostics = diags[-1]
                record.loss = last.loss
                record.clip_low_frac = last.clip_low_frac
                record.clip_high_frac = last.clip_high_frac
            if islands and iteration % islands.migration_interval == 0:
                archive.migrate()
    except Exception as exc:  # partial trace with error status
        status, error = "error", f"{type(exc).__name__}: {exc}"
        logger.warning("run aborted at iteration %d: %s", iteration, error)
        if not isinstance(exc, (ArithmeticError, RuntimeError)):
            raise

    best = archive.best
    summary = RunSummary(found=found, best_score=archive.best_score,
                         best_text="" if best is None else best.text,
                         total_evaluations=archive.evaluated_count,
                         iterations=iteration, wall_time=time.perf_counter() - started,
                         status=status, error=error)
    return Trace(config=config, records=records, summary=summary,
                 final_params=params, archive=archive)


# --- trace emission ---------------------------------------------------------

# The per-iteration fields of the CSV and JSONL traces, in column order.
CSV_COLUMNS = ("iteration", "evaluations", "best_so_far", "loss",
               "clip_low_frac", "clip_high_frac")
SVG_WIDTH, SVG_HEIGHT = 640, 400
TRACE_STEM = "trace"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy scalars repr as np.float64(...)
    return str(value)


def trace_csv(trace: Trace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in trace.records:
        writer.writerow([_fmt(getattr(r, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def trace_jsonl(trace: Trace) -> str:
    return "".join(json.dumps({
        **{c: getattr(r, c) for c in CSV_COLUMNS},
        "new": [{"text": t, "score": s, "provenance": p} for t, s, p in r.new_completions],
    }, separators=(",", ":")) + "\n" for r in trace.records)


def trace_svg(trace: Trace) -> str:
    """Best-so-far vs evaluations as a single-polyline SVG_WIDTH x SVG_HEIGHT plot."""
    width, height, pad = SVG_WIDTH, SVG_HEIGHT, 50
    xs = [r.evaluations for r in trace.records]
    ys = [r.best_so_far for r in trace.records]
    if not xs:
        xs, ys = [0], [0.0]
    x_lo, x_hi = 0, max(xs) or 1
    y_lo, y_hi = min(0.0, min(ys)), max(ys) or 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'  <rect width="{width}" height="{height}" fill="white"/>\n'
        f'  <line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>\n'
        f'  <line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>\n'
        f'  <text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="14">evaluations</text>\n'
        f'  <text x="14" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {height // 2})">best-so-far</text>\n'
        f'  <polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{points}"/>\n'
        f"</svg>\n"
    )


#: The trace formats :func:`emit_trace` writes, each with its renderer.
TRACE_FORMATS = {"csv": trace_csv, "jsonl": trace_jsonl, "svg": trace_svg}


def check_trace_formats(formats: tuple[str, ...]) -> None:
    """Raise ValueError naming any format not in :data:`TRACE_FORMATS`."""
    unknown = sorted(set(formats) - TRACE_FORMATS.keys())
    if unknown:
        raise ValueError(f"unknown trace formats {unknown}; accepted: {', '.join(TRACE_FORMATS)}")


def emit_trace(trace: Trace, formats: tuple[str, ...], out_dir: str | Path) -> list[Path]:
    """Write ``trace.<format>`` files atomically; on failure none remains."""
    check_trace_formats(formats)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rendered = {fmt: TRACE_FORMATS[fmt](trace) for fmt in formats}
    written: list[Path] = []
    tmp_paths: list[Path] = []
    try:
        for fmt, content in rendered.items():
            final = out_dir / f"{TRACE_STEM}.{fmt}"
            tmp = out_dir / f"{TRACE_STEM}.{fmt}.tmp"
            tmp.write_text(content, encoding="utf-8")
            tmp_paths.append(tmp)
            written.append(final)
        for tmp, final in zip(tmp_paths, written):
            os.replace(tmp, final)
    except OSError:
        for tmp in tmp_paths:
            tmp.unlink(missing_ok=True)
        raise
    return written


# --- sweeps -----------------------------------------------------------------

SWEEP_CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)


def _best_at(trace: Trace, evaluations: int) -> float:
    """Best of the first ``evaluations`` archive entries (in evaluation order), or -inf."""
    return max((c.score for c in trace.archive.entries[:evaluations]), default=-np.inf)


#: The config keys a sweep grid point may set.
SWEEP_KEYS = ("alpha", "beta", "gamma", "mutation_rate", "exploit_prob")


def check_sweep(base: RunConfig, grid: list[dict]) -> int:
    """:func:`sweep`'s checks, made before any run: ValueError unless ``grid``
    is a list of objects, or on a bad MIGRATE_WORKERS or any MIGRATE_THREADS
    (see there). Returns the worker count; unset or empty MIGRATE_WORKERS is 1."""
    if not isinstance(grid, list) or not all(isinstance(point, dict) for point in grid):
        raise ValueError("a sweep grid must be a list of objects of config keys")
    for point in grid:
        _check_keys(point, base.task, base.method, base.islands is not None, SWEEP_KEYS)
    if os.environ.get("MIGRATE_THREADS"):
        raise ValueError("MIGRATE_THREADS is no longer read; set MIGRATE_WORKERS "
                         "(the number of sweep worker processes) instead")
    value = os.environ.get("MIGRATE_WORKERS", "")
    if not value:
        return 1
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"MIGRATE_WORKERS must be an integer >= 1, got {value!r}")
    return int(value)


def sweep(base: RunConfig, grid: list[dict], seeds: list[int]) -> list[dict]:
    """Run every (grid point x seed) combination and aggregate best-so-far.

    A point's keys override ``base.flat()`` through ``default_config``, so a
    point may change the group size. A grid key outside ``SWEEP_KEYS``, with
    a value of the wrong kind, or for a part ``base`` does not have
    (``exploit_prob`` without islands) raises ValueError before any run.
    Invalid points (those ``default_config`` rejects, e.g. a mix with no new
    sample) are skipped with a logged reason.
    Each row carries mean/std of best-so-far at quarter-budget checkpoints
    plus the found rate. MIGRATE_WORKERS > 1 runs points in that many
    parallel processes; aggregation order is independent of scheduling. A
    MIGRATE_WORKERS that is set but not an integer >= 1, or a non-empty
    MIGRATE_THREADS (the old name), raises ValueError.
    """
    workers = check_sweep(base, grid)
    if not seeds:
        logger.warning("sweep called with no seeds; returning an empty table")
        return []
    keys = base.flat()
    configs: list[RunConfig] = []
    for point in grid:
        try:
            configs.append(default_config(**{**keys, **point}))
        except ValueError as exc:
            logger.warning("skipping sweep point %s: %s", point, exc)
    # Seed-major, so that build_task synthesizes each seed's words table once.
    jobs = [replace(config, seed=seed) for seed in seeds for config in configs]

    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_any, jobs))
    else:
        traces = [run_any(job) for job in jobs]

    rows: list[dict] = []
    for p_idx, config in enumerate(configs):
        group = traces[p_idx::len(configs)]
        point_keys = config.flat()
        row: dict = {name: point_keys.get(name) for name in SWEEP_KEYS}
        row["seeds"] = len(seeds)
        row["found_rate"] = float(np.mean([t.summary.found for t in group]))
        for frac in SWEEP_CHECKPOINTS:
            mark = int(round(frac * base.budget))
            values = np.asarray([_best_at(t, mark) for t in group])
            tag = f"best_at_{int(frac * 100)}"
            row[f"{tag}_mean"] = float(values.mean())
            row[f"{tag}_std"] = float(values.std())
        rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict], path: str | Path) -> None:
    columns = [*SWEEP_KEYS, "seeds", "found_rate"]
    for frac in SWEEP_CHECKPOINTS:
        tag = f"best_at_{int(frac * 100)}"
        columns += [f"{tag}_mean", f"{tag}_std"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


# --- bootstrapping from solved tasks ----------------------------------------

@dataclass(frozen=True)
class SolvedRun:
    """Artifacts of a solved run: its best program and saved policy weights."""

    name: str
    program_tokens: tuple[int, ...]
    params_path: str


def bootstrap_nearest(unsolved: GridTask, solved_runs: list[SolvedRun],
                      base: RunConfig) -> RunConfig:
    """Pick the donor whose best program scores highest on the unsolved
    task's training inputs and start from its saved weights.

    Ties go to the earliest donor; if no donor program parses, the returned
    config keeps a zero initialization (with a logged warning).
    """
    if not solved_runs:
        raise ValueError("need at least one solved run")
    best_idx, best_score = None, -np.inf
    for i, run in enumerate(solved_runs):
        program = parse_program(run.program_tokens)
        if program is None:
            logger.warning("donor %s has an unparseable program; skipping", run.name)
            continue
        score = eval_program(unsolved, program, "train")
        if score > best_score:
            best_idx, best_score = i, score
    if best_idx is None:
        logger.warning("no donor program parseable; falling back to zero-initialized params")
        return replace(base, bootstrap_params=None)
    return replace(base, bootstrap_params=solved_runs[best_idx].params_path)


def save_run_artifacts(trace: Trace, out_dir: str | Path) -> None:
    """Persist config, best completion, and (for TTT runs) final weights."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(trace.config.to_json() + "\n", encoding="utf-8")
    best = trace.archive.best
    record = {"text": "" if best is None else best.text,
              "score": None if best is None else best.score,
              "tokens": [] if best is None else list(best.tokens),
              "found": trace.summary.found}
    (out_dir / "best.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if trace.config.update is not None:
        (out_dir / "params.mgp").write_bytes(save_params(trace.final_params))
    trace.archive.dump_jsonl(out_dir / "archive.jsonl")
