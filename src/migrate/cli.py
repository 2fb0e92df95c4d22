"""Command-line front door: run / sweep / bootstrap."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from .harness import (CONFIG_KEYS, TRACE_FORMATS, RunConfig, SolvedRun,
                      bootstrap_nearest, build_task, check_sweep, check_trace_formats,
                      default_config, emit_trace, initial_params, save_run_artifacts, search,
                      sweep, sweep_to_csv)
from .policy import PolicyIOError, PolicyParams
from .tasks import SearchTask, compute_metrics, load_grid_task


# A flag's argparse settings, by its key's kind (null aside); islands is a bare switch.
_FLAG_KINDS = {"an integer": {"type": int}, "a number": {"type": float}, "a string": {"type": str},
               "true or false": {"action": "store_true", "default": None}}
# Second spellings of three flags, which older commands use.
_ALIASES = {"top_k": ("--topk",), "learning_rate": ("--lr",), "warmstart_count": ("--warmstart",)}
_KEY_DEFAULTS = "--task, --method and --seed default to words, migrate and 0."


def _add_key_flags(parser: argparse.ArgumentParser, keys) -> None:
    """Add ``--<key with - for _>`` for each flat key in ``keys``, set by its
    kind. No argparse defaults: only flags the user passed are set."""
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", *_ALIASES.get(key, ()), dest=key,
                            **_FLAG_KINDS[CONFIG_KEYS[key][1].removesuffix(" or null")])


def _add_run_overrides(parser: argparse.ArgumentParser) -> None:
    # task_options, an object, is set only through --config.
    _add_key_flags(parser, [key for key in CONFIG_KEYS if key != "task_options"])
    parser.add_argument("--config", help="JSON file of flat config keys; flags override it and "
                        "the task's defaults fill the keys neither sets")


def _exit_2(args: argparse.Namespace, err: Exception | str) -> NoReturn:
    """End a command whose settings are invalid, before any search runs."""
    print(f"migrate {args.command}: error: {err}", file=sys.stderr)
    raise SystemExit(2) from None


def _search_from_args(args: argparse.Namespace) -> tuple[RunConfig, SearchTask, PolicyParams]:
    """The config (flags passed, over the ``--config`` file's keys, over the
    task's defaults) with the task and first params a search of it starts
    from; a config, task or ``bootstrap_params`` file they do not build or
    load (a missing file or a value of the wrong type included) exits with
    code 2."""
    overrides = {name: value for name, value in vars(args).items()
                 if name in CONFIG_KEYS and value is not None}
    try:
        if args.config:
            keys = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(keys, dict):
                raise ValueError(f"--config must hold a JSON object, not a {type(keys).__name__}")
            overrides = {**keys, **overrides}
        config = default_config(overrides.pop("task", "words"),
                                overrides.pop("method", "migrate"), **overrides)
        # The task constructor checks its option values and reads a task_file.
        task = build_task(config)
        return config, task, initial_params(config, task)
    except PolicyIOError as err:
        _exit_2(args, f"bootstrap_params {config.bootstrap_params}: {err}")
    except (ValueError, TypeError, OSError) as err:
        _exit_2(args, err)


def _out_path(args: argparse.Namespace, path: Path, is_dir: bool) -> Path:
    """Make ``--out`` ``path`` (a directory when ``is_dir``, else a file's
    directory) before any work; exit 2 when it cannot take the output."""
    try:
        if not is_dir and path.is_dir():
            raise IsADirectoryError("is a directory")
        (path if is_dir else path.parent).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        _exit_2(args, f"--out {path}: {err}")
    return path


def _trace_formats(text: str) -> tuple[str, ...]:
    """``--formats``: a comma list of trace formats, checked before any search runs."""
    formats = tuple(text.split(","))
    try:
        check_trace_formats(formats)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return formats


def _cmd_run(args: argparse.Namespace) -> int:
    config, task, params = _search_from_args(args)
    out = _out_path(args, Path(args.out), is_dir=True) if args.out else None
    trace = search(config, task, params)
    if out:
        emit_trace(trace, args.formats, out)
        save_run_artifacts(trace, out)
    s = trace.summary
    print(f"method={config.method} task={config.task} seed={config.seed}")
    print(f"found={s.found} best_score={s.best_score:.6f} best={s.best_text!r}")
    print(f"evaluations={s.total_evaluations} iterations={s.iterations} "
          f"wall_time={s.wall_time:.2f}s status={s.status}")
    if config.task == "grids":
        metrics = compute_metrics(trace.archive.entries, task)
        print(f"pass_at_2={metrics.pass_at_2} oracle={metrics.oracle}")
    return 0 if s.status == "ok" else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _search_from_args(args)[0]
    try:
        grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not seeds:
            raise ValueError("--seeds must list at least one seed")
        for seed in seeds:
            replace(base, seed=seed)  # RunConfig checks each seed
        check_sweep(base, grid)
    except (ValueError, OSError) as err:
        _exit_2(args, err)
    out = Path(args.out or "sweep.csv")
    out = _out_path(args, out / "sweep.csv" if out.is_dir() else out, is_dir=False)
    rows = sweep(base, grid, seeds)
    sweep_to_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    solved_dir = Path(args.solved_dir)
    try:
        base = default_config("grids", args.method or "migrate", seed=args.seed or 0,
                              task_file=args.task)
        unsolved = load_grid_task(args.task)
        subdirs = sorted(p for p in solved_dir.iterdir() if p.is_dir())
    except (ValueError, TypeError, OSError) as err:
        _exit_2(args, err)
    out = _out_path(args, Path(args.out), is_dir=False) if args.out else None
    runs = []
    for sub in subdirs:
        best_file = sub / "best.json"
        params_file = sub / "params.mgp"
        if not (best_file.exists() and params_file.exists()):
            continue
        try:
            best = json.loads(best_file.read_text(encoding="utf-8"))
            tokens = best.get("tokens", []) if isinstance(best, dict) else None
            if not isinstance(tokens, list) or not all(type(t) is int for t in tokens):
                raise ValueError("must hold an object whose 'tokens' is a list of integers")
        except (ValueError, OSError) as err:
            _exit_2(args, f"{best_file}: {err}")
        runs.append(SolvedRun(name=sub.name, program_tokens=tuple(tokens),
                              params_path=str(params_file)))
    if not runs:
        print("no solved runs found under", solved_dir, file=sys.stderr)
        return 1
    config = bootstrap_nearest(unsolved, runs, base)
    text = config.to_json()
    if out:
        out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote bootstrap config to {out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="migrate",
                                     description="Mixed-policy GRPO test-time search")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one search", description=_KEY_DEFAULTS)
    _add_run_overrides(run_p)
    run_p.add_argument("--out", help="directory for trace files and run artifacts")
    run_p.add_argument("--formats", type=_trace_formats, default=",".join(TRACE_FORMATS),
                       help=f"comma-separated trace formats, from {', '.join(TRACE_FORMATS)}")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="grid of mix parameters x seeds",
                             description=_KEY_DEFAULTS)
    _add_run_overrides(sweep_p)
    sweep_p.add_argument("--grid", required=True, help="JSON list of override points")
    sweep_p.add_argument("--seeds", required=True, help="comma-separated seed list")
    sweep_p.add_argument("--out", help="output CSV path or directory")
    sweep_p.set_defaults(func=_cmd_sweep)

    boot_p = sub.add_parser("bootstrap", help="pick nearest solved donor for a grid task",
                            description="--method and --seed default to migrate and 0.")
    boot_p.add_argument("--solved-dir", required=True,
                        help="directory of run artifact dirs (best.json + params.mgp)")
    boot_p.add_argument("--task", required=True, help="grid task JSON file")
    _add_key_flags(boot_p, ("method", "seed"))
    boot_p.add_argument("--out", help="where to write the resulting config JSON")
    boot_p.set_defaults(func=_cmd_bootstrap)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
