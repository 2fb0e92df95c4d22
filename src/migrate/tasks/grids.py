"""Grid-transformation task: programs in a mini-DSL scored by cell overlap.

A completion decodes to a short program over grid operations (recolor,
translate, flips, rotation, border fill, identity). The reward runs the
program on each training input and averages the fraction of ground-truth
cells matched; unparseable programs, outputs larger than the ground truth,
and interpreter-budget overruns all score 0. Task files use the standard
{"train": [...], "test": [...]} grid-pairs JSON layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..completion import WARMSTART, Completion
from ..policy import Vocabulary
from .base import SearchTask

COLORS = 10
OFFSETS = (-2, -1, 0, 1, 2)
DSL_STEP_LIMIT = 10_000  # default interpreter budget, in cell steps
# synthesize_grid_task: train and test pairs, side range, most hidden-program ops
SYNTH_TRAIN, SYNTH_TEST, SYNTH_MIN_SIDE, SYNTH_MAX_SIDE, SYNTH_PROGRAM_OPS = 3, 1, 3, 8, 3

# op name -> argument kinds ("color" or "offset")
OPS: dict[str, tuple[str, ...]] = {
    "identity": (),
    "flip_h": (),
    "flip_v": (),
    "rot90": (),
    "recolor": ("color", "color"),
    "translate": ("offset", "offset"),
    "fill_border": ("color",),
}

OP_TOKENS = tuple(OPS)
COLOR_TOKENS = tuple(f"c{i}" for i in range(COLORS))
OFFSET_TOKENS = tuple(f"d{o}" for o in OFFSETS)
END = "</s>"

GRID_VOCAB = Vocabulary(OP_TOKENS + COLOR_TOKENS + OFFSET_TOKENS + (END,),
                        end_token=len(OP_TOKENS) + len(COLOR_TOKENS) + len(OFFSET_TOKENS))

# argument kind -> (its first token, its values in token order)
ARGS = {"color": (len(OP_TOKENS), tuple(range(COLORS))),
        "offset": (len(OP_TOKENS) + COLORS, OFFSETS)}


@dataclass(frozen=True)
class DslProgram:
    """Parsed op sequence; args are already decoded to ints."""

    ops: tuple[tuple[str, tuple[int, ...]], ...]

    def tokens(self) -> tuple[int, ...]:
        out: list[int] = []
        for name, args in self.ops:
            out.append(OP_TOKENS.index(name))
            for kind, arg in zip(OPS[name], args):
                first, values = ARGS[kind]
                out.append(first + values.index(arg))
        return tuple(out)


def parse_program(tokens: tuple[int, ...]) -> DslProgram | None:
    """Decode tokens into a program; None when the sequence is malformed.

    The token stream is read up to the first terminator; an op token must be
    followed by exactly its argument tokens of the right kind, and an empty
    program is invalid.
    """
    end = GRID_VOCAB.end_token
    stream = tokens[:tokens.index(end)] if end in tokens else tokens
    if not stream:
        return None
    ops: list[tuple[str, tuple[int, ...]]] = []
    i = 0
    while i < len(stream):
        t = stream[i]
        if not 0 <= t < len(OP_TOKENS):
            return None
        name = OP_TOKENS[t]
        i += 1
        args: list[int] = []
        for kind in OPS[name]:
            if i >= len(stream):
                return None
            first, values = ARGS[kind]
            if not first <= stream[i] < first + len(values):
                return None
            args.append(values[stream[i] - first])
            i += 1
        ops.append((name, tuple(args)))
    return DslProgram(tuple(ops))


def run_program(program: DslProgram, grid: np.ndarray, step_limit: int) -> np.ndarray | None:
    """Apply ops left to right; each op costs one interpreter step per cell.

    Returns None when the step budget is exceeded (the timeout analog).
    """
    out = np.asarray(grid, dtype=np.int64)
    steps = 0
    for name, args in program.ops:
        steps += out.size
        if steps > step_limit:
            return None
        if name == "identity":
            continue
        if name == "flip_h":
            out = out[:, ::-1]
        elif name == "flip_v":
            out = out[::-1, :]
        elif name == "rot90":
            out = np.rot90(out, k=-1)
        elif name == "recolor":
            a, b = args
            out = np.where(out == a, b, out)
        elif name == "translate":
            dx, dy = args
            shifted = np.zeros_like(out)
            h, w = out.shape
            src_r = slice(max(0, -dy), min(h, h - dy))
            dst_r = slice(max(0, dy), min(h, h + dy))
            src_c = slice(max(0, -dx), min(w, w - dx))
            dst_c = slice(max(0, dx), min(w, w + dx))
            shifted[dst_r, dst_c] = out[src_r, src_c]
            out = shifted
        elif name == "fill_border":
            out = out.copy()
            out[0, :] = out[-1, :] = args[0]
            out[:, 0] = out[:, -1] = args[0]
    return np.ascontiguousarray(out)


@dataclass
class GridTask(SearchTask):
    """Programs scored on the training pairs. A distinct program is scored
    once: ``score_new`` keeps each token stream up to the end token (all
    that :func:`parse_program` reads) with its text and score."""

    train_pairs: list[tuple[np.ndarray, np.ndarray]]
    test_pairs: list[tuple[np.ndarray, np.ndarray]]
    dsl_step_limit: int = DSL_STEP_LIMIT
    _scored: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    vocab = GRID_VOCAB
    max_len = 12
    joiner = " "

    def __post_init__(self) -> None:
        if self.dsl_step_limit <= 0:
            raise ValueError("dsl_step_limit must be positive")
        if not self.train_pairs or not self.test_pairs:
            raise ValueError("a grid task needs at least one train pair and one test pair")
        for grids in (self.train_pairs, self.test_pairs):
            for inp, outp in grids:
                for g in (inp, outp):
                    if g.ndim != 2 or g.size == 0 or g.min() < 0 or g.max() >= COLORS:
                        raise ValueError("grids must be non-empty and 2D with cell values 0-9")

    def warmstart(self, rng: np.random.Generator) -> list[Completion]:
        # A single identity-program seed keeps the archive non-empty from
        # iteration one without injecting outside knowledge.
        program = DslProgram((("identity", ()),))
        tokens = program.tokens()
        return [Completion(tokens=tokens, provenance=WARMSTART, born_iteration=0,
                           text="identity", score=eval_program(self, program, "train"))]

    def score_new(self, completions: list[Completion]) -> list[Completion]:
        for c in completions:
            stream = self.strip_end(c.tokens)
            if stream not in self._scored:
                program = parse_program(stream)
                self._scored[stream] = (self.decode(stream), 0.0 if program is None
                                        else eval_program(self, program, "train"))
            c.text, score = self._scored[stream]
            c.set_score(score)
        return completions


def pair_score(output: np.ndarray | None, truth: np.ndarray) -> float:
    """Matched-cell fraction; 0 for failed runs or oversize outputs.

    Cells of the ground truth not covered by a smaller output count as
    mismatches.
    """
    if output is None:
        return 0.0
    if output.shape[0] > truth.shape[0] or output.shape[1] > truth.shape[1]:
        return 0.0
    h, w = output.shape
    matches = int(np.count_nonzero(output == truth[:h, :w]))
    return matches / truth.size


def eval_program(task: GridTask, program: DslProgram | None, split: str = "train") -> float:
    """Mean per-pair matched-cell fraction over the chosen split."""
    if program is None:
        return 0.0
    pairs = task.train_pairs if split == "train" else task.test_pairs
    total = 0.0
    for inp, truth in pairs:
        total += pair_score(run_program(program, inp, task.dsl_step_limit), truth)
    return total / len(pairs)


@dataclass(frozen=True)
class GridMetrics:
    pass_at_2: bool
    oracle: bool


def _grid_key(grids: list[np.ndarray | None]) -> tuple | None:
    if any(g is None for g in grids):
        return None
    return tuple((g.shape, g.tobytes()) for g in grids)


def compute_metrics(completions: list[Completion], task: GridTask) -> GridMetrics:
    """pass@2 and oracle over a run's evaluated programs.

    pass@2 holds when the ground-truth test output is among the two most
    frequent test outputs of programs that fully solve the training split
    (frequency ties broken by earliest occurrence). oracle holds when any
    program reproduces the test output exactly.
    """
    truth_key = _grid_key([outp for _, outp in task.test_pairs])
    counts: dict[tuple, int] = {}
    first_seen: dict[tuple, int] = {}
    oracle = False
    for i, c in enumerate(completions):
        program = parse_program(c.tokens)
        if program is None:
            continue
        key = _grid_key([run_program(program, inp, task.dsl_step_limit)
                         for inp, _ in task.test_pairs])
        if key is None:
            continue
        if key == truth_key:
            oracle = True
        if c.score == 1.0:
            counts[key] = counts.get(key, 0) + 1
            if key not in first_seen:
                first_seen[key] = i
    top2 = sorted(counts, key=lambda key: (-counts[key], first_seen[key]))[:2]
    return GridMetrics(pass_at_2=truth_key in top2, oracle=oracle)


def grid_task_from_dict(data: dict, dsl_step_limit: int = DSL_STEP_LIMIT) -> GridTask:
    """The task of a {"train": [...], "test": [...]} object whose lists hold
    {"input": grid, "output": grid} pairs of grids of colors (integers below
    COLORS); ValueError names what is missing, or the grid with another cell."""
    if not isinstance(data, dict):
        raise ValueError(f"a grid task must be a JSON object, not a {type(data).__name__}")
    splits = []
    for split in ("train", "test"):
        if not isinstance(data.get(split), list):
            raise ValueError(f"a grid task needs a {split!r} list of pairs")
        pairs = []
        for i, pair in enumerate(data[split]):
            grids = []
            for key in ("input", "output"):
                if not isinstance(pair, dict) or key not in pair:
                    raise ValueError(f"grid task {split} pair {i} has no {key!r} grid")
                grid = np.asarray(pair[key], dtype=object)
                cells = [c for c in grid.flat if type(c) is not int or not 0 <= c < COLORS]
                if cells:
                    raise ValueError(f"grid task {split} pair {i} {key!r} grid has a cell that "
                                     f"is not an integer 0-{COLORS - 1}: {cells[0]!r}")
                grids.append(grid.astype(np.int64))
            pairs.append(tuple(grids))
        splits.append(pairs)
    return GridTask(*splits, dsl_step_limit=dsl_step_limit)


def load_grid_task(path: str | Path, dsl_step_limit: int = DSL_STEP_LIMIT) -> GridTask:
    """Load a {"train": [...], "test": [...]} grid-pairs JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return grid_task_from_dict(json.load(fh), dsl_step_limit=dsl_step_limit)


def synthesize_grid_task(rng: np.random.Generator,
                         dsl_step_limit: int = DSL_STEP_LIMIT) -> GridTask:
    """Random solvable task: apply a random hidden program to random inputs
    (sizes from the SYNTH_ constants).

    Uses the first of up to 20 hidden programs that runs within
    ``dsl_step_limit`` on every input and changes a training input; raises
    ValueError when none does."""
    for _ in range(20):
        ops: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(int(rng.integers(1, SYNTH_PROGRAM_OPS + 1))):
            name = OP_TOKENS[int(rng.integers(0, len(OP_TOKENS)))]
            args: list[int] = []
            for kind in OPS[name]:
                values = ARGS[kind][1]
                args.append(values[int(rng.integers(0, len(values)))])
            ops.append((name, tuple(args)))
        program = DslProgram(tuple(ops))
        pairs = []
        for _ in range(SYNTH_TRAIN + SYNTH_TEST):
            h = int(rng.integers(SYNTH_MIN_SIDE, SYNTH_MAX_SIDE + 1))
            w = int(rng.integers(SYNTH_MIN_SIDE, SYNTH_MAX_SIDE + 1))
            grid = np.where(rng.random((h, w)) < 0.5, 0,
                            rng.integers(1, COLORS, size=(h, w))).astype(np.int64)
            pairs.append((grid, run_program(program, grid, dsl_step_limit)))
        if any(out is None for _, out in pairs):
            continue
        if any(inp.shape != out.shape or np.any(inp != out) for inp, out in pairs[:SYNTH_TRAIN]):
            return GridTask(pairs[:SYNTH_TRAIN], pairs[SYNTH_TRAIN:], dsl_step_limit=dsl_step_limit)
    raise ValueError(f"none of 20 hidden programs ran within dsl_step_limit="
                     f"{dsl_step_limit} on every input and changed a training input")
