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

_COLOR_BASE = len(OP_TOKENS)
_OFFSET_BASE = _COLOR_BASE + len(COLOR_TOKENS)


@dataclass(frozen=True)
class DslProgram:
    """Parsed op sequence; args are already decoded to ints."""

    ops: tuple[tuple[str, tuple[int, ...]], ...]

    def tokens(self) -> tuple[int, ...]:
        out: list[int] = []
        for name, args in self.ops:
            out.append(OP_TOKENS.index(name))
            for kind, arg in zip(OPS[name], args):
                if kind == "color":
                    out.append(_COLOR_BASE + arg)
                else:
                    out.append(_OFFSET_BASE + OFFSETS.index(arg))
        return tuple(out)


def parse_program(tokens: tuple[int, ...]) -> DslProgram | None:
    """Decode tokens into a program; None when the sequence is malformed.

    The token stream is read up to the first terminator; an op token must be
    followed by exactly its argument tokens of the right kind, and an empty
    program is invalid.
    """
    stream: list[int] = []
    for t in tokens:
        if t == GRID_VOCAB.end_token:
            break
        stream.append(t)
    if not stream:
        return None
    ops: list[tuple[str, tuple[int, ...]]] = []
    i = 0
    while i < len(stream):
        t = stream[i]
        if t >= len(OP_TOKENS):
            return None
        name = OP_TOKENS[t]
        i += 1
        args: list[int] = []
        for kind in OPS[name]:
            if i >= len(stream):
                return None
            a = stream[i]
            if kind == "color":
                if not _COLOR_BASE <= a < _OFFSET_BASE:
                    return None
                args.append(a - _COLOR_BASE)
            else:
                if not _OFFSET_BASE <= a < GRID_VOCAB.end_token:
                    return None
                args.append(OFFSETS[a - _OFFSET_BASE])
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

    def __post_init__(self) -> None:
        if self.dsl_step_limit <= 0:
            raise ValueError("dsl_step_limit must be positive")
        for grids in (self.train_pairs, self.test_pairs):
            for inp, outp in grids:
                for g in (inp, outp):
                    if g.ndim != 2 or g.min() < 0 or g.max() >= COLORS:
                        raise ValueError("grids must be 2D with cell values 0-9")

    def decode(self, tokens: tuple[int, ...]) -> str:
        return " ".join(map(self.vocab.tokens.__getitem__, self.strip_end(tokens)))

    def warmstart(self, rng: np.random.Generator) -> list[Completion]:
        # A single identity-program seed keeps the archive non-empty from
        # iteration one without injecting outside knowledge.
        program = DslProgram((("identity", ()),))
        tokens = program.tokens()
        return [Completion(tokens=tokens, provenance=WARMSTART, born_iteration=0,
                           text="identity", score=eval_program(self, program, "train"))]

    def score_new(self, completions: list[Completion], born_iteration: int) -> list[Completion]:
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


def test_outputs(task: GridTask, program: DslProgram | None) -> list[np.ndarray | None]:
    if program is None:
        return [None for _ in task.test_pairs]
    return [run_program(program, inp, task.dsl_step_limit) for inp, _ in task.test_pairs]


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
        key = _grid_key(test_outputs(task, program))
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


def _as_grid(rows: list[list[int]]) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64)


def grid_task_from_dict(data: dict, dsl_step_limit: int = DSL_STEP_LIMIT) -> GridTask:
    train = [(_as_grid(p["input"]), _as_grid(p["output"])) for p in data["train"]]
    test = [(_as_grid(p["input"]), _as_grid(p["output"])) for p in data["test"]]
    return GridTask(train, test, dsl_step_limit=dsl_step_limit)


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
                if kind == "color":
                    args.append(int(rng.integers(0, COLORS)))
                else:
                    args.append(int(OFFSETS[int(rng.integers(0, len(OFFSETS)))]))
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
