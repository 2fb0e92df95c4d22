"""The contract every task keeps: ``score_new(completions)`` scores each
input once, in order, and ``decode`` is the one shared decoder."""

import numpy as np
import pytest

from migrate.completion import NS, ONLINE, OPRO, Completion
from migrate.tasks import (SearchTask, TwoObjectiveTask, WordSearchTask,
                           synthesize_embedding_table, synthesize_grid_task)


def words_task():
    table = synthesize_embedding_table(np.random.default_rng(0), vocab_size=80, dim=8,
                                       clusters=4)
    return WordSearchTask(table, table.words[5], warmstart_count=5)


TASKS = {"words": words_task,
         "molecules": lambda: TwoObjectiveTask(np.random.default_rng(1)),
         "grids": lambda: synthesize_grid_task(np.random.default_rng(2))}


def inputs(task, rng):
    """Runs of one, three and two provenances (ONLINE again after NS), each
    input with its own born_iteration, some of them table words."""
    runs = [(ONLINE, 1), (NS, 3), (ONLINE, 2), (OPRO, 1), (NS, 2)]
    out = []
    for provenance, length in runs:
        for _ in range(length):
            n = int(rng.integers(0, task.max_len + 1))
            tokens = tuple(int(t) for t in rng.integers(0, task.vocab.size, n))
            if isinstance(task, WordSearchTask) and rng.random() < 0.5:
                tokens = task.encode_words([task.table.words[int(rng.integers(0, 80))]])
            out.append(Completion(tokens, provenance, born_iteration=int(rng.integers(1, 9))))
    return out


@pytest.mark.parametrize("name", TASKS)
def test_score_new_scores_each_input_once_in_order(name):
    task = TASKS[name]()
    rng = np.random.default_rng(7)
    for _ in range(5):
        batch = inputs(task, rng)
        out = task.score_new(batch)
        assert len(out) == len(batch)
        assert [c.provenance for c in out] == [c.provenance for c in batch]
        assert [c.born_iteration for c in out] == [c.born_iteration for c in batch]
        assert all(isinstance(c.score, float) for c in out)
        assert all(c.text == task.decode(c.tokens) for c in out)


@pytest.mark.parametrize("name", TASKS)
def test_decode_is_shared(name):
    task = TASKS[name]()
    assert type(task).decode is SearchTask.decode
    tokens = tuple(range(task.vocab.size))
    end = task.vocab.end_token
    assert task.decode(tokens) == task.joiner.join(task.vocab.tokens[:end])
