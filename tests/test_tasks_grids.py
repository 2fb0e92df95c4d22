import itertools
import json

import numpy as np
import pytest

from migrate.completion import ONLINE, Completion
from migrate.tasks import (DslProgram, GridTask, compute_metrics, eval_program,
                           grid_task_from_dict, load_grid_task, parse_program, run_program,
                           synthesize_grid_task)
from migrate.tasks.grids import GRID_VOCAB, OFFSETS, OP_TOKENS, OPS, pair_score

END = GRID_VOCAB.end_token
COLOR0 = len(OP_TOKENS)
OFFSET0 = COLOR0 + 10


def op(name):
    return OP_TOKENS.index(name)


def color(c):
    return COLOR0 + c


def offset(d):
    return OFFSET0 + OFFSETS.index(d)


def simple_task(train, test, step_limit=10_000):
    return GridTask([(np.asarray(i), np.asarray(o)) for i, o in train],
                    [(np.asarray(i), np.asarray(o)) for i, o in test],
                    dsl_step_limit=step_limit)


@pytest.fixture()
def identity_task():
    g = [[1, 2], [3, 4]]
    return simple_task([(g, g)], [(g, g)])


class TestParse:
    def test_simple_ops(self):
        program = parse_program((op("flip_h"), op("identity"), END))
        assert program.ops == (("flip_h", ()), ("identity", ()))

    def test_arguments_decoded(self):
        program = parse_program((op("recolor"), color(1), color(5),
                                 op("translate"), offset(-2), offset(1)))
        assert program.ops == (("recolor", (1, 5)), ("translate", (-2, 1)))

    def test_round_trips_through_tokens(self):
        program = DslProgram((("recolor", (3, 0)), ("fill_border", (7,)), ("rot90", ())))
        assert parse_program(program.tokens()) == program

    @pytest.mark.parametrize("tokens", [
        (),
        (END,),
        (color(3),),                        # argument with no op
        (op("recolor"), color(1)),          # missing second argument
        (op("recolor"), color(1), offset(0)),  # wrong argument kind
        (op("translate"), offset(0), color(1)),
        (op("fill_border"),),
        (-1, color(0)),                     # negative op token
        (op("identity"), -len(OP_TOKENS)),
    ])
    def test_malformed(self, tokens):
        assert parse_program(tokens) is None

    @pytest.mark.parametrize("name", OP_TOKENS)
    def test_every_argument_value_round_trips(self, name):
        # Argument values and their tokens read off the vocabulary's names.
        values = {"color": {f"c{v}": v for v in range(10)},
                  "offset": {f"d{o}": o for o in OFFSETS}}
        kinds = OPS[name]
        for names in itertools.product(*(values[kind] for kind in kinds)):
            args = tuple(values[kind][n] for kind, n in zip(kinds, names))
            program = DslProgram(((name, args),))
            tokens = tuple(GRID_VOCAB.tokens.index(t) for t in (name, *names))
            assert program.tokens() == tokens
            assert parse_program(tokens) == program
            assert parse_program(tokens + (END, 0)) == program

    @pytest.mark.parametrize("name", [n for n in OP_TOKENS if OPS[n]])
    def test_every_argument_slot_rejects_other_kinds(self, name):
        prefix = {"color": "c", "offset": "d"}
        kinds = OPS[name]
        valid = [GRID_VOCAB.tokens.index(f"{prefix[kind]}0") for kind in kinds]
        for slot, kind in enumerate(kinds):
            others = [t for t, text in enumerate(GRID_VOCAB.tokens)
                      if not text.startswith(prefix[kind])]
            assert len(others) == GRID_VOCAB.size - (10 if kind == "color" else len(OFFSETS))
            for t in others:
                tokens = [op(name), *valid]
                tokens[1 + slot] = t
                assert parse_program(tuple(tokens)) is None, (name, slot, GRID_VOCAB.tokens[t])


class TestInterpreter:
    def test_flip_h(self):
        out = run_program(DslProgram((("flip_h", ()),)), np.array([[1, 2], [3, 4]]), 100)
        assert np.array_equal(out, [[2, 1], [4, 3]])

    def test_flip_v(self):
        out = run_program(DslProgram((("flip_v", ()),)), np.array([[1, 2], [3, 4]]), 100)
        assert np.array_equal(out, [[3, 4], [1, 2]])

    def test_rot90_clockwise(self):
        out = run_program(DslProgram((("rot90", ()),)), np.array([[1, 2], [3, 4]]), 100)
        assert np.array_equal(out, [[3, 1], [4, 2]])

    def test_recolor(self):
        out = run_program(DslProgram((("recolor", (1, 9)),)), np.array([[1, 2], [1, 4]]), 100)
        assert np.array_equal(out, [[9, 2], [9, 4]])

    def test_translate(self):
        grid = np.array([[1, 2], [3, 4]])
        out = run_program(DslProgram((("translate", (1, 0)),)), grid, 100)
        assert np.array_equal(out, [[0, 1], [0, 3]])
        out = run_program(DslProgram((("translate", (0, -1)),)), grid, 100)
        assert np.array_equal(out, [[3, 4], [0, 0]])

    def test_fill_border(self):
        grid = np.zeros((3, 3), dtype=np.int64)
        out = run_program(DslProgram((("fill_border", (5,)),)), grid, 100)
        assert np.array_equal(out, [[5, 5, 5], [5, 0, 5], [5, 5, 5]])

    def test_step_limit_returns_none(self):
        grid = np.zeros((4, 4), dtype=np.int64)
        program = DslProgram((("identity", ()),) * 3)  # 48 steps
        assert run_program(program, grid, 47) is None
        assert run_program(program, grid, 48) is not None


class TestEvalProgram:
    def test_identity_on_identity_pair(self, identity_task):
        assert eval_program(identity_task, DslProgram((("identity", ()),))) == 1.0

    def test_step_limit_scores_zero(self):
        g = [[1, 2], [3, 4]]
        task = simple_task([(g, g)], [(g, g)], step_limit=3)
        assert eval_program(task, DslProgram((("identity", ()),))) == 0.0

    def test_unparseable_scores_zero(self, identity_task):
        assert eval_program(identity_task, None) == 0.0

    def test_oversize_scores_zero(self):
        inp = np.zeros((3, 2), dtype=np.int64)
        truth = np.zeros((2, 3), dtype=np.int64)
        task = GridTask([(inp, truth)], [(inp, truth)])
        # rot90 gives a 2x3 output matching truth; identity gives 3x2 (taller)
        assert eval_program(task, DslProgram((("rot90", ()),))) == 1.0
        assert eval_program(task, DslProgram((("identity", ()),))) == 0.0

    def test_matches_brute_force_hamming(self):
        # Oracle: cell-by-cell comparison against the ground truth.
        rng = np.random.default_rng(0)
        for _ in range(300):
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            grid = rng.integers(0, 10, size=(h, w)).astype(np.int64)
            name = OP_TOKENS[int(rng.integers(0, len(OP_TOKENS)))]
            args = []
            for kind in __import__("migrate.tasks.grids", fromlist=["OPS"]).OPS[name]:
                args.append(int(rng.integers(0, 10)) if kind == "color"
                            else int(OFFSETS[int(rng.integers(0, len(OFFSETS)))]))
            program = DslProgram(((name, tuple(args)),))
            truth = rng.integers(0, 10, size=(h, w)).astype(np.int64)
            task = GridTask([(grid, truth)], [(grid, truth)])
            got = eval_program(task, program)
            out = run_program(program, grid, task.dsl_step_limit)
            if out.shape[0] > h or out.shape[1] > w:
                expected = 0.0
            else:
                matches = sum(out[r, c] == truth[r, c]
                              for r in range(out.shape[0]) for c in range(out.shape[1]))
                expected = matches / truth.size
            assert got == pytest.approx(expected, abs=1e-15)

    def test_label_equivariance_of_colorless_ops(self):
        # Permuting colors consistently in the grids leaves scores of
        # translate/flip/rotate programs unchanged (recolor excluded).
        rng = np.random.default_rng(1)
        perm = rng.permutation(10)
        for _ in range(100):
            h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            grid = rng.integers(0, 10, size=(h, w)).astype(np.int64)
            truth = rng.integers(0, 10, size=(h, w)).astype(np.int64)
            name = ("translate", "flip_h", "flip_v", "rot90", "identity")[int(rng.integers(0, 5))]
            args = (int(OFFSETS[int(rng.integers(0, 5))]),
                    int(OFFSETS[int(rng.integers(0, 5))])) if name == "translate" else ()
            program = DslProgram(((name, args),))
            base = eval_program(task := GridTask([(grid, truth)], [(grid, truth)]), program)
            relabeled = eval_program(
                GridTask([(perm[grid], perm[truth])], [(perm[grid], perm[truth])]), program)
            if name == "translate" and (args[0] or args[1]):
                # translation introduces background zeros; only a
                # zero-fixing permutation is safe there
                if perm[0] != 0:
                    continue
            assert base == relabeled


class TestMetrics:
    def make_completion(self, program, score, born=1):
        return Completion(tokens=program.tokens(), provenance=ONLINE,
                          born_iteration=born, text="p", score=score)

    def test_definitional_split(self):
        # No program solves train, but one still solves test: oracle true,
        # pass@2 false.
        inp = np.array([[1, 1], [1, 1]])
        train_out = np.array([[2, 2], [2, 2]])
        test_out = np.array([[1, 1], [1, 1]])
        task = GridTask([(inp, train_out)], [(inp, test_out)])
        identity = DslProgram((("identity", ()),))
        comp = self.make_completion(identity, eval_program(task, identity))
        assert comp.score < 1.0
        metrics = compute_metrics([comp], task)
        assert metrics.oracle is True
        assert metrics.pass_at_2 is False

    def test_top2_membership(self):
        # Train-solving programs emit outputs {A, A, B}; truth B is in the
        # top-2 despite being less frequent. The symmetric train grid lets
        # the flip program solve train while diverging on the test input.
        train_in = np.array([[1, 1], [2, 2]])
        test_in = np.array([[1, 2], [3, 4]])
        truth_test = np.array([[2, 1], [4, 3]])  # flip_h
        task = GridTask([(train_in, train_in)], [(test_in, truth_test)])
        ident = DslProgram((("identity", ()),))
        double_flip = DslProgram((("flip_h", ()), ("flip_h", ())))
        flip = DslProgram((("flip_h", ()),))
        comps = [self.make_completion(p, eval_program(task, p))
                 for p in (ident, double_flip, flip)]
        assert all(c.score == 1.0 for c in comps)
        metrics = compute_metrics(comps, task)
        assert metrics.pass_at_2 is True
        assert metrics.oracle is True

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            task = synthesize_grid_task(rng)
            comps = []
            for _ in range(int(rng.integers(1, 12))):
                n_ops = int(rng.integers(1, 3))
                ops = []
                for _ in range(n_ops):
                    name = OP_TOKENS[int(rng.integers(0, len(OP_TOKENS)))]
                    args = []
                    for kind in __import__("migrate.tasks.grids", fromlist=["OPS"]).OPS[name]:
                        args.append(int(rng.integers(0, 10)) if kind == "color"
                                    else int(OFFSETS[int(rng.integers(0, len(OFFSETS)))]))
                    ops.append((name, tuple(args)))
                program = DslProgram(tuple(ops))
                comps.append(self.make_completion(program, eval_program(task, program)))
            metrics = compute_metrics(comps, task)

            # Independent counting oracle over decoded outputs.
            def key_of(c):
                outs = [run_program(parse_program(c.tokens), i, task.dsl_step_limit)
                        for i, _ in task.test_pairs]
                if any(o is None for o in outs):
                    return None
                return tuple(o.tobytes() + bytes(o.shape) for o in outs)

            truth_key = tuple(o.astype(np.int64).tobytes() + bytes(o.shape)
                              for _, o in task.test_pairs)
            oracle = any(key_of(c) == truth_key for c in comps)
            from collections import Counter
            solver_keys = [key_of(c) for c in comps if c.score == 1.0]
            counter = Counter(k for k in solver_keys if k is not None)
            firsts = {}
            for i, k in enumerate(solver_keys):
                if k is not None and k not in firsts:
                    firsts[k] = i
            top2 = sorted(counter, key=lambda k: (-counter[k], firsts[k]))[:2]
            assert metrics.oracle == oracle
            assert metrics.pass_at_2 == (truth_key in top2)


class TestTaskIO:
    def test_loads_grid_pairs_json(self, tmp_path):
        data = {"train": [{"input": [[1, 0], [0, 1]], "output": [[0, 1], [1, 0]]}],
                "test": [{"input": [[1, 1], [0, 0]], "output": [[1, 1], [0, 0]]}]}
        path = tmp_path / "task.json"
        path.write_text(json.dumps(data))
        task = load_grid_task(path)
        assert len(task.train_pairs) == 1 and len(task.test_pairs) == 1
        assert np.array_equal(task.train_pairs[0][1], [[0, 1], [1, 0]])

    def test_from_dict_validates_cells(self):
        with pytest.raises(ValueError):
            grid_task_from_dict({"train": [{"input": [[11]], "output": [[0]]}],
                                 "test": [{"input": [[0]], "output": [[0]]}]})

    def test_synthesized_tasks_solvable_shape(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            task = synthesize_grid_task(rng)
            assert len(task.train_pairs) == 3
            assert len(task.test_pairs) == 1
            for inp, out in task.train_pairs + task.test_pairs:
                assert inp.size <= 64 and out.size <= 64

    def test_synthesized_task_uses_default_step_limit(self):
        from migrate.tasks.grids import DSL_STEP_LIMIT
        assert synthesize_grid_task(np.random.default_rng(5)).dsl_step_limit == DSL_STEP_LIMIT
        assert DSL_STEP_LIMIT == 10_000

    def test_warmstart_identity_seed(self):
        task = synthesize_grid_task(np.random.default_rng(4))
        warm = task.warmstart(np.random.default_rng(0))
        assert len(warm) == 1
        assert warm[0].text == "identity"
        assert warm[0].score is not None


class TestPairScore:
    def test_smaller_output_counts_missing_cells_as_mismatch(self):
        truth = np.array([[1, 1], [1, 1]])
        out = np.array([[1]])
        assert pair_score(out, truth) == 0.25

    def test_none_scores_zero(self):
        assert pair_score(None, np.array([[1]])) == 0.0


class TestScoreNew:
    PROGRAMS = [(op("flip_h"),), (op("recolor"), color(1), color(2)),
                (op("rot90"), op("translate"), offset(1), offset(-1)),
                (color(3),), (op("recolor"), color(1))]  # the last two do not parse

    def batches(self):
        """Two batches of every program, bare and with an end token and
        different tails after it, in shuffled order."""
        variants = [p + tail for p in self.PROGRAMS
                    for tail in ((), (END,), (END, op("rot90")), (END, color(3), END))]
        rng = np.random.default_rng(6)
        return [[variants[int(i)] for i in rng.permutation(len(variants))] for _ in range(2)]

    def test_repeats_score_as_a_fresh_task_with_one_run_per_program(self, monkeypatch):
        from migrate.tasks import grids
        task = synthesize_grid_task(np.random.default_rng(3))
        batches = self.batches()
        refs = [[GridTask(task.train_pairs, task.test_pairs, task.dsl_step_limit)
                 .score_new([Completion(tokens, ONLINE)])[0] for tokens in batch]
                for batch in batches]
        runs = []

        def counted(task, program, split="train"):
            runs.append(program)
            return eval_program(task, program, split)

        monkeypatch.setattr(grids, "eval_program", counted)
        for batch, ref in zip(batches, refs):
            out = task.score_new([Completion(tokens, ONLINE) for tokens in batch])
            assert [(c.tokens, c.text, c.score) for c in out] == \
                [(tokens, r.text, r.score) for tokens, r in zip(batch, ref)]
        assert sorted(map(DslProgram.tokens, runs)) == sorted(self.PROGRAMS[:3])

    @pytest.mark.parametrize("tokens", [(), (1, 2, 3), (END,), (END, 1, 2), (1, END, 2, END),
                                        (1, 2, END, END)])
    def test_strip_end_matches_the_loop(self, identity_task, tokens):
        ref = []
        for t in tokens:
            if t == END:
                break
            ref.append(t)
        assert identity_task.strip_end(tokens) == tuple(ref)
