"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
final test checks the whole module's wall time.
"""

import time
from collections import Counter

import numpy as np

from migrate.archive import Archive, IslandConfig
from migrate.completion import ONLINE, Completion
from migrate.grpo import UpdateSpec, grpo_loss_and_grad, make_group, update_policy
from migrate.harness import default_config, run_any, trace_csv, trace_jsonl
from migrate.policy import TASK_CONTEXT, Vocabulary, init_params, logprobs
from migrate.tasks import (DslProgram, GridTask, compute_metrics, eval_program,
                           parse_program, run_program, scalarize, synthesize_grid_task)
from migrate.tasks.grids import OFFSETS, OPS, OP_TOKENS

MODULE_START = time.perf_counter()
UPDATE = UpdateSpec(learning_rate=0.15, mu=2)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def make_vocab(size):
    return Vocabulary(tuple(f"t{i}" for i in range(size - 1)) + ("</s>",), end_token=size - 1)


def random_params(rng, size, max_len=5):
    base = init_params(make_vocab(size), position_buckets=4, max_len=max_len)
    return base.with_weights(rng.normal(scale=0.6, size=base.W.shape))


def random_group(params, rng, n, max_tokens=5):
    comps = []
    for i in range(n):
        length = int(rng.integers(1, max_tokens + 1))
        tokens = tuple(int(t) for t in rng.integers(0, params.vocab.size, size=length))
        comps.append(Completion(tokens=tokens, provenance=ONLINE, born_iteration=1,
                                text=str(i), score=float(rng.normal())))
    return make_group(params, comps)


def old_logprobs(old_params, group):
    """The group's task-context log-probs under ``old_params``, member by member."""
    return np.concatenate([logprobs(old_params, TASK_CONTEXT, c.tokens)
                           for c in group.completions])


def test_criterion_1_gradient_correctness():
    """Analytic gradient vs central finite differences, 100+ random
    instances with V<=8, N<=6, len<=5, saturated clips included."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    saturated = 0
    for trial in range(100):
        params = random_params(rng, size=int(rng.integers(3, 9)))
        old_params = params if trial % 4 == 0 else \
            params.with_weights(params.W + rng.normal(scale=0.5, size=params.W.shape))
        group = random_group(params, rng, n=int(rng.integers(2, 7)))
        old = old_logprobs(old_params, group)
        _, grad, diag = grpo_loss_and_grad(params, group, UPDATE, old)
        saturated += diag.clip_low_frac > 0 or diag.clip_high_frac > 0
        fd = np.zeros_like(grad)
        for f in range(grad.shape[0]):
            for v in range(grad.shape[1]):
                for sign in (1.0, -1.0):
                    W = params.W.copy()
                    W[f, v] += sign * h
                    loss, _, _ = grpo_loss_and_grad(params.with_weights(W), group, UPDATE, old)
                    fd[f, v] += sign * loss / (2 * h)
        scale = max(1e-8, np.abs(grad).max(), np.abs(fd).max())
        worst = max(worst, np.abs(grad - fd).max() / scale)
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-6 and saturated > 0 and elapsed <= 30.0,
           f"max rel err {worst:.2e} over 100 instances ({saturated} with clip "
           f"saturation) in {elapsed:.1f}s")


def test_criterion_2_structural_checks():
    """Advantages sum to ~0; first-inner-iteration ratios are exactly 1 so
    clipped == unclipped; mu=2 replays two manual frozen-old steps."""
    rng = np.random.default_rng(22)
    ok = True
    for _ in range(50):
        params = random_params(rng, size=6)
        group = random_group(params, rng, n=5)
        ok &= abs(group.advantages.sum()) <= 1e-12
        loss, _, diag = grpo_loss_and_grad(params, group, UPDATE)
        lens = np.array([len(c.tokens) for c in group.completions])
        unclipped = -(lens * group.advantages).sum() / lens.sum()
        ok &= diag.mean_ratio == 1.0
        ok &= abs(loss - unclipped) <= 1e-12
        lr = UPDATE.learning_rate
        auto, _ = update_policy(params, group, UPDATE)
        _, g1, _ = grpo_loss_and_grad(params, group, UPDATE)
        step1 = params.with_weights(params.W - lr * g1)
        _, g2, _ = grpo_loss_and_grad(step1, group, UPDATE, old_logprobs(params, group))
        manual = step1.W - lr * g2
        ok &= auto.W.tobytes() == manual.tobytes()
    report(2, ok, "sum(adv)<=1e-12, ratio-1 objectives agree <=1e-12, "
                  "mu=2 replay bit-exact over 50 groups")


def test_criterion_3_group_budget_contracts():
    """1000 fuzzed configs: the mix's group size is N (test_sampler checks
    that each draft has that many members), new evaluations per iteration =
    alpha+gamma (a cold-start iteration generates N), final count <= budget,
    best-so-far monotone."""
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    methods = ("random", "ns", "opro", "grpo", "grpo-greedy", "migrate", "migrate-opro")
    tasks = ("words", "molecules", "grids")
    checked = 0
    for trial in range(1000):
        task = tasks[int(rng.integers(0, 3))]
        method = methods[int(rng.integers(0, len(methods)))]
        n = int(rng.integers(2, 7))
        alpha = int(rng.integers(0, n + 1))
        beta = int(rng.integers(0, n - alpha + 1))
        gamma = n - alpha - beta
        if alpha + gamma < 1:
            alpha, beta = 1, beta - 1
        warm_cap = {"words": 5, "molecules": 3, "grids": 1}[task]
        warm = int(rng.integers(0, warm_cap + 1))
        budget = warm + int(rng.integers(n, 5 * n))
        seed = int(rng.integers(0, 2**31))
        top_k = int(rng.integers(1, 4))
        islands = bool(rng.integers(0, 2))
        island_count = int(rng.integers(2, 5))
        island_keys = dict(islands=True, island_count=island_count) if islands else {}
        cfg = default_config(
            task, method, seed=seed, alpha=alpha, beta=beta, gamma=gamma,
            budget=budget, warmstart_count=warm, top_k=top_k, **island_keys,
            stop_threshold=None,
            task_options={"vocab_size": 40, "dim": 6, "clusters": 4} if task == "words" else {})
        assert cfg.mix.group_size == n, f"group size {cfg.mix.group_size} != {n}"
        trace = run_any(cfg)
        assert trace.summary.status == "ok", trace.summary.error
        warm_inserted = (trace.records[0].evaluations - trace.records[0].new_count
                         if trace.records else trace.summary.total_evaluations)
        bests = [r.best_so_far for r in trace.records]
        assert bests == sorted(bests), "best-so-far must be monotone"
        assert trace.summary.total_evaluations <= budget
        for i, rec in enumerate(trace.records):
            expected_new = n if (i == 0 and warm_inserted == 0) else alpha + gamma
            assert rec.new_count == expected_new
        checked += 1
    elapsed = time.perf_counter() - started
    report(3, checked == 1000 and elapsed <= 60.0,
           f"{checked} fuzzed configs honored group/budget contracts in {elapsed:.1f}s")


def test_criterion_4_ordering_reproduction():
    """Mixed-policy search beats on-policy-only and random on the planted
    word task: found-rate ordering plus a 0.02 mean best-so-far margin."""
    started = time.perf_counter()
    methods = ("migrate", "grpo", "random")
    found: dict[str, list[bool]] = {method: [] for method in methods}
    best: dict[str, list[float]] = {method: [] for method in methods}
    # Seed-major, so that each seed's words table is synthesized once.
    for seed in range(20):
        for method in methods:
            trace = run_any(default_config("words", method, seed=seed))
            found[method].append(trace.summary.found)
            best[method].append(trace.summary.best_score)
    f = {m: float(np.mean(v)) for m, v in found.items()}
    b = {m: float(np.mean(v)) for m, v in best.items()}
    elapsed = time.perf_counter() - started
    ok = (f["migrate"] >= f["grpo"] and f["migrate"] >= f["random"]
          and b["migrate"] >= b["grpo"] + 0.02 and b["migrate"] >= b["random"] + 0.02
          and elapsed <= 300.0)
    report(4, ok,
           f"found migrate={f['migrate']:.2f} grpo={f['grpo']:.2f} random={f['random']:.2f}; "
           f"mean best migrate={b['migrate']:.3f} vs grpo={b['grpo']:.3f} "
           f"random={b['random']:.3f} (margin >= 0.02) in {elapsed:.0f}s")


def test_criterion_5_scalarization():
    """Exact endpoints, 13:1 range weighting (~10x per the 1 kcal vs 0.1
    comparison), and monotonicity over 10^4 random pairs."""
    ok = scalarize(-13.0, 1.0) == 1.0 and scalarize(0.0, 0.0) == 0.0
    base = scalarize(-6.0, 0.4)
    per_unit_vina = scalarize(-7.0, 0.4) - base
    per_tenth_qed = scalarize(-6.0, 0.5) - base
    ok &= abs(per_unit_vina / per_tenth_qed - 10.0) <= 1e-9
    vina_swing = scalarize(-13.0, 0.4) - scalarize(0.0, 0.4)
    qed_swing = scalarize(-6.0, 1.0) - scalarize(-6.0, 0.0)
    ok &= abs(vina_swing / qed_swing - 13.0) <= 1e-9
    rng = np.random.default_rng(55)
    for _ in range(10_000):
        vina = float(rng.uniform(-13.0, 0.0))
        qed = float(rng.uniform(0.0, 1.0))
        s = scalarize(vina, qed)
        ok &= 0.0 <= s <= 1.0
        if vina >= -12.9:
            ok &= scalarize(vina - 0.05, qed) > s
        if qed <= 0.99:
            ok &= scalarize(vina, qed + 0.005) > s
        if not ok:
            break
    report(5, bool(ok), "endpoints exact, 13:1 range weighting (10x per-unit), "
                        "monotone over 10^4 fuzzed pairs")


def test_criterion_6_hamming_reward_oracle():
    """Matched-cell fraction equals brute-force cell comparison on 1000
    random grid/program pairs, oversize->0 and step-limit->0 included."""
    rng = np.random.default_rng(66)
    oversize_hits = 0
    limited_hits = 0
    for trial in range(1000):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        grid = rng.integers(0, 10, size=(h, w)).astype(np.int64)
        truth = rng.integers(0, 10, size=(h, w)).astype(np.int64)
        n_ops = int(rng.integers(1, 4))
        ops = []
        for _ in range(n_ops):
            name = OP_TOKENS[int(rng.integers(0, len(OP_TOKENS)))]
            args = tuple(int(rng.integers(0, 10)) if kind == "color"
                         else int(OFFSETS[int(rng.integers(0, len(OFFSETS)))])
                         for kind in OPS[name])
            ops.append((name, args))
        program = DslProgram(tuple(ops))
        limit = 10_000 if trial % 5 else int(rng.integers(1, h * w * n_ops + 1))
        task = GridTask([(grid, truth)], [(grid, truth)], dsl_step_limit=limit)
        got = eval_program(task, program)
        out = run_program(program, grid, limit)
        if out is None:
            expected = 0.0
            limited_hits += 1
        elif out.shape[0] > h or out.shape[1] > w:
            expected = 0.0
            oversize_hits += 1
        else:
            matches = sum(int(out[r, c] == truth[r, c])
                          for r in range(out.shape[0]) for c in range(out.shape[1]))
            expected = matches / truth.size
        assert got == expected, (got, expected)
    report(6, limited_hits > 0 and oversize_hits > 0,
           f"1000 pairs equal brute force ({oversize_hits} oversize, "
           f"{limited_hits} step-limited)")


def island_sets(archive):
    """Each island's entry indices, read through the public ``islands_of``."""
    sets = [set() for _ in range(archive.islands.island_count)]
    for i in range(len(archive)):
        for island in archive.islands_of(i):
            sets[island].add(i)
    return sets


def test_criterion_7_islands_invariants():
    """Migration adds each island's top members to the next island along the
    ring, and no entry, over 100 seeded runs with 2-4 islands; the exploit
    probability is honored within 3 sigma."""
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 5))
        archive = Archive(islands=IslandConfig(island_count=count, exploit_prob=0.5,
                                               migration_fraction=float(rng.uniform(0.1, 0.9))))
        for island in range(count):
            n = int(rng.integers(1, 8))
            archive.insert([Completion(tokens=(0,), provenance=ONLINE, born_iteration=i,
                                       text=f"{seed}.{island}.{i}",
                                       score=float(rng.random())) for i in range(n)],
                           island=island)
        # Every entry has tokens (0,), so members are told apart by index.
        # The second call finds some sources already held by the next island.
        before = list(archive.entries)
        for _ in range(2):
            members = island_sets(archive)
            expected = [set(held) for held in members]
            for island in range(count):
                ranked = sorted(members[island],
                                key=lambda i: (-archive.entries[i].score,
                                               archive.entries[i].born_iteration, i))
                take = int(np.ceil(archive.islands.migration_fraction * len(ranked)))
                expected[(island + 1) % count].update(ranked[:take])
            archive.migrate()
            ok &= len(archive.entries) == len(before)
            ok &= all(a is b for a, b in zip(archive.entries, before))
            ok &= island_sets(archive) == expected

    # Exploit-probability audit: pools are disjoint, so top-k membership of
    # the selection identifies the branch.
    p = 0.7
    archive = Archive(islands=IslandConfig(island_count=2, exploit_prob=p))
    archive.insert([Completion(tokens=(0,), provenance=ONLINE, text="t0", score=0.9),
                    Completion(tokens=(0,), provenance=ONLINE, text="e0", score=0.1)], island=0)
    archive.insert([Completion(tokens=(0,), provenance=ONLINE, text="t1", score=0.8),
                    Completion(tokens=(0,), provenance=ONLINE, text="e1", score=0.2)], island=1)
    rng = np.random.default_rng(7)
    draws = 10_000
    exploits = sum(archive.island_select(rng, 2).text in {"t0", "t1"} for _ in range(draws))
    sigma = np.sqrt(draws * p * (1 - p))
    ok &= abs(exploits - draws * p) <= 3 * sigma
    report(7, bool(ok), f"100 seeded migrations added ring members, no entries; "
                        f"exploit rate {exploits / draws:.3f} within 3 sigma of {p}")


def test_criterion_8_determinism():
    """Identical configs produce byte-identical CSV and JSONL traces."""
    ok = True
    cases = [
        default_config("words", "migrate", seed=3,
                       task_options={"vocab_size": 120, "dim": 8, "clusters": 6},
                       budget=80),
        default_config("molecules", "grpo", seed=4, budget=60),
        default_config("grids", "migrate-opro", seed=5, budget=96),
        default_config("words", "migrate", seed=6, islands=True, migration_interval=4,
                       task_options={"vocab_size": 120, "dim": 8, "clusters": 6},
                       budget=80),
    ]
    for cfg in cases:
        a, b = run_any(cfg), run_any(cfg)
        ok &= trace_csv(a) == trace_csv(b)
        ok &= trace_jsonl(a) == trace_jsonl(b)
    report(8, bool(ok), f"{len(cases)} configs re-ran to byte-identical CSV/JSONL")


def test_criterion_9_metrics_correctness():
    """pass@2 and oracle agree with brute-force counting on 200 synthesized
    grid-task program sets."""
    rng = np.random.default_rng(99)
    agreements = 0
    passed_any = 0
    for _ in range(200):
        task = synthesize_grid_task(rng)
        comps = []
        for i in range(int(rng.integers(2, 14))):
            ops = []
            for _ in range(int(rng.integers(1, 3))):
                name = OP_TOKENS[int(rng.integers(0, len(OP_TOKENS)))]
                args = tuple(int(rng.integers(0, 10)) if kind == "color"
                             else int(OFFSETS[int(rng.integers(0, len(OFFSETS)))])
                             for kind in OPS[name])
                ops.append((name, args))
            program = DslProgram(tuple(ops))
            comps.append(Completion(tokens=program.tokens(), provenance=ONLINE,
                                    born_iteration=i, text="p",
                                    score=eval_program(task, program)))
        metrics = compute_metrics(comps, task)

        def outputs_of(c):
            outs = [run_program(parse_program(c.tokens), grid, task.dsl_step_limit)
                    for grid, _ in task.test_pairs]
            if any(o is None for o in outs):
                return None
            return tuple(o.tobytes() + bytes(o.shape) for o in outs)

        truth = tuple(o.tobytes() + bytes(o.shape) for _, o in task.test_pairs)
        oracle = any(outputs_of(c) == truth for c in comps)
        solver_keys = [outputs_of(c) for c in comps if c.score == 1.0]
        counts = Counter(k for k in solver_keys if k is not None)
        first = {}
        for i, k in enumerate(solver_keys):
            if k is not None and k not in first:
                first[k] = i
        top2 = sorted(counts, key=lambda k: (-counts[k], first[k]))[:2]
        agreements += (metrics.oracle == oracle) and (metrics.pass_at_2 == (truth in top2))
        passed_any += metrics.pass_at_2
    report(9, agreements == 200,
           f"200/200 program sets agree with brute-force counting "
           f"({passed_any} with pass@2 true)")


def test_criterion_10_runtime():
    """The whole acceptance module stays within its time budget."""
    elapsed = time.perf_counter() - MODULE_START
    report(10, elapsed <= 600.0, f"acceptance suite wall time {elapsed:.0f}s <= 600s")
