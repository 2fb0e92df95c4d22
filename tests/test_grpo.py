from dataclasses import astuple

import numpy as np
import pytest

from migrate.completion import Completion
from migrate.grpo import (Adam, DegenerateGroupError, NonFiniteLossError, UpdateSpec,
                          compute_advantages, grpo_loss_and_grad, make_group,
                          update_policy)
from migrate.policy import TASK_CONTEXT, PolicyParams, Vocabulary, init_params, logprobs

# The loss tests read only its clip edges.
UPDATE = UpdateSpec(learning_rate=0.3, mu=1)


def make_vocab(size):
    return Vocabulary(tuple(f"t{i}" for i in range(size - 1)) + ("</s>",), end_token=size - 1)


def random_params(rng, size=6, max_len=5, scale=0.6):
    base = init_params(make_vocab(size), position_buckets=3, max_len=max_len)
    return base.with_weights(rng.normal(scale=scale, size=base.W.shape))


def random_group(params, rng, n=4, max_tokens=4):
    """Group with rewards drawn at random."""
    comps = []
    for i in range(n):
        length = int(rng.integers(1, max_tokens + 1))
        tokens = tuple(int(t) for t in rng.integers(0, params.vocab.size, size=length))
        comps.append(Completion(tokens=tokens, provenance="online", born_iteration=1,
                                text=str(i), score=float(rng.normal())))
    return make_group(params, comps)


def sgd_or_adam(learning_rate, mu, adam):
    """An update's spec and the Adam it takes: an "adam" spec and a fresh
    Adam, or an "sgd" spec and None."""
    return UpdateSpec(learning_rate, mu, "adam" if adam else "sgd"), Adam() if adam else None


def old_logprobs(old_params, group):
    """The group's task-context log-probs under ``old_params``, member by
    member: the ``old`` of an off-policy step."""
    return np.concatenate([logprobs(old_params, TASK_CONTEXT, c.tokens)
                           for c in group.completions])


class TestAdvantages:
    def test_mean_subtraction(self):
        adv = compute_advantages(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(adv, [0.8, -0.2, -0.2, -0.2, -0.2], atol=1e-15)

    def test_constant_rewards_zero(self):
        adv = compute_advantages(np.array([0.3] * 5))
        assert np.all(adv == 0.0)

    def test_no_std_normalization(self):
        # A std-normalized oracle must disagree once the spread changes.
        pattern = np.array([2.0, -1.0, -1.0])
        wide, narrow = 10.0 * pattern, 1.0 * pattern
        adv_wide = compute_advantages(wide)
        adv_narrow = compute_advantages(narrow)
        std_oracle = (wide - wide.mean()) / wide.std()
        assert np.allclose(adv_wide, 10.0 * adv_narrow)
        assert not np.allclose(adv_wide, std_oracle)

    def test_sum_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rewards = rng.normal(size=int(rng.integers(2, 10)))
            assert abs(compute_advantages(rewards).sum()) <= 1e-12

    def test_degenerate_group(self):
        with pytest.raises(DegenerateGroupError):
            compute_advantages(np.array([1.0]))


class TestLoss:
    def test_ratio_one_equals_reinforce_baseline(self):
        # At theta == theta_old every ratio is exactly 1, so the loss is
        # -(1/total_len) * sum_i len_i * adv_i.
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = random_params(rng)
            group = random_group(params, rng)
            loss, grad, diag = grpo_loss_and_grad(params, group, UPDATE)
            lens = np.array([len(c.tokens) for c in group.completions])
            expected = -(lens * group.advantages).sum() / lens.sum()
            assert abs(loss - expected) <= 1e-12
            assert diag.mean_ratio == 1.0
            assert diag.clip_low_frac == 0.0 and diag.clip_high_frac == 0.0

    def test_clip_saturation_value_and_zero_gradient(self):
        # rho = 1 + eps_high + 0.5 with positive advantage: the token
        # contributes the clipped value and no gradient.
        params = init_params(make_vocab(4), max_len=3)
        comp = Completion(tokens=(1,), provenance="online", text="x", score=1.0)
        other = Completion(tokens=(2,), provenance="online", text="y", score=0.0)
        group = make_group(params, [comp, other])
        rho = 1 + UPDATE.eps_high + 0.5
        old = old_logprobs(params, group) + np.array([-1.0, 1.0]) * np.log(rho)
        loss, grad, diag = grpo_loss_and_grad(params, group, UPDATE, old)
        # token 1: adv +0.5 at ratio ~1.78 -> clipped high; token 2: adv -0.5
        # at ratio ~0.56 -> clipped low. Both gradients vanish.
        expected = -((1 + UPDATE.eps_high) * 0.5 + (1 - UPDATE.eps_low) * -0.5) / 2
        assert loss == pytest.approx(expected, abs=1e-12)
        assert np.all(grad == 0.0)
        assert diag.clip_high_frac == 0.5 and diag.clip_low_frac == 0.5

    def test_gradient_matches_central_differences(self):
        # Off-policy groups (old log-probs from perturbed params) exercise
        # non-unit ratios and both clip branches.
        rng = np.random.default_rng(2)
        h = 1e-6
        checked_clipped = 0
        for trial in range(30):
            size = int(rng.integers(3, 7))
            params = random_params(rng, size=size)
            old_params = params if trial % 3 == 0 else \
                params.with_weights(params.W + rng.normal(scale=0.4, size=params.W.shape))
            group = random_group(params, rng, n=int(rng.integers(2, 5)))
            old = old_logprobs(old_params, group)
            loss, grad, diag = grpo_loss_and_grad(params, group, UPDATE, old)
            checked_clipped += diag.clip_low_frac > 0 or diag.clip_high_frac > 0
            fd = np.zeros_like(grad)
            for f in range(grad.shape[0]):
                for v in range(grad.shape[1]):
                    for sign in (1.0, -1.0):
                        W = params.W.copy()
                        W[f, v] += sign * h
                        l2, _, _ = grpo_loss_and_grad(params.with_weights(W), group, UPDATE, old)
                        fd[f, v] += sign * l2 / (2 * h)
            scale = max(1e-8, np.abs(grad).max(), np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale <= 1e-6
        assert checked_clipped > 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        params = random_params(rng)
        group = random_group(params, rng, n=5)
        loss, _, _ = grpo_loss_and_grad(params, group, UPDATE)
        perm = rng.permutation(5)
        shuffled = make_group(params, [group.completions[i] for i in perm])
        loss_p, _, _ = grpo_loss_and_grad(params, shuffled, UPDATE)
        assert loss == pytest.approx(loss_p, abs=1e-12)

    def test_non_finite_old_logprobs_rejected(self):
        rng = np.random.default_rng(4)
        params = random_params(rng)
        group = random_group(params, rng)
        old = old_logprobs(params, group)
        old[0] = -np.inf  # ratio -> exp(+inf)
        with pytest.raises(NonFiniteLossError) as err:
            grpo_loss_and_grad(params, group, UPDATE, old)
        assert err.value.diagnostics is not None


class TestUpdate:
    def test_zero_advantages_noop(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        comps = [Completion(tokens=(0, 1), provenance="online", text="a", score=0.4),
                 Completion(tokens=(2,), provenance="online", text="b", score=0.4)]
        group = make_group(params, comps)
        new, diags = update_policy(params, group, UpdateSpec(0.5, 3))
        assert new.W.tobytes() == params.W.tobytes()
        assert diags[0].loss == 0.0

    def test_positive_advantage_raises_probability(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            params = random_params(rng)
            good = Completion(tokens=(1, 2), provenance="online", text="g", score=1.0)
            bad = Completion(tokens=(3,), provenance="online", text="b", score=0.0)
            group = make_group(params, [good, bad])
            before = logprobs(params, TASK_CONTEXT, good.tokens).sum()
            new, _ = update_policy(params, group, UpdateSpec(0.1, 1))
            after = logprobs(new, TASK_CONTEXT, good.tokens).sum()
            assert after > before

    def test_mu_two_equals_manual_replay(self):
        # mu=2 must be bit-identical to two manual steps against the same
        # frozen old log-probs (dense-gradient arithmetic).
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = random_params(rng)
            group = random_group(params, rng)
            lr = 0.2
            auto, _ = update_policy(params, group, UpdateSpec(lr, 2))
            _, g1, _ = grpo_loss_and_grad(params, group, UPDATE)
            step1 = params.with_weights(params.W - lr * g1)
            _, g2, _ = grpo_loss_and_grad(step1, group, UPDATE, old_logprobs(params, group))
            step2 = step1.with_weights(step1.W - lr * g2)
            assert auto.W.tobytes() == step2.W.tobytes()

    def test_first_step_is_on_policy_whatever_weights_built_the_group(self):
        # The old policy is the weights the update starts from, so the first
        # step's ratios are exactly 1 even for a group flattened under others.
        rng = np.random.default_rng(13)
        for trial in range(40):
            params = random_params(rng, size=int(rng.integers(3, 9)))
            group = random_group(random_params(rng, size=params.vocab.size), rng,
                                 n=int(rng.integers(2, 7)))
            _, _, diag = grpo_loss_and_grad(params, group, UPDATE)
            _, (first, _) = update_policy(params, group, *sgd_or_adam(0.3, 2, trial % 2))
            assert [float.hex(v) for v in astuple(first)] == [float.hex(v) for v in astuple(diag)]
            assert first.mean_ratio == 1.0
            assert first.clip_low_frac == first.clip_high_frac == 0.0

    def test_original_params_unmodified(self):
        rng = np.random.default_rng(8)
        params = random_params(rng)
        snapshot = params.W.copy()
        group = random_group(params, rng)
        update_policy(params, group, UpdateSpec(0.3, 2))
        assert np.array_equal(params.W, snapshot)

    def test_adam_optimizer_path(self):
        rng = np.random.default_rng(9)
        params = random_params(rng)
        group = random_group(params, rng)
        new, diags = update_policy(params, group, UpdateSpec(0.05, 2, "adam"), Adam())
        assert new.W.shape == params.W.shape
        assert len(diags) == 2
        assert not np.array_equal(new.W, params.W)

    @pytest.mark.parametrize("mu", [1, 2, 3])
    @pytest.mark.parametrize("adam", [False, True], ids=["sgd", "adam"])
    def test_update_builds_one_params_whatever_mu(self, mu, adam, monkeypatch):
        # The steps run on the weight array; only the result is wrapped
        # (and checked finite), not every intermediate W.
        rng = np.random.default_rng(11)
        params = random_params(rng)
        group = random_group(params, rng)
        built = []
        check = PolicyParams.__post_init__
        monkeypatch.setattr(PolicyParams, "__post_init__",
                            lambda self: (built.append(self), check(self)))
        new, diags = update_policy(params, group, *sgd_or_adam(0.3, mu, adam))
        assert len(diags) == mu
        assert len(built) == 1 and built[0] is new

    def test_mu_must_be_positive(self):
        rng = np.random.default_rng(10)
        params = random_params(rng)
        group = random_group(params, rng)
        with pytest.raises(ValueError, match="mu must be >= 1"):
            update_policy(params, group, UpdateSpec(0.1, 0))

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_adam_is_given_exactly_for_an_adam_spec(self, optimizer):
        # An Adam beside an sgd spec, or an adam spec without one, would step
        # otherwise than the spec says.
        rng = np.random.default_rng(14)
        params = random_params(rng)
        group = random_group(params, rng)
        with pytest.raises(ValueError, match=f"an '{optimizer}' update takes"):
            update_policy(params, group, UpdateSpec(0.3, 2, optimizer),
                          Adam() if optimizer == "sgd" else None)


class TestDiagnosticsTypes:
    """Every diagnostics field is a Python float, whatever array type the
    token-term kernel returns, so emitters can format it with ``repr``."""

    def assert_plain_floats(self, diags):
        assert diags
        for diag in diags:
            assert [type(v) for v in astuple(diag)] == [float] * 4, diag

    def test_loss_and_grad(self):
        rng = np.random.default_rng(11)
        params = random_params(rng)
        group = random_group(params, rng)
        loss, _, diag = grpo_loss_and_grad(params, group, UPDATE)
        assert type(loss) is float
        self.assert_plain_floats([diag])

    @pytest.mark.parametrize("adam", [False, True], ids=["sgd", "adam"])
    def test_update_policy(self, adam):
        rng = np.random.default_rng(12)
        params = random_params(rng)
        group = random_group(params, rng)
        _, diags = update_policy(params, group, *sgd_or_adam(0.05, 2, adam))
        assert len(diags) == 2
        self.assert_plain_floats(diags)


class TestGroupInvariants:
    def test_requires_scored_members(self):
        params = init_params(make_vocab(4), max_len=3)
        with pytest.raises(ValueError):
            make_group(params, [Completion(tokens=(0,), provenance="online")] * 2)

    def test_old_logprob_shapes_checked(self):
        params = init_params(make_vocab(4), max_len=3)
        comps = [Completion(tokens=(0, 1), provenance="online", text="a", score=1.0),
                 Completion(tokens=(2,), provenance="online", text="b", score=0.0)]
        with pytest.raises(ValueError):
            grpo_loss_and_grad(params, make_group(params, comps), UPDATE, old=np.zeros(1))

    @pytest.mark.parametrize("tokens", [(0, 1, 2, 0), (4,), (-1,)],
                             ids=["too-long", "too-large", "negative"])
    def test_out_of_range_members_rejected(self, tokens):
        params = init_params(make_vocab(4), max_len=3)
        comps = [Completion(tokens=(0, 1), provenance="online", text="a", score=1.0),
                 Completion(tokens=tokens, provenance="online", text="b", score=0.0)]
        with pytest.raises(ValueError):
            make_group(params, comps)
