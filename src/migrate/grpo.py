"""Group-relative clipped policy updates.

One group = N scored completions. Advantages are mean-centered rewards
(no standard-deviation scaling), applied uniformly to every token of a
completion. The loss is the clipped importance-ratio surrogate, normalized
by the total token count of the group, with no KL term; new log-probs are
always taken under the task context regardless of how a member was sampled.

:func:`make_group` flattens the group to its T tokens once, freezing the
old log-probs as one gather from the step table; the loss, the gradient,
the diagnostics and every one of the ``mu`` steps of :func:`update_policy`
read that one layout.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .completion import Completion
# ``logprobs`` is unused here but stays importable: searchbench/spans.py wraps it.
from .policy import TASK_CONTEXT, PolicyParams, logprobs, token_steps  # noqa: F401


class DegenerateGroupError(ValueError):
    """Fewer than two completions: no within-group baseline exists."""


class NonFiniteLossError(RuntimeError):
    """Loss or ratios became non-finite; carries the step diagnostics."""

    def __init__(self, message: str, diagnostics: "GrpoDiagnostics | None" = None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class ClipConfig:
    """Asymmetric ratio clip; the wider high side leaves room for
    low-probability tokens to grow."""

    eps_low: float = 0.2
    eps_high: float = 0.28

    def __post_init__(self) -> None:
        if not 0 < self.eps_low < 1:
            raise ValueError("eps_low must be in (0, 1)")
        if self.eps_high <= 0:
            raise ValueError("eps_high must be positive")


@dataclass(frozen=True)
class GrpoDiagnostics:
    loss: float
    mean_ratio: float
    clip_low_frac: float
    clip_high_frac: float


@dataclass(frozen=True)
class Group:
    """One update group: its N members, and their T tokens flattened in order.

    Only ``old`` depends on W: the task-context log-probs frozen under the
    pre-step policy.
    """

    completions: list[Completion]
    advantages: np.ndarray  # (N,)
    tokens: np.ndarray  # (T,)
    prev: np.ndarray  # (T,) previous token, the end token at each start
    buckets: np.ndarray  # (T,) position buckets
    token_advantages: np.ndarray  # (T,) each member's advantage, on its tokens
    old: np.ndarray  # (T,) frozen old log-probs
    # (T, 3, V + 1) flat indices into W of each token's gradient terms: per
    # active row (context, previous token, bucket) its V entries, then the
    # entry of the token itself.
    grad_index: np.ndarray

    def __post_init__(self) -> None:
        T = len(self.tokens)
        if len(self.advantages) != len(self.completions) or any(
                len(a) != T for a in (self.prev, self.buckets, self.token_advantages,
                                      self.old, self.grad_index)):
            raise ValueError("group arrays must have one entry per member or per token")


def compute_advantages(rewards: np.ndarray) -> np.ndarray:
    """Mean-centered rewards, deliberately not divided by the std.

    An all-equal group returns exact zeros so the downstream update is a
    bit-exact no-op.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise DegenerateGroupError(f"group of {r.size} has no relative baseline")
    if np.all(r == r[0]):
        return np.zeros_like(r)
    return r - r.mean()


def freeze_logprobs(params: PolicyParams, group: Group) -> np.ndarray:
    """Task-context log-probs of the group's tokens under ``params``."""
    return np.log(params.step_table(1.0).probs[int(TASK_CONTEXT), group.prev, group.buckets,
                                               group.tokens])


def make_group(params: PolicyParams, completions: list[Completion]) -> Group:
    """Flatten scored completions into a group, freezing old log-probs now."""
    scores = []
    for c in completions:
        if c.score is None:
            raise ValueError("all group members must be scored")
        scores.append(c.score)
    advantages = compute_advantages(np.asarray(scores, dtype=np.float64))
    sequences = [c.tokens for c in completions]
    tokens, prev, buckets = token_steps(params, sequences)
    T, V = tokens.size, params.vocab.size
    rows = np.empty((T, 3), dtype=np.intp)
    rows[:, 0] = int(TASK_CONTEXT)
    rows[:, 1] = 2 + prev
    rows[:, 2] = 2 + V + buckets
    rows *= V
    grad_index = np.empty((T, 3, V + 1), dtype=np.intp)
    grad_index[:, :, :V] = rows[:, :, None] + np.arange(V)
    grad_index[:, :, V] = rows + tokens[:, None]
    group = Group(list(completions), advantages, tokens, prev, buckets,
                  np.repeat(advantages, list(map(len, sequences))), np.empty(T), grad_index)
    return replace(group, old=freeze_logprobs(params, group))


def _gradient(group: Group, probs: np.ndarray, coeffs: np.ndarray, F: int, V: int) -> np.ndarray:
    """Dense loss gradient w.r.t. W: each live token adds
    (coeff / total_len) * (p - onehot(token)) to each of its three rows.

    One ``np.add.at`` over ``group.grad_index`` of the live tokens: ordered
    by token, then row, then the V entries of ``+scale * p``, then the
    token's ``-scale``, so each element accumulates in token order,
    bit-reproducibly.
    """
    live = np.flatnonzero(coeffs)
    scale = coeffs[live, None] / float(group.tokens.size)
    values = np.concatenate([scale * probs[live], -scale], axis=1)
    grad = np.zeros(F * V)
    np.add.at(grad, group.grad_index[live].ravel(),
              np.broadcast_to(values[:, None, :], (live.size, 3, V + 1)).ravel())
    return grad.reshape(F, V)


def grpo_loss_and_grad(params: PolicyParams, group: Group,
                       clip: ClipConfig) -> tuple[float, np.ndarray, GrpoDiagnostics]:
    """Loss, exact dense gradient w.r.t. W, and step diagnostics.

    For a token with advantage A and ratio rho = exp(new - old), the
    objective term is min(rho*A, clip(rho, 1-eps_low, 1+eps_high)*A); its
    gradient flows only when the unclipped branch is selected (ties included).
    """
    total_len = group.tokens.size
    if total_len == 0:
        return 0.0, np.zeros_like(params.W), GrpoDiagnostics(0.0, 1.0, 0.0, 0.0)
    probs = params.step_table(1.0).probs[int(TASK_CONTEXT), group.prev, group.buckets]
    ratios = np.exp(np.log(probs[np.arange(total_len), group.tokens]) - group.old)
    low_edge, high_edge = 1.0 - clip.eps_low, 1.0 + clip.eps_high
    unclipped = ratios * group.token_advantages
    clipped = np.clip(ratios, low_edge, high_edge) * group.token_advantages
    live = unclipped <= clipped
    below = ratios < low_edge
    # A running total in token order, not numpy's pairwise sum.
    obj_sum = functools.reduce(operator.add, np.where(live, unclipped, clipped).tolist(), 0.0)
    diag = GrpoDiagnostics(loss=float(-obj_sum / total_len),
                           mean_ratio=float(ratios.mean()),
                           clip_low_frac=float((~live & below).sum()) / total_len,
                           clip_high_frac=float((~live & ~below).sum()) / total_len)
    if not np.isfinite(obj_sum) or not np.all(np.isfinite(ratios)):
        raise NonFiniteLossError("non-finite ratio or loss in group", diag)
    coeffs = np.where(live, unclipped, 0.0)
    return diag.loss, _gradient(group, probs, coeffs, params.feature_dim, params.vocab.size), diag


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Adam:
    lr: float
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _t: int = field(default=0, repr=False)

    def apply(self, W: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(W)
            self._v = np.zeros_like(W)
        self._t += 1
        self._m = ADAM_BETA1 * self._m + (1 - ADAM_BETA1) * grad
        self._v = ADAM_BETA2 * self._v + (1 - ADAM_BETA2) * grad * grad
        m_hat = self._m / (1 - ADAM_BETA1 ** self._t)
        v_hat = self._v / (1 - ADAM_BETA2 ** self._t)
        return W - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def update_policy(params: PolicyParams, group: Group, clip: ClipConfig, lr: float,
                  mu: int, optimizer: Adam | None = None) -> tuple[PolicyParams, list[GrpoDiagnostics]]:
    """Run ``mu`` gradient steps against the group's frozen old log-probs.

    Each step is plain SGD, ``W - lr * grad``, unless an ``optimizer`` is
    given. An all-equal reward group returns the input params unchanged
    (silent no-op).
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    if np.all(group.advantages == 0.0):
        return params, [GrpoDiagnostics(0.0, 1.0, 0.0, 0.0)]
    diags: list[GrpoDiagnostics] = []
    current = params
    for _ in range(mu):
        _, grad, diag = grpo_loss_and_grad(current, group, clip)
        diags.append(diag)
        W = current.W - lr * grad if optimizer is None else optimizer.apply(current.W, grad)
        current = current.with_weights(W)
    return current, diags
