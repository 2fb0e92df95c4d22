"""Group-relative clipped policy updates.

One group = N scored completions. Advantages are mean-centered rewards
(no standard-deviation scaling), applied uniformly to every token of a
completion. One :class:`UpdateSpec` is the whole update: ``mu`` steps at its
rate on the importance-ratio surrogate clipped to its edges, normalized by
the group's total token count, with no KL term; new log-probs are always
taken under the task context regardless of how a member was sampled.

:func:`make_group` flattens the group to its T tokens once. One step
function, ``_step``, serves :func:`grpo_loss_and_grad` and each of the ``mu``
steps of :func:`update_policy`: from the weight array W alone it computes
the T task-context rows with :func:`policy.step_rows`, the new log-probs,
the loss, the gradient and the diagnostics. The old policy is the one that
sampled the group, which is the weights an update starts from, so the
frozen old log-probs are the first step's own log-probs (every first-step
ratio is exactly 1). The gradient is one ``np.bincount`` over those rows,
whose flat indices into W an update computes once for all its steps. An
update steps on plain arrays and builds one :class:`PolicyParams` at the end.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .completion import Completion
# ``logprobs`` is unused here but stays importable: searchbench/spans.py wraps it.
from .policy import (TASK_CONTEXT, PolicyParams, feature_rows, logprobs,  # noqa: F401
                     step_rows, token_steps)


class DegenerateGroupError(ValueError):
    """Fewer than two completions: no within-group baseline exists."""


class NonFiniteLossError(RuntimeError):
    """Loss or ratios became non-finite; carries the step diagnostics."""

    def __init__(self, message: str, diagnostics: "GrpoDiagnostics | None" = None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class UpdateSpec:
    """The update a test-time-training run takes after every group: ``mu``
    steps of ``optimizer`` ("sgd" or "adam") at ``learning_rate``, ratios clipped
    to [1 - eps_low, 1 + eps_high], wider above so rare tokens can grow."""

    learning_rate: float
    mu: int
    optimizer: str = "sgd"
    eps_low: float = 0.2
    eps_high: float = 0.28

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if not 0 < self.eps_low < 1:
            raise ValueError("eps_low must be in (0, 1)")
        if not 0 < self.eps_high < math.inf:
            raise ValueError(f"eps_high must be finite and > 0, got {self.eps_high!r}")


@dataclass(frozen=True)
class GrpoDiagnostics:
    loss: float
    mean_ratio: float
    clip_low_frac: float
    clip_high_frac: float


NOOP_DIAGNOSTICS = GrpoDiagnostics(0.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Group:
    """One update group: its N members, and their T tokens flattened in order.

    Nothing here depends on W. ``(prev, buckets)`` name each token's step,
    which is all the loss and gradient need to find its three rows of W.
    """

    completions: list[Completion]
    advantages: np.ndarray  # (N,)
    tokens: np.ndarray  # (T,)
    prev: np.ndarray  # (T,) previous token, the end token at each start
    buckets: np.ndarray  # (T,) position buckets
    token_advantages: np.ndarray  # (T,) each member's advantage, on its tokens

    def __post_init__(self) -> None:
        T = len(self.tokens)
        if len(self.advantages) != len(self.completions) or any(
                len(a) != T for a in (self.prev, self.buckets, self.token_advantages)):
            raise ValueError("group arrays must have one entry per member or per token")


def compute_advantages(rewards: np.ndarray) -> np.ndarray:
    """Mean-centered rewards, deliberately not divided by the std.

    An all-equal group returns exact zeros so the downstream update is a
    bit-exact no-op.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise DegenerateGroupError(f"group of {r.size} has no relative baseline")
    if (r == r[0]).all():
        return np.zeros_like(r)
    return r - np.add.reduce(r) / r.size


def _token_picks(tokens: np.ndarray, V: int) -> np.ndarray:
    """Flat indices of each token's own entry in its row of a ``(T, V)`` block."""
    return np.arange(0, tokens.size * V, V) + tokens


def make_group(params: PolicyParams, completions: list[Completion]) -> Group:
    """Flatten scored completions into a group."""
    if any(c.score is None for c in completions):
        raise ValueError("all group members must be scored")
    advantages = compute_advantages([c.score for c in completions])
    sequences = [c.tokens for c in completions]
    tokens, prev, buckets = token_steps(params, sequences)
    return Group(list(completions), advantages, tokens, prev, buckets,
                 np.repeat(advantages, list(map(len, sequences))))


def _gradient_index(group: Group, V: int) -> np.ndarray:
    """Flat indices into W of the group's gradient terms, ``3 * T * (V + 1)``
    of them: per active row block (context, previous token, bucket), the
    tokens in order, each with the V entries of its row and then its own entry."""
    T = group.tokens.size
    rows = np.empty((3, T), dtype=np.intp)
    rows[0], rows[1], rows[2] = feature_rows(V, TASK_CONTEXT, group.prev, group.buckets)
    rows *= V
    index = np.empty((3, T, V + 1), dtype=np.intp)
    index[:, :, :V] = rows[:, :, None] + np.arange(V)
    index[:, :, V] = rows + group.tokens
    return index.ravel()


def _gradient(index: np.ndarray, probs: np.ndarray, coeffs: np.ndarray, F: int) -> np.ndarray:
    """Dense loss gradient w.r.t. W: each token adds
    (coeff / total_len) * (p - onehot(token)) to each of its three rows.

    One ``np.bincount`` over :func:`_gradient_index`: per row block, each
    token's ``+scale * p`` and then its own entry's ``-scale``. The three
    blocks never share an element, so each element accumulates in token
    order, bit-reproducibly. A dead token (coeff 0) adds zeros, which change
    nothing: the sums start at +0.0 and so never hold -0.0.
    """
    T, V = probs.shape
    scale = coeffs[:, None] / float(T)
    values = np.concatenate([scale * probs, -scale], axis=1)
    grad = np.bincount(index, np.concatenate((values,) * 3, axis=None), minlength=F * V)
    return grad.reshape(F, V)


def grpo_loss_and_grad(params: PolicyParams, group: Group, update: UpdateSpec,
                       old: np.ndarray | None = None
                       ) -> tuple[float, np.ndarray, GrpoDiagnostics]:
    """Loss, exact dense gradient w.r.t. W, and step diagnostics, against
    the (T,) frozen old log-probs ``old`` (by default ``params``' own, so
    every ratio is 1). Raises ValueError when ``old`` does not have T entries.

    For a token with advantage A and ratio rho = exp(new - old), the
    objective term is min(rho*A, clip(rho, 1-eps_low, 1+eps_high)*A); its
    gradient flows only when the unclipped branch is selected (ties included).
    """
    if old is not None and len(old) != group.tokens.size:
        raise ValueError(f"old has {len(old)} log-probs for a group of {group.tokens.size} tokens")
    V = params.vocab.size
    grad, diag, _ = _step(params.W, group, update, old, _token_picks(group.tokens, V),
                          _gradient_index(group, V))
    return diag.loss, grad, diag


def _step(W: np.ndarray, group: Group, update: UpdateSpec, old: np.ndarray | None,
          picks: np.ndarray, index: np.ndarray
          ) -> tuple[np.ndarray, GrpoDiagnostics, np.ndarray]:
    """One GRPO step at the weights ``W``: :func:`grpo_loss_and_grad`'s
    gradient and diagnostics, from the group's token ``picks`` and gradient
    ``index``, and the old log-probs it used (``W``'s own when ``old`` is None)."""
    probs = step_rows(W, TASK_CONTEXT, group.prev, group.buckets)
    new = np.log(probs.take(picks))
    old = new if old is None else old
    total_len = new.size
    if total_len == 0:
        return np.zeros_like(W), NOOP_DIAGNOSTICS, old
    ratios = np.exp(new - old)
    low_edge, high_edge = 1.0 - update.eps_low, 1.0 + update.eps_high
    unclipped = ratios * group.token_advantages
    clipped = np.minimum(np.maximum(ratios, low_edge), high_edge) * group.token_advantages
    live = unclipped <= clipped
    dead = ~live
    clipped_low = int(np.count_nonzero(dead & (ratios < low_edge)))
    # A running total in token order, not numpy's pairwise sum.
    obj_sum = functools.reduce(operator.add, np.where(live, unclipped, clipped).tolist(), 0.0)
    diag = GrpoDiagnostics(loss=float(-obj_sum / total_len),
                           mean_ratio=float(np.add.reduce(ratios) / total_len),
                           clip_low_frac=clipped_low / total_len,
                           clip_high_frac=(int(np.count_nonzero(dead)) - clipped_low) / total_len)
    if not np.isfinite(obj_sum) or not np.isfinite(ratios).all():
        raise NonFiniteLossError("non-finite ratio or loss in group", diag)
    coeffs = np.where(live, unclipped, 0.0)
    return _gradient(index, probs, coeffs, W.shape[0]), diag, old


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Adam:
    """Adam's moments and step count, kept across updates; the rate is the update's."""

    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _t: int = field(default=0, repr=False)

    def apply(self, W: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(W)
            self._v = np.zeros_like(W)
        self._t += 1
        self._m = ADAM_BETA1 * self._m + (1 - ADAM_BETA1) * grad
        self._v = ADAM_BETA2 * self._v + (1 - ADAM_BETA2) * grad * grad
        m_hat = self._m / (1 - ADAM_BETA1 ** self._t)
        v_hat = self._v / (1 - ADAM_BETA2 ** self._t)
        return W - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def update_policy(params: PolicyParams, group: Group, update: UpdateSpec,
                  adam: Adam | None = None) -> tuple[PolicyParams, list[GrpoDiagnostics]]:
    """Run ``update.mu`` steps against the old log-probs of ``params``, the
    weights that sampled the group, taken from the first step's rows.

    Each step, at ``update.learning_rate``, is plain SGD or, for an "adam"
    spec, a step of ``adam`` (ValueError unless ``adam`` is given exactly
    then), on the weight array alone; the new params are built (and their
    weights checked finite) once, at the end. An all-equal reward group
    returns the input params unchanged (silent no-op).
    """
    if (adam is None) == (update.optimizer == "adam"):
        raise ValueError(f"an {update.optimizer!r} update takes "
                         f"{'an' if adam is None else 'no'} Adam")
    if (group.advantages == 0.0).all():
        return params, [NOOP_DIAGNOSTICS]
    V, lr = params.vocab.size, update.learning_rate
    picks, index = _token_picks(group.tokens, V), _gradient_index(group, V)
    W, old, diags = params.W, None, []
    for _ in range(update.mu):
        grad, diag, old = _step(W, group, update, old, picks, index)
        diags.append(diag)
        W = W - lr * grad if adam is None else adam.apply(W, grad, lr)
    return params.with_weights(W), diags
