"""Feature-linear softmax token policy with exact, cheap log-prob gradients.

The policy is first-order Markov: a step's logits are a linear function of
three one-hot features (conditioning context kind, previous token, clamped
position bucket), so a completion's log-probability and its gradient with
respect to the weight matrix are available in closed form.

Feature layout of the weight matrix W (shape F x V, F = 2 + V + P):
  row 0..1        context kind (0 = task, 1 = neighborhood)
  row 2..2+V-1    previous token (the end token's row doubles as "start")
  row 2+V..F-1    position bucket, min(pos * P // max_len, P - 1)

:func:`feature_dim` states F and :func:`feature_rows` that layout, for the
sampler, the GRPO gradient and the params file alike. No sequence is longer
than ``max_len``: a draw stops there, and the functions that read given
sequences raise ValueError on a longer one. A step's logits are the sum
of its three active rows, formed in one place, :func:`step_rows`, which
reads only the weight array W (so the GRPO update steps on plain arrays)
and softmaxes just the ``(prev, bucket)`` steps it is asked for. The
running sum of a context's step distributions is built once per weight
matrix, context and temperature by one broadcast ``step_rows`` call over
every ``(prev, bucket)`` pair (see :meth:`PolicyParams.cdf`); online members
draw from the task context and neighborhood proposals from the other, so a
search that makes both builds both running sums. A token draw is one
``bisect_right`` over the ``(prev, bucket)`` row's slice of a flat
``memoryview`` of that running sum, so it compares Python floats and makes
no numpy row view or scalar. :func:`token_steps` turns token sequences
into the ``(tokens, prev, buckets)`` indices that log-probs and the GRPO
gradient gather with.
"""

from __future__ import annotations

import enum
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .completion import ONLINE, Completion

PARAMS_MAGIC = b"MGP1"
_HEADER = struct.Struct("<4sIIII")


class PolicyIOError(Exception):
    """A params stream that does not load; the message names the fault."""


class ContextKind(enum.IntEnum):
    """Conditioning context of a step; its value is the context feature row."""

    TASK = 0
    NEIGHBORHOOD = 1


TASK_CONTEXT = ContextKind.TASK


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token alphabet with a designated terminator."""

    tokens: tuple[str, ...]
    end_token: int

    def __post_init__(self) -> None:
        if len(self.tokens) < 2:
            raise ValueError("vocabulary needs at least 2 tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be distinct")
        if not 0 <= self.end_token < len(self.tokens):
            raise ValueError("end_token out of range")

    @property
    def size(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class PolicyParams:
    """Immutable weight matrix plus the feature layout it is defined over.

    ``W`` has shape (F, V) with F = 2 + V + position_buckets; see the module
    docstring for the row layout. Updates always build a new instance, so
    params can be shared freely across readers, and the CDFs cached on an
    instance live exactly as long as it does.
    """

    W: np.ndarray
    vocab: Vocabulary
    position_buckets: int
    max_len: int
    _cdfs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expected = (self.feature_dim, self.vocab.size)
        if self.W.shape != expected:
            raise ValueError(f"W shape {self.W.shape} != {expected}")
        if not np.isfinite(self.W).all():
            raise ValueError("W entries must be finite")
        if self.position_buckets < 1 or self.max_len < 1:
            raise ValueError("position_buckets and max_len must be >= 1")
        self.W.setflags(write=False)

    @property
    def feature_dim(self) -> int:
        return feature_dim(self.vocab.size, self.position_buckets)

    @property
    def buckets(self) -> list[int]:
        """The position bucket of each position ``0 .. max_len - 1``."""
        return position_bucket(np.arange(self.max_len), self.position_buckets,
                               self.max_len).tolist()

    def with_weights(self, W: np.ndarray) -> "PolicyParams":
        return PolicyParams(W, self.vocab, self.position_buckets, self.max_len)

    def cdf(self, context: ContextKind, temperature: float = 1.0) -> np.ndarray:
        """The read-only ``(V, P, V)`` running sum, along the last axis, of
        ``context``'s step distributions at ``temperature`` (finite and > 0),
        built on first use by one :func:`step_rows` call over every (prev, bucket)."""
        key = (int(context), temperature)
        cdf = self._cdfs.get(key)
        if cdf is None:
            if not 0 < temperature < math.inf:
                raise ValueError(f"temperature must be finite and > 0, got {temperature!r}")
            prev, buckets = np.arange(self.vocab.size)[:, None], np.arange(self.position_buckets)
            cdf = np.cumsum(step_rows(self.W, context, prev, buckets, temperature), axis=-1)
            cdf.setflags(write=False)
            self._cdfs[key] = cdf
        return cdf


def init_params(vocab: Vocabulary, position_buckets: int = 4, max_len: int = 8) -> PolicyParams:
    """Zero-weight (uniform) policy. Its ``position_buckets`` default is the
    one every search starts from."""
    W = np.zeros((feature_dim(vocab.size, position_buckets), vocab.size))
    return PolicyParams(W, vocab, position_buckets, max_len)


def position_bucket(position, position_buckets: int, max_len: int):
    """Bucket of a position (an int or an integer array of them)."""
    return np.minimum(np.asarray(position) * position_buckets // max_len, position_buckets - 1)


def _flat_cdf(params: PolicyParams, context: ContextKind, temperature: float) -> memoryview:
    """:meth:`PolicyParams.cdf` as a flat view of Python floats: the row of
    ``(prev, bucket)`` is ``flat[start:start + V]``, ``start = (prev * P + bucket) * V``.

    A draw with uniform ``u`` from that row is the count of its entries
    <= ``u * flat[last]``, capped at V - 1, ``last = start + V - 1``: the
    ``bisect_right`` of that product over ``flat[start:last]``, less ``start``.
    """
    return memoryview(params.cdf(context, temperature).reshape(-1))


def sample_tokens(params: PolicyParams, context: ContextKind, temperature: float,
                  uniforms: np.ndarray) -> list[tuple[int, ...]]:
    """Ancestral draws, one per row of ``uniforms``.

    ``uniforms`` has shape (n, max_len); row i's column ``pos`` drives
    step ``pos`` of draw i, and each draw stops at the end token.
    """
    flat = _flat_cdf(params, context, temperature)
    V, end = params.vocab.size, params.vocab.end_token
    stride = params.position_buckets * V  # floats per previous token
    offsets = [V * bucket for bucket in params.buckets]
    out = []
    for row in uniforms.tolist():
        tokens, prev = [], end
        for offset, u in zip(offsets, row):
            start = prev * stride + offset
            last = start + V - 1
            prev = bisect_right(flat, u * flat[last], start, last) - start
            tokens.append(prev)
            if prev == end:
                break
        out.append(tuple(tokens))
    return out


def sample_completion(params: PolicyParams, context: ContextKind, temperature: float,
                      rng: np.random.Generator) -> Completion:
    """One online draw; stops at the end token or max_len.

    Consumes exactly ``max_len`` uniforms from ``rng`` regardless of where
    the sequence stops, so replays are reproducible draw-for-draw.
    """
    tokens = sample_tokens(params, context, temperature, rng.random((1, params.max_len)))[0]
    return Completion(tokens=tokens, provenance=ONLINE)


def mutate_tokens(params: PolicyParams, context: ContextKind, temperature: float,
                  bases: list[tuple[int, ...]], gate_u: list[np.ndarray],
                  tok_u: list[np.ndarray], rate: float) -> list[tuple[int, ...]]:
    """Resample position ``pos`` of ``bases[i]`` where ``gate_u[i][pos] < rate``.

    The replacement is drawn with ``tok_u[i][pos]`` from the policy at that
    position, conditioned on the (possibly already mutated) previous token.
    Lengths are preserved. Raises ValueError when a base is longer than
    ``max_len``.
    """
    if max(map(len, bases), default=0) > params.max_len:
        raise ValueError(f"bases must have at most max_len={params.max_len} tokens")
    flat = _flat_cdf(params, context, temperature)
    V = params.vocab.size
    stride = params.position_buckets * V  # floats per previous token
    offsets = [V * bucket for bucket in params.buckets]
    out = []
    for base, gates, draws in zip(bases, gate_u, tok_u):
        tokens, prev = [], params.vocab.end_token
        for tok, offset, gate, u in zip(base, offsets, gates.tolist(), draws.tolist()):
            if gate < rate:
                start = prev * stride + offset
                last = start + V - 1
                tok = bisect_right(flat, u * flat[last], start, last) - start
            tokens.append(tok)
            prev = tok
        out.append(tuple(tokens))
    return out


def token_steps(params: PolicyParams, sequences: list[tuple[int, ...]]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The steps of token ``sequences``, flattened in order: ``(tokens, prev,
    buckets)``, where ``prev`` is the end token at each sequence start.

    A step's distribution is ``step_rows(params.W, ctx, prev, buckets)``.
    Raises ValueError when a sequence is longer than ``max_len`` or holds a
    token outside ``[0, V)``.
    """
    end, V, max_len = params.vocab.end_token, params.vocab.size, params.max_len
    bucket_of = params.buckets
    tokens: list[int] = []
    prev: list[int] = []
    buckets: list[int] = []
    for s in sequences:
        if s:
            tokens.extend(s)
            prev.append(end)
            prev.extend(s[:-1])
            buckets.extend(bucket_of[:len(s)])
    if (max(map(len, sequences), default=0) > max_len
            or tokens and (min(tokens) < 0 or max(tokens) >= V)):
        raise ValueError(f"sequences must have at most max_len={max_len} "
                         f"tokens, each in [0, {V})")
    return (np.array(tokens, dtype=np.intp), np.array(prev, dtype=np.intp),
            np.array(buckets, dtype=np.intp))


def feature_dim(V: int, P: int) -> int:
    """F, the row count of W for V tokens and P position buckets."""
    return 2 + V + P


def feature_rows(V: int, context: ContextKind, prev, buckets):
    """The rows of W active at the steps ``(prev, buckets)`` of ``context``,
    for a vocabulary of V tokens: ``(context row, previous-token rows,
    bucket rows)``. This is the one statement of W's row layout."""
    return int(context), 2 + prev, 2 + V + buckets


def step_rows(W: np.ndarray, context: ContextKind, prev: np.ndarray,
              buckets: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """The step distributions under the ``(F, V)`` weights ``W`` of ``context``
    at the steps ``(prev, buckets)``, whose shapes broadcast together, with a
    last axis of length V: the softmax at ``temperature`` of the sum
    ``(context row + previous-token row) + bucket row`` of
    :func:`feature_rows`, formed only here.

    The max shift comes before the temperature divide, so near-zero
    temperatures stay finite and keep the argmax token; at temperature 1.0
    the divide is skipped, since ``x / 1.0 == x`` exactly.
    """
    ctx, prev_rows, bucket_rows = feature_rows(W.shape[1], context, prev, buckets)
    p = (W[ctx] + W.take(prev_rows, axis=0)) + W.take(bucket_rows, axis=0)
    p -= p.max(axis=-1, keepdims=True)
    if temperature != 1.0:
        p /= temperature
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def logprobs(params: PolicyParams, context: ContextKind, tokens: tuple[int, ...]) -> np.ndarray:
    """Per-token log-probabilities of ``tokens`` under the given context."""
    tokens, prev, buckets = token_steps(params, [tokens])
    return np.log(step_rows(params.W, context, prev, buckets)[np.arange(tokens.size), tokens])


def save_params(params: PolicyParams) -> bytes:
    """Serialize to the little-endian "MGP1" format (header + row-major W)."""
    v = params.vocab
    header = _HEADER.pack(PARAMS_MAGIC, v.size, params.feature_dim,
                          params.position_buckets, params.max_len)
    return header + np.ascontiguousarray(params.W, dtype="<f8").tobytes()


def load_params(data: bytes, vocab: Vocabulary | None = None) -> PolicyParams:
    """Inverse of :func:`save_params`; bit-exact round trip.

    A vocabulary of matching size may be supplied to attach real token
    strings; otherwise placeholder tokens are synthesized (the file format
    stores dimensions only). A stream that does not load raises
    :class:`PolicyIOError`, whose message names the fault.
    """
    if len(data) < _HEADER.size:
        raise PolicyIOError(f"stream has {len(data)} bytes, header needs {_HEADER.size}")
    magic, V, F, P, max_len = _HEADER.unpack_from(data)
    if magic != PARAMS_MAGIC:
        raise PolicyIOError(f"unsupported magic/version {magic!r}, expected {PARAMS_MAGIC!r}")
    if F != feature_dim(V, P) or V < 2 or P < 1 or max_len < 1:
        raise PolicyIOError(f"inconsistent header: V={V} F={F} P={P} max_len={max_len}")
    expected = _HEADER.size + F * V * 8
    if len(data) != expected:
        raise PolicyIOError(f"stream has {len(data)} bytes, expected {expected}")
    W = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(F, V).copy()
    if not np.all(np.isfinite(W)):
        raise PolicyIOError("weight payload contains non-finite entries")
    if vocab is None:
        vocab = Vocabulary(tuple(f"tok{i}" for i in range(V - 1)) + ("</s>",), V - 1)
    elif vocab.size != V:
        raise PolicyIOError(f"vocabulary size {vocab.size} != stored V={V}")
    return PolicyParams(W, vocab, P, max_len)
