"""Conditional autoregressive generator with a content-aware objective.

The model is intentionally small: token embeddings plus learned position
embeddings feed one causal single-head self-attention block (query, key,
value, and output projections), a residual two-layer feed-forward with a
tanh nonlinearity, and a linear projection to vocabulary logits. There
are no bias vectors and no layer normalization, so every parameter is a
matrix and exact reverse-mode gradients stay short enough to audit by
hand. The output projection starts at zero, which makes a freshly
initialized model emit the uniform distribution.

Given a conditioning sequence X = [<bos>; table; <sep>; S_1; ...] and a
target sequence y (reference tokens with <eos> appended), training
minimizes

    L = L_LM + L_CA
    L_LM = -sum_i log p(y_i | y_<i; X)
    L_CA = -sum_i sum_{t in N} log(1 - p(t | y_<i; X))

where N is the set of token types that occur in some prototype but not
in y, minus the reserved layout tokens. 1 - p is clamped at 1e-12 before
the log. L_CA pushes probability away from prototype content the
reference did not use, which is what keeps the generator from copying
irrelevant prototype material.

Inference (next_token_dist, decode_greedy) is read-only on the model and
safe to run concurrently; training mutates the parameter arrays in a
fixed single-threaded update order, and a run takes every array of its
steps' forward and backward passes from one StepBuffers, so a step
reuses the arrays of the one before it. Keys and values depend only on the
input embeddings, so the one forward pass embeds, projects keys and
values at every position, then runs one block (attention, feed-forward,
logits) on only the last rows, the ones its caller reads. Training runs
it on the last len(y) + 1 rows; next_token_dist on every row, as the
full-width reference. decode_greedy keeps the prefill's keys and values
in a cache local to its call; each emitted token then goes in as one 1-D
row through the same block, with no causal mask, since one query row
may attend to every cached key. The token is the argmax of that row's
logits, ties to the lowest id, with no softmax. Products over fewer
rows may sum in another order, so this is a declared drift, not
bit-equal: gradients agree with the reference within 1e-12 of each
group's largest entry, and each decode step's logits with its last row
within 1e-12, tokens equal.
generate_outputs decodes a list of records and logs how many stopped at
<eos> and how many at max_len; write_outputs and read_outputs own the
``{"output", "table_id"}`` JSONL outputs format.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidConfig, InputTooLong, InvalidInput, ParseError, check_fields, check_int
from .optim import Adam
from .selector import AugmentedRecord
from .tabledata import (
    Table, decode_array, encode_array, known_keys, read_jsonl, read_model_file, unique_id,
    write_jsonl, write_model_file,
)
from .tokenization import EOS, RESERVED_TOKENS, tokenize
from .vocab import Vocabulary

log = logging.getLogger(__name__)

PARAM_KEYS = (
    "tok_emb",
    "pos_emb",
    "w_query",
    "w_key",
    "w_value",
    "w_attn_out",
    "w_ff_in",
    "w_ff_out",
    "w_out",
)

CA_CLAMP = 1e-12


@dataclass(frozen=True)
class GeneratorTrainConfig:
    learning_rate: float = 3e-3
    epochs: int = 30
    seed: int = 0
    dim: int = 64
    max_context: int = 256
    max_decode_len: int = 64
    ca_enabled: bool = True

    def __post_init__(self):
        check_fields(self, epochs=0, seed=0, dim=1, max_context=2, max_decode_len=1)
        if self.learning_rate <= 0:
            raise InvalidConfig(f"config field learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class ConditioningInput:
    """Token ids of [<bos>; table; <sep>; S_1; <sep>; ...] with segment info."""

    ids: tuple[int, ...]
    table_len: int
    prototype_spans: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.ids:
            raise InvalidInput("conditioning needs at least one id")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class GeneratorModel:
    vocab: Vocabulary
    params: dict[str, np.ndarray]

    def __post_init__(self):
        missing = set(PARAM_KEYS) - set(self.params)
        if missing:
            raise InvalidConfig(f"generator parameters missing: {sorted(missing)}")
        tok_emb = self.params["tok_emb"]
        if tok_emb.ndim != 2 or tok_emb.shape[0] != len(self.vocab) or tok_emb.shape[1] < 1:
            raise InvalidConfig("token embedding must be a (vocabulary size, dim >= 1) matrix")
        if self.params["pos_emb"].ndim != 2 or self.max_context < 2:
            raise InvalidConfig("position embedding must be a (max_context >= 2, dim) matrix")
        expected = param_shapes(len(self.vocab), tok_emb.shape[1], self.max_context)
        for key in PARAM_KEYS:
            if self.params[key].shape != expected[key]:
                raise InvalidConfig(
                    f"generator parameter {key} has shape {self.params[key].shape}, "
                    f"expected {expected[key]}"
                )
            if not np.all(np.isfinite(self.params[key])):
                raise InvalidConfig(f"generator parameter {key} is not finite")

    @property
    def dim(self) -> int:
        return self.params["tok_emb"].shape[1]

    @property
    def max_context(self) -> int:
        return len(self.params["pos_emb"])


def param_shapes(v: int, d: int, max_context: int) -> dict[str, tuple[int, int]]:
    """Shape of every parameter matrix for vocabulary size v and width d."""
    return {
        "tok_emb": (v, d),
        "pos_emb": (max_context, d),
        "w_query": (d, d),
        "w_key": (d, d),
        "w_value": (d, d),
        "w_attn_out": (d, d),
        "w_ff_in": (d, 2 * d),
        "w_ff_out": (2 * d, d),
        "w_out": (d, v),
    }


def init_generator(vocab: Vocabulary, config: GeneratorTrainConfig) -> GeneratorModel:
    """Seeded initialization; the zero output projection makes the
    next-token distribution exactly uniform before any update."""
    rng = np.random.default_rng(config.seed)
    shapes = param_shapes(len(vocab), config.dim, config.max_context)
    # drawn in param_shapes order, which fixes the seeded values
    params = {
        key: rng.uniform(-0.1, 0.1, size=shape) for key, shape in shapes.items() if key != "w_out"
    }
    params["w_out"] = np.zeros(shapes["w_out"])
    return GeneratorModel(vocab=vocab, params=params)


def build_conditioning(
    table: Table,
    prototypes: Sequence[Sequence[str]],
    vocab: Vocabulary,
    max_len: int,
) -> ConditioningInput:
    """Assemble the conditioning ids, truncating prototypes to fit.

    The table segment is never truncated; if <bos> plus the linearized
    table alone exceed the budget the input is rejected.
    """
    check_int(max_len, "max_len", 1)
    table_ids = vocab.ids(table.tokens)
    ids = [vocab.bos_id] + table_ids
    if len(ids) > max_len:
        raise InputTooLong(
            f"linearized table needs {len(ids)} positions, budget is {max_len}"
        )
    spans = []
    for proto in prototypes:
        ids.append(vocab.sep_id)
        start = len(ids)
        ids.extend(vocab.ids(proto))
        spans.append((start, len(ids)))
    ids = ids[:max_len]
    clipped = tuple(
        (start, min(end, max_len)) for start, end in spans if start < max_len
    )
    return ConditioningInput(ids=tuple(ids), table_len=len(table_ids), prototype_spans=clipped)


Buffers = Callable[..., np.ndarray]


def _fresh(name: str, *shape: int) -> np.ndarray:
    """A new array of ``shape``: the buffers of a call that holds none."""
    return np.empty(shape)


class StepBuffers:
    """The arrays a training run holds for its steps' intermediates: one per
    name, grown to the largest shape asked for. ``buffers(name, *shape)`` is a
    C-contiguous float64 array of ``shape`` with stale contents, valid until
    ``name`` is asked for again. After the first records of a run, a step
    allocates no array whose size grows with its sequence, so the heap it
    frees never shrinks and regrows from step to step."""

    def __init__(self):
        self._held: dict[str, np.ndarray] = {}

    def __call__(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        held = self._held.get(name)
        if held is None or held.size < size:
            held = self._held[name] = np.empty(size)
        return held[:size].reshape(shape)


def _block(
    params: dict[str, np.ndarray],
    x0: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    buffers: Buffers | None = None,
):
    """Attention, feed-forward and logits for the queries ``x0``.

    ``k`` and ``v`` hold the keys and values of positions ``0 .. m-1``.
    ``x0`` is either a 2-D block whose rows are the last ``len(x0)`` of
    those positions, or one 1-D row, the last position. A single query
    row may attend to every key, so the causal mask is built only for a
    block of more than one row. Every array it returns comes from
    ``buffers``, when it is given.
    """
    lead, d, m = x0.shape[:-1], x0.shape[-1], len(k)
    if buffers is None:  # numpy allocates each; decoding pays nothing more
        outs = (None,) * 7
    else:
        widths = (("q", d), ("att", m), ("ctx", d), ("x1", d), ("a", 2 * d), ("x2", d),
                  ("logits", params["w_out"].shape[1]))
        outs = (buffers(name, *lead, width) for name, width in widths)
    q_out, att_out, ctx_out, x1_out, a_out, x2_out, logits_out = outs
    q = np.matmul(x0, params["w_query"], out=q_out)
    att = np.matmul(q, k.T, out=att_out)
    att /= math.sqrt(d)
    if x0.ndim == 2 and len(x0) > 1:
        n = len(x0)
        np.copyto(att, -np.inf, where=np.triu(np.ones((n, m), dtype=bool), k=m - n + 1))
    # softmax in place: shift by the row maximum, exponentiate, normalize
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = np.matmul(att, v, out=ctx_out)
    x1 = np.matmul(ctx, params["w_attn_out"], out=x1_out)
    x1 += x0
    a = np.matmul(x1, params["w_ff_in"], out=a_out)
    np.tanh(a, out=a)
    x2 = np.matmul(a, params["w_ff_out"], out=x2_out)
    x2 += x1
    logits = np.matmul(x2, params["w_out"], out=logits_out)
    return logits, (q, att, ctx, x1, a, x2)


def _forward(
    params: dict[str, np.ndarray], ids: Sequence[int], rows: int, buffers: Buffers | None = None
):
    """Logits of the last ``rows`` positions of ``ids``; keys and values come
    from every position, and every array from ``buffers``, when it is given.
    The one check of a sequence's length."""
    n, d = len(ids), params["tok_emb"].shape[1]
    if n > len(params["pos_emb"]):
        raise InputTooLong(f"sequence needs {n} positions, max_context is {len(params['pos_emb'])}")
    x0_out, k_out, v_out = (None,) * 3 if buffers is None else (
        buffers(name, n, d) for name in ("x0", "k", "v"))
    # mode "raise" keeps indexing's IndexError, at the cost of one transient copy
    x0 = np.take(params["tok_emb"], ids, axis=0, out=x0_out)
    x0 += params["pos_emb"][:n]
    k = np.matmul(x0, params["w_key"], out=k_out)
    v = np.matmul(x0, params["w_value"], out=v_out)
    logits, (q, att, ctx, x1, a, x2) = _block(params, x0[n - rows :], k, v, buffers)
    return logits, (list(ids), x0, q, k, v, att, ctx, x1, a, x2)


def _backward(
    params: dict[str, np.ndarray],
    cache,
    d_logits: np.ndarray,
    buffers: Buffers = _fresh,
) -> dict[str, np.ndarray]:
    """Gradients from the block's ``(rows, V)`` ``d_logits``; keys and values
    pass a gradient to every position, queries to the last ``rows``. Each
    gradient, and each intermediate, is an array from ``buffers``, whose
    old contents are overwritten."""
    ids, x0, q, k, v, att, ctx, x1, a, x2 = cache
    n, rows = len(ids), len(d_logits)
    d = params["tok_emb"].shape[1]
    grads = {key: buffers(f"grad {key}", *value.shape) for key, value in params.items()}

    np.matmul(x2.T, d_logits, out=grads["w_out"])
    d_x2 = np.matmul(d_logits, params["w_out"].T, out=buffers("d_x2", rows, d))

    d_x1 = buffers("d_x1", rows, d)
    np.copyto(d_x1, d_x2)
    d_a = np.matmul(d_x2, params["w_ff_out"].T, out=buffers("d_a", rows, 2 * d))
    np.matmul(a.T, d_x2, out=grads["w_ff_out"])
    # d_u = d_a * (1 - a * a)
    d_u = np.multiply(a, a, out=buffers("d_u", rows, 2 * d))
    np.subtract(1.0, d_u, out=d_u)
    d_u *= d_a
    np.matmul(x1.T, d_u, out=grads["w_ff_in"])
    d_x1 += np.matmul(d_u, params["w_ff_in"].T, out=buffers("rows_d", rows, d))

    d_ctx = np.matmul(d_x1, params["w_attn_out"].T, out=buffers("d_ctx", rows, d))
    np.matmul(ctx.T, d_x1, out=grads["w_attn_out"])

    d_att = np.matmul(d_ctx, v.T, out=buffers("d_att", rows, n))
    d_v = np.matmul(att.T, d_ctx, out=buffers("d_v", n, d))
    # g = att * (d_att - sum(d_att * att)) / sqrt(d)
    g = np.multiply(d_att, att, out=buffers("g", rows, n))
    np.subtract(d_att, g.sum(axis=1, keepdims=True), out=g)
    g *= att
    g /= math.sqrt(d)
    d_q = np.matmul(g, k, out=buffers("d_q", rows, d))
    d_k = np.matmul(g.T, q, out=buffers("d_k", n, d))
    d_x0 = buffers("d_x0", n, d)
    d_x0[: n - rows] = 0.0
    np.add(d_x1, np.matmul(d_q, params["w_query"].T, out=buffers("rows_d", rows, d)),
           out=d_x0[n - rows :])
    d_x0 += np.matmul(d_k, params["w_key"].T, out=buffers("n_d", n, d))
    d_x0 += np.matmul(d_v, params["w_value"].T, out=buffers("n_d", n, d))
    np.matmul(x0[n - rows :].T, d_q, out=grads["w_query"])
    np.matmul(x0.T, d_k, out=grads["w_key"])
    np.matmul(x0.T, d_v, out=grads["w_value"])

    grads["tok_emb"].fill(0.0)
    np.add.at(grads["tok_emb"], ids, d_x0)
    grads["pos_emb"][:n] = d_x0
    grads["pos_emb"][n:] = 0.0
    return grads


def _log_softmax(
    rows: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """The log-softmax of each row, written into ``out``; ``scratch`` takes the
    exponentials. Either is a fresh array when None."""
    shifted = np.subtract(rows, rows.max(axis=1, keepdims=True), out=out)
    shifted -= np.log(np.exp(shifted, out=scratch).sum(axis=1, keepdims=True))
    return shifted


def _forward_losses(
    model: GeneratorModel,
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    negative_ids: Sequence[int],
    buffers: Buffers = _fresh,
):
    """Forward pass and both loss terms for one id-level sequence pair.

    The block runs on the last ``len(y_ids) + 1`` rows; all but the last
    predict a target. Also returns what the backward pass needs: the
    logits and forward cache, the target rows' log-probabilities and
    probabilities, the target ids and the sorted negative ids. Every array
    of rows comes from ``buffers``.
    """
    if len(y_ids) == 0:
        raise InvalidConfig("target sequence must be non-empty")
    rows, vocab_size = len(y_ids) + 1, len(model.vocab)
    logits, cache = _forward(model.params, list(x_ids) + list(y_ids), rows, buffers)
    probs = buffers("probs", rows - 1, vocab_size)
    logp = _log_softmax(logits[:-1], buffers("logp", rows - 1, vocab_size), probs)
    np.exp(logp, out=probs)
    targets = np.asarray(list(y_ids))
    lm = float(-logp[np.arange(len(y_ids)), targets].sum())
    neg = sorted(set(int(t) for t in negative_ids))
    ca = 0.0
    if neg:
        ca = float(-np.log(np.maximum(1.0 - probs[:, neg], CA_CLAMP)).sum())
    return lm, ca, (logits, cache, logp, probs, targets, neg)


def losses_from_ids(
    model: GeneratorModel,
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    negative_ids: Sequence[int] = (),
) -> tuple[float, float]:
    """LM and content-aware loss for one id-level sequence pair (forward only)."""
    lm, ca, _ = _forward_losses(model, x_ids, y_ids, negative_ids)
    return lm, ca


def loss_and_grads(
    model: GeneratorModel,
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    negative_ids: Sequence[int],
    include_lm: bool,
    include_ca: bool,
    buffers: Buffers = _fresh,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Both loss terms plus exact gradients of the selected combination.

    The gradient dict corresponds to ``include_lm * L_LM +
    include_ca * L_CA``, which lets either objective be checked in
    isolation. With no negatives ``L_CA`` is 0.0 and adds no gradient.
    The gradients, and every array of the forward and backward pass, come
    from ``buffers``: fresh arrays by default, or a :class:`StepBuffers`
    that a training run holds, so that a step reuses the arrays of the one
    before it.
    """
    lm, ca, (logits, cache, logp, probs, targets, neg) = _forward_losses(
        model, x_ids, y_ids, negative_ids, buffers
    )
    # logits and logp are spent: their rows take d_logits and a temporary
    d_logits = logits
    d_logits.fill(0.0)
    d_rows = d_logits[:-1]
    if include_lm:
        d_rows += probs
        d_rows[np.arange(len(targets)), targets] -= 1.0
    if include_ca and neg:
        one_minus = 1.0 - probs[:, neg]
        coef = np.where(one_minus > CA_CLAMP, probs[:, neg] / one_minus, 0.0)
        d_rows[:, neg] += coef
        d_rows -= np.multiply(probs, coef.sum(axis=1, keepdims=True), out=logp)
    return lm, ca, _backward(model.params, cache, d_logits, buffers)


# The earlier name of the one loss entry point, kept for the acceptance tests.
component_loss_and_grads = loss_and_grads


def negative_token_ids(
    vocab: Vocabulary,
    y_tokens: Sequence[str],
    prototypes: Sequence[Sequence[str]],
) -> list[int]:
    """Vocabulary ids of prototype token types absent from the target.

    Reserved layout tokens never enter the set; out-of-vocabulary
    prototype tokens collapse to <unk>, which is reserved, so they are
    excluded as well. Sorted for deterministic iteration.
    """
    proto_types: set[str] = set()
    for proto in prototypes:
        proto_types.update(proto)
    negatives = proto_types - set(y_tokens)
    reserved_ids = {vocab.id(t) for t in RESERVED_TOKENS if t in vocab}
    ids = {vocab.id(t) for t in negatives} - reserved_ids
    return sorted(ids)


def lm_loss(model: GeneratorModel, cond: ConditioningInput, y: Sequence[str]) -> float:
    """Teacher-forced negative log-likelihood of the target sequence.

    ``y`` is the full target: reference tokens with <eos> appended.
    """
    y_ids = model.vocab.ids(y)
    lm, _ = losses_from_ids(model, cond.ids, y_ids)
    return lm


def ca_loss(
    model: GeneratorModel,
    cond: ConditioningInput,
    y: Sequence[str],
    prototypes: Sequence[Sequence[str]],
) -> float:
    """Unlikelihood penalty on prototype-only token types.

    Exactly zero when every prototype token type also occurs in ``y``
    (the negative set is empty) or when there are no prototypes.
    """
    neg = negative_token_ids(model.vocab, y, prototypes)
    if not neg:
        return 0.0
    y_ids = model.vocab.ids(y)
    _, ca = losses_from_ids(model, cond.ids, y_ids, neg)
    return ca


def _check_ids(model: GeneratorModel, cond: ConditioningInput) -> None:
    """InvalidInput unless every conditioning id is an int in ``[0, len(model.vocab))``."""
    v = len(model.vocab)
    for i in cond.ids:
        if type(i) is not int or not 0 <= i < v:
            raise InvalidInput(f"conditioning id {i!r} is not a vocabulary id in [0, {v})")


def next_token_dist(
    model: GeneratorModel,
    cond: ConditioningInput,
    prefix: Sequence[str],
) -> np.ndarray:
    """Distribution over the vocabulary after consuming X and a prefix;
    the full-width reference, whose block runs on every position."""
    _check_ids(model, cond)
    ids = list(cond.ids) + model.vocab.ids(prefix)
    logits, _ = _forward(model.params, ids, len(ids))
    return np.exp(_log_softmax(logits[-1:]))[0]


def decode_greedy(model: GeneratorModel, cond: ConditioningInput, max_len: int) -> list[str]:
    """Greedy decoding; stops at <eos> (excluded) or after max_len tokens.

    Each token is the argmax of its step's logits, with no softmax, and
    ties resolve toward the lowest vocabulary index. The last emitted
    token is never fed back, so a decode reads at most
    ``len(cond) + max_len - 1`` positions. The prefill is the forward over
    the conditioning for its last row, with its keys and values kept in a
    cache local to this call; each emitted token then goes in as one 1-D
    row: its embedding read by index, its key and value written into the
    cache, and ``_block`` run on that row over the cache.
    """
    check_int(max_len, "max_len", 1)
    _check_ids(model, cond)
    n = len(cond.ids)
    if n + max_len - 1 > model.max_context:
        raise InputTooLong(
            f"conditioning ({n}) plus max_len ({max_len}) minus one exceeds "
            f"max_context {model.max_context}"
        )
    if EOS not in model.vocab:
        raise InvalidInput(f"the model's vocabulary lacks {EOS}")
    eos = model.vocab.eos_id
    params = model.params
    logits, (_, _, _, k, v, *_) = _forward(params, cond.ids, 1)
    row = logits[0]
    keys = np.empty((model.max_context, model.dim))
    values = np.empty((model.max_context, model.dim))
    keys[:n], values[:n] = k, v
    out: list[str] = []
    for pos in range(n - 1, n + max_len - 1):
        if pos >= n:
            x = params["tok_emb"][nxt] + params["pos_emb"][pos]
            keys[pos] = x @ params["w_key"]
            values[pos] = x @ params["w_value"]
            row, _ = _block(params, x, keys[: pos + 1], values[: pos + 1])
        nxt = int(row.argmax())
        if nxt == eos:
            break
        out.append(model.vocab.tokens[nxt])
    return out


def check_decode_len(max_len: int, max_context: int, name: str) -> None:
    """The one decode-length rule: InvalidConfig naming ``name`` unless
    ``1 <= max_len < max_context``, so the conditioning keeps two or more positions."""
    check_int(max_len, name, 1)
    if max_len >= max_context:
        raise InvalidConfig(
            f"{name} must be in [1, {max_context - 1}] for max_context {max_context}, got {max_len}"
        )


def generate_outputs(
    model: GeneratorModel, records: Sequence[AugmentedRecord], max_len: int
) -> list[tuple[int, list[str]]]:
    """Greedy output tokens for each record, as ``(table_id, tokens)``.

    The conditioning gets ``max_context - max_len + 1`` positions, the
    most a decode of ``max_len`` tokens leaves it.
    """
    check_decode_len(max_len, model.max_context, "max_len")
    budget = model.max_context - max_len + 1
    outputs = []
    for rec in records:
        cond, _ = _conditioning(rec, model.vocab, budget)
        outputs.append((rec.table_id, decode_greedy(model, cond, max_len)))
    max_len_stops = sum(1 for _, tokens in outputs if len(tokens) >= max_len)
    log.info(
        "decoded %d outputs: %d stopped at <eos>, %d at max_len %d",
        len(outputs), len(outputs) - max_len_stops, max_len_stops, max_len,
    )
    return outputs


def write_outputs(path: str | Path, outputs: Sequence[tuple[int, Sequence[str]]]) -> None:
    """One JSON record per table: ``{"output": str, "table_id": int}``."""
    write_jsonl(
        path,
        ({"output": " ".join(tokens), "table_id": table_id} for table_id, tokens in outputs),
    )


def read_outputs(path: str | Path) -> dict[int, str]:
    """Read an outputs file back as ``{table_id: output}``.

    A record without an integer ``table_id`` and a string ``output``,
    or with a ``table_id`` seen before, is a :class:`ParseError`.
    """
    seen: set[int] = set()

    def parse(record: dict) -> tuple[int, str]:
        table_id = unique_id(record.get("table_id"), "table_id", seen)
        output = record["output"]
        if not isinstance(output, str):
            raise ParseError("'output' must be a string")
        return table_id, output

    return dict(read_jsonl(path, parse))


def _conditioning(
    record: AugmentedRecord, vocab: Vocabulary, budget: int
) -> tuple[ConditioningInput, list[list[str]]]:
    """A record's conditioning within ``budget`` positions, and its prototypes' tokens."""
    proto_tokens = [tokenize(p) for p in record.prototypes]
    return build_conditioning(record.table, proto_tokens, vocab, budget), proto_tokens


def _record_ids(
    vocab: Vocabulary, record: AugmentedRecord, max_context: int
) -> tuple[list[int], list[int], list[int]] | None:
    """A training record's conditioning, target and negative ids, its prototypes
    clipped to the room the target leaves; None when <bos>, the table and the target
    alone exceed ``max_context``, and InputTooLong when <bos> and the table do."""
    y_tokens = tokenize(record.reference)
    y_ids = vocab.ids(y_tokens) + [vocab.eos_id]
    table_positions = 1 + len(record.table.tokens)
    if table_positions > max_context:
        raise InputTooLong(
            f"linearized table needs {table_positions} positions, max_context is {max_context}"
        )
    if table_positions + len(y_ids) > max_context:
        return None
    cond, proto_tokens = _conditioning(record, vocab, max_context - len(y_ids))
    neg = negative_token_ids(vocab, y_tokens + [vocab.tokens[vocab.eos_id]], proto_tokens)
    return list(cond.ids), y_ids, neg


def train_generator(
    dataset: Sequence[AugmentedRecord], config: GeneratorTrainConfig, vocab: Vocabulary
) -> tuple[GeneratorModel, list[float]]:
    """Train on an augmented dataset over ``vocab``; deterministic for a fixed seed.

    A record's prototypes are clipped to the positions its target leaves in
    ``max_context``; a record whose <bos>, table and target alone do not fit is
    skipped with a warning. Every step writes its gradients and intermediates into
    arrays held for the whole run (:class:`StepBuffers`). Returns the model and mean
    per-record loss for each epoch.
    """
    if len(dataset) == 0:
        raise InvalidConfig("generator training needs a non-empty dataset")

    model = init_generator(vocab, config)
    prepared = []
    for rec in dataset:
        ids = _record_ids(vocab, rec, config.max_context)
        if ids is None:
            log.warning(
                "skipping record %d: table plus target exceeds max_context %d",
                rec.table_id,
                config.max_context,
            )
            continue
        prepared.append(ids)
    if not prepared:
        log.warning("no trainable records after length filtering; returning initial model")
        return model, []

    opt = Adam(model.params, lr=config.learning_rate)
    buffers = StepBuffers()
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(prepared))
        total = 0.0
        for idx in order:
            x_ids, y_ids, neg = prepared[int(idx)]
            neg = neg if config.ca_enabled else ()
            lm, ca, grads = loss_and_grads(model, x_ids, y_ids, neg, True, True, buffers)
            opt.step(grads)
            total += lm + ca
        epoch_losses.append(total / len(prepared))
        log.info("generator epoch %d mean loss %.6f", epoch, epoch_losses[-1])
    return model, epoch_losses


def save_generator(path: str | Path, model: GeneratorModel) -> None:
    payload = {
        "tokens": list(model.vocab.tokens),
        "params": {key: encode_array(model.params[key]) for key in PARAM_KEYS},
    }
    write_model_file(path, "generator", payload)


def load_generator(path: str | Path) -> GeneratorModel:
    def build(payload: dict) -> GeneratorModel:
        vocab = Vocabulary.from_tokens(payload["tokens"])
        missing = [t for t in RESERVED_TOKENS if t not in vocab]
        if missing:
            raise ParseError(f"generator vocabulary lacks {missing}")
        known_keys(payload["params"], PARAM_KEYS, "params")
        params = {key: decode_array(value, key, 2) for key, value in payload["params"].items()}
        return GeneratorModel(vocab=vocab, params=params)

    return read_model_file(path, "generator", ("tokens", "params"), build)
