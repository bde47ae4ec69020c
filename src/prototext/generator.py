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
fixed single-threaded update order. next_token_dist runs the full
forward over the whole prefix. decode_greedy decodes incrementally: it
keeps a key/value cache that lives only in its own call, runs one
forward over the conditioning, then one single-position forward per
emitted token, and emits the same tokens as a full forward per token.
generate_outputs decodes a list of records; write_outputs and
read_outputs own the ``{"output", "table_id"}`` JSONL outputs format.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, InputTooLong, ParseError
from .optim import Adam
from .selector import AugmentedRecord
from .tabledata import (
    Table, json_int, json_numbers, read_jsonl, read_model_file, unique_id, write_jsonl,
    write_model_file,
)
from .tokenization import RESERVED_TOKENS, tokenize
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
        if self.learning_rate <= 0:
            raise InvalidConfig("learning rate must be positive")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        if self.dim < 1 or self.max_context < 2 or self.max_decode_len < 1:
            raise InvalidConfig("model size fields must be positive")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")


@dataclass(frozen=True)
class ConditioningInput:
    """Token ids of [<bos>; table; <sep>; S_1; <sep>; ...] with segment info."""

    ids: tuple[int, ...]
    table_len: int
    prototype_spans: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class GeneratorModel:
    vocab: Vocabulary
    max_context: int
    params: dict[str, np.ndarray]

    def __post_init__(self):
        missing = set(PARAM_KEYS) - set(self.params)
        if missing:
            raise InvalidConfig(f"generator parameters missing: {sorted(missing)}")
        tok_emb = self.params["tok_emb"]
        if tok_emb.ndim != 2 or tok_emb.shape[0] != len(self.vocab) or tok_emb.shape[1] < 1:
            raise InvalidConfig("token embedding must be a (vocabulary size, dim >= 1) matrix")
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
    return GeneratorModel(vocab=vocab, max_context=config.max_context, params=params)


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


def _forward(
    params: dict[str, np.ndarray],
    ids: Sequence[int],
    kv: tuple[np.ndarray, np.ndarray] | None = None,
    start: int = 0,
):
    """Forward pass over ``ids`` placed at positions ``start``, ``start+1``, ...

    ``kv`` is an optional pair of (max_context, dim) key/value buffers.
    When given, the keys and values of ``ids`` are written to rows
    ``start:start+n`` and the queries attend over rows ``:start+n``, so
    rows before ``start`` must already hold the keys and values of the
    earlier positions. Without it, ``start`` must be 0.
    """
    n = len(ids)
    d = params["tok_emb"].shape[1]
    x0 = params["tok_emb"][list(ids)] + params["pos_emb"][start : start + n]
    q = x0 @ params["w_query"]
    k = x0 @ params["w_key"]
    v = x0 @ params["w_value"]
    if kv is not None:
        kv[0][start : start + n] = k
        kv[1][start : start + n] = v
        k = kv[0][: start + n]
        v = kv[1][: start + n]
    scores = (q @ k.T) / math.sqrt(d)
    causal = np.tril(np.ones((n, start + n), dtype=bool), k=start)
    scores = np.where(causal, scores, -np.inf)
    shifted = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    att = expd / expd.sum(axis=1, keepdims=True)
    ctx = att @ v
    x1 = x0 + ctx @ params["w_attn_out"]
    a = np.tanh(x1 @ params["w_ff_in"])
    x2 = x1 + a @ params["w_ff_out"]
    logits = x2 @ params["w_out"]
    cache = (list(ids), x0, q, k, v, att, ctx, x1, a, x2)
    return logits, cache


def _backward(params: dict[str, np.ndarray], cache, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    ids, x0, q, k, v, att, ctx, x1, a, x2 = cache
    n = len(ids)
    d = params["tok_emb"].shape[1]
    grads: dict[str, np.ndarray] = {}

    grads["w_out"] = x2.T @ d_logits
    d_x2 = d_logits @ params["w_out"].T

    d_x1 = d_x2.copy()
    d_a = d_x2 @ params["w_ff_out"].T
    grads["w_ff_out"] = a.T @ d_x2
    d_u = d_a * (1.0 - a * a)
    grads["w_ff_in"] = x1.T @ d_u
    d_x1 += d_u @ params["w_ff_in"].T

    d_ctx = d_x1 @ params["w_attn_out"].T
    grads["w_attn_out"] = ctx.T @ d_x1
    d_x0 = d_x1.copy()

    d_att = d_ctx @ v.T
    d_v = att.T @ d_ctx
    d_scores = att * (d_att - np.sum(d_att * att, axis=1, keepdims=True))
    g = d_scores / math.sqrt(d)
    d_q = g @ k
    d_k = g.T @ q
    d_x0 += d_q @ params["w_query"].T
    d_x0 += d_k @ params["w_key"].T
    d_x0 += d_v @ params["w_value"].T
    grads["w_query"] = x0.T @ d_q
    grads["w_key"] = x0.T @ d_k
    grads["w_value"] = x0.T @ d_v

    grads["tok_emb"] = np.zeros_like(params["tok_emb"])
    np.add.at(grads["tok_emb"], ids, d_x0)
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:n] = d_x0
    return grads


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward_losses(
    model: GeneratorModel,
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    negative_ids: Sequence[int],
):
    """Forward pass and both loss terms for one id-level sequence pair.

    Also returns what the backward pass needs: the logits and forward
    cache, the target rows' probabilities, the target ids and the sorted
    negative ids.
    """
    if len(y_ids) == 0:
        raise InvalidConfig("target sequence must be non-empty")
    seq = list(x_ids) + list(y_ids)
    if len(seq) > model.max_context:
        raise InputTooLong(
            f"sequence needs {len(seq)} positions, max_context is {model.max_context}"
        )
    logits, cache = _forward(model.params, seq)
    first = len(x_ids) - 1
    logp = _log_softmax(logits[first : first + len(y_ids)])
    probs = np.exp(logp)
    targets = np.asarray(list(y_ids))
    lm = float(-logp[np.arange(len(y_ids)), targets].sum())
    neg = sorted(set(int(t) for t in negative_ids))
    ca = 0.0
    if neg:
        ca = float(-np.log(np.maximum(1.0 - probs[:, neg], CA_CLAMP)).sum())
    return lm, ca, (logits, cache, probs, targets, neg)


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
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Both loss terms plus exact gradients of the selected combination.

    The gradient dict corresponds to ``include_lm * L_LM +
    include_ca * L_CA``, which lets either objective be checked in
    isolation. With no negatives ``L_CA`` is 0.0 and adds no gradient.
    """
    lm, ca, (logits, cache, probs, targets, neg) = _forward_losses(
        model, x_ids, y_ids, negative_ids
    )
    d_rows = np.zeros_like(probs)
    if include_lm:
        d_rows += probs
        d_rows[np.arange(len(targets)), targets] -= 1.0
    if include_ca and neg:
        one_minus = 1.0 - probs[:, neg]
        coef = np.where(one_minus > CA_CLAMP, probs[:, neg] / one_minus, 0.0)
        d_rows[:, neg] += coef
        d_rows -= probs * coef.sum(axis=1, keepdims=True)
    d_logits = np.zeros_like(logits)
    first = len(x_ids) - 1
    d_logits[first : first + len(y_ids)] = d_rows
    return lm, ca, _backward(model.params, cache, d_logits)


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


def next_token_dist(
    model: GeneratorModel,
    cond: ConditioningInput,
    prefix: Sequence[str],
) -> np.ndarray:
    """Distribution over the vocabulary after consuming X and a prefix."""
    ids = list(cond.ids) + model.vocab.ids(prefix)
    return _dist_for_ids(model, ids)


def _dist_for_ids(model: GeneratorModel, ids: Sequence[int]) -> np.ndarray:
    if len(ids) > model.max_context:
        raise InputTooLong(
            f"sequence needs {len(ids)} positions, max_context is {model.max_context}"
        )
    logits, _ = _forward(model.params, ids)
    return _last_row_dist(logits)


def _last_row_dist(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits[-1:]))[0]


def decode_greedy(model: GeneratorModel, cond: ConditioningInput, max_len: int) -> list[str]:
    """Greedy decoding; stops at <eos> (excluded) or after max_len tokens.

    Argmax ties resolve toward the lowest vocabulary index. One forward
    over the conditioning fills a key/value cache local to this call;
    each later token then costs one single-position forward.
    """
    if len(cond.ids) + max_len > model.max_context:
        raise InputTooLong(
            f"conditioning ({len(cond.ids)}) plus max_len ({max_len}) exceeds "
            f"max_context {model.max_context}"
        )
    kv = (
        np.empty((model.max_context, model.dim)),
        np.empty((model.max_context, model.dim)),
    )
    ids = list(cond.ids)
    out: list[str] = []
    eos = model.vocab.eos_id
    start = 0
    for _ in range(max_len):
        logits, _ = _forward(model.params, ids[start:], kv, start)
        nxt = int(np.argmax(_last_row_dist(logits)))
        if nxt == eos:
            break
        start = len(ids)
        ids.append(nxt)
        out.append(model.vocab.tokens[nxt])
    return out


def generate_outputs(
    model: GeneratorModel, records: Sequence[AugmentedRecord], max_len: int
) -> list[tuple[int, list[str]]]:
    """Greedy output tokens for each record, as ``(table_id, tokens)``.

    The conditioning gets ``max_context - max_len`` positions, so the
    decoded tokens always fit the context window.
    """
    budget = model.max_context - max_len
    outputs = []
    for rec in records:
        protos = [tokenize(p) for p in rec.prototypes]
        cond = build_conditioning(rec.table, protos, model.vocab, budget)
        outputs.append((rec.table_id, decode_greedy(model, cond, max_len)))
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


def _record_ids(
    vocab: Vocabulary, record: AugmentedRecord, max_context: int
) -> tuple[list[int], list[int], list[int]] | None:
    proto_tokens = [tokenize(p) for p in record.prototypes]
    cond = build_conditioning(record.table, proto_tokens, vocab, max_context)
    y_tokens = tokenize(record.reference)
    y_ids = vocab.ids(y_tokens) + [vocab.eos_id]
    if len(cond.ids) + len(y_ids) > max_context:
        return None
    neg = negative_token_ids(vocab, y_tokens + [vocab.tokens[vocab.eos_id]], proto_tokens)
    return list(cond.ids), y_ids, neg


def train_generator(
    dataset: Sequence[AugmentedRecord], config: GeneratorTrainConfig, vocab: Vocabulary
) -> tuple[GeneratorModel, list[float]]:
    """Train on an augmented dataset over ``vocab``; deterministic for a fixed seed.

    Records that do not fit the context window even after prototype
    truncation are skipped with a warning. Returns the model and mean
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
                "skipping record %d: conditioning plus target exceeds max_context %d",
                rec.table_id,
                config.max_context,
            )
            continue
        prepared.append(ids)
    if not prepared:
        log.warning("no trainable records after length filtering; returning initial model")
        return model, []

    opt = Adam(model.params, lr=config.learning_rate)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(prepared))
        total = 0.0
        for idx in order:
            x_ids, y_ids, neg = prepared[int(idx)]
            neg = neg if config.ca_enabled else ()
            lm, ca, grads = loss_and_grads(model, x_ids, y_ids, neg, True, True)
            opt.step(grads)
            total += lm + ca
        epoch_losses.append(total / len(prepared))
        log.info("generator epoch %d mean loss %.6f", epoch, epoch_losses[-1])
    return model, epoch_losses


def save_generator(path: str | Path, model: GeneratorModel) -> None:
    payload = {
        "max_context": model.max_context,
        "tokens": list(model.vocab.tokens),
        "params": {key: model.params[key].tolist() for key in PARAM_KEYS},
    }
    write_model_file(path, "generator", payload)


def load_generator(path: str | Path) -> GeneratorModel:
    def build(payload: dict) -> GeneratorModel:
        vocab = Vocabulary.from_tokens(payload["tokens"])
        missing = [t for t in RESERVED_TOKENS if t not in vocab]
        if missing:
            raise ParseError(f"generator vocabulary lacks {missing}")
        params = {key: json_numbers(values, key, 2) for key, values in payload["params"].items()}
        return GeneratorModel(
            vocab=vocab, max_context=json_int(payload["max_context"], "max_context"), params=params
        )

    return read_model_file(path, "generator", build)
