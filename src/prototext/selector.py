"""Trainable prototype selector.

The selector scores a (table, sentence) pair by mean-pooling learned
token embeddings over the concatenated sequence

    [table.tokens; <sep>; sentence]

and applying a linear projection: ``f = w . mean(E[tokens])``. Every
pair, in scoring, selection and training alike, goes through one id
builder (``_pair_ids``) and one pooling function (``_pooled_rows``), so
a pair's score has the same bits whichever path computed it. It is
trained with a margin-ranking objective: for each example the reference
must outscore each of k sampled negative candidates by a margin of 1,

    L = sum_j max(0, 1 - f(T, y) + f(T, R_j)),

with gradients computed analytically (the hinge subgradient at exactly
zero slack is taken to be 0). A constant offset on the scores would
cancel inside every hinge term and move no ranking, so f has none.
Training is deterministic for a fixed seed: embeddings start uniform in
(-0.1, 0.1), the projection at zero, updates use Adam, and the k
negatives are resampled every epoch from a per-epoch seeded generator. A
step's embedding gradient is nonzero only on the rows of the tokens in
its active hinge terms; it is computed and handed to Adam on those rows
alone, which gives the same bits as the dense gradient. A step whose
every hinge term is met has no rows and a zero projection gradient; Adam
still decays its moments, but skips the parameter write when it can
prove the write moves nothing (:mod:`prototext.optim`), which it does
for most steps of a converged run, with the same bits.
``train_selector`` logs how many steps that was.

Scoring and selection never mutate the model, so a trained model can be
shared across threads; training runs single-threaded on its own arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidConfig, InvalidInput, InsufficientNegatives, ParseError, check_fields, check_int,
)
from .optim import Adam
from .retrieval import CandidateSet
from .tabledata import (
    Corpus, Example, Table, decode_array, encode_array, read_jsonl, read_model_file, unique_id,
    write_jsonl, write_model_file,
)
from .tokenization import SEP, UNK, tokenize
from .vocab import Vocabulary

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectorModel:
    """Mean-pooled embedding scorer: ``f = w . h``."""

    vocab: Vocabulary
    embeddings: np.ndarray  # (V, d) float64
    projection: np.ndarray  # (d,) float64

    def __post_init__(self):
        if UNK not in self.vocab or SEP not in self.vocab:
            raise InvalidConfig("selector vocabulary must contain <unk> and <sep>")
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.vocab):
            raise InvalidConfig("embedding matrix shape does not match vocabulary")
        if self.embeddings.shape[1] < 1:
            raise InvalidConfig("embedding dimension must be >= 1")
        if self.projection.shape != (self.embeddings.shape[1],):
            raise InvalidConfig("projection width does not match the embedding dimension")
        if not (np.all(np.isfinite(self.embeddings)) and np.all(np.isfinite(self.projection))):
            raise InvalidConfig("selector parameters must be finite")


@dataclass(frozen=True)
class SelectorTrainConfig:
    k: int = 5
    learning_rate: float = 1e-2
    epochs: int = 30
    seed: int = 0
    dim: int = 32

    def __post_init__(self):
        check_fields(self, k=1, epochs=0, seed=0, dim=1)
        if self.learning_rate <= 0:
            raise InvalidConfig(f"config field learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class SelectorGradients:
    """Gradients of the margin loss, one array per parameter."""

    embeddings: np.ndarray
    projection: np.ndarray


@dataclass(frozen=True)
class AugmentedRecord:
    """One (table, prototypes, reference) training record for the generator."""

    table_id: int
    table: Table
    prototype_ids: tuple[int, ...]
    prototypes: tuple[str, ...]
    reference: str


def _pair_ids(
    vocab: Vocabulary, table: Table, sentences: Iterable[Sequence[str]]
) -> list[list[int]]:
    """The ids of ``[table.tokens; <sep>; sentence]`` for each sentence."""
    head = [*vocab.ids(table.tokens), vocab.sep_id]
    return [head + vocab.ids(sentence) for sentence in sentences]


def _pooled_rows(emb: np.ndarray, id_lists: Sequence[Sequence[int]]) -> np.ndarray:
    """The mean embedding of each id list, one row per list, from a single gather.

    Each list is summed in sorted-id order, so its mean is bit-identical
    under any permutation of its tokens, and on its own slice of the
    gather, so its row has the same bits whichever lists share the call.
    ``add.reduce`` then divide is exactly what ``ndarray.mean`` computes,
    without its per-call bookkeeping.
    """
    ordered = [sorted(ids) for ids in id_lists]
    rows = emb.take(list(chain.from_iterable(ordered)), axis=0)
    sums = np.empty((len(ordered), emb.shape[1]))
    end = 0
    for i, ids in enumerate(ordered):
        start, end = end, end + len(ids)
        np.add.reduce(rows[start:end], axis=0, out=sums[i])
    return sums / np.array([len(ids) for ids in ordered])[:, None]


def encode_pair(model: SelectorModel, table: Table, sentence: Sequence[str]) -> np.ndarray:
    """Mean embedding of ``[table.tokens; <sep>; sentence]``.

    Out-of-vocabulary tokens fall back to the ``<unk>`` row; an empty
    sentence leaves the table and separator positions in the mean.
    """
    return _pooled_rows(model.embeddings, _pair_ids(model.vocab, table, [sentence]))[0]


def score_pair(model: SelectorModel, table: Table, sentence: Sequence[str]) -> float:
    return float(model.projection.dot(encode_pair(model, table, sentence)))


def _hinge_terms(
    emb: np.ndarray, w: np.ndarray, ids: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Pooled reference, pooled negatives (one row each) and the slack of each negative,
    from the pair ids of the reference followed by those of the negatives."""
    pooled = _pooled_rows(emb, ids)
    h_y, h_negs = pooled[0], pooled[1:]
    f_y = float(w.dot(h_y))
    slacks = [1.0 - f_y + float(w.dot(h_j)) for h_j in h_negs]
    return h_y, h_negs, slacks


def _margin_ids(
    model: SelectorModel, table: Table, reference: Sequence[str], negatives: Sequence[Sequence[str]]
) -> list[list[int]]:
    """The pair ids of the reference, then of each negative; no negative is InvalidConfig."""
    if len(negatives) == 0:
        raise InvalidConfig("margin loss needs at least one negative")
    return _pair_ids(model.vocab, table, [reference, *negatives])


def margin_loss(
    model: SelectorModel,
    table: Table,
    reference: Sequence[str],
    negatives: Sequence[Sequence[str]],
) -> float:
    """Summed hinge loss of the reference against each negative."""
    ids = _margin_ids(model, table, reference, negatives)
    _, _, slacks = _hinge_terms(model.embeddings, model.projection, ids)
    return sum(max(0.0, s) for s in slacks)


def _loss_and_grads(
    emb: np.ndarray, w: np.ndarray, ids: Sequence[Sequence[int]]
) -> tuple[float, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Hinge loss plus analytic gradients w.r.t. embeddings and projection, from the
    pair ids of the reference followed by those of the negatives.

    The embedding gradient for vocabulary row v is ``c_v * w`` where c_v
    accumulates occurrence/length weights over the active hinge
    sequences; it is returned as ``(rows, values)``, the rows with
    ``c_v != 0`` in increasing order and their gradient rows. Every other
    row of the gradient is zero.
    """
    h_y, h_negs, slacks = _hinge_terms(emb, w, ids)
    ids_y, *ids_negs = ids
    loss = 0.0
    d_w = np.zeros_like(w)
    coeff = np.zeros(emb.shape[0])
    inv_len_y = 1.0 / len(ids_y)
    for ids_j, h_j, slack in zip(ids_negs, h_negs, slacks):
        if slack <= 0.0:
            continue
        loss += slack
        d_w += h_j - h_y
        np.add.at(coeff, ids_j, 1.0 / len(ids_j))
        np.add.at(coeff, ids_y, -inv_len_y)
    rows = np.flatnonzero(coeff)
    return loss, (rows, np.outer(coeff[rows], w)), d_w


def margin_loss_grad(
    model: SelectorModel,
    table: Table,
    reference: Sequence[str],
    negatives: Sequence[Sequence[str]],
) -> SelectorGradients:
    """Exact gradients of :func:`margin_loss` for every parameter group."""
    ids = _margin_ids(model, table, reference, negatives)
    _, (rows, values), d_w = _loss_and_grads(model.embeddings, model.projection, ids)
    d_emb = np.zeros_like(model.embeddings)
    d_emb[rows] = values
    return SelectorGradients(embeddings=d_emb, projection=d_w)


def shared_vocabulary(corpus: Corpus, examples: Sequence[Example]) -> Vocabulary:
    """The vocabulary of the selector and of a generator trained with a corpus: the
    reserved tokens, then the sorted tokens of the corpus, linearized tables and references."""
    streams = [s.tokens for s in corpus]
    streams += [ex.table.tokens for ex in examples]
    streams += [tokenize(ex.reference) for ex in examples]
    return Vocabulary.build(streams)


TrainExample = tuple[Table, str, CandidateSet]


def training_triples(
    examples: Sequence[Example], cands: Mapping[int, CandidateSet]
) -> list[TrainExample]:
    """Each example's (table, reference, candidates); one without candidates is InvalidInput."""
    triples = []
    for ex in examples:
        if ex.id not in cands:
            raise InvalidInput(f"no candidates for table {ex.id}")
        triples.append((ex.table, ex.reference, cands[ex.id]))
    return triples


def train_selector(
    examples: Sequence[TrainExample],
    corpus: Corpus,
    config: SelectorTrainConfig,
) -> tuple[SelectorModel, list[float]]:
    """Fit the selector on (table, reference, candidates) triples.

    Candidates are assumed to be leakage-filtered already. Negatives are
    drawn uniformly without replacement from each example's candidate
    set, reseeded per epoch, and parameters are updated per example with
    Adam. Returns the trained model and the mean loss of each epoch.
    """
    if not examples:
        raise InvalidConfig("selector training needs at least one example")
    for table, _, cands in examples:
        if len(cands) < config.k:
            raise InsufficientNegatives(
                f"example {cands.table_id} has {len(cands)} candidates, needs k={config.k}"
            )

    vocab = shared_vocabulary(corpus, [Example(c.table_id, t, ref) for t, ref, c in examples])
    rng = np.random.default_rng(config.seed)
    emb = rng.uniform(-0.1, 0.1, size=(len(vocab), config.dim))
    w = np.zeros(config.dim)

    references = [tokenize(ref) for _, ref, _ in examples]
    opt = Adam({"emb": emb, "w": w}, lr=config.learning_rate)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        ep_rng = np.random.default_rng([config.seed, epoch])
        total = 0.0
        for (table, _, cands), reference in zip(examples, references):
            picks = ep_rng.choice(len(cands), size=config.k, replace=False)
            negatives = [corpus.get(cands.entries[p][0]).tokens for p in picks]
            ids = _pair_ids(vocab, table, [reference, *negatives])
            loss, (rows, d_emb), d_w = _loss_and_grads(emb, w, ids)
            opt.step({"emb": d_emb, "w": d_w}, rows={"emb": rows})
            total += loss
        epoch_losses.append(total / len(examples))
        log.info("selector epoch %d mean loss %.6f", epoch, epoch_losses[-1])
    log.info("selector: %d of %d Adam steps moved no parameter", opt.skipped, opt.t)
    return SelectorModel(vocab=vocab, embeddings=emb, projection=w), epoch_losses


def select_top_n(
    model: SelectorModel,
    table: Table,
    candidates: CandidateSet,
    corpus: Corpus,
    n: int,
) -> CandidateSet:
    """The min(n, |candidates|) candidates with the highest selector scores, best first.

    Because the selection objective is a sum of per-sentence scores, the
    maximizing subset is exactly the top-n individual scores; ties break
    toward the lower sentence id.
    """
    check_int(n, "n", 1)
    sids = candidates.ids()
    ids = _pair_ids(model.vocab, table, [corpus.get(sid).tokens for sid in sids])
    pooled = _pooled_rows(model.embeddings, ids)
    scored = [(sid, float(model.projection.dot(h))) for sid, h in zip(sids, pooled)]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return CandidateSet(table_id=candidates.table_id, entries=tuple(scored[:n]))


def select_prototypes(
    examples: Sequence[Example],
    candidates_by_table_id: Mapping[int, CandidateSet],
    corpus: Corpus,
    n: int,
    model: SelectorModel | None = None,
) -> list[AugmentedRecord]:
    """Choose up to n prototypes per example, one record per example.

    Without a model the candidates keep their BM25 order; with one, the
    n best-scoring candidates are chosen by :func:`select_top_n`. With
    n > 0, a table without a candidate set is InvalidInput; one whose set
    is empty, and every table when n is 0, gets no prototypes, and the
    generator then conditions on the table alone.
    """
    check_int(n, "n", 0)
    records: list[AugmentedRecord] = []
    for ex in examples:
        cands = candidates_by_table_id.get(ex.id)
        if n > 0 and cands is None:
            raise InvalidInput(f"no candidates for table {ex.id}")
        if n == 0 or len(cands) == 0:
            chosen: tuple[int, ...] = ()
        elif model is None:
            chosen = tuple(cands.ids()[:n])
        else:
            chosen = tuple(select_top_n(model, ex.table, cands, corpus, n).ids())
        records.append(
            AugmentedRecord(
                table_id=ex.id,
                table=ex.table,
                prototype_ids=chosen,
                prototypes=tuple(corpus.get(sid).text for sid in chosen),
                reference=ex.reference,
            )
        )
    return records


def write_augmented_dataset(path: str | Path, records: Iterable[AugmentedRecord]) -> None:
    write_jsonl(
        path,
        (
            {
                "table_id": rec.table_id,
                "prototype_ids": list(rec.prototype_ids),
                "prototypes": list(rec.prototypes),
                "reference": rec.reference,
            }
            for rec in records
        ),
    )


def read_augmented_dataset(path: str | Path, examples: Sequence[Example]) -> list[AugmentedRecord]:
    """Join an augmented-dataset file with its tables file; a repeated ``table_id``, or an id
    repeated within one ``prototype_ids``, is a ParseError."""
    by_id = {ex.id: ex for ex in examples}
    seen: set[int] = set()

    def parse(record: dict) -> AugmentedRecord:
        example = by_id.get(unique_id(record.get("table_id"), "table_id", seen))
        if example is None:
            raise ParseError(f"table_id {record['table_id']} not present in tables file")
        pids: set[int] = set()
        prototype_ids = tuple(unique_id(i, "prototype id", pids) for i in record["prototype_ids"])
        prototypes = record["prototypes"]
        reference = record["reference"]
        if type(prototypes) is not list or not all(
            isinstance(text, str) for text in (reference, *prototypes)
        ):
            raise ParseError("'prototypes' must be a list of strings and 'reference' a string")
        if len(prototype_ids) != len(prototypes):
            raise ParseError(f"{len(prototype_ids)} prototype_ids but {len(prototypes)} prototypes")
        return AugmentedRecord(
            table_id=example.id,
            table=example.table,
            prototype_ids=prototype_ids,
            prototypes=tuple(prototypes),
            reference=reference,
        )

    return list(read_jsonl(path, parse))


def save_selector(path: str | Path, model: SelectorModel) -> None:
    """Write the model as a versioned model file; float64 values survive bit-exactly."""
    payload = {
        "tokens": list(model.vocab.tokens),
        "embeddings": encode_array(model.embeddings),
        "projection": encode_array(model.projection),
    }
    write_model_file(path, "selector", payload)


def load_selector(path: str | Path) -> SelectorModel:
    def build(payload: dict) -> SelectorModel:
        return SelectorModel(
            vocab=Vocabulary.from_tokens(payload["tokens"]),
            embeddings=decode_array(payload["embeddings"], "embeddings", 2),
            projection=decode_array(payload["projection"], "projection", 1),
        )

    return read_model_file(path, "selector", ("tokens", "embeddings", "projection"), build)
