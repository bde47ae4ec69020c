"""The Python API boundary: each misuse of a public stage function is a named error."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from prototext.errors import (
    AllTies, DuplicateId, InputTooLong, InsufficientNegatives, InvalidConfig, InvalidInput,
    InvalidTable, ParseError, PrototextError, UnknownDocument,
)
from prototext.evaluation import bleu4, evaluate_pairs, precision_at_k, sign_test
from prototext.generator import (
    ConditioningInput, GeneratorTrainConfig, build_conditioning, check_decode_len,
    decode_greedy, generate_outputs, init_generator, next_token_dist, train_generator,
)
from prototext.retrieval import (
    CandidateSet, bm25_score, build_index, filter_leakage, retrieve, retrieve_candidates,
)
from prototext.selector import (
    SelectorModel, SelectorTrainConfig, load_selector, margin_loss, select_prototypes,
    select_top_n, train_selector, training_triples,
)
from prototext.pipeline import PipelineConfig
from prototext.synth import SyntheticSpec
from prototext.tabledata import Corpus, Example, Sentence, Table
from prototext.vocab import Vocabulary


@pytest.fixture(scope="module")
def api(tmp_path_factory):
    """Small, valid objects of every stage, for the probes to misuse one argument at a time,
    and a model file of JSON nested 100,000 deep, past every Python's parser limit."""
    corpus = Corpus([Sentence.from_text(i, t) for i, t in enumerate(
        ["the red cat sat", "a blue dog ran", "the cat ran far"])])
    table = Table.from_pairs([("name", "cat"), ("colour", "red")])
    vocab = Vocabulary.build([s.tokens for s in corpus] + [table.tokens])
    config = GeneratorTrainConfig(epochs=0, dim=4, max_context=12, max_decode_len=4)
    cands = CandidateSet(0, ((0, 2.0), (2, 1.0)))
    selector = SelectorModel(vocab=vocab, embeddings=np.zeros((len(vocab), 2)),
                             projection=np.ones(2))
    deep_model = tmp_path_factory.mktemp("api") / "selector.json"
    deep_model.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return SimpleNamespace(
        deep_model=deep_model,
        corpus=corpus, table=table, vocab=vocab, cands=cands, selector=selector,
        index=build_index(corpus), example=Example(0, table, "the red cat sat"),
        generator=init_generator(vocab, config),
        eosless_generator=init_generator(Vocabulary.from_tokens(["cat", "red"]), config),
        cond=ConditioningInput(ids=(vocab.bos_id,), table_len=0, prototype_spans=()),
        records=select_prototypes([Example(0, table, "the red cat sat")], {0: cands}, corpus, 1),
    )


def _cond(*ids):
    return ConditioningInput(ids=ids, table_len=0, prototype_spans=())


# (call on the fixture, the error it must raise): each call misuses one argument of a
# public function, and must neither return nor raise a numpy or Python error
API_MISUSE = [
    pytest.param(lambda a: decode_greedy(a.generator, _cond(-1), 2), InvalidInput,
                 id="decode-id-negative"),
    pytest.param(lambda a: decode_greedy(a.generator, _cond(10**6), 2), InvalidInput,
                 id="decode-id-past-vocabulary"),
    pytest.param(lambda a: decode_greedy(a.generator, _cond("a"), 2), InvalidInput,
                 id="decode-id-string"),
    pytest.param(lambda a: decode_greedy(a.generator, _cond(True), 2), InvalidInput,
                 id="decode-id-bool"),
    pytest.param(lambda a: decode_greedy(a.generator, a.cond, 2.5), InvalidConfig,
                 id="decode-max-len-float"),
    pytest.param(lambda a: decode_greedy(a.generator, a.cond, True), InvalidConfig,
                 id="decode-max-len-bool"),
    pytest.param(lambda a: decode_greedy(a.generator, a.cond, 0), InvalidConfig,
                 id="decode-max-len-zero"),
    pytest.param(lambda a: decode_greedy(a.generator, a.cond, 13), InputTooLong,
                 id="decode-past-context"),
    pytest.param(lambda a: decode_greedy(a.generator, _cond(), 2), InvalidInput,
                 id="decode-empty-conditioning"),
    pytest.param(lambda a: decode_greedy(a.eosless_generator, _cond(0), 2), InvalidInput,
                 id="decode-vocabulary-without-eos"),
    pytest.param(lambda a: next_token_dist(a.generator, _cond(-1), []), InvalidInput,
                 id="next-token-id-negative"),
    pytest.param(lambda a: check_decode_len("3", 12, "max_len"), InvalidConfig,
                 id="decode-len-string"),
    pytest.param(lambda a: generate_outputs(a.generator, [], 12), InvalidConfig,
                 id="generate-max-len-at-context"),
    pytest.param(lambda a: build_conditioning(a.table, [], a.vocab, 2), InputTooLong,
                 id="conditioning-table-past-budget"),
    pytest.param(lambda a: build_conditioning(a.table, [], a.vocab, 20.5), InvalidConfig,
                 id="conditioning-max-len-float"),
    pytest.param(lambda a: train_generator([], GeneratorTrainConfig(epochs=1), a.vocab),
                 InvalidConfig, id="train-generator-no-records"),
    pytest.param(lambda a: GeneratorTrainConfig(learning_rate=0.0), InvalidConfig,
                 id="generator-config-learning-rate-zero"),
    pytest.param(lambda a: train_selector([], a.corpus, SelectorTrainConfig(k=1)),
                 InvalidConfig, id="train-selector-no-examples"),
    pytest.param(lambda a: train_selector([(a.table, "cat", a.cands)], a.corpus,
                                          SelectorTrainConfig(k=3)),
                 InsufficientNegatives, id="train-selector-too-few-candidates"),
    pytest.param(lambda a: SelectorTrainConfig(k=0), InvalidConfig, id="selector-config-k-zero"),
    pytest.param(lambda a: SelectorTrainConfig(learning_rate=0), InvalidConfig,
                 id="selector-config-learning-rate-zero"),
    pytest.param(lambda a: training_triples([a.example], {}), InvalidInput,
                 id="triples-missing-candidates"),
    pytest.param(lambda a: margin_loss(a.selector, a.table, ["cat"], []), InvalidConfig,
                 id="margin-loss-no-negatives"),
    pytest.param(lambda a: select_top_n(a.selector, a.table, a.cands, a.corpus, 0),
                 InvalidConfig, id="select-top-n-zero"),
    pytest.param(lambda a: select_top_n(a.selector, a.table, a.cands, a.corpus, 1.5),
                 InvalidConfig, id="select-top-n-float"),
    pytest.param(lambda a: select_prototypes([a.example], {0: a.cands}, a.corpus, -1),
                 InvalidConfig, id="select-prototypes-negative-n"),
    pytest.param(lambda a: select_prototypes([a.example], {0: a.cands}, a.corpus, 1.5),
                 InvalidConfig, id="select-prototypes-float-n"),
    pytest.param(lambda a: select_prototypes([a.example], {}, a.corpus, 1), InvalidInput,
                 id="select-prototypes-missing-candidates"),
    pytest.param(lambda a: select_top_n(a.selector, a.table, CandidateSet(0, ((99, 1.0),)),
                                        a.corpus, 1),
                 UnknownDocument, id="select-unknown-sentence"),
    pytest.param(lambda a: retrieve(a.index, a.table, 0), InvalidConfig, id="retrieve-m-zero"),
    pytest.param(lambda a: retrieve(a.index, a.table, 2.5), InvalidConfig, id="retrieve-m-float"),
    pytest.param(lambda a: retrieve(a.index, a.table, True), InvalidConfig, id="retrieve-m-bool"),
    pytest.param(lambda a: retrieve_candidates(a.index, [a.example], 2.5, a.corpus),
                 InvalidConfig, id="retrieve-candidates-m-float"),
    pytest.param(lambda a: bm25_score(a.index, ["cat"], 99), UnknownDocument,
                 id="bm25-unknown-document"),
    pytest.param(lambda a: filter_leakage(CandidateSet(0, ((99, 1.0),)), a.corpus, "x"),
                 UnknownDocument, id="leakage-unknown-sentence"),
    pytest.param(lambda a: Corpus([Sentence.from_text(1, "a"), Sentence.from_text(1, "b")]),
                 DuplicateId, id="corpus-repeated-id"),
    pytest.param(lambda a: Table.from_pairs([]), InvalidTable, id="table-no-pairs"),
    pytest.param(lambda a: bleu4([["a"]], []), InvalidInput, id="bleu-unpaired"),
    pytest.param(lambda a: evaluate_pairs([["a"]], []), InvalidInput, id="evaluate-unpaired"),
    pytest.param(lambda a: precision_at_k([1], {1}, 0), InvalidConfig, id="precision-k-zero"),
    pytest.param(lambda a: precision_at_k([1], {1}, 1.5), InvalidConfig, id="precision-k-float"),
    pytest.param(lambda a: sign_test([1.0], [1.0]), AllTies, id="sign-test-all-ties"),
    pytest.param(lambda a: sign_test([], []), InvalidInput, id="sign-test-empty"),
    pytest.param(lambda a: load_selector(a.deep_model), ParseError, id="load-selector-deep-json"),
]


@pytest.mark.parametrize("call, error", API_MISUSE)
def test_api_misuse_is_a_named_error(api, call, error):
    assert issubclass(error, PrototextError)
    with pytest.raises(error):
        call(api)


def _config(cls, **fields):
    """A config of class ``cls`` with ``fields`` set; a PipelineConfig also gets its paths."""
    paths = dict(corpus_path="c", train_tables_path="t", test_tables_path="s", out_dir="o")
    return cls(**(paths if cls is PipelineConfig else {}), **fields)


CONFIG_BOUNDS = {
    PipelineConfig: {"m": 1, "n": 0, "seed": 0},
    SelectorTrainConfig: {"k": 1, "epochs": 0, "seed": 0, "dim": 1},
    GeneratorTrainConfig: {"epochs": 0, "seed": 0, "dim": 1, "max_context": 2,
                           "max_decode_len": 1},
    SyntheticSpec: {"num_entities": 1, "corpus_size": 1, "vocab_size": 1, "seed": 0},
}

# (call on the fixture with one count, the name the error gives it, its lower bound):
# every bounded config field, then every count argument of the Python API
BOUNDS = [
    *(pytest.param(lambda a, v, cls=cls, field=field: _config(cls, **{field: v}),
                   f"config field {field}", low, id=f"{cls.__name__}-{field}")
      for cls, fields in CONFIG_BOUNDS.items() for field, low in fields.items()),
    pytest.param(lambda a, v: retrieve(a.index, a.table, v), "m", 1, id="retrieve"),
    pytest.param(lambda a, v: retrieve_candidates(a.index, [a.example], v, a.corpus), "m", 1,
                 id="retrieve_candidates"),
    pytest.param(lambda a, v: select_top_n(a.selector, a.table, a.cands, a.corpus, v), "n", 1,
                 id="select_top_n"),
    pytest.param(lambda a, v: select_prototypes([a.example], {0: a.cands}, a.corpus, v), "n", 0,
                 id="select_prototypes"),
    pytest.param(lambda a, v: precision_at_k([1], {1}, v), "k", 1, id="precision_at_k"),
    pytest.param(lambda a, v: decode_greedy(a.generator, a.cond, v), "max_len", 1,
                 id="decode_greedy"),
    pytest.param(lambda a, v: build_conditioning(a.table, [], a.vocab, v), "max_len", 1,
                 id="build_conditioning"),
    pytest.param(lambda a, v: check_decode_len(v, 12, "max_len"), "max_len", 1,
                 id="check_decode_len"),
]


@pytest.mark.parametrize("call, name, low", BOUNDS)
def test_count_below_its_bound_is_named(api, call, name, low):
    with pytest.raises(InvalidConfig, match=f"^{name} must be an int >= {low}, got {low - 1}$"):
        call(api, low - 1)


@pytest.mark.parametrize(
    "rate", [0, -1.0, math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-past-float")]
)
@pytest.mark.parametrize("cls", [SelectorTrainConfig, GeneratorTrainConfig])
def test_learning_rate_must_be_finite_and_positive(cls, rate):
    message = f"config field learning_rate must be finite and > 0, got {rate!r}"
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        cls(learning_rate=rate)


def test_diverged_generator_training_names_a_parameter(api):
    """Adam rewrites the parameters in place; the trained model is checked as built."""
    config = GeneratorTrainConfig(learning_rate=1e300, epochs=2, dim=4, max_context=32)
    with pytest.raises(InvalidConfig, match=r"^generator parameter \w+ is not finite$"):
        train_generator(api.records, config, api.vocab)
