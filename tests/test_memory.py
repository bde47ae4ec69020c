"""Memory guards on the generator, measured with tracemalloc (numpy reports its
array buffers to it): model files are written and read without a per-value
Python object, and a warmed-up training epoch allocates no parameter-sized array
and holds every array that grows with a record's sequence."""

import logging
import tracemalloc

import pytest

from prototext import generator
from prototext.generator import (
    GeneratorTrainConfig, init_generator, load_generator, save_generator, train_generator,
)
from prototext.retrieval import build_index, retrieve
from prototext.selector import select_prototypes, shared_vocabulary
from prototext.tabledata import load_corpus, parse_tables_file


@pytest.fixture(scope="module")
def records(tiny_bench):
    """The tiny benchmark's training records with three BM25 prototypes each, and their vocabulary."""
    corpus = load_corpus(tiny_bench["corpus"])
    train = parse_tables_file(tiny_bench["train_tables"])
    index = build_index(corpus)
    cands = {ex.id: retrieve(index, ex.table, 20, table_id=ex.id) for ex in train}
    return select_prototypes(train, cands, corpus, 3), shared_vocabulary(corpus, train)


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_model_file_round_trip_peak_is_a_small_multiple_of_the_parameters(
    records, tmp_path, traced
):
    # float lists cost about 13 times the raw bytes here: one Python float
    # and about 21 characters of JSON per value
    model = init_generator(records[1], GeneratorTrainConfig())
    raw = sum(p.nbytes for p in model.params.values())
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    save_generator(tmp_path / "generator.json", model)
    load_generator(tmp_path / "generator.json")
    assert tracemalloc.get_traced_memory()[1] - start < 4 * raw


class _EpochRises(logging.Handler):
    """The rise of the traced peak over each epoch's start, read at each epoch's log line."""

    def __init__(self):
        super().__init__()
        self.rises: list[int] = []
        self.start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def emit(self, record):
        self.rises.append(tracemalloc.get_traced_memory()[1] - self.start)
        self.start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()


def _epoch_rises(dataset, config, vocab) -> list[int]:
    """train_generator under ``_EpochRises``: the traced peak's rise in each epoch."""
    log = logging.getLogger(generator.__name__)
    level = log.level
    rises = _EpochRises()
    log.addHandler(rises)
    log.setLevel(logging.INFO)
    try:
        train_generator(dataset, config, vocab)
    finally:
        log.removeHandler(rises)
        log.setLevel(level)
    assert len(rises.rises) == config.epochs
    return rises.rises


def test_warm_training_epoch_allocates_no_parameter_sized_array(records, traced):
    # a long context makes pos_emb the largest group, far above what one
    # record's forward and backward hold at a time; a fresh gradient set
    # per step, or Adam temporaries per group, would exceed it
    dataset, vocab = records
    config = GeneratorTrainConfig(epochs=3, dim=32, max_context=2048)
    sizes = {key: p.nbytes for key, p in init_generator(vocab, config).params.items()}
    assert max(sizes, key=sizes.get) == "pos_emb"
    rises = _epoch_rises(dataset, config, vocab)
    assert max(rises[1:]) < sizes["pos_emb"], (rises, sizes)


def test_warm_training_step_holds_its_sequence_sized_arrays(records, traced):
    # A step's arrays of (positions, dim) and (rows, V) come from the run's
    # StepBuffers; the one transient left is np.take's copy of the
    # embeddings. A dozen such arrays freed at each step, as when every step
    # allocated them, let glibc trim and regrow the heap on every step.
    dataset, vocab = records
    config = GeneratorTrainConfig(epochs=3)
    longest = max(
        len(x_ids) + len(y_ids)
        for x_ids, y_ids, _ in filter(None, (
            generator._record_ids(vocab, record, config.max_context) for record in dataset
        ))
    )
    sequence_bytes = 8 * longest * config.dim
    rises = _epoch_rises(dataset, config, vocab)
    assert max(rises[1:]) < 2 * sequence_bytes, (rises, sequence_bytes)
