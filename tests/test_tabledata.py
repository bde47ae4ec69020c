import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prototext.errors import DataError, DuplicateId, InvalidTable, ParseError
from prototext.generator import (
    GeneratorTrainConfig,
    init_generator,
    load_generator,
    read_outputs,
    save_generator,
    write_outputs,
)
from prototext.retrieval import (
    CandidateSet,
    build_index,
    load_index,
    read_candidate_sets,
    save_index,
    write_candidate_sets,
)
from prototext.selector import (
    SelectorModel,
    load_selector,
    read_augmented_dataset,
    save_selector,
    select_prototypes,
    write_augmented_dataset,
)
from prototext.synth import read_labels
from prototext.tabledata import (
    AttributeValuePair,
    Corpus,
    Example,
    Sentence,
    Table,
    linearize_table,
    load_corpus,
    parse_tables_file,
    write_corpus,
    write_jsonl,
    write_tables_file,
)
from prototext.tokenization import tokenize
from prototext.vocab import Vocabulary


def table(*pairs):
    return Table.from_pairs(pairs)


class TestLinearize:
    def test_single_pair(self):
        assert linearize_table(table(("Name", "The Absence"))) == ["name", ":", "the", "absence"]

    def test_two_pairs_with_separator(self):
        assert linearize_table(table(("A", "x"), ("B", "y"))) == ["a", ":", "x", "|", "b", ":", "y"]

    def test_empty_table_rejected(self):
        with pytest.raises(InvalidTable):
            Table(())

    def test_blank_value_rejected(self):
        with pytest.raises(InvalidTable):
            AttributeValuePair("name", "   ")

    def test_deterministic(self):
        t = table(("Origin", "Tampa, Florida"), ("Genre", "metal"))
        assert linearize_table(t) == linearize_table(t)

    def test_tokens_leave_equality_hash_and_repr_alone(self):
        a, b = table(("A", "x y"), ("B", "z")), table(("A", "x y"), ("B", "z"))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "Table(pairs=(AttributeValuePair(attribute='A', value='x y'), "
            "AttributeValuePair(attribute='B', value='z')))"
        )
        with pytest.raises(TypeError):
            Table(a.pairs, tokens=("x",))


words = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
cells = st.lists(words, min_size=1, max_size=3).map(" ".join)


@given(st.lists(st.tuples(cells, cells), min_size=1, max_size=5))
def test_linearization_length_formula(raw_pairs):
    t = Table.from_pairs(raw_pairs)
    expected = sum(len(tokenize(a)) + len(tokenize(v)) + 1 for a, v in raw_pairs)
    expected += len(raw_pairs) - 1
    assert len(linearize_table(t)) == expected
    assert t.tokens == tuple(linearize_table(t))


class TestTablesFile:
    def write_lines(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_parses_in_order(self, tmp_path):
        f = tmp_path / "tables.jsonl"
        self.write_lines(
            f,
            [
                json.dumps({"id": 0, "pairs": [["name", "ada"]], "reference": "ada is here"}),
                json.dumps({"id": 1, "pairs": [["name", "bob"]], "reference": "bob is here"}),
            ],
        )
        examples = parse_tables_file(f)
        assert [ex.id for ex in examples] == [0, 1]
        assert examples[1].reference == "bob is here"

    def test_missing_reference_reports_line(self, tmp_path):
        f = tmp_path / "tables.jsonl"
        self.write_lines(
            f,
            [
                json.dumps({"id": 0, "pairs": [["name", "ada"]], "reference": "ok"}),
                json.dumps({"id": 1, "pairs": [["name", "bob"]]}),
            ],
        )
        with pytest.raises(ParseError) as err:
            parse_tables_file(f)
        assert err.value.line_no == 2

    def test_duplicate_id(self, tmp_path):
        f = tmp_path / "tables.jsonl"
        record = {"id": 7, "pairs": [["name", "ada"]], "reference": "x"}
        self.write_lines(f, [json.dumps(record), json.dumps(record)])
        with pytest.raises(DuplicateId) as err:
            parse_tables_file(f)
        assert err.value.dup_id == 7

    def test_bad_json_reports_line(self, tmp_path):
        f = tmp_path / "tables.jsonl"
        self.write_lines(f, ["{not json"])
        with pytest.raises(ParseError) as err:
            parse_tables_file(f)
        assert err.value.line_no == 1

    def test_roundtrip(self, tmp_path):
        examples = [
            Example(0, table(("Name", "Ada"), ("Origin", "Tampa")), "ada is from tampa"),
            Example(3, table(("Name", "Bob")), "bob exists"),
        ]
        f = tmp_path / "tables.jsonl"
        write_tables_file(f, examples)
        assert parse_tables_file(f) == examples


class TestCorpusFile:
    def test_load(self, tmp_path):
        f = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"id": i, "text": f"sentence number {i}"}) for i in range(3)]
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(f)
        assert len(corpus) == 3
        assert corpus.get(2).tokens == ("sentence", "number", "2")

    def test_empty_file_allowed(self, tmp_path):
        f = tmp_path / "corpus.jsonl"
        f.write_text("", encoding="utf-8")
        assert len(load_corpus(f)) == 0

    def test_duplicate_id(self, tmp_path):
        f = tmp_path / "corpus.jsonl"
        f.write_text(
            json.dumps({"id": 4, "text": "a"}) + "\n" + json.dumps({"id": 4, "text": "b"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateId):
            load_corpus(f)

    def test_roundtrip(self, tmp_path):
        sentences = [Sentence.from_text(i, f"text {i}") for i in (0, 2, 5)]
        f = tmp_path / "corpus.jsonl"
        write_corpus(f, sentences)
        assert list(load_corpus(f)) == sentences

    def test_tokens_match_tokenizer(self):
        s = Sentence.from_text(0, "The Quick, Brown Fox.")
        assert list(s.tokens) == tokenize(s.text)

    def test_direct_duplicate_rejected(self):
        s = Sentence.from_text(1, "x")
        with pytest.raises(DuplicateId):
            Corpus([s, s])


EXAMPLES = [
    Example(0, Table.from_pairs([("name", "ada"), ("origin", "tampa")]), "ada is from tampa"),
    Example(3, Table.from_pairs([("name", "bob")]), "bob exists"),
]
SENTENCES = [Sentence.from_text(i, text) for i, text in enumerate(["ada from tampa", "bob", "x y"])]
READERS = {
    "tables": parse_tables_file,
    "corpus": load_corpus,
    "candidates": read_candidate_sets,
    "index": load_index,
    "augmented": lambda p: read_augmented_dataset(p, EXAMPLES),
    "outputs": read_outputs,
    "labels": read_labels,
}


@pytest.fixture(scope="module")
def jsonl_files(tmp_path_factory):
    """A valid file of each JSONL kind in READERS."""
    out = tmp_path_factory.mktemp("jsonl")
    corpus = Corpus(SENTENCES)
    cands = [CandidateSet(0, ((0, 2.5), (2, 0.5))), CandidateSet(3, ((1, 1.0),))]
    writers = {
        "tables": lambda p: write_tables_file(p, EXAMPLES),
        "corpus": lambda p: write_corpus(p, SENTENCES),
        "candidates": lambda p: write_candidate_sets(p, cands),
        "index": lambda p: save_index(p, build_index(corpus)),
        "augmented": lambda p: write_augmented_dataset(
            p, select_prototypes(EXAMPLES, {c.table_id: c for c in cands}, corpus, 2)
        ),
        "outputs": lambda p: write_outputs(p, [(0, ["ada", "tampa"]), (3, ["bob"])]),
        "labels": lambda p: write_jsonl(
            p, [{"table_id": 0, "relevant_ids": [0]}, {"table_id": 3, "relevant_ids": [1]}]
        ),
    }
    valid = {}
    for kind, write in writers.items():
        write(out / kind)
        READERS[kind](out / kind)
        valid[kind] = (out / kind).read_bytes()
    return out, valid


JSON_PIECES = [b'"', b"[", b"]", b"{", b"}", b",", b":", b"1", b"-", b"x", b"\xff", b"\n", b" ",
               b"null", b"true", b"1e999", b"[1]", b'"a"']


@st.composite
def corruptions(draw, kinds):
    kind = draw(st.sampled_from(sorted(kinds)))
    op = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    chunk = draw(st.one_of(
        st.binary(min_size=1, max_size=4),
        st.lists(st.sampled_from(JSON_PIECES), min_size=1, max_size=3).map(b"".join),
    ))
    return kind, op, draw(st.floats(0, 1)), chunk


def read_corrupted(out, valid, readers, case):
    """Write the corrupted file of ``case`` and read it; a DataError is a pass."""
    kind, op, where, chunk = case
    data = bytearray(valid[kind])
    at = int(where * len(data))
    if op == "truncate":
        del data[at:]
    elif op == "overwrite":
        data[at : at + len(chunk)] = chunk
    else:
        data[at:at] = chunk
    path = out / f"corrupt-{kind}"
    path.write_bytes(bytes(data))
    try:
        readers[kind](path)
    except DataError:
        pass


@settings(max_examples=200, deadline=None)
@given(case=corruptions(READERS))
def test_corrupted_jsonl_parses_or_is_data_error(jsonl_files, case):
    """Whatever bytes a JSONL file holds, its reader returns or raises a DataError."""
    read_corrupted(*jsonl_files, READERS, case)


MODEL_LOADERS = {"selector": load_selector, "generator": load_generator}


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A tiny valid selector.json and generator.json."""
    out = tmp_path_factory.mktemp("models")
    vocab = Vocabulary.build([["ada", "bob"]])
    emb = np.arange(2.0 * len(vocab)).reshape(-1, 2) / 7
    save_selector(out / "selector", SelectorModel(vocab, emb, np.array([0.5, -1.25]), 0.0))
    save_generator(out / "generator", init_generator(vocab, GeneratorTrainConfig(dim=2, max_context=3)))
    valid = {}
    for kind, load in MODEL_LOADERS.items():
        load(out / kind)
        valid[kind] = (out / kind).read_bytes()
    return out, valid


@settings(max_examples=200, deadline=None)
@given(case=corruptions(MODEL_LOADERS))
def test_corrupted_model_file_loads_or_is_data_error(model_files, case):
    """Whatever bytes a model file holds, its loader returns or raises a DataError."""
    read_corrupted(*model_files, MODEL_LOADERS, case)
