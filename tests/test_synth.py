import hashlib
import json
from pathlib import Path

import pytest

from prototext.errors import InvalidConfig, ParseError
from prototext.synth import (
    SyntheticSpec,
    generate_benchmark,
    read_labels,
    synth_benchmark,
)
from prototext.tokenization import tokenize


class TestSpecValidation:
    def test_vocab_must_cover_entities(self):
        with pytest.raises(InvalidConfig):
            SyntheticSpec(num_entities=100, vocab_size=100)


# the default spec's files, which are the desk benchmark's inputs at seed 13
DEFAULT_SPEC_SHA256 = {
    "corpus": "2f239e0cdc16cd48272ccdcd7af7ae58fdf1a086c640343c69850cd399485a28",
    "labels": "e15601f479cb24a013ce8419586f57b6acf395a871b88c4fa52adc7d42c0fe84",
    "test_tables": "3d56853e0e043b45a4ba8bbee38bf38a21e6c24ad2ba0cb92f30e947f34ec3b0",
    "train_tables": "8b03f0dd3e970f0fe5cbb20b32c2c574904ae5f180fccda5c62976d5ba2775c4",
}


class TestGeneratedShape:
    def test_default_spec_files_are_pinned(self, tmp_path):
        paths = synth_benchmark(SyntheticSpec(), tmp_path)
        digests = {key: hashlib.sha256(Path(p).read_bytes()).hexdigest() for key, p in paths.items()}
        assert digests == DEFAULT_SPEC_SHA256

    def test_default_spec_counts(self):
        bench = generate_benchmark(SyntheticSpec())
        assert len(bench.train_examples) == 50
        assert len(bench.corpus) == 500
        assert len(bench.test_examples) == 20
        assert set(bench.relevance) == {ex.id for ex in bench.train_examples} | {
            ex.id for ex in bench.test_examples
        }

    def test_files_written(self, tmp_path):
        paths = synth_benchmark(
            SyntheticSpec(num_entities=12, corpus_size=60, vocab_size=160), tmp_path
        )
        for p in paths.values():
            assert (tmp_path / p.split("/")[-1]).exists()
        labels = read_labels(paths["labels"])
        assert len(labels) == 12 + 5

    def test_repeated_table_id_in_labels_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        records = [{"table_id": 4, "relevant_ids": [1, 2]}, {"table_id": 4, "relevant_ids": [9]}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: duplicate table_id 4"):
            read_labels(path)

    @pytest.mark.parametrize(
        "relevant_ids, message",
        [
            ([1, 2.5], "relevant id must be a non-negative integer"),
            ([True], "relevant id must be a non-negative integer"),
            ([3, 3], "duplicate relevant id 3"),
        ],
        ids=["float", "true", "repeated"],
    )
    def test_bad_relevant_id_in_labels_rejected(self, tmp_path, relevant_ids, message):
        path = tmp_path / "labels.jsonl"
        records = [
            {"table_id": 4, "relevant_ids": [1, 2]},
            {"table_id": 5, "relevant_ids": relevant_ids},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            read_labels(path)

    def test_byte_identical_under_same_seed(self, tmp_path):
        spec = SyntheticSpec(num_entities=12, corpus_size=60, vocab_size=160, seed=4)
        p1 = synth_benchmark(spec, tmp_path / "a")
        p2 = synth_benchmark(spec, tmp_path / "b")
        for key in p1:
            with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
                assert f1.read() == f2.read()

    def test_different_seeds_differ(self, tmp_path):
        s1 = SyntheticSpec(num_entities=12, corpus_size=60, vocab_size=160, seed=1)
        s2 = SyntheticSpec(num_entities=12, corpus_size=60, vocab_size=160, seed=2)
        b1, b2 = generate_benchmark(s1), generate_benchmark(s2)
        texts1 = [s.text for s in b1.corpus]
        texts2 = [s.text for s in b2.corpus]
        assert texts1 != texts2


class TestPlantedStructure:
    def test_references_never_in_corpus(self):
        bench = generate_benchmark(SyntheticSpec(num_entities=12, corpus_size=120, vocab_size=160))
        corpus_token_seqs = {tuple(s.tokens) for s in bench.corpus}
        for ex in list(bench.train_examples) + list(bench.test_examples):
            assert tuple(tokenize(ex.reference)) not in corpus_token_seqs

    def test_relevant_sentences_share_tokens_with_their_table(self):
        from prototext.tabledata import linearize_table

        bench = generate_benchmark(SyntheticSpec(num_entities=12, corpus_size=120, vocab_size=160))
        examples = {ex.id: ex for ex in list(bench.train_examples) + list(bench.test_examples)}
        for tid, sids in bench.relevance.items():
            table_tokens = set(linearize_table(examples[tid].table))
            for sid in sids:
                assert table_tokens & set(bench.corpus.get(sid).tokens)

    def test_sentence_tokens_are_the_tokenizers(self):
        bench = generate_benchmark(SyntheticSpec(num_entities=12, corpus_size=120, vocab_size=160))
        for s in bench.corpus:
            assert list(s.tokens) == tokenize(s.text)

    def test_relevance_ids_exist(self):
        bench = generate_benchmark(SyntheticSpec(num_entities=12, corpus_size=60, vocab_size=160))
        for ids in bench.relevance.values():
            for sid in ids:
                bench.corpus.get(sid)
