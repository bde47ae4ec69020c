import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prototext import cli, pipeline
from prototext.cli import build_parser, main
from prototext.errors import DataError, ParseError, UsageError
from prototext.generator import (
    GeneratorTrainConfig, init_generator, read_outputs, save_generator, write_outputs,
)
from prototext.pipeline import RUN_SET, run_pipeline
from prototext.retrieval import (
    build_index, load_index, read_candidate_sets, retrieve, save_index, write_candidate_sets,
)
from prototext.selector import (
    SelectorModel,
    SelectorTrainConfig,
    read_augmented_dataset,
    save_selector,
    select_prototypes,
    write_augmented_dataset,
)
from prototext.synth import SyntheticSpec, read_labels, synth_benchmark
from prototext.tabledata import decode_array, encode_array, load_corpus, parse_tables_file
from prototext.tokenization import tokenize
from prototext.vocab import Vocabulary


def run_cli(*argv):
    return main(list(argv))


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tiny_generator_file(tmp_path, *content):
    path = tmp_path / "generator.json"
    config = GeneratorTrainConfig(dim=4, max_context=16)
    save_generator(path, init_generator(Vocabulary.build([content]), config))
    return path


@pytest.fixture(scope="module")
def stage_files(tiny_bench, tmp_path_factory):
    """Valid index, candidates, augmented and outputs files for the train split, and its
    tables and corpus files."""
    out = tmp_path_factory.mktemp("stages")
    corpus = load_corpus(tiny_bench["corpus"])
    train = parse_tables_file(tiny_bench["train_tables"])
    index = build_index(corpus)
    cands = [retrieve(index, ex.table, 50, table_id=ex.id) for ex in train]
    records = select_prototypes(train, {c.table_id: c for c in cands}, corpus, 3)
    files = {kind: out / f"{kind}.jsonl" for kind in ("index", "candidates", "augmented", "outputs")}
    save_index(files["index"], index)
    write_candidate_sets(files["candidates"], cands)
    write_augmented_dataset(files["augmented"], records)
    write_outputs(files["outputs"], [(ex.id, tokenize(ex.reference)) for ex in train])
    return {**files, "corpus": Path(tiny_bench["corpus"]), "tables": Path(tiny_bench["train_tables"])}


def _set(line, **fields):
    """Overwrite fields of the record on one line; the error names that line."""

    def edit(lines):
        record = json.loads(lines[line - 1])
        record.update(fields)
        lines[line - 1] = json.dumps(record).encode()
        return line

    return edit


def _replace(line, text):
    def edit(lines):
        lines[line - 1] = text
        return line

    return edit


def _repeat_first_table_id(lines):
    record = json.loads(lines[0])
    record["candidates"] = record["candidates"][:1]
    lines.append(json.dumps(record).encode())
    return len(lines)


def _unindexed_postings(lines):
    for i in range(2, len(lines)):
        record = json.loads(lines[i])
        record["postings"].append([99999, 1])
        lines[i] = json.dumps(record).encode()
    return 3


def _repeat_first_line(lines):
    lines.append(lines[0])
    return len(lines)


def _reversed_postings(lines):
    for i in range(2, len(lines)):
        record = json.loads(lines[i])
        if len(record["postings"]) > 1:
            record["postings"].reverse()
            lines[i] = json.dumps(record).encode()
            return i + 1
    raise AssertionError("no term has two postings")


def _negative_doc_length(lines):
    record = json.loads(lines[1])
    record["doc_lengths"][0][1] = -1
    lines[1] = json.dumps(record).encode()
    return 2


def _repeated_doc_length(lines):
    # the same length again, so the lengths still agree with doc_count and avgdl
    record = json.loads(lines[1])
    record["doc_lengths"].append(record["doc_lengths"][0])
    lines[1] = json.dumps(record).encode()
    return 2


def _wrong_avgdl(lines):
    # the header is well-formed on its own; the lengths line contradicts it
    record = json.loads(lines[0])
    record["avgdl"] = 99.0
    lines[0] = json.dumps(record).encode()
    return 2


def _header_avgdl(value):
    # the header is well-formed on its own; the lengths line contradicts it
    def edit(lines):
        _set(1, avgdl=value)(lines)
        return 2

    return edit


def _zero_term_frequency(lines):
    record = json.loads(lines[2])
    record["postings"][0][1] = 0
    lines[2] = json.dumps(record).encode()
    return 3


def _term_frequency_above_length(lines):
    record = json.loads(lines[2])
    record["postings"][0][1] = 10**6
    lines[2] = json.dumps(record).encode()
    return 3


def _edit_at(line, path, value):
    """Replace the item at ``path`` (keys and indices) in the record on one line
    with ``value`` of it."""

    def edit(lines):
        record = json.loads(lines[line - 1])
        *outer, last = path
        target = record
        for key in outer:
            target = target[key]
        target[last] = value(target[last])
        lines[line - 1] = json.dumps(record).encode()
        return line

    return edit


def _misspelt_reference(lines):
    record = json.loads(lines[1])
    record["referense"] = record.pop("reference")
    lines[1] = json.dumps(record).encode()
    return 2


def _repeat_first(items):
    return items[:1] * 2 + items[2:]


def _non_utf8_text(lines):
    lines[1] = lines[1].replace(b'"text": "', b'"text": "\xff', 1)
    return 2


# JSON nested deeper than the parser recurses, on every Python: 1,000 levels pass
# on Pythons whose JSON scanner has its own, higher C recursion limit
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
READERS = ("corpus", "tables", "candidates", "index", "augmented", "outputs")


# Each breaks one line of a valid file and returns that line's number.
MALFORMED_JSONL = [
    pytest.param("candidates", _set(1, candidates=5), id="candidates-not-a-list"),
    pytest.param("candidates", _set(1, table_id="x"), id="candidates-table-id-string"),
    pytest.param("candidates", _set(1, table_id=float("inf")), id="candidates-table-id-infinite"),
    pytest.param("candidates", _set(1, table_id=0.5), id="candidates-table-id-float"),
    pytest.param("candidates", _set(1, candidates=[[1]]), id="candidates-entry-not-a-pair"),
    pytest.param("candidates", _repeat_first_table_id, id="candidates-repeated-table-id"),
    pytest.param(
        "candidates", _edit_at(1, ("candidates", 0, 0), lambda sid: sid + 0.7),
        id="candidates-sentence-id-float",
    ),
    pytest.param(
        "candidates", _edit_at(1, ("candidates", 0, 0), lambda sid: True),
        id="candidates-sentence-id-true",
    ),
    pytest.param(
        "candidates", _edit_at(1, ("candidates",), _repeat_first),
        id="candidates-repeated-sentence-id",
    ),
    pytest.param(
        "candidates", _edit_at(1, ("candidates", 0, 1), lambda score: float("nan")),
        id="candidates-score-nan",
    ),
    pytest.param("augmented", _replace(1, b"[1, 2]"), id="augmented-not-an-object"),
    pytest.param("augmented", _set(1, prototype_ids=5), id="augmented-ids-not-a-list"),
    pytest.param(
        "augmented", _set(1, prototype_ids=[0], prototypes=[1]), id="augmented-prototype-not-text"
    ),
    pytest.param(
        "augmented", _set(1, prototype_ids=[0, 1, 2], prototypes="abc"),
        id="augmented-prototypes-a-string",
    ),
    pytest.param(
        "augmented", _set(1, prototype_ids=[0], prototypes={"text": 1}),
        id="augmented-prototypes-an-object",
    ),
    pytest.param("augmented", _set(1, table_id=[1]), id="augmented-table-id-list"),
    pytest.param("augmented", _repeat_first_line, id="augmented-repeated-table-id"),
    pytest.param("augmented", _misspelt_reference, id="augmented-no-reference"),
    pytest.param("augmented", _set(1, table_id=99999), id="augmented-unknown-table-id"),
    pytest.param(
        "augmented", _edit_at(1, ("prototype_ids", 0), lambda sid: sid + 0.5),
        id="augmented-prototype-id-float",
    ),
    pytest.param(
        "augmented", _edit_at(1, ("prototype_ids",), _repeat_first),
        id="augmented-repeated-prototype-id",
    ),
    pytest.param("index", _replace(1, b"[1]"), id="index-header-not-an-object"),
    pytest.param("index", _set(1, doc_count="x"), id="index-doc-count-string"),
    pytest.param("index", _header_avgdl(0.0), id="index-avgdl-zero"),
    # the right mean, but not a JSON number
    pytest.param("index", _edit_at(1, ("avgdl",), str), id="index-avgdl-string"),
    pytest.param("index", _set(1, avgdl=True), id="index-avgdl-true"),
    pytest.param("index", _set(2, doc_lengths=[[0, 3]]), id="index-doc-count-mismatch"),
    pytest.param("index", _set(3, postings=5), id="index-postings-not-a-list"),
    pytest.param("index", _set(3, term=5), id="index-term-not-a-string"),
    pytest.param("index", _unindexed_postings, id="index-posting-unindexed-doc"),
    pytest.param("index", _reversed_postings, id="index-postings-reversed"),
    pytest.param("index", _negative_doc_length, id="index-negative-doc-length"),
    pytest.param("index", _zero_term_frequency, id="index-zero-term-frequency"),
    pytest.param(
        "index", _term_frequency_above_length, id="index-term-frequency-above-length"
    ),
    pytest.param("index", _repeated_doc_length, id="index-repeated-doc-length"),
    pytest.param("index", _wrong_avgdl, id="index-avgdl-mismatch"),
    pytest.param(
        "index", _edit_at(2, ("doc_lengths", 0, 1), lambda n: n + 0.5),
        id="index-doc-length-float",
    ),
    pytest.param("index", _edit_at(3, ("postings", 0, 0), float), id="index-posting-doc-id-float"),
    pytest.param(
        "index", _edit_at(3, ("postings", 0, 1), lambda tf: tf + 0.5),
        id="index-term-frequency-float",
    ),
    pytest.param("corpus", _non_utf8_text, id="corpus-not-utf8"),
    pytest.param("corpus", _set(2, text=5), id="corpus-text-not-a-string"),
    pytest.param("tables", _set(2, pairs=[["name"]]), id="tables-pair-not-a-pair"),
    pytest.param("tables", _set(2, pairs=[]), id="tables-no-pairs"),
    pytest.param("tables", _set(2, pairs={"name": "x"}), id="tables-pairs-an-object"),
    pytest.param("corpus", _repeat_first_line, id="corpus-repeated-id"),
    pytest.param("outputs", _set(1, output=5), id="outputs-output-not-text"),
    pytest.param("outputs", _set(2, table_id=True), id="outputs-table-id-true"),
    *(pytest.param(kind, _set(2, extra=0), id=f"{kind}-unknown-key")
      for kind in ("corpus", "tables", "candidates", "augmented", "outputs")),
]


def write_pipeline_config(tiny_bench, **fields):
    """An ablate/sweep-n config.json in the working directory, writing runs to ``out``."""
    cfg = {
        "corpus_path": tiny_bench["corpus"],
        "train_tables_path": tiny_bench["train_tables"],
        "test_tables_path": tiny_bench["test_tables"],
        "out_dir": "out",
        "selector": {"epochs": 1},
        "generator": {"epochs": 1},
        **fields,
    }
    Path("config.json").write_text(json.dumps(cfg), encoding="utf-8")


def _reader_argv(kind, bad, tiny_bench, stage_files, out):
    """The command line of a stage that reads ``bad`` as its ``kind`` file."""
    bad, out = str(bad), str(out)
    return {
        "corpus": ["retrieve", "--corpus", bad, "--tables", tiny_bench["test_tables"],
                   "--out", out],
        "candidates": ["train-selector", "--corpus", tiny_bench["corpus"],
                       "--tables", tiny_bench["train_tables"], "--candidates", bad,
                       "--out", out],
        "augmented": ["train-generator", "--dataset", bad,
                      "--tables", tiny_bench["train_tables"], "--corpus", tiny_bench["corpus"],
                      "--out", out],
        "outputs": ["eval", "--hyp", bad, "--ref", tiny_bench["train_tables"],
                    "--out", out],
        "tables": ["eval", "--hyp", str(stage_files["outputs"]), "--ref", bad,
                   "--out", out],
    }[kind]


def _data_error(kind, bad, tiny_bench, stage_files, tmp_path, capsys):
    """The message of the data error that reading ``bad`` as a ``kind`` file raises. A
    command that reads it must exit 2 and write nothing. No command reads an index file,
    so that one goes through its reader, ``retrieval.load_index``."""
    if kind == "index":
        with pytest.raises(ParseError) as caught:
            load_index(bad)
        return str(caught.value)
    out = tmp_path / "out"
    assert run_cli(*_reader_argv(kind, bad, tiny_bench, stage_files, out)) == 2
    assert not out.exists()
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("data error: ")
    return last[len("data error: "):]


class TestExitCodes:
    @pytest.mark.parametrize("kind, edit", MALFORMED_JSONL)
    def test_malformed_jsonl_line_is_data_error(
        self, tiny_bench, stage_files, tmp_path, capsys, kind, edit
    ):
        bad = tmp_path / f"bad-{kind}.jsonl"
        lines = stage_files[kind].read_bytes().splitlines()
        line = edit(lines)
        bad.write_bytes(b"\n".join(lines) + b"\n")
        message = _data_error(kind, bad, tiny_bench, stage_files, tmp_path, capsys)
        assert message.startswith(f"{bad}:line {line}: ")

    @pytest.mark.parametrize("kind", READERS)
    def test_deeply_nested_record_is_data_error(
        self, tiny_bench, stage_files, tmp_path, capsys, kind
    ):
        bad = tmp_path / f"bad-{kind}.jsonl"
        lines = stage_files[kind].read_bytes().splitlines()
        lines[1] = DEEP_JSON
        bad.write_bytes(b"\n".join(lines) + b"\n")
        message = _data_error(kind, bad, tiny_bench, stage_files, tmp_path, capsys)
        assert message.startswith(f"{bad}:line 2: record nests JSON too deeply")

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("retrieve", "--corpus", "x.jsonl") == 1

    def test_malformed_data_is_data_error(self, tiny_bench, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        out = tmp_path / "cands.jsonl"
        code = run_cli("retrieve", "--corpus", str(bad), "--tables", tiny_bench["test_tables"],
                       "--out", str(out))
        assert code == 2

    def test_unreadable_input_is_internal_error(self, tiny_bench, tmp_path, capsys):
        # a directory where a file is expected trips an OSError, not a
        # parse failure
        out = tmp_path / "cands.jsonl"
        code = run_cli("retrieve", "--corpus", str(tmp_path), "--tables", tiny_bench["test_tables"],
                       "--out", str(out))
        assert code == 3

    def test_bad_config_value_is_config_error(self, tiny_bench, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"corpus_path": "x", "bogus_field": 1}), encoding="utf-8")
        assert run_cli("ablate", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "content",
        ["{bad", "[1, 2]", '{"selector": {"margin": 1.0}}', '{"selector": 3}',
         pytest.param(DEEP_JSON.decode(), id="nested-too-deep")],
    )
    def test_malformed_stage_config_is_config_error(
        self, tiny_bench, tmp_path, monkeypatch, capsys, content
    ):
        monkeypatch.chdir(tmp_path)
        if content.startswith('{"'):  # a malformed section in an otherwise sound file
            write_pipeline_config(tiny_bench, **json.loads(content))
        else:
            Path("config.json").write_text(content, encoding="utf-8")
        assert run_cli("ablate", "--config", "config.json") == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert (content == DEEP_JSON.decode()) == ("nests JSON too deeply" in err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_config_field_a_run_sets_is_config_error(self, tiny_bench, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        paths = {
            "corpus_path": tiny_bench["corpus"],
            "train_tables_path": tiny_bench["train_tables"],
            "test_tables_path": tiny_bench["test_tables"],
            "out_dir": str(tmp_path / "out"),
        }
        cfg.write_text(json.dumps({**paths, "variant": "BASE"}), encoding="utf-8")
        assert run_cli("ablate", "--config", str(cfg)) == 1
        assert "config field variant" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("n", 2.5), ("m", 50.0), ("seed", True), ("corpus_path", 5), ("out_dir", ["x"]),
         ("labels_path", "labels.jsonl")],
    )
    @pytest.mark.parametrize("command", [["ablate"], ["sweep-n", "--n-values", "1"]])
    def test_ill_typed_or_unread_pipeline_field_is_config_error(
        self, tiny_bench, tmp_path, monkeypatch, capsys, command, field, value
    ):
        monkeypatch.chdir(tmp_path)
        write_pipeline_config(tiny_bench, **{field: value})
        assert run_cli(*command, "--config", "config.json") == 1
        assert f"config field {field} " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ablate", "--seeds", "1,x"],
            ["ablate", "--seeds", "1,,2"],
            ["sweep-n", "--n-values", "1,x"],
            ["sweep-n", "--n-values", "1,,2"],
        ],
    )
    def test_list_flag_with_a_non_integer_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--config", "config.json") == 1
        assert "invalid int_list value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [(["ablate", "--seeds", "1,1"], "seeds repeat"),
         (["sweep-n", "--n-values", "2,1,2"], "distinct n values")],
    )
    def test_repeated_list_item_is_config_error(
        self, tiny_bench, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        write_pipeline_config(tiny_bench)
        assert run_cli(*argv, "--config", "config.json") == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("max_decode_len", [256, 300])
    def test_decode_len_outside_context_fails_before_any_stage(
        self, tiny_bench, tmp_path, monkeypatch, capsys, max_decode_len
    ):
        monkeypatch.chdir(tmp_path)
        write_pipeline_config(tiny_bench, generator={"epochs": 1, "max_decode_len": max_decode_len})
        assert run_cli("ablate", "--config", "config.json", "--variants", "BASE,RET") == 1
        assert "generator.max_decode_len must be in [1, 255]" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_m_zero_fails_before_any_stage(self, tiny_bench, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_pipeline_config(tiny_bench, m=0, n=0)
        assert run_cli("ablate", "--config", "config.json", "--variants", "BASE,RET") == 1
        assert "config field m must be an int >= 1, got 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_corrupt_index_lengths_line_is_data_error(
        self, tiny_bench, stage_files, tmp_path, capsys
    ):
        index = tmp_path / "index.jsonl"
        lines = stage_files["index"].read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        index.write_text("".join(lines), encoding="utf-8")
        message = _data_error("index", index, tiny_bench, stage_files, tmp_path, capsys)
        assert message.startswith(f"{index}:line 2: ")

    @pytest.mark.parametrize(
        "command, rate",
        [*(("train-generator", rate) for rate in ("1e300", "nan", "inf", "-inf")),
         *(("train-selector", rate) for rate in ("nan", "inf", "-inf"))],
    )
    def test_learning_rate_not_finite_or_diverging_is_config_error(
        self, stage_files, tmp_path, capsys, command, rate
    ):
        out = tmp_path / "model.json"
        source = {"train-generator": "--dataset", "train-selector": "--candidates"}[command]
        kind = {"train-generator": "augmented", "train-selector": "candidates"}[command]
        code = run_cli(
            command, source, str(stage_files[kind]), "--tables", str(stage_files["tables"]),
            "--corpus", str(stage_files["corpus"]), f"--lr={rate}", "--epochs", "2",
            "--dim", "8", "--out", str(out),
        )
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        if rate == "1e300":
            assert re.fullmatch(r"error: generator parameter \w+ is not finite", last)
        else:
            assert last == f"error: config field learning_rate must be finite and > 0, got {rate}"
        assert not out.exists()

    @pytest.mark.parametrize("rate", [1e300, float("nan"), float("inf"), float("-inf")])
    def test_learning_rate_not_finite_or_diverging_in_config_file_is_config_error(
        self, tiny_bench, tmp_path, monkeypatch, capsys, rate
    ):
        monkeypatch.chdir(tmp_path)
        write_pipeline_config(tiny_bench, generator={"epochs": 2, "dim": 8, "learning_rate": rate})
        assert run_cli("ablate", "--config", "config.json", "--variants", "BASE,RET") == 1
        err = capsys.readouterr().err
        if math.isfinite(rate):
            assert re.search(r"stage 'train-generator' failed: generator parameter \w+ is not", err)
        else:
            assert "bad config generator: config field learning_rate must be finite" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        assert not (tmp_path / "out" / "ablation.json").exists()

    @pytest.mark.parametrize("max_len", ["0", "16", "300"])
    def test_generate_max_len_outside_context_is_config_error(
        self, tiny_bench, tmp_path, capsys, max_len
    ):
        model = tiny_generator_file(tmp_path)
        out = tmp_path / "out.jsonl"
        code = run_cli(
            "generate", "--model", str(model), "--tables", tiny_bench["test_tables"],
            "--max-len", max_len, "--out", str(out),
        )
        assert code == 1
        assert "--max-len" in capsys.readouterr().err
        assert not out.exists()


# Every command with one argv that would parse; the handlers never run.
STAGE_ARGV = {
    "synth": ["--out-dir", "d"],
    "retrieve": ["--tables", "t", "--corpus", "c", "--out", "o"],
    "train-selector": ["--corpus", "c", "--tables", "t", "--candidates", "k", "--out", "o"],
    "select": ["--model", "m", "--corpus", "c", "--tables", "t", "--candidates", "k", "--out", "o"],
    "train-generator": ["--dataset", "a", "--tables", "t", "--corpus", "c", "--out", "o"],
    "generate": ["--model", "m", "--tables", "t", "--out", "o"],
    "eval": ["--hyp", "h", "--ref", "r", "--out", "o"],
    "ablate": ["--config", "c"],
}
FLAG_VALUES = {
    "--config": "config.json", "--seed": "9", "--out-dir": "elsewhere", "--max-decode-len": "3",
    "--index": "index.jsonl",
}
UNREAD_FLAGS = [
    *((command, flag) for command in ("retrieve", "select", "generate", "eval")
      for flag in ("--config", "--seed", "--out-dir")),
    ("retrieve", "--index"),
    ("synth", "--config"),
    ("train-selector", "--config"),
    ("train-selector", "--out-dir"),
    ("train-generator", "--config"),
    ("train-generator", "--out-dir"),
    ("train-generator", "--max-decode-len"),
    ("ablate", "--seed"),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, *STAGE_ARGV[command], flag, FLAG_VALUES[flag]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["retrieve", "train-generator"])
def test_stage_without_corpus_is_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    argv = STAGE_ARGV[command]
    at = argv.index("--corpus")
    assert run_cli(command, *argv[:at], *argv[at + 2:]) == 1
    assert "required: --corpus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _readme_flag_table():
    """``{command: (required flags, optional flags)}`` from README's flag table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme.split("Each command takes only the flags it reads:")[1].split("\n\n")[1]
    table = {}
    for row in rows.splitlines()[2:]:
        command, required, optional = row.split("|")[1:-1]
        flags = (set(re.findall(r"--[a-z-]+", cell)) for cell in (required, optional))
        table[command.strip(" `")] = tuple(flags)
    return table


def _command_parsers():
    return next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_readme_flag_table_matches_parser():
    parsers = _command_parsers()
    table = _readme_flag_table()
    assert set(table) == set(parsers)
    for command, parser in parsers.items():
        actions = [a for a in parser._actions if "--help" not in a.option_strings]
        flags = {flag for a in actions for flag in a.option_strings}
        required = {a.option_strings[0] for a in actions if a.required}
        assert table[command] == (required, flags - required), command


@pytest.mark.parametrize(
    "command, cls, unread",
    [("train-selector", SelectorTrainConfig, set()),
     ("train-generator", GeneratorTrainConfig, {"max_decode_len"}),
     ("synth", SyntheticSpec, set())],
)
def test_every_train_config_field_has_a_flag(command, cls, unread):
    """Flags are a command's one way in to its config, so a field without one is out of reach."""
    dests = {action.dest for action in _command_parsers()[command]._actions}
    assert {f.name for f in dataclasses.fields(cls)} - dests == unread


def test_readme_command_lines_parse():
    """Every ``prototext ...`` line of README's code blocks, backslash continuations joined,
    parses, and between them they show every command; no handler runs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = "\n".join(readme.split("```")[1::2]).replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True)[1:] for line in lines
             if line.startswith("prototext ")]
    assert {argv[0] for argv in argvs} == set(_command_parsers())
    for argv in argvs:
        try:
            build_parser().parse_args(argv)
        except UsageError as exc:
            pytest.fail(f"prototext {shlex.join(argv)}: {exc}")


def test_readme_run_set_matches_pipeline():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"may not set (.*?) \(`pipeline\.RUN_SET`\)", readme, re.S).group(1)
    assert tuple(re.findall(r"`([a-z_.]+)`", listed)) == RUN_SET


def _readme_file_formats():
    """``{format: keys}`` from README's list of JSONL file formats."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    items = readme.split("## File formats")[1].split("\n\n")[2]
    return {line[2:].split(":")[0]: set(re.findall(r'"(\w+)":', line))
            for line in items.splitlines()}


def test_readme_file_formats_match_writers_and_readers(tiny_bench, stage_files, tmp_path):
    """Each JSONL format's writer writes the keys README lists, and its reader rejects one
    key more."""
    tables = parse_tables_file(stage_files["tables"])
    # README's name of each format: a file that its writer wrote, and its reader
    formats = {
        "tables": (stage_files["tables"], parse_tables_file),
        "corpus": (stage_files["corpus"], load_corpus),
        "candidates": (stage_files["candidates"], read_candidate_sets),
        "augmented dataset": (
            stage_files["augmented"], lambda path: read_augmented_dataset(path, tables)
        ),
        "generation output": (stage_files["outputs"], read_outputs),
        "labels (synthetic benchmark)": (Path(tiny_bench["labels"]), read_labels),
    }
    listed = _readme_file_formats()
    assert set(listed) == set(formats)
    for name, (path, read) in formats.items():
        first, *rest = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(first)
        assert set(record) == listed[name], name
        bad = tmp_path / path.name
        bad.write_text("\n".join([json.dumps({**record, "extra": 0}), *rest]) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(bad))}:line 1: unknown key 'extra'"):
            read(bad)


def test_train_selector_without_candidates_for_a_table_is_data_error(
    tiny_bench, stage_files, tmp_path, capsys
):
    lines = stage_files["candidates"].read_bytes().splitlines()
    missing = json.loads(lines.pop(4))["table_id"]
    cands = tmp_path / "cands.jsonl"
    cands.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "selector.json"
    code = run_cli(
        "train-selector", "--corpus", tiny_bench["corpus"], "--tables", tiny_bench["train_tables"],
        "--candidates", str(cands), "--out", str(out),
    )
    assert code == 2
    assert f"no candidates for table {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_select_without_candidates_for_a_table_is_data_error(
    tiny_bench, stage_files, tmp_path, capsys
):
    # the candidates are the train split's; no test table has any
    vocab = Vocabulary.build([["a", "b"]])
    model = tmp_path / "selector.json"
    save_selector(model, SelectorModel(vocab, np.ones((len(vocab), 3)), np.ones(3)))
    missing = parse_tables_file(tiny_bench["test_tables"])[0].id
    out = tmp_path / "augmented.jsonl"
    code = run_cli(
        "select", "--model", str(model), "--corpus", tiny_bench["corpus"],
        "--tables", tiny_bench["test_tables"], "--candidates", str(stage_files["candidates"]),
        "--out", str(out),
    )
    assert code == 2
    assert f"data error: no candidates for table {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_command_writes_synth_benchmark_files(tmp_path, capsys):
    argv = ["--entities", "12", "--corpus-size", "120", "--vocab-size", "160", "--seed", "5"]
    assert run_cli("synth", *argv, "--out-dir", str(tmp_path / "cli")) == 0
    spec = SyntheticSpec(num_entities=12, corpus_size=120, vocab_size=160, seed=5)
    expected = synth_benchmark(spec, tmp_path / "api")
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == sorted(
        Path(path).name for path in expected.values())
    for path in expected.values():
        assert (tmp_path / "cli" / Path(path).name).read_bytes() == Path(path).read_bytes()


def _truncate(text):
    return text[: len(text) // 2]


def _drop_tokens(text):
    payload = json.loads(text)
    del payload["tokens"]
    return json.dumps(payload)


def _ill_typed_tokens(text):
    payload = json.loads(text)
    payload["tokens"] = 7
    return json.dumps(payload)


def _retyped(where, new):
    """A corruption that replaces the model file's value at ``where`` (keys joined by
    dots) with ``new(that value)``."""

    def corrupt(text):
        payload = json.loads(text)
        *outer, last = where.split(".")
        part = payload
        for key in outer:
            part = part[key]
        part[last] = new(part[last])
        return json.dumps(payload)

    return corrupt


def _values(edit):
    """``new`` for :func:`_retyped`: the array rule's ``edit(values)``, encoded again, so
    that its shape and bytes agree."""
    return lambda value: encode_array(edit(decode_array(value, "", len(value["shape"]))))


def _first_value(x):
    def edit(values):
        values = values.copy()
        values.flat[0] = x
        return values

    return _values(edit)


def _narrow_selector_projection(text):
    return _retyped("projection", _values(lambda values: values[:-1]))(text)


def _narrow_generator_w_key(text):
    return _retyped("params.w_key", _values(lambda values: values[:, :-1]))(text)


def _one_position_generator(text):
    """A generator whose ``pos_emb`` keeps one row: a context too short for any decode."""
    return _retyped("params.pos_emb", _values(lambda values: values[:1]))(text)


def _drop_w_key(text):
    payload = json.loads(text)
    del payload["params"]["w_key"]
    return json.dumps(payload)


def _deep_json(text):
    return DEEP_JSON.decode()


def _version_1(text):
    """The same model in the layout of model-file version 1: every array a JSON float list."""
    payload = json.loads(text)
    for part in (payload, payload.get("params", {})):
        for key, value in part.items():
            if isinstance(value, dict) and "f64le" in value:
                part[key] = decode_array(value, key, len(value["shape"])).tolist()
    payload["version"] = 1
    return json.dumps(payload)


def _version_2(text):
    """The same model in the layout of model-file version 2: a selector also stores its
    ``bias`` (always 0.0), a generator its ``max_context`` (the rows of ``pos_emb``)."""
    payload = json.loads(text)
    if "params" in payload:
        payload["max_context"] = payload["params"]["pos_emb"]["shape"][0]
    else:
        payload["bias"] = encode_array(0.0)
    payload["version"] = 2
    return json.dumps(payload)


def _rename_eos(text):
    payload = json.loads(text)
    payload["tokens"] = ["<end>" if t == "<eos>" else t for t in payload["tokens"]]
    return json.dumps(payload)


def _unknown_key(*where):
    """A corruption that adds a key no loader reads, at the top or under ``where``."""

    def corrupt(text):
        payload = json.loads(text)
        part = payload
        for key in where:
            part = part[key]
        part["zzz"] = [[1.0]]
        return json.dumps(payload)

    return corrupt


def _last_token(new):
    """A corruption that replaces the last token with ``new(tokens)``; every shape still agrees."""

    def corrupt(text):
        payload = json.loads(text)
        payload["tokens"][-1] = new(payload["tokens"])
        return json.dumps(payload)

    return corrupt


CORRUPTIONS = [
    _truncate, _drop_tokens, _ill_typed_tokens, _unknown_key(), _deep_json, _version_1, _version_2,
    pytest.param(_last_token(lambda tokens: tokens[-2]), id="token-repeated"),
    pytest.param(_last_token(lambda tokens: 5), id="token-not-a-string"),
]
# numbers and arrays that break their rule: the one integer rule, or the array rule's
# keys, shape, byte count, base64 and finite values
BROKEN_ARRAYS = {
    "generator": {
        "w_key-float-lists": _retyped(
            "params.w_key", lambda value: decode_array(value, "", 2).tolist()
        ),
        "w_key-extra-key": _retyped("params.w_key", lambda value: {**value, "dtype": "<f8"}),
        "w_key-no-shape": _retyped("params.w_key", lambda value: {"f64le": value["f64le"]}),
        "w_key-shape-1d": _retyped(
            "params.w_key", lambda value: {**value, "shape": [value["shape"][0] ** 2]}
        ),
        "w_key-shape-disagrees": _retyped(
            "params.w_key", lambda value: {**value, "shape": [value["shape"][0], 3]}
        ),
        "w_key-base64-character": _retyped(
            "params.w_key", lambda value: {**value, "f64le": "!" + value["f64le"][1:]}
        ),
        "w_key-base64-unpadded": _retyped(
            "params.w_key", lambda value: {**value, "f64le": value["f64le"].rstrip("=")[:-1]}
        ),
        "w_key-base64-number": _retyped("params.w_key", lambda value: {**value, "f64le": 0}),
        "w_key-nan": _retyped("params.w_key", _first_value(float("nan"))),
        "w_key-infinite": _retyped("params.w_key", _first_value(float("-inf"))),
    },
    "selector": {
        "projection-strings": _retyped(
            "projection", lambda value: {**value, "shape": [str(n) for n in value["shape"]]}
        ),
        "embeddings-bool": _retyped(
            "embeddings", lambda value: {**value, "shape": [True, value["shape"][1]]}
        ),
        "embeddings-shape-disagrees": _retyped(
            "embeddings", lambda value: {**value, "shape": [value["shape"][0] + 1, 3]}
        ),
    },
}


def broken_arrays(kind):
    return [pytest.param(corrupt, id=name) for name, corrupt in BROKEN_ARRAYS[kind].items()]


class TestCorruptModelFiles:
    @pytest.mark.parametrize(
        "corrupt",
        CORRUPTIONS
        + [_narrow_generator_w_key, _one_position_generator, _rename_eos, _unknown_key("params"),
           _drop_w_key]
        + broken_arrays("generator"),
    )
    def test_corrupt_generator_is_data_error(self, tiny_bench, tmp_path, capsys, corrupt):
        model = tiny_generator_file(tmp_path, "a", "b")
        model.write_text(corrupt(model.read_text()), encoding="utf-8")
        code = run_cli(
            "generate", "--model", str(model), "--tables", tiny_bench["test_tables"],
            "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 2
        assert str(model) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt", CORRUPTIONS + [_narrow_selector_projection] + broken_arrays("selector")
    )
    def test_corrupt_selector_is_data_error(self, tiny_bench, tmp_path, capsys, corrupt):
        vocab = Vocabulary.build([["a", "b"]])
        model = tmp_path / "selector.json"
        save_selector(model, SelectorModel(vocab, np.ones((len(vocab), 3)), np.ones(3)))
        model.write_text(corrupt(model.read_text()), encoding="utf-8")
        code = run_cli(
            "select", "--model", str(model), "--corpus", tiny_bench["corpus"],
            "--tables", tiny_bench["test_tables"], "--candidates", str(tmp_path / "none.jsonl"),
            "--out", str(tmp_path / "augmented.jsonl"),
        )
        assert code == 2
        assert str(model) in capsys.readouterr().err


class TestStageCommands:
    def test_retrieve_select_eval_chain(self, tiny_bench, tmp_path, capsys):
        cands = tmp_path / "cands.jsonl"
        assert (
            run_cli(
                "retrieve",
                "--tables", tiny_bench["train_tables"],
                "--corpus", tiny_bench["corpus"],
                "--m", "50",
                "--out", str(cands),
            )
            == 0
        )
        records = read_jsonl(cands)
        assert len(records) == 12
        assert all(len(r["candidates"]) <= 50 for r in records)

        selector = tmp_path / "selector.json"
        assert (
            run_cli(
                "train-selector",
                "--corpus", tiny_bench["corpus"],
                "--tables", tiny_bench["train_tables"],
                "--candidates", str(cands),
                "--epochs", "3",
                "--seed", "1",
                "--out", str(selector),
            )
            == 0
        )

        augmented = tmp_path / "augmented.jsonl"
        assert (
            run_cli(
                "select",
                "--model", str(selector),
                "--corpus", tiny_bench["corpus"],
                "--tables", tiny_bench["train_tables"],
                "--candidates", str(cands),
                "--n", "3",
                "--out", str(augmented),
            )
            == 0
        )
        aug_records = read_jsonl(augmented)
        assert all(len(r["prototype_ids"]) <= 3 for r in aug_records)

        generator = tmp_path / "generator.json"
        assert (
            run_cli(
                "train-generator",
                "--dataset", str(augmented),
                "--tables", tiny_bench["train_tables"],
                "--corpus", tiny_bench["corpus"],
                "--epochs", "2",
                "--seed", "1",
                "--out", str(generator),
            )
            == 0
        )

        outputs = tmp_path / "outputs.jsonl"
        assert (
            run_cli(
                "generate",
                "--model", str(generator),
                "--tables", tiny_bench["train_tables"],
                "--dataset", str(augmented),
                "--max-len", "24",
                "--out", str(outputs),
            )
            == 0
        )

        report = tmp_path / "report.json"
        assert (
            run_cli(
                "eval",
                "--hyp", str(outputs),
                "--ref", tiny_bench["train_tables"],
                "--out", str(report),
            )
            == 0
        )
        payload = json.loads(report.read_text())
        assert set(payload) >= {"bleu4", "rouge4_f", "n"}
        assert payload["n"] == 12

    def test_eval_compare_adds_sign_test(self, tiny_bench, tmp_path, capsys):
        examples = read_jsonl(tiny_bench["train_tables"])
        hyp_a = tmp_path / "a.jsonl"
        hyp_b = tmp_path / "b.jsonl"
        with open(hyp_a, "w") as fa, open(hyp_b, "w") as fb:
            for ex in examples:
                fa.write(json.dumps({"table_id": ex["id"], "output": ex["reference"]}) + "\n")
                fb.write(json.dumps({"table_id": ex["id"], "output": "nothing shared here"}) + "\n")
        report = tmp_path / "cmp.json"
        assert (
            run_cli(
                "eval",
                "--hyp", str(hyp_a),
                "--ref", tiny_bench["train_tables"],
                "--compare", str(hyp_b),
                "--out", str(report),
            )
            == 0
        )
        payload = json.loads(report.read_text())
        assert payload["bleu4"] == pytest.approx(1.0)
        assert payload["sign_test"]["rouge4_sign_test_p"] == pytest.approx(2 * 0.5 ** 12, abs=1e-12)

    def test_eval_compare_of_identical_files_has_no_p_value(self, tiny_bench, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text("\n".join(_reference_outputs(tiny_bench["train_tables"])) + "\n",
                       encoding="utf-8")
        report = tmp_path / "cmp.json"
        assert run_cli("eval", "--hyp", str(hyp), "--ref", tiny_bench["train_tables"],
                       "--compare", str(hyp), "--out", str(report)) == 0
        block = json.loads(report.read_text())["sign_test"]
        assert block["rouge4_sign_test_p"] is None
        assert block["note"] == "every paired comparison is a tie"

    def test_eval_hypotheses_missing_a_table_is_data_error(self, tiny_bench, tmp_path, capsys):
        lines = _reference_outputs(tiny_bench["train_tables"])
        missing = json.loads(lines.pop(3))["table_id"]
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "report.json"
        assert run_cli("eval", "--hyp", str(hyp), "--ref", tiny_bench["train_tables"],
                       "--out", str(report)) == 2
        assert f"hypothesis file lacks outputs for tables [{missing}]" in capsys.readouterr().err
        assert not report.exists()

    def test_generate_without_dataset_matches_base_conditioning(
        self, tiny_bench, tiny_config, tmp_path, capsys
    ):
        """Without --dataset each table conditions on itself alone, as in a BASE run."""
        config = tiny_config(variant="BASE", out_dir=str(tmp_path / "base"))
        paths = run_pipeline(config).artifact_paths
        argv = ["generate", "--model", paths["generator_model"], "--tables",
                tiny_bench["test_tables"]]
        assert run_cli(*argv, "--out", str(tmp_path / "alone.jsonl")) == 0
        assert run_cli(*argv, "--dataset", paths["conditioning_test"],
                       "--out", str(tmp_path / "dataset.jsonl")) == 0
        alone = (tmp_path / "alone.jsonl").read_bytes()
        assert alone == (tmp_path / "dataset.jsonl").read_bytes()
        assert alone == Path(paths["outputs"]).read_bytes()


def _reference_outputs(tables_path):
    examples = read_jsonl(tables_path)
    return [json.dumps({"table_id": ex["id"], "output": ex["reference"]}) for ex in examples]


class TestHypothesisFiles:
    @pytest.mark.parametrize("flag", ["--hyp", "--compare"])
    @pytest.mark.parametrize(
        "extra", ['{"table_id": 0, "output": "x"', '"garbage"', '{"output": "no id"}']
    )
    def test_malformed_line_is_data_error(self, tiny_bench, tmp_path, capsys, flag, extra):
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        lines = _reference_outputs(tiny_bench["train_tables"])
        good.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bad.write_text("\n".join(lines[:1] + [extra] + lines[1:]) + "\n", encoding="utf-8")
        files = {"--hyp": good, "--compare": good, flag: bad}
        code = run_cli(
            "eval", "--hyp", str(files["--hyp"]), "--compare", str(files["--compare"]),
            "--ref", tiny_bench["train_tables"], "--out", str(tmp_path / "report.json"),
        )
        assert code == 2
        assert f"{bad}:line 2" in capsys.readouterr().err

    def test_duplicate_table_id_is_data_error(self, tiny_bench, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        lines = _reference_outputs(tiny_bench["train_tables"])
        first_id = json.loads(lines[0])["table_id"]
        dup = json.dumps({"table_id": first_id, "output": "garbage"})
        hyp.write_text("\n".join(lines + [dup]) + "\n", encoding="utf-8")
        code = run_cli(
            "eval", "--hyp", str(hyp), "--ref", tiny_bench["train_tables"],
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{hyp}:line {len(lines) + 1}" in err
        assert f"duplicate table_id {first_id}" in err


class TestPipelineCommands:
    def make_config(self, tiny_bench, tmp_path):
        cfg = {
            "corpus_path": tiny_bench["corpus"],
            "train_tables_path": tiny_bench["train_tables"],
            "test_tables_path": tiny_bench["test_tables"],
            "out_dir": str(tmp_path / "out"),
            "seed": 2,
            "selector": {"epochs": 3},
            "generator": {"epochs": 2},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_ablate_two_variants(self, tiny_bench, tmp_path, capsys):
        cfg = self.make_config(tiny_bench, tmp_path)
        code = run_cli("ablate", "--config", str(cfg), "--variants", "BASE,RET")
        assert code == 0
        payload = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert [r["variant"] for r in payload["rows"]] == ["BASE", "RET"]

    def test_sweep_n(self, tiny_bench, tmp_path, capsys):
        cfg = self.make_config(tiny_bench, tmp_path)
        assert run_cli("sweep-n", "--config", str(cfg), "--n-values", "1,2") == 0
        payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert [r["n"] for r in payload["rows"]] == [1, 2]

    def test_out_dir_flag_overrides_config(self, tiny_bench, tmp_path, capsys):
        cfg = self.make_config(tiny_bench, tmp_path)
        other = tmp_path / "elsewhere"
        assert (
            run_cli(
                "ablate",
                "--config", str(cfg),
                "--variants", "BASE,RET",
                "--out-dir", str(other),
            )
            == 0
        )
        assert (other / "ablation.json").exists()

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "forked"])
    def test_failed_run_keeps_its_exit_code(self, tiny_bench, tmp_path, capsys, monkeypatch,
                                            workers):
        def fail(*args, **kwargs):
            raise DataError("planted failure")

        monkeypatch.setattr(pipeline, "train_generator", fail)
        monkeypatch.setattr(pipeline.blas, "PINNED", True)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(workers)))
        cfg = self.make_config(tiny_bench, tmp_path)
        assert run_cli("ablate", "--config", str(cfg), "--variants", "BASE,RET") == 2
        assert "stage 'train-generator' failed: planted failure" in capsys.readouterr().err

    def test_train_generator_bytes_independent_of_blas_threads(self, tmp_path):
        """Importing prototext sets BLAS to one thread, whatever OPENBLAS_NUM_THREADS says.
        The desk-scale data makes the vocabulary-width products large enough for
        OpenBLAS to split them over two threads when it may."""
        data = synth_benchmark(SyntheticSpec(), tmp_path / "data")
        corpus = load_corpus(data["corpus"])
        train = parse_tables_file(data["train_tables"])
        cands = {ex.id: retrieve(build_index(corpus), ex.table, 50, table_id=ex.id) for ex in train}
        dataset = tmp_path / "augmented.jsonl"
        write_augmented_dataset(dataset, select_prototypes(train, cands, corpus, 3))
        src = str(Path(cli.__file__).parent.parent)
        models = []
        for threads in ("1", "2"):
            models.append(tmp_path / f"generator-{threads}.json")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "prototext.cli", "train-generator",
                 "--dataset", str(dataset), "--tables", data["train_tables"],
                 "--corpus", data["corpus"], "--epochs", "1", "--out", str(models[-1])],
                env=env, check=True, capture_output=True, timeout=300,
            )
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_pipeline_artifacts_feed_stage_commands(self, tiny_bench, tmp_path, capsys):
        """Artifacts written by a pipeline run drive the standalone commands."""
        from prototext.pipeline import run_pipeline, PipelineConfig
        from prototext.selector import SelectorTrainConfig
        from prototext.generator import GeneratorTrainConfig

        config = PipelineConfig(
            corpus_path=tiny_bench["corpus"],
            train_tables_path=tiny_bench["train_tables"],
            test_tables_path=tiny_bench["test_tables"],
            out_dir=str(tmp_path / "pipe"),
            seed=2,
            selector=SelectorTrainConfig(epochs=3),
            generator=GeneratorTrainConfig(epochs=2),
        )
        result = run_pipeline(config)
        paths = result.artifact_paths

        recands = tmp_path / "recands.jsonl"
        assert (
            run_cli(
                "retrieve",
                "--tables", tiny_bench["train_tables"],
                "--corpus", tiny_bench["corpus"],
                "--m", "100",
                "--out", str(recands),
            )
            == 0
        )
        assert recands.read_bytes() == Path(paths["candidates_train"]).read_bytes()

        reselector = tmp_path / "reselector.json"
        assert (
            run_cli(
                "train-selector",
                "--corpus", tiny_bench["corpus"],
                "--tables", tiny_bench["train_tables"],
                "--candidates", paths["candidates_train"],
                "--epochs", str(config.selector.epochs),
                "--seed", str(config.seed + 1),
                "--out", str(reselector),
            )
            == 0
        )
        assert reselector.read_bytes() == Path(paths["selector_model"]).read_bytes()

        regen = tmp_path / "regen.jsonl"
        assert (
            run_cli(
                "select",
                "--model", paths["selector_model"],
                "--corpus", tiny_bench["corpus"],
                "--tables", tiny_bench["train_tables"],
                "--candidates", paths["candidates_train"],
                "--n", "3",
                "--out", str(regen),
            )
            == 0
        )
        assert regen.read_bytes() == Path(paths["augmented_train"]).read_bytes()

        outputs = tmp_path / "outputs2.jsonl"
        assert (
            run_cli(
                "generate",
                "--model", paths["generator_model"],
                "--tables", tiny_bench["test_tables"],
                "--dataset", paths["conditioning_test"],
                "--max-len", str(config.generator.max_decode_len),
                "--out", str(outputs),
            )
            == 0
        )
        assert outputs.read_bytes() == Path(paths["outputs"]).read_bytes()

        report = tmp_path / "report2.json"
        assert (
            run_cli(
                "eval",
                "--hyp", paths["outputs"],
                "--ref", tiny_bench["test_tables"],
                "--out", str(report),
            )
            == 0
        )
        payload = json.loads(report.read_text())
        run_report = json.loads(Path(paths["report"]).read_text())
        assert payload["bleu4"] == run_report["bleu4"]
        assert payload["rouge4_f"] == run_report["rouge4_f"]
