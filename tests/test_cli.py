import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from prototext.cli import build_parser, main
from prototext.generator import GeneratorTrainConfig, init_generator, save_generator, write_outputs
from prototext.pipeline import RUN_SET
from prototext.retrieval import build_index, retrieve, save_index, write_candidate_sets
from prototext.selector import (
    SelectorModel,
    save_selector,
    select_prototypes,
    write_augmented_dataset,
)
from prototext.tabledata import load_corpus, parse_tables_file
from prototext.tokenization import tokenize
from prototext.vocab import Vocabulary


def run_cli(*argv):
    return main(list(argv))


def tiny_generator_file(tmp_path):
    path = tmp_path / "generator.json"
    config = GeneratorTrainConfig(dim=4, max_context=16)
    save_generator(path, init_generator(Vocabulary.build([]), config))
    return path


@pytest.fixture(scope="module")
def stage_files(tiny_bench, tmp_path_factory):
    """Valid index, candidates, augmented and outputs files for the train split."""
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
    return {**files, "corpus": Path(tiny_bench["corpus"])}


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


def _repeat_first(items):
    return items[:1] * 2 + items[2:]


def _non_utf8_text(lines):
    lines[1] = lines[1].replace(b'"text": "', b'"text": "\xff', 1)
    return 2


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
    pytest.param("augmented", _set(1, table_id=[1]), id="augmented-table-id-list"),
    pytest.param("augmented", _repeat_first_line, id="augmented-repeated-table-id"),
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
    pytest.param("index", _set(2, doc_lengths=[[0, 3]]), id="index-doc-count-mismatch"),
    pytest.param("index", _set(3, postings=5), id="index-postings-not-a-list"),
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
    pytest.param("corpus", _repeat_first_line, id="corpus-repeated-id"),
    pytest.param("outputs", _set(1, output=5), id="outputs-output-not-text"),
    pytest.param("outputs", _set(2, table_id=True), id="outputs-table-id-true"),
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


class TestExitCodes:
    @pytest.mark.parametrize("kind, edit", MALFORMED_JSONL)
    def test_malformed_jsonl_line_is_data_error(
        self, tiny_bench, stage_files, tmp_path, capsys, kind, edit
    ):
        bad = tmp_path / f"bad-{kind}.jsonl"
        lines = stage_files[kind].read_bytes().splitlines()
        line = edit(lines)
        bad.write_bytes(b"\n".join(lines) + b"\n")
        out = str(tmp_path / "out")
        argv = {
            "corpus": ["index", "--corpus", str(bad), "--out", out],
            "index": ["retrieve", "--index", str(bad), "--tables", tiny_bench["test_tables"],
                      "--corpus", tiny_bench["corpus"], "--out", out],
            "candidates": ["train-selector", "--corpus", tiny_bench["corpus"],
                           "--tables", tiny_bench["train_tables"], "--candidates", str(bad),
                           "--out", out],
            "augmented": ["train-generator", "--dataset", str(bad),
                          "--tables", tiny_bench["train_tables"], "--corpus", tiny_bench["corpus"],
                          "--out", out],
            "outputs": ["eval", "--hyp", str(bad), "--ref", tiny_bench["train_tables"],
                        "--out", out],
        }[kind]
        assert run_cli(*argv) == 2
        assert f"{bad}:line {line}" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("index", "--corpus", "x.jsonl") == 1

    def test_malformed_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        out = tmp_path / "index.jsonl"
        assert run_cli("index", "--corpus", str(bad), "--out", str(out)) == 2

    def test_unreadable_input_is_internal_error(self, tmp_path, capsys):
        # a directory where a file is expected trips an OSError, not a
        # parse failure
        out = tmp_path / "index.jsonl"
        assert run_cli("index", "--corpus", str(tmp_path), "--out", str(out)) == 3

    def test_bad_config_value_is_config_error(self, tiny_bench, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"corpus_path": "x", "bogus_field": 1}), encoding="utf-8")
        assert run_cli("ablate", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "content", ["{bad", "[1, 2]", '{"selector": {"margin": 1.0}}', '{"selector": 3}']
    )
    def test_malformed_stage_config_is_config_error(self, tiny_bench, tmp_path, capsys, content):
        index, cands = tmp_path / "index.jsonl", tmp_path / "cands.jsonl"
        assert run_cli("index", "--corpus", tiny_bench["corpus"], "--out", str(index)) == 0
        assert run_cli(
            "retrieve", "--index", str(index), "--tables", tiny_bench["train_tables"],
            "--corpus", tiny_bench["corpus"], "--out", str(cands),
        ) == 0
        cfg = tmp_path / "bad.json"
        cfg.write_text(content, encoding="utf-8")
        out = tmp_path / "selector.json"
        code = run_cli(
            "train-selector", "--config", str(cfg), "--corpus", tiny_bench["corpus"],
            "--tables", tiny_bench["train_tables"], "--candidates", str(cands),
            "--out", str(out),
        )
        assert code == 1
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()

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
        "command, raw, field",
        [
            ("train-selector", {"seed": 5, "m": 7, "zzz": 1, "generator": {"epochs": 99},
                                "selector": {"epochs": 2, "k": 1}}, "seed"),
            ("train-selector", {"selector": {"epochs": 2}, "m": 7}, "m"),
            ("train-selector", {"generator": {"epochs": 2}}, "generator"),
            ("train-generator", {"generator": {"epochs": 2}, "seed": 5}, "seed"),
            ("train-generator", {"selector": {"epochs": 2}}, "selector"),
        ],
        ids=["selector-probe", "selector-top-level", "selector-other-section",
             "generator-top-level", "generator-other-section"],
    )
    def test_stage_config_outside_its_section_is_config_error(
        self, tiny_bench, stage_files, tmp_path, capsys, command, raw, field
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "model.json"
        inputs = {
            "train-selector": ["--candidates", str(stage_files["candidates"])],
            "train-generator": ["--dataset", str(stage_files["augmented"])],
        }[command]
        code = run_cli(
            command, "--config", str(cfg), *inputs, "--tables", tiny_bench["train_tables"],
            "--corpus", tiny_bench["corpus"], "--out", str(out),
        )
        assert code == 1
        assert f"config field {field} cannot be set" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "section, field",
        [
            ({"ca_enabled": 1}, "generator.ca_enabled"),
            ({"max_decode_len": 3}, "generator.max_decode_len"),
        ],
        ids=["ca_enabled-not-a-bool", "max_decode_len-unread"],
    )
    def test_bad_train_generator_config_is_config_error(
        self, tiny_bench, stage_files, tmp_path, capsys, section, field
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"generator": section}), encoding="utf-8")
        out = tmp_path / "generator.json"
        code = run_cli(
            "train-generator", "--config", str(cfg), "--dataset", str(stage_files["augmented"]),
            "--tables", tiny_bench["train_tables"], "--corpus", tiny_bench["corpus"],
            "--out", str(out),
        )
        assert code == 1
        assert f"config field {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_index_lengths_line_is_data_error(self, tiny_bench, tmp_path, capsys):
        index = tmp_path / "index.jsonl"
        assert run_cli("index", "--corpus", tiny_bench["corpus"], "--out", str(index)) == 0
        lines = index.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        index.write_text("".join(lines), encoding="utf-8")
        code = run_cli(
            "retrieve", "--index", str(index), "--tables", tiny_bench["test_tables"],
            "--corpus", tiny_bench["corpus"], "--out", str(tmp_path / "cands.jsonl"),
        )
        assert code == 2
        assert f"{index}:line 2" in capsys.readouterr().err

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
    "index": ["--corpus", "c", "--out", "o"],
    "retrieve": ["--index", "i", "--tables", "t", "--corpus", "c", "--out", "o"],
    "train-selector": ["--corpus", "c", "--tables", "t", "--candidates", "k", "--out", "o"],
    "select": ["--model", "m", "--corpus", "c", "--tables", "t", "--candidates", "k", "--out", "o"],
    "train-generator": ["--dataset", "a", "--tables", "t", "--corpus", "c", "--out", "o"],
    "generate": ["--model", "m", "--tables", "t", "--out", "o"],
    "eval": ["--hyp", "h", "--ref", "r", "--out", "o"],
}
FLAG_VALUES = {
    "--config": "config.json", "--seed": "9", "--out-dir": "elsewhere", "--max-decode-len": "3"
}
UNREAD_FLAGS = [
    *((command, flag) for command in ("index", "retrieve", "select", "generate", "eval")
      for flag in ("--config", "--seed", "--out-dir")),
    ("synth", "--config"),
    ("train-selector", "--out-dir"),
    ("train-generator", "--out-dir"),
    ("train-generator", "--max-decode-len"),
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


# Required flags that the command's handler checks, not argparse.
HANDLER_REQUIRED = {"synth": {"--out-dir"}, "ablate": {"--config"}, "sweep-n": {"--config"}}


def test_readme_flag_table_matches_parser():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    table = _readme_flag_table()
    assert set(table) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        actions = [a for a in parser._actions if "--help" not in a.option_strings]
        flags = {flag for a in actions for flag in a.option_strings}
        required = {a.option_strings[0] for a in actions if a.required}
        required |= HANDLER_REQUIRED.get(command, set())
        assert table[command] == (required, flags - required), command


def test_readme_run_set_matches_pipeline():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"may not set (.*?) \(`pipeline\.RUN_SET`\)", readme, re.S).group(1)
    assert tuple(re.findall(r"`([a-z_.]+)`", listed)) == RUN_SET


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


def _narrow_selector_projection(text):
    payload = json.loads(text)
    payload["projection"] = payload["projection"][:-1]
    return json.dumps(payload)


def _narrow_generator_w_key(text):
    payload = json.loads(text)
    payload["params"]["w_key"] = [row[:-1] for row in payload["params"]["w_key"]]
    return json.dumps(payload)


def _rename_eos(text):
    payload = json.loads(text)
    payload["tokens"] = ["<end>" if t == "<eos>" else t for t in payload["tokens"]]
    return json.dumps(payload)


def _retyped(key, new):
    """A corruption that replaces the model file's ``key`` with ``new(its value)``."""

    def corrupt(text):
        payload = json.loads(text)
        payload[key] = new(payload[key])
        return json.dumps(payload)

    return corrupt


CORRUPTIONS = [_truncate, _drop_tokens, _ill_typed_tokens]
# values that name a number without being one, or that fill a matrix with a bool
NOT_NUMBERS = {
    "generator": {
        "max_context-string": _retyped("max_context", str),
        "max_context-float": _retyped("max_context", float),
    },
    "selector": {
        "bias-string": _retyped("bias", lambda _: "1e3"),
        "bias-bool": _retyped("bias", lambda _: True),
        "projection-strings": _retyped("projection", lambda row: [str(x) for x in row]),
        "embeddings-bool": _retyped("embeddings", lambda rows: [[True] + r[1:] for r in rows]),
    },
}


def not_numbers(kind):
    return [pytest.param(corrupt, id=name) for name, corrupt in NOT_NUMBERS[kind].items()]


class TestCorruptModelFiles:
    @pytest.mark.parametrize(
        "corrupt", CORRUPTIONS + [_narrow_generator_w_key, _rename_eos] + not_numbers("generator")
    )
    def test_corrupt_generator_is_data_error(self, tiny_bench, tmp_path, capsys, corrupt):
        model = tiny_generator_file(tmp_path)
        model.write_text(corrupt(model.read_text()), encoding="utf-8")
        code = run_cli(
            "generate", "--model", str(model), "--tables", tiny_bench["test_tables"],
            "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 2
        assert str(model) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt", CORRUPTIONS + [_narrow_selector_projection] + not_numbers("selector")
    )
    def test_corrupt_selector_is_data_error(self, tiny_bench, tmp_path, capsys, corrupt):
        vocab = Vocabulary.build([])
        model = tmp_path / "selector.json"
        save_selector(model, SelectorModel(vocab, np.ones((len(vocab), 3)), np.ones(3), 0.0))
        model.write_text(corrupt(model.read_text()), encoding="utf-8")
        code = run_cli(
            "select", "--model", str(model), "--corpus", tiny_bench["corpus"],
            "--tables", tiny_bench["test_tables"], "--candidates", str(tmp_path / "none.jsonl"),
            "--out", str(tmp_path / "augmented.jsonl"),
        )
        assert code == 2
        assert str(model) in capsys.readouterr().err


class TestStageCommands:
    def test_index_retrieve_select_eval_chain(self, tiny_bench, tmp_path, capsys):
        index = tmp_path / "index.jsonl"
        assert run_cli("index", "--corpus", tiny_bench["corpus"], "--out", str(index)) == 0

        cands = tmp_path / "cands.jsonl"
        assert (
            run_cli(
                "retrieve",
                "--index", str(index),
                "--tables", tiny_bench["train_tables"],
                "--corpus", tiny_bench["corpus"],
                "--m", "50",
                "--out", str(cands),
            )
            == 0
        )
        records = [json.loads(l) for l in open(cands) if l.strip()]
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
        aug_records = [json.loads(l) for l in open(augmented) if l.strip()]
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
        examples = [json.loads(l) for l in open(tiny_bench["train_tables"])]
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


def _reference_outputs(tables_path):
    examples = [json.loads(l) for l in open(tables_path) if l.strip()]
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
                "--index", paths["index"],
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
