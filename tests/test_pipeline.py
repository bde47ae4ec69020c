import dataclasses
import hashlib
import json
import multiprocessing
import pickle
import re
from collections import Counter
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from prototext import pipeline
from prototext.errors import DataError, DuplicateId, InvalidConfig, ParseError, StageError
from prototext.pipeline import (
    VARIANTS,
    PipelineConfig,
    load_config,
    run_ablation,
    run_pipeline,
    selector_precision_benchmark,
    sweep_n,
    typed_config,
)
from prototext.generator import GeneratorTrainConfig
from prototext.retrieval import build_index, retrieve_candidates
from prototext.selector import (
    SelectorTrainConfig,
    read_augmented_dataset,
    shared_vocabulary,
    train_selector,
    training_triples,
)
from prototext.synth import SyntheticSpec
from prototext.tabledata import load_corpus, parse_tables_file


# JSON values of the wrong type for each field type; None only where it is not optional.
WRONG_VALUES = {int: [True, 2.5, None], float: [True, "0.1", None], str: [5, ["x"], None],
                bool: [1, None]}

# The config classes by section: the sections of a pipeline config file, then synth's spec.
CONFIG_FILE_SECTIONS = {"": PipelineConfig, "selector": SelectorTrainConfig,
                        "generator": GeneratorTrainConfig}
SECTIONS = {**CONFIG_FILE_SECTIONS, "synth": SyntheticSpec}


def wrong_typed_fields(sections=CONFIG_FILE_SECTIONS):
    for section, cls in sections.items():
        for key, kind in get_type_hints(cls).items():
            if dataclasses.is_dataclass(kind):
                continue
            name = f"{section}.{key}" if section else key
            types = get_args(kind) or (kind,)
            for value in WRONG_VALUES[types[0]]:
                if type(value) not in types:
                    yield pytest.param(name, value, id=f"{name}={value!r}")


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestConfig:
    def test_default_pipeline_constants(self, tiny_bench, tmp_path):
        from prototext.pipeline import PipelineConfig

        config = PipelineConfig(
            corpus_path=tiny_bench["corpus"],
            train_tables_path=tiny_bench["train_tables"],
            test_tables_path=tiny_bench["test_tables"],
            out_dir=str(tmp_path),
        )
        assert config.m == 100
        assert config.n == 3
        assert config.selector.k == 5

    def test_variant_validated(self, tiny_config):
        with pytest.raises(InvalidConfig):
            tiny_config(variant="BOGUS")

    def test_m_n_ordering(self, tiny_config):
        with pytest.raises(InvalidConfig):
            tiny_config(m=2, n=3)

    def test_m_zero_rejected(self, tiny_config):
        # retrieve needs m >= 1, so the config is rejected where it is built
        with pytest.raises(InvalidConfig, match="config field m must be an int >= 1, got 0"):
            tiny_config(m=0, n=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfig):
            typed_config(PipelineConfig, {"corpus_path": "x", "zzz": 1})

    @pytest.mark.parametrize(
        "section, fields",
        [
            ("selector", {"epochs": 2.5}),
            ("selector", {"k": True}),
            ("selector", {"learning_rate": "0.1"}),
            ("generator", {"ca_enabled": 1}),
            ("generator", {"max_context": None}),
        ],
    )
    def test_ill_typed_section_field_rejected(self, section, fields):
        with pytest.raises(InvalidConfig, match=f"{section}.{next(iter(fields))}"):
            typed_config(PipelineConfig, {"corpus_path": "x", section: fields})

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"variant": "BASE"}, "variant"),
            ({"selector": {"seed": 77}}, "selector.seed"),
            ({"generator": {"seed": 88}}, "generator.seed"),
            ({"generator": {"ca_enabled": False}}, "generator.ca_enabled"),
        ],
        ids=["variant", "selector.seed", "generator.seed", "generator.ca_enabled"],
    )
    def test_field_a_run_sets_rejected(self, raw, field):
        with pytest.raises(InvalidConfig, match=f"config field {field} cannot be set"):
            typed_config(PipelineConfig, {"corpus_path": "x", **raw})

    @pytest.mark.parametrize("name, value", list(wrong_typed_fields()))
    def test_wrong_typed_field_rejected(self, name, value):
        section, _, key = name.rpartition(".")
        raw = {"corpus_path": "c", "train_tables_path": "t", "test_tables_path": "s",
               "out_dir": "o"}
        raw.update({section: {key: value}} if section else {key: value})
        with pytest.raises(InvalidConfig, match=rf"config field {re.escape(name)} must be"):
            typed_config(PipelineConfig, raw)

    @pytest.mark.parametrize("name, value", list(wrong_typed_fields(SECTIONS)))
    def test_wrong_typed_field_rejected_in_python_api(self, tiny_config, name, value):
        section, _, key = name.rpartition(".")
        build = SECTIONS[section] if section else tiny_config
        with pytest.raises(InvalidConfig, match=rf"config field {re.escape(key)} must be"):
            build(**{key: value})

    @pytest.mark.parametrize("name", [name for name in pipeline.RUN_SET if "." in name])
    def test_section_field_a_run_sets_rejected_in_python_api(self, tiny_config, name):
        section, key = name.split(".")
        part = getattr(tiny_config(), section)
        value = getattr(part, key)
        changed = dataclasses.replace(part, **{key: not value if isinstance(value, bool) else 5})
        with pytest.raises(InvalidConfig, match=f"field {re.escape(name)} cannot be set"):
            tiny_config(**{section: changed})

    @pytest.mark.parametrize("max_context, max_decode_len", [(32, 32), (32, 40), (256, 0)])
    def test_decode_len_outside_context_rejected(self, tiny_config, max_context, max_decode_len):
        # below 1 the section rejects it; past the context the pipeline does
        match = ("generator.max_decode_len must be in" if max_decode_len
                 else "config field max_decode_len must be an int >= 1, got 0")
        with pytest.raises(InvalidConfig, match=match):
            generator = GeneratorTrainConfig(max_context=max_context, max_decode_len=max_decode_len)
            tiny_config(generator=generator)

    @pytest.mark.parametrize("section", ["selector", "generator"])
    def test_bound_error_names_its_section(self, section):
        message = f"bad config {section}: config field epochs must be an int >= 0, got -1"
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            typed_config(PipelineConfig, {"corpus_path": "x", section: {"epochs": -1}})

    def test_labels_path_rejected(self):
        with pytest.raises(InvalidConfig, match="config field labels_path cannot be set"):
            typed_config(PipelineConfig, {"corpus_path": "x", "labels_path": "labels.jsonl"})

    def test_int_learning_rate_accepted(self):
        config = typed_config(GeneratorTrainConfig, {"learning_rate": 1}, "generator")
        assert config == GeneratorTrainConfig(learning_rate=1)

    def test_load_config_with_overrides(self, tiny_bench, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "corpus_path": tiny_bench["corpus"],
                    "train_tables_path": tiny_bench["train_tables"],
                    "test_tables_path": tiny_bench["test_tables"],
                    "out_dir": str(tmp_path / "out"),
                    "seed": 1,
                    "selector": {"epochs": 2},
                    "generator": {"epochs": 2},
                }
            ),
            encoding="utf-8",
        )
        config = load_config(cfg_path, seed=9)
        assert config.seed == 9
        assert config.selector.epochs == 2


class TestRunPipeline:
    def test_artifacts_and_report(self, tiny_config):
        result = run_pipeline(tiny_config())
        for key in (
            "index",
            "candidates_train",
            "candidates_test",
            "selector_model",
            "augmented_train",
            "conditioning_test",
            "generator_model",
            "outputs",
            "report",
        ):
            assert Path(result.artifact_paths[key]).exists(), key
        report = json.loads(Path(result.artifact_paths["report"]).read_text())
        assert report["variant"] == "RET_PS_CA"
        assert 0.0 <= report["bleu4"] <= 1.0
        assert report["pair_count"] == 5
        assert len(report["per_example_rouge4"]) == 5

    def test_base_variant_has_no_prototypes(self, tiny_config):
        config = tiny_config(variant="BASE")
        result = run_pipeline(config)
        for record in read_jsonl(result.artifact_paths["augmented_train"]):
            assert record["prototype_ids"] == []
            assert record["prototypes"] == []
        assert "selector_model" not in result.artifact_paths

    def test_ret_variant_takes_bm25_head(self, tiny_config):
        config = tiny_config(variant="RET")
        result = run_pipeline(config)
        cands = {r["table_id"]: r["candidates"] for r in read_jsonl(result.artifact_paths["candidates_train"])}
        for record in read_jsonl(result.artifact_paths["augmented_train"]):
            expected = [sid for sid, _ in cands[record["table_id"]][: config.n]]
            assert record["prototype_ids"] == expected

    def test_variant_isolation_shares_candidates(self, tiny_config, tmp_path):
        r_base = run_pipeline(tiny_config(variant="BASE", out_dir=str(tmp_path / "base")))
        r_ret = run_pipeline(tiny_config(variant="RET", out_dir=str(tmp_path / "ret")))
        r_ps = run_pipeline(tiny_config(variant="RET_PS", out_dir=str(tmp_path / "ps")))
        for key in ("index", "candidates_train", "candidates_test"):
            b = Path(r_base.artifact_paths[key]).read_bytes()
            assert b == Path(r_ret.artifact_paths[key]).read_bytes()
            assert b == Path(r_ps.artifact_paths[key]).read_bytes()

    def test_rerun_is_byte_identical(self, tiny_config, tmp_path):
        r1 = run_pipeline(tiny_config(out_dir=str(tmp_path / "r1")))
        r2 = run_pipeline(tiny_config(out_dir=str(tmp_path / "r2")))
        for key in r1.artifact_paths:
            assert (
                Path(r1.artifact_paths[key]).read_bytes()
                == Path(r2.artifact_paths[key]).read_bytes()
            ), key

    def test_missing_input_aborts_with_stage_name(self, tiny_config):
        config = tiny_config(corpus_path="/nonexistent/corpus.jsonl")
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "load-data"

    def test_artifact_consumable_by_library_readers(self, tiny_config):
        result = run_pipeline(tiny_config())
        config = tiny_config()
        examples = parse_tables_file(config.train_tables_path)
        records = read_augmented_dataset(result.artifact_paths["augmented_train"], examples)
        assert len(records) == len(examples)


class TestAblation:
    def test_structure_and_shared_seed(self, tiny_config, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "ablate"))
        payload = run_ablation(config, variants=("BASE", "RET"), seeds=[5])
        assert payload["seeds"] == [5]
        assert [row["variant"] for row in payload["rows"]] == ["BASE", "RET"]
        assert len(payload["sign_tests"]) == 1
        assert payload["sign_tests"][0]["pair"] == ["BASE", "RET"]
        assert (tmp_path / "ablate" / "ablation.json").exists()

    def test_repeated_seed_rejected(self, tiny_config):
        with pytest.raises(InvalidConfig, match="seeds repeat"):
            run_ablation(tiny_config(), VARIANTS, [1, 2, 1])
        assert not Path(tiny_config().out_dir).exists()

    def test_needs_two_variants(self, tiny_config):
        with pytest.raises(InvalidConfig):
            run_ablation(tiny_config(), variants=("BASE",))

    def test_unknown_variant_rejected(self, tiny_config):
        with pytest.raises(InvalidConfig):
            run_ablation(tiny_config(), variants=("BASE", "NOPE"))


class TestSharedStages:
    def test_ablation_runs_match_standalone_runs(self, tiny_config, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "ablate"))
        run_ablation(config, VARIANTS, [1, 2])
        for variant in VARIANTS:
            for seed in (1, 2):
                shared = tmp_path / "ablate" / f"{variant.lower()}-seed{seed}"
                alone = tmp_path / "alone" / shared.name
                run_pipeline(
                    dataclasses.replace(config, variant=variant, seed=seed, out_dir=str(alone))
                )
                names = sorted(p.name for p in alone.iterdir())
                assert sorted(p.name for p in shared.iterdir()) == names
                for name in names:
                    assert (shared / name).read_bytes() == (alone / name).read_bytes(), (
                        shared.name,
                        name,
                    )

    def test_index_once_and_selector_once_per_seed(self, tiny_config, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("build_index", "train_selector"):

            def counted(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        run_ablation(tiny_config(out_dir=str(tmp_path / "ablate")), VARIANTS, [1, 2])
        assert calls == {"build_index": 1, "train_selector": 2}
        calls.clear()
        sweep_n(tiny_config(out_dir=str(tmp_path / "sweep")), [1, 2, 3])
        assert calls == {"build_index": 1, "train_selector": 1}


def tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestParallelRuns:
    def test_one_and_two_workers_write_the_same_bytes(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline.blas, "PINNED", True)
        for workers in (1, 2):
            monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(workers)))
            run_ablation(tiny_config(out_dir=str(tmp_path / f"ablate{workers}")), VARIANTS, [1, 2])
            sweep_n(tiny_config(out_dir=str(tmp_path / f"sweep{workers}")), [1, 2, 3])
        # ablation.json and 8 or 9 files per run; sweep.json and 9 files per run
        for kind, files in (("ablate", 1 + 2 * (8 + 8 + 9 + 9)), ("sweep", 1 + 3 * 9)):
            one = tree_digests(tmp_path / f"{kind}1")
            assert len(one) == files
            assert one == tree_digests(tmp_path / f"{kind}2")

    def test_unpinned_blas_starts_no_process(self, tiny_config, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(pipeline.blas, "PINNED", False)
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", refuse)
        payload = run_ablation(tiny_config(out_dir=str(tmp_path / "ablate")), VARIANTS, [1, 2])
        assert len(payload["rows"]) == len(VARIANTS)

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_worker_outlives_the_call(self, tiny_config, tmp_path, monkeypatch, fails):
        if fails:
            def fail(*args, **kwargs):
                raise DataError("planted failure")

            monkeypatch.setattr(pipeline, "train_generator", fail)
        monkeypatch.setattr(pipeline.blas, "PINNED", True)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1})
        try:
            run_ablation(tiny_config(out_dir=str(tmp_path / "ablate")), VARIANTS, [1, 2])
            assert not fails
        except StageError as exc:
            assert fails and exc.stage == "train-generator"
            assert isinstance(exc.cause, DataError)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "error",
    [
        StageError("train-generator", ValueError("bad value")),
        StageError("load-data", ParseError("bad record", 4, "tables.jsonl")),
        ParseError("bad record", 4, "tables.jsonl"),
        DuplicateId(7, "table_id"),
    ],
    ids=["StageError", "StageError-ParseError", "ParseError", "DuplicateId"],
)
def test_errors_survive_pickling(error):
    if isinstance(error, DuplicateId):
        error.line_no, error.path = 3, "tables.jsonl"
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    for name in ("stage", "message", "line_no", "path", "dup_id"):
        assert getattr(copy, name, None) == getattr(error, name, None)
    if isinstance(error, StageError):
        assert type(copy.cause) is type(error.cause) and str(copy.cause) == str(error.cause)


class TestSharedVocabulary:
    def test_selector_vocabulary_is_the_shared_vocabulary(self, tiny_bench):
        corpus = load_corpus(tiny_bench["corpus"])
        train = parse_tables_file(tiny_bench["train_tables"])
        cands = retrieve_candidates(build_index(corpus), train, 100, corpus)
        config = SelectorTrainConfig(epochs=0)
        model, _ = train_selector(training_triples(train, cands), corpus, config)
        assert model.vocab == shared_vocabulary(corpus, train)


class TestSweepN:
    def test_two_point_sweep(self, tiny_config, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "sweep"))
        payload = sweep_n(config, [1, 2])
        assert [row["n"] for row in payload["rows"]] == [1, 2]
        assert (tmp_path / "sweep" / "sweep.json").exists()

    def test_repeated_n_rejected(self, tiny_config):
        with pytest.raises(InvalidConfig, match="distinct n values"):
            sweep_n(tiny_config(), [2, 2])
        assert not Path(tiny_config().out_dir).exists()

    def test_n_zero_rejected(self, tiny_config):
        with pytest.raises(InvalidConfig):
            sweep_n(tiny_config(), [0])

    def test_n_beyond_m_rejected(self, tiny_config):
        with pytest.raises(InvalidConfig):
            sweep_n(tiny_config(m=4, n=1), [5])


class TestSelectorBenchmark:
    def test_reports_both_precisions(self, tiny_config):
        config = tiny_config(selector=dataclasses.replace(tiny_config().selector, epochs=12))
        report = selector_precision_benchmark(config)
        assert report["tables"] == 17
        assert 0.0 <= report["bm25_precision"] <= 1.0
        assert 0.0 <= report["selector_precision"] <= 1.0
        assert len(report["selector_epoch_losses"]) == 12

    def test_requires_labels(self, tiny_config):
        with pytest.raises(InvalidConfig):
            selector_precision_benchmark(tiny_config(labels_path=None))


def test_benchmark_tracer_sees_every_layer_of_a_run(tiny_config, monkeypatch):
    """The benchmark under bench/ traces src by name: every function it wraps and
    every argument its counts read must still exist, so one traced run reaches every
    layer and repeats no retrieval."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing
    import workloads  # noqa: F401 - its module-level reads of src must resolve

    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(tiny_config(variant="RET_PS_CA"))
    finally:
        tracer.uninstall()
    assert tracing.absent_layers(tracer.spans) == []
    assert tracing.layer_metrics(tracer.spans, 1.0)["pipeline.repeat_retrievals"] == 0
