import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from prototext import pipeline
from prototext.errors import InvalidConfig, StageError
from prototext.pipeline import (
    VARIANTS,
    config_from_dict,
    load_config,
    run_ablation,
    run_pipeline,
    selector_precision_benchmark,
    sweep_n,
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
from prototext.tabledata import load_corpus, parse_tables_file


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

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfig):
            config_from_dict({"corpus_path": "x", "zzz": 1})

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
            config_from_dict({"corpus_path": "x", section: fields})

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
            config_from_dict({"corpus_path": "x", **raw})

    def test_int_learning_rate_accepted(self):
        raw = {"generator": {"learning_rate": 1}}
        config = pipeline.section_config(GeneratorTrainConfig, "generator", raw)
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
        report = json.loads(Path(result.report_path).read_text())
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
