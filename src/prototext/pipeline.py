"""End-to-end orchestration: single runs, the ablation ladder, the n-sweep.

A pipeline run executes index -> retrieve -> leakage filter -> prototype
selection -> generator training -> greedy decoding -> evaluation, and
writes every intermediate artifact into its output directory so each
stage can also be driven standalone through the CLI. System variants:

* ``BASE``       conditions the generator on the table alone;
* ``RET``        feeds the top-n candidates in raw BM25 order;
* ``RET_PS``     feeds prototypes chosen by the trained selector;
* ``RET_PS_CA``  additionally enables the content-aware loss.

Runs are deterministic: given the same configuration and input files,
every report and model file is byte-identical across reruns.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import AllTies, InvalidConfig, PrototextError, StageError
from .evaluation import EvalReport, evaluate_pairs, precision_at_k, sign_test
from .generator import (
    GeneratorTrainConfig,
    generate_outputs,
    save_generator,
    train_generator,
    write_outputs,
)
from .retrieval import (
    CandidateSet,
    build_index,
    filter_leakage,
    retrieve,
    save_index,
    write_candidate_sets,
)
from .selector import (
    SelectorModel,
    SelectorTrainConfig,
    save_selector,
    select_prototypes,
    train_selector,
    write_augmented_dataset,
)
from .synth import read_labels
from .tabledata import Corpus, Example, linearize_table, load_corpus, parse_tables_file
from .tokenization import tokenize
from .vocab import Vocabulary

log = logging.getLogger(__name__)

VARIANTS = ("BASE", "RET", "RET_PS", "RET_PS_CA")


@dataclass(frozen=True)
class PipelineConfig:
    corpus_path: str
    train_tables_path: str
    test_tables_path: str
    out_dir: str
    labels_path: str | None = None
    m: int = 100
    n: int = 3
    variant: str = "RET_PS_CA"
    seed: int = 13
    selector: SelectorTrainConfig = field(default_factory=SelectorTrainConfig)
    generator: GeneratorTrainConfig = field(default_factory=GeneratorTrainConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (self.m >= self.n >= 0):
            raise InvalidConfig(f"need m >= n >= 0, got m={self.m}, n={self.n}")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")


def config_from_dict(raw: dict, **overrides) -> PipelineConfig:
    """Build a config from a JSON-shaped dict; unknown keys are errors."""
    data = dict(raw)
    data.update({k: v for k, v in overrides.items() if v is not None})
    sel = data.pop("selector", {})
    gen = data.pop("generator", {})
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfig(f"unknown config fields: {sorted(unknown)}")
    try:
        selector = SelectorTrainConfig(**sel)
        generator = GeneratorTrainConfig(**gen)
        return PipelineConfig(selector=selector, generator=generator, **data)
    except TypeError as exc:
        raise InvalidConfig(f"bad config structure: {exc}") from None


def read_config_file(path: str | Path) -> dict:
    """The JSON object a config file holds; anything else is InvalidConfig."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config file {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig("config file must contain a JSON object")
    return raw


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    return config_from_dict(read_config_file(path), **overrides)


@dataclass(frozen=True)
class PipelineResult:
    report: EvalReport
    report_path: str
    artifact_paths: dict[str, str]
    selector_epoch_losses: tuple[float, ...]
    generator_epoch_losses: tuple[float, ...]


def dump_json(path: str | Path, payload: dict) -> None:
    """Write a report as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PrototextError as exc:
        raise StageError(name, exc) from exc
    except Exception as exc:  # noqa: BLE001 - report the stage, keep the cause
        raise StageError(name, exc) from exc


def _filtered_candidates(index, corpus, examples, m):
    out = []
    for ex in examples:
        cands = retrieve(index, ex.table, m, table_id=ex.id)
        out.append(filter_leakage(cands, corpus, ex.reference))
    return out


def _by_table_id(candidate_sets: Sequence[CandidateSet]) -> dict[int, CandidateSet]:
    return {c.table_id: c for c in candidate_sets}


def _train_selector(
    config: PipelineConfig, corpus: Corpus, examples: Sequence[Example], candidate_sets
) -> tuple[SelectorModel, list[float]]:
    """Train the selector on the training tables, seeded ``seed + 1``."""
    triples = [(ex.table, ex.reference, c) for ex, c in zip(examples, candidate_sets)]
    sel_config = dataclasses.replace(config.selector, seed=config.seed + 1)
    return train_selector(triples, corpus, sel_config)


def shared_vocabulary(corpus: Corpus, examples: Sequence[Example]) -> Vocabulary:
    """One vocabulary for the whole pipeline: corpus plus training tables
    and references, so every model indexes tokens identically."""
    streams = [s.tokens for s in corpus]
    streams += [linearize_table(ex.table) for ex in examples]
    streams += [tokenize(ex.reference) for ex in examples]
    return Vocabulary.build(streams)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}

    def load_inputs():
        return (
            load_corpus(config.corpus_path),
            parse_tables_file(config.train_tables_path),
            parse_tables_file(config.test_tables_path),
        )

    corpus, train_examples, test_examples = _stage("load-data", load_inputs)

    def build_and_save_index():
        index = build_index(corpus)
        paths["index"] = str(out / "index.jsonl")
        save_index(paths["index"], index)
        return index

    index = _stage("index", build_and_save_index)

    def retrieval_stage():
        train_c = _filtered_candidates(index, corpus, train_examples, config.m)
        test_c = _filtered_candidates(index, corpus, test_examples, config.m)
        paths["candidates_train"] = str(out / "candidates_train.jsonl")
        paths["candidates_test"] = str(out / "candidates_test.jsonl")
        write_candidate_sets(paths["candidates_train"], train_c)
        write_candidate_sets(paths["candidates_test"], test_c)
        return train_c, test_c

    train_cands, test_cands = _stage("retrieve", retrieval_stage)

    selector_losses: list[float] = []

    def selection_stage():
        model = None
        if config.variant in ("RET_PS", "RET_PS_CA"):
            model, losses = _train_selector(config, corpus, train_examples, train_cands)
            selector_losses.extend(losses)
            paths["selector_model"] = str(out / "selector.json")
            save_selector(paths["selector_model"], model)
        n = 0 if config.variant == "BASE" else config.n
        train_records = select_prototypes(
            train_examples, _by_table_id(train_cands), corpus, n, model
        )
        test_records = select_prototypes(test_examples, _by_table_id(test_cands), corpus, n, model)
        paths["augmented_train"] = str(out / "augmented_train.jsonl")
        paths["conditioning_test"] = str(out / "conditioning_test.jsonl")
        write_augmented_dataset(paths["augmented_train"], train_records)
        write_augmented_dataset(paths["conditioning_test"], test_records)
        return train_records, test_records

    train_records, test_records = _stage("select", selection_stage)

    def generator_stage():
        vocab = shared_vocabulary(corpus, train_examples)
        gen_config = dataclasses.replace(
            config.generator,
            seed=config.seed + 2,
            ca_enabled=(config.variant == "RET_PS_CA"),
        )
        model, losses = train_generator(train_records, gen_config, vocab=vocab)
        paths["generator_model"] = str(out / "generator.json")
        save_generator(paths["generator_model"], model)
        return model, losses, gen_config

    gen_model, generator_losses, gen_config = _stage("train-generator", generator_stage)

    def decode_stage():
        outputs = generate_outputs(gen_model, test_records, gen_config.max_decode_len)
        paths["outputs"] = str(out / "outputs.jsonl")
        write_outputs(paths["outputs"], outputs)
        return outputs

    outputs = _stage("generate", decode_stage)

    def evaluation_stage():
        hyps = [tokens for _, tokens in outputs]
        refs = [tokenize(ex.reference) for ex in test_examples]
        report = evaluate_pairs(hyps, refs)
        paths["report"] = str(out / "report.json")
        payload = {
            "variant": config.variant,
            "seed": config.seed,
            "m": config.m,
            "n": config.n,
            "pair_count": report.pair_count,
            "bleu4": report.bleu4,
            "rouge4_f": report.rouge4_f,
            "per_example_rouge4": list(report.per_example_rouge4),
            "selector_epoch_losses": selector_losses,
            "generator_epoch_losses": generator_losses,
        }
        dump_json(paths["report"], payload)
        return report

    report = _stage("evaluate", evaluation_stage)
    log.info(
        "pipeline %s seed %d: BLEU-4 %.4f ROUGE-4 %.4f",
        config.variant,
        config.seed,
        report.bleu4,
        report.rouge4_f,
    )
    return PipelineResult(
        report=report,
        report_path=paths["report"],
        artifact_paths=paths,
        selector_epoch_losses=tuple(selector_losses),
        generator_epoch_losses=tuple(generator_losses),
    )


def run_ablation(
    config: PipelineConfig,
    variants: Sequence[str] = VARIANTS,
    seeds: Sequence[int] | None = None,
) -> dict:
    """Run each variant over the shared seeds and compare them.

    Per variant: per-seed BLEU-4/ROUGE-4 plus medians across seeds.
    Adjacent variant pairs get a sign test over per-example ROUGE-4
    values pooled across seeds (paired by seed and example).
    """
    if len(variants) < 2:
        raise InvalidConfig("ablation needs at least two variants")
    for v in variants:
        if v not in VARIANTS:
            raise InvalidConfig(f"unknown variant {v!r}")
    seeds = list(seeds) if seeds else [config.seed]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    runs: dict[str, list[PipelineResult]] = {}
    for variant in variants:
        runs[variant] = []
        for seed in seeds:
            sub = dataclasses.replace(
                config,
                variant=variant,
                seed=seed,
                out_dir=str(out / f"{variant.lower()}-seed{seed}"),
            )
            runs[variant].append(run_pipeline(sub))

    rows = []
    for variant in variants:
        per_seed = [
            {"seed": s, "bleu4": r.report.bleu4, "rouge4_f": r.report.rouge4_f}
            for s, r in zip(seeds, runs[variant])
        ]
        rows.append(
            {
                "variant": variant,
                "runs": per_seed,
                "median_bleu4": statistics.median(r.report.bleu4 for r in runs[variant]),
                "median_rouge4_f": statistics.median(r.report.rouge4_f for r in runs[variant]),
            }
        )

    comparisons = []
    for a, b in zip(variants, variants[1:]):
        pooled_a: list[float] = []
        pooled_b: list[float] = []
        for ra, rb in zip(runs[a], runs[b]):
            pooled_a.extend(ra.report.per_example_rouge4)
            pooled_b.extend(rb.report.per_example_rouge4)
        entry = {"pair": [a, b]}
        try:
            entry["sign_test_p"] = sign_test(pooled_b, pooled_a)
        except AllTies:
            entry["sign_test_p"] = None
            entry["note"] = "all per-example scores tied"
        comparisons.append(entry)

    payload = {
        "seeds": seeds,
        "variants": list(variants),
        "rows": rows,
        "sign_tests": comparisons,
    }
    dump_json(out / "ablation.json", payload)
    return payload


def sweep_n(config: PipelineConfig, n_values: Sequence[int]) -> dict:
    """Prototype-count sweep for the full variant under a shared seed."""
    if not n_values:
        raise InvalidConfig("sweep needs at least one n value")
    for n in n_values:
        if n < 1:
            raise InvalidConfig("n must be >= 1 (the BASE variant covers n = 0)")
        if n > config.m:
            raise InvalidConfig(f"n={n} exceeds m={config.m}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in n_values:
        sub = dataclasses.replace(
            config, variant="RET_PS_CA", n=n, out_dir=str(out / f"n{n}")
        )
        result = run_pipeline(sub)
        rows.append(
            {"n": n, "bleu4": result.report.bleu4, "rouge4_f": result.report.rouge4_f}
        )
    payload = {"seed": config.seed, "variant": "RET_PS_CA", "rows": rows}
    dump_json(out / "sweep.json", payload)
    return payload


def selector_precision_benchmark(config: PipelineConfig) -> dict:
    """Measure prototype quality against planted relevance labels.

    Trains the selector exactly as the pipeline would, then compares
    mean precision@n of the raw BM25 candidate order against the
    selector's ranking, over all labeled tables (train and test).
    """
    if config.labels_path is None:
        raise InvalidConfig("selector benchmark needs labels_path")
    corpus = load_corpus(config.corpus_path)
    train_examples = parse_tables_file(config.train_tables_path)
    test_examples = parse_tables_file(config.test_tables_path)
    labels = read_labels(config.labels_path)
    index = build_index(corpus)
    train_cands = _filtered_candidates(index, corpus, train_examples, config.m)
    test_cands = _filtered_candidates(index, corpus, test_examples, config.m)
    model, losses = _train_selector(config, corpus, train_examples, train_cands)

    bm25_scores = []
    selector_scores = []
    for examples, cands in ((train_examples, train_cands), (test_examples, test_cands)):
        records = select_prototypes(examples, _by_table_id(cands), corpus, config.n, model)
        for rec, c in zip(records, cands):
            relevant = labels.get(rec.table_id, set())
            bm25_scores.append(precision_at_k(c.ids(), relevant, config.n))
            selector_scores.append(precision_at_k(rec.prototype_ids, relevant, config.n))
    return {
        "n": config.n,
        "tables": len(bm25_scores),
        "bm25_precision": sum(bm25_scores) / len(bm25_scores),
        "selector_precision": sum(selector_scores) / len(selector_scores),
        "selector_epoch_losses": losses,
    }
