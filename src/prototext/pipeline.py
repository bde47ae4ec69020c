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
every report and model file is byte-identical across reruns. The runs of
one ablation or sweep share retrieval and the selector trained per seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, get_args, get_type_hints

from .errors import AllTies, InvalidConfig, StageError
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
    InvertedIndex,
    build_index,
    retrieve_candidates,
    save_index,
    write_candidate_sets,
)
from .selector import (
    SelectorModel,
    SelectorTrainConfig,
    save_selector,
    select_prototypes,
    shared_vocabulary,
    train_selector,
    training_triples,
    write_augmented_dataset,
)
from .synth import read_labels
from .tabledata import Corpus, Example, load_corpus, parse_tables_file
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
        for name in RUN_SET:
            section, _, key = name.partition(".")
            part = getattr(self, section)
            if key and getattr(part, key) != getattr(type(part), key):
                raise InvalidConfig(f"field {name} cannot be set: run_pipeline sets it")


# The fields each run of ablate or sweep-n sets itself, or that no command reads;
# a PipelineConfig also holds each section field here at its class default.
RUN_SET = ("variant", "labels_path", "selector.seed", "generator.seed", "generator.ca_enabled")


def typed_config(cls, raw: dict, where: str = "", unread: Sequence[str] = (), **overrides):
    """The config dataclass ``cls`` read from ``raw``, a config file's JSON object: all of
    it, or with ``where`` its section ``where``, which must be its only key. A field whose
    type is a dataclass is a section, read the same way. Each override that is not None
    goes on top. Every key met is InvalidConfig naming its dotted field if ``cls`` lacks
    it, if ``unread`` names it, or if its value is not exactly of the field's type, save
    that an int does for a float and None does for an optional field."""
    if where:
        stray = [key for key in raw if key != where]
        if stray:
            raise InvalidConfig(f"config field {stray[0]} cannot be set: only section {where} is")
        raw = raw.get(where, {})
        if not isinstance(raw, dict):
            raise InvalidConfig(f"config section {where} must be an object")
    hints = get_type_hints(cls)
    values = {}
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        if key not in hints:
            raise InvalidConfig(f"unknown config field {name}")
        if name in unread:
            raise InvalidConfig(f"config field {name} cannot be set: the command sets or ignores it")
        kind = hints[key]
        if dataclasses.is_dataclass(kind):
            value = typed_config(kind, {name: value}, name, unread)
        elif type(value) not in (get_args(kind) or ((float, int) if kind is float else (kind,))):
            kind_name = getattr(kind, "__name__", kind)
            raise InvalidConfig(f"config field {name} must be {kind_name}, not {type(value).__name__}")
        values[key] = value
    values.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return cls(**values)
    except TypeError as exc:
        raise InvalidConfig(f"bad config {where or 'file'}: {exc}") from None


def config_from_dict(raw: dict, **overrides) -> PipelineConfig:
    """An ablate or sweep-n config from a config file's object; no field of RUN_SET may be set."""
    return typed_config(PipelineConfig, raw, "", RUN_SET, **overrides)


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


def dump_json(path: str | Path, payload: dict) -> None:
    """Write a report as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - report the stage, keep the cause
        raise StageError(name, exc) from exc


@dataclass(frozen=True, eq=False)
class _Inputs:
    """What load, index and retrieve give every run over the same files and m."""

    corpus: Corpus
    train: list[Example]
    test: list[Example]
    vocab: Vocabulary
    index: InvertedIndex
    train_cands: dict[int, CandidateSet]
    test_cands: dict[int, CandidateSet]


def _load_and_retrieve(corpus_path: str, train_path: str, test_path: str, m: int) -> _Inputs:
    with _stage("load-data"):
        corpus = load_corpus(corpus_path)
        train = parse_tables_file(train_path)
        test = parse_tables_file(test_path)
        vocab = shared_vocabulary(corpus, train)
    with _stage("index"):
        index = build_index(corpus)
    with _stage("retrieve"):
        train_cands = retrieve_candidates(index, train, m, corpus)
        test_cands = retrieve_candidates(index, test, m, corpus)
    return _Inputs(corpus, train, test, vocab, index, train_cands, test_cands)


def _train_selector(
    inputs: _Inputs, seed: int, config: SelectorTrainConfig
) -> tuple[SelectorModel, list[float]]:
    """The selector trained on the training tables, seeded ``seed + 1``."""
    with _stage("select"):
        triples = training_triples(inputs.train, inputs.train_cands)
        return train_selector(triples, inputs.corpus, dataclasses.replace(config, seed=seed + 1))


class _Stages:
    """The stages that runs share, each computed once per value of the
    config fields it reads. Runs only read what these return."""

    def __init__(self):
        self._inputs = functools.cache(_load_and_retrieve)
        self._selector = functools.cache(_train_selector)

    def inputs(self, config: PipelineConfig) -> _Inputs:
        paths = (config.corpus_path, config.train_tables_path, config.test_tables_path)
        return self._inputs(*paths, config.m)

    def selector(self, config: PipelineConfig) -> tuple[SelectorModel, list[float]]:
        return self._selector(self.inputs(config), config.seed, config.selector)


def run_pipeline(config: PipelineConfig, *, stages: _Stages | None = None) -> PipelineResult:
    """One run. Runs given the same ``stages`` share load, index, retrieve and the selector."""
    stages = stages or _Stages()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shared = stages.inputs(config)
    paths = {"index": str(out / "index.jsonl")}
    with _stage("index"):
        save_index(paths["index"], shared.index)
    with _stage("retrieve"):
        for split, cands in (("train", shared.train_cands), ("test", shared.test_cands)):
            paths[f"candidates_{split}"] = str(out / f"candidates_{split}.jsonl")
            write_candidate_sets(paths[f"candidates_{split}"], list(cands.values()))

    model, selector_losses = None, []
    if config.variant in ("RET_PS", "RET_PS_CA"):
        model, selector_losses = stages.selector(config)
    with _stage("select"):
        if model is not None:
            paths["selector_model"] = str(out / "selector.json")
            save_selector(paths["selector_model"], model)
        n = 0 if config.variant == "BASE" else config.n
        train_records = select_prototypes(shared.train, shared.train_cands, shared.corpus, n, model)
        test_records = select_prototypes(shared.test, shared.test_cands, shared.corpus, n, model)
        paths["augmented_train"] = str(out / "augmented_train.jsonl")
        paths["conditioning_test"] = str(out / "conditioning_test.jsonl")
        write_augmented_dataset(paths["augmented_train"], train_records)
        write_augmented_dataset(paths["conditioning_test"], test_records)

    with _stage("train-generator"):
        gen_config = dataclasses.replace(
            config.generator, seed=config.seed + 2, ca_enabled=(config.variant == "RET_PS_CA")
        )
        gen_model, generator_losses = train_generator(train_records, gen_config, shared.vocab)
        paths["generator_model"] = str(out / "generator.json")
        save_generator(paths["generator_model"], gen_model)

    with _stage("generate"):
        outputs = generate_outputs(gen_model, test_records, gen_config.max_decode_len)
        paths["outputs"] = str(out / "outputs.jsonl")
        write_outputs(paths["outputs"], outputs)

    with _stage("evaluate"):
        refs = [tokenize(ex.reference) for ex in shared.test]
        report = evaluate_pairs([tokens for _, tokens in outputs], refs)
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
            "selector_epoch_losses": list(selector_losses),
            "generator_epoch_losses": generator_losses,
        }
        dump_json(paths["report"], payload)
    log.info(
        "pipeline %s seed %d: BLEU-4 %.4f ROUGE-4 %.4f",
        config.variant, config.seed, report.bleu4, report.rouge4_f,
    )
    return PipelineResult(
        report=report,
        report_path=paths["report"],
        artifact_paths=paths,
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
    if len(variants) < 2 or len(set(variants)) < len(variants):
        raise InvalidConfig(f"ablation needs two or more distinct variants, got {list(variants)}")
    for v in variants:
        if v not in VARIANTS:
            raise InvalidConfig(f"unknown variant {v!r}")
    seeds = list(seeds) if seeds else [config.seed]
    if len(set(seeds)) < len(seeds):
        raise InvalidConfig(f"seeds repeat: {seeds}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages = _Stages()

    runs: dict[str, list[PipelineResult]] = {}
    for variant in variants:
        runs[variant] = []
        for seed in seeds:
            out_dir = str(out / f"{variant.lower()}-seed{seed}")
            sub = dataclasses.replace(config, variant=variant, seed=seed, out_dir=out_dir)
            runs[variant].append(run_pipeline(sub, stages=stages))

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

    payload = {"seeds": seeds, "variants": list(variants), "rows": rows, "sign_tests": comparisons}
    dump_json(out / "ablation.json", payload)
    return payload


def sweep_n(config: PipelineConfig, n_values: Sequence[int]) -> dict:
    """Prototype-count sweep for the full variant under a shared seed."""
    if not n_values or len(set(n_values)) < len(n_values):
        raise InvalidConfig(f"sweep needs one or more distinct n values, got {list(n_values)}")
    for n in n_values:
        if n < 1:
            raise InvalidConfig("n must be >= 1 (the BASE variant covers n = 0)")
        if n > config.m:
            raise InvalidConfig(f"n={n} exceeds m={config.m}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages = _Stages()
    rows = []
    for n in n_values:
        sub = dataclasses.replace(config, variant="RET_PS_CA", n=n, out_dir=str(out / f"n{n}"))
        report = run_pipeline(sub, stages=stages).report
        rows.append({"n": n, "bleu4": report.bleu4, "rouge4_f": report.rouge4_f})
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
    labels = read_labels(config.labels_path)
    stages = _Stages()
    shared = stages.inputs(config)
    model, losses = stages.selector(config)

    bm25_scores = []
    selector_scores = []
    for examples, cands in ((shared.train, shared.train_cands), (shared.test, shared.test_cands)):
        records = select_prototypes(examples, cands, shared.corpus, config.n, model)
        for rec, c in zip(records, cands.values()):
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
