"""End-to-end orchestration: single runs, the ablation ladder, the n-sweep.

A pipeline run executes index -> retrieve -> leakage filter -> prototype
selection -> generator training -> greedy decoding -> evaluation, and
writes every intermediate artifact into its output directory so each
later stage can also be driven standalone through the CLI. The one
exception is ``index.jsonl``: a record of the run's index that no
command reads, since ``retrieve`` indexes the corpus it is given.
System variants:

* ``BASE``       conditions the generator on the table alone;
* ``RET``        feeds the top-n candidates in raw BM25 order;
* ``RET_PS``     feeds prototypes chosen by the trained selector;
* ``RET_PS_CA``  additionally enables the content-aware loss.

``ablate`` and ``sweep-n`` read their config through :func:`load_config`,
the one config-file reader; each config class checks its own fields.

Runs are deterministic: given the same configuration and input files,
every report and model file is byte-identical across reruns, core counts
and BLAS thread settings (importing the package sets numpy's BLAS to one
thread; see :mod:`prototext.blas`). The runs of one ablation or sweep
differ only in variant, seed, n and output directory, so they share
load, index, retrieval and the selector trained per seed. ``_share``
computes these once, before any run starts, into one frozen record of
plain values; the parent process then runs the runs in up to one forked
worker process per CPU, which inherit that record, and collects the
results in submission order. A single run computes its own record.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence, get_type_hints

from . import blas
from .errors import AllTies, InvalidConfig, StageError, check_fields
from .evaluation import EvalReport, evaluate_pairs, precision_at_k, sign_test
from .generator import (
    GeneratorTrainConfig,
    check_decode_len,
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
SELECTOR_VARIANTS = ("RET_PS", "RET_PS_CA")


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
        check_fields(self, m=1, n=0, seed=0)
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.n > self.m:
            raise InvalidConfig(f"need n <= m, got m={self.m}, n={self.n}")
        gen = self.generator
        check_decode_len(gen.max_decode_len, gen.max_context, "generator.max_decode_len")
        for name in RUN_SET:
            section, _, key = name.partition(".")
            part = getattr(self, section)
            if key and getattr(part, key) != getattr(type(part), key):
                raise InvalidConfig(f"field {name} cannot be set: run_pipeline sets it")


# The fields each run of ablate or sweep-n sets itself, or that no command reads;
# a PipelineConfig also holds each section field here at its class default.
RUN_SET = ("variant", "labels_path", "selector.seed", "generator.seed", "generator.ca_enabled")


def typed_config(cls, raw, where: str = "", **overrides):
    """The config dataclass ``cls`` read from ``raw``, the JSON object of a config file or,
    with ``where``, of its section ``where``. A field whose type is a dataclass is a
    section, read the same way. Each override that is not None goes on top. A key is
    InvalidConfig naming its dotted field if ``cls`` lacks it or if RUN_SET names it. The
    built class checks each value's type and bound itself; its error is InvalidConfig
    prefixed ``bad config {where}:`` (``file`` at the top level)."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"config {f'section {where}' if where else 'file'} must be an object")
    hints = get_type_hints(cls)
    values = {}
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        if key not in hints:
            raise InvalidConfig(f"unknown config field {name}")
        if name in RUN_SET:
            raise InvalidConfig(f"config field {name} cannot be set: the command sets or ignores it")
        kind = hints[key]
        values[key] = typed_config(kind, value, name) if dataclasses.is_dataclass(kind) else value
    values.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return cls(**values)
    except (TypeError, InvalidConfig) as exc:
        raise InvalidConfig(f"bad config {where or 'file'}: {exc}") from None


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    """An ablate or sweep-n config from the config file at ``path``, by :func:`typed_config`."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config file {path} is not valid JSON: {exc.msg}") from None
        except RecursionError:
            raise InvalidConfig(f"config file {path} nests JSON too deeply") from None
    return typed_config(PipelineConfig, raw, **overrides)


@dataclass(frozen=True)
class PipelineResult:
    report: EvalReport
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


@dataclass(frozen=True)
class _Shared:
    """What every run of one call reads and none writes: the loaded inputs, the index,
    each split's candidates, and the selector trained per seed with its epoch losses."""

    corpus: Corpus
    train: list[Example]
    test: list[Example]
    vocab: Vocabulary
    index: InvertedIndex
    train_cands: dict[int, CandidateSet]
    test_cands: dict[int, CandidateSet]
    selectors: dict[int, tuple[SelectorModel, list[float]]]


def _share(config: PipelineConfig, seeds: Iterable[int]) -> _Shared:
    """Load, index and retrieve over ``config``'s files and m once, then train the
    selector once per distinct seed of ``seeds``, in order, seeded ``seed + 1``."""
    with _stage("load-data"):
        corpus = load_corpus(config.corpus_path)
        train = parse_tables_file(config.train_tables_path)
        test = parse_tables_file(config.test_tables_path)
        vocab = shared_vocabulary(corpus, train)
    with _stage("index"):
        index = build_index(corpus)
    with _stage("retrieve"):
        train_cands = retrieve_candidates(index, train, config.m, corpus)
        test_cands = retrieve_candidates(index, test, config.m, corpus)
    selectors = {}
    for seed in dict.fromkeys(seeds):
        with _stage("select"):
            triples = training_triples(train, train_cands)
            selector_config = dataclasses.replace(config.selector, seed=seed + 1)
            selectors[seed] = train_selector(triples, corpus, selector_config)
    return _Shared(corpus, train, test, vocab, index, train_cands, test_cands, selectors)


def run_pipeline(config: PipelineConfig, *, shared: _Shared | None = None) -> PipelineResult:
    """One run; ``shared`` is what :func:`_share` gave for its files, m and seed."""
    start = perf_counter()
    selects = config.variant in SELECTOR_VARIANTS
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shared = shared or _share(config, [config.seed] if selects else [])
    paths = {"index": str(out / "index.jsonl")}
    with _stage("index"):
        save_index(paths["index"], shared.index)
    with _stage("retrieve"):
        for split, cands in (("train", shared.train_cands), ("test", shared.test_cands)):
            paths[f"candidates_{split}"] = str(out / f"candidates_{split}.jsonl")
            write_candidate_sets(paths[f"candidates_{split}"], list(cands.values()))

    model, selector_losses = shared.selectors[config.seed] if selects else (None, [])
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
        "pipeline %s seed %d n %d: BLEU-4 %.4f ROUGE-4 %.4f in %.2f s",
        config.variant, config.seed, config.n, report.bleu4, report.rouge4_f,
        perf_counter() - start,
    )
    return PipelineResult(report=report, artifact_paths=paths)


# What a forked worker of _run_all runs: its parent's configs and shared work.
_WORK: tuple[list[PipelineConfig], _Shared] | None = None


def _adopt(configs: list[PipelineConfig], shared: _Shared) -> None:
    global _WORK
    _WORK = configs, shared


def _run_at(index: int) -> PipelineResult:
    configs, shared = _WORK
    return run_pipeline(configs[index], shared=shared)


def _run_all(configs: list[PipelineConfig]) -> list[PipelineResult]:
    """``run_pipeline`` of each config, in order, over one :func:`_share`.

    The configs differ only in variant, seed, n and out_dir, so their shared work is
    computed here first, from the first config and the seeds of the selector variants.
    The runs then go to up to one worker process per CPU, forked so that they inherit
    it (no model is pickled; a config index goes out and a PipelineResult comes back),
    or run here, one after another, when one CPU or one run leaves nothing to overlap
    or when the BLAS thread count is not pinned, so that the workers' BLAS threads would
    oversubscribe the CPUs.
    """
    shared = _share(configs[0], [c.seed for c in configs if c.variant in SELECTOR_VARIANTS])
    workers = min(len(os.sched_getaffinity(0)), len(configs)) if blas.PINNED else 1
    log.info("%d runs on %d worker processes", len(configs), workers)
    if workers == 1:
        return [run_pipeline(config, shared=shared) for config in configs]
    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_adopt, initargs=(configs, shared)
    )
    try:
        return list(pool.map(_run_at, range(len(configs))))
    finally:
        pool.shutdown(cancel_futures=True)


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
    seeds = list(seeds) if seeds else [config.seed]
    if len(set(seeds)) < len(seeds):
        raise InvalidConfig(f"seeds repeat: {seeds}")
    out = Path(config.out_dir)
    plan = [  # building each run's config checks its variant
        dataclasses.replace(
            config, variant=variant, seed=seed, out_dir=str(out / f"{variant.lower()}-seed{seed}")
        )
        for variant in variants
        for seed in seeds
    ]
    out.mkdir(parents=True, exist_ok=True)
    results = iter(_run_all(plan))
    runs = {variant: [next(results) for _ in seeds] for variant in variants}

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
    if min(n_values) < 1:
        raise InvalidConfig("n must be >= 1 (the BASE variant covers n = 0)")
    out = Path(config.out_dir)
    plan = [  # building each run's config checks n <= m
        dataclasses.replace(config, variant="RET_PS_CA", n=n, out_dir=str(out / f"n{n}"))
        for n in n_values
    ]
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        {"n": n, "bleu4": r.report.bleu4, "rouge4_f": r.report.rouge4_f}
        for n, r in zip(n_values, _run_all(plan))
    ]
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
    shared = _share(config, [config.seed])
    model, losses = shared.selectors[config.seed]

    bm25_scores = []
    selector_scores = []
    for examples, cands in ((shared.train, shared.train_cands), (shared.test, shared.test_cands)):
        for rec in select_prototypes(examples, cands, shared.corpus, config.n, model):
            relevant = labels.get(rec.table_id, set())
            bm25_scores.append(precision_at_k(cands[rec.table_id].ids(), relevant, config.n))
            selector_scores.append(precision_at_k(rec.prototype_ids, relevant, config.n))
    return {
        "n": config.n,
        "tables": len(bm25_scores),
        "bm25_precision": sum(bm25_scores) / len(bm25_scores),
        "selector_precision": sum(selector_scores) / len(selector_scores),
        "selector_epoch_losses": losses,
    }
