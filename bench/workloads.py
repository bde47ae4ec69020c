"""The four benchmark workloads.

Each workload builds its input files from the workload seed in
``setup``, performs one timed pass through prototext's public functions
in ``run``, and verifies that pass's outputs in ``check``. The program
only ever sees the generated files. Every loop is closed: one client in
one process sends its next call only after the previous one returned.

The timed code calls prototext through module attributes
(``retrieval.retrieve(...)``, never a name imported from the module), so
the tracer's wrappers, which replace those attributes, see every call.
Checks run outside the timed and traced region.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from prototext import evaluation, generator, pipeline, retrieval, selector, synth, tabledata
from prototext.tokenization import tokenize

# Retrieval pool size and prototype count, the pipeline and CLI defaults.
M = 100
N = 3
MAX_DECODE_LEN = generator.GeneratorTrainConfig().max_decode_len
ABLATION_SEEDS = (1, 2)
REQUESTS_PER_TABLE = 10
MAX_REQUEST_PROTOTYPES = 5
# generate serves one model, trained on the desk data of this seed; the
# workload seed draws the request mix. Training on the workload seed's
# data instead would make the decoded length, and so the pass time, vary
# about twofold from seed to seed.
SERVED_MODEL_SEED = 13


@dataclass
class PassOutput:
    """What one timed pass produced, for the checks and the metrics."""

    out_dir: Path
    quality: dict[str, float] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    responses: list[list[str]] | None = None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(res: PassOutput) -> dict[str, str]:
    """sha256 of every file a pass wrote, keyed by its path under the pass
    directory, plus the in-memory responses of a generate pass."""
    digests = {
        p.relative_to(res.out_dir).as_posix(): sha256_file(p)
        for p in sorted(res.out_dir.rglob("*"))
        if p.is_file()
    }
    if res.responses is not None:
        blob = json.dumps(res.responses, separators=(",", ":")).encode("utf-8")
        digests["responses.json"] = hashlib.sha256(blob).hexdigest()
    return digests


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _desk_data(seed: int, work: Path) -> dict[str, str]:
    return synth.synth_benchmark(synth.SyntheticSpec(seed=seed), work / "data")


def _pipeline_config(data: dict[str, str], out: Path, **overrides) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        corpus_path=data["corpus"],
        train_tables_path=data["train_tables"],
        test_tables_path=data["test_tables"],
        labels_path=data["labels"],
        out_dir=str(out),
        m=M,
        n=N,
        **overrides,
    )


# ---------------------------------------------------------------- desk


def desk_setup(seed: int, work: Path) -> dict:
    data = _desk_data(seed, work)
    test = tabledata.parse_tables_file(data["test_tables"])
    return {"data": data, "test_refs": {ex.id: tokenize(ex.reference) for ex in test}}


def desk_run(ctx: dict, out: Path) -> PassOutput:
    result = pipeline.run_pipeline(_pipeline_config(ctx["data"], out, variant="RET_PS_CA"))
    return PassOutput(out_dir=out, quality={"bleu4": result.report.bleu4})


def desk_check(ctx: dict, res: PassOutput) -> list[tuple[str, bool]]:
    outputs = _read_jsonl(res.out_dir / "outputs.jsonl")
    by_id = {rec["table_id"]: rec["output"].split() for rec in outputs}
    checks = [("one output per test table", len(outputs) == len(ctx["test_refs"]) == len(by_id))]
    for tid in ctx["test_refs"]:
        tokens = by_id.get(tid)
        checks.append((f"output for table {tid}", tokens is not None and len(tokens) <= MAX_DECODE_LEN))
    report = json.loads((res.out_dir / "report.json").read_text(encoding="utf-8"))
    numbers = (
        [report["bleu4"], report["rouge4_f"]]
        + report["per_example_rouge4"]
        + report["selector_epoch_losses"]
        + report["generator_epoch_losses"]
    )
    checks.append(("finite report fields", all(_finite(x) for x in numbers)))
    checks.append(("report covers every test table", report["pair_count"] == len(ctx["test_refs"])))
    return checks


# ------------------------------------------------------------ mine-20k


MINE_SPEC = dict(num_entities=200, corpus_size=20000, vocab_size=2000)


def mine_setup(seed: int, work: Path) -> dict:
    data = synth.synth_benchmark(synth.SyntheticSpec(seed=seed, **MINE_SPEC), work / "data")
    return {"data": data, "labels": synth.read_labels(data["labels"])}


def mine_run(ctx: dict, out: Path) -> PassOutput:
    """index -> retrieve -> train-selector -> select, as the CLI stages run
    them, then precision@n of the selection and of the BM25 order."""
    data = ctx["data"]
    out.mkdir(parents=True, exist_ok=True)
    splits = {"train": data["train_tables"], "test": data["test_tables"]}

    corpus = tabledata.load_corpus(data["corpus"])
    retrieval.save_index(out / "index.jsonl", retrieval.build_index(corpus))

    index = retrieval.load_index(out / "index.jsonl")
    corpus = tabledata.load_corpus(data["corpus"])
    for split, tables in splits.items():
        sets = []
        for ex in tabledata.parse_tables_file(tables):
            cands = retrieval.retrieve(index, ex.table, M, table_id=ex.id)
            sets.append(retrieval.filter_leakage(cands, corpus, ex.reference))
        retrieval.write_candidate_sets(out / f"candidates_{split}.jsonl", sets)

    corpus = tabledata.load_corpus(data["corpus"])
    examples = tabledata.parse_tables_file(splits["train"])
    cand_sets = {c.table_id: c for c in retrieval.read_candidate_sets(out / "candidates_train.jsonl")}
    triples = [(ex.table, ex.reference, cand_sets[ex.id]) for ex in examples]
    model, _ = selector.train_selector(triples, corpus, selector.SelectorTrainConfig())
    selector.save_selector(out / "selector.json", model)

    model = selector.load_selector(out / "selector.json")
    corpus = tabledata.load_corpus(data["corpus"])
    selected, bm25 = [], []
    for split, tables in splits.items():
        cand_sets = {c.table_id: c for c in retrieval.read_candidate_sets(out / f"candidates_{split}.jsonl")}
        records = []
        for ex in tabledata.parse_tables_file(tables):
            cands = cand_sets.get(ex.id)
            chosen: tuple[int, ...] = ()
            if cands is not None and len(cands) > 0:
                chosen = tuple(selector.select_top_n(model, ex.table, cands, corpus, N).ids())
            records.append(
                selector.AugmentedRecord(
                    table_id=ex.id,
                    table=ex.table,
                    prototype_ids=chosen,
                    prototypes=tuple(corpus.get(s).text for s in chosen),
                    reference=ex.reference,
                )
            )
            relevant = ctx["labels"].get(ex.id, set())
            selected.append(evaluation.precision_at_k(chosen, relevant, N))
            bm25.append(evaluation.precision_at_k(cands.ids() if cands else [], relevant, N))
        selector.write_augmented_dataset(out / f"prototypes_{split}.jsonl", records)
    quality = {
        "selector_p_at_3": sum(selected) / len(selected),
        "bm25_p_at_3": sum(bm25) / len(bm25),
    }
    return PassOutput(out_dir=out, quality=quality)


def mine_check(ctx: dict, res: PassOutput) -> list[tuple[str, bool]]:
    checks = []
    tables = 0
    for split in ("train", "test"):
        cands = {r["table_id"]: [sid for sid, _ in r["candidates"]]
                 for r in _read_jsonl(res.out_dir / f"candidates_{split}.jsonl")}
        for rec in _read_jsonl(res.out_dir / f"prototypes_{split}.jsonl"):
            tid, chosen = rec["table_id"], rec["prototype_ids"]
            pool = cands.get(tid, [])
            ok = len(chosen) == min(N, len(pool)) and set(chosen) <= set(pool)
            checks.append((f"{split} table {tid}: min(n, |candidates|) prototypes from its pool", ok))
            tables += 1
    checks.append(("every table selected", tables == len(ctx["labels"])))
    return checks


# ------------------------------------------------------------ ablation


def ablation_run(ctx: dict, out: Path) -> PassOutput:
    payload = pipeline.run_ablation(
        _pipeline_config(ctx["data"], out), pipeline.VARIANTS, list(ABLATION_SEEDS)
    )
    row = next(r for r in payload["rows"] if r["variant"] == "RET_PS_CA")
    return PassOutput(out_dir=out, quality={"bleu4": row["median_bleu4"]})


def ablation_check(ctx: dict, res: PassOutput) -> list[tuple[str, bool]]:
    payload = json.loads((res.out_dir / "ablation.json").read_text(encoding="utf-8"))
    rows, tests = payload["rows"], payload["sign_tests"]
    checks = [
        ("four variant rows", [r["variant"] for r in rows] == list(pipeline.VARIANTS)),
        ("three sign-test entries", len(tests) == len(pipeline.VARIANTS) - 1),
    ]
    for r in rows:
        ok = len(r["runs"]) == len(ABLATION_SEEDS) and all(_finite(x["bleu4"]) for x in r["runs"])
        checks.append((f"{r['variant']} has a finite BLEU-4 per seed", ok and _finite(r["median_bleu4"])))
    for t in tests:
        p = t["sign_test_p"]
        checks.append((f"sign test {t['pair']}", p is None or (_finite(p) and 0.0 <= p <= 1.0)))
    # Every sub-run reads the same inputs, so retrieval artifacts agree
    # across all of them, and the two selector variants train the same
    # selector per seed.
    runs = [res.out_dir / f"{v.lower()}-seed{s}" for v in pipeline.VARIANTS for s in ABLATION_SEEDS]
    for name in ("index.jsonl", "candidates_train.jsonl", "candidates_test.jsonl"):
        checks.append((f"{name} identical across runs", len({sha256_file(r / name) for r in runs}) == 1))
    for s in ABLATION_SEEDS:
        pair = {sha256_file(res.out_dir / f"{v}-seed{s}" / "selector.json") for v in ("ret_ps", "ret_ps_ca")}
        checks.append((f"selector identical for RET_PS and RET_PS_CA at seed {s}", len(pair) == 1))
    return checks


# ------------------------------------------------------------ generate


def generate_setup(seed: int, work: Path) -> dict:
    """Train the desk model, then draw 700 requests from the candidate pools."""
    data = _desk_data(SERVED_MODEL_SEED, work)
    out = work / "model"
    result = pipeline.run_pipeline(_pipeline_config(data, out, variant="RET_PS_CA"))
    corpus = tabledata.load_corpus(data["corpus"])
    examples = {}
    pools = {}
    for split in ("train", "test"):
        for ex in tabledata.parse_tables_file(data[f"{split}_tables"]):
            examples[ex.id] = ex
        for c in retrieval.read_candidate_sets(result.artifact_paths[f"candidates_{split}"]):
            pools[c.table_id] = c.ids()
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(REQUESTS_PER_TABLE):
        # Every table gets the same spread of prototype counts, so seeds
        # differ in which prototypes are drawn, not in how many.
        for tid in sorted(examples):
            pool = pools[tid]
            k = min(i % (MAX_REQUEST_PROTOTYPES + 1), len(pool))
            picks = rng.choice(len(pool), size=k, replace=False) if k else []
            protos = tuple(corpus.get(pool[int(i)]).text for i in picks)
            requests.append((tid, protos))
    order = rng.permutation(len(requests))
    return {
        "model": result.artifact_paths["generator_model"],
        "examples": examples,
        "requests": [requests[int(i)] for i in order],
    }


def generate_run(ctx: dict, out: Path) -> PassOutput:
    """load_generator, then one request after another, as ``prototext generate`` serves."""
    model = generator.load_generator(ctx["model"])
    budget = model.max_context - MAX_DECODE_LEN
    examples = ctx["examples"]
    responses, latencies = [], []
    for tid, protos in ctx["requests"]:
        t0 = perf_counter()
        cond = generator.build_conditioning(
            examples[tid].table, [tokenize(p) for p in protos], model.vocab, budget
        )
        tokens = generator.decode_greedy(model, cond, MAX_DECODE_LEN)
        latencies.append(perf_counter() - t0)
        responses.append(tokens)
    return PassOutput(out_dir=out, latencies_s=latencies, responses=responses)


def generate_check(ctx: dict, res: PassOutput) -> list[tuple[str, bool]]:
    responses = res.responses
    checks = [("one response per request", len(responses) == len(ctx["requests"]))]
    checks += [
        (f"request {i} within max_decode_len", len(r) <= MAX_DECODE_LEN)
        for i, r in enumerate(responses)
    ]
    # Serving does not score its responses, so scoring stays out of the pass.
    refs = [tokenize(ctx["examples"][tid].reference) for tid, _ in ctx["requests"]]
    res.quality["bleu4"] = evaluation.bleu4(responses, refs)
    return checks


@dataclass(frozen=True)
class Workload:
    """A workload's steps; BENCHMARK.json and README.md say why it exists."""

    name: str
    setup: Callable[[int, Path], dict]
    run: Callable[[dict, Path], PassOutput]
    check: Callable[[dict, PassOutput], list[tuple[str, bool]]]
    # Fewest set-ups per run; setup_s is their median. generate trains a
    # model in its set-up, so it sets up once.
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", desk_setup, desk_run, desk_check, 3),
        Workload("mine-20k", mine_setup, mine_run, mine_check, 3),
        Workload("ablation", desk_setup, ablation_run, ablation_check, 3),
        Workload("generate", generate_setup, generate_run, generate_check, 1),
    )
}
