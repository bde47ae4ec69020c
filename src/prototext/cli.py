"""Command-line interface.

Subcommands mirror the pipeline stages (``retrieve``,
``train-selector``, ``select``, ``train-generator``, ``generate``,
``eval``) plus the experiment drivers (``synth``, ``ablate``,
``sweep-n``). ``retrieve`` indexes the corpus it reads, so no command
reads or writes an index file; the ``index.jsonl`` that a pipeline run
writes is a record that no command reads. Each setting has one way in.
A stage command takes its settings as flags alone, one per field of its
config dataclass, whose dest is the field it sets. ``ablate`` and
``sweep-n`` read a pipeline config file, on which ``--out-dir`` (and
``sweep-n --seed``) go.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .errors import (
    DataError,
    InvalidConfig,
    InvalidInput,
    StageError,
    UsageError,
)
from .evaluation import evaluate_pairs, sign_test
from .generator import (
    GeneratorTrainConfig,
    check_decode_len,
    generate_outputs,
    load_generator,
    read_outputs,
    save_generator,
    train_generator,
    write_outputs,
)
from .pipeline import (
    PipelineConfig,
    VARIANTS,
    dump_json,
    load_config,
    run_ablation,
    sweep_n,
)
from .retrieval import build_index, read_candidate_sets, retrieve_candidates, write_candidate_sets
from .selector import (
    SelectorTrainConfig,
    load_selector,
    read_augmented_dataset,
    save_selector,
    select_prototypes,
    shared_vocabulary,
    train_selector,
    training_triples,
    write_augmented_dataset,
)
from .synth import SyntheticSpec, synth_benchmark
from .tabledata import Corpus, load_corpus, parse_tables_file
from .tokenization import tokenize

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - map argparse failures to exit code 1
        raise UsageError(message)


def int_list(text: str) -> list[int]:
    """Comma-separated integers; argparse makes the ValueError of a bad item a usage error."""
    return [int(item) for item in text.split(",")]


def _given(args, cls) -> dict:
    """The flags given for fields of ``cls``; a flag's dest is the field it sets."""
    names = [f.name for f in dataclasses.fields(cls)]
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _cmd_synth(args) -> None:
    paths = synth_benchmark(SyntheticSpec(**_given(args, SyntheticSpec)), args.out_dir)
    for kind, path in paths.items():
        print(f"{kind}: {path}")


def _cmd_retrieve(args) -> None:
    corpus = load_corpus(args.corpus)
    sets = retrieve_candidates(build_index(corpus), parse_tables_file(args.tables), args.m, corpus)
    write_candidate_sets(args.out, list(sets.values()))
    print(f"retrieved candidates for {len(sets)} tables -> {args.out}")


def _cmd_train_selector(args) -> None:
    corpus = load_corpus(args.corpus)
    cand_sets = {c.table_id: c for c in read_candidate_sets(args.candidates)}
    triples = training_triples(parse_tables_file(args.tables), cand_sets)
    config = SelectorTrainConfig(**_given(args, SelectorTrainConfig))
    model, losses = train_selector(triples, corpus, config)
    save_selector(args.out, model)
    print(f"trained selector ({len(losses)} epochs) -> {args.out}")


def _cmd_select(args) -> None:
    model = load_selector(args.model)
    corpus = load_corpus(args.corpus)
    examples = parse_tables_file(args.tables)
    cand_sets = {c.table_id: c for c in read_candidate_sets(args.candidates)}
    records = select_prototypes(examples, cand_sets, corpus, args.n, model)
    write_augmented_dataset(args.out, records)
    print(f"selected prototypes for {len(records)} tables -> {args.out}")


def _cmd_train_generator(args) -> None:
    examples = parse_tables_file(args.tables)
    records = read_augmented_dataset(args.dataset, examples)
    vocab = shared_vocabulary(load_corpus(args.corpus), examples)
    config = GeneratorTrainConfig(**_given(args, GeneratorTrainConfig))
    model, losses = train_generator(records, config, vocab)
    save_generator(args.out, model)
    print(f"trained generator ({len(losses)} epochs) -> {args.out}")


def _cmd_generate(args) -> None:
    model = load_generator(args.model)
    check_decode_len(args.max_len, model.max_context, "--max-len")
    examples = parse_tables_file(args.tables)
    if args.dataset:
        records = read_augmented_dataset(args.dataset, examples)
    else:
        # without a dataset every table is conditioned on itself alone
        records = select_prototypes(examples, {}, Corpus(()), 0)
    write_outputs(args.out, generate_outputs(model, records, args.max_len))
    print(f"generated {len(records)} outputs -> {args.out}")


def _output_tokens(path: str, refs, what: str) -> list[list[str]]:
    """The tokens of an outputs file's output for each reference table."""
    outputs = read_outputs(path)
    missing = [ex.id for ex in refs if ex.id not in outputs]
    if missing:
        raise InvalidInput(f"{what} file lacks outputs for tables {missing[:5]}")
    return [tokenize(outputs[ex.id]) for ex in refs]


def _cmd_eval(args) -> None:
    refs = parse_tables_file(args.ref)
    hyp_tokens = _output_tokens(args.hyp, refs, "hypothesis")
    ref_tokens = [tokenize(ex.reference) for ex in refs]
    report = evaluate_pairs(hyp_tokens, ref_tokens)
    payload = {
        "bleu4": report.bleu4,
        "rouge4_f": report.rouge4_f,
        "n": report.pair_count,
    }
    if args.compare:
        other_report = evaluate_pairs(_output_tokens(args.compare, refs, "comparison"), ref_tokens)
        block: dict = {
            "hyp_bleu4": report.bleu4,
            "compare_bleu4": other_report.bleu4,
        }
        try:
            block["rouge4_sign_test_p"] = sign_test(
                report.per_example_rouge4, other_report.per_example_rouge4
            )
        except DataError as exc:
            block["rouge4_sign_test_p"] = None
            block["note"] = str(exc)
        payload["sign_test"] = block
    dump_json(args.out, payload)
    print(f"bleu4={report.bleu4:.6f} rouge4_f={report.rouge4_f:.6f} n={report.pair_count}")


def _cmd_ablate(args) -> None:
    config = load_config(args.config, **_given(args, PipelineConfig))
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    payload = run_ablation(config, variants, args.seeds)
    for row in payload["rows"]:
        print(
            f"{row['variant']:10s} median BLEU-4 {row['median_bleu4']:.4f} "
            f"median ROUGE-4 {row['median_rouge4_f']:.4f}"
        )
    print(f"report -> {Path(config.out_dir) / 'ablation.json'}")


def _cmd_sweep_n(args) -> None:
    config = load_config(args.config, **_given(args, PipelineConfig))
    payload = sweep_n(config, args.n_values)
    for row in payload["rows"]:
        print(f"n={row['n']:3d} BLEU-4 {row['bleu4']:.4f} ROUGE-4 {row['rouge4_f']:.4f}")
    print(f"report -> {Path(config.out_dir) / 'sweep.json'}")


def build_parser() -> _Parser:
    parser = _Parser(prog="prototext", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="command")

    def sub(name, handler, help_text):
        p = subs.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    p = sub("synth", _cmd_synth, "generate the synthetic benchmark files")
    p.add_argument("--seed", type=int, help="synthetic-world seed")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--entities", type=int, dest="num_entities")
    p.add_argument("--corpus-size", type=int)
    p.add_argument("--vocab-size", type=int)

    p = sub("retrieve", _cmd_retrieve, "retrieve top-m candidates for each table")
    p.add_argument("--tables", required=True)
    p.add_argument("--m", type=int, default=PipelineConfig.m)
    p.add_argument("--corpus", required=True, help="corpus file: indexed, and read by the leakage filter")
    p.add_argument("--out", required=True)

    p = sub("train-selector", _cmd_train_selector, "train the prototype selector")
    p.add_argument("--seed", type=int, help="selector seed; a pipeline run of seed s uses s + 1")
    p.add_argument("--corpus", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--dim", type=int)

    p = sub("select", _cmd_select, "pick top-n prototypes with a trained selector")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--n", type=int, default=PipelineConfig.n)
    p.add_argument("--out", required=True)

    p = sub("train-generator", _cmd_train_generator, "train the conditional generator")
    p.add_argument("--seed", type=int, help="generator seed; a pipeline run of seed s uses s + 2")
    p.add_argument("--dataset", required=True, help="augmented dataset JSONL")
    p.add_argument("--tables", required=True)
    p.add_argument("--corpus", required=True, help="corpus file, for the shared vocabulary")
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--max-context", type=int)
    p.add_argument("--ca-loss", action=argparse.BooleanOptionalAction, dest="ca_enabled")

    p = sub("generate", _cmd_generate, "decode outputs for a tables file")
    p.add_argument("--model", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--dataset", help="conditioning records; omit for table-only input")
    p.add_argument("--max-len", type=int, default=GeneratorTrainConfig.max_decode_len)
    p.add_argument("--out", required=True)

    p = sub("eval", _cmd_eval, "score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True, help="tables file carrying references")
    p.add_argument("--compare", help="second hypothesis file for a sign test")
    p.add_argument("--out", required=True)

    p = sub("ablate", _cmd_ablate, "run the system-variant ladder")
    p.add_argument("--config", required=True, help="JSON pipeline config file; flags override it")
    p.add_argument("--out-dir", help="output directory; overrides the config's out_dir")
    p.add_argument("--variants", help="comma-separated subset of " + ",".join(VARIANTS))
    p.add_argument("--seeds", type=int_list, help="comma-separated seeds (default: config seed)")

    p = sub("sweep-n", _cmd_sweep_n, "sweep the prototype count")
    p.add_argument("--config", required=True, help="JSON pipeline config file; flags override it")
    p.add_argument("--seed", type=int, help="seed; overrides the config's seed")
    p.add_argument("--out-dir", help="output directory; overrides the config's out_dir")
    p.add_argument("--n-values", type=int_list, required=True, help="comma-separated n values")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_help()
            return 1
        args.handler(args)
        return 0
    except Exception as exc:  # noqa: BLE001 - every failure maps to an exit code
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, (UsageError, InvalidConfig)):
            code, kind = 1, "error"
        elif isinstance(cause, DataError):
            code, kind = 2, "data error"
        else:
            code, kind = 3, "internal error"
        # a failed stage's message names the stage; its cause sets the exit code alone
        print(f"{kind if cause is exc else 'error'}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
