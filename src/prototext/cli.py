"""Command-line interface.

Subcommands mirror the pipeline stages (``index``, ``retrieve``,
``train-selector``, ``select``, ``train-generator``, ``generate``,
``eval``) plus the experiment drivers (``synth``, ``ablate``,
``sweep-n``). Exit codes: 0 success, 1 usage/config error, 2 data
error, 3 internal error.
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
    read_config_file,
    run_ablation,
    sweep_n,
    typed_config,
)
from .retrieval import (
    build_index,
    load_index,
    read_candidate_sets,
    retrieve_candidates,
    save_index,
    write_candidate_sets,
)
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


# The flags some commands share; each command declares only those it reads.
_SHARED_FLAGS = {
    "--config": dict(help="JSON config file; explicit flags override it"),
    "--seed": dict(type=int, help="global random seed"),
    "--out-dir": dict(help="output directory"),
}


def int_list(text: str) -> list[int]:
    """Comma-separated integers; argparse makes the ValueError of a bad item a usage error."""
    return [int(item) for item in text.split(",")]


def _given(args, cls) -> dict:
    """The flags given for fields of ``cls``; a flag's dest is the field it sets."""
    names = [f.name for f in dataclasses.fields(cls)]
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _stage_config(args, cls, section: str):
    """A stage's config: the --config file's ``section``, then each flag that was given.
    A command reads only the fields it has a flag for, so the section may set no other."""
    raw = read_config_file(args.config) if args.config else {}
    unread = [f"{section}.{f.name}" for f in dataclasses.fields(cls) if not hasattr(args, f.name)]
    return typed_config(cls, raw, section, unread, **_given(args, cls))


def _cmd_synth(args) -> None:
    if not args.out_dir:
        raise UsageError("synth requires --out-dir")
    paths = synth_benchmark(SyntheticSpec(**_given(args, SyntheticSpec)), args.out_dir)
    for kind, path in paths.items():
        print(f"{kind}: {path}")


def _cmd_index(args) -> None:
    corpus = load_corpus(args.corpus)
    index = build_index(corpus)
    save_index(args.out, index)
    print(f"indexed {index.doc_count} sentences -> {args.out}")


def _cmd_retrieve(args) -> None:
    index = load_index(args.index)
    corpus = load_corpus(args.corpus)
    sets = retrieve_candidates(index, parse_tables_file(args.tables), args.m, corpus)
    write_candidate_sets(args.out, list(sets.values()))
    print(f"retrieved candidates for {len(sets)} tables -> {args.out}")


def _cmd_train_selector(args) -> None:
    corpus = load_corpus(args.corpus)
    cand_sets = {c.table_id: c for c in read_candidate_sets(args.candidates)}
    triples = training_triples(parse_tables_file(args.tables), cand_sets)
    config = _stage_config(args, SelectorTrainConfig, "selector")
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
    config = _stage_config(args, GeneratorTrainConfig, "generator")
    model, losses = train_generator(records, config, vocab)
    save_generator(args.out, model)
    print(f"trained generator ({len(losses)} epochs) -> {args.out}")


def _cmd_generate(args) -> None:
    model = load_generator(args.model)
    if not 1 <= args.max_len < model.max_context:
        raise InvalidConfig(
            f"--max-len must be in [1, {model.max_context - 1}] for this model, got {args.max_len}"
        )
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


def _pipeline_config(args) -> PipelineConfig:
    if not args.config:
        raise UsageError("this command requires --config")
    return load_config(args.config, seed=args.seed, out_dir=args.out_dir)


def _cmd_ablate(args) -> None:
    config = _pipeline_config(args)
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    payload = run_ablation(config, variants, args.seeds)
    for row in payload["rows"]:
        print(
            f"{row['variant']:10s} median BLEU-4 {row['median_bleu4']:.4f} "
            f"median ROUGE-4 {row['median_rouge4_f']:.4f}"
        )
    print(f"report -> {Path(config.out_dir) / 'ablation.json'}")


def _cmd_sweep_n(args) -> None:
    config = _pipeline_config(args)
    payload = sweep_n(config, args.n_values)
    for row in payload["rows"]:
        print(f"n={row['n']:3d} BLEU-4 {row['bleu4']:.4f} ROUGE-4 {row['rouge4_f']:.4f}")
    print(f"report -> {Path(config.out_dir) / 'sweep.json'}")


def build_parser() -> _Parser:
    parser = _Parser(prog="prototext", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="command")

    def sub(name, handler, help_text, *shared_flags):
        p = subs.add_parser(name, help=help_text)
        for flag in shared_flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    p = sub("synth", _cmd_synth, "generate the synthetic benchmark files", "--seed", "--out-dir")
    p.add_argument("--entities", type=int, dest="num_entities")
    p.add_argument("--attributes", type=int, dest="attributes_per_entity")
    p.add_argument("--corpus-size", type=int)
    p.add_argument("--distractor-ratio", type=float)
    p.add_argument("--vocab-size", type=int)

    p = sub("index", _cmd_index, "build an inverted index from a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub("retrieve", _cmd_retrieve, "retrieve top-m candidates for each table")
    p.add_argument("--index", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--m", type=int, default=PipelineConfig.m)
    p.add_argument("--corpus", required=True, help="corpus file, for the reference-leakage filter")
    p.add_argument("--out", required=True)

    p = sub("train-selector", _cmd_train_selector, "train the prototype selector",
            "--config", "--seed")
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

    p = sub("train-generator", _cmd_train_generator, "train the conditional generator",
            "--config", "--seed")
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

    pipeline_flags = ("--config", "--seed", "--out-dir")
    p = sub("ablate", _cmd_ablate, "run the system-variant ladder", *pipeline_flags)
    p.add_argument("--variants", help="comma-separated subset of " + ",".join(VARIANTS))
    p.add_argument("--seeds", type=int_list, help="comma-separated seeds (default: config seed)")

    p = sub("sweep-n", _cmd_sweep_n, "sweep the prototype count", *pipeline_flags)
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
    except (UsageError, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        cause = exc.__cause__
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(cause, (UsageError, InvalidConfig)):
            return 1
        if isinstance(cause, DataError):
            return 2
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
