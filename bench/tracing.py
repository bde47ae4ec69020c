"""Spans around prototext's public functions, recorded from outside the program.

``Tracer.install`` replaces every binding of each traced function in the
loaded ``prototext`` modules (the defining module, the names imported
into ``prototext.pipeline``, and so on) with a wrapper, and
``Adam.step`` on the class; ``uninstall`` puts the originals back. A
span is ``(name, start, end, parent, run, info)``: ``parent`` is the
index of the enclosing span, ``run`` the index of the enclosing
``run_pipeline`` span, and ``info`` the counts taken at that boundary.
Spans stay in memory until the caller writes them out.

``layer_metrics`` turns one pass's spans into the per-layer metrics.
Layers are prototext's modules; a metric whose layer the pass did not
reach reads 0, and ``absent_layers`` names those layers.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import weakref
from time import perf_counter

import numpy as np

from prototext import evaluation, generator, optim, pipeline, retrieval, selector, tabledata


# The public functions traced, as imported before any wrapper is installed.
TRACED = (
    tabledata.load_corpus, tabledata.parse_tables_file,
    retrieval.build_index, retrieval.save_index, retrieval.load_index,
    retrieval.retrieve, retrieval.filter_leakage,
    retrieval.write_candidate_sets, retrieval.read_candidate_sets,
    selector.train_selector, selector.select_top_n,
    selector.save_selector, selector.load_selector,
    selector.write_augmented_dataset, selector.read_augmented_dataset,
    generator.train_generator, generator.loss_and_grads,
    generator.build_conditioning, generator.decode_greedy,
    generator.save_generator, generator.load_generator,
    evaluation.evaluate_pairs, evaluation.precision_at_k, evaluation.sign_test,
    pipeline.run_pipeline, pipeline.run_ablation, pipeline.shared_vocabulary,
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._run: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._live_rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- counts taken at the boundaries ------------------------------------

    def _info_loss_and_grads(self, a, result):
        return {"positions": len(a["x_ids"]) + len(a["y_ids"])}

    def _info_adam_step(self, a, result):
        opt, grads = a["self"], a["grads"]
        if "tok_emb" not in grads:
            return None
        # Rows that have ever had a nonzero gradient: every other row has
        # m = v = 0, so Adam's update of it is exactly zero.
        seen = self._live_rows.get(opt)
        if seen is None:
            seen = self._live_rows[opt] = {k: np.zeros(len(grads[k]), bool) for k in ("tok_emb", "pos_emb")}
        for k, mask in seen.items():
            mask |= np.any(grads[k] != 0.0, axis=1)
        return {
            "live_rows": int(sum(m.sum() for m in seen.values())),
            "rows": sum(len(m) for m in seen.values()),
        }

    def _info_train_generator(self, a, result):
        return {"records": len(a["dataset"]), "epochs": a["config"].epochs}

    def _info_train_selector(self, a, result):
        key = repr((a["config"], [(t, r, c.entries) for t, r, c in a["examples"]]))
        return {"key": hashlib.sha256(key.encode("utf-8")).hexdigest()}

    def _info_retrieve(self, a, result):
        return {"candidates": len(result), "key": repr((a["table"], a["m"]))}

    def _info_filter_leakage(self, a, result):
        return {"dropped": len(a["candidates"]) - len(result)}

    def _info_select_top_n(self, a, result):
        return {"pairs": len(a["candidates"])}

    def _info_decode_greedy(self, a, result):
        return {"tokens": len(result), "max_len_stop": len(result) >= a["max_len"]}

    def _info_save_generator(self, a, result):
        return {"bytes": os.path.getsize(a["path"])}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, info):
        sig = inspect.signature(fn) if info else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            outer_run = self._run
            run = self._run = index if name == "run_pipeline" else outer_run
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._run = outer_run
                spans[index] = (name, start, end, parent, run, None)
            if info:
                args_by_name = sig.bind(*args, **kwargs).arguments
                spans[index] = (name, start, end, parent, run, info(args_by_name, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "prototext" or n.startswith("prototext.")]
        for fn in TRACED:
            # Counts come from the method _info_<name>, where there is one.
            wrapper = self._wrap(fn, fn.__name__, getattr(self, f"_info_{fn.__name__}", None))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        step = optim.Adam.step
        self._patches.append((optim.Adam, "step", step))
        optim.Adam.step = self._wrap(step, "Adam.step", self._info_adam_step)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self._live_rows = weakref.WeakKeyDictionary()


# -- per-layer metrics --------------------------------------------------------

# Per-layer metrics that count work rather than time it: each must read
# the same on every pass and every run at one seed.
EXACT_COUNTS = frozenset({
    "generator.train_steps", "generator.train_positions", "generator.records_skipped",
    "generator.adam_live_row_ratio", "generator.decoded_tokens", "generator.max_len_stops",
    "generator.model_bytes", "optim.steps", "selector.train_steps", "selector.pairs_scored",
    "retrieval.queries", "retrieval.candidates_per_query", "retrieval.leakage_dropped",
    "pipeline.runs", "pipeline.repeat_retrievals", "pipeline.repeat_selector_trainings",
})

LAYERS = ("tabledata", "retrieval", "selector", "generator", "optim", "evaluation", "pipeline")


def _dur(span) -> float:
    return span[2] - span[1]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [_dur(s) for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= _dur(s)
    return own


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """One traced pass's per-layer metrics; ``wall_s`` is the pass's wall time."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(*names):
        return sum(_dur(spans[i]) for n in names for i in idx(n))

    def mean(values, scale=1.0):
        return scale * sum(values) / len(values) if values else 0.0

    def info_sum(name, key):
        return sum(spans[i][5][key] for i in idx(name))

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p is not None else None

    steps = idx("Adam.step")
    gen_steps = [i for i in steps if parent_name(i) == "train_generator"]
    sel_steps = [i for i in steps if parent_name(i) == "train_selector"]
    grads = idx("loss_and_grads")
    skipped = 0
    for i in idx("train_generator"):
        records, epochs = spans[i][5]["records"], spans[i][5]["epochs"]
        trained = sum(1 for j in grads if spans[j][3] == i)
        if epochs:
            skipped += records - trained // epochs
    live = [spans[i][5] for i in gen_steps]
    tokens = info_sum("decode_greedy", "tokens")
    pairs = info_sum("select_top_n", "pairs")
    queries = idx("retrieve")
    own = self_times(spans)
    return {
        "generator.train_s": total("train_generator"),
        "generator.train_steps": len(grads),
        "generator.train_positions": info_sum("loss_and_grads", "positions"),
        "generator.grad_ms_per_step": mean([_dur(spans[i]) for i in grads], 1e3),
        "generator.records_skipped": skipped,
        "generator.adam_live_row_ratio": (
            sum(x["live_rows"] for x in live) / sum(x["rows"] for x in live) if live else 0.0
        ),
        "generator.decode_s": total("decode_greedy"),
        "generator.decoded_tokens": tokens,
        "generator.decode_ms_per_token": 1e3 * total("decode_greedy") / tokens if tokens else 0.0,
        "generator.max_len_stops": sum(1 for i in idx("decode_greedy") if spans[i][5]["max_len_stop"]),
        "generator.conditioning_us": mean([_dur(spans[i]) for i in idx("build_conditioning")], 1e6),
        "generator.save_s": total("save_generator"),
        "generator.load_s": total("load_generator"),
        "generator.model_bytes": info_sum("save_generator", "bytes"),
        "optim.generator_step_ms": mean([_dur(spans[i]) for i in gen_steps], 1e3),
        "optim.selector_step_ms": mean([_dur(spans[i]) for i in sel_steps], 1e3),
        "optim.steps": len(steps),
        "selector.train_s": total("train_selector"),
        "selector.train_steps": len(sel_steps),
        "selector.pairs_scored": pairs,
        "selector.score_us_per_pair": 1e6 * total("select_top_n") / pairs if pairs else 0.0,
        "selector.model_io_s": total("save_selector", "load_selector"),
        "retrieval.index_s": total("build_index"),
        "retrieval.index_io_s": total("save_index", "load_index"),
        "retrieval.queries": len(queries),
        "retrieval.retrieve_ms_per_query": mean([_dur(spans[i]) for i in queries], 1e3),
        "retrieval.candidates_per_query": mean([spans[i][5]["candidates"] for i in queries]),
        "retrieval.leakage_dropped": info_sum("filter_leakage", "dropped"),
        "retrieval.candidates_io_s": total("write_candidate_sets", "read_candidate_sets"),
        "tabledata.load_s": total("load_corpus", "parse_tables_file"),
        "evaluation.eval_s": total("evaluate_pairs", "precision_at_k", "sign_test"),
        "pipeline.runs": len(idx("run_pipeline")),
        "pipeline.self_s": sum(
            own[i] for n in ("run_ablation", "run_pipeline", "shared_vocabulary") for i in idx(n)
        ),
        "pipeline.parallelism": total("run_pipeline") / wall_s,
        "pipeline.repeat_retrievals": len(queries) - len({spans[i][5]["key"] for i in queries}),
        "pipeline.repeat_selector_trainings": (
            len(idx("train_selector")) - len({spans[i][5]["key"] for i in idx("train_selector")})
        ),
    }


LAYER_OF_SPAN = {fn.__name__: fn.__module__.rpartition(".")[2] for fn in TRACED}
LAYER_OF_SPAN["Adam.step"] = "optim"


def absent_layers(spans) -> list[str]:
    seen = {LAYER_OF_SPAN[s[0]] for s in spans}
    return [layer for layer in LAYERS if layer not in seen]
