"""Run one workload of the prototext benchmark and print its metrics.

    python3 bench/run.py --workload desk --seed 13 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in, and every file the run writes goes under that
checkout (``.bench_work/`` while it runs, ``.bench_out/`` afterwards).

A run sets its workload up (``setup_s`` is the median of the set-ups),
then repeats timed passes for at most ``--seconds``, but at least one.
With ``--trace 1`` the first pass runs untraced and the rest traced, and
the difference between them is reported as the tracing overhead. Every
pass's outputs are checked and every artifact's sha256 must equal the
first pass's; each check is one attempted operation and a failed check is
a failed one. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json untraced, its per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# The seed every number in baseline.json was measured at, and a second
# seed kept back to confirm a claimed gain on inputs it was not tuned on.
DEFAULT_SEED = 13
HELD_OUT_SEED = 29

SETUP_MIN_S = 1.0

# Metrics that apply to some workloads only; printed, not gated.
REPORT_UNITS = {
    "error_rate": "ratio",
    "bleu4": "score",
    "selector_p_at_3": "ratio",
    "bm25_p_at_3": "ratio",
    "tokens_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_rank = max(n - 11, 0)
    return {
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_tail_ms": 1e3 * ordered[tail_rank],
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "samples": n,
    }


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if trace else None
    try:
        # Set up at least setup_repeats times and for at least
        # SETUP_MIN_S: a set-up of a few milliseconds is otherwise at the
        # mercy of second-long swings in CPU speed on a shared host.
        setup_s = []
        while len(setup_s) < wl.setup_repeats or sum(setup_s) < SETUP_MIN_S:
            t0 = perf_counter()
            ctx = wl.setup(seed, work / "setup")
            setup_s.append(perf_counter() - t0)

        passes = []
        start = perf_counter()
        # Stop before a pass that would end past the deadline.
        while len(passes) < (2 if trace else 1) or (
            perf_counter() - start + passes[-1]["wall_s"] <= seconds
        ):
            traced = tracer is not None and len(passes) > 0
            if traced:
                tracer.reset()
                tracer.install()
            t0 = perf_counter()
            try:
                res = wl.run(ctx, work / f"pass{len(passes)}")
            finally:
                wall = perf_counter() - t0
                if traced:
                    tracer.uninstall()
            checks = wl.check(ctx, res)
            digests = workloads.artifact_digests(res)
            if passes:
                first = passes[0]["digests"]
                checks += [
                    (f"{name} sha256 equals the first pass's", digests.get(name) == first.get(name))
                    for name in sorted(set(first) | set(digests))
                ]
            shutil.rmtree(res.out_dir, ignore_errors=True)
            record = {
                "traced": traced, "wall_s": wall, "checks": checks,
                "digests": digests, "quality": res.quality,
            }
            if res.latencies_s:
                record["tokens"] = sum(len(r) for r in res.responses)
                record["serve_s"] = sum(res.latencies_s)
                record["latency"] = latency_summary(res.latencies_s)
            if traced:
                record["spans"] = list(tracer.spans)
                record["layers"] = tracing.layer_metrics(tracer.spans, wall)
                record["absent_layers"] = tracing.absent_layers(tracer.spans)
            passes.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(wl, seed, setup_s, passes)


def summarize(wl, seed: int, setup_s: list[float], passes: list[dict]) -> dict:
    import tracing

    checks = [c for p in passes for c in p["checks"]]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    layers = {}
    if traced:
        for key, value in traced[0]["layers"].items():
            values = [p["layers"][key] for p in traced]
            if key in tracing.EXACT_COUNTS:
                layers[key] = value
                checks.append((f"{key} repeats exactly across traced passes", len(set(values)) == 1))
            else:
                layers[key] = statistics.median(values)
        overhead = statistics.median(p["wall_s"] for p in traced) - untraced_wall
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / untraced_wall
        layers["trace.spans"] = len(traced[0]["spans"])
    failed = [what for what, ok in checks if not ok]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": untraced_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": len(failed) / len(checks),
    }
    for key in plain[0]["quality"]:
        metrics[key] = statistics.median(p["quality"][key] for p in plain)
    notes = {}
    if "latency" in plain[0]:
        metrics["tokens_per_s"] = statistics.median(p["tokens"] / p["serve_s"] for p in plain)
        for key in ("latency_p50_ms", "latency_tail_ms"):
            metrics[key] = statistics.median(p["latency"][key] for p in plain)
        notes["latency_tail_ms"] = (
            f"p{plain[0]['latency']['tail_percentile']:.2f} of "
            f"{plain[0]['latency']['samples']} requests per pass"
        )
    return {
        "workload": wl.name,
        "seed": seed,
        "passes": passes,
        "setup_repeats": len(setup_s),
        "metrics": metrics,
        "layers": layers,
        "notes": notes,
        "attempted": len(checks),
        "failed": failed,
    }


def print_report(summary: dict, spec: dict, trace: bool) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_UNITS)
    passes = summary["passes"]
    print(
        f"# workload {summary['workload']} seed {summary['seed']}: "
        f"{len(passes)} passes ({sum(p['traced'] for p in passes)} traced), "
        f"{summary['setup_repeats']} set-ups; closed loop, one client"
    )
    rows = dict(summary["metrics"])
    if trace:
        rows.update(summary["layers"])
    for name, value in rows.items():
        note = summary["notes"].get(name, "")
        print(f"{name:40s} {value!r:>24} {units[name]:6s} {note}")
    if trace and passes[-1].get("absent_layers"):
        print(f"# layers absent from the trace: {', '.join(passes[-1]['absent_layers'])}")
    for what in summary["failed"]:
        print(f"# FAILED: {what}")


def baseline_note(summary: dict) -> str | None:
    """Compare the first pass's artifacts with baseline.json, for bit-exactness claims."""
    path = Path(__file__).resolve().parent / "baseline.json"
    if summary["seed"] != DEFAULT_SEED or not path.is_file():
        return None
    expected = json.loads(path.read_text(encoding="utf-8"))["artifacts"].get(summary["workload"])
    if expected is None:
        return None
    got = summary["passes"][0]["digests"]
    differ = sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))
    if not differ:
        return f"all {len(expected)} artifacts identical to baseline.json"
    return f"{len(differ)} of {len(expected)} artifacts differ from baseline.json: {', '.join(differ)}"


def write_record(summary: dict, trace: bool) -> Path:
    """Keep the spans and digests of the run under .bench_out/."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{summary['workload']}-seed{summary['seed']}-trace{int(trace)}.json"
    record = dict(summary, context=context())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def result_line(summaries: list[dict], spec: dict, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for s in summaries:
        values = dict(s["metrics"], **s["layers"])
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(len(s["failed"]) for s in summaries)
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to repeat timed passes (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "prototext" / "__init__.py"
    for needed in (spec_path, package):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a prototext checkout", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    print(f"# {json.dumps(context(), sort_keys=True)}")
    summaries = []
    for name in names:
        summary = run_workload(workloads.WORKLOADS[name], args.seed, seconds, bool(args.trace))
        print_report(summary, spec, bool(args.trace))
        note = baseline_note(summary)
        if note:
            print(f"# {note}")
        print(f"# record: {write_record(summary, bool(args.trace)).relative_to(ROOT)}")
        summaries.append(summary)
    print(json.dumps(result_line(summaries, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
