"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py [--workloads desk,generate] [--write-baseline]

For each workload, at seed 13, it runs ``bench/run.py`` once untraced and
twice traced, one run after another, and checks that

- every metric in BENCHMARK.json prints in the result line with its
  declared unit, and every report metric that applies to the workload
  prints with a unit;
- every run is correct;
- every traced ``Adam.step`` span has a ``train_selector`` or
  ``train_generator`` parent;
- the traced passes' artifact digests equal the untraced run's;
- every count in ``tracing.EXACT_COUNTS`` repeats exactly between the two
  traced runs.

``--write-baseline`` then rewrites ``baseline.json`` from the untraced
seed-13 runs of desk and ablation. Exits 1 after naming each failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

REPORTED = {
    "desk": ("setup_s", "wall_s", "peak_rss_mb", "error_rate", "bleu4"),
    "mine-20k": ("setup_s", "wall_s", "peak_rss_mb", "error_rate", "selector_p_at_3"),
    "ablation": ("setup_s", "wall_s", "peak_rss_mb", "error_rate", "bleu4"),
    "generate": (
        "setup_s", "wall_s", "peak_rss_mb", "error_rate", "bleu4",
        "tokens_per_s", "latency_p50_ms", "latency_tail_ms",
    ),
}
BASELINE_WORKLOADS = ("desk", "ablation")


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    """Run the benchmark command; return its stdout lines and its run record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    record = ROOT / ".bench_out" / f"{workload}-seed{run.DEFAULT_SEED}-trace{trace}.json"
    return proc.stdout.splitlines(), json.loads(record.read_text(encoding="utf-8"))


def check_printed(workload, lines, trace, spec, fail):
    result = json.loads(lines[-1])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed != wanted:
        fail(f"{workload} trace {trace}: result metrics {printed} != BENCHMARK.json {wanted}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: run not correct: {lines[-1][:200]}")
    rows = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            rows[parts[0]] = parts[2]
    for name in REPORTED[workload]:
        if not rows.get(name):
            fail(f"{workload} trace {trace}: {name} is not printed with a unit")


def check_adam_parents(workload, record, fail):
    for p in record["passes"]:
        spans = p.get("spans", [])
        for s in spans:
            if s[0] == "Adam.step" and (s[3] is None or spans[s[3]][0] not in ("train_selector", "train_generator")):
                fail(f"{workload}: an Adam.step span has parent {spans[s[3]][0] if s[3] is not None else None}")
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="desk,mine-20k,ablation,generate")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.write_baseline and not set(BASELINE_WORKLOADS) <= set(args.workloads.split(",")):
        parser.error(f"--write-baseline needs the workloads {', '.join(BASELINE_WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    untraced_records = {}
    for workload in args.workloads.split(","):
        lines, plain = bench(workload, 0)
        untraced_records[workload] = plain
        check_printed(workload, lines, 0, spec, failures.append)
        traced_runs = []
        for _ in range(2):
            lines, traced = bench(workload, 1)
            check_printed(workload, lines, 1, spec, failures.append)
            check_adam_parents(workload, traced, failures.append)
            traced_runs.append(traced)
        reference = plain["passes"][0]["digests"]
        for traced in traced_runs:
            for p in traced["passes"]:
                if p["traced"] and p["digests"] != reference:
                    failures.append(f"{workload}: traced artifact digests differ from the untraced run's")
        first, second = (t["layers"] for t in traced_runs)
        for key in sorted(tracing.EXACT_COUNTS):
            if first[key] != second[key]:
                failures.append(f"{workload}: {key} is {first[key]} then {second[key]}")
        print(f"{workload}: checked", flush=True)
    if args.write_baseline:
        write_baseline(untraced_records)
    for f in failures:
        print(f"FAIL {f}")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def write_baseline(records: dict) -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip() or "unknown"
    baseline = {
        "seed": run.DEFAULT_SEED,
        "commit": commit,
        "context": run.context(),
        "artifacts": {w: records[w]["passes"][0]["digests"] for w in BASELINE_WORKLOADS},
        "quality": {w: records[w]["metrics"].get("bleu4") for w in BASELINE_WORKLOADS},
    }
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
