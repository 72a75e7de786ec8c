"""Run `bench/run.py` alternately from two checkouts and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload train-revisit --seeds 0-10 --out BENCH_26.json

Each (workload, seed) is one pair: the parent runs first on even seeds and
the change first on odd seeds, each from its own checkout, one run at a time.
The run length is `bench/run.py`'s default, the same for both sides.
The final JSON line of every run goes into the output's `runs` list as
{workload, seed, side, trace, result}. The file is rewritten after every run,
so an interrupted session keeps what it finished; `--append` adds to an
existing file. `summary` holds, per workload, trace setting and metric, each
side's median and quartiles, the median gap (change − parent), how many pairs
the change won, and whether the gap exceeds the parent's interquartile range.
A metric's better direction comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def directions(benchmark: dict) -> dict:
    """Metric name → "lower" or "higher", over end-to-end and per-layer metrics."""
    return {m["name"]: m["better"]
            for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list, better: dict) -> dict:
    """{workload: {"trace <t>": {metric: stats}}} over the runs that have both
    sides of a (workload, seed, trace) pair; metrics without a known
    direction are skipped."""
    paired = {}
    for run in runs:
        key = (run["workload"], run["trace"], run["seed"])
        paired.setdefault(key, {})[run["side"]] = run["result"]["metrics"]
    out = {}
    for (workload, trace, _seed), sides in sorted(paired.items()):
        if set(sides) != set(SIDES):
            continue
        group = out.setdefault(workload, {}).setdefault(f"trace {trace}", {})
        for name in sides["parent"].keys() & sides["change"].keys() & better.keys():
            entry = group.setdefault(name, {"parent": [], "change": []})
            for side in SIDES:
                entry[side].append(sides[side][name]["value"])
    for workload in out.values():
        for group in workload.values():
            for name, entry in group.items():
                entry.update(_stats(entry.pop("parent"), entry.pop("change"), better[name]))
    return out


def _stats(parent: list, change: list, better: str) -> dict:
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _quartiles(parent)
    c_q1, c_q3 = _quartiles(change)
    gap = c_med - p_med
    return {
        "pairs": len(parent),
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "gap": gap,
        "gap_pct": 100.0 * gap / p_med if p_med else None,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "gap_beyond_parent_iqr": sign * gap > p_q3 - p_q1,
    }


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One `bench/run.py` run from `checkout`, at the benchmark's own run length;
    its final stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def parse_seeds(text: str) -> list:
    """"0-9" or "0,3,5" (or a mix) → a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-4"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    doc = json.loads(args.out.read_text()) if args.append else {"note": args.note, "runs": []}
    if args.note:
        doc["note"] = args.note
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        for seed in args.seeds:
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                result = run_bench(checkouts[side], workload, seed, args.trace)
                doc["runs"].append({"workload": workload, "seed": seed, "side": side,
                                    "trace": args.trace, "result": result})
                doc["summary"] = summarize(doc["runs"], better)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                p50 = result["metrics"].get("scene_ms_p50", {}).get("value")
                print(f"{workload} seed {seed} {side}: correct {result['correct']} "
                      f"failed {result['failed']} scene_ms_p50 {p50}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
