"""The pair runner's summary: medians, quartiles, gaps and win counts of
alternating parent/change bench runs, in each metric's better direction."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)


def run(workload, seed, side, trace=0, **metrics):
    return {"workload": workload, "seed": seed, "side": side, "trace": trace,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}}


def test_summary_medians_quartiles_and_wins_follow_each_metrics_direction():
    parent_ms, change_ms = [10.0, 12.0, 11.0, 13.0, 9.0], [9.0, 11.0, 11.5, 10.0, 8.0]
    runs = []
    for seed, (p, c) in enumerate(zip(parent_ms, change_ms)):
        runs.append(run("w", seed, "parent", scene_ms_p50=p, scenes_per_s=1000 / p, other=p))
        runs.append(run("w", seed, "change", scene_ms_p50=c, scenes_per_s=1000 / c, other=c))
    runs.append(run("w", 9, "change", scene_ms_p50=1.0))          # no parent side: unpaired
    runs.append(run("w", 0, "parent", trace=1, scene_ms_p50=5.0))  # another trace setting
    runs.append(run("w", 0, "change", trace=1, scene_ms_p50=6.0))
    better = {"scene_ms_p50": "lower", "scenes_per_s": "higher"}
    out = bp.summarize(runs, better)

    assert set(out) == {"w"} and set(out["w"]) == {"trace 0", "trace 1"}
    assert set(out["w"]["trace 0"]) == {"scene_ms_p50", "scenes_per_s"}   # "other": no direction
    s = out["w"]["trace 0"]["scene_ms_p50"]
    assert s["pairs"] == 5
    assert s["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert s["change"] == {"median": 10.0, "q1": 9.0, "q3": 11.0}
    assert s["gap"] == -1.0 and s["gap_pct"] == pytest.approx(-100 / 11)
    assert s["change_wins"] == 4                        # seed 2 lost: 11.5 > 11
    assert s["gap_beyond_parent_iqr"] is False          # 1 ms against an IQR of 2 ms
    rate = out["w"]["trace 0"]["scenes_per_s"]
    assert rate["change_wins"] == 4 and rate["gap"] > 0
    traced = out["w"]["trace 1"]["scene_ms_p50"]
    assert traced["pairs"] == 1 and traced["change_wins"] == 0
    assert traced["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    assert traced["gap_beyond_parent_iqr"] is False     # slower is never "beyond"


def test_a_clear_gain_is_beyond_the_parent_iqr():
    runs = [run("w", s, side, scene_ms_p50=v) for s in range(4)
            for side, v in (("parent", 10.0 + 0.1 * s), ("change", 9.0))]
    s = bp.summarize(runs, {"scene_ms_p50": "lower"})["w"]["trace 0"]["scene_ms_p50"]
    assert s["change_wins"] == 4 and s["gap_beyond_parent_iqr"] is True


def test_seed_lists_and_directions_from_the_benchmark_file():
    assert bp.parse_seeds("0-3,7,9-10") == [0, 1, 2, 3, 7, 9, 10]
    better = bp.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["scene_ms_p50"] == "lower" and better["scenes_per_s"] == "higher"
    assert better["train.adamw_ms"] == "lower"
