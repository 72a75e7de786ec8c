"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-revisit --seed 0 --seconds 25 --trace 0

Every metric is printed as `name value unit` (with `--trace 0`, followed by
the same times unscaled as `raw.<name>`), then a `meta:` line with the
machine and program facts, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics. `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer metrics of a traced run
and checks that the traced spans cover 0.9-1.1 of the op time. The exit code
is 1 when any output disagrees with bench/reference.json (or, for a seed with
no reference, breaks an invariant). `--record` stores this run's outputs as
the reference of its seed.
"""

from __future__ import annotations

import os

# One BLAS thread: one client in a closed loop, fixed before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORKDIR = ROOT / ".bench_work"
COVERAGE_RANGE = (0.9, 1.1)


def _blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def _meta(args, run, has_reference: bool) -> dict:
    import numpy as np
    import workloads as wl
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "lidarmt").glob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas_info(), "blas_threads": BLAS_THREADS,
            "config_hash": run.config_hash, "src_lines": src_lines,
            "ops": run.attempted, "reference": has_reference,
            "ref_kernel_ms": statistics.median(w for w, _c in run.ref_ms),
            "nominal_ref_ms": wl.NOMINAL_REF_MS}


def _load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def _store_reference(workload: str, seed: int, record: dict) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = record
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    REFERENCE.write_text(text.replace('},"', '},\n"') + "\n")


def main(argv=None) -> int:
    if not (SRC / "lidarmt" / "__init__.py").is_file():
        print(f"error: no lidarmt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the seed's reference")
    args = parser.parse_args(argv)

    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    reference = None if args.record else _load_reference(args.workload, args.seed)
    try:
        run = wl.run_workload(args.workload, args.seed, args.seconds,
                              workdir, reference, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if not run.lat_ms or (args.trace and not run.traced_ops):
        print("error: no op completed", file=sys.stderr)
        return 1

    correct = run.failed == 0 and not run.problems
    if args.trace:
        metrics = spans.layer_metrics(tracer, run.traced_ops)
        metrics["trace.overhead"] = (statistics.median(run.traced_lat_ms)
                                     / statistics.median(run.lat_ms), "ratio")
        metrics["data.degenerate_failed"] = (run.degenerate_failed, "count")
        lo, hi = COVERAGE_RANGE
        if not lo <= metrics["trace.coverage"][0] <= hi:
            print(f"problem: trace.coverage {metrics['trace.coverage'][0]:.3f}"
                  f" outside {lo}-{hi}", file=sys.stderr)
            correct = False
        tracer.write(WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = wl.end_to_end(run, rss_mb)
        raw = wl.end_to_end(run, rss_mb, scale=False)
    if args.record:
        _store_reference(args.workload, args.seed, run.record)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in raw.items():
            print(f"raw.{name} {value:.6g} {unit}")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.6g} ratio")
    print(f"degenerate_failed {run.degenerate_failed} count")
    print("meta: " + json.dumps(_meta(args, run, reference is not None), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
