"""End-to-end benchmark of the ClaSS reproduction: one command, three workloads.

Run one workload (from the repository root)::

    python3 e2ebench/run.py --workload paper-single --seed 1 --seconds 20 --trace 0

prints a host fingerprint line, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ledger of a traced run.  The
exit code is non-zero when an output check fails.

Repeat mode runs each workload N times in fresh processes on consecutive
seeds and prints per metric the median, the IQR and the worst deviation
from the median as a share of the bound in ``BENCHMARK.json``::

    python3 e2ebench/run.py --repeat 10 --seed 1 --seconds 20 [--workload W ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("paper-single", "service-fleet", "store-replay")


def _pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread before numpy is first imported."""
    sys.path.insert(0, str(BENCH_DIR))
    from common import PINNED_THREADS, SRC_DIR

    os.environ.update(PINNED_THREADS)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({SRC_DIR})")
    sys.path.insert(0, str(SRC_DIR))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import checks
    import common

    module = {
        "paper-single": "paper_single",
        "service-fleet": "service_fleet",
        "store-replay": "store_replay",
    }[workload]
    runner = __import__(module)
    before = common.calibration_ms()
    ticks_before = common.cpu_ticks()
    correct = True
    try:
        result = runner.run(seed, seconds, trace)
    except checks.CheckFailed as failure:
        print(f"# CHECK FAILED: {failure}", file=sys.stderr, flush=True)
        correct = False
        result = {"attempted": 1, "failed": 0, "metrics": {}, "layers": {}}
    after = common.calibration_ms()
    ticks_after = common.cpu_ticks()
    info = common.host_info()
    total = ticks_after[0] - ticks_before[0]
    stolen = ticks_after[1] - ticks_before[1]
    info["steal_pct"] = round(100.0 * stolen / total, 2) if total else 0.0
    info["calibration_ms"] = [round(before, 2), round(after, 2)]
    print("# host " + json.dumps(info), flush=True)
    if trace:
        layers = dict(result["layers"])
        layers["host.calibration_ms"] = (before + after) / 2
        metrics = {name: {"value": value, "unit": unit} for name, unit, value in _ledger(layers)}
    else:
        units = {entry["name"]: entry["unit"] for entry in _spec()["end_to_end"]}
        metrics = {
            name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def _spec() -> dict:
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _ledger(layers: dict):
    """Every per-layer metric of BENCHMARK.json with its unit and value."""
    for entry in _spec()["per_layer"]:
        yield entry["name"], entry["unit"], float(layers.get(entry["name"], 0.0))


def repeat(workloads, first_seed: int, count: int, seconds: float) -> int:
    """Run each workload ``count`` times; print median, IQR and bound use."""
    import statistics
    import subprocess

    import common

    bounds = {entry["name"]: entry["bound"] for entry in _spec()["end_to_end"]}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        shares = []
        for seed in range(first_seed, first_seed + count):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, env=common.child_env(), cwd=common.REPO_ROOT,
            )
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                status = 1
                continue
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            host = json.loads(next(line for line in lines if line.startswith("# host "))[7:])
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {seed}: " + json.dumps(
                {name: round(metric["value"], 4) for name, metric in result["metrics"].items()}
            ) + f" steal_pct {host['steal_pct']} calibration_ms {host['calibration_ms']}",
                flush=True)
        print(f"{workload}: failed share per run {sorted(set(shares))}")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _q2, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            iqr_share = (q3 - q1) / median if median else float("inf")
            worst = max(abs(value - median) for value in series)
            worst = worst / median if median else float("inf")
            bound = bounds[name]
            print(
                f"  {name:26s} median {median:12.4f}  IQR/median {iqr_share:6.3f}"
                f" ({iqr_share / bound:5.2f} of bound {bound})"
                f"  worst |dev|/median {worst:6.3f} ({worst / bound:5.2f} of bound)"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload (repeat mode)")
    args = parser.parse_args(argv)
    _pin_threads()
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.repeat:
        return repeat(args.workload or WORKLOADS, args.seed, args.repeat, seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload (or --repeat N)")
    return run_once(args.workload[0], args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
