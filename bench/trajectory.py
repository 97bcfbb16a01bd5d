"""Measure one trajectory point: every workload on several seeds, plus one traced run each.

    python3 bench/trajectory.py --out bench/trajectory/NNN-name.json

For each workload of ``BENCHMARK.json`` and each of the seeds 1-10 it runs
``run.py --trace 0`` for the ``run_seconds`` of ``BENCHMARK.json`` and
records each end-to-end metric's ten values, median and quartile spread (``statistics.quantiles(values,
n=4)``, distance between the first and third quartile as a share of the
median), next to the metric's bound.  Then it runs each workload once with
``--trace 1`` and records the per-layer metrics.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("meta ")), json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        values: dict = {}
        runs = []
        for seed in SEEDS:
            meta, result = run(name, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "passes": meta["passes"]})
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        end_to_end = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            end_to_end[metric] = {
                "median": median, "spread": (q3 - q1) / median, "bound": bounds[metric], "values": vals,
            }
            print(f"{name:16s} {metric:12s} median {median:10.4g}  spread {(q3 - q1) / median:.3f}  bound {bounds[metric]}")
        meta, traced = run(name, SEEDS[0], bench["run_seconds"], 1)
        point["meta"] = {k: meta[k] for k in ("git_sha", "src_sha256", "src_lines", "python", "numpy", "scipy", "nproc", "blas_env")}
        point["workloads"][name] = {
            "runs": runs,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run_correct": traced["correct"],
        }
        print(f"{name:16s} all correct: {all(r['correct'] for r in runs) and traced['correct']}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
