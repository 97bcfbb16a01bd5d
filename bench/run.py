"""clickstats benchmark: closed-loop, single-client workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a clickstats checkout (the package is used from
``src/``, not installed).  Every pass starts a fresh interpreter with
``PYTHONPATH=src`` (``worker.py``), so each pays the cold import and starts
with an empty click-law cache, as a user's process does.  Passes repeat
until the next one would end after S seconds; every workload makes at
least its ``min_passes`` (``workloads.SPECS``).

With ``--trace 0`` the end-to-end metrics come from untraced passes.  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones; ``trace.overhead_s`` is the difference
of their median ``wall_s``.  The last line of standard output is the JSON
result; the line before it (``meta``) records the run's environment.  A
record of the run goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: A run must end within 180 s; no pass is started after this.
HARD_LIMIT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    import tracing

    result_file = OUT / f"pass-{workload}-{os.getpid()}.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(BENCH / "worker.py"),
           workload, str(seed), "1" if traced else "0", str(result_file)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t_spawn = time.monotonic()
    # Own process group, so a timeout also ends the CLI processes a worker started.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass did not finish within {timeout:.0f} s") from None
    t_end = time.monotonic()
    if proc.returncode != 0 or not result_file.exists():
        raise PassFailed(f"worker exited with status {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(result_file.read_text())
    result_file.unlink()
    result["traced"] = traced
    result["setup_s"] = result["t_first_op"] - t_spawn
    result["pass_s"] = t_end - t_spawn
    if traced and "imports" not in result:
        result["imports"] = tracing.import_times(stderr)
    return result


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile with at least ten of ``min_ops`` ops beyond it."""
    return math.floor(100 * (min_ops - 10) / min_ops)


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(passes, pct: int) -> dict:
    latencies = [op["ms"] for p in passes for op in p["ops"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": nearest_rank(latencies, pct),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced, untraced) -> dict:
    import tracing

    per_pass = [{**tracing.layer_metrics(p["acc"]), **p["imports"]} for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in untraced)
    )
    return {name: metrics[name] for name in tracing.LAYER_UNITS}


def run_metadata(args, spec, pct, passes, attempted, failed) -> dict:
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src_files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "ops_per_pass": spec.ops_per_pass,
        "op_tail_percentile": pct,
        "op_count": sum(len(p["ops"]) for p in passes if not p["traced"]),
        "failed_ops_frac": failed / attempted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/clickstats/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a clickstats checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    min_passes = max(spec.min_passes, 2 if args.trace else 1)
    OUT.mkdir(exist_ok=True)

    started = time.monotonic()
    passes = []
    try:
        while True:
            elapsed = time.monotonic() - started
            passes.append(run_pass(args.workload, args.seed, args.trace == 1 and len(passes) % 2 == 1,
                                   timeout=HARD_LIMIT_S + 20 - elapsed))
            elapsed = time.monotonic() - started
            if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
            if elapsed > HARD_LIMIT_S:
                break
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for p in passes for op in p["ops"]]
    bad = [op for op in ops if op["error"] or op.get("check")]
    for op in bad[:5]:
        print(f"failed op {op['name']}: {op['error'] or '; '.join(op['check'][:3])}", file=sys.stderr)
    selfcheck = all(p["selfcheck"] for p in passes)
    if not selfcheck:
        print("error: the output checks accepted a perturbed output", file=sys.stderr)

    pct = tail_percentile(spec.min_passes * spec.ops_per_pass)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        import tracing

        values = per_layer([p for p in passes if p["traced"]], untraced)
        units = tracing.LAYER_UNITS
    else:
        values = end_to_end(untraced, pct)
        units = E2E_UNITS
    meta = run_metadata(args, spec, pct, passes, len(ops), len(bad))
    result = {
        "correct": not bad and selfcheck,
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "passes": passes}, indent=1))
    for p in passes:
        print(f"pass traced={int(p['traced'])} setup_s={p['setup_s']:.3f} wall_s={p['wall_s']:.3f} "
              f"peak_rss_mb={p['peak_rss_mb']:.1f} ops={len(p['ops'])}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
