"""One pass of a workload, in a fresh interpreter started by ``run.py``.

    python [-X importtime] bench/worker.py WORKLOAD SEED TRACED RESULT_JSON

The pass imports clickstats cold (in-process workloads) or starts the CLI
once cold (``cli_session``), makes its inputs from the seed, runs every op
once while timing each, and only then checks
the outputs and makes sure the checks reject a perturbed output.  With
TRACED=1 the ops run under the tracer and the spans go to
``bench/out/spans-WORKLOAD.jsonl``.  The result goes to RESULT_JSON.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
#: No op of this benchmark takes more than a few seconds at the commit that
#: defined it; this only bounds a hung CLI child.
CLI_TIMEOUT_S = 120


def main(workload: str, seed: int, traced: bool, result_path: Path) -> None:
    in_process = workload != "cli_session"
    if in_process:
        import clickstats  # noqa: F401  (cold import: part of set-up)
    import tracing
    import workloads

    out_dir = result_path.parent
    workdir = out_dir / f"cli-{os.getpid()}"
    current = {"op": None}
    child_results = []

    def run_cli(argv):
        if traced:
            trace_out = workdir / f"trace-{current['op']}.json"
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "tracing.py"), str(trace_out), str(current["op"]), *argv]
        else:
            cmd = [sys.executable, "-m", "clickstats.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workdir, timeout=CLI_TIMEOUT_S)
        if traced and trace_out.exists():
            child_results.append((json.loads(trace_out.read_text()), tracing.import_times(proc.stderr)))
        if proc.returncode != 0:
            tail = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")][-1:]
            raise RuntimeError(f"exit status {proc.returncode}: {' '.join(tail)}")

    if not in_process:
        workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(workload, seed, workdir, run_cli)
        tracer = tracing.Tracer()
        if traced and in_process:
            tracer.install()

        if not in_process:
            # The program's cold start, which every CLI op pays: part of set-up.
            subprocess.run([sys.executable, "-c", "import clickstats.cli"], capture_output=True, check=True,
                           cwd=workdir, timeout=CLI_TIMEOUT_S)
        ops = []
        raws = []
        t_first_op = time.monotonic()
        start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            current["op"] = tracer.op = i
            t0 = time.perf_counter()
            try:
                raw, error = op.run(), None
            except Exception as exc:  # an op that raises counts as failed, the pass goes on
                raw, error = None, f"{type(exc).__name__}: {exc}"
            ops.append({"name": op.name, "ms": (time.perf_counter() - t0) * 1e3, "error": error})
            raws.append(raw)
        wall_s = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
        tracer.uninstall()
        # The checks import scipy and the oracles; the import report ends here.
        print(tracing.CHECKS_START, file=sys.stderr, flush=True)

        result = {"t_first_op": t_first_op, "wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "ops": ops}
        if traced:
            result.update(_trace_result(workload, out_dir, tracer, child_results))

        views = []
        for op, raw, rec in zip(wl.ops, raws, ops):
            view = None
            if rec["error"] is None:
                try:
                    view = op.view(raw)
                    rec["check"] = op.check(view)
                except Exception as exc:  # unreadable output fails the op
                    rec["check"] = [f"reading or checking the output raised {type(exc).__name__}: {exc}"]
            views.append(view)
        # The checks must reject op 0's output once it is nudged.
        result["selfcheck"] = views[0] is not None and bool(wl.ops[0].check(wl.perturb(views[0])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result_path.write_text(json.dumps(result))


def _trace_result(workload, out_dir, tracer, child_results) -> dict:
    import tracing

    if not child_results:
        tracer.dump(out_dir / f"spans-{workload}.jsonl")
        return {"acc": tracing.accumulate(tracer.spans)}
    # One traced process per CLI op: renumber parents into one span list.
    with open(out_dir / f"spans-{workload}.jsonl", "w") as fh:
        offset = 0
        for child, _ in child_results:
            for name, start, end, parent, op in child["spans"]:
                parent = None if parent is None else parent + offset
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
            offset += len(child["spans"])
    imports = [times for _, times in child_results]
    return {
        "acc": tracing.merge(child["acc"] for child, _ in child_results),
        "imports": {key: sum(t[key] for t in imports) / len(imports) for key in imports[0]},
    }


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4]))
