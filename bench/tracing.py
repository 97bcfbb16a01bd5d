"""Outside-in tracing of clickstats for the benchmark's per-layer metrics.

``Tracer.install`` replaces each traced function at every ``clickstats``
module attribute that holds it, which is where its callers look it up
(``clickstats.inversion.lstsq_simplex``, ``clickstats.cli.forward_clicks``,
...), and ``uninstall`` puts the originals back.  Each call records a span
(name, start, end, parent span, op id) in memory; nothing is written until
the pass ends.

Run as a script, it traces one CLI call in its own process:

    python -X importtime bench/tracing.py OUT_JSON OP_ID SUBCOMMAND [ARGS...]
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

#: Span name -> (defining module, function).  The span names are the
#: prefixes of the per-layer metric names.
TARGETS = {
    "experiments.run_catalysis_sweep": ("clickstats.experiments", "run_catalysis_sweep"),
    "experiments.run_tmsv": ("clickstats.experiments", "run_tmsv"),
    "inversion.mc_q_mandel_from_clicks": ("clickstats.inversion", "mc_q_mandel_from_clicks"),
    "inversion.q_mandel_from_clicks": ("clickstats.inversion", "q_mandel_from_clicks"),
    "inversion.invert_clicks": ("clickstats.inversion", "invert_clicks"),
    "inversion.lstsq_simplex": ("clickstats.inversion", "lstsq_simplex"),
    "detector.click_matrix": ("clickstats.detector", "click_matrix"),
    "detector.forward_clicks": ("clickstats.detector", "forward_clicks"),
    "detector.sample_counts": ("clickstats.detector", "sample_counts"),
    "detector.joint_forward_clicks": ("clickstats.detector", "joint_forward_clicks"),
    "witnesses.mc_witness": ("clickstats.witnesses", "mc_witness"),
    "fockspace.catalysis_conditional_pn": ("clickstats.fockspace", "catalysis_conditional_pn"),
    "fockspace.apply_loss": ("clickstats.fockspace", "apply_loss"),
    "distributions.coherent_pn": ("clickstats.distributions", "coherent_pn"),
    "distributions.thermal_pn": ("clickstats.distributions", "thermal_pn"),
    "io.write": ("clickstats.cli", "_write_output"),
    "io.read": ("clickstats.cli", "_read_input"),
    **{
        f"io.serialize.{fn}": ("clickstats.io", fn)
        for fn in (
            "to_json", "photon_distribution_to_csv", "click_distribution_to_csv", "count_record_to_csv",
            "matrix_to_csv", "tmsv_result_to_csv", "catalysis_result_to_csv",
        )
    },
    **{
        f"io.parse.{fn}": ("clickstats.io", fn)
        for fn in (
            "sniff_click_csv", "photon_distribution_from_csv", "click_distribution_from_csv",
            "count_record_from_csv", "parse_config",
        )
    },
}

_BOOTSTRAPS = ("inversion.mc_q_mandel_from_clicks", "witnesses.mc_witness")

#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    **{f"inversion.{fn}.{m}": u for fn in ("mc_q_mandel_from_clicks", "q_mandel_from_clicks", "invert_clicks", "lstsq_simplex")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "inversion.mc_q_mandel_from_clicks.replicas_per_s": "1/s",
    "inversion.mc_q_mandel_from_clicks.dropped_frac": "ratio",
    "inversion.lstsq_simplex.boundary_frac": "ratio",
    "detector.click_matrix.calls": "count",
    "detector.click_matrix.misses": "count",
    "detector.click_matrix.hit_ratio": "ratio",
    "detector.click_matrix.miss_s": "s",
    "detector.forward_clicks.self_s": "s",
    "detector.sample_counts.self_s": "s",
    "detector.joint_forward_clicks.self_s": "s",
    "witnesses.mc_witness.calls": "count",
    "witnesses.mc_witness.self_s": "s",
    "witnesses.mc_witness.replicas_per_s": "1/s",
    "witnesses.mc_witness.dropped_frac": "ratio",
    "fockspace.catalysis_conditional_pn.calls": "count",
    "fockspace.catalysis_conditional_pn.self_s": "s",
    "fockspace.apply_loss.self_s": "s",
    "distributions.coherent_pn.self_s": "s",
    "distributions.thermal_pn.self_s": "s",
    "io.write.s": "s",
    "io.write.bytes": "bytes",
    "io.read.s": "s",
    "cli.import.clickstats_s": "s",
    "cli.import.scipy_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or None, op id, extra or None]
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patched: list = []

    def install(self) -> None:
        wrappers = {}
        for name, (module, fn) in TARGETS.items():
            original = getattr(importlib.import_module(module), fn)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "clickstats" and not mod_name.startswith("clickstats."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)
        signature = inspect.signature(fn) if name in _BOOTSTRAPS else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            misses = cache_info().misses if cache_info else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if cache_info:
                span[5] = {"miss": cache_info().misses > misses}
            elif signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = {"replicas": bound.arguments["n_replicas"], "dropped": result.dropped_fraction}
            elif name == "inversion.lstsq_simplex":
                span[5] = {"boundary": bool((result == 0.0).any())}
            elif name == "io.write":
                span[5] = {"bytes": len(args[1].encode())}
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def accumulate(spans) -> dict:
    """Sum calls, self time and counters per span name.

    Self time is a span's duration minus the part its children cover.  The
    children of a span ran one after another on one thread, so they are
    disjoint and their durations add up to that part.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, (name, start, end, _, _, extra) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name}.dur_s", end - start)
        add(f"{name}.self_s", end - start - covered[i])
        for key, value in (extra or {}).items():
            if key == "dropped":
                add(f"{name}.dropped_replicas", value * extra["replicas"])
            else:
                add(f"{name}.{key}", float(value))
                if key == "miss" and value:
                    add(f"{name}.miss_s", end - start)
    return acc


def merge(accs) -> dict:
    total: dict = {}
    for acc in accs:
        for key, value in acc.items():
            total[key] = total.get(key, 0.0) + value
    return total


def layer_metrics(acc: dict) -> dict:
    """Per-layer metrics (all but the import and overhead ones) from summed counters."""
    get = lambda key: acc.get(key, 0.0)  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    out = {}
    for name in LAYER_UNITS:
        if name.endswith((".calls", ".self_s")):
            out[name] = get(name)
    for name in _BOOTSTRAPS:
        out[f"{name}.replicas_per_s"] = ratio(get(f"{name}.replicas"), get(f"{name}.dur_s"))
        out[f"{name}.dropped_frac"] = ratio(get(f"{name}.dropped_replicas"), get(f"{name}.replicas"))
    out["inversion.lstsq_simplex.boundary_frac"] = ratio(get("inversion.lstsq_simplex.boundary"), get("inversion.lstsq_simplex.calls"))
    calls, misses = get("detector.click_matrix.calls"), get("detector.click_matrix.miss")
    out["detector.click_matrix.misses"] = misses
    out["detector.click_matrix.hit_ratio"] = ratio(calls - misses, calls)
    out["detector.click_matrix.miss_s"] = get("detector.click_matrix.miss_s")
    self_in = lambda group: sum(v for k, v in acc.items() if k.endswith(".self_s") and k.startswith(group))  # noqa: E731
    out["io.write.s"] = self_in("io.write.") + self_in("io.serialize.")
    out["io.write.bytes"] = get("io.write.bytes")
    out["io.read.s"] = self_in("io.read.") + self_in("io.parse.")
    return out


#: Line a worker writes to stderr when its timed ops are done; imports
#: after it are the checks', not the program's.
CHECKS_START = "clickstats-bench: checks start"


def import_times(stderr: str) -> dict:
    """``-X importtime`` report up to ``CHECKS_START``: cumulative time of
    ``clickstats`` and the self time summed over every scipy module."""
    clickstats_s = scipy_s = 0.0
    for line in stderr.splitlines():
        if line == CHECKS_START:
            break
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, module = int(fields[0]), int(fields[1]), fields[2].strip()
        if module == "clickstats":
            clickstats_s = cumulative_us / 1e6
        elif module == "scipy" or module.startswith("scipy."):
            scipy_s += self_us / 1e6
    return {"cli.import.clickstats_s": clickstats_s, "cli.import.scipy_s": scipy_s}


def _trace_cli(out_path: str, op: int, argv: list) -> int:
    from clickstats import cli

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"acc": accumulate(tracer.spans), "spans": [s[:5] for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1], int(sys.argv[2]), sys.argv[3:]))
