"""The benchmark's workloads: inputs made from the seed, the ops, and their checks.

A workload is a fixed list of ops, one pass.  The seed fixes every input;
the sizes that set the cost (reflectivity grid, bin counts, CLI pipeline)
are the same for every seed, so runs with different seeds measure the same
amount of work.  Why each workload exists is in ``README.md``.

Ops call the library through module attributes (``clickstats.run_catalysis_sweep``,
not a name bound at import), so the tracer's wrappers see them.  Checks run
after the pass and import ``reference`` only then, so neither scipy's linear
algebra nor the oracles count in set-up time.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CATALYSIS_REPLICAS = 1000
#: Perturbation the self-check applies; far above every check tolerance.
PERTURBATION = 1e-6


@dataclass(frozen=True)
class Spec:
    ops_per_pass: int
    #: Passes every run makes, whatever ``--seconds`` says; op_tail_ms is
    #: the highest percentile with ten ops beyond it at this many passes.
    min_passes: int


SPECS = {
    "catalysis_sweep": Spec(21, 7),
    "cli_session": Spec(9, 3),
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    #: Turns what ``run`` returned into the plain data ``check`` reads.
    view: Callable[[object], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    ops: list
    #: Returns a copy of op 0's data with one output nudged by PERTURBATION.
    perturb: Callable[[object], object]


def build(name: str, seed: int, workdir: Path, run_cli) -> Workload:
    if name == "catalysis_sweep":
        return _catalysis_sweep(seed)
    if name == "cli_session":
        return _cli_session(seed, workdir, run_cli)
    raise ValueError(f"unknown workload {name!r}")


# --- catalysis_sweep -----------------------------------------------------------


def _estimate(e) -> dict:
    return {
        "value": e.value,
        "std_error": e.std_error,
        "n_replicas": e.n_replicas,
        "dropped_fraction": e.dropped_fraction,
        "samples": e.samples,
    }


def _point_view(result) -> dict:
    pt = result.points[0]
    out = {f.name: getattr(pt, f.name) for f in dataclasses.fields(pt) if f.name not in ("q_b", "q_f", "q_m")}
    out["record"] = list(pt.record.counts) if pt.record is not None else None
    for key in ("q_b", "q_f", "q_m"):
        out[key] = _estimate(getattr(pt, key)) if getattr(pt, key) is not None else None
    return out


def _check_point(cfg: dict, point: dict) -> list:
    import reference

    return reference.check_catalysis_point(point, 0, cfg)


def _catalysis_sweep(seed: int) -> Workload:
    """One op is one reflectivity of the default 21-point sweep at its default physics."""
    import clickstats

    ops = []
    for i, reflectivity in enumerate(clickstats.CatalysisSweepConfig().reflectivities):
        config = clickstats.CatalysisSweepConfig(
            reflectivities=(reflectivity,), n_replicas=CATALYSIS_REPLICAS, seed=seed * 1000 + i
        )
        ops.append(
            Op(
                name=f"catalysis[R={reflectivity}]",
                run=lambda config=config: clickstats.run_catalysis_sweep(config),
                view=_point_view,
                check=lambda point, cfg=dataclasses.asdict(config): _check_point(cfg, point),
            )
        )
    return Workload(ops, perturb=lambda point: {**point, "q_b": {**point["q_b"], "value": point["q_b"]["value"] + PERTURBATION}})


# --- cli_session -----------------------------------------------------------------


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_column(path: Path) -> list:
    return [float(row[1]) for row in _read_csv(path)[1:] if row]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _tmsv_csv_rows(path: Path) -> list:
    rows = []
    for arm, k, prob, exact, value, err in _read_csv(path)[1:]:
        rows.append({
            "arm": int(arm),
            "herald_k": int(k) if k else None,
            "probability": float(prob),
            "q_b_exact": float(exact),
            "q_b": {"value": float(value), "std_error": float(err)},
        })
    return rows


#: The library's squeezed-pair defaults, which the ``tmsv`` ops run with.
TMSV_DEFAULTS = {
    "mean_photons": 0.15,
    "n_bins": 8,
    "efficiency_1": 0.07,
    "efficiency_2": 0.07,
    "dark_click_prob": 0.0,
    "herald_ks": (0, 1, 2),
    "n_replicas": 10_000,
}


def _cli_session(seed: int, workdir: Path, run_cli) -> Workload:
    """A user's pipeline, one CLI process per op; files written, then read back."""
    rnd = random.Random(seed)
    eta = rnd.uniform(0.05, 0.5)
    dark = rnd.uniform(1e-4, 1e-2)
    kind = rnd.choice(("coherent", "thermal"))
    mu = rnd.uniform(0.5, 4.0) if kind == "coherent" else rnd.uniform(0.2, 0.9)
    events = rnd.uniform(1e4, 1e5)
    s_sample, s_witness, s_tmsv, s_cat = (rnd.randrange(2**31) for _ in range(4))
    # One binade each: the exact click law's cost grows with the bits of these
    # floats' fractions, and the matrix op's cost must not change with the seed.
    m_eta, m_dark = rnd.uniform(0.25, 0.5), rnd.uniform(2**-8, 2**-7)
    reflectivities = sorted(rnd.sample([round(0.05 * i, 10) for i in range(21)], 2))
    replicas, n_cut, inv_n_max = 2000, 40, 6
    det = f"uniform:8,{eta!r},{dark!r}"
    f = {name: workdir / name for name in (
        "clicks.csv", "counts.csv", "qb.json", "qf.json", "inv.json", "matrix.csv",
        "tmsv.json", "tmsv.csv", "catalysis.cfg", "catalysis.json")}
    cat_cfg = {
        "alpha": 2.449489742783178, "reflectivities": reflectivities, "herald_k": 1, "n_bins": 8,
        "signal_efficiency": 0.07, "dark_click_prob": 0.0, "expected_events": 10_000.0,
        "n_replicas": 100, "seed": s_cat, "inversion_n_max": None,
    }
    f["catalysis.cfg"].write_text("".join(
        f"{k} = {', '.join(map(repr, v)) if isinstance(v, list) else repr(v)}\n" for k, v in cat_cfg.items() if v is not None
    ))
    tmsv_cfg = {**TMSV_DEFAULTS, "seed": s_tmsv, "expected_events": 1e7}

    def ref():
        import reference

        return reference

    def check_clicks(c):
        r = ref()
        errors = []
        p = (r.poisson_pn if kind == "coherent" else r.thermal_pn)(mu, n_cut)
        r.expect_close(errors, "clicks", c, r.click_law(8, eta, dark, n_cut) @ p, r.PROB_ATOL)
        return errors

    def check_counts(counts):
        import numpy as np

        want = np.random.default_rng(s_sample).poisson(events * np.asarray(_read_column(f["clicks.csv"])))
        return [] if counts == want.tolist() else [f"counts: got {counts}, want {want.tolist()}"]

    def check_witness(witness):
        def check(est):
            errors = []
            ref().check_click_bootstrap(errors, witness, est, _read_column(f["counts.csv"]), witness, replicas, s_witness)
            return errors
        return check

    def check_inversion(out):
        r = ref()
        import numpy as np

        errors = []
        counts = np.asarray(_read_column(f["counts.csv"]))
        L = r.click_law(8, 1.0, dark, inv_n_max)
        want = r.simplex_ls_rows(L, counts / counts.sum())[0]
        # Inverted probabilities carry cond(L) times the click law's round-off.
        r.expect_close(errors, "probs", out["probs"], want, atol=1e-12)
        r.expect_close(errors, "condition_number", out["condition_number"], np.linalg.cond(L), atol=0.0)
        r.expect_close(errors, "residual_norm", out["residual_norm"], np.linalg.norm(L @ want - counts / counts.sum()), atol=1e-12)
        if out["negative_mass"] != 0.0:
            errors.append(f"negative_mass: got {out['negative_mass']}, want 0")
        return errors

    def check_matrix(L):
        r = ref()
        errors = []
        r.expect_close(errors, "matrix", L, r.click_law(40, m_eta, m_dark, 80), r.PROB_ATOL)
        return errors

    def check_catalysis(out):
        errors = []
        for i, point in enumerate(out["points"]):
            errors += [f"point {i}: {e}" for e in ref().check_catalysis_point(point, i, cat_cfg)]
        return errors

    def op(name, argv, view, check):
        return Op(name, run=lambda: run_cli([*argv, "-o", str(f[name])]), view=lambda _: view(f[name]), check=check)

    tmsv = ["tmsv", "--events", "1e7", "--seed", str(s_tmsv)]
    ops = [
        op("clicks.csv", ["forward", "--source", f"{kind}:{mu!r}", "--n-max", str(n_cut), "--detector", det],
           _read_column, check_clicks),
        op("counts.csv", ["sample", "--input", str(f["clicks.csv"]), "--events", repr(events), "--seed", str(s_sample)],
           lambda p: [int(x) for x in _read_column(p)], check_counts),
        op("qb.json", ["witness", "--input", str(f["counts.csv"]), "--witness", "Q_B", "--replicas", str(replicas),
                       "--seed", str(s_witness)], _read_json, check_witness("Q_B")),
        op("qf.json", ["witness", "--input", str(f["counts.csv"]), "--witness", "Q_F", "--replicas", str(replicas),
                       "--seed", str(s_witness)], _read_json, check_witness("Q_F")),
        op("inv.json", ["invert", "--input", str(f["counts.csv"]), "--detector", f"uniform:8,1.0,{dark!r}",
                        "--n-max", str(inv_n_max)], _read_json, check_inversion),
        op("matrix.csv", ["matrix", "--detector", f"uniform:40,{m_eta!r},{m_dark!r}", "--n-max", "80"],
           lambda p: [[float(x) for x in row[1:]] for row in _read_csv(p)[1:]], check_matrix),
        op("tmsv.json", [*tmsv, "--format", "json"], lambda p: _read_json(p)["rows"],
           lambda rows: ref().check_tmsv_rows(rows, tmsv_cfg)),
        op("tmsv.csv", [*tmsv, "--format", "csv"], _tmsv_csv_rows,
           lambda rows: ref().check_tmsv_rows(rows, tmsv_cfg)),
        op("catalysis.json", ["catalysis", "--config", str(f["catalysis.cfg"])], _read_json, check_catalysis),
    ]
    return Workload(ops, perturb=lambda c: [c[0] * (1.0 + PERTURBATION), *c[1:]])
