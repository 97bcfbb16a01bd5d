"""Command line interface.

Subcommands mirror the library layers: ``matrix`` and ``forward`` expose
the detector model, ``witness`` and ``invert`` the analysis side,
``sample`` draws noisy count records, and ``catalysis`` / ``tmsv`` run the
full simulated experiments.  All randomness flows from ``--seed``; rerunning
any command with the same arguments writes byte-identical output.

Each subcommand maps its parsed arguments to its output text, and
``main`` writes that text to ``--output`` (stdout by default) or, on a
domain error, exits with status 1 and a single ``error: <code>: <message>``
line on stderr; argparse usage errors keep their usual status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

# Only the modules every subcommand needs load at start-up; each command
# body imports the rest, so e.g. ``witness Q_B`` never loads the inversion.
from . import io as cio
from .detector import (
    ClickDistribution,
    CountRecord,
    click_matrix,
    forward_clicks,
    sample_counts,
)
from .errors import ClickStatsError, InvalidArgumentError


def _write_output(args, text: str) -> None:
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
        return
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write the output: {exc}") from None


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read the input: {exc}") from None


def _cmd_matrix(args) -> str:
    det = cio.parse_detector_spec(args.detector)
    L = click_matrix(det, args.n_max)
    if args.format == "json":
        return cio.to_json(cio.envelope("click_matrix", detector=det, n_max=args.n_max, matrix=L))
    return cio.matrix_to_csv(L)


def _cmd_forward(args) -> str:
    det = cio.parse_detector_spec(args.detector)
    if args.source is not None:
        p = cio.parse_source_spec(args.source, n_max=args.n_max)
    else:
        p = cio.photon_distribution_from_csv(_read_input(args.input))
    return cio.click_distribution_to_csv(forward_clicks(p, det))


def _cmd_witness(args) -> str:
    from .witnesses import one_row, poisson_bootstrap, witness_rows

    data = cio.sniff_click_csv(_read_input(args.input))
    det = None if args.detector is None else cio.parse_detector_spec(args.detector)
    rows = witness_rows(args.witness, data.n_bins, det, args.n_max)
    if isinstance(data, CountRecord):
        body = cio.to_plain(poisson_bootstrap(data, rows, args.replicas, args.seed))
    else:
        body = {"value": one_row(rows, data.probs, rows.why)}
    return cio.to_json(cio.envelope("witness", witness=args.witness, **body))


def _cmd_invert(args) -> str:
    from .inversion import invert_clicks

    data = cio.sniff_click_csv(_read_input(args.input))
    if isinstance(data, CountRecord):
        if data.total_events <= 0:
            raise InvalidArgumentError("count record is empty")
        data = ClickDistribution(np.asarray(data.counts, dtype=float) / data.total_events)
    det = cio.parse_detector_spec(args.detector)
    result = invert_clicks(data, det, args.n_max, method=args.method)
    if args.format == "csv":
        return cio.photon_distribution_to_csv(result.distribution())
    return cio.to_json(cio.envelope("inversion", **cio.to_plain(result)))


def _cmd_sample(args) -> str:
    if args.source is not None:
        if args.detector is None:
            raise InvalidArgumentError("--source needs --detector to produce clicks")
        det = cio.parse_detector_spec(args.detector)
        p = cio.parse_source_spec(args.source, n_max=args.n_max)
        c = forward_clicks(p, det)
    else:
        c = cio.click_distribution_from_csv(_read_input(args.input))
    return cio.count_record_to_csv(sample_counts(c, args.events, args.seed))


def _cmd_experiment(args) -> str:
    # ``clickstats.io`` and ``clickstats.experiments`` names are looked up
    # at call time, so wrappers installed on them are seen.
    from . import experiments

    stem = args.command
    runner, config_class, _ = _EXPERIMENTS[stem]
    raw = cio.parse_config(_read_input(args.config)) if args.config is not None else {}
    config = cio.config_from_dict(raw, getattr(experiments, config_class), stem)
    overrides = {"seed": args.seed, "n_replicas": args.replicas, "expected_events": args.events}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        config = dataclasses.replace(config, **overrides)
    result = getattr(experiments, runner)(config)
    if args.format == "csv":
        return getattr(cio, f"{stem}_result_to_csv")(result)
    return cio.to_json(getattr(cio, f"{stem}_result_to_dict")(result))


#: Experiment subcommand, which is also the stem of its ``clickstats.io``
#: writers and its config label -> (runner and config class in
#: ``clickstats.experiments``, help).
_EXPERIMENTS = {
    "catalysis": ("run_catalysis_sweep", "CatalysisSweepConfig", "reflectivity sweep of single-photon catalysis"),
    "tmsv": ("run_tmsv", "TmsvConfig", "two-mode squeezed vacuum witness table"),
}


def _add_output_options(sub, default_format=None):
    sub.add_argument("--output", "-o", default=None, help="output file (default: stdout)")
    if default_format is not None:
        sub.add_argument(
            "--format",
            choices=("csv", "json"),
            default=default_format,
            help=f"output format (default: {default_format})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickstats",
        description="Click statistics of multiplexed single-photon detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print the conditional click law P(clicks | photons)")
    p.add_argument("--detector", required=True, help="ideal:N or uniform:N,ETA[,DARK]")
    p.add_argument("--n-max", type=int, required=True, help="largest photon number column")
    _add_output_options(p, default_format="csv")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("forward", help="map a photon distribution to click statistics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--source", help="coherent:MU, thermal:MU or fock:N")
    group.add_argument("--input", help="photon distribution CSV (n,probability)")
    p.add_argument("--n-max", type=int, default=None, help="cutoff for --source")
    p.add_argument("--detector", required=True)
    _add_output_options(p)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("witness", help="score a click CSV with a witness")
    p.add_argument("--input", required=True, help="clicks CSV (probabilities or counts)")
    p.add_argument("--witness", choices=("Q_B", "Q_F", "Q_M"), default="Q_B")
    p.add_argument("--detector", default=None, help="required for Q_M (inversion)")
    p.add_argument("--n-max", type=int, default=None, help="inversion support for Q_M")
    p.add_argument("--replicas", type=int, default=10_000, help="bootstrap size for counts input")
    p.add_argument("--seed", type=int, default=0)
    _add_output_options(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("invert", help="recover photon statistics from clicks")
    p.add_argument("--input", required=True, help="clicks CSV (probabilities or counts)")
    p.add_argument("--detector", required=True)
    p.add_argument("--n-max", type=int, required=True, help="largest photon number to solve for")
    p.add_argument("--method", choices=("constrained", "pseudo_inverse"), default="constrained")
    _add_output_options(p, default_format="json")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("sample", help="draw a Poissonian count record")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--source", help="coherent:MU, thermal:MU or fock:N (needs --detector)")
    group.add_argument("--input", help="click distribution CSV")
    p.add_argument("--detector", default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--events", type=float, required=True, help="expected total event count")
    p.add_argument("--seed", type=int, default=0)
    _add_output_options(p)
    p.set_defaults(func=_cmd_sample)

    for command, (_, _, help_text) in _EXPERIMENTS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--replicas", type=int, default=None)
        p.add_argument("--events", type=float, default=None)
        _add_output_options(p, default_format="json")
        p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_output(args, args.func(args))
    except ClickStatsError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
