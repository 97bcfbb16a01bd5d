import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clickstats
from clickstats import (
    CountRecord,
    DetectorModel,
    click_matrix,
    coherent_pn,
    fock_pn,
    forward_clicks,
    mc_q_mandel_from_clicks,
)
from clickstats import cli
from clickstats.cli import build_parser, main
from clickstats.inversion import InversionResult
from clickstats.io import (
    click_distribution_to_csv,
    count_record_to_csv,
    photon_distribution_to_csv,
    to_json,
    to_plain,
)
from clickstats.detector import sample_counts


def run_ok(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def run_fail(capsys, argv, code):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}:")
    return err


def test_matrix_csv(capsys):
    out = run_ok(capsys, ["matrix", "--detector", "ideal:2", "--n-max", "2"])
    lines = out.strip().split("\n")
    assert lines[0] == "clicks,n0,n1,n2"
    grid = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
    np.testing.assert_allclose(grid.sum(axis=0), 1.0, atol=1e-15)
    assert grid[1, 2] == pytest.approx(0.5)


def test_matrix_with_an_unknown_detector_offers_no_pnr(capsys):
    err = run_fail(capsys, ["matrix", "--detector", "foo:1", "--n-max", "2"], "invalid-argument")
    assert "unknown detector spec" in err and "pnr" not in err


def test_matrix_json(capsys):
    out = run_ok(
        capsys,
        ["matrix", "--detector", "uniform:4,0.5", "--n-max", "3", "--format", "json"],
    )
    payload = json.loads(out)
    assert payload["kind"] == "click_matrix"
    assert payload["detector"]["efficiency"] == 0.5
    expected = click_matrix(DetectorModel(4, efficiency=0.5), 3)
    np.testing.assert_allclose(np.array(payload["matrix"]), expected, atol=0)


def test_forward_source_to_file(tmp_path, capsys):
    out_path = tmp_path / "clicks.csv"
    run_ok(
        capsys,
        [
            "forward",
            "--source",
            "coherent:1.0",
            "--n-max",
            "40",
            "--detector",
            "ideal:8",
            "-o",
            str(out_path),
        ],
    )
    expected = forward_clicks(coherent_pn(1.0, n_max=40), DetectorModel.ideal(8))
    assert out_path.read_text() == click_distribution_to_csv(expected)


def test_forward_from_csv_input(tmp_path, capsys):
    p = coherent_pn(0.5, n_max=30)
    in_path = tmp_path / "photons.csv"
    in_path.write_text(photon_distribution_to_csv(p))
    out = run_ok(capsys, ["forward", "--input", str(in_path), "--detector", "ideal:4"])
    expected = forward_clicks(p, DetectorModel.ideal(4))
    assert out == click_distribution_to_csv(expected)


def test_witness_on_probabilities(tmp_path, capsys):
    c = forward_clicks(coherent_pn(1.0, n_max=40), DetectorModel.ideal(8))
    path = tmp_path / "clicks.csv"
    path.write_text(click_distribution_to_csv(c))
    payload = json.loads(run_ok(capsys, ["witness", "--input", str(path)]))
    assert payload["witness"] == "Q_B"
    assert abs(payload["value"]) < 1e-10
    payload = json.loads(
        run_ok(capsys, ["witness", "--input", str(path), "--witness", "Q_F"])
    )
    assert payload["value"] == pytest.approx(-(1.0 - np.exp(-1.0 / 8.0)), abs=1e-10)


def test_witness_on_counts_is_deterministic(tmp_path, capsys):
    c = forward_clicks(coherent_pn(1.0, n_max=40), DetectorModel.ideal(8))
    rec = sample_counts(c, 20_000, seed=1)
    path = tmp_path / "counts.csv"
    path.write_text(count_record_to_csv(rec))
    argv = ["witness", "--input", str(path), "--replicas", "500", "--seed", "4"]
    first = run_ok(capsys, argv)
    second = run_ok(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert set(payload) >= {"value", "std_error", "n_replicas", "dropped_fraction"}
    assert payload["std_error"] > 0


@pytest.mark.parametrize("extra", [[], ["--witness", "Q_M", "--detector", "ideal:2"]])
def test_witness_on_counts_too_large_to_resample(tmp_path, capsys, extra):
    path = tmp_path / "counts.csv"
    path.write_text(count_record_to_csv(CountRecord((10**19, 5, 3))))
    err = run_fail(capsys, ["witness", "--input", str(path), "--replicas", "10", *extra], "invalid-argument")
    assert "too large" in err


#: Replica counts whose scores do not fit: 10^15 asks for petabytes and fails
#: at once; numpy refuses 2^62 and more with a ValueError, not a MemoryError.
_TOO_MANY_REPLICAS = (10**15, 2**62, 2**63, 10**30)


@pytest.mark.parametrize("extra", [[], ["--witness", "Q_M", "--detector", "ideal:2"]])
def test_witness_with_too_many_replicas_to_allocate(tmp_path, capsys, extra):
    path = tmp_path / "counts.csv"
    path.write_text(count_record_to_csv(CountRecord((50, 5, 0))))
    for replicas in _TOO_MANY_REPLICAS:
        argv = ["witness", "--input", str(path), "--replicas", str(replicas), *extra]
        err = run_fail(capsys, argv, "invalid-argument")
        assert f"the scores of {replicas} replicas do not fit in memory" in err


def test_catalysis_with_too_many_replicas_to_allocate(tmp_path, capsys):
    config = tmp_path / "catalysis.cfg"
    for replicas in _TOO_MANY_REPLICAS:
        config.write_text(f"reflectivities = 0.5\nn_replicas = {replicas}\n")
        err = run_fail(capsys, ["catalysis", "--config", str(config)], "invalid-argument")
        assert f"the scores of {replicas} replicas do not fit in memory" in err


@pytest.mark.parametrize(
    "text", ["clicks,probability\n0,nan\n1,nan\n", "clicks,count\n0,nan\n1,nan\n"]
)
def test_witness_on_nan_csv_fails_cleanly(tmp_path, capsys, text):
    path = tmp_path / "clicks.csv"
    path.write_text(text)
    assert main(["witness", "--input", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: invalid-argument:") and out.err.count("\n") == 1


def run_python(code: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_does_not_load_scipy():
    code = (
        "import clickstats.cli; import sys; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert run_python(code).strip() == "False"


def test_every_export_resolves():
    assert set(clickstats.__all__) <= set(dir(clickstats))
    for name in clickstats.__all__:
        value = getattr(clickstats, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        # Not cached in the package: a wrapper installed on the submodule's
        # attribute must be seen through ``clickstats``, and its removal too.
        assert name not in vars(clickstats), name
    code = "from clickstats import *; import clickstats; print(len(clickstats.__all__))"
    assert run_python(code).strip() == str(len(clickstats.__all__))


def test_each_subcommand_loads_only_the_modules_it_uses(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(count_record_to_csv(CountRecord((50, 30, 5))))
    probe = (
        "import json, sys; print(json.dumps(sorted("
        "m for m in sys.modules if m in ('numpy', 'numpy.random') or m.startswith('clickstats'))))"
    )

    def loaded(code):
        return set(json.loads(run_python(f"{code}\n{probe}").splitlines()[-1]))

    assert loaded("import clickstats") == {"clickstats"}
    unused = {f"clickstats.{m}" for m in ("experiments", "fockspace", "inversion")}
    assert not loaded("import clickstats.cli") & (unused | {"clickstats.witnesses", "numpy.random"})
    for argv in (
        ["matrix", "--detector", "uniform:4,0.5", "--n-max", "6"],
        ["forward", "--source", "coherent:1", "--n-max", "6", "--detector", "ideal:4"],
        ["witness", "--input", str(counts), "--replicas", "50"],
        ["witness", "--input", str(counts), "--replicas", "50", "--witness", "Q_F"],
        # A detector given to a click witness is checked, not inverted through.
        ["witness", "--input", str(counts), "--replicas", "50", "--witness", "Q_B", "--detector", "uniform:4,0.5"],
    ):
        assert not loaded(f"from clickstats.cli import main\nmain({argv!r})") & unused, argv
    assert "clickstats.inversion" not in loaded("from clickstats.cli import main\nmain(['tmsv'])")
    argv = ["witness", "--input", str(counts), "--replicas", "50", "--witness", "Q_M", "--detector", "ideal:2"]
    modules = loaded(f"from clickstats.cli import main\nmain({argv!r})")
    assert "clickstats.inversion" in modules
    assert not modules & (unused - {"clickstats.inversion"})


def test_every_traced_function_resolves():
    # The benchmark's tracer wraps these by name; a refactor that drops one
    # must fail here rather than in a traced benchmark pass.
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, fn in tracing.TARGETS.values():
        assert callable(getattr(importlib.import_module(module), fn, None)), (module, fn)


def test_every_study_resolves_its_runner_config_and_writers():
    # ``_cmd_experiment`` looks these up by name; a study added without one
    # must fail here rather than at its first run.
    from clickstats import experiments
    from clickstats import io as cio

    for stem, (runner, config_class, _) in cli._EXPERIMENTS.items():
        assert callable(getattr(experiments, runner, None)), (stem, runner)
        cls = getattr(experiments, config_class, None)
        assert dataclasses.is_dataclass(cls), (stem, config_class)
        assert cio.config_from_dict({}, cls, stem) == cls()
        for writer in (f"{stem}_result_to_dict", f"{stem}_result_to_csv"):
            assert callable(getattr(cio, writer, None)), (stem, writer)


def test_witness_q_mandel_through_inversion(tmp_path, capsys):
    det_spec = "uniform:8,0.6"
    c = forward_clicks(fock_pn(1), DetectorModel(8, efficiency=0.6))
    path = tmp_path / "clicks.csv"
    path.write_text(click_distribution_to_csv(c))
    payload = json.loads(
        run_ok(
            capsys,
            ["witness", "--input", str(path), "--witness", "Q_M", "--detector", det_spec],
        )
    )
    assert payload["value"] == pytest.approx(-0.6, abs=1e-6)


def test_witness_q_mandel_on_counts_is_the_library_bootstrap(tmp_path, capsys):
    det = DetectorModel(8, efficiency=0.6)
    record = sample_counts(forward_clicks(fock_pn(1), det), 20_000, seed=2)
    path = tmp_path / "counts.csv"
    path.write_text(count_record_to_csv(record))
    argv = ["witness", "--input", str(path), "--witness", "Q_M", "--detector", "uniform:8,0.6"]
    out = run_ok(capsys, [*argv, "--replicas", "300", "--seed", "6"])
    est = mc_q_mandel_from_clicks(record, det, 8, n_replicas=300, seed=6)
    assert out == to_json({"schema_version": 1, "kind": "witness", "witness": "Q_M", **to_plain(est)})


def test_witness_q_mandel_requires_detector(tmp_path, capsys):
    c = forward_clicks(fock_pn(1), DetectorModel.ideal(4))
    path = tmp_path / "clicks.csv"
    path.write_text(click_distribution_to_csv(c))
    run_fail(
        capsys,
        ["witness", "--input", str(path), "--witness", "Q_M"],
        "invalid-argument",
    )


@pytest.mark.parametrize("bad", [["--detector", "ideal:x"], ["--detector", "pnr"], ["--n-max", "-1"]])
@pytest.mark.parametrize("witness", ["Q_B", "Q_F", "Q_M"])
def test_witness_rejects_a_bad_detector_or_n_max_for_every_witness(tmp_path, capsys, witness, bad):
    path = tmp_path / "counts.csv"
    path.write_text(count_record_to_csv(CountRecord((50, 30, 5))))
    argv = ["witness", "--input", str(path), "--replicas", "20", "--witness", witness, *bad]
    run_fail(capsys, argv, "invalid-argument")


def test_witness_choices_are_the_lookups_names():
    from clickstats.witnesses import WITNESSES

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    witness = next(a for a in commands.choices["witness"]._actions if a.dest == "witness")
    assert tuple(witness.choices) == WITNESSES


def test_invert_json_and_csv(tmp_path, capsys):
    p = fock_pn(1, n_max=4)
    c = forward_clicks(p, DetectorModel.ideal(4))
    path = tmp_path / "clicks.csv"
    path.write_text(click_distribution_to_csv(c))
    base = ["invert", "--input", str(path), "--detector", "ideal:4", "--n-max", "4"]
    payload = json.loads(run_ok(capsys, base))
    names = {f.name for f in dataclasses.fields(InversionResult)}
    assert set(payload) == {"schema_version", "kind"} | names
    assert payload["kind"] == "inversion"
    assert payload["method"] == "constrained"
    np.testing.assert_allclose(payload["probs"], p.probs, atol=1e-9)
    assert payload["negative_mass"] == 0.0

    out = run_ok(capsys, base + ["--format", "csv"])
    assert out.startswith("n,probability\n")
    values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    np.testing.assert_allclose(values, p.probs, atol=1e-9)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["invert", "--detector", "ideal:2", "--n-max", "2"], "invalid-argument: count record is empty"),
        (["witness", "--replicas", "20"], "undefined-witness: count record is empty"),
    ],
    ids=["invert", "witness"],
)
def test_an_all_zero_count_record_is_refused(tmp_path, capsys, argv, message):
    path = tmp_path / "counts.csv"
    path.write_text(count_record_to_csv(CountRecord((0, 0, 0))))
    assert main([*argv, "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["witness", "--replicas", "50", "--seed", "1"], ["invert", "--detector", "ideal:2", "--n-max", "2"]],
    ids=["witness", "invert"],
)
def test_a_quoted_count_csv_header_reads_as_the_plain_one(tmp_path, capsys, argv):
    plain = count_record_to_csv(CountRecord((5, 9, 3)))
    path = tmp_path / "counts.csv"
    outputs = []
    for text in (
        plain,
        plain.replace("clicks,count", '"clicks","count"', 1),
        plain.replace(",", ", ").replace("clicks, count", '"clicks", "count"', 1),
    ):
        path.write_text(text)
        outputs.append(run_ok(capsys, [*argv, "--input", str(path)]))
    assert outputs[1:] == outputs[:1] * 2


#: Subcommand -> (a successful argv, "COUNTS" standing for a count CSV;
#: the flags that turn it into a domain error).
_ONE_WRITER_RUNS = {
    "matrix": (["--detector", "ideal:2", "--n-max", "2"], ["--detector", "ideal:x"]),
    "forward": (["--source", "coherent:0.5", "--n-max", "6", "--detector", "ideal:2"], ["--detector", "ideal:x"]),
    "witness": (["--input", "COUNTS", "--replicas", "20"], ["--detector", "ideal:x"]),
    "invert": (["--input", "COUNTS", "--detector", "ideal:2", "--n-max", "2"], ["--detector", "ideal:x"]),
    "sample": (["--source", "coherent:0.5", "--detector", "ideal:2", "--events", "100"], ["--detector", "ideal:x"]),
    "tmsv": (["--replicas", "20"], ["--seed", "-1"]),
    "catalysis": (["--replicas", "20"], ["--seed", "-1"]),
}


@pytest.mark.parametrize("command", list(_ONE_WRITER_RUNS))
def test_main_writes_each_output_once_to_stdout_or_the_output_file(tmp_path, capsys, monkeypatch, command):
    ok, bad = _ONE_WRITER_RUNS[command]
    counts = tmp_path / "counts.csv"
    counts.write_text(count_record_to_csv(CountRecord((50, 30, 20))))
    argv = [command, *(str(counts) if a == "COUNTS" else a for a in ok)]
    write, texts = cli._write_output, []

    def counting_write(args, text):
        texts.append(text)
        write(args, text)

    monkeypatch.setattr(cli, "_write_output", counting_write)
    printed = run_ok(capsys, argv)
    assert printed and texts == [printed]
    path = tmp_path / "out.txt"
    assert run_ok(capsys, [*argv, "-o", str(path)]) == ""
    assert path.read_bytes() == printed.encode() and len(texts) == 2
    assert main([*argv, *bad]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and len(texts) == 2


def test_invert_reports_ill_conditioning(tmp_path, capsys):
    c = forward_clicks(fock_pn(1), DetectorModel.ideal(4))
    path = tmp_path / "clicks.csv"
    path.write_text(click_distribution_to_csv(c))
    run_fail(
        capsys,
        ["invert", "--input", str(path), "--detector", "ideal:4", "--n-max", "12"],
        "ill-conditioned-inversion",
    )


def test_sample_is_byte_deterministic(tmp_path, capsys):
    argv = [
        "sample",
        "--source",
        "thermal:0.4",
        "--detector",
        "ideal:4",
        "--events",
        "1000",
        "--seed",
        "12",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_ok(capsys, argv + ["-o", str(a)])
    run_ok(capsys, argv + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()
    counts = [int(line.split(",")[1]) for line in a.read_text().strip().split("\n")[1:]]
    assert sum(counts) > 0
    different = tmp_path / "c.csv"
    run_ok(capsys, argv[:-1] + ["13", "-o", str(different)])
    assert a.read_bytes() != different.read_bytes()


def test_sample_source_requires_detector(capsys):
    run_fail(
        capsys,
        ["sample", "--source", "thermal:0.4", "--events", "100"],
        "invalid-argument",
    )


@pytest.mark.parametrize("events", ["nan", "inf", "1e30"])
def test_sample_rejects_non_finite_or_huge_events(capsys, events):
    run_fail(
        capsys,
        ["sample", "--source", "coherent:1", "--detector", "ideal:4", "--events", events],
        "invalid-argument",
    )


def test_sample_from_click_csv(tmp_path, capsys):
    c = forward_clicks(coherent_pn(0.5, n_max=30), DetectorModel.ideal(4))
    path = tmp_path / "clicks.csv"
    path.write_text(click_distribution_to_csv(c))
    out = run_ok(capsys, ["sample", "--input", str(path), "--events", "500", "--seed", "2"])
    assert out.startswith("clicks,count\n")
    assert len(out.strip().split("\n")) == 1 + 5


CATALYSIS_CONFIG = """
alpha = 1.0
reflectivities = 0.5, 0.9
herald_k = 1
n_bins = 4
signal_efficiency = 0.4
expected_events = 1000
n_replicas = 60
seed = 7
cutoff = 25
"""

TMSV_CONFIG = """
mean_photons = 0.2
n_bins = 2
efficiency_1 = 0.4
efficiency_2 = 0.4
herald_ks = 0, 1
expected_events = 2000
n_replicas = 60
seed = 7
cutoff = 30
"""


def test_catalysis_command_json_and_csv(tmp_path, capsys):
    config = tmp_path / "catalysis.cfg"
    config.write_text(CATALYSIS_CONFIG)
    first = run_ok(capsys, ["catalysis", "--config", str(config)])
    second = run_ok(capsys, ["catalysis", "--config", str(config)])
    assert first == second
    payload = json.loads(first)
    assert payload["kind"] == "catalysis_sweep"
    assert len(payload["points"]) == 2
    assert payload["config"]["n_replicas"] == 60

    reseeded = run_ok(capsys, ["catalysis", "--config", str(config), "--seed", "8"])
    assert reseeded != first
    assert json.loads(reseeded)["config"]["seed"] == 8

    csv_out = run_ok(capsys, ["catalysis", "--config", str(config), "--format", "csv"])
    lines = csv_out.strip().split("\n")
    assert lines[0].startswith("reflectivity,degenerate,")
    assert len(lines) == 1 + 2


def test_tmsv_command_json_and_csv(tmp_path, capsys):
    config = tmp_path / "tmsv.cfg"
    config.write_text(TMSV_CONFIG)
    first = run_ok(capsys, ["tmsv", "--config", str(config)])
    assert first == run_ok(capsys, ["tmsv", "--config", str(config)])
    payload = json.loads(first)
    assert payload["kind"] == "tmsv"
    assert len(payload["rows"]) == 2 * 3
    for row in payload["rows"]:
        assert row["record"] is not None
        assert row["q_b"]["n_replicas"] >= 2

    overridden = json.loads(
        run_ok(capsys, ["tmsv", "--config", str(config), "--replicas", "70"])
    )
    assert overridden["config"]["n_replicas"] == 70

    csv_out = run_ok(capsys, ["tmsv", "--config", str(config), "--format", "csv"])
    assert csv_out.startswith("arm,herald_k,probability,")


def test_tmsv_defaults_without_config(capsys):
    # No config file at all: the calibrated defaults run in exact mode.
    out = run_ok(capsys, ["tmsv"])
    payload = json.loads(out)
    assert payload["config"]["mean_photons"] == 0.15
    assert all(row["record"] is None for row in payload["rows"])


@pytest.mark.parametrize("command", ["catalysis", "tmsv", "sample", "witness"])
def test_negative_seed_fails_cleanly(tmp_path, capsys, command):
    path = tmp_path / "counts.csv"
    path.write_text(count_record_to_csv(CountRecord((40, 30, 20))))
    inputs = {
        "catalysis": ["--config", str(tmp_path / "c.cfg")],
        "tmsv": ["--config", str(tmp_path / "t.cfg")],
        "sample": ["--source", "coherent:1", "--detector", "ideal:4", "--events", "100"],
        "witness": ["--input", str(path), "--replicas", "10"],
    }[command]
    (tmp_path / "c.cfg").write_text(CATALYSIS_CONFIG)
    (tmp_path / "t.cfg").write_text(TMSV_CONFIG)
    assert "seed" in run_fail(capsys, [command, *inputs, "--seed", "-1"], "invalid-argument")


@pytest.mark.parametrize(
    "command, line",
    [
        ("catalysis", "seed = -1"),
        ("catalysis", "reflectivities = ,"),
        ("tmsv", "seed = -1"),
        ("tmsv", "herald_ks = ,"),
    ],
)
def test_bad_config_values_fail_cleanly(tmp_path, capsys, command, line):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    run_fail(capsys, [command, "--config", str(config)], "invalid-argument")


def test_catalysis_with_every_point_degenerate_fails_cleanly(tmp_path, capsys):
    config = tmp_path / "h99.cfg"
    config.write_text("herald_k = 99\n")  # an ideal herald never sees 99 photons
    run_fail(capsys, ["catalysis", "--config", str(config)], "degenerate-conditioning")


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("volume = 11\n")
    run_fail(capsys, ["tmsv", "--config", str(config)], "invalid-argument")


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["no-such-command"],
        ["witness"],  # missing required --input
        # forward writes a click CSV only; a --format it would ignore is refused.
        ["forward", "--source", "coherent:1", "--detector", "ideal:2", "--format", "json"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
    capsys.readouterr()


@pytest.mark.parametrize("detector", ["ideal:1000000000000", "uniform:1000000000000,0.5,0.01"])
def test_matrix_too_large_to_allocate(capsys, detector):
    # 10^12 bins ask for terabytes: refused before anything is allocated.
    err = run_fail(capsys, ["matrix", "--detector", detector, "--n-max", "3"], "invalid-argument")
    assert "a 1000000000001 x 4 click law needs ~" in err and "the limits are 8e+07 and 1e+10" in err


def test_matrix_beyond_the_cost_limits_fails_with_the_cost(capsys):
    # 10^8 photon steps and 7.2 GB: refused at once instead of running for minutes.
    err = run_fail(capsys, ["matrix", "--detector", "uniform:8,0.5", "--n-max", "100000000"], "invalid-argument")
    assert err == (
        "error: invalid-argument: a 9 x 100000001 click law needs ~7.2e+09 bytes and "
        "~1e+12 multiply-adds; the limits are 8e+07 and 1e+10\n"
    )


def test_unreadable_input_and_unwritable_output_fail_cleanly(tmp_path, capsys):
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"clicks,count\n0,\xff\n")
    for path in (tmp_path / "missing.csv", binary, tmp_path):
        err = run_fail(capsys, ["witness", "--input", str(path)], "invalid-argument")
        assert "cannot read the input" in err
    for path in (tmp_path, tmp_path / "no-such-dir" / "out.csv"):
        argv = ["matrix", "--detector", "ideal:2", "--n-max", "2", "-o", str(path)]
        assert "cannot write the output" in run_fail(capsys, argv, "invalid-argument")


#: Subcommand -> (required flags, each a choice of alternatives; optional flags).
_FUZZ_FLAGS = {
    "matrix": ((("--detector",), ("--n-max",)), ("--format", "--output")),
    "forward": ((("--source", "--input"), ("--detector",)), ("--n-max", "--output")),
    "witness": ((("--input",),), ("--witness", "--detector", "--n-max", "--replicas", "--seed", "--output")),
    "invert": ((("--input",), ("--detector",), ("--n-max",)), ("--method", "--format", "--output")),
    "sample": ((("--source", "--input"), ("--events",)), ("--detector", "--n-max", "--seed", "--output")),
    "catalysis": ((("--config",),), ("--seed", "--replicas", "--events", "--format", "--output")),
    "tmsv": ((("--config",),), ("--seed", "--replicas", "--events", "--format", "--output")),
}

#: Flag -> the tokens drawn for its value: valid ones, ones out of range and
#: junk.  Sizes stay small, so no example allocates more than a few MB.
_FUZZ_TOKENS = {
    "--detector": ("ideal:3", "uniform:4,0.5", "uniform:2,0.6,0.05", "pnr", "ideal:0", "uniform:3",
                   "uniform:3,nan", "uniform:3,1.5", "ideal:x", ""),
    "--source": ("coherent:1", "thermal:0.5", "fock:2", "fock:-1", "coherent:nan", "coherent:inf",
                 "thermal:-1", "laser:1", "fock"),
    "--input": ("photons.csv", "clicks.csv", "counts.csv", "zeros.csv", "junk.csv", "missing.csv", "."),
    "--config": ("catalysis.cfg", "tmsv.cfg", "junk.csv", "missing.cfg"),
    "--n-max": ("0", "1", "3", "8", "-1", "2.5", "x"),
    "--replicas": ("2", "20", "1", "0", "-3", "x"),
    "--events": ("0", "50", "1e3", "-5", "nan", "inf", "x"),
    "--seed": ("0", "7", "-1", "x"),
    "--witness": ("Q_B", "Q_F", "Q_M", "Q_X"),
    "--method": ("constrained", "pseudo_inverse", "svd"),
    "--format": ("csv", "json", "xml"),
    "--output": ("out.txt", "-", ".", "no-such-dir/out.txt"),
    "--bogus": ("1",),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    p = coherent_pn(1.0, n_max=3)
    (root / "photons.csv").write_text(photon_distribution_to_csv(p))
    (root / "clicks.csv").write_text(click_distribution_to_csv(forward_clicks(p, DetectorModel.ideal(3))))
    (root / "counts.csv").write_text(count_record_to_csv(CountRecord((40, 30, 20, 5))))
    (root / "zeros.csv").write_text(count_record_to_csv(CountRecord((0, 0, 0, 0))))
    (root / "junk.csv").write_text("clicks,count\n0,1\n2,x\n")
    (root / "catalysis.cfg").write_text(CATALYSIS_CONFIG)
    (root / "tmsv.cfg").write_text(TMSV_CONFIG)
    return root


@st.composite
def fuzz_argvs(draw):
    """An argv that argparse mostly accepts: every required flag, some optional
    ones and, now and then, one more flag, which the subcommand may not take."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    required, optional = _FUZZ_FLAGS[command]
    flags = [draw(st.sampled_from(group)) for group in required]
    flags += [flag for flag in optional if draw(st.booleans())]
    if draw(st.integers(0, 7)) == 0:
        flags.append(draw(st.sampled_from(sorted(_FUZZ_TOKENS))))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        # Half the experiments get their own small config; their defaults run for ~0.5 s.
        tokens = (f"{command}.cfg",) if flag == "--config" and draw(st.booleans()) else _FUZZ_TOKENS[flag]
        argv += [flag, draw(st.sampled_from(tokens))]
    return argv


def assert_ends_cleanly(directory, argv):
    """Run ``main(argv)`` in ``directory``: it returns 0, or 1 with one
    ``error: <code>: ...`` line, or argparse exits with status 2."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        assert exc.code == 2, argv
        return
    finally:
        os.chdir(cwd)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and re.match(r"error: [a-z-]+: ", lines[0]), (argv, lines)
    else:
        assert code == 0, argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=fuzz_argvs())
def test_fuzzed_argv_never_ends_in_a_traceback(fuzz_dir, argv):
    assert_ends_cleanly(fuzz_dir, argv)


#: Numbers at and past the edges of the numeric flags: argparse refuses some
#: (``inf`` as an int), the library the rest, and none may end in a traceback.
_EXTREME_NUMBERS = ("inf", "nan", "-1", "0", "1", "2", "1e300", str(10**30))

#: The start of a command line, with its inputs in ``fuzz_dir`` -> its numeric flags.
_EXTREME_COMMANDS = {
    ("sample", "--source", "coherent:1", "--detector", "ideal:3"): ("--events", "--seed", "--n-max"),
    ("sample", "--input", "clicks.csv"): ("--events", "--seed", "--n-max"),
    ("witness", "--input", "counts.csv", "--witness", "Q_B"): ("--replicas", "--seed", "--n-max"),
    ("witness", "--input", "counts.csv", "--witness", "Q_F"): ("--replicas", "--seed", "--n-max"),
    ("witness", "--input", "clicks.csv", "--witness", "Q_F"): ("--replicas", "--seed", "--n-max"),
    ("forward", "--source", "coherent:1", "--detector", "ideal:3"): ("--n-max",),
    ("invert", "--input", "counts.csv", "--detector", "uniform:3,0.5"): ("--n-max",),
    ("matrix", "--detector", "ideal:3"): ("--n-max",),
    ("catalysis", "--config", "catalysis.cfg"): ("--events", "--seed", "--replicas"),
    ("tmsv", "--config", "tmsv.cfg"): ("--events", "--seed", "--replicas"),
}


@st.composite
def extreme_argvs(draw):
    """A command line whose numeric flags, most of them given, take extreme values."""
    start = draw(st.sampled_from(sorted(_EXTREME_COMMANDS)))
    argv = list(start)
    for flag in _EXTREME_COMMANDS[start]:
        if draw(st.integers(0, 3)):
            argv += [flag, draw(st.sampled_from(_EXTREME_NUMBERS))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=extreme_argvs())
def test_extreme_numeric_flags_never_end_in_a_traceback(fuzz_dir, argv):
    assert_ends_cleanly(fuzz_dir, argv)


#: Byte goldens of the CLI's own JSON (the experiment writers are pinned in
#: ``test_golden.py``): golden file name -> argv, run in a directory that
#: holds ``CLI_INPUTS``.  Rewrite them with ``PYTHONPATH=src python tests/test_cli.py``.
CLI_GOLDENS = {
    "cli_matrix.json": ["matrix", "--detector", "uniform:4,0.5,0.02", "--n-max", "6", "--format", "json"],
    "cli_witness_probs.json": ["witness", "--input", "probs.csv"],
    "cli_witness_counts.json": ["witness", "--input", "counts.csv", "--replicas", "200", "--seed", "1"],
    "cli_witness_counts_q_m.json": ["witness", "--input", "counts.csv", "--witness", "Q_M",
                                    "--detector", "uniform:4,0.6", "--replicas", "200", "--seed", "1"],
    "cli_invert.json": ["invert", "--input", "probs.csv", "--detector", "uniform:4,0.6", "--n-max", "4"],
    "cli_invert_pseudo_inverse.json": ["invert", "--input", "probs.csv", "--detector", "uniform:4,0.6",
                                       "--n-max", "4", "--method", "pseudo_inverse"],
}

CLI_INPUTS = {
    "probs.csv": "clicks,probability\n0,0.55\n1,0.3\n2,0.1\n3,0.04\n4,0.01\n",
    "counts.csv": "clicks,count\n0,550\n1,300\n2,100\n3,40\n4,10\n",
}


def cli_golden_text(name: str, workdir: Path) -> str:
    for file, text in CLI_INPUTS.items():
        (workdir / file).write_text(text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out):
            assert main(CLI_GOLDENS[name]) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_json_matches_golden(tmp_path, name):
    golden = Path(__file__).parent / "golden" / name
    assert cli_golden_text(name, tmp_path).encode() == golden.read_bytes()


if __name__ == "__main__":
    import tempfile

    for name in CLI_GOLDENS:
        with tempfile.TemporaryDirectory() as workdir:
            text = cli_golden_text(name, Path(workdir))
        (Path(__file__).parent / "golden" / name).write_bytes(text.encode())
