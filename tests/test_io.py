import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats import (
    ClickDistribution,
    CountRecord,
    DetectorModel,
    InvalidArgumentError,
    PhotonDistribution,
    coherent_pn,
    forward_clicks,
)
from clickstats.experiments import (
    CatalysisSweepConfig,
    TmsvConfig,
    run_catalysis_sweep,
    run_tmsv,
)
from clickstats.io import (
    catalysis_config_from_dict,
    catalysis_result_to_csv,
    catalysis_result_to_dict,
    click_distribution_from_csv,
    click_distribution_to_csv,
    count_record_from_csv,
    count_record_to_csv,
    envelope,
    matrix_to_csv,
    parse_config,
    parse_detector_spec,
    parse_source_spec,
    photon_distribution_from_csv,
    photon_distribution_to_csv,
    sniff_click_csv,
    tmsv_config_from_dict,
    tmsv_result_to_csv,
    tmsv_result_to_dict,
    to_json,
    to_plain,
)


def test_photon_csv_round_trip_is_exact():
    p = coherent_pn(1.37, n_max=25)
    back = photon_distribution_from_csv(photon_distribution_to_csv(p))
    assert np.array_equal(back.probs, p.probs)


def test_click_csv_round_trip_is_exact():
    c = forward_clicks(coherent_pn(0.8), DetectorModel(5, efficiency=0.63))
    back = click_distribution_from_csv(click_distribution_to_csv(c))
    assert np.array_equal(back.probs, c.probs)


def test_count_csv_round_trip():
    rec = CountRecord((4, 0, 17, 3))
    assert count_record_from_csv(count_record_to_csv(rec)).counts == rec.counts
    # A blank line between rows is skipped.
    assert count_record_from_csv("clicks,count\n0,4\n\n1,0\n").counts == (4, 0)


def test_sniffing_dispatches_on_header():
    c = ClickDistribution(np.array([0.5, 0.25, 0.25]))
    for text in (click_distribution_to_csv(c), '"clicks","probability"\n0,0.5\n1,0.25\n2,0.25\n'):
        assert np.array_equal(sniff_click_csv(text).probs, c.probs)
    for text in (count_record_to_csv(CountRecord((1, 2))), '"clicks","count"\n0,1\n1,2\n'):
        assert sniff_click_csv(text) == CountRecord((1, 2))
    with pytest.raises(InvalidArgumentError):
        sniff_click_csv("n,probability\n0,1.0\n")


def test_csv_parser_rejects_malformed_input():
    with pytest.raises(InvalidArgumentError):
        photon_distribution_from_csv("")
    with pytest.raises(InvalidArgumentError):
        photon_distribution_from_csv("wrong,header\n0,1.0\n")
    with pytest.raises(InvalidArgumentError):
        photon_distribution_from_csv("n,probability\n")
    with pytest.raises(InvalidArgumentError):
        photon_distribution_from_csv("n,probability\n1,0.5\n")  # must start at 0
    with pytest.raises(InvalidArgumentError):
        photon_distribution_from_csv("n,probability\n0,0.5\n2,0.5\n")  # gap
    with pytest.raises(InvalidArgumentError):
        photon_distribution_from_csv("n,probability\n0,0.5,extra\n")
    with pytest.raises(InvalidArgumentError):
        photon_distribution_from_csv("n,probability\nx,1.0\n")
    with pytest.raises(InvalidArgumentError):
        click_distribution_from_csv("clicks,probability\n0,nan\n1,nan\n")
    with pytest.raises(InvalidArgumentError):
        count_record_from_csv("clicks,count\n0,nan\n1,3\n")


CSV_READERS = {
    "n,probability": (photon_distribution_from_csv,),
    "clicks,probability": (click_distribution_from_csv, sniff_click_csv),
    "clicks,count": (count_record_from_csv, sniff_click_csv),
}


@pytest.mark.parametrize(
    "header,read", [(header, read) for header, readers in CSV_READERS.items() for read in readers]
)
def test_csv_with_a_bare_carriage_return_in_a_row_is_invalid_argument(header, read):
    # The csv module raises csv.Error for a "\r" inside an unquoted row.
    with pytest.raises(InvalidArgumentError, match="malformed CSV"):
        read(f"{header}\n0,1\r1,0\n")


@pytest.mark.parametrize(
    "header,read", [(header, read) for header, readers in CSV_READERS.items() for read in readers]
)
def test_every_reader_matches_its_header_after_unquoting_and_trimming(header, read):
    names = header.split(",")
    body = "0,1\n1,0\n"
    for variant in (
        ",".join(f'"{n}"' for n in names),
        ",".join(f" {n} " for n in names),
        ", ".join(f'"{n}"' for n in names),
    ):
        assert to_plain(read(f"{variant}\n{body}")) == to_plain(read(f"{header}\n{body}"))


def test_parse_source_spec():
    p = parse_source_spec("coherent:1.0", n_max=30)
    np.testing.assert_allclose(p.probs, coherent_pn(1.0, n_max=30).probs, atol=0)
    assert parse_source_spec("fock:2").probs[2] == 1.0
    # Renormalization after the tail cutoff shifts entries at the 1e-10 level.
    assert parse_source_spec("thermal:0.5").probs[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    for bad in ("coherent", "coherent:abc", "squeezed:1.0", "fock:1.5"):
        with pytest.raises(InvalidArgumentError):
            parse_source_spec(bad)


def test_parse_detector_spec():
    det = parse_detector_spec("uniform:8,0.5,0.01")
    assert det == DetectorModel(8, efficiency=0.5, dark_click_prob=0.01)
    assert parse_detector_spec("uniform:4,0.9") == DetectorModel(4, efficiency=0.9)
    assert parse_detector_spec("ideal:3") == DetectorModel.ideal(3)
    with pytest.raises(InvalidArgumentError, match="'pnr' is only valid as a herald; give a binned detector"):
        parse_detector_spec("pnr")
    with pytest.raises(InvalidArgumentError, match="only valid as a herald"):
        parse_detector_spec("PNR")
    for bad in ("ideal", "uniform:8", "uniform:8,0.5,0.1,9", "foo:1", "ideal:x"):
        with pytest.raises(InvalidArgumentError):
            parse_detector_spec(bad)


def test_parse_config_lines():
    text = """
    # a comment
    mean_photons = 0.2   # trailing comment
    n_bins = 4

    herald_ks = 0, 1
    """
    raw = parse_config(text)
    assert raw == {"mean_photons": "0.2", "n_bins": "4", "herald_ks": "0, 1"}
    with pytest.raises(InvalidArgumentError):
        parse_config("just a line\n")
    with pytest.raises(InvalidArgumentError):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(InvalidArgumentError):
        parse_config("a =\n")


def test_tmsv_config_from_dict():
    config = tmsv_config_from_dict(
        {
            "mean_photons": "0.2",
            "n_bins": "4",
            "herald_ks": "0,1,2",
            "expected_events": "none",
            "cutoff": "40",
        }
    )
    assert config == TmsvConfig(
        mean_photons=0.2, n_bins=4, herald_ks=(0, 1, 2), expected_events=None, cutoff=40
    )
    with pytest.raises(InvalidArgumentError):
        tmsv_config_from_dict({"volume": "11"})
    with pytest.raises(InvalidArgumentError):
        tmsv_config_from_dict({"n_bins": "four"})


def test_catalysis_config_from_dict():
    config = catalysis_config_from_dict(
        {
            "alpha": "1.5",
            "reflectivities": "0.0, 0.5, 1.0",
            "herald_detector": "uniform:4,0.5",
            "expected_events": "100",
        }
    )
    assert config.alpha == 1.5
    assert config.reflectivities == (0.0, 0.5, 1.0)
    assert config.herald_detector == DetectorModel(4, efficiency=0.5)
    assert config.expected_events == 100.0
    for herald in ("pnr", "PNR", "none", "None"):
        assert catalysis_config_from_dict({"herald_detector": herald}).herald_detector is None


CONFIG_KEYS = sorted(
    {f.name for cls in (TmsvConfig, CatalysisSweepConfig) for f in dataclasses.fields(cls)}
) + ["volume"]

config_values = st.one_of(
    st.text(max_size=12),
    st.integers(-(10**400), 10**400).map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["none", "pnr", "ideal:3", "uniform:4,0.5,0.01", "uniform:0,2", "0, 1, 2", "0.0, 0.5, 1.0", ","]
    ),
    st.lists(st.integers(-3, 99) | st.floats(-1, 3), max_size=4).map(
        lambda xs: ", ".join(map(str, xs))
    ),
)

config_lines = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), config_values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(config_lines, max_size=6))
def test_fuzzed_config_text_gives_a_config_or_invalid_argument(lines):
    text = "\n".join(lines)
    for from_dict, cls in (
        (tmsv_config_from_dict, TmsvConfig),
        (catalysis_config_from_dict, CatalysisSweepConfig),
    ):
        try:
            config = from_dict(parse_config(text))
        except InvalidArgumentError:
            continue
        assert isinstance(config, cls)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(0, 1), min_size=2, max_size=12).filter(lambda w: sum(w) > 0))
def test_distribution_csv_text_round_trips_byte_exactly(weights):
    probs = np.array(weights) / np.sum(weights)
    for to_csv, from_csv, cls in (
        (photon_distribution_to_csv, photon_distribution_from_csv, PhotonDistribution),
        (click_distribution_to_csv, click_distribution_from_csv, ClickDistribution),
    ):
        text = to_csv(cls(probs))
        assert to_csv(from_csv(text)) == text


csv_headers = st.sampled_from([*CSV_READERS, "clicks,", " n , probability"]) | st.text(max_size=20)
csv_values = st.lists(st.sampled_from(["0", "1", "0.5", "3"]), max_size=6)
csv_splices = st.lists(
    st.tuples(
        st.integers(0, 100),
        st.sampled_from([",", "\n", "\r", "\r\n", '"', "\x00", "-", "nan", "1e400", "9" * 5000])
        | st.floats().map(repr)
        | st.text(max_size=6),
    ),
    max_size=2,
)


def _spliced_csv(header, values, splices):
    """A CSV text, most often well formed, with a few fragments spliced in."""
    text = header + "\n" + "".join(f"{i},{value}\n" for i, value in enumerate(values))
    for at, fragment in splices:
        at %= len(text) + 1
        text = text[:at] + fragment + text[at:]
    return text


csv_texts = st.text(max_size=40) | st.builds(_spliced_csv, csv_headers, csv_values, csv_splices)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts)
def test_fuzzed_csv_text_gives_a_value_or_invalid_argument(text):
    for read in (
        photon_distribution_from_csv,
        click_distribution_from_csv,
        count_record_from_csv,
        sniff_click_csv,
    ):
        try:
            read(text)
        except InvalidArgumentError:
            pass


def tiny_tmsv_result():
    return run_tmsv(
        TmsvConfig(
            mean_photons=0.2,
            n_bins=2,
            efficiency_1=0.4,
            efficiency_2=0.4,
            herald_ks=(1,),
            expected_events=500.0,
            n_replicas=50,
            seed=3,
            cutoff=30,
        )
    )


def tiny_catalysis_result():
    return run_catalysis_sweep(
        CatalysisSweepConfig(
            alpha=1.0,
            reflectivities=(0.0, 0.5),
            herald_k=0,
            n_bins=3,
            signal_efficiency=0.5,
            expected_events=500.0,
            n_replicas=50,
            seed=3,
            cutoff=20,
        )
    )


def test_tmsv_json_shape_and_determinism():
    result = tiny_tmsv_result()
    text = to_json(tmsv_result_to_dict(result))
    assert text == to_json(tmsv_result_to_dict(tiny_tmsv_result()))
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert payload["kind"] == "tmsv"
    assert payload["config"]["mean_photons"] == 0.2
    assert len(payload["rows"]) == 4
    row = payload["rows"][0]
    assert set(row) == {"arm", "herald_k", "probability", "q_b_exact", "record", "q_b"}
    assert payload["rows"][0]["herald_k"] is None
    assert isinstance(row["record"], list)
    assert set(row["q_b"]) == {"value", "std_error", "n_replicas", "dropped_fraction"}


def test_catalysis_json_records_degenerate_points():
    # herald_k=0 with an ideal herald cannot fire at zero reflectivity.
    payload = json.loads(to_json(catalysis_result_to_dict(tiny_catalysis_result())))
    assert payload["kind"] == "catalysis_sweep"
    assert payload["config"]["herald_detector"] is None
    first, second = payload["points"]
    assert first["degenerate"] is True
    assert first["record"] is None and first["q_m"] is None
    assert second["degenerate"] is False
    assert second["q_b"]["n_replicas"] >= 2


def test_result_csv_shapes():
    tmsv_lines = tmsv_result_to_csv(tiny_tmsv_result()).strip().split("\n")
    assert tmsv_lines[0] == "arm,herald_k,probability,q_b_exact,q_b,q_b_err"
    assert len(tmsv_lines) == 1 + 4
    assert tmsv_lines[1].split(",")[1] == ""  # unconditional row has empty herald_k

    cat_lines = catalysis_result_to_csv(tiny_catalysis_result()).strip().split("\n")
    assert cat_lines[0].startswith("reflectivity,degenerate,herald_prob,")
    assert len(cat_lines) == 1 + 2
    degenerate_row = cat_lines[1].split(",")
    assert degenerate_row[1] == "1"
    assert degenerate_row[3] == ""  # no exact witness on a degenerate point

    # CSV floats are exact reprs: parse one back and compare.
    row = tmsv_result_to_csv(tiny_tmsv_result()).strip().split("\n")[1].split(",")
    assert float(row[2]) == tiny_tmsv_result().rows[0].probability


def test_matrix_csv_layout():
    from clickstats import click_matrix

    L = click_matrix(DetectorModel.ideal(2), 3)
    lines = matrix_to_csv(L).strip().split("\n")
    assert lines[0] == "clicks,n0,n1,n2,n3"
    assert len(lines) == 1 + 3
    assert float(lines[1].split(",")[1]) == 1.0  # P(0 clicks | 0 photons)


def test_to_json_is_sorted_and_newline_terminated():
    text = to_json({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_to_json_refuses_non_finite_numbers():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidArgumentError):
            to_json({"value": bad})


def test_to_plain_and_envelope():
    from clickstats.witnesses import WitnessEstimate

    det = DetectorModel(2, bin_weights=(0.25, 0.75), efficiency=0.5)
    assert to_plain(det) == {"n_bins": 2, "bin_weights": [0.25, 0.75], "efficiency": 0.5, "dark_click_prob": 0.0}
    assert to_plain(CountRecord((3, 1))) == [3, 1]
    assert to_plain(np.eye(2)) == [[1.0, 0.0], [0.0, 1.0]]
    estimate = WitnessEstimate(-0.5, 0.1, 3, 0.25, np.array([-0.4, -0.5, -0.6]))
    assert to_plain(estimate) == {"value": -0.5, "std_error": 0.1, "n_replicas": 3, "dropped_fraction": 0.25}
    assert envelope("x", a=(det, None)) == {"schema_version": 1, "kind": "x", "a": [to_plain(det), None]}
