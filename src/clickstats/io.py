"""File formats and spec-string parsing for the command line tools.

Three small CSV dialects, distinguished by their exact header:

- ``n,probability``: a photon-number distribution.
- ``clicks,probability``: a click distribution.
- ``clicks,count``: a raw count record (non-negative integers).

Floats are written with ``repr``, so reading a file back reproduces the
exact binary values.  JSON results carry a ``schema_version`` and are
serialized with sorted keys and no timestamps: the same run with the same
seed produces byte-identical output.

Config files for the experiment subcommands are flat ``key = value`` lines
with ``#`` comments; keys mirror the config dataclass fields.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import asdict

import numpy as np

from .detector import ClickDistribution, CountRecord, DetectorModel
from .distributions import PhotonDistribution, coherent_pn, fock_pn, thermal_pn
from .errors import InvalidArgumentError
from .experiments import (
    CatalysisSweepConfig,
    CatalysisSweepResult,
    TmsvConfig,
    TmsvResult,
)
from .witnesses import WitnessEstimate

SCHEMA_VERSION = 1

_PHOTON_HEADER = ("n", "probability")
_CLICKS_HEADER = ("clicks", "probability")
_COUNTS_HEADER = ("clicks", "count")


def _format_rows(header, rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _frepr(x) -> str:
    """repr of a float, coerced first so numpy scalars don't leak their type."""
    return repr(float(x))


def photon_distribution_to_csv(p: PhotonDistribution) -> str:
    return _format_rows(_PHOTON_HEADER, ((n, _frepr(x)) for n, x in enumerate(p.probs)))


def click_distribution_to_csv(c: ClickDistribution) -> str:
    return _format_rows(_CLICKS_HEADER, ((i, _frepr(x)) for i, x in enumerate(c.probs)))


def count_record_to_csv(record: CountRecord) -> str:
    return _format_rows(_COUNTS_HEADER, enumerate(record.counts))


def _parse_rows(text: str, expected_header, convert):
    reader = csv.reader(_io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidArgumentError("empty CSV") from None
    if tuple(h.strip() for h in header) != expected_header:
        raise InvalidArgumentError(
            f"expected CSV header {','.join(expected_header)!r}, got {','.join(header)!r}"
        )
    values = []
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise InvalidArgumentError(f"malformed CSV row: {row!r}")
        try:
            idx, val = int(row[0]), convert(row[1])
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed CSV row {row!r}: {exc}") from None
        if idx != len(values):
            raise InvalidArgumentError(
                f"CSV rows must enumerate 0..K consecutively; got index {idx} at row {len(values)}"
            )
        values.append(val)
    if not values:
        raise InvalidArgumentError("CSV has a header but no rows")
    return values


def photon_distribution_from_csv(text: str) -> PhotonDistribution:
    return PhotonDistribution(np.array(_parse_rows(text, _PHOTON_HEADER, float)))


def click_distribution_from_csv(text: str) -> ClickDistribution:
    return ClickDistribution(np.array(_parse_rows(text, _CLICKS_HEADER, float)))


def count_record_from_csv(text: str) -> CountRecord:
    return CountRecord(tuple(_parse_rows(text, _COUNTS_HEADER, int)))


def sniff_click_csv(text: str) -> ClickDistribution | CountRecord:
    """Read a click CSV as probabilities or counts, keyed on its header."""
    first = text.split("\n", 1)[0].strip()
    header = tuple(h.strip() for h in first.split(","))
    if header == _CLICKS_HEADER:
        return click_distribution_from_csv(text)
    if header == _COUNTS_HEADER:
        return count_record_from_csv(text)
    raise InvalidArgumentError(
        f"expected a {','.join(_CLICKS_HEADER)!r} or {','.join(_COUNTS_HEADER)!r} CSV, "
        f"got header {first!r}"
    )


def parse_source_spec(spec: str, n_max: int | None = None) -> PhotonDistribution:
    """Build a photon distribution from ``coherent:MU``, ``thermal:MU`` or ``fock:N``."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise InvalidArgumentError(f"source spec needs a kind:value form, got {spec!r}")
    try:
        if kind == "coherent":
            return coherent_pn(float(arg), n_max=n_max)
        if kind == "thermal":
            return thermal_pn(float(arg), n_max=n_max)
        if kind == "fock":
            return fock_pn(int(arg), n_max=n_max)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad source spec {spec!r}: {exc}") from None
    raise InvalidArgumentError(
        f"unknown source kind {kind!r}; expected coherent, thermal or fock"
    )


def parse_detector_spec(spec: str) -> DetectorModel | None:
    """Build a detector from a compact spec string.

    ``ideal:N`` is an N-bin detector with no loss or dark clicks;
    ``uniform:N,ETA[,DARK]`` adds efficiency and dark clicks; ``pnr`` is
    the ideal photon-number-resolving herald (returns ``None``, which is
    only meaningful where a herald is expected).
    """
    if spec == "pnr":
        return None
    kind, sep, arg = spec.partition(":")
    try:
        if kind == "ideal" and sep:
            return DetectorModel.ideal(int(arg))
        if kind == "uniform" and sep:
            parts = arg.split(",")
            if len(parts) not in (2, 3):
                raise InvalidArgumentError(
                    f"uniform spec needs N,ETA or N,ETA,DARK; got {spec!r}"
                )
            dark = float(parts[2]) if len(parts) == 3 else 0.0
            return DetectorModel(int(parts[0]), efficiency=float(parts[1]), dark_click_prob=dark)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad detector spec {spec!r}: {exc}") from None
    raise InvalidArgumentError(
        f"unknown detector spec {spec!r}; expected ideal:N, uniform:N,ETA[,DARK] or pnr"
    )


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise InvalidArgumentError(f"config line {lineno} is not key = value: {raw!r}")
        if key.strip() in out:
            raise InvalidArgumentError(f"duplicate config key {key.strip()!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_typed(key: str, value: str, kind: str):
    try:
        if kind == "float":
            return float(value)
        if kind == "int":
            return int(value)
        if kind == "float_or_none":
            return None if value.lower() == "none" else float(value)
        if kind == "int_or_none":
            return None if value.lower() == "none" else int(value)
        if kind == "int_tuple":
            return tuple(int(v.strip()) for v in value.split(",") if v.strip())
        if kind == "float_tuple":
            return tuple(float(v.strip()) for v in value.split(",") if v.strip())
        if kind == "detector":
            return parse_detector_spec(value)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad value for config key {key!r}: {exc}") from None
    raise AssertionError(f"unhandled kind {kind}")


_TMSV_FIELDS = {
    "mean_photons": "float",
    "n_bins": "int",
    "efficiency_1": "float",
    "efficiency_2": "float",
    "dark_click_prob": "float",
    "herald_ks": "int_tuple",
    "expected_events": "float_or_none",
    "n_replicas": "int",
    "seed": "int",
    "cutoff": "int_or_none",
}

_CATALYSIS_FIELDS = {
    "alpha": "float",
    "reflectivities": "float_tuple",
    "herald_k": "int",
    "herald_detector": "detector",
    "n_bins": "int",
    "signal_efficiency": "float",
    "dark_click_prob": "float",
    "expected_events": "float",
    "n_replicas": "int",
    "seed": "int",
    "cutoff": "int_or_none",
    "inversion_n_max": "int_or_none",
}


def _config_from_dict(raw: dict[str, str], fields: dict[str, str], cls, label: str):
    kwargs = {}
    for key, value in raw.items():
        if key not in fields:
            raise InvalidArgumentError(f"unknown {label} config key {key!r}")
        kwargs[key] = _parse_typed(key, value, fields[key])
    return cls(**kwargs)


def tmsv_config_from_dict(raw: dict[str, str]) -> TmsvConfig:
    return _config_from_dict(raw, _TMSV_FIELDS, TmsvConfig, "tmsv")


def catalysis_config_from_dict(raw: dict[str, str]) -> CatalysisSweepConfig:
    return _config_from_dict(raw, _CATALYSIS_FIELDS, CatalysisSweepConfig, "catalysis")


def estimate_to_dict(e: WitnessEstimate | None):
    if e is None:
        return None
    return {
        "value": e.value,
        "std_error": e.std_error,
        "n_replicas": e.n_replicas,
        "dropped_fraction": e.dropped_fraction,
    }


def detector_to_dict(det: DetectorModel | None):
    if det is None:
        return None
    return {
        "n_bins": det.n_bins,
        "bin_weights": list(det.bin_weights) if det.bin_weights is not None else None,
        "efficiency": det.efficiency,
        "dark_click_prob": det.dark_click_prob,
    }


def tmsv_result_to_dict(result: TmsvResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tmsv",
        "config": asdict(result.config),
        "rows": [
            {
                "arm": row.arm,
                "herald_k": row.herald_k,
                "probability": row.probability,
                "q_b_exact": row.q_b_exact,
                "record": list(row.record.counts) if row.record is not None else None,
                "q_b": estimate_to_dict(row.q_b),
            }
            for row in result.rows
        ],
    }


def catalysis_result_to_dict(result: CatalysisSweepResult) -> dict:
    config = asdict(result.config)
    config["herald_detector"] = detector_to_dict(result.config.herald_detector)
    config["reflectivities"] = list(result.config.reflectivities)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "catalysis_sweep",
        "config": config,
        "points": [
            {
                "reflectivity": pt.reflectivity,
                "degenerate": pt.degenerate,
                "herald_prob": pt.herald_prob,
                "record": list(pt.record.counts) if pt.record is not None else None,
                "q_b_exact": pt.q_b_exact,
                "q_f_exact": pt.q_f_exact,
                "q_m_exact": pt.q_m_exact,
                "q_b": estimate_to_dict(pt.q_b),
                "q_f": estimate_to_dict(pt.q_f),
                "q_m": estimate_to_dict(pt.q_m),
            }
            for pt in result.points
        ],
    }


def to_json(obj: dict) -> str:
    """Strict JSON: a NaN or infinity raises instead of printing ``NaN``."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidArgumentError(f"result is not finite: {exc}") from None


def _opt(x, fmt=_frepr) -> str:
    return "" if x is None else fmt(x)


def tmsv_result_to_csv(result: TmsvResult) -> str:
    header = ("arm", "herald_k", "probability", "q_b_exact", "q_b", "q_b_err")
    rows = [
        (
            row.arm,
            _opt(row.herald_k, str),
            _frepr(row.probability),
            _frepr(row.q_b_exact),
            _opt(row.q_b.value if row.q_b else None),
            _opt(row.q_b.std_error if row.q_b else None),
        )
        for row in result.rows
    ]
    return _format_rows(header, rows)


def catalysis_result_to_csv(result: CatalysisSweepResult) -> str:
    header = (
        "reflectivity",
        "degenerate",
        "herald_prob",
        "q_b_exact",
        "q_f_exact",
        "q_m_exact",
        "q_b",
        "q_b_err",
        "q_f",
        "q_f_err",
        "q_m",
        "q_m_err",
    )
    rows = []
    for pt in result.points:
        rows.append(
            (
                _frepr(pt.reflectivity),
                int(pt.degenerate),
                _frepr(pt.herald_prob),
                _opt(pt.q_b_exact),
                _opt(pt.q_f_exact),
                _opt(pt.q_m_exact),
                _opt(pt.q_b.value if pt.q_b else None),
                _opt(pt.q_b.std_error if pt.q_b else None),
                _opt(pt.q_f.value if pt.q_f else None),
                _opt(pt.q_f.std_error if pt.q_f else None),
                _opt(pt.q_m.value if pt.q_m else None),
                _opt(pt.q_m.std_error if pt.q_m else None),
            )
        )
    return _format_rows(header, rows)


def matrix_to_csv(L: np.ndarray) -> str:
    """Click matrix as CSV: one row per click number, one column per photon number."""
    header = ["clicks"] + [f"n{n}" for n in range(L.shape[1])]
    rows = [[i] + [_frepr(x) for x in L[i]] for i in range(L.shape[0])]
    return _format_rows(header, rows)
