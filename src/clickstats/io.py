"""File formats and spec-string parsing for the command line tools.

Three small CSV dialects, distinguished by their header, which every
reader matches after CSV unquoting and trimming spaces:

- ``n,probability``: a photon-number distribution.
- ``clicks,probability``: a click distribution.
- ``clicks,count``: a raw count record (non-negative integers).

Floats are written with ``repr``, so reading a file back reproduces the
exact binary values.  Every JSON result is one ``envelope``: a
``schema_version``, a ``kind`` and the result's fields as plain data
(``to_plain``), serialized with sorted keys and no timestamps, so the same
run with the same seed produces byte-identical output.

Config files for the experiment subcommands are flat ``key = value`` lines
with ``#`` comments.  The keys are the fields of the config dataclass, and
each field's annotation sets its value syntax.  Result tables are written
from the fields of their row dataclass: JSON keeps every field, CSV every
field but the record, with an estimate ``x`` as the columns ``x, x_err``.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import fields
from typing import TYPE_CHECKING

import numpy as np

from .detector import ClickDistribution, CountRecord, DetectorModel
from .distributions import PhotonDistribution, coherent_pn, fock_pn, thermal_pn
from .errors import InvalidArgumentError

if TYPE_CHECKING:  # the experiment module loads only where used
    from .experiments import CatalysisSweepConfig, CatalysisSweepResult, TmsvConfig, TmsvResult

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


def _parse_rows(text: str, parsers: dict):
    """The matched header and the values, indexed 0..K, of an ``index,value`` CSV.

    ``parsers`` maps each accepted header, a tuple of column names, to the
    parser of its value column; a header matches after CSV unquoting and
    trimming spaces.
    """
    try:
        rows = list(csv.reader(_io.StringIO(text), skipinitialspace=True))
    except csv.Error as exc:  # e.g. a bare "\r" inside a row
        raise InvalidArgumentError(f"malformed CSV: {exc}") from None
    if not rows:
        raise InvalidArgumentError("empty CSV")
    header, *rows = rows
    key = tuple(h.strip() for h in header)
    if key not in parsers:
        expected = " or ".join(repr(",".join(h)) for h in parsers)
        raise InvalidArgumentError(f"expected CSV header {expected}, got {','.join(header)!r}")
    convert = parsers[key]
    values = []
    for row in rows:
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
    return key, values


def photon_distribution_from_csv(text: str) -> PhotonDistribution:
    return PhotonDistribution(np.array(_parse_rows(text, {_PHOTON_HEADER: float})[1]))


def click_distribution_from_csv(text: str) -> ClickDistribution:
    return ClickDistribution(np.array(_parse_rows(text, {_CLICKS_HEADER: float})[1]))


def count_record_from_csv(text: str) -> CountRecord:
    return CountRecord(tuple(_parse_rows(text, {_COUNTS_HEADER: int})[1]))


def sniff_click_csv(text: str) -> ClickDistribution | CountRecord:
    """Read a click CSV as probabilities or counts, keyed on its header."""
    header, values = _parse_rows(text, {_CLICKS_HEADER: float, _COUNTS_HEADER: int})
    return ClickDistribution(np.array(values)) if header == _CLICKS_HEADER else CountRecord(tuple(values))


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


def parse_detector_spec(spec: str) -> DetectorModel:
    """Build a detector from a compact spec string.

    ``ideal:N`` is an N-bin detector with no loss or dark clicks;
    ``uniform:N,ETA[,DARK]`` adds efficiency and dark clicks.  ``pnr``, the
    ideal photon-number-resolving herald, is refused: it is no binned
    detector, and only a config's herald field takes it.
    """
    if spec.lower() == "pnr":
        raise InvalidArgumentError("'pnr' is only valid as a herald; give a binned detector")
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
        f"unknown detector spec {spec!r}; expected ideal:N or uniform:N,ETA[,DARK]"
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


_SCALARS = {"int": int, "float": float}


def _parse_field(key: str, value: str, annotation: str):
    """Parse one config value by its dataclass field's annotation.

    ``X | None`` also accepts ``none``; a tuple is a comma list; a detector
    is a spec string, and the herald's ``pnr`` gives ``None``.
    """
    kind, _, optional = annotation.partition(" | ")
    if optional and value.lower() == "none":
        return None
    if kind == "DetectorModel":
        return None if key == "herald_detector" and value.lower() == "pnr" else parse_detector_spec(value)
    try:
        if kind.startswith("tuple["):
            item = _SCALARS[kind[len("tuple[") :].split(",")[0]]
            return tuple(item(v.strip()) for v in value.split(",") if v.strip())
        return _SCALARS[kind](value)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad value for config key {key!r}: {exc}") from None


def _config_from_dict(raw: dict[str, str], cls, label: str):
    annotations = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in annotations:
            raise InvalidArgumentError(f"unknown {label} config key {key!r}")
        kwargs[key] = _parse_field(key, value, annotations[key])
    return cls(**kwargs)


def tmsv_config_from_dict(raw: dict[str, str]) -> TmsvConfig:
    from .experiments import TmsvConfig

    return _config_from_dict(raw, TmsvConfig, "tmsv")


def catalysis_config_from_dict(raw: dict[str, str]) -> CatalysisSweepConfig:
    from .experiments import CatalysisSweepConfig

    return _config_from_dict(raw, CatalysisSweepConfig, "catalysis")


def to_plain(value):
    """``value`` as plain JSON data: a dataclass becomes the dict of its
    fields, a ``CountRecord`` its counts, an array or tuple a list.  A
    ``WitnessEstimate`` keeps every field but its replica ``samples``."""
    if value is None or isinstance(value, (float, int, str)):
        return value
    if isinstance(value, CountRecord):
        return list(value.counts)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    return {f.name: to_plain(getattr(value, f.name)) for f in fields(value) if f.name != "samples"}


def envelope(kind: str, **body) -> dict:
    """A JSON result: ``body`` as plain data, stamped with the schema version and ``kind``."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **{k: to_plain(v) for k, v in body.items()}}


def tmsv_result_to_dict(result: TmsvResult) -> dict:
    return envelope("tmsv", config=result.config, rows=result.rows)


def catalysis_result_to_dict(result: CatalysisSweepResult) -> dict:
    return envelope("catalysis_sweep", config=result.config, points=result.points)


def to_json(obj: dict) -> str:
    """Strict JSON: a NaN or infinity raises instead of printing ``NaN``."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidArgumentError(f"result is not finite: {exc}") from None


def _cells(kind: str, value) -> list[str]:
    """The CSV cells of one field, by the base type of its annotation."""
    if kind == "WitnessEstimate":
        return ["", ""] if value is None else [_frepr(value.value), _frepr(value.std_error)]
    if value is None:
        return [""]
    if kind == "float":
        return [_frepr(value)]
    return [str(int(value))]  # an int, or a bool as 0/1


def _rows_to_csv(rows, cls) -> str:
    """Result rows of dataclass ``cls`` as CSV, one column per field in order."""
    kinds = {f.name: f.type.partition(" | ")[0] for f in fields(cls)}
    del kinds["record"]
    header = []
    for name, kind in kinds.items():
        header += [name, f"{name}_err"] if kind == "WitnessEstimate" else [name]
    body = [
        [cell for name, kind in kinds.items() for cell in _cells(kind, getattr(row, name))]
        for row in rows
    ]
    return _format_rows(header, body)


def tmsv_result_to_csv(result: TmsvResult) -> str:
    from .experiments import TmsvRow

    return _rows_to_csv(result.rows, TmsvRow)


def catalysis_result_to_csv(result: CatalysisSweepResult) -> str:
    from .experiments import CatalysisPoint

    return _rows_to_csv(result.points, CatalysisPoint)


def matrix_to_csv(L: np.ndarray) -> str:
    """Click matrix as CSV: one row per click number, one column per photon number."""
    header = ["clicks"] + [f"n{n}" for n in range(L.shape[1])]
    rows = [[i] + [_frepr(x) for x in L[i]] for i in range(L.shape[0])]
    return _format_rows(header, rows)
