"""Byte goldens for the result writers.

The files in ``golden/`` pin the exact CSV and JSON text of small seeded
results: a squeezed-pair table whose unconditional rows have an empty
``herald_k`` cell, a catalysis sweep with a degenerate first point and
``herald_detector = None``, and a sweep heralded by a binned, non-uniform
click detector.  They change only with a deliberate change of the output
format; rewrite them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from clickstats import DetectorModel
from clickstats.experiments import CatalysisSweepConfig, run_catalysis_sweep
from clickstats.io import (
    catalysis_result_to_csv,
    catalysis_result_to_dict,
    tmsv_result_to_csv,
    tmsv_result_to_dict,
    to_json,
)
from test_io import tiny_catalysis_result, tiny_tmsv_result

GOLDEN = Path(__file__).parent / "golden"


def binned_herald_result():
    herald = DetectorModel(3, bin_weights=(0.5, 0.25, 0.25), efficiency=0.6, dark_click_prob=0.01)
    return run_catalysis_sweep(
        CatalysisSweepConfig(
            alpha=1.0,
            reflectivities=(0.5,),
            herald_detector=herald,
            n_bins=3,
            signal_efficiency=0.5,
            expected_events=500.0,
            n_replicas=50,
            seed=3,
            cutoff=20,
        )
    )


#: Golden file name -> the text it pins.
WRITERS = {
    "tmsv.csv": lambda: tmsv_result_to_csv(tiny_tmsv_result()),
    "tmsv.json": lambda: to_json(tmsv_result_to_dict(tiny_tmsv_result())),
    "catalysis.csv": lambda: catalysis_result_to_csv(tiny_catalysis_result()),
    "catalysis.json": lambda: to_json(catalysis_result_to_dict(tiny_catalysis_result())),
    "catalysis_binned_herald.json": lambda: to_json(catalysis_result_to_dict(binned_herald_result())),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_output_matches_golden(name):
    assert WRITERS[name]().encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, write in WRITERS.items():
        (GOLDEN / name).write_bytes(write().encode())
