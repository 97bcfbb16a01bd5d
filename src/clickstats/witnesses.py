"""Nonclassicality witnesses for photon-number and click statistics.

Three normalized dispersion measures:

- ``q_mandel``: variance-to-mean departure from Poisson, on photon numbers.
  Negative values certify nonclassical (sub-Poissonian) light.
- ``q_binomial``: departure from binomial statistics, on click numbers from
  an N-bin multiplexed detector.  Negative values certify nonclassicality
  directly in the click record, with no detector inversion.
- ``q_fake``: the Mandel formula applied naively to click numbers.  Kept as
  a counterexample: it goes negative even for coherent light, because
  clipping at N bins suppresses the variance.

Each witness is defined once, as a function of a stack of frequency rows
that leaves out the rows where it is undefined, and found by name in one
lookup, ``witness_rows`` over ``WITNESSES``; a point value is that function
on one row (``one_row``).  ``poisson_bootstrap`` applies the same function
to replica records drawn with each entry Poisson around the observed count,
mirroring how raw coincidence counters accumulate events.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .detector import ClickDistribution, CountRecord, DetectorModel, poisson_blocks
from .distributions import PhotonDistribution, check_count, row_moments
from .errors import InvalidArgumentError, UndefinedWitnessError

#: Relative floor under which a mean click number makes the witnesses 0/0.
_MEAN_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class WitnessEstimate:
    """A witness value with a Monte Carlo standard error.

    Attributes:
        value: the witness evaluated on the observed record.
        std_error: sample standard deviation of the replica values.
        n_replicas: number of replicas that produced a defined value.
        dropped_fraction: fraction of replicas discarded as undefined
            (zero total, or mean clicks pinned at 0 or N).
        samples: the replica witness values, for histogramming.
    """

    value: float
    std_error: float
    n_replicas: int
    dropped_fraction: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


def one_row(rows: Callable[[np.ndarray], np.ndarray], probs, why: str) -> float:
    """The witness ``rows`` of the one distribution ``probs``; UndefinedWitnessError(why) if left out."""
    values = rows(np.asarray(probs, dtype=float)[None, :])
    if not values.size:
        raise UndefinedWitnessError(why)
    return float(values[0])


def q_mandel(p: PhotonDistribution) -> float:
    """Variance-to-mean witness on photon numbers: Var(n)/E(n) - 1."""
    return one_row(mandel_rows, p.probs, "mean photon number is 0")


def q_binomial(c: ClickDistribution) -> float:
    """Binomial witness on clicks: N Var(c) / (E(c) (N - E(c))) - 1.

    Zero for coherent light and negative only for nonclassical light, if
    the bins share the light equally.  On unequal bins coherent light gives
    Poisson-binomial clicks, with variance below N pbar (1 - pbar), so
    Q_B < 0 (-0.014 for 8 bins weighted 1 + 0.3 linspace(-1, 1), eta 0.6,
    coherent mean 6).
    """
    return one_row(_binomial_rows, c.probs, _binomial_rows.why)


def q_fake(c: ClickDistribution) -> float:
    """Mandel formula evaluated on click numbers: Var(c)/E(c) - 1.

    Not a witness.  For coherent light on an ideal N-bin detector the
    clicks are Binomial(N, q) and this returns -q < 0.
    """
    return one_row(mandel_rows, c.probs, "mean click number is 0")


def mandel_rows(probs: np.ndarray) -> np.ndarray:
    """Var/E - 1 of each row of ``probs`` (``q_mandel``, ``q_fake``), rows with mean 0 left out."""
    mean, var = row_moments(probs)
    keep = mean > _MEAN_FLOOR
    return var[keep] / mean[keep] - 1.0


mandel_rows.why = "mean is 0"


def _binomial_rows(probs: np.ndarray) -> np.ndarray:
    """``q_binomial`` of each row of ``probs``, rows with mean clicks pinned at 0 or N left out."""
    n_bins = probs.shape[1] - 1
    mean, var = row_moments(probs)
    unlit = n_bins - mean
    upper = mean > n_bins / 2  # moments of the unlit bins N - c, which do not cancel near N
    if upper.any():
        unlit[upper], var[upper] = row_moments(probs[upper, ::-1])
        mean[upper] = n_bins - unlit[upper]
    keep = (mean > _MEAN_FLOOR) & (unlit > _MEAN_FLOOR)
    return n_bins * var[keep] / (mean[keep] * unlit[keep]) - 1.0


_binomial_rows.why = "mean click number is pinned at 0 or N, leaving no binomial spread"

#: The names ``witness_rows`` knows.
WITNESSES = ("Q_B", "Q_F", "Q_M")


def witness_rows(name: str, n_bins: int, det: DetectorModel | None = None, n_max: int | None = None) -> Callable:
    """The rows function of witness ``name`` for click records over ``n_bins`` bins.

    Q_B and Q_F act on the clicks alone.  Q_M inverts them through ``det``,
    which it needs, onto photon numbers 0..n_max, N by default.  An unknown
    name or a given ``n_max`` that is not an integer >= 0 is an InvalidArgumentError.
    """
    if name not in WITNESSES:
        raise InvalidArgumentError(f"witness must be one of {WITNESSES}, got {name!r}")
    if n_max is not None:
        check_count(n_max, "n_max")
    if name == "Q_B":
        return _binomial_rows
    if name == "Q_F":
        return mandel_rows
    if det is None:
        raise InvalidArgumentError("witness Q_M needs a detector for the inversion")
    from .inversion import q_mandel_rows  # here, so the click witnesses never load the inversion

    return q_mandel_rows(det, det.n_bins if n_max is None else n_max, n_bins)


def _observed(record: CountRecord, rows: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, float]:
    """The record's counts as floats, and ``one_row`` of their frequencies; UndefinedWitnessError if empty."""
    counts = np.asarray(record.counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise UndefinedWitnessError("count record is empty")
    return counts, one_row(rows, counts / total, getattr(rows, "why", "the record's witness is undefined"))


def witness_from_counts(record: CountRecord, witness: str) -> float:
    """Evaluate a click witness on raw counts (relative frequencies)."""
    return _observed(record, witness_rows(witness, record.n_bins))[1]


def poisson_bootstrap(
    record: CountRecord,
    rows: Callable[[np.ndarray], np.ndarray],
    n_replicas: int,
    seed,
) -> WitnessEstimate:
    """The bootstrap engine behind every ``mc_*`` witness.

    ``rows`` maps a stack of click-frequency rows to the witness of each
    row where it is defined.  The value is ``one_row`` of the observed
    frequencies, raising with ``rows.why`` where set.  The replicas redraw
    every counts[i] as Poisson(counts[i]), block by block from
    ``poisson_blocks(counts, n_replicas, seed)``, which holds none it has
    yielded; each drops its empty replicas, is normalised in place and scored
    by ``rows``.  The peak is the scores, twice while joined, and one scored block.

    Raises:
        InvalidArgumentError: n_replicas not an integer >= 2, more replicas
            than their scores can fit in memory, a seed that ``default_rng``
            refuses, or counts beyond numpy's Poisson sampler (~9.2e18).
        UndefinedWitnessError: an empty record, no witness of the observed
            record, or < 2 defined replicas.
    """
    n_replicas = check_count(n_replicas, "n_replicas")
    if n_replicas < 2:
        raise InvalidArgumentError("n_replicas must be >= 2")
    counts, value = _observed(record, rows)
    try:
        np.empty(n_replicas)  # the scores must fit before the first block is drawn
    except (MemoryError, ValueError):  # numpy refuses sizes past its largest array with ValueError
        raise InvalidArgumentError(
            f"the scores of {n_replicas} replicas do not fit in memory"
        ) from None
    samples = []  # the scores of each block, then their concatenation
    for freqs in poisson_blocks(counts, n_replicas, seed):
        # Exact integers in float add up exactly in any order while a replica
        # totals below 2**53, so this product gives sum(axis=1)'s bits, faster.
        totals = freqs @ np.ones(freqs.shape[1])
        if not totals.all():  # copy the rows only when some replica is empty
            freqs, totals = freqs[totals > 0], totals[totals > 0]
        freqs /= totals[:, None]
        samples.append(rows(freqs))
        del freqs  # so the next block is drawn with no earlier block held
    samples = np.concatenate(samples)
    if samples.size < 2:
        raise UndefinedWitnessError(
            f"only {samples.size} of {n_replicas} replicas gave a defined witness"
        )
    return WitnessEstimate(
        value=value,
        std_error=float(samples.std(ddof=1)),
        n_replicas=int(samples.size),
        dropped_fraction=1.0 - samples.size / n_replicas,
        samples=samples,
    )


def mc_witness(
    record: CountRecord,
    witness: str,
    n_replicas: int = 10_000,
    seed=None,
) -> WitnessEstimate:
    """Bootstrap Q_B or Q_F under Poissonian counting noise: ``poisson_bootstrap`` on its rows.

    Replicas with an undefined witness (empty record, or mean clicks pinned
    at 0 or N) are dropped and reported via ``dropped_fraction``.  Q_M needs
    a detector: ``mc_q_mandel_from_clicks``.
    """
    return poisson_bootstrap(record, witness_rows(witness, record.n_bins), n_replicas, seed)

