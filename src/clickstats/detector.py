"""Multiplexed click-detector model.

A multiplexed detector splits an incoming pulse over N bins (spatial or
temporal), each read out by an on/off detector.  It reports the number of
clicking bins, not the number of photons.  This module computes the
conditional click law P(i clicks | n photons), maps photon-number
distributions to click distributions, handles joint two-detector statistics
and conditioning, and samples count records.

Conventions:

- Photons are distributed over bins independently (multinomial statistics,
  bin b with probability ``bin_weights[b]``), which is exact for the
  phase-insensitive diagonal POVM of an on/off counter array.
- Per-photon efficiency eta is folded into the placement: a photon is lost
  with probability 1 - eta and lands in bin b with probability eta * w_b.
- A bin clicks if a photon or a dark count lights it: each bin fires in
  the dark independently with ``dark_click_prob``.

The click law (Sperling, Vogel & Agarwal, PRA 85, 023820 (2012)) is built
by recurrence: for uniform weights one photon at a time, as a Markov chain
over the number of lit bins that starts from the Binomial(N, d) law of the
bins lit in the dark, built row-major (one contiguous row per photon
number, transposed once at the end); otherwise one bin at a time, over
the number of bins lit so far, at O(N^2 n_max^2) cost, each bin lighting
in the dark when it takes no photon.  Every step of both recurrences is a
stochastic matrix with non-negative terms, so nothing cancels and nothing
leaves float range: entries that are zero come out exactly zero, no entry
is negative, and columns sum to 1 to within accumulated rounding, ~3e-17
a step over N + n_max steps (< 1e-12 at the cost limit).
The textbook inclusion-exclusion sum, by contrast, alternates with large
binomial weights and loses nine digits in floating point at N=32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import binomial_matrix, check_count, check_nonnegative, check_probability, check_probs, is_integer
from .errors import DegenerateConditioningError, InvalidArgumentError

_WEIGHT_SUM_ATOL = 1e-12

#: Conditioning below this probability cannot be normalized meaningfully.
DEGENERATE_PROB = 1e-15

#: The most memory (bytes) and work (multiply-adds) ``click_matrix`` spends on one law.
MAX_LAW_BYTES, MAX_LAW_MULTIPLY_ADDS = 8e7, 1e10

#: Floats per block of ``poisson_blocks`` (256 KiB): 3,640 rows at N = 8.
_BLOCK_FLOATS = 2**15


@dataclass(frozen=True)
class DetectorModel:
    """A multiplexed on/off detector with N bins.

    Args:
        n_bins: number of bins N >= 1.
        bin_weights: splitting probabilities, length N, summing to 1.
            ``None`` means uniform 1/N (balanced splitter cascade).
        efficiency: per-photon survival probability, applied uniformly.
        dark_click_prob: per-bin probability that a silent bin clicks anyway.
    """

    n_bins: int
    bin_weights: tuple[float, ...] | None = None
    efficiency: float = 1.0
    dark_click_prob: float = 0.0

    def __post_init__(self):
        if not is_integer(self.n_bins) or self.n_bins < 1:
            raise InvalidArgumentError("n_bins must be an integer >= 1")
        object.__setattr__(self, "n_bins", int(self.n_bins))
        if self.bin_weights is not None:
            w = tuple(check_nonnegative(x, "bin_weights") for x in self.bin_weights)
            if len(w) != self.n_bins:
                raise InvalidArgumentError("bin_weights length must equal n_bins")
            if abs(sum(w) - 1.0) > _WEIGHT_SUM_ATOL:
                raise InvalidArgumentError(
                    f"bin_weights sum to {sum(w)!r}, expected 1 within {_WEIGHT_SUM_ATOL}"
                )
            object.__setattr__(self, "bin_weights", w)
        check_probability(self.efficiency, "efficiency")
        if check_probability(self.dark_click_prob, "dark_click_prob") == 1.0:
            raise InvalidArgumentError(f"dark_click_prob must lie in [0, 1), got {self.dark_click_prob!r}")

    @classmethod
    def ideal(cls, n_bins: int) -> "DetectorModel":
        """Lossless, dark-count-free detector with uniform bins."""
        return cls(n_bins=n_bins)

    @property
    def is_uniform(self) -> bool:
        return self.bin_weights is None or len(set(self.bin_weights)) == 1


@dataclass(frozen=True, eq=False)
class ClickDistribution:
    """Probability vector over the number of clicks i = 0..N."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if probs.ndim != 1 or probs.size < 2:
            raise InvalidArgumentError("click probs must cover i = 0..N with N >= 1")
        object.__setattr__(self, "probs", check_probs(probs, "click"))

    @property
    def n_bins(self) -> int:
        return self.probs.size - 1


@dataclass(frozen=True, eq=False)
class JointClickDistribution:
    """Joint click probabilities probs[i, j] for two detectors."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise InvalidArgumentError("joint click probs must be a 2-d grid")
        object.__setattr__(self, "probs", check_probs(probs, "joint click"))


@dataclass(frozen=True)
class CountRecord:
    """Raw event counts per click number, as collected in an experiment."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(check_count(c, "counts") for c in self.counts)
        if len(counts) < 2:
            raise InvalidArgumentError("counts must cover i = 0..N with N >= 1")
        object.__setattr__(self, "counts", counts)

    @property
    def total_events(self) -> int:
        return sum(self.counts)

    @property
    def n_bins(self) -> int:
        return len(self.counts) - 1


def _lit_bins(det: DetectorModel, n_max: int) -> np.ndarray:
    """P(i bins lit | n photons), a bin being lit by a photon or a dark click.

    Uniform bins add one photon at a time, row-major, and the result is
    transposed once (briefly two copies of the law); other weights add one
    bin at a time, O(N^2 n_max^2), each bin's binomial table briefly held
    twice (``binomial_matrix``'s row-major build, then a writable copy).
    """
    N, eta, d = det.n_bins, det.efficiency, det.dark_click_prob
    if det.is_uniform:
        # Row-major: T[n] = lit[:, n], so each photon step reads and writes
        # contiguous rows.  T[0] is Binomial(N, d), the bins lit in the dark,
        # by Pascal's rule as in ``binomial_matrix``; at d = 0 it is the start
        # row already.  With i bins lit, by photons or not, a photon keeps i
        # with probability (1 - eta) + eta i/N and lights a new bin with
        # eta (N - i)/N.
        T = np.zeros((n_max + 1, N + 1))
        T[0, 0] = 1.0
        for _ in range(N if d else 0):
            T[0, 1:] = (1.0 - d) * T[0, 1:] + d * T[0, :-1]
            T[0, 0] *= 1.0 - d
        i = np.arange(N + 1)
        stay = (1.0 - eta) + eta * i / N
        move = eta * (N - i[:-1]) / N
        for n in range(1, n_max + 1):
            T[n] = stay * T[n - 1]
            T[n, 1:] += move * T[n - 1, :-1]
        return np.ascontiguousarray(T.T)
    lit = np.zeros((N + 1, n_max + 1))
    lit[0] = 1.0
    # Bin by bin: lit[i, n] = P(i of the bins added so far are lit | each
    # of the n photons was lost or landed in one of them), a column per n.
    # With r = 1 - eta + eta (the weights added so far), adding a bin keeps
    # each photon in the old bins with probability old / r, so add[k, n] =
    # P(k of n stay old) is one Binomial(n, old / r) table, uncached.  At
    # r = 0 no photon can land yet and any probability gives the same law.
    # The new bin lights if it takes a photon (k < n), else in the dark with d.
    r = 1.0 - eta
    for q in eta * np.asarray(det.bin_weights):
        old, r = r, r + q
        add = np.array(binomial_matrix.__wrapped__(old / r if r else 1.0, n_max))
        none = add.diagonal().copy()
        np.fill_diagonal(add, d * none)
        lit[1:] = (1.0 - d) * none * lit[1:] + lit[:-1] @ add
        lit[0] *= (1.0 - d) * none
        del add  # so the next bin's build and copy are the only tables held
    return lit


@lru_cache(maxsize=8)
def click_matrix(det: DetectorModel, n_max: int) -> np.ndarray:
    """Conditional click law L[i, n] = P(i clicks | n photons enter).

    The returned (N+1) x (n_max+1) array is read-only and cached; no entry
    is negative and every column sums to 1 to within ~3e-17 (N + n_max)
    (< 1e-12 at the cost limit).

    Raises:
        InvalidArgumentError: the law would take more than
            ``MAX_LAW_BYTES`` or ``MAX_LAW_MULTIPLY_ADDS``; nothing is built.
    """
    n_max = check_count(n_max, "n_max")
    N, cols = det.n_bins, n_max + 1
    # Floats: the law, and a non-uniform bin's binomial table.  Work counts
    # multiply-adds of the bin-by-bin products, N^2 n_max^2 in all.  Each
    # Python-level step (n_max photon steps for uniform bins, and N dark ones
    # if d > 0; n_max binomial-table rows and a product per unequal bin) is priced
    # at 10^4 of them, each entry of a photon step at 30 and of a dark step
    # at 8: on 2 CPUs the products ran at 2.6-2.8e9/s (N = 64-128), a step
    # took 3-6 us, a photon-step entry ~10 ns and a dark-step entry 2-3 ns.
    floats = (N + 1) * cols + (0 if det.is_uniform else cols * cols)
    dark = N if det.dark_click_prob else 0
    steps = dark + n_max if det.is_uniform else N * cols
    work = ((N + 1) * (8 * dark + 30 * n_max) if det.is_uniform else N * N * cols * cols) + 10_000 * steps
    if 8 * floats > MAX_LAW_BYTES or work > MAX_LAW_MULTIPLY_ADDS:
        raise InvalidArgumentError(  # min(): an int beyond float range cannot be formatted
            f"a {N + 1} x {cols} click law needs ~{min(8 * floats, 1e300):.2g} bytes and "
            f"~{min(work, 1e300):.2g} multiply-adds; the limits are {MAX_LAW_BYTES:.0e} "
            f"and {MAX_LAW_MULTIPLY_ADDS:.0e}"
        )
    L = _lit_bins(det, n_max)
    L.flags.writeable = False
    return L


def forward_clicks(p, det: DetectorModel) -> ClickDistribution:
    """Map a photon-number distribution through the detector: c = L @ p."""
    L = click_matrix(det, p.n_max)
    return ClickDistribution(L @ p.probs)


def joint_forward_clicks(p_joint: np.ndarray, det1: DetectorModel, det2: DetectorModel) -> JointClickDistribution:
    """Joint click law for a two-mode photon-number grid measured by two detectors."""
    p_joint = np.asarray(p_joint, dtype=float)
    if p_joint.ndim != 2:
        raise InvalidArgumentError("p_joint must be a 2-d photon-number grid")
    p_joint = check_probs(p_joint, "joint photon-number")
    L1 = click_matrix(det1, p_joint.shape[0] - 1)
    L2 = click_matrix(det2, p_joint.shape[1] - 1)
    return JointClickDistribution(L1 @ p_joint @ L2.T)


def condition_on_clicks(joint: JointClickDistribution, which_arm: int, k: int | None):
    """Condition the joint click statistics on k clicks in one arm.

    Args:
        joint: joint click distribution, probs[i, j] with i for arm 1.
        which_arm: 1 or 2, the arm whose click count is the condition.
        k: click count to condition on, or ``None`` for no condition
            (returns the other arm's marginal with probability 1).

    Returns:
        (ClickDistribution over the other arm, probability of the condition).
    """
    if which_arm not in (1, 2):
        raise InvalidArgumentError("which_arm must be 1 or 2")
    grid = joint.probs if which_arm == 1 else joint.probs.T
    if k is None:
        marginal = grid.sum(axis=0)
        return ClickDistribution(marginal / marginal.sum()), 1.0
    k = check_count(k, "k")
    if k >= grid.shape[0]:
        raise InvalidArgumentError(f"k={k} outside 0..{grid.shape[0] - 1}")
    slice_ = grid[k]
    prob = float(slice_.sum())
    if prob < DEGENERATE_PROB:
        raise DegenerateConditioningError(
            f"conditioning on {k} clicks in arm {which_arm} has probability {prob!r}"
        )
    return ClickDistribution(slice_ / prob), prob


def poisson_blocks(means, n_rows: int, seed):
    """Yield ``n_rows`` rows of independent Poisson(means) counts, ``_BLOCK_FLOATS`` floats at a time.

    The blocks are the one draw ``np.random.default_rng(seed).poisson(means, size=(n_rows, len(means)))``
    bit for bit: each block's draw continues the stream, and numpy's sampler returns 0 for a
    zero mean without consuming it, so only the non-zero means are drawn, into a float block
    of zeros; every count is an exact integer in float.  A seed ``default_rng`` refuses (a
    float, a negative int) or a mean beyond numpy's sampler (~9.2e18) is an
    InvalidArgumentError at the first block.
    """
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"seed {seed!r} refused by numpy.random.default_rng: {exc}") from None
    means = np.asarray(means, dtype=float)
    drawn = np.flatnonzero(means)
    def draw(rows: int) -> np.ndarray:  # a block lives here, so the generator holds none it has yielded
        counts = np.zeros((rows, means.size))
        try:
            counts[:, drawn] = rng.poisson(means[drawn], size=(rows, drawn.size))
        except ValueError as exc:
            raise InvalidArgumentError(f"Poisson means too large to sample: {exc}") from None
        return counts
    block = max(1, _BLOCK_FLOATS // means.size)
    for start in range(0, n_rows, block):
        yield draw(min(block, n_rows - start))


def sample_counts(c: ClickDistribution, expected_total: float, seed) -> CountRecord:
    """Draw a count record with independent Poissonian noise per click number.

    Each counts[i] is Poisson with mean expected_total * c.probs[i], the
    one row of ``poisson_blocks``; a fixed seed gives a reproducible record.
    """
    check_nonnegative(expected_total, "expected_total", strict=True)
    return CountRecord(tuple(int(x) for x in next(poisson_blocks(expected_total * c.probs, 1, seed))[0]))
