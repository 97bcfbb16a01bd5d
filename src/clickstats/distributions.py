"""Single-mode photon-number distributions.

A photon-number distribution is a truncated probability vector ``p[n]``,
n = 0..n_max.  Constructors guarantee that the untruncated tail beyond the
cutoff is below ``TAIL_TOLERANCE`` (extending the cutoff automatically when
necessary, up to ``HARD_CUTOFF_LIMIT``) and renormalize after truncation, so
silent truncation never biases the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffOverflowError, InvalidArgumentError

#: Untruncated probability mass allowed to fall beyond the cutoff.
TAIL_TOLERANCE = 1e-10

#: Constructors refuse to extend a cutoff past this photon number.
HARD_CUTOFF_LIMIT = 512

_NORM_ATOL = 1e-9

#: Photon numbers at which coherent_pn evaluates the Poisson law, with their
#: lgamma(k + 1).  Past mu + 40 sqrt(mu) + 40 the Poisson mass is below
#: 1e-50, so for every mean up to HARD_CUTOFF_LIMIT the grid holds every
#: tail the cutoff search can ask for.
_POISSON_K = np.arange(HARD_CUTOFF_LIMIT + 40 * math.isqrt(HARD_CUTOFF_LIMIT) + 80)
_LOG_FACTORIALS = np.array([math.lgamma(k + 1) for k in range(_POISSON_K.size)])


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Probability vector over photon number n = 0..n_max."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidArgumentError("probs must be a non-empty 1-d vector")
        object.__setattr__(self, "probs", check_probs(probs, "photon-number"))

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    @property
    def mean(self) -> float:
        return moments(self)[0]

    @property
    def variance(self) -> float:
        return moments(self)[1]


def row_moments(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) of each row of a stack of distributions over n = 0, 1, ...

    The variance is E[n^2] - E[n]^2, the form the witnesses are defined on.
    """
    n = np.arange(probs.shape[1], dtype=float)
    mean = probs @ n
    return mean, probs @ (n * n) - mean * mean


def moments(p) -> tuple[float, float]:
    """Return (mean, variance) of a photon-number (or click-number) distribution: ``row_moments`` of one row."""
    mean, var = row_moments(p.probs[None, :])
    return float(mean[0]), float(var[0])


def is_integer(value) -> bool:
    """Whether ``value`` is finite and integer-valued; an int of any size is."""
    try:
        return int(value) == value
    except (OverflowError, ValueError, TypeError):  # infinity, NaN or not a number
        return False


def check_count(value, name: str) -> int:
    """``value`` as an int; InvalidArgumentError unless it is a finite integer >= 0."""
    if not is_integer(value) or value < 0:
        raise InvalidArgumentError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def check_nonnegative(value, name: str, strict: bool = False) -> float:
    """``value`` as a float; InvalidArgumentError unless it is a number, not text, finite and >= 0 (> 0 if ``strict``)."""
    try:
        x = math.nan if isinstance(value, (str, bytes)) else float(value)
    except (OverflowError, TypeError, ValueError):  # an int past float range, None, a sequence
        x = math.nan  # refused below
    if not math.isfinite(x) or x < 0 or (strict and x == 0):
        raise InvalidArgumentError(f"{name} must be a finite number {'>' if strict else '>='} 0, got {value!r}")
    return x


def check_probs(probs: np.ndarray, what: str) -> np.ndarray:
    """``probs`` clipped at 0 and read-only, once they are finite, >= -1e-12 and sum to 1."""
    if not np.isfinite(probs).all():
        raise InvalidArgumentError(f"{what} probabilities must be finite")
    if (probs < -1e-12).any():
        raise InvalidArgumentError(f"{what} probabilities must be >= 0")
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > _NORM_ATOL:
        raise InvalidArgumentError(f"{what} probabilities sum to {float(probs.sum())!r}, expected 1")
    probs.flags.writeable = False
    return probs


def check_probability(value, name: str) -> float:
    """``check_nonnegative``'s float; InvalidArgumentError unless it is also <= 1."""
    x = check_nonnegative(value, name)
    if x > 1.0:
        raise InvalidArgumentError(f"{name} must lie in [0, 1], got {value!r}")
    return x


def _resolve_cutoff(requested, tails, label):
    """Smallest cutoff >= requested whose tail mass is below TAIL_TOLERANCE.

    ``tails[n]`` must hold the untruncated mass at photon numbers > n for
    n = 0..HARD_CUTOFF_LIMIT.  Raises CutoffOverflowError if no cutoff up to
    HARD_CUTOFF_LIMIT suffices.
    """
    n = 0 if requested is None else check_count(requested, "n_max")
    if n > HARD_CUTOFF_LIMIT:
        raise CutoffOverflowError(
            f"requested cutoff {n} exceeds hard limit {HARD_CUTOFF_LIMIT}"
        )
    small = np.flatnonzero(tails[n : HARD_CUTOFF_LIMIT + 1] < TAIL_TOLERANCE)
    if small.size == 0:
        raise CutoffOverflowError(
            f"{label}: tail mass cannot be brought below {TAIL_TOLERANCE} "
            f"with cutoff <= {HARD_CUTOFF_LIMIT}"
        )
    return n + int(small[0])


def coherent_pn(mean_photons: float, n_max: int | None = None) -> PhotonDistribution:
    """Poissonian photon statistics of a coherent state with the given mean.

    The cutoff is extended beyond ``n_max`` if needed to keep the truncated
    tail below TAIL_TOLERANCE; the result is renormalized and cached.
    """
    mu = check_nonnegative(mean_photons, "mean_photons")
    return _coherent_pn(mu, None if n_max is None else check_count(n_max, "n_max"))


@lru_cache(maxsize=64)
def _coherent_pn(mu: float, n_max: int | None) -> PhotonDistribution:
    if mu > HARD_CUTOFF_LIMIT:
        # Over a third of the mass lies above any allowed cutoff.
        raise CutoffOverflowError(
            f"coherent_pn: mean {mu!r} exceeds the hard cutoff limit {HARD_CUTOFF_LIMIT}"
        )
    if mu == 0:
        pmf = (_POISSON_K == 0).astype(float)
    else:
        # scipy's formula: exp(k log mu - mu - lgamma(k + 1))
        pmf = np.exp(_POISSON_K * math.log(mu) - mu - _LOG_FACTORIALS)
    # Direct sums of the non-negative terms above n, smallest first; never
    # 1 - cdf, which cancels next to TAIL_TOLERANCE.
    tails = np.cumsum(pmf[::-1])[::-1][1:]
    n_max = _resolve_cutoff(n_max, tails, "coherent_pn")
    probs = pmf[: n_max + 1]
    return PhotonDistribution(probs / probs.sum())


def thermal_pn(mean_photons: float, n_max: int | None = None) -> PhotonDistribution:
    """Thermal (geometric) photon statistics: p_n \\propto mu^n / (1+mu)^(n+1)."""
    mu = check_nonnegative(mean_photons, "mean_photons")
    r = mu / (1.0 + mu)
    # tail beyond n is r^(n+1), all zero for the vacuum
    n_max = _resolve_cutoff(n_max, r ** np.arange(1.0, HARD_CUTOFF_LIMIT + 2), "thermal_pn")
    if mu == 0:
        return fock_pn(0, n_max)
    n = np.arange(n_max + 1)
    log_probs = n * math.log(r) + math.log(1.0 - r)
    probs = np.exp(log_probs)
    return PhotonDistribution(probs / probs.sum())


@lru_cache(maxsize=64)
def binomial_matrix(prob: float, m_max: int) -> np.ndarray:
    """B[k, m] = C(m, k) prob^k (1 - prob)^(m - k) for 0 <= k, m <= m_max.

    Built column by column with Pascal's rule: every term is non-negative,
    and prob = 0 or 1 is exact.  Each column is a contiguous row of the
    transpose while it is built.  The returned array is read-only and cached.
    """
    T = np.zeros((m_max + 1, m_max + 1))
    T[0, 0] = 1.0
    for m in range(1, m_max + 1):
        T[m] = (1.0 - prob) * T[m - 1]
        T[m, 1:] += prob * T[m - 1, :-1]
    B = np.ascontiguousarray(T.T)
    B.flags.writeable = False
    return B


def fock_pn(n: int, n_max: int | None = None) -> PhotonDistribution:
    """Photon-number eigenstate: all mass at n."""
    n = check_count(n, "n")
    n_max = n if n_max is None else check_count(n_max, "n_max")
    if n > n_max:
        raise InvalidArgumentError(f"n={n} exceeds n_max={n_max}")
    if n_max > HARD_CUTOFF_LIMIT:
        raise CutoffOverflowError(
            f"requested cutoff {n_max} exceeds hard limit {HARD_CUTOFF_LIMIT}"
        )
    probs = np.zeros(n_max + 1)
    probs[n] = 1.0
    return PhotonDistribution(probs)
