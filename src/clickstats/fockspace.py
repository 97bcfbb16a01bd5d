"""Two-mode Fock-space states, beam splitters, loss, and heralded conditioning.

States live on a truncated photon-number grid with real amplitudes, which
covers every input this package needs (Fock and coherent states with a real
amplitude, and anything they evolve into under a real beam splitter).

The beam splitter follows the convention
    a -> sqrt(T) a + sqrt(R) b,      b -> sqrt(T) b - sqrt(R) a,
generated by exp[theta (a^dag b - b^dag a)] with cos(theta) = sqrt(T).  It
conserves total photon number, so it is applied sector by sector: within
the n_a + n_b = t subspace the matrix elements are binomial convolutions,
evaluated exactly per column with ``np.convolve`` and exact factorial
ratios.  No global matrix exponential, no renormalization tricks: the
output grid is enlarged to hold every sector completely, so each amplitude
is the exact <p, t-p| U |psi>.

``catalysis_conditional_pn`` implements single-photon catalysis: |1> meets
a coherent beam on the splitter, one output arm is measured (an ideal
photon-number-resolving detector or a multiplexed click detector) and the
other arm is kept conditioned on the measured outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DEGENERATE_PROB, DetectorModel, click_matrix
from .distributions import PhotonDistribution, binomial_matrix, check_count, coherent_pn
from .errors import DegenerateConditioningError, InvalidArgumentError

_NORM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Pure two-mode state with real amplitudes amps[n_a, n_b]."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=float)
        if amps.ndim != 2 or amps.size == 0:
            raise InvalidArgumentError("amps must be a 2-d amplitude grid")
        if not np.all(np.isfinite(amps)):
            raise InvalidArgumentError("amplitudes must be finite")
        norm = float(np.sum(amps * amps))
        if abs(norm - 1.0) > _NORM_ATOL:
            raise InvalidArgumentError(f"state norm is {norm!r}, expected 1")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def cutoffs(self) -> tuple[int, int]:
        """Maximum photon number representable in each mode."""
        return self.amps.shape[0] - 1, self.amps.shape[1] - 1

    def joint_pn(self) -> np.ndarray:
        """Joint photon-number probabilities |amps|^2 (read-only)."""
        grid = self.amps * self.amps
        grid.flags.writeable = False
        return grid

    def marginal_pn(self, mode: int) -> PhotonDistribution:
        """Photon-number distribution of one mode (0 for a, 1 for b)."""
        if mode not in (0, 1):
            raise InvalidArgumentError("mode must be 0 or 1")
        grid = self.joint_pn()
        marg = grid.sum(axis=1 - mode)
        return PhotonDistribution(marg / marg.sum())


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless real beam splitter, parameterized by transmittance T."""

    transmittance: float

    def __post_init__(self):
        if not 0.0 <= self.transmittance <= 1.0:
            raise InvalidArgumentError("transmittance must lie in [0, 1]")

    @property
    def reflectivity(self) -> float:
        return 1.0 - self.transmittance

    @classmethod
    def from_reflectivity(cls, reflectivity: float) -> "BeamSplitter":
        if not 0.0 <= reflectivity <= 1.0:
            raise InvalidArgumentError("reflectivity must lie in [0, 1]")
        return cls(transmittance=1.0 - reflectivity)

    @classmethod
    def from_angle(cls, theta: float) -> "BeamSplitter":
        """Splitter with reflectivity cos(theta)^2 (theta = 0 swaps the modes)."""
        return cls.from_reflectivity(math.cos(theta) ** 2)


def product_input(fock_n: int, alpha: float, cutoff: int | None = None) -> TwoModeState:
    """|fock_n> in mode a times a real coherent state |alpha> in mode b.

    The coherent amplitudes are sqrt of the (renormalized) truncated Poisson
    weights; ``cutoff`` bounds mode b and defaults to a tail-resolved value.
    """
    fock_n = check_count(fock_n, "fock_n")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise InvalidArgumentError("alpha must be finite and >= 0 (real amplitude convention)")
    coh = coherent_pn(alpha * alpha, n_max=cutoff)
    amps = np.zeros((fock_n + 1, coh.n_max + 1))
    amps[fock_n, :] = np.sqrt(coh.probs)
    return TwoModeState(amps)


def _expansions(t_max: int, ct: float, st: float):
    """Binomial tables for the sector matrices of one splitter, as floats.

    Returns (C, A, B) with C[m, k] = binomial(m, k) by Pascal's rule (exact
    while C(m, k) < 2^53, i.e. m <= 56), and the expansions
    (ct a^dag - st b^dag)^m = sum_k A[m, k] a^dag^k b^dag^(m-k) and
    (st a^dag + ct b^dag)^m = sum_k B[m, k] a^dag^k b^dag^(m-k):
    A[m, k] = C(m, k) ct^k (-st)^(m-k) and B[m, k] = C(m, k) st^k ct^(m-k).
    All three are zero for k > m.
    """
    C = np.zeros((t_max + 1, t_max + 1))
    C[:, 0] = 1.0
    for m in range(1, t_max + 1):
        C[m, 1:] = C[m - 1, 1:] + C[m - 1, :-1]
    k = np.arange(t_max + 1)
    rest = np.clip(k[:, None] - k, 0, None)  # m - k where k <= m
    ct_k, st_k = ct**k, st**k
    return C, C * ct_k * ((-st) ** k)[rest], C * st_k * ct_k[rest]


def _sector_matrix(t: int, ct: float, st: float, columns, tables=None) -> np.ndarray:
    """Beam splitter restricted to the total-photon sector n_a + n_b = t.

    Returns U with U[p, n] = <p, t-p| U |n, t-n> for every n in ``columns``
    and zeros elsewhere.  Column n is the convolution of the binomial
    expansions of (ct a^dag - st b^dag)^n and (st a^dag + ct b^dag)^(t-n),
    rescaled by sqrt(p! (t-p)! / (n! (t-n)!)) = sqrt(C(t, n) / C(t, p)).
    ``tables`` is ``_expansions(t_max, ct, st)`` for some t_max >= t.
    """
    C, A, B = _expansions(t, ct, st) if tables is None else tables
    U = np.zeros((t + 1, t + 1))
    for n in columns:
        m = t - n
        U[:, n] = np.convolve(A[n, : n + 1], B[m, : m + 1]) * np.sqrt(C[t, n] / C[t, : t + 1])
    return U


def apply_beamsplitter(state: TwoModeState, bs: BeamSplitter, inverse: bool = False) -> TwoModeState:
    """Evolve a two-mode state through the splitter, exactly per sector.

    The output grid is square with side c_a + c_b + 1, large enough that no
    sector is clipped; amplitudes outside the reachable triangle stay 0.
    """
    ct = math.sqrt(bs.transmittance)
    st = math.sqrt(bs.reflectivity)
    if inverse:
        st = -st
    amps = state.amps
    c_a, c_b = state.cutoffs
    t_max = c_a + c_b
    out = np.zeros((t_max + 1, t_max + 1))
    tables = _expansions(t_max, ct, st)
    for t in range(t_max + 1):
        v = np.zeros(t + 1)
        n = np.arange(max(0, t - c_b), min(t, c_a) + 1)
        v[n] = amps[n, t - n]
        columns = np.flatnonzero(v)
        if columns.size == 0:
            continue
        p = np.arange(t + 1)
        out[p, t - p] = _sector_matrix(t, ct, st, columns.tolist(), tables) @ v
    return TwoModeState(out)


def apply_loss(p: PhotonDistribution, efficiency: float) -> PhotonDistribution:
    """Binomial loss channel: each photon independently survives with
    probability ``efficiency``."""
    if not 0.0 <= efficiency <= 1.0:
        raise InvalidArgumentError("efficiency must lie in [0, 1]")
    return PhotonDistribution(binomial_matrix(efficiency, p.n_max) @ p.probs)


def catalysis_conditional_pn(
    alpha: float,
    reflectivity: float,
    herald_k: int,
    herald_detector: DetectorModel | None = None,
    cutoff: int | None = None,
) -> tuple[PhotonDistribution, float]:
    """Signal photon statistics of single-photon catalysis.

    A single photon (mode a) and a coherent state |alpha> (mode b) meet on
    a splitter with the given reflectivity; mode a is then measured and the
    signal (mode b) is kept when the measurement reports ``herald_k``.

    Args:
        alpha: real coherent amplitude (mean photon number alpha**2).
        reflectivity: splitter reflectivity; 0 leaves both modes untouched.
        herald_k: required herald outcome (photon count, or click count
            when a click detector is given).
        herald_detector: ``None`` for an ideal photon-number-resolving
            herald; otherwise the click detector watching mode a.
        cutoff: optional photon-number cutoff for the coherent mode.

    Returns:
        (conditional signal distribution, herald outcome probability).

    Raises:
        DegenerateConditioningError: the herald outcome has probability
            below 1e-15, so there is nothing to condition on.
    """
    herald_k = check_count(herald_k, "herald_k")
    state = product_input(1, alpha, cutoff=cutoff)
    out = apply_beamsplitter(state, BeamSplitter.from_reflectivity(reflectivity))
    joint = out.joint_pn()
    n_a = joint.shape[0] - 1
    if herald_detector is None:
        if herald_k > n_a:
            weights = np.zeros(n_a + 1)
        else:
            weights = np.zeros(n_a + 1)
            weights[herald_k] = 1.0
    else:
        L = click_matrix(herald_detector, n_a)
        if herald_k > herald_detector.n_bins:
            raise InvalidArgumentError(
                f"herald_k={herald_k} exceeds the detector's {herald_detector.n_bins} bins"
            )
        weights = L[herald_k]
    unnorm = weights @ joint
    prob = float(unnorm.sum())
    if prob < DEGENERATE_PROB:
        raise DegenerateConditioningError(
            f"herald outcome {herald_k} has probability {prob!r}"
        )
    return PhotonDistribution(unnorm / prob), prob
