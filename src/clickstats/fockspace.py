"""Loss, and heralded single-photon catalysis in closed form.

``catalysis_conditional_pn`` implements single-photon catalysis: |1> meets
a coherent beam on a real beam splitter, one output arm is measured (an
ideal photon-number-resolving detector or a multiplexed click detector) and
the other arm is kept conditioned on the measured outcome.

The splitter follows the convention
    U a^dag U^dag = sqrt(T) a^dag - sqrt(R) b^dag,
    U b^dag U^dag = sqrt(R) a^dag + sqrt(T) b^dag,
generated by exp[theta (a^dag b - b^dag a)] with cos(theta) = sqrt(T).  The
input is |1> times the truncated coherent state sum_t c_t |t>, c_t the
square roots of ``coherent_pn`` up to its cutoff m.  The coherent photons
split binomially,
    U |0, t> = sum_p sqrt(C(t, p) R^p T^(t-p)) |p, t-p>,
so with phi[p, q] = c_(p+q) sqrt(C(p+q, p) R^p T^q) for p + q <= m, the
output amplitudes on the (m+2) x (m+2) grid are
    psi[p, q] = sqrt(T) sqrt(p) phi[p-1, q] - sqrt(R) sqrt(q) phi[p, q-1].
This is exact for the truncated input; no general two-mode splitter is
needed.  ``tests/oracles.py`` holds a general splitter, applied sector by
sector, as the reference the closed form is tested against.

Interference zeros: for herald k the signal amplitude at n vanishes when
T k = R n, where the two terms of psi cancel in exact arithmetic.  In
floats either form of the evolution leaves 0 or a residue near 1e-32 there,
and not always the same one: on the default sweep (k = 1) R = 0.1, n = 9
gives 0 here and 7.6e-33 through the sector-by-sector oracle, while at
R = 0.25, n = 3 both give exactly 0.  Such residues lie far below the
1e-15 absolute floor at which probabilities are compared.
"""

from __future__ import annotations

import math

import numpy as np

from .detector import DEGENERATE_PROB, DetectorModel, click_matrix
from .distributions import (
    PhotonDistribution,
    binomial_matrix,
    check_count,
    check_nonnegative,
    check_probability,
    coherent_pn,
)
from .errors import DegenerateConditioningError, InvalidArgumentError


def apply_loss(p: PhotonDistribution, efficiency: float) -> PhotonDistribution:
    """Binomial loss channel: each photon independently survives with
    probability ``efficiency``."""
    check_probability(efficiency, "efficiency")
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
    alpha = check_nonnegative(alpha, "alpha")
    check_probability(reflectivity, "reflectivity")
    if cutoff is not None:
        cutoff = check_count(cutoff, "cutoff")
    c = np.sqrt(coherent_pn(alpha * alpha, n_max=cutoff).probs)
    m = c.size - 1
    # phi[p, q] from column t = p + q of the binomial law (uncached: R is new per point).  A t
    # past the cutoff m has p >= 1, so clipped to 0 it reads the exact zero B[p, 0]: phi = +0.0.
    p = np.arange(m + 1)
    t = p[:, None] + p
    t[t > m] = 0
    phi = c[t] * np.sqrt(binomial_matrix.__wrapped__(reflectivity, m)[p[:, None], t])
    root = np.sqrt(np.arange(1, m + 2))
    psi = np.zeros((m + 2, m + 2))
    psi[1:, :-1] = math.sqrt(1.0 - reflectivity) * root[:, None] * phi
    psi[:-1, 1:] -= math.sqrt(reflectivity) * root * phi
    joint = psi * psi
    n_a = m + 1
    if herald_detector is None:
        unnorm = joint[herald_k] if herald_k <= n_a else np.zeros(n_a + 1)
    else:
        if herald_k > herald_detector.n_bins:
            raise InvalidArgumentError(
                f"herald_k={herald_k} exceeds the detector's {herald_detector.n_bins} bins"
            )
        unnorm = click_matrix(herald_detector, n_a)[herald_k] @ joint
    prob = float(unnorm.sum())
    if prob < DEGENERATE_PROB:
        raise DegenerateConditioningError(
            f"herald outcome {herald_k} has probability {prob!r}"
        )
    return PhotonDistribution(unnorm / prob), prob
