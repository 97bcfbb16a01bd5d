"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles with a different method
than the library code: the click law by brute-force enumeration of photon
placements and by exact rational inclusion-exclusion, the beam splitter by
matrix exponential of its generator, the constrained least squares by
exhaustive support enumeration, square linear systems by exact rational
elimination.  Slow and simple on purpose.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.linalg import expm


def _compositions(total, parts):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def click_probs_by_enumeration(n_photons, n_bins, bin_weights, efficiency, dark_click_prob):
    """P(i clicks | n photons) by summing over every photon placement.

    Each photon is independently lost (prob 1-eta) or lands in bin b (prob
    eta*w_b); placements are enumerated as counts per (lost, bin_1..bin_N)
    with multinomial weights, then every silent bin flips to a click with
    the dark probability.
    """
    if bin_weights is None:
        bin_weights = [1.0 / n_bins] * n_bins
    probs_photon_only = np.zeros(n_bins + 1)
    outcomes = [1.0 - efficiency] + [efficiency * w for w in bin_weights]
    for counts in _compositions(n_photons, n_bins + 1):
        weight = math.factorial(n_photons)
        for c, q in zip(counts, outcomes):
            weight = weight / math.factorial(c) * q**c
        fired = sum(1 for c in counts[1:] if c > 0)
        probs_photon_only[fired] += weight
    if dark_click_prob == 0.0:
        return probs_photon_only
    d = dark_click_prob
    probs = np.zeros(n_bins + 1)
    for fired, p in enumerate(probs_photon_only):
        silent = n_bins - fired
        for extra in range(silent + 1):
            probs[fired + extra] += (
                p * math.comb(silent, extra) * d**extra * (1 - d) ** (silent - extra)
            )
    return probs


def click_matrix_exact(n_bins, bin_weights, efficiency, dark_click_prob, n_max):
    """P(i clicks | n photons) for n = 0..n_max by exact inclusion-exclusion.

    Every float parameter is taken as the exact rational it represents.  For
    a bin subset C, a photon leaves every bin outside C silent with
    probability s_C = (1 - eta) + eta * W_C, W_C the weight of C, so

        P(i photon-lit bins | n) =
            sum_{j <= i} (-1)^(i-j) C(N-j, i-j) sum_{|C|=j} s_C^n,

    then each silent bin fires with the dark probability d.  The sums are
    exact integers over the common denominator D^n g^N (s_C = A_C / D,
    d = e / g), divided once, so each entry is the correctly rounded exact
    value.  The alternating sum is why this cannot be done in floats.
    """
    N = n_bins
    eta = Fraction(efficiency)
    a, b = eta.numerator, eta.denominator
    if bin_weights is None or len(set(bin_weights)) == 1:
        # All j-subsets share s_C = (1 - eta) + eta j/N.
        D = b * N
        groups = [{(b - a) * N + a * j: math.comb(N, j)} for j in range(N + 1)]
    else:
        weights = [Fraction(w) for w in bin_weights]
        V = math.lcm(*[w.denominator for w in weights])
        U = [int(w * V) for w in weights]
        D = b * V
        groups = [
            Counter((b - a) * V + a * sum(combo) for combo in itertools.combinations(U, j))
            for j in range(N + 1)
        ]
    # power_sums[j][n] = sum over j-subsets C of A_C^n
    power_sums = []
    for group in groups:
        sums = [0] * (n_max + 1)
        for A, mult in group.items():
            power = 1
            for n in range(n_max + 1):
                sums[n] += mult * power
                power *= A
        power_sums.append(sums)
    lit = [
        [sum((-1) ** (i - j) * math.comb(N - j, i - j) * power_sums[j][n] for j in range(i + 1)) for n in range(n_max + 1)]
        for i in range(N + 1)
    ]
    d = Fraction(dark_click_prob)
    e, g = d.numerator, d.denominator
    L = np.empty((N + 1, n_max + 1))
    for n in range(n_max + 1):
        denominator = D**n * g**N
        for i in range(N + 1):
            # d^(i-s) (1-d)^(N-i) = e^(i-s) (g-e)^(N-i) g^s / g^N
            numerator = sum(
                lit[s][n] * math.comb(N - s, i - s) * e ** (i - s) * (g - e) ** (N - i) * g**s
                for s in range(i + 1)
            )
            L[i, n] = numerator / denominator  # big-int division rounds correctly
    return L


def beamsplitter_sector_by_expm(t, transmittance):
    """Sector matrix of exp[theta (a^dag b - b^dag a)], cos(theta)=sqrt(T).

    Basis index n is the mode-a photon number within the n_a + n_b = t
    sector; the generator's only nonzero elements come from the ladder
    algebra, and the exponential is taken numerically.
    """
    theta = math.atan2(math.sqrt(1.0 - transmittance), math.sqrt(transmittance))
    raising = np.zeros((t + 1, t + 1))
    for n in range(t):
        # a^dag b maps |n, t-n> to sqrt((n+1)(t-n)) |n+1, t-n-1>
        raising[n + 1, n] = math.sqrt((n + 1) * (t - n))
    return expm(theta * (raising - raising.T))


def two_photon_amplitudes(transmittance):
    """Hand-expanded two-photon beam splitter amplitudes.

    Returns a dict mapping (input, output) kets |n_a, n_b> to amplitudes,
    from expanding (sqrt(T) a^dag - sqrt(R) b^dag) and
    (sqrt(R) a^dag + sqrt(T) b^dag) monomials directly.
    """
    T = transmittance
    R = 1.0 - T
    st, ct = math.sqrt(R), math.sqrt(T)
    return {
        ((2, 0), (2, 0)): T,
        ((2, 0), (1, 1)): -math.sqrt(2 * T * R),
        ((2, 0), (0, 2)): R,
        ((1, 1), (2, 0)): math.sqrt(2 * T * R),
        ((1, 1), (1, 1)): T - R,
        ((1, 1), (0, 2)): -math.sqrt(2 * T * R),
        ((0, 2), (2, 0)): R,
        ((0, 2), (1, 1)): math.sqrt(2 * T * R),
        ((0, 2), (0, 2)): T,
        ((1, 0), (1, 0)): ct,
        ((1, 0), (0, 1)): -st,
        ((0, 1), (1, 0)): st,
        ((0, 1), (0, 1)): ct,
    }


def lstsq_simplex_by_enumeration(A, b):
    """Simplex-constrained least squares by trying every support set.

    For each nonempty subset of coordinates, solve the equality-constrained
    problem on that support; keep the best feasible candidate.  Exponential
    in the dimension, valid for small test problems.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    dim = A.shape[1]
    G = A.T @ A
    h = A.T @ b
    best = None
    best_val = np.inf
    for r in range(1, dim + 1):
        for support in itertools.combinations(range(dim), r):
            idx = list(support)
            k = len(idx)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = G[np.ix_(idx, idx)]
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.append(h[idx], 1.0)
            try:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            x = np.zeros(dim)
            x[idx] = sol[:k]
            if np.any(x < -1e-9):
                continue
            x = np.clip(x, 0.0, None)
            x /= x.sum()
            val = float(np.sum((A @ x - b) ** 2))
            if val < best_val - 1e-15:
                best_val = val
                best = x
    return best


def solve_exact(A, b):
    """Solve the square system A x = b in exact rational arithmetic.

    Every float entry of A and b is taken as the exact rational it
    represents; Gauss-Jordan elimination on Fractions then returns the
    exact solution as a list of Fractions.
    """
    A = np.asarray(A, dtype=float).tolist()
    b = np.asarray(b, dtype=float).tolist()
    n = len(b)
    rows = [[Fraction(a) for a in row] + [Fraction(v)] for row, v in zip(A, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][n] / rows[r][r] for r in range(n)]
