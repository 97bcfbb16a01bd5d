"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles with a different method
than the library code: the click law by brute-force enumeration of photon
placements and by exact rational inclusion-exclusion, the beam splitter by
matrix exponential of its generator and by exact binomial expansion sector
by sector, the constrained least squares by exhaustive support
enumeration, square linear systems and the constrained least squares on
a given support by exact rational elimination.  Slow and simple on
purpose.  The exception is the column walks (``binomial_by_columns``,
``uniform_click_matrix_by_columns``): the library's own Pascal and photon
recurrences in the strided column order they were first written in, so
that the row-major builds that replaced them can be held to the same bits.
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


def binomial_by_columns(prob, m_max):
    """B[k, m] = C(m, k) prob^k (1 - prob)^(m - k) by Pascal's rule, one column of B at a time."""
    B = np.zeros((m_max + 1, m_max + 1))
    B[0, 0] = 1.0
    for m in range(1, m_max + 1):
        B[:, m] = (1.0 - prob) * B[:, m - 1]
        B[1:, m] += prob * B[:-1, m - 1]
    return B


def uniform_click_matrix_by_columns(n_bins, efficiency, dark_click_prob, n_max):
    """The uniform click law by the photon chain, one column (photon number) at a time.

    Column 0 is the Binomial(N, d) law of the bins lit in the dark, by N
    Pascal steps; each photon then keeps i lit bins with probability
    (1 - eta) + eta i/N and lights a new one with eta (N - i)/N.
    """
    N, eta, d = n_bins, efficiency, dark_click_prob
    lit = np.zeros((N + 1, n_max + 1))
    lit[0, 0] = 1.0
    for _ in range(N if d else 0):
        lit[1:, 0] = (1.0 - d) * lit[1:, 0] + d * lit[:-1, 0]
        lit[0, 0] *= 1.0 - d
    i = np.arange(N + 1)
    stay = (1.0 - eta) + eta * i / N
    move = eta * (N - i[:-1]) / N
    for n in range(1, n_max + 1):
        lit[:, n] = stay * lit[:, n - 1]
        lit[1:, n] += move * lit[:-1, n - 1]
    return lit


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


def _expansions(t_max, ct, st):
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


def sector_matrix(t, ct, st, columns, tables=None):
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


def beamsplitter_by_sectors(amps, transmittance, inverse=False):
    """Two-mode amplitudes amps[n_a, n_b] evolved through the splitter.

    Same convention as ``beamsplitter_sector_by_expm``: a^dag -> sqrt(T)
    a^dag - sqrt(R) b^dag.  Each total-photon sector is evolved by
    ``sector_matrix``, using only the columns the input populates.  The
    output grid is square with side c_a + c_b + 1, so no sector is
    clipped; amplitudes outside the reachable triangle stay 0.
    """
    amps = np.asarray(amps, dtype=float)
    ct = math.sqrt(transmittance)
    st = math.sqrt(1.0 - transmittance)
    if inverse:
        st = -st
    c_a, c_b = amps.shape[0] - 1, amps.shape[1] - 1
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
        out[p, t - p] = sector_matrix(t, ct, st, columns.tolist(), tables) @ v
    return out


def beamsplitter_by_expm(amps, transmittance):
    """Two-mode amplitudes evolved sector by sector with
    ``beamsplitter_sector_by_expm``, on the same grid as
    ``beamsplitter_by_sectors``."""
    amps = np.asarray(amps, dtype=float)
    c_a, c_b = amps.shape[0] - 1, amps.shape[1] - 1
    t_max = c_a + c_b
    out = np.zeros((t_max + 1, t_max + 1))
    for t in range(t_max + 1):
        v = np.array([amps[n, t - n] if n <= c_a and t - n <= c_b else 0.0 for n in range(t + 1)])
        p = np.arange(t + 1)
        out[p, t - p] = beamsplitter_sector_by_expm(t, transmittance) @ v
    return out


def product_amps(fock_n, coherent_probs):
    """|fock_n> in mode a times the coherent state with photon-number law
    ``coherent_probs`` (real amplitudes) in mode b, as a two-mode grid."""
    amps = np.zeros((fock_n + 1, len(coherent_probs)))
    amps[fock_n, :] = np.sqrt(coherent_probs)
    return amps


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

    ``b`` is one right-hand side, shape (m,), or a stack of them, (R, m),
    each row answered on its own.  For each nonempty subset of coordinates,
    solve the equality-constrained problem on that support for every row at
    once; each row keeps its best feasible candidate, ties going to the
    first found.  Exponential in the dimension, valid for small test
    problems.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(b, dtype=float))
    dim = A.shape[1]
    G = A.T @ A
    H = B @ A
    best = np.full((B.shape[0], dim), np.nan)
    best_val = np.full(B.shape[0], np.inf)
    for r in range(1, dim + 1):
        for support in itertools.combinations(range(dim), r):
            idx = list(support)
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = G[np.ix_(idx, idx)]
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            rhs = np.column_stack([H[:, idx], np.ones(B.shape[0])])
            x = np.zeros_like(best)
            x[:, idx] = np.linalg.lstsq(kkt, rhs.T, rcond=None)[0][:r].T
            feasible = np.all(x >= -1e-9, axis=1)
            x = np.clip(x, 0.0, None)
            x /= x.sum(axis=1, keepdims=True)
            val = np.sum((x @ A.T - B) ** 2, axis=1)
            better = feasible & (val < best_val - 1e-15)
            best[better] = x[better]
            best_val[better] = val[better]
    return best[0] if np.ndim(b) == 1 else best


def _eliminate(rows):
    """Gauss-Jordan elimination on augmented rational rows [M | v]; returns M^-1 v."""
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def solve_exact(A, b):
    """Solve the square system A x = b in exact rational arithmetic.

    Every float entry of A and b is taken as the exact rational it
    represents; Gauss-Jordan elimination on Fractions then returns the
    exact solution as a list of Fractions.
    """
    A = np.asarray(A, dtype=float).tolist()
    b = np.asarray(b, dtype=float).tolist()
    return _eliminate([[Fraction(a) for a in row] + [Fraction(v)] for row, v in zip(A, b)])


def simplex_lstsq_on_support_exact(A, b, support):
    """min ||A x - b||_2 subject to sum x = 1 and x = 0 off ``support``, exactly.

    Every float entry of A and b is taken as the exact rational it
    represents.  The KKT system [[A_S^T A_S, 1], [1^T, 0]] [x_S; nu] =
    [A_S^T b; 1] of the support's columns A_S is formed and solved on
    Fractions, where squaring the condition number costs nothing.  Returns
    x as a list of Fractions, 0 off the support; A_S must have full column
    rank.
    """
    A = np.asarray(A, dtype=float)
    columns = [[Fraction(a) for a in A[:, j].tolist()] for j in support]
    b = [Fraction(v) for v in np.asarray(b, dtype=float).tolist()]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    rows = [[dot(u, v) for v in columns] + [Fraction(1), dot(u, b)] for u in columns]
    rows.append([Fraction(1)] * len(columns) + [Fraction(0), Fraction(1)])
    x = [Fraction(0)] * A.shape[1]
    for j, value in zip(support, _eliminate(rows)):
        x[j] = value
    return x


def click_witness_of_counts(counts, witness):
    """Q_B or Q_F of a vector of (possibly fractional) counts, from the moments of the frequencies."""
    counts = np.asarray(counts, dtype=float)
    n_bins = counts.size - 1
    f = counts / counts.sum()
    i = np.arange(counts.size)
    mean = float(np.sum(i * f))
    var = float(np.sum((i - mean) ** 2 * f))
    if witness == "Q_F":
        return var / mean - 1.0
    return n_bins * var / (mean * (n_bins - mean)) - 1.0


def click_witness_gradient(counts, witness):
    """The closed-form gradient dQ/dn_i of ``click_witness_of_counts`` in each count n_i.

    With T = sum n, f = n / T, m = sum i f and v = sum (i - m)^2 f:
    dm/dn_i = (i - m) / T and dv/dn_i = ((i - m)^2 - v) / T, so
    Q_F = v/m - 1 gives (dv m - v dm) / m^2, and Q_B = N v / g - 1 with
    g = m (N - m), dg = (N - 2m) dm, gives N (dv g - v dg) / g^2.
    """
    counts = np.asarray(counts, dtype=float)
    n_bins, total = counts.size - 1, counts.sum()
    f = counts / total
    i = np.arange(counts.size)
    mean = float(np.sum(i * f))
    var = float(np.sum((i - mean) ** 2 * f))
    d_mean = (i - mean) / total
    d_var = ((i - mean) ** 2 - var) / total
    if witness == "Q_F":
        return (d_var * mean - var * d_mean) / mean**2
    g = mean * (n_bins - mean)
    return n_bins * (d_var * g - var * (n_bins - 2 * mean) * d_mean) / g**2


def delta_method_std(counts, witness):
    """Std of Q_B or Q_F under independent Poisson counts: sqrt(sum_i (dQ/dn_i)^2 n_i)."""
    grad = click_witness_gradient(counts, witness)
    return float(np.sqrt(np.sum(grad**2 * np.asarray(counts, dtype=float))))


def delta_method_std_of_rows(rows, counts):
    """Std of any witness under independent Poisson counts, from its rows function.

    One call of ``rows`` on the 2(N+1) rows (n +- h e_i) / (T +- h), with
    h = 1e-6 T, gives dQ/dn_i by central differences; the std is then
    sqrt(sum_i (dQ/dn_i)^2 n_i), as in ``delta_method_std``.
    """
    n = np.asarray(counts, dtype=float)
    total, h = n.sum(), 1e-6 * n.sum()
    steps = h * np.eye(n.size)
    values = rows(np.vstack([(n + steps) / (total + h), (n - steps) / (total - h)]))
    assert values.size == 2 * n.size, "the witness must be defined on every shifted row"
    grad = (values[: n.size] - values[n.size :]) / (2 * h)
    return float(np.sqrt(np.sum(grad**2 * n)))
