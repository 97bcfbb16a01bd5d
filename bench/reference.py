"""Independent references that the benchmark checks every op's output against.

Nothing here imports clickstats.  Each quantity is rebuilt by another method
than the library's:

- the click law by a non-negative float recurrence (photons land one at a
  time), then a binomial dark-click flip, where the library uses exact inclusion-exclusion;
- photon statistics from closed forms (``math.lgamma`` Poisson, geometric
  thermal) and loss from explicit binomial sums, where the library uses scipy;
- the catalysis beam splitter by the matrix exponential of its generator
  (``tests/oracles.py``), where the library convolves binomial expansions;
- the simplex-constrained least squares by a support guess that is accepted
  only with a KKT optimality certificate, falling back to the exhaustive
  support enumeration of ``tests/oracles.py``, batched over rows.

Agreement is required to ``RTOL`` relative, the round-off allowance of the
project.  Values that are zero in exact arithmetic need an absolute floor
too: ``PROB_ATOL`` for probabilities, and ``WITNESS_ATOL`` for witnesses
and their error bars, whose natural unit is 1 (Q = -1 for a Fock state).
The witness floor is that loose because the inversion route amplifies
round-off in the click law by cond(L) and again by 1/mean: two correct
implementations of L differ in Q_M by up to ~1e-10.
No check is statistical: bootstrap outputs are recomputed from the same
seeded streams, which the library documents, and compared exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import beamsplitter_sector_by_expm

RTOL = 1e-9
PROB_ATOL = 1e-15
WITNESS_ATOL = 1e-9

#: Free coordinates this far below zero are round-off and get clipped; the
#: same tolerance the library's active set uses.
_CLIP_TOL = 1e-12
#: Optimality certificate: gradient slack allowed on pinned coordinates.
_KKT_TOL = 1e-9


def expect_close(errors: list, what: str, got, want, atol=WITNESS_ATOL) -> None:
    """Append to ``errors`` unless |got - want| <= atol + RTOL |want| everywhere."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{what}: got shape {got.shape}, want {want.shape}")
        return
    bad = np.flatnonzero(~(np.abs(got - want) <= atol + RTOL * np.abs(want)))
    if bad.size:
        i = np.unravel_index(bad[0], got.shape)
        where = f"[{', '.join(map(str, i))}]" if got.ndim else ""
        errors.append(f"{what}: {bad.size} of {got.size} differ; {what}{where} got {float(got[i])!r}, want {float(want[i])!r}")


# --- photon statistics -------------------------------------------------------


def poisson_pn(mu: float, n_max: int) -> np.ndarray:
    p = np.exp([k * math.log(mu) - mu - math.lgamma(k + 1) for k in range(n_max + 1)])
    return p / p.sum()


def thermal_pn(mu: float, n_max: int) -> np.ndarray:
    r = mu / (1.0 + mu)
    p = (1.0 - r) * r ** np.arange(n_max + 1)
    return p / p.sum()


def poisson_cutoff(mu: float, tol: float = 1e-10) -> int:
    """Smallest n with Poisson(mu) mass beyond n below ``tol`` (tail summed from far out)."""
    top = int(mu + 50 * math.sqrt(mu) + 50)
    pmf = np.exp([k * math.log(mu) - mu - math.lgamma(k + 1) for k in range(top + 1)])
    beyond = np.cumsum(pmf[::-1])[::-1][1:]  # beyond[n] = mass at n + 1 .. top
    return int(np.argmax(beyond < tol))


def loss(p: np.ndarray, eta: float) -> np.ndarray:
    """Each photon survives with probability eta: explicit binomial sums."""
    out = np.zeros(p.size)
    for n, pn in enumerate(p):
        for k in range(n + 1):
            out[k] += pn * math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return out


# --- click law -----------------------------------------------------------------


def _lit_counts_uniform(n_bins: int, eta: float, n_max: int) -> np.ndarray:
    """P(i bins lit | n photons): a photon keeps i lit bins with probability
    (1 - eta) + eta i/N and lights a new one with eta (N - i)/N."""
    i = np.arange(n_bins + 1)
    stay = (1.0 - eta) + eta * i / n_bins
    move = eta * (n_bins - i) / n_bins
    out = np.zeros((n_bins + 1, n_max + 1))
    col = np.zeros(n_bins + 1)
    col[0] = 1.0
    for n in range(n_max + 1):
        out[:, n] = col
        nxt = col * stay
        nxt[1:] += col[:-1] * move[:-1]
        col = nxt
    return out


def _dark_flips(n_bins: int, dark: float) -> np.ndarray:
    """D[j, i]: i lit bins become j clicks when each silent bin fires with ``dark``."""
    D = np.zeros((n_bins + 1, n_bins + 1))
    for i in range(n_bins + 1):
        silent = n_bins - i
        for extra in range(silent + 1):
            D[i + extra, i] = math.comb(silent, extra) * dark**extra * (1.0 - dark) ** (silent - extra)
    return D


@lru_cache(maxsize=64)
def click_law(n_bins: int, eta: float, dark: float, n_max: int) -> np.ndarray:
    """Uniform bins: P(j clicks | n photons), j rows, n columns."""
    lit = _lit_counts_uniform(n_bins, eta, n_max)
    if dark == 0.0:
        return lit
    return _dark_flips(n_bins, dark) @ lit


# --- witnesses -----------------------------------------------------------------


def _mean_var(probs):
    probs = np.asarray(probs, dtype=float)
    k = np.arange(probs.size)
    mean = float(k @ probs)
    return mean, float(((k - mean) ** 2) @ probs)


def q_binomial(c) -> float:
    n_bins = len(c) - 1
    mean, var = _mean_var(c)
    return n_bins * var / (mean * (n_bins - mean)) - 1.0


def q_fake(c) -> float:
    mean, var = _mean_var(c)
    return var / mean - 1.0


def q_mandel(p) -> float:
    mean, var = _mean_var(p)
    return var / mean - 1.0


# --- constrained inversion -----------------------------------------------------


def _kkt_solve(G, h, support):
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = G[np.ix_(support, support)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    sol = np.linalg.solve(kkt, np.append(h[support], 1.0))
    return sol[:k], sol[k]


def simplex_ls_rows(A, B) -> np.ndarray:
    """argmin ||A p - b|| over the probability simplex, for every row b of ``B``.

    Guesses the support by dropping the most negative coordinate of the
    equality-constrained solution until none is negative, then accepts the
    guess only if the KKT conditions certify it optimal; otherwise defers to
    the exhaustive enumeration of ``tests/oracles.py``.  Rows whose current
    guesses agree are solved together.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    G = A.T @ A
    H = B @ A  # row r: A.T @ b_r
    rows, dim = H.shape
    X = np.zeros((rows, dim))
    support = np.ones((rows, dim), dtype=bool)
    pending = np.arange(rows)
    fallback = []
    while pending.size:
        masks, group = np.unique(support[pending], axis=0, return_inverse=True)
        group = group.reshape(-1)
        still = []
        for g, mask in enumerate(masks):
            members = pending[group == g]
            s = np.flatnonzero(mask)
            if not s.size:
                fallback.extend(members)
                continue
            k = s.size
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = G[np.ix_(s, s)]
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.column_stack([H[np.ix_(members, s)], np.ones(members.size)])
            sol = np.linalg.solve(kkt, rhs.T).T
            x_s, nu = sol[:, :k], sol[:, k]
            worst = np.argmin(x_s, axis=1)
            negative = x_s[np.arange(members.size), worst] < -_CLIP_TOL
            support[members[negative], s[worst[negative]]] = False
            still.append(members[negative])
            done = members[~negative]
            x = np.zeros((done.size, dim))
            x[:, s] = np.clip(x_s[~negative], 0.0, None)
            slack = x @ G - H[done] + nu[~negative, None]  # KKT: G x + nu = h on the support
            floor = -_KKT_TOL * np.maximum(1.0, np.abs(H[done]).max(axis=1))
            certified = np.all(slack >= floor[:, None], axis=1)
            X[done[certified]] = x[certified]
            fallback.extend(done[~certified])
        pending = np.concatenate(still)
    if fallback:
        X[fallback] = _simplex_ls_by_enumeration(A, B[fallback])
    return X


def _simplex_ls_by_enumeration(A, B) -> np.ndarray:
    """``lstsq_simplex_by_enumeration`` of ``tests/oracles.py`` for every row
    of ``B`` at once: every support is solved for all rows together, and each
    row keeps its best feasible candidate, ties going to the first found."""
    G = A.T @ A
    H = B @ A
    rows, dim = H.shape
    best = np.full((rows, dim), np.nan)
    best_val = np.full(rows, np.inf)
    for r in range(1, dim + 1):
        for support in itertools.combinations(range(dim), r):
            s = list(support)
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = G[np.ix_(s, s)]
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            sol = np.linalg.lstsq(kkt, np.column_stack([H[:, s], np.ones(rows)]).T, rcond=None)[0].T
            x = np.zeros((rows, dim))
            x[:, s] = sol[:, :r]
            feasible = ~np.any(x < -1e-9, axis=1)
            x = np.clip(x, 0.0, None)
            x /= x.sum(axis=1, keepdims=True)
            val = np.sum((x @ A.T - B) ** 2, axis=1)
            better = feasible & (val < best_val - 1e-15)
            best[better] = x[better]
            best_val[better] = val[better]
    return best


def q_mandel_rows(X) -> np.ndarray:
    """Mandel witness of each row of unnormalised photon statistics."""
    P = X / X.sum(axis=1, keepdims=True)
    n = np.arange(P.shape[1])
    mean = P @ n
    var = ((n - mean[:, None]) ** 2 * P).sum(axis=1)
    return var / mean - 1.0


def q_mandel_by_inversion(c, n_bins, dark, n_max) -> float:
    """Mandel witness of the photons behind clicks, efficiency stripped to 1."""
    x = simplex_ls_rows(click_law(n_bins, 1.0, dark, n_max), c)[0]
    return q_mandel(x / x.sum())


# --- bootstrap streams -----------------------------------------------------------


def poisson_replicas(counts, n_replicas: int, seed) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    rng = np.random.default_rng(seed)
    return rng.poisson(lam=counts, size=(n_replicas, counts.size)).astype(float)


def check_click_bootstrap(errors, what, est, counts, witness, n_replicas, seed) -> None:
    """Q_B / Q_F value and bootstrap, recomputed from the same replica stream."""
    counts = np.asarray(counts, dtype=float)
    n_bins = counts.size - 1
    score = q_binomial if witness == "Q_B" else q_fake
    expect_close(errors, f"{what}.value", est["value"], score(counts / counts.sum()))
    rows = poisson_replicas(counts, n_replicas, seed)
    rows = rows[rows.sum(axis=1) > 0]
    freq = rows / rows.sum(axis=1, keepdims=True)
    k = np.arange(n_bins + 1)
    mean = freq @ k
    var = ((k - mean[:, None]) ** 2 * freq).sum(axis=1)
    if witness == "Q_B":
        keep = (mean > 0) & (mean < n_bins)
        values = n_bins * var[keep] / (mean[keep] * (n_bins - mean[keep])) - 1.0
    else:
        keep = mean > 0
        values = var[keep] / mean[keep] - 1.0
    _check_spread(errors, what, est, values, n_replicas)


def _check_spread(errors, what, est, values, n_replicas) -> None:
    """Error bar against the replica values; the CSV outputs omit the counts."""
    if est.get("n_replicas", values.size) != values.size:
        errors.append(f"{what}.n_replicas: got {est['n_replicas']}, want {values.size}")
        return
    expect_close(errors, f"{what}.std_error", est["std_error"], values.std(ddof=1))
    if "dropped_fraction" in est:
        expect_close(errors, f"{what}.dropped_fraction", est["dropped_fraction"], 1.0 - values.size / n_replicas)


def check_q_mandel_bootstrap(errors, what, est, counts, n_bins, dark, n_max, n_replicas, seed) -> None:
    """Inversion-route Q_M value and bootstrap: every replica is recomputed,
    and compared one by one with the replica ``samples`` when the output has them."""
    counts = np.asarray(counts, dtype=float)
    expect_close(errors, f"{what}.value", est["value"], q_mandel_by_inversion(counts / counts.sum(), n_bins, dark, n_max))
    rows = poisson_replicas(counts, n_replicas, seed)
    rows = rows[rows.sum(axis=1) > 0]
    L = click_law(n_bins, 1.0, dark, n_max)
    values = q_mandel_rows(simplex_ls_rows(L, rows / rows.sum(axis=1, keepdims=True)))
    values = values[np.isfinite(values)]
    if est.get("samples") is not None:
        expect_close(errors, f"{what}.samples", est["samples"], values)
    _check_spread(errors, what, est, values, n_replicas)


# --- studies -------------------------------------------------------------------

#: Exact catalysis results on the default sweep grid at the default physics,
#: computed by ``catalysis_exact``; regenerate with ``python3 bench/reference.py``.
CATALYSIS_TABLE = Path(__file__).with_name("catalysis_reference.json")
CATALYSIS_PHYSICS = {"alpha": 2.449489742783178, "n_bins": 8, "signal_efficiency": 0.07, "dark_click_prob": 0.0}
CATALYSIS_GRID = [round(0.05 * i, 10) for i in range(21)]


def catalysis_exact(alpha: float, reflectivity: float, n_bins: int, signal_efficiency: float, dark_click_prob: float):
    """Heralded (one photon, ideal PNR herald) signal statistics and exact witnesses.

    |1> in mode a and |alpha> in mode b meet on the splitter; each total
    photon sector is evolved by the matrix exponential of the generator.
    """
    cutoff = poisson_cutoff(alpha * alpha)
    coh = np.sqrt(poisson_pn(alpha * alpha, cutoff))
    signal = np.zeros(cutoff + 2)
    for m in range(cutoff + 1):
        t = m + 1  # herald keeps n_a = 1, so the sector holds m + 1 photons
        v = np.zeros(t + 1)
        v[1] = coh[t - 1]
        signal[m] = (beamsplitter_sector_by_expm(t, 1.0 - reflectivity) @ v)[1] ** 2
    prob = float(signal.sum())
    signal /= prob
    clicks = click_law(n_bins, signal_efficiency, dark_click_prob, signal.size - 1) @ signal
    return {
        "herald_prob": prob,
        "clicks": clicks,
        "q_b_exact": q_binomial(clicks),
        "q_f_exact": q_fake(clicks),
        "q_m_exact": q_mandel(loss(signal, signal_efficiency)),
    }


@lru_cache(maxsize=None)
def _catalysis_table() -> dict:
    return json.loads(CATALYSIS_TABLE.read_text())


def catalysis_reference(cfg: dict, reflectivity: float) -> dict:
    """The committed exact result at one grid reflectivity of the default physics."""
    if any(cfg[key] != value for key, value in CATALYSIS_PHYSICS.items()):
        raise ValueError("no committed catalysis reference for this physics")
    entry = _catalysis_table()[repr(reflectivity)]
    return {**entry, "clicks": np.asarray(entry["clicks"])}


def check_catalysis_point(point: dict, index: int, cfg: dict) -> list:
    """Check one sweep point (as the JSON output spells it) against the references."""
    errors = []
    ref = catalysis_reference(cfg, point["reflectivity"])
    if point["degenerate"]:
        return ["point flagged degenerate"]
    expect_close(errors, "herald_prob", point["herald_prob"], ref["herald_prob"], PROB_ATOL)
    for key in ("q_b_exact", "q_f_exact", "q_m_exact"):
        expect_close(errors, key, point[key], ref[key])
    # Seeds follow the documented hierarchy: sweep root -> point -> purpose.
    point_seed = np.random.SeedSequence(cfg["seed"], spawn_key=(index,))
    seed_record, seed_qb, seed_qf, seed_qm = point_seed.spawn(4)
    record = np.random.default_rng(seed_record).poisson(cfg["expected_events"] * ref["clicks"])
    if list(point["record"]) != [int(x) for x in record]:
        errors.append(f"record: got {list(point['record'])}, want {record.tolist()}")
        return errors
    reps = cfg["n_replicas"]
    check_click_bootstrap(errors, "q_b", point["q_b"], record, "Q_B", reps, seed_qb)
    check_click_bootstrap(errors, "q_f", point["q_f"], record, "Q_F", reps, seed_qf)
    n_max = cfg["inversion_n_max"] if cfg.get("inversion_n_max") is not None else cfg["n_bins"]
    check_q_mandel_bootstrap(errors, "q_m", point["q_m"], record, cfg["n_bins"], cfg["dark_click_prob"], n_max, reps, seed_qm)
    return errors


def thermal_cutoff(mu: float, tol: float = 1e-10) -> int:
    """Smallest n with thermal mass beyond n, r**(n+1), below ``tol``."""
    r = mu / (1.0 + mu)
    n = 0
    while r ** (n + 1) >= tol:
        n += 1
    return n


def check_tmsv_rows(rows: list, cfg: dict) -> list:
    """Check a squeezed-pair witness table (rows as the JSON output spells them).

    The pair is photon-number correlated with a thermal marginal, so the joint
    click law is L1 diag(p) L2^T; each row conditions one arm on the other.
    """
    errors = []
    mu = cfg["mean_photons"]
    p = thermal_pn(mu, thermal_cutoff(mu))
    L1 = click_law(cfg["n_bins"], cfg["efficiency_1"], cfg["dark_click_prob"], p.size - 1)
    L2 = click_law(cfg["n_bins"], cfg["efficiency_2"], cfg["dark_click_prob"], p.size - 1)
    joint = L1 @ np.diag(p) @ L2.T
    conditions = [None, *cfg["herald_ks"]]
    expected = [(arm, k) for arm in (1, 2) for k in conditions]
    if [(r["arm"], r["herald_k"]) for r in rows] != expected:
        return [f"rows: got {[(r['arm'], r['herald_k']) for r in rows]}, want {expected}"]
    root = np.random.SeedSequence(cfg["seed"])
    for row in rows:
        grid = joint.T if row["arm"] == 1 else joint  # rows of grid: the other arm's clicks
        if row["herald_k"] is None:
            cond, prob = grid.sum(axis=0), 1.0
        else:
            prob = float(grid[row["herald_k"]].sum())
            cond = grid[row["herald_k"]] / prob
        cond = cond / cond.sum()
        tag = f"row(arm={row['arm']}, k={row['herald_k']})"
        expect_close(errors, f"{tag}.probability", row["probability"], prob, PROB_ATOL)
        expect_close(errors, f"{tag}.q_b_exact", row["q_b_exact"], q_binomial(cond))
        seed_record, seed_boot = root.spawn(2)
        record = np.random.default_rng(seed_record).poisson(cfg["expected_events"] * prob * cond)
        if row.get("record") is not None and list(row["record"]) != record.tolist():
            errors.append(f"{tag}.record: got {row['record']}, want {record.tolist()}")
            continue
        check_click_bootstrap(errors, f"{tag}.q_b", row["q_b"], record, "Q_B", cfg["n_replicas"], seed_boot)
    return errors


if __name__ == "__main__":
    table = {}
    for r in CATALYSIS_GRID:
        exact = catalysis_exact(reflectivity=r, **CATALYSIS_PHYSICS)
        table[repr(r)] = {**exact, "clicks": exact["clicks"].tolist()}
    CATALYSIS_TABLE.write_text(json.dumps(table, indent=1) + "\n")
