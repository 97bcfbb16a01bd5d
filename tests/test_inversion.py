import dataclasses
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clickstats import (
    ClickDistribution,
    CountRecord,
    DetectorModel,
    IllConditionedInversionError,
    InvalidArgumentError,
    PhotonDistribution,
    SolverNotConvergedError,
    UndefinedWitnessError,
    click_matrix,
    forward_clicks,
    fock_pn,
    invert_clicks,
    lstsq_simplex,
    mc_q_mandel_from_clicks,
    mc_witness,
    q_binomial,
    q_fake,
    q_mandel_from_clicks,
    sample_counts,
)
from clickstats import inversion
from clickstats.inversion import _cached_pinv, _condition_number
from oracles import lstsq_simplex_by_enumeration, simplex_lstsq_on_support_exact, solve_exact


def objective(A, x, b):
    return float(np.sum((A @ x - b) ** 2))


def _heavy_tailed_gapped_clicks(rng, size):
    """Pareto click weights with about half the click numbers emptied."""
    c = rng.pareto(1.0, size=size)
    c[rng.random(size) < 0.5] = 0.0
    if c.sum() == 0:
        c[0] = 1.0
    return c / c.sum()


def test_lstsq_simplex_matches_support_enumeration():
    rng = np.random.default_rng(19)
    cases = []  # (A, stack of right-hand sides), each row solved on its own
    for dim in range(3, 9):
        for trial in range(4):
            A = rng.standard_normal((dim + 2, dim))
            if trial == 3:
                A[:, 1] = A[:, 0]  # duplicate columns, degenerate optimum
            cases.append((A, rng.standard_normal((1, dim + 2))))
    # Truncated records whose optimum pins coordinates and must release
    # some again: the release test has to use the KKT multiplier grad + nu.
    L = click_matrix(DetectorModel(8), 8)
    cases.append((L, np.array([_heavy_tailed_gapped_clicks(rng, 9) for _ in range(120)])))
    # Square A whose exact solution is >= 0 but sums to 2, off the simplex:
    # the direct solve must leave it to the active set.
    for dim in range(3, 9):
        A = rng.random((dim, dim))
        cases.append((A, [A @ (2.0 * rng.dirichlet(np.ones(dim)))]))
    # Exactly singular square A: LU fails, and the active set takes the row.
    cases.append((np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]), [[0.2, 0.8, 0.8]]))
    for A, B in cases:
        for b, ref in zip(B, lstsq_simplex_by_enumeration(A, B)):
            x = lstsq_simplex(A, b)
            assert np.all(x >= 0)
            assert np.isclose(x.sum(), 1.0, atol=1e-12)
            assert objective(A, x, b) == pytest.approx(objective(A, ref, b), abs=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_lstsq_simplex_rows_match_single_calls_and_enumeration(data):
    dim = data.draw(st.integers(2, 6), label="dim")
    m = data.draw(st.integers(dim, dim + 3), label="m")
    rows = data.draw(st.integers(1, 6), label="rows")
    A = data.draw(arrays(float, (m, dim), elements=st.floats(0.01, 1.0)), label="A")
    A = A / A.sum(axis=0)  # column-stochastic, as a click law
    B = data.draw(arrays(float, (rows, m), elements=st.floats(0.0, 1.0)), label="B")
    B[B.sum(axis=1) == 0] = 1.0
    B = B / B.sum(axis=1, keepdims=True)
    X = lstsq_simplex(A, B)
    assert X.shape == (rows, dim)
    assert (X >= 0).all()  # exactly, with no clip left to the callers
    np.testing.assert_allclose(X.sum(axis=1), 1.0, rtol=0, atol=dim * 1e-12)
    unique_optimum = np.linalg.cond(A) < 1e6  # else only the objective is determined
    for x, b, ref in zip(X, B, lstsq_simplex_by_enumeration(A, B)):
        single = lstsq_simplex(A, b)
        assert objective(A, x, b) == pytest.approx(objective(A, single, b), abs=1e-12)
        assert objective(A, x, b) == pytest.approx(objective(A, ref, b), abs=1e-12)
        if unique_optimum:
            np.testing.assert_allclose(x, single, rtol=0, atol=1e-9)


def test_lstsq_simplex_anti_cycling_rule_finishes_near_duplicate_columns():
    # A 6 x 8 column-stochastic law whose columns 3 and 7 are equal, 1 and 6
    # within 4.5e-15 and 4 and 5 within 8.5e-11, and b a Dirichlet(0.3)
    # mixture of its columns.  The active set cycles through these pairs
    # unless a released coordinate stays barred until the objective
    # improves: without that bar the solver runs out of steps.
    A = np.array([
        [0.011648748694595526, 0.12937741744415884, 0.024100824569282666, 0.11182505976260458,
         0.13061084553951538, 0.130610845567292, 0.1293774174441566, 0.11182505976260458],
        [0.003333966697117072, 0.21350508712865376, 0.014816260172615652, 0.05292167450730941,
         0.20073148521799078, 0.20073148515597397, 0.2135050871286493, 0.05292167450730941],
        [0.04641647677255289, 0.30351785316334545, 0.339999900565764, 0.3637686519169307,
         0.05847732230527401, 0.05847732238040531, 0.3035178531633462, 0.3637686519169307],
        [0.3788140636583158, 0.04875123285345562, 0.27306999397490545, 0.40958501113544665,
         0.32380067596119577, 0.32380067587625044, 0.04875123285345455, 0.40958501113544665],
        [0.23662651381049, 0.15916476264063303, 0.017106105449168966, 0.013690682283457302,
         0.022361742532324737, 0.022361742612320205, 0.15916476264063656, 0.013690682283457302],
        [0.3231602303669287, 0.14568364676975348, 0.3309069152682632, 0.04820892039425135,
         0.2640179284436993, 0.2640179284077579, 0.14568364676975684, 0.04820892039425135],
    ])
    b = np.array([
        0.11326470018349777, 0.09484241231381392, 0.26475064447155605,
        0.3783417354114327, 0.027350457750914627, 0.12145004986878484,
    ])
    x = lstsq_simplex(A, b)
    assert (x >= 0).all()
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    # Near-duplicate columns leave the minimiser non-unique: compare objectives.
    assert objective(A, x, b) == pytest.approx(objective(A, lstsq_simplex_by_enumeration(A, b), b), abs=1e-12)


def test_lstsq_simplex_keeps_its_bars_when_a_step_moves():
    # A 7 x 7 column-stochastic law, singular to the LU solve: columns 2 and
    # 5 are equal, 1 lies within 9e-14 of them and 6 within 2.6e-7, and 0, 3
    # and 4 lie within 7.4e-10 of each other.  b is a Dirichlet(0.5) mixture
    # of the columns.  A bar lifts only when the objective improves; lifting
    # every bar after each step that moves the point let the active set
    # cycle through these columns until its 800 steps ran out.
    A = np.array([
        [0.007425961898231868, 0.4320350491558797, 0.4320350491559604, 0.007425962102186276,
         0.007425962391229685, 0.4320350491559604, 0.43203519502405185],
        [0.3394246625256679, 0.012239636824490944, 0.012239636824473364, 0.33942466269151084,
         0.33942466195889315, 0.012239636824473364, 0.012239461066040212],
        [0.11830232048771408, 0.003726318525226053, 0.003726318525136482, 0.11830232048897986,
         0.1183023209257287, 0.003726318525136482, 0.0037263672855696924],
        [0.036686732310327555, 0.021288519047481875, 0.021288519047533604, 0.036686732146077025,
         0.03668673215430256, 0.021288519047533604, 0.021288516269779588],
        [0.2453003000622385, 0.1722327870336586, 0.1722327870336637, 0.2453002999536009,
         0.2453002999349809, 0.1722327870336637, 0.1722325744399762],
        [0.03810119768401183, 0.3404618320374634, 0.34046183203746316, 0.038101197668995,
         0.038101197762350165, 0.34046183203746316, 0.34046177789552556],
        [0.2147588250318083, 0.01801585737579941, 0.018015857375769252, 0.2147588249486501,
         0.21475882487251483, 0.018015857375769252, 0.018016108019056867],
    ])
    b = np.array([
        0.24592253448415755, 0.1556497280891107, 0.05394669415485238, 0.028037786193896255,
        0.20425937097315114, 0.2079326429132118, 0.10425124319162027,
    ])
    x = lstsq_simplex(A, b)
    assert (x >= 0).all()
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert objective(A, x, b) == pytest.approx(objective(A, lstsq_simplex_by_enumeration(A, b), b), abs=1e-12)


def test_lstsq_simplex_stops_above_the_optimum_on_near_singular_supports():
    # A documented limit, not a feature.  Each support is solved through the
    # explicit pseudo-inverse of its reduced matrix; when two free columns
    # lie within 2e-15, that matrix has entries near 1e15, and its product
    # with b - a_j carries their rounding into every coordinate.  The point
    # comes out on a grid of 1/128 and fits far worse than the support
    # allows.  Measured 4.2871e-4 above the enumeration optimum on the first
    # law (columns 1 and 3 equal, 0 and 2 within 1.6e-15; coordinate 1 ends
    # barred with multiplier -0.01314) and 9.4869e-5 on the second (columns
    # 0 and 1 within 1.1e-15, no coordinate pinned).  numpy's lstsq on the
    # same free columns finds a point of the simplex that fits to 1e-30.
    cases = [
        (
            [[0.010505398095638408, 0.46742499042824576, 0.010505398095638226, 0.46742499042824576],
             [0.07236492383249997, 0.025982709291262347, 0.07236492383250046, 0.025982709291262347],
             [0.339245290524923, 0.43310405063155216, 0.3392452905249243, 0.43310405063155216],
             [0.5778843875469385, 0.07348824964893973, 0.5778843875469369, 0.07348824964893973]],
            [0.05994149223589336, 0.06734663273058354, 0.34940027310475, 0.5233116019287729],
        ),
        (
            [[0.009117550994274061, 0.009117550994275062, 0.17178180739585625],
             [0.2612868544801797, 0.2612868544801792, 0.21599712867971138],
             [0.3814378564136419, 0.3814378564136414, 0.1173206153642418],
             [0.3481577381119043, 0.3481577381119043, 0.4949004485601907]],
            [0.026403135678837463, 0.256474122980446, 0.3533713282297144, 0.3637514131110022],
        ),
    ]
    for A, b in cases:
        A, b = np.array(A), np.array(b)
        x = lstsq_simplex(A, b)
        assert (x >= 0).all() and x.sum() == 1.0
        assert 1e-5 < objective(A, x, b) - objective(A, lstsq_simplex_by_enumeration(A, b), b) < 1e-3
        free = np.flatnonzero(x)
        rest, last = free[:-1], free[-1]
        y = np.linalg.lstsq(A[:, rest] - A[:, [last]], b - A[:, last], rcond=None)[0]
        refit = np.zeros_like(x)
        refit[rest], refit[last] = y, 1.0 - y.sum()
        assert (refit >= 0).all() and objective(A, refit, b) < 1e-30


def test_lstsq_simplex_keeps_a_bar_through_a_rounding_level_gain(monkeypatch):
    # A 3 x 5 column-stochastic law whose columns 0 and 4 are equal and 1, 2
    # and 3 lie within 1.3e-9 of each other.  Coordinate 1, released, heads
    # straight back to zero and is barred; the next solve gains 9.5e-17, a
    # rounding-level change, so the bar stays and the row finishes in 5
    # steps.  Lifting the bar on any gain releases coordinate 1 again and
    # takes 7, past a budget of one step per coordinate.
    A = np.array([
        [0.4052434254056821, 0.8441858421471156, 0.8441858412708374, 0.8441858408357324, 0.4052434254056821],
        [0.5897240174668619, 0.15576768051371132, 0.1557676810693842, 0.1557676810032076, 0.5897240174668619],
        [0.005032557127456108, 4.647733917303368e-05, 4.6477659778436606e-05, 4.647816105988106e-05,
         0.005032557127456108],
    ])
    b = np.array([0.7694139332519591, 0.22969023306244457, 0.0008958352976247495])
    monkeypatch.setattr(inversion, "_STEPS_PER_COORDINATE", 1)
    x = lstsq_simplex(A, b)
    assert (x >= 0).all()
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert objective(A, x, b) == pytest.approx(objective(A, lstsq_simplex_by_enumeration(A, b), b), abs=1e-12)


def test_lstsq_simplex_returns_an_all_feasible_square_batch_from_the_lu_solve():
    L = click_matrix(DetectorModel(8, efficiency=0.9, dark_click_prob=0.01), 8)
    rng = np.random.default_rng(29)
    B = rng.dirichlet(np.ones(9), size=50) @ L.T
    lu = np.linalg.solve(L, B.T).T
    assert (lu >= 0).all()
    X = lstsq_simplex(L, B)
    assert X.flags.c_contiguous
    assert np.array_equal(X, np.clip(lu, 0.0, None))
    # Mixed with rows whose LU solution leaves the simplex, every row still
    # reaches the simplex optimum.
    mixed = np.vstack([B[:5], [_heavy_tailed_gapped_clicks(rng, 9) for _ in range(20)]])
    assert not (np.linalg.solve(L, mixed.T) >= -1e-12).all(axis=0).all()
    for x, b, ref in zip(lstsq_simplex(L, mixed), mixed, lstsq_simplex_by_enumeration(L, mixed)):
        assert objective(L, x, b) == pytest.approx(objective(L, ref, b), abs=1e-12)


def test_lstsq_simplex_exact_interior_solution():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((10, 5))
    target = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    x = lstsq_simplex(A, A @ target)
    np.testing.assert_allclose(x, target, atol=1e-10)


def _exact_q_mandel(probs):
    total = sum(probs)
    mean = sum(n * p for n, p in enumerate(probs)) / total
    return sum(n * n * p for n, p in enumerate(probs)) / total / mean - mean - 1


def test_square_solve_matches_exact_rational_solution():
    # Sampled records of states on 0..k photons through an ideal 8-bin
    # detector.  Where the exact L^-1 c is >= 0 it is the simplex optimum,
    # and the clicks above k are often all empty.  Where it is not, the
    # direct solve must leave the record to the active set, whose answer
    # meets the KKT conditions.
    det = DetectorModel(8, efficiency=1.0)
    L = click_matrix(det, 8)
    rng = np.random.default_rng(41)
    records, empty_tails, infeasible = 0, 0, 0
    while records < 40:
        k = int(rng.integers(2, 9))
        p = np.zeros(9)
        p[: k + 1] = rng.dirichlet(np.ones(k + 1))
        counts = rng.poisson(10.0 ** rng.uniform(3, 6) * (L @ p))
        freq = counts / counts.sum()
        exact = solve_exact(L, freq)
        x = lstsq_simplex(L, freq)
        if min(exact) < 0:
            infeasible += 1
            grad = L.T @ (L @ x - freq)
            free = x > 0
            nu = -grad[free].mean()
            np.testing.assert_allclose(grad[free] + nu, 0.0, rtol=0, atol=1e-10)
            assert np.all(grad[~free] + nu >= -1e-10)
            continue
        records += 1
        empty_tails += freq[-1] == 0
        np.testing.assert_allclose(x, [float(e) for e in exact], rtol=0, atol=1e-14)
        assert all(xi == 0 for xi, e in zip(x, exact) if e == 0)
        q_exact = float(_exact_q_mandel(exact))
        assert q_mandel_from_clicks(ClickDistribution(freq), det, 8) == pytest.approx(q_exact, rel=1e-12, abs=0)
    assert empty_tails >= 10 and infeasible >= 5


def _active_set_records(L, n_records, rng):
    """Poisson records of random photon laws through L that enter the active set.

    A square L keeps the records whose direct solution leaves the simplex; a
    tall one sends every record to the active set.
    """
    n_max = L.shape[1] - 1
    records = []
    while len(records) < n_records:
        k = int(rng.integers(1, n_max + 1))
        p = np.zeros(n_max + 1)
        p[: k + 1] = rng.dirichlet(np.ones(k + 1))
        counts = rng.poisson(10.0 ** rng.uniform(4, 7) * (L @ p))
        freq = counts / counts.sum()
        if L.shape[0] > L.shape[1] or (np.linalg.solve(L, freq) < -1e-12).any():
            records.append(freq)
    return np.array(records)


def test_active_set_rows_match_the_exact_solution_on_their_support():
    # Noisy records through 8 bins at eta 0.4 (cond(L) 4.1e7) whose direct
    # solution leaves the simplex, then a tall law (n_max = 6) that sends
    # every row to the active set.  On the support it chose, each row must
    # be the exact sum-constrained least-squares solution to within
    # cond(L) eps, where a solve through L^T L would square cond(L).
    det = DetectorModel(8, efficiency=0.4)
    rng = np.random.default_rng(5)
    for n_max, n_records in ((8, 60), (6, 20)):
        L = click_matrix(det, n_max)
        records = _active_set_records(L, n_records, rng)
        bound = np.linalg.cond(L) * np.finfo(float).eps
        for x, b in zip(lstsq_simplex(L, records), records):
            exact = simplex_lstsq_on_support_exact(L, b, np.flatnonzero(x > 0))
            assert np.abs(x - [float(e) for e in exact]).max() <= bound


def test_lstsq_simplex_iteration_limit_raises_solver_error(monkeypatch):
    # Half "no clicks", half "every bin clicked": the optimum lies on the
    # simplex boundary, so the LU solve leaves the row to the active set,
    # which cannot finish it without a step.
    L = click_matrix(DetectorModel.ideal(8), 8)
    c = np.zeros(9)
    c[0] = c[8] = 0.5
    assert np.all(lstsq_simplex(L, c) >= 0.0)
    monkeypatch.setattr(inversion, "_STEPS_PER_COORDINATE", 0)
    with pytest.raises(SolverNotConvergedError, match=r"in 0 iterations \(1 of 1 ") as info:
        lstsq_simplex(L, c)
    assert info.value.code == "solver-not-converged"
    np.testing.assert_allclose(lstsq_simplex(L, L.T), np.eye(9), atol=1e-12)  # the LU solve takes no step


def test_lstsq_simplex_input_validation():
    with pytest.raises(InvalidArgumentError):
        lstsq_simplex(np.ones(4), np.ones(4))
    with pytest.raises(InvalidArgumentError):
        lstsq_simplex(np.ones((3, 2)), np.ones(4))
    with pytest.raises(InvalidArgumentError, match="column"):
        lstsq_simplex(np.zeros((3, 0)), np.zeros(3))  # no simplex on zero coordinates
    A = np.eye(3)
    b = np.array([0.2, 0.3, 0.5])
    for bad in (np.nan, np.inf, -np.inf):
        A_bad, b_bad = A.copy(), b.copy()
        A_bad[1, 2] = b_bad[0] = bad
        for args in ((A_bad, b), (A, b_bad), (A, np.vstack([b, b_bad]))):
            with pytest.raises(InvalidArgumentError):
                lstsq_simplex(*args)


@pytest.fixture
def pinv_calls(monkeypatch):
    """One entry per ``np.linalg.pinv`` call from here on."""
    calls, pinv = [], np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kwargs: calls.append(args) or pinv(*args, **kwargs))
    return calls


def test_warm_support_cache_gives_the_cold_bits_without_factorising(pinv_calls):
    # A cold batch factorises each support it meets once, however many rows
    # and iterations use it; the same batch again, on an equal law in
    # another array, factorises nothing and returns the same bits.
    L = click_matrix(DetectorModel(8, efficiency=0.4), 8)
    records = _active_set_records(L, 60, np.random.default_rng(5))
    _cached_pinv.cache_clear()
    cold = lstsq_simplex(L, records)
    assert len(pinv_calls) == _cached_pinv.cache_info().currsize >= 5
    del pinv_calls[:]
    warm = lstsq_simplex(np.array(L), records)
    assert np.array_equal(warm, cold) and not pinv_calls


def test_a_batch_the_lu_solve_finishes_leaves_the_support_cache_alone(monkeypatch):
    L = click_matrix(DetectorModel(8, efficiency=0.9, dark_click_prob=0.01), 8)
    B = np.random.default_rng(29).dirichlet(np.ones(9), size=50) @ L.T
    monkeypatch.setattr(inversion, "_law_key", lambda A: pytest.fail("the law was keyed"))
    before = _cached_pinv.cache_info()
    lstsq_simplex(L, B)
    assert _cached_pinv.cache_info() == before


def test_support_cache_never_serves_a_law_edited_in_place():
    # A tall law sends every row to the active set, where the first support
    # (nothing pinned) is the same for both laws.
    old, new = (click_matrix(DetectorModel(8, efficiency=eta), 6) for eta in (0.4, 0.9))
    records = _active_set_records(old, 10, np.random.default_rng(7))
    _cached_pinv.cache_clear()
    expected = lstsq_simplex(new, records)
    A = np.array(old)
    before = lstsq_simplex(A, records)
    A[...] = new
    after = lstsq_simplex(A, records)
    assert np.array_equal(after, expected) and not np.array_equal(after, before)


def test_support_cache_stays_within_its_bound_under_threads(monkeypatch):
    # A cache too small for every support evicts as it goes.  Four threads
    # solving at once, switching every microsecond, must leave it within its
    # bound and get the lone bits.
    laws = [click_matrix(DetectorModel(8, efficiency=eta), 8) for eta in (0.3, 0.4, 0.5, 0.6)]
    batches = [_active_set_records(L, 20, np.random.default_rng(k)) for k, L in enumerate(laws)]
    _cached_pinv.cache_clear()
    expected = [lstsq_simplex(L, b) for L, b in zip(laws, batches)]
    supports = _cached_pinv.cache_info().misses
    small = lru_cache(maxsize=2)(_cached_pinv.__wrapped__)
    monkeypatch.setattr(inversion, "_cached_pinv", small)
    results = [None] * len(laws)

    def solve(k):
        for _ in range(5):
            results[k] = lstsq_simplex(laws[k], batches[k])

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(laws))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None and np.array_equal(r, e) for r, e in zip(results, expected))
    info = small.cache_info()
    assert info.currsize == 2 < supports < info.misses


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), extra=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_cached_fresh_and_warm_solves_are_the_same_bits(n, extra, seed):
    # Tall laws, so every row enters the active set, from 48 bytes to 4 KiB:
    # on both sides of the 2 KiB that lstsq_simplex caches.
    rng = np.random.default_rng(seed)
    A, B = rng.random((n + extra, n)), rng.random((3, n + extra))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inversion, "_CACHED_LAW_BYTES", 0)
        fresh = lstsq_simplex(A, B)
    _cached_pinv.cache_clear()
    cold = lstsq_simplex(A, B)
    assert (_cached_pinv.cache_info().currsize > 0) == (A.nbytes <= inversion._CACHED_LAW_BYTES)
    warm = lstsq_simplex(np.array(A), B)
    assert np.array_equal(cold, fresh) and np.array_equal(warm, fresh)


def test_a_law_over_2_kib_is_solved_on_its_support_and_never_cached():
    # 33 x 8 floats, 2,112 bytes: every row of this tall law enters the
    # active set, which meets several supports and caches none of them.
    L = click_matrix(DetectorModel(32, efficiency=0.4), 7)
    assert L.nbytes > inversion._CACHED_LAW_BYTES
    records = _active_set_records(L, 5, np.random.default_rng(11))
    before = _cached_pinv.cache_info()
    X = lstsq_simplex(L, records)
    assert _cached_pinv.cache_info() == before
    bound = np.linalg.cond(L) * np.finfo(float).eps
    for x, b in zip(X, records):
        exact = simplex_lstsq_on_support_exact(L, b, np.flatnonzero(x > 0))
        assert np.abs(x - [float(e) for e in exact]).max() <= bound


def test_rows_sharing_every_support_get_the_same_bits_alone_and_grouped():
    # Two records a hair apart pin the same coordinates at every step, so
    # alone they form one group.  Two more records end on two other supports
    # (their zeros differ), so the batch of four splits into groups (three
    # at one step, for these records), and the shared rows must not move by
    # a bit.
    L = click_matrix(DetectorModel(8, efficiency=0.4), 8)
    rng = np.random.default_rng(3)
    b, *others = _active_set_records(L, 3, rng)
    shared = np.array([b, b * (1 + 1e-9 * rng.standard_normal(9))])
    alone = lstsq_simplex(L, shared)
    grouped = lstsq_simplex(L, np.vstack([shared, others]))
    zeros = [tuple(x == 0) for x in grouped]
    assert zeros[0] == zeros[1]
    assert len(set(zeros[1:])) == 3
    assert np.array_equal(grouped[:2], alone)


def test_invert_clicks_round_trip():
    det = DetectorModel.ideal(8)
    probs = np.zeros(9)
    probs[[0, 2, 5]] = [0.5, 0.3, 0.2]
    c = forward_clicks(PhotonDistribution(probs), det)
    for method in ("constrained", "pseudo_inverse"):
        res = invert_clicks(c, det, n_max=8, method=method)
        np.testing.assert_allclose(res.probs, probs, atol=1e-8)
        assert res.residual_norm < 1e-10
        assert res.method == method
        assert res.condition_number > 1.0
    np.testing.assert_allclose(res.distribution().probs, probs, atol=1e-8)


def test_invert_clicks_recovers_zeros_to_lu_accuracy():
    # The LU solution's negatives (~cond(L) eps) fail the -1e-12 test, so the
    # record goes to the active set, whose reduced least squares must return
    # the zeros of p to within cond(L) eps as well.
    det = DetectorModel(6, efficiency=0.2, dark_click_prob=0.2)
    probs = np.zeros(7)
    probs[[1, 3, 6]] = 1.0 / 3.0
    res = invert_clicks(forward_clicks(PhotonDistribution(probs), det), det, n_max=6)
    assert np.abs(res.probs - probs).max() <= res.condition_number * np.finfo(float).eps


def test_pseudo_inverse_reports_negative_mass():
    det = DetectorModel.ideal(8)
    # Half "no clicks", half "every bin clicked" is not reachable from any
    # photon distribution on 0..8, so the unconstrained solve goes negative.
    c = np.zeros(9)
    c[0] = c[8] = 0.5
    raw = invert_clicks(ClickDistribution(c), det, n_max=8, method="pseudo_inverse")
    assert raw.negative_mass > 1e-3
    with pytest.raises(InvalidArgumentError, match="negative mass"):
        raw.distribution()
    fitted = invert_clicks(ClickDistribution(c), det, n_max=8, method="constrained")
    assert fitted.negative_mass == 0.0
    assert fitted.residual_norm > 1e-3
    # The unconstrained solve can only fit better, never worse.
    assert fitted.residual_norm >= raw.residual_norm - 1e-12
    fitted.distribution()  # must not raise


def test_condition_number_is_cached():
    det = DetectorModel(8, dark_click_prob=0.02)
    cond = _condition_number(det, 6)
    hits = _condition_number.cache_info().hits
    assert _condition_number(det, 6) == cond == np.linalg.cond(click_matrix(det, 6))
    assert _condition_number.cache_info().hits == hits + 1
    assert _condition_number.cache_info().maxsize == 64


def test_invert_clicks_refuses_underdetermined_problems():
    det = DetectorModel.ideal(8)
    c = forward_clicks(fock_pn(1), det)
    with pytest.raises(IllConditionedInversionError):
        invert_clicks(c, det, n_max=40)


def test_invert_clicks_refuses_ill_conditioned_matrix():
    det = DetectorModel(n_bins=8, efficiency=0.07)
    c = forward_clicks(fock_pn(1), det)
    with pytest.raises(IllConditionedInversionError) as info:
        invert_clicks(c, det, n_max=8)
    assert info.value.condition_number > 1e12


def test_invert_clicks_argument_errors():
    det = DetectorModel.ideal(8)
    c = forward_clicks(fock_pn(1), det)
    with pytest.raises(InvalidArgumentError):
        invert_clicks(c, det, n_max=8, method="magic")
    with pytest.raises(InvalidArgumentError):
        invert_clicks(c, DetectorModel.ideal(4), n_max=4)
    with pytest.raises(InvalidArgumentError):
        invert_clicks(c, det, n_max=-1)


def test_q_mandel_from_clicks_keeps_loss_in_the_state():
    det = DetectorModel(n_bins=8, efficiency=0.6)
    c = forward_clicks(fock_pn(1), det)
    # The witness refers to the photons that survived the 60% efficiency:
    # a Bernoulli(0.6) photon number with Q = -0.6.
    assert q_mandel_from_clicks(c, det, n_max=8) == pytest.approx(-0.6, abs=1e-6)


def test_mc_q_mandel_from_clicks_reproducible():
    det = DetectorModel(n_bins=8, efficiency=0.6)
    c = forward_clicks(fock_pn(1), det)
    rec = sample_counts(c, 50_000, seed=3)
    a = mc_q_mandel_from_clicks(rec, det, n_max=8, n_replicas=200, seed=9)
    b = mc_q_mandel_from_clicks(rec, det, n_max=8, n_replicas=200, seed=9)
    assert a.value == b.value
    assert np.array_equal(a.samples, b.samples)
    assert a.value == q_mandel_from_clicks(
        ClickDistribution(np.array(rec.counts) / rec.total_events), det, 8
    )
    assert abs(a.value + 0.6) < 4 * a.std_error + 0.05
    with pytest.raises(InvalidArgumentError):
        mc_q_mandel_from_clicks(rec, det, n_max=8, n_replicas=1, seed=0)


def _replica_loop(record, score, n_replicas, seed):
    """The bootstrap one replica at a time: the same seeded Poisson draws,
    each scored by the scalar witness ``score`` and dropped when undefined."""
    counts = np.asarray(record.counts, dtype=float)
    rng = np.random.default_rng(seed)
    values = []
    for row in rng.poisson(lam=counts, size=(n_replicas, counts.size)).astype(float):
        if row.sum() <= 0:
            continue
        try:
            values.append(score(ClickDistribution(row / row.sum())))
        except UndefinedWitnessError:
            continue
    return np.array(values)


_DET = DetectorModel(n_bins=8, efficiency=0.6)
_DENSE = (20_000, 3_000, 150, 0, 0, 0, 0, 0, 0)
_FEW = (40, 3, 0, 0, 0, 0, 0, 0, 0)  # many replicas see no click: mean 0, dropped
_NEAR_NEGATIVE = (1_000, 2, 12, 0, 0, 0, 0, 0, 0)  # replicas past L^-1 c >= 0
_SPARSE_TAIL = (5_000, 800, 60, 4, 0, 1, 0, 0, 1)  # gaps: the active set on most rows
_SATURATED = (0, 0, 0, 0, 0, 0, 0, 1, 3)  # Q_B drops the replicas pinned at N clicks


@pytest.mark.parametrize(
    "counts",
    [_DENSE, _FEW, _NEAR_NEGATIVE, _SPARSE_TAIL],
    # Explicit ids, so each record keeps the name it is tracked under.
    ids=["counts0-constrained", "counts2-constrained", "counts4-constrained", "counts6-constrained"],
)
def test_mc_q_mandel_matches_replica_by_replica_loop(counts):
    record = CountRecord(counts)
    est = mc_q_mandel_from_clicks(record, _DET, 8, n_replicas=200, seed=11)
    loop = _replica_loop(record, lambda c: q_mandel_from_clicks(c, _DET, 8), 200, 11)
    assert est.samples.shape == loop.shape
    np.testing.assert_allclose(est.samples, loop, rtol=0, atol=1e-9)
    assert est.dropped_fraction == 1.0 - loop.size / 200
    assert est.std_error == pytest.approx(loop.std(ddof=1), rel=1e-9)


@pytest.mark.parametrize("witness,score", [("Q_B", q_binomial), ("Q_F", q_fake)])
@pytest.mark.parametrize("counts", [_DENSE, _FEW, _SATURATED])
def test_mc_witness_matches_replica_by_replica_loop(counts, witness, score):
    record = CountRecord(counts)
    est = mc_witness(record, witness, n_replicas=200, seed=11)
    loop = _replica_loop(record, score, 200, 11)
    assert est.samples.shape == loop.shape
    np.testing.assert_allclose(est.samples, loop, rtol=0, atol=1e-12)
    assert est.dropped_fraction == 1.0 - loop.size / 200
    assert est.value == score(ClickDistribution(np.array(counts) / sum(counts)))


def test_replica_loop_records_cover_drops_and_the_active_set():
    # Guards the coverage of the equivalence tests above.
    def dropped(counts):
        return mc_q_mandel_from_clicks(CountRecord(counts), _DET, 8, 200, 11).dropped_fraction

    def click_dropped(counts, witness):
        return mc_witness(CountRecord(counts), witness, 200, 11).dropped_fraction

    assert click_dropped(_SATURATED, "Q_B") > 0.4 > click_dropped(_SATURATED, "Q_F") > 0.0
    assert click_dropped(_FEW, "Q_B") > 0.0

    assert dropped(_DENSE) == 0.0
    assert dropped(_FEW) > 0.01
    L = click_matrix(dataclasses.replace(_DET, efficiency=1.0), 8)

    def free_solutions(counts):
        rows = np.random.default_rng(11).poisson(lam=np.array(counts, dtype=float), size=(200, 9))
        return np.linalg.solve(L, (rows / rows.sum(axis=1, keepdims=True)).T)

    assert np.all(free_solutions(_DENSE) >= 0)  # every replica is finished by the direct solve
    assert np.mean((free_solutions(_SPARSE_TAIL) < 0).any(axis=0)) > 0.5
