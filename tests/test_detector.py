import ast
import importlib
import inspect
import math
import pkgutil
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import clickstats
from clickstats import (
    ClickDistribution,
    CountRecord,
    DegenerateConditioningError,
    DetectorModel,
    IllConditionedInversionError,
    InvalidArgumentError,
    PhotonDistribution,
    apply_loss,
    click_matrix,
    coherent_pn,
    condition_on_clicks,
    fock_pn,
    forward_clicks,
    invert_clicks,
    joint_forward_clicks,
    sample_counts,
    thermal_pn,
)
from clickstats import detector
from clickstats.detector import JointClickDistribution
from clickstats.distributions import binomial_matrix
from clickstats.inversion import CONDITION_LIMIT

from oracles import (
    binomial_by_columns,
    click_matrix_exact,
    click_probs_by_enumeration,
    uniform_click_matrix_by_columns,
)


def test_detector_model_validation():
    with pytest.raises(InvalidArgumentError):
        DetectorModel(0)
    with pytest.raises(InvalidArgumentError):
        DetectorModel(2.5)
    for n_max in (2.5, -1):
        with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
            click_matrix(DetectorModel(4), n_max)
    with pytest.raises(InvalidArgumentError):
        DetectorModel(4, efficiency=1.2)
    with pytest.raises(InvalidArgumentError):
        DetectorModel(4, dark_click_prob=1.0)
    with pytest.raises(InvalidArgumentError):
        DetectorModel(4, bin_weights=(0.5, 0.5))  # wrong length
    with pytest.raises(InvalidArgumentError):
        DetectorModel(2, bin_weights=(0.7, 0.7))  # does not sum to 1
    det = DetectorModel(2, bin_weights=(0.25, 0.75))
    assert not det.is_uniform
    assert DetectorModel.ideal(4).is_uniform


def test_detector_model_hashable_and_cached():
    a = DetectorModel(4, efficiency=0.5)
    b = DetectorModel(4, efficiency=0.5)
    assert a == b and hash(a) == hash(b)
    first = click_matrix(a, 10)
    hits = click_matrix.cache_info().hits
    assert click_matrix(b, 10) is first
    assert click_matrix(b, 10.0) is first
    assert click_matrix.cache_info().hits == hits + 2
    assert not click_matrix(a, 10).flags.writeable


def test_every_cache_in_the_package_is_in_the_readme_inventory():
    # README's cache paragraph gives each cache's memory ceiling as
    # "`name` keeps maxsize ...": a new or resized cache updates it.
    caches = {}
    for info in pkgutil.iter_modules(clickstats.__path__):
        module = importlib.import_module(f"clickstats.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[name] = obj.cache_info().maxsize
    assert caches == {
        "click_matrix": 8,
        "binomial_matrix": 64,
        "_coherent_pn": 64,
        "_condition_number": 64,
        "_cached_pinv": 1024,
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Every cache in the package"))
    listed = re.findall(r"`(\w+)` keeps ([\d,]+)", paragraph)
    assert {name: int(size.replace(",", "")) for name, size in listed} == caches


def test_every_poisson_draw_in_the_package_goes_through_poisson_blocks():
    # One sampler owns the seed rule and the block rule: the package calls
    # default_rng and .poisson once each, both inside poisson_blocks.
    lines, first = inspect.getsourcelines(detector.poisson_blocks)
    inside = range(first, first + len(lines))
    sites = []
    for info in pkgutil.iter_modules(clickstats.__path__):
        module = importlib.import_module(f"clickstats.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("default_rng", "poisson"):
                    sites.append((name, module is detector and node.lineno in inside))
    assert sorted(sites) == [("default_rng", True), ("poisson", True)]


def test_two_photon_goldens():
    # Two photons on an ideal 8-bin detector: collision probability 1/8.
    L = click_matrix(DetectorModel.ideal(8), 2)
    assert L[1, 2] == 1.0 / 8.0
    assert L[2, 2] == 7.0 / 8.0
    # Same with N=2: P(1 click | 2 photons) = 1/2 exactly.
    L2 = click_matrix(DetectorModel.ideal(2), 2)
    assert L2[1, 2] == 0.5 and L2[2, 2] == 0.5


def test_fock_two_through_lossy_pair_golden():
    c = forward_clicks(fock_pn(2), DetectorModel(2, efficiency=0.5))
    # Per photon: lost 1/2, bin A 1/4, bin B 1/4; enumerating the 9 cases
    # gives 1/4 no-click, 5/8 one-click, 1/8 coincidence.
    assert np.allclose(c.probs, [0.25, 0.625, 0.125], atol=1e-15, rtol=0)


@pytest.mark.parametrize("n_bins", [1, 2, 5, 8, 16, 32])
@pytest.mark.parametrize("eta,dark", [(1.0, 0.0), (0.62, 0.0), (0.3, 0.013)])
def test_columns_exactly_stochastic(n_bins, eta, dark):
    L = click_matrix(DetectorModel(n_bins, efficiency=eta, dark_click_prob=dark), 25)
    assert np.all(L >= 0.0)
    assert np.abs(L.sum(axis=0) - 1.0).max() < 1e-13


@pytest.mark.parametrize("n_bins", [1, 3, 6])
@pytest.mark.parametrize("eta", [1.0, 0.55])
@pytest.mark.parametrize("dark", [0.0, 0.02])
def test_uniform_matches_enumeration(n_bins, eta, dark):
    det = DetectorModel(n_bins, efficiency=eta, dark_click_prob=dark)
    L = click_matrix(det, 5)
    for n in range(6):
        ref = click_probs_by_enumeration(n, n_bins, None, eta, dark)
        assert np.allclose(L[:, n], ref, atol=1e-12, rtol=0)


@pytest.mark.parametrize("weights", [(0.5, 0.3, 0.2), (0.7, 0.1, 0.1, 0.1)])
def test_nonuniform_matches_enumeration(weights):
    det = DetectorModel(len(weights), bin_weights=weights, efficiency=0.8, dark_click_prob=0.01)
    L = click_matrix(det, 4)
    assert np.abs(L.sum(axis=0) - 1.0).max() < 1e-13
    for n in range(5):
        ref = click_probs_by_enumeration(n, len(weights), list(weights), 0.8, 0.01)
        assert np.allclose(L[:, n], ref, atol=1e-12, rtol=0)


@pytest.mark.parametrize(
    "n_bins,weights,eta,dark",
    [
        (8, None, 1.0, 0.0),
        (8, None, 0.55, 0.02),
        (32, None, 0.62, 0.0),
        (32, None, 0.3, 0.013),
        (40, None, 0.37, 0.0),
        (40, None, 0.37, 0.0061),
        (5, (0.4, 0.25, 0.2, 0.1, 0.05), 0.8, 0.01),
        (12, (0.2, 0.15, 0.12, 0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.01), 0.9, 0.0),
        (12, (0.2, 0.15, 0.12, 0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.01), 0.9, 0.02),
        (5, (0.4, 0.25, 0.2, 0.1, 0.05), 0.8, 0.34),
        (4, (0.0, 0.0, 0.6, 0.4), 1.0, 0.05),  # no photon can reach the first two bins
        (8, None, 0.55, 0.34),
    ],
)
def test_float_law_matches_exact_inclusion_exclusion(n_bins, weights, eta, dark):
    n_max = 2 * n_bins
    L = click_matrix(DetectorModel(n_bins, weights, eta, dark), n_max)
    exact = click_matrix_exact(n_bins, weights, eta, dark, n_max)
    zero = exact == 0.0
    assert np.all(L[zero] == 0.0)
    assert np.all(np.abs(L[~zero] - exact[~zero]) <= 1e-13 * exact[~zero])


def test_large_uniform_click_law_is_stochastic():
    L = click_matrix(DetectorModel(128, efficiency=0.3, dark_click_prob=0.01), 256)
    assert L.shape == (129, 257)
    assert np.all(L >= 0.0)
    assert np.abs(L.sum(axis=0) - 1.0).max() < 1e-13


@st.composite
def detectors(draw, max_bins=48):
    eta = draw(st.floats(0.0, 1.0), label="eta")
    dark = draw(st.floats(0.0, 0.5, exclude_max=True), label="dark")
    if draw(st.booleans(), label="uniform"):
        return DetectorModel(draw(st.integers(1, max_bins), label="n_bins"), None, eta, dark)
    # Dirichlet(1, ..., 1) weights: normalized exponential variates.
    size = min(max_bins, 24)
    u = draw(st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=2, max_size=size), label="u")
    w = -np.log(u)
    return DetectorModel(len(u), tuple(w / w.sum()), eta, dark)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(det=detectors(), n_max=st.integers(0, 60))
def test_click_law_is_stochastic_for_random_detectors(det, n_max):
    L = click_matrix(det, n_max)
    assert L.shape == (det.n_bins + 1, n_max + 1)
    assert np.all(L >= 0.0)
    assert np.abs(L.sum(axis=0) - 1.0).max() < 1e-13
    if det.n_bins <= 6:
        for n in range(min(n_max, 4) + 1):
            ref = click_probs_by_enumeration(n, det.n_bins, det.bin_weights, det.efficiency, det.dark_click_prob)
            assert np.allclose(L[:, n], ref, atol=1e-12, rtol=0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(det=detectors(max_bins=12), data=st.data())
def test_forward_then_invert_returns_the_input(det, data):
    N = det.n_bins
    raw = data.draw(st.lists(st.floats(0.0, 1.0), min_size=N + 1, max_size=N + 1), label="p")
    assume(sum(raw) > 0.0)
    p = PhotonDistribution(np.array(raw) / sum(raw))
    c = forward_clicks(p, det)
    cond = np.linalg.cond(click_matrix(det, N))
    if not cond <= CONDITION_LIMIT:
        with pytest.raises(IllConditionedInversionError):
            invert_clicks(c, det, N)
        return
    recovered = invert_clicks(c, det, N).probs
    assert np.abs(recovered - p.probs).max() <= 4 * cond * np.finfo(float).eps


def test_nonuniform_click_law_has_no_bin_cap():
    w = np.random.default_rng(7).dirichlet(np.ones(64))
    L = click_matrix(DetectorModel(64, tuple(w / w.sum()), 0.63, 0.01), 128)
    assert np.all(L >= 0.0)
    assert np.abs(L.sum(axis=0) - 1.0).max() < 1e-13
    # Two weights 1/64 moved by one ulp send an ideal detector through the
    # bin-by-bin recurrence; it must agree with the photon-by-photon chain.
    w = [1.0 / 64] * 64
    w[0], w[1] = np.nextafter(w[0], 1.0), np.nextafter(w[1], 0.0)
    nudged = DetectorModel(64, tuple(w))
    assert not nudged.is_uniform
    L, chain = click_matrix(nudged, 128), click_matrix(DetectorModel.ideal(64), 128)
    zero = chain == 0.0
    assert np.all(L[zero] == 0.0)
    assert np.all(np.abs(L[~zero] - chain[~zero]) <= 1e-12 * chain[~zero])
    # Equal explicit weights take the chain itself.
    explicit = click_matrix(DetectorModel(64, tuple([1.0 / 64] * 64)), 128)
    assert np.array_equal(explicit, chain)


def test_unequal_bins_stay_stochastic_at_thousands_of_photons():
    # Unnormalised factors, (1 - eta)^n and C(n, k) (eta w_b)^(n-k), leave
    # float range here: columns built from them fall 1e-12 short of 1 at
    # 1,682 photons and sum to 0 from about 2,500.
    w = np.linspace(1.0, 2.0, 8)
    det = DetectorModel(8, tuple(w / w.sum()), efficiency=0.6)
    before = binomial_matrix.cache_info()
    L = click_matrix(det, 3000)
    assert binomial_matrix.cache_info() == before  # each bin's table is built uncached
    assert np.all(L >= 0.0)
    for n in (1682, 2000, 2500, 3000):
        assert abs(L[:, n].sum() - 1.0) < 1e-13, n


@st.composite
def unequal_detectors(draw):
    # Dirichlet(1, ..., 1) weights with some bins switched off.
    u = draw(st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=2, max_size=12), label="u")
    off = draw(st.lists(st.booleans(), min_size=len(u), max_size=len(u)), label="off")
    w = np.where(off, 0.0, -np.log(u))
    assume(w.sum() > 0)
    det = DetectorModel(len(u), tuple(w / w.sum()), draw(st.floats(0.0, 1.0), label="eta"),
                        draw(st.floats(0.0, 0.5, exclude_max=True), label="dark"))
    assume(not det.is_uniform)
    return det


@settings(max_examples=60, deadline=None, derandomize=True)
@given(det=unequal_detectors(), n_max=st.integers(0, 400))
def test_unequal_bin_law_is_stochastic_for_random_detectors(det, n_max):
    L = click_matrix(det, n_max)
    assert np.all(L >= 0.0)
    assert np.abs(L.sum(axis=0) - 1.0).max() < 1e-13


@pytest.mark.parametrize("eta,dark", [(0.6, 0.0), (0.6, 0.01), (1.0, 0.0)])
def test_nearly_equal_bins_match_the_uniform_chain_beyond_the_oracles_reach(eta, dark):
    # Weights (1 + 1e-9 u)/N go bin by bin; at 500 photons no exact
    # oracle runs, but the photon-by-photon chain is the same law to ~1e-9.
    w = 1.0 + 1e-9 * np.random.default_rng(19).random(8)
    det = DetectorModel(8, tuple(w / w.sum()), eta, dark)
    assert not det.is_uniform
    L, chain = click_matrix(det, 500), click_matrix(DetectorModel(8, None, eta, dark), 500)
    assert np.array_equal(L == 0.0, chain == 0.0)
    np.testing.assert_allclose(L, chain, rtol=1e-7, atol=0)


def test_click_matrix_refuses_a_law_beyond_its_cost_limits_before_building_it(monkeypatch):
    monkeypatch.setattr(detector, "_lit_bins", lambda det, n_max: pytest.fail("built a refused law"))
    w = np.linspace(1.0, 2.0, 1000)
    cases = [
        # 9 x 10^8 floats, 7.2 GB, and ~10^8 photon steps of the uniform chain.
        (DetectorModel(8, efficiency=0.5), 10**8, "~7.2e+09 bytes"),
        # A small law, but ~N^2 n_max^2 = 10^12 multiply-adds of the bin-by-bin recurrence.
        (DetectorModel(1000, tuple(w / w.sum()), 0.5), 1000, "~1e+12 multiply-adds"),
        # A thin 32 MB law, but 2 x 10^6 Python-level steps of the uniform chain.
        (DetectorModel(1), 2 * 10**6, "~2e+10 multiply-adds"),
    ]
    for det, n_max, cost in cases:
        with pytest.raises(InvalidArgumentError, match="the limits are 8e\\+07 and 1e\\+10") as info:
            click_matrix(det, n_max)
        assert cost in str(info.value)


def test_a_wide_dark_law_the_dark_step_price_admits_builds():
    # 20,000 bins with dark clicks: at 30 multiply-adds an entry of its
    # dark pre-pass the law was priced at ~1.2e10 and refused; at 8 it is
    # ~3.4e9, and it builds in about a second.  Its n = 0 column is the
    # Binomial(N, d) law of the bins lit in the dark.
    N, d = 20_000, 0.01
    L = click_matrix(DetectorModel(N, efficiency=0.5, dark_click_prob=d), 1)
    assert L.shape == (N + 1, 2)
    np.testing.assert_allclose(L.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(L[:, 0], stats.binom.pmf(np.arange(N + 1), N, d), rtol=1e-11, atol=1e-14)


def test_wide_uniform_law_with_dark_clicks_builds_without_a_square_table():
    # 3001 bins: an (N+1) x (N+1) table would take 72 MB; the law takes 96 kB.
    tracemalloc.start()
    try:
        L = click_matrix(DetectorModel(3000, dark_click_prob=0.01), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.shape == (3001, 4) and peak < 10**6
    assert np.abs(L.sum(axis=0) - 1.0).max() < 1e-13
    # The vacuum column is the Binomial(3000, 0.01) law of the dark clicks alone.
    assert np.array_equal(L[:, 0], binomial_matrix(0.01, 3000)[:, 3000])
    pmf = [float(math.comb(3000, k) * Fraction(1, 100) ** k * Fraction(99, 100) ** (3000 - k)) for k in range(40)]
    assert np.allclose(L[:40, 0], pmf, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "n_bins,n_max,eta,dark",
    [(1, 4, 0.5, 0.0), (5, 0, 0.5, 0.1), (8, 8, 1.0, 0.0), (8, 8, 0.07, 0.01), (40, 80, 0.3, 0.005),
     (128, 256, 0.62, 0.02), (3000, 3, 0.3, 0.01), (3000, 40, 1.0, 0.0)],
)
def test_row_major_uniform_chain_equals_the_column_walk(n_bins, n_max, eta, dark):
    L = click_matrix(DetectorModel(n_bins, efficiency=eta, dark_click_prob=dark), n_max)
    assert L.flags.c_contiguous
    assert np.array_equal(L, uniform_click_matrix_by_columns(n_bins, eta, dark, n_max))


@pytest.mark.parametrize("prob,m_max", [(0.0, 3), (1.0, 3), (0.3, 28), (0.07, 512)])
def test_row_major_binomial_matrix_equals_the_column_walk(prob, m_max):
    B = binomial_matrix(prob, m_max)
    assert B.flags.c_contiguous
    assert np.array_equal(B, binomial_by_columns(prob, m_max))


def test_wide_ideal_law_runs_no_dark_steps():
    # 20,000 bins without dark clicks: the N dark Pascal steps would leave the
    # start column as it is, so they are neither run nor charged to the cost.
    N = 20_000
    L = click_matrix(DetectorModel.ideal(N), 3)
    closed_forms = [(1, 2, 1 / N), (2, 2, 1 - 1 / N), (3, 3, (N - 1) * (N - 2) / N**2)]
    for i, n, expected in closed_forms:
        assert abs(L[i, n] - expected) <= 1e-13 * expected, (i, n)


@pytest.mark.parametrize(
    "grid,message",
    [
        ([[0.5, float("nan")], [0.25, 0.25]], "must be finite"),
        ([[0.75, -0.25], [0.25, 0.25]], "must be >= 0"),
        ([[0.5, 0.5], [0.25, 0.25]], "sum to 1.5"),
    ],
)
def test_joint_forward_clicks_rejects_a_bad_grid_before_building_laws(monkeypatch, grid, message):
    monkeypatch.setattr(detector, "click_matrix", lambda det, n_max: pytest.fail("built a click law"))
    with pytest.raises(InvalidArgumentError, match=f"joint photon-number probabilities {message}"):
        joint_forward_clicks(np.array(grid), DetectorModel(2), DetectorModel(2))


def test_joint_statistics_refuse_grids_that_are_not_2_d():
    with pytest.raises(InvalidArgumentError, match="joint click probs must be a 2-d grid"):
        JointClickDistribution(np.array([0.5, 0.5]))
    with pytest.raises(InvalidArgumentError, match="p_joint must be a 2-d photon-number grid"):
        joint_forward_clicks(np.full((2, 2, 2), 0.125), DetectorModel(2), DetectorModel(2))


def test_efficiency_folding_equals_pre_thinning():
    # Folding eta into the click law must equal thinning the light first.
    p = thermal_pn(1.3, n_max=60)
    det = DetectorModel(4, efficiency=0.41)
    via_detector = forward_clicks(p, det)
    via_loss = forward_clicks(apply_loss(p, 0.41), DetectorModel.ideal(4))
    assert np.allclose(via_detector.probs, via_loss.probs, atol=1e-12, rtol=0)


def test_vacuum_column_is_pure_dark_counts():
    det = DetectorModel(3, efficiency=0.9, dark_click_prob=0.25)
    L = click_matrix(det, 0)
    ref = [0.75**3, 3 * 0.25 * 0.75**2, 3 * 0.25**2 * 0.75, 0.25**3]
    assert np.allclose(L[:, 0], ref, atol=1e-15, rtol=0)


def test_click_distribution_validation():
    with pytest.raises(InvalidArgumentError):
        ClickDistribution(np.array([0.9]))  # needs at least i = 0..1
    with pytest.raises(InvalidArgumentError):
        ClickDistribution(np.array([0.7, 0.7]))
    c = ClickDistribution(np.array([0.25, 0.5, 0.25]))
    assert c.n_bins == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_detector_inputs_rejected(bad):
    with pytest.raises(InvalidArgumentError):
        DetectorModel(bad)
    with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
        click_matrix(DetectorModel(2), bad)
    for kwargs in ({"bin_weights": (bad, 1.0)}, {"efficiency": bad}, {"dark_click_prob": bad}):
        with pytest.raises(InvalidArgumentError):
            DetectorModel(2, **kwargs)
    with pytest.raises(InvalidArgumentError):
        ClickDistribution(np.array([bad, 0.5]))
    with pytest.raises(InvalidArgumentError):
        ClickDistribution(np.array([bad, bad]))
    with pytest.raises(InvalidArgumentError):
        JointClickDistribution(np.array([[bad, 0.5], [0.25, 0.25]]))
    with pytest.raises(InvalidArgumentError):
        CountRecord((bad, 3))
    with pytest.raises(InvalidArgumentError):
        sample_counts(ClickDistribution(np.array([0.5, 0.5])), bad, seed=1)


def test_joint_forward_and_conditioning():
    # Independent product input: conditioning must not change the other arm.
    p1 = coherent_pn(0.8, n_max=20)
    p2 = thermal_pn(0.5, n_max=20)
    det1 = DetectorModel(4, efficiency=0.6)
    det2 = DetectorModel(2, efficiency=0.9)
    joint = joint_forward_clicks(np.outer(p1.probs, p2.probs), det1, det2)
    c1 = forward_clicks(p1, det1)
    c2 = forward_clicks(p2, det2)
    assert np.allclose(joint.probs, np.outer(c1.probs, c2.probs), atol=1e-12, rtol=0)

    marg, prob = condition_on_clicks(joint, which_arm=1, k=None)
    assert prob == 1.0
    assert np.allclose(marg.probs, c2.probs, atol=1e-12, rtol=0)

    sliced, prob = condition_on_clicks(joint, which_arm=2, k=1)
    assert np.isclose(prob, c2.probs[1], atol=1e-12)
    assert np.allclose(sliced.probs, c1.probs, atol=1e-12, rtol=0)


def test_condition_probabilities_partition():
    p = thermal_pn(0.4, n_max=25)
    grid = np.diag(p.probs)
    det = DetectorModel(3, efficiency=0.5)
    joint = joint_forward_clicks(grid, det, det)
    probs = [condition_on_clicks(joint, 2, k)[1] for k in range(4)]
    assert np.isclose(sum(probs), 1.0, atol=1e-12)


def test_condition_on_impossible_outcome():
    joint = JointClickDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateConditioningError):
        condition_on_clicks(joint, which_arm=1, k=1)
    with pytest.raises(InvalidArgumentError):
        condition_on_clicks(joint, which_arm=3, k=0)
    for k in (5, -1, 1.5):
        with pytest.raises(InvalidArgumentError):
            condition_on_clicks(joint, which_arm=1, k=k)


def test_sample_counts_reproducible_and_calibrated():
    c = forward_clicks(coherent_pn(1.0), DetectorModel.ideal(4))
    a = sample_counts(c, 50_000, seed=11)
    b = sample_counts(c, 50_000, seed=11)
    assert a == b
    assert a.total_events > 0
    freqs = np.array(a.counts) / a.total_events
    assert np.abs(freqs - c.probs).max() < 0.01
    with pytest.raises(InvalidArgumentError):
        sample_counts(c, 0.0, seed=1)


@pytest.mark.parametrize("total", [1e3, 1e17])
def test_sample_counts_is_the_one_documented_poisson_draw(total):
    # A record is default_rng(seed).poisson of the means, bit for bit, with
    # the zero means skipped and every count exact even at 1e17 events.
    c = ClickDistribution(np.array([0.0, 0.25, 0.0, 0.7, 0.05, 0.0]))
    for seed in (0, 11, 13):
        full = np.random.default_rng(seed).poisson(total * c.probs)
        assert sample_counts(c, total, seed).counts == tuple(int(x) for x in full)


def test_poisson_blocks_of_non_integer_means_are_one_full_draw():
    # A total times a binomial law, one mean zeroed: 12,000 rows in blocks
    # of 3,640 continue one stream and equal one full draw bit for bit.
    means = 2.5e3 * stats.binom.pmf(np.arange(9), 8, 0.3)
    means[4] = 0.0
    blocks = list(detector.poisson_blocks(means, 12_000, seed=5))
    assert [block.shape[0] for block in blocks] == [3640, 3640, 3640, 1080]
    full = np.random.default_rng(5).poisson(means, size=(12_000, 9))
    assert np.array_equal(np.concatenate(blocks), full)


def test_count_record_validation():
    with pytest.raises(InvalidArgumentError):
        CountRecord((3,))
    with pytest.raises(InvalidArgumentError):
        CountRecord((3, -1))
    rec = CountRecord((5, 0, 2))
    assert rec.total_events == 7
    assert rec.n_bins == 2
