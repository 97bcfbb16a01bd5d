import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from clickstats import (
    CatalysisSweepConfig,
    DegenerateConditioningError,
    DetectorModel,
    InvalidArgumentError,
    PhotonDistribution,
    apply_loss,
    catalysis_conditional_pn,
    click_matrix,
    coherent_pn,
    fock_pn,
    q_mandel,
    thermal_pn,
)
from clickstats import fockspace
from clickstats.detector import DEGENERATE_PROB
from clickstats.distributions import _coherent_pn, binomial_matrix
from oracles import (
    beamsplitter_by_expm,
    beamsplitter_by_sectors,
    beamsplitter_sector_by_expm,
    product_amps,
    sector_matrix,
    two_photon_amplitudes,
)


def fock_two_mode(n: int, m: int, pad: int = 0) -> np.ndarray:
    amps = np.zeros((n + 1 + pad, m + 1 + pad))
    amps[n, m] = 1.0
    return amps


def sector_vector(amps: np.ndarray, t: int) -> np.ndarray:
    return np.array([amps[p, t - p] for p in range(t + 1)])


def marginal(amps: np.ndarray, mode: int) -> np.ndarray:
    return (amps * amps).sum(axis=1 - mode)


@pytest.mark.parametrize("transmittance", [0.17, 0.5, 0.83])
@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_sectors_match_matrix_exponential(transmittance, t):
    oracle = beamsplitter_sector_by_expm(t, transmittance)
    for n in range(t + 1):
        out = beamsplitter_by_sectors(fock_two_mode(n, t - n), transmittance)
        np.testing.assert_allclose(sector_vector(out, t), oracle[:, n], atol=1e-12)


@pytest.mark.parametrize("transmittance", [0.17, 0.5, 0.83])
def test_superposition_sectors_match_matrix_exponential(transmittance):
    # Every sector of a dense input has several non-zero columns, which the
    # basis-state test above never exercises.
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((5, 6))
    state = raw / math.sqrt(np.sum(raw * raw))
    out = beamsplitter_by_sectors(state, transmittance)
    for t in range(4 + 5 + 1):
        v = np.array([state[n, t - n] if n <= 4 and t - n <= 5 else 0.0 for n in range(t + 1)])
        oracle = beamsplitter_sector_by_expm(t, transmittance)
        np.testing.assert_allclose(sector_vector(out, t), oracle @ v, atol=1e-12)
    assert np.count_nonzero([state[n, 5 - n] for n in range(5)]) == 5


def test_partial_sector_matrix_columns_are_bit_identical():
    ct, st_ = math.sqrt(0.37), math.sqrt(0.63)
    for t in (1, 4, 9):
        full = sector_matrix(t, ct, st_, range(t + 1))
        part = sector_matrix(t, ct, st_, [1, t])
        assert np.array_equal(part[:, [1, t]], full[:, [1, t]])
        assert not np.any(np.delete(part, [1, t], axis=1))


@pytest.mark.parametrize("transmittance", [0.3, 0.7])
def test_two_photon_amplitudes_match_hand_expansion(transmittance):
    table = two_photon_amplitudes(transmittance)
    for (n, m) in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]:
        out = beamsplitter_by_sectors(fock_two_mode(n, m), transmittance)
        for (p, q), amp in ((k[1], v) for k, v in table.items() if k[0] == (n, m)):
            assert out[p, q] == pytest.approx(amp, abs=1e-12)


def test_hong_ou_mandel_dip():
    out = beamsplitter_by_sectors(fock_two_mode(1, 1), 0.5)
    assert abs(out[1, 1]) < 1e-15
    grid = out * out
    assert grid[2, 0] == pytest.approx(0.5, abs=1e-12)
    assert grid[0, 2] == pytest.approx(0.5, abs=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((4, 5))
    state = raw / math.sqrt(np.sum(raw * raw))
    back = beamsplitter_by_sectors(beamsplitter_by_sectors(state, 0.37), 0.37, inverse=True)
    np.testing.assert_allclose(back[:4, :5], state, atol=1e-12)
    mask = np.ones_like(back, dtype=bool)
    mask[:4, :5] = False
    assert np.max(np.abs(back[mask])) < 1e-12


def test_product_input_shapes_and_marginals():
    # The oracle's catalysis input, |1> times the truncated |alpha>.
    state = product_amps(1, coherent_pn(1.44, n_max=30).probs)
    assert state.shape == (2, 31)
    np.testing.assert_allclose(marginal(state, 0), fock_pn(1).probs, atol=1e-15)
    np.testing.assert_allclose(
        marginal(state, 1), coherent_pn(1.44, n_max=30).probs, atol=1e-14
    )


def test_beamsplitter_conserves_mean_photon_number():
    state = product_amps(1, coherent_pn(2.25, n_max=50).probs)
    out = beamsplitter_by_sectors(state, 1.0 - 0.35)
    n = np.arange(out.shape[0])
    total = n @ marginal(out, 0) + n @ marginal(out, 1)
    assert total == pytest.approx(1.0 + 2.25, abs=1e-9)


def test_apply_loss_closed_forms():
    coh = apply_loss(coherent_pn(1.3, n_max=60), 0.4)
    np.testing.assert_allclose(coh.probs, coherent_pn(0.52, n_max=60).probs, atol=1e-12)

    th = apply_loss(thermal_pn(1.0, n_max=120), 0.5)
    np.testing.assert_allclose(th.probs, thermal_pn(0.5, n_max=120).probs, atol=1e-10)

    single = apply_loss(fock_pn(1), 0.8)
    np.testing.assert_allclose(single.probs, [0.2, 0.8], atol=1e-15)

    with pytest.raises(InvalidArgumentError):
        apply_loss(fock_pn(1), 1.5)


@pytest.mark.parametrize("eta", [0.0, 0.07, 0.5, 1.0])
def test_apply_loss_matches_scipy_binomial(eta):
    n = np.arange(121)
    ref = stats.binom.pmf(n[:, None], n[None, :], eta)
    loss = np.column_stack([apply_loss(fock_pn(k, n_max=120), eta).probs for k in n])
    np.testing.assert_allclose(loss, ref, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    raw=arrays(float, st.integers(1, 40), elements=st.floats(0.0, 1.0)),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
)
def test_apply_loss_composes(raw, a, b):
    if raw.sum() == 0:
        raw[0] = 1.0
    p = PhotonDistribution(raw / raw.sum())
    twice = apply_loss(apply_loss(p, a), b)
    np.testing.assert_allclose(twice.probs, apply_loss(p, a * b).probs, rtol=0, atol=1e-14)


def test_non_finite_amplitudes_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidArgumentError, match="alpha"):
            catalysis_conditional_pn(alpha=bad, reflectivity=0.5, herald_k=1)
        with pytest.raises(InvalidArgumentError, match="reflectivity"):
            catalysis_conditional_pn(alpha=1.0, reflectivity=bad, herald_k=1)
        with pytest.raises(InvalidArgumentError, match="herald_k"):
            catalysis_conditional_pn(1.0, 0.5, bad)


def test_catalysis_zero_reflectivity_passes_coherent_through():
    signal, prob = catalysis_conditional_pn(1.2, 0.0, herald_k=1, cutoff=40)
    coh = coherent_pn(1.44, n_max=40)
    assert prob == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(signal.probs[:41], coh.probs, atol=1e-12)
    assert np.max(signal.probs[41:]) < 1e-15
    assert abs(q_mandel(signal)) < 1e-9


def test_catalysis_zero_reflectivity_wrong_herald_is_degenerate():
    with pytest.raises(DegenerateConditioningError):
        catalysis_conditional_pn(1.2, 0.0, herald_k=0)
    with pytest.raises(DegenerateConditioningError):
        catalysis_conditional_pn(0.5, 0.3, herald_k=200)


def test_catalysis_full_reflectivity_swaps_modes():
    mu = 1.44
    signal, prob = catalysis_conditional_pn(math.sqrt(mu), 1.0, herald_k=2)
    assert prob == pytest.approx(math.exp(-mu) * mu**2 / 2.0, abs=1e-9)
    assert signal.probs[1] == pytest.approx(1.0, abs=1e-12)
    assert q_mandel(signal) == pytest.approx(-1.0, abs=1e-12)


def test_catalysis_with_click_herald_at_zero_reflectivity():
    tmd = DetectorModel(n_bins=4, efficiency=0.5)
    coh = coherent_pn(1.0, n_max=30)
    for k, expected_prob in [(0, 0.5), (1, 0.5)]:
        signal, prob = catalysis_conditional_pn(1.0, 0.0, k, herald_detector=tmd, cutoff=30)
        assert prob == pytest.approx(expected_prob, abs=1e-12)
        np.testing.assert_allclose(signal.probs[:31], coh.probs, atol=1e-12)
    with pytest.raises(DegenerateConditioningError):
        catalysis_conditional_pn(1.0, 0.0, 2, herald_detector=tmd, cutoff=30)
    with pytest.raises(InvalidArgumentError):
        catalysis_conditional_pn(1.0, 0.0, 5, herald_detector=tmd, cutoff=30)


def test_catalysis_rejects_bad_herald_k():
    with pytest.raises(InvalidArgumentError):
        catalysis_conditional_pn(1.0, 0.5, -1)
    with pytest.raises(InvalidArgumentError, match="herald_k"):
        catalysis_conditional_pn(1.0, 0.5, 2.5)


def test_catalysis_rejects_a_click_herald_beyond_the_bins_before_building_its_law(monkeypatch):
    monkeypatch.setattr(fockspace, "click_matrix", lambda det, n_max: pytest.fail("built a click law"))
    with pytest.raises(InvalidArgumentError, match="herald_k=5 exceeds the detector's 4 bins"):
        catalysis_conditional_pn(1.0, 0.5, 5, herald_detector=DetectorModel(4, efficiency=0.5))


def test_catalysis_rejects_out_of_range_alpha_and_reflectivity():
    with pytest.raises(InvalidArgumentError, match="alpha"):
        catalysis_conditional_pn(-0.5, 0.5, 1)
    for bad in (-0.1, 1.2):
        with pytest.raises(InvalidArgumentError, match="reflectivity"):
            catalysis_conditional_pn(1.0, bad, 1)


def test_catalysis_rejects_bad_cutoffs_before_the_coherent_state_cache():
    for bad in (-1, 2.5, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="cutoff"):
            catalysis_conditional_pn(1.0, 0.5, 1, cutoff=bad)


def test_catalysis_reads_the_cached_coherent_state():
    # coherent_pn owns the cache; each sweep point takes its square roots.
    state = coherent_pn(2.25, n_max=30)
    assert coherent_pn(2.25, n_max=30.0) is state
    assert _coherent_pn.cache_info().maxsize == 64
    assert not state.probs.flags.writeable
    hits = _coherent_pn.cache_info().hits
    catalysis_conditional_pn(1.5, 0.3, 1, cutoff=30)
    assert _coherent_pn.cache_info().hits == hits + 1


def test_catalysis_leaves_the_binomial_cache_alone():
    # Each sweep point has its own reflectivity, so its splitter table is
    # never read again: only loss matrices stay cached.
    before = binomial_matrix.cache_info()
    for herald in (None, DetectorModel(4, efficiency=0.5)):
        catalysis_conditional_pn(1.3, 0.4321, 1, herald_detector=herald)
    assert binomial_matrix.cache_info() == before


def test_catalysis_interpolates_between_anchors():
    # At intermediate reflectivity the heralded state is genuinely new:
    # sub-Poissonian but not a Fock state.
    signal, prob = catalysis_conditional_pn(1.0, 0.9, herald_k=1)
    assert 0.0 < prob < 1.0
    assert -1.0 < q_mandel(signal) < -0.05


def heralded_by_oracle(joint, herald_k, herald_detector=None):
    """Unnormalized heralded signal law from an oracle's joint grid."""
    n_a = joint.shape[0] - 1
    if herald_detector is None:
        weights = np.zeros(n_a + 1)
        if herald_k <= n_a:
            weights[herald_k] = 1.0
    else:
        weights = click_matrix(herald_detector, n_a)[herald_k]
    return weights @ joint


def oracle_joint(evolve, alpha, reflectivity, cutoff=None):
    amps = product_amps(1, coherent_pn(alpha * alpha, n_max=cutoff).probs)
    return evolve(amps, 1.0 - reflectivity) ** 2


def assert_matches_oracle(
    unnorm, alpha, reflectivity, herald_k, herald_detector=None, cutoff=None, atol=1e-15
):
    ref_prob = float(unnorm.sum())
    if ref_prob < DEGENERATE_PROB:
        with pytest.raises(DegenerateConditioningError):
            catalysis_conditional_pn(alpha, reflectivity, herald_k, herald_detector, cutoff)
        return
    signal, prob = catalysis_conditional_pn(alpha, reflectivity, herald_k, herald_detector, cutoff)
    assert prob == pytest.approx(ref_prob, rel=1e-12, abs=0)
    assert signal.probs.shape == unnorm.shape
    np.testing.assert_allclose(signal.probs, unnorm / ref_prob, rtol=0, atol=atol)


# The expm oracle itself is only good to ~1e-14 on these grids; the sector
# tests above hold it to 1e-12 as well.
@pytest.mark.parametrize(
    "evolve, atol", [(beamsplitter_by_sectors, 1e-15), (beamsplitter_by_expm, 1e-12)]
)
def test_catalysis_closed_form_matches_both_oracles(evolve, atol):
    config = CatalysisSweepConfig()
    tmd = DetectorModel(8, efficiency=0.6)
    for reflectivity in config.reflectivities:
        joint = oracle_joint(evolve, config.alpha, reflectivity)
        for herald_detector in (None, tmd):
            unnorm = heralded_by_oracle(joint, config.herald_k, herald_detector)
            assert_matches_oracle(
                unnorm, config.alpha, reflectivity, config.herald_k, herald_detector, atol=atol
            )
    for reflectivity in (0.15, 0.5, 0.9):
        joint = oracle_joint(evolve, 1.3, reflectivity, cutoff=40)
        unnorm = heralded_by_oracle(joint, 2)
        assert unnorm.size == 40 + 2
        assert_matches_oracle(unnorm, 1.3, reflectivity, 2, cutoff=40, atol=atol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.0, 3.0),
    reflectivity=st.floats(0.0, 1.0),
    herald_k=st.integers(0, 4),
    n_bins=st.none() | st.integers(1, 8),
    efficiency=st.floats(0.05, 1.0),
)
def test_catalysis_closed_form_matches_sector_oracle(alpha, reflectivity, herald_k, n_bins, efficiency):
    det = None if n_bins is None else DetectorModel(n_bins, efficiency=efficiency)
    if det is not None and herald_k > n_bins:
        with pytest.raises(InvalidArgumentError, match="herald_k"):
            catalysis_conditional_pn(alpha, reflectivity, herald_k, det)
        return
    joint = oracle_joint(beamsplitter_by_sectors, alpha, reflectivity)
    assert_matches_oracle(heralded_by_oracle(joint, herald_k, det), alpha, reflectivity, herald_k, det)


def test_binomial_matrix_is_cached_and_read_only():
    cached = binomial_matrix(0.07, 29)
    assert binomial_matrix(0.07, 29) is cached
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 0.5
    fresh = binomial_matrix.__wrapped__(0.07, 29)
    assert np.array_equal(cached, fresh)
