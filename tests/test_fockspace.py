import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from clickstats import (
    BeamSplitter,
    DegenerateConditioningError,
    DetectorModel,
    InvalidArgumentError,
    PhotonDistribution,
    TwoModeState,
    apply_beamsplitter,
    apply_loss,
    catalysis_conditional_pn,
    coherent_pn,
    fock_pn,
    product_input,
    q_mandel,
    thermal_pn,
)
from clickstats.fockspace import _sector_matrix
from oracles import beamsplitter_sector_by_expm, two_photon_amplitudes


def fock_two_mode(n: int, m: int, pad: int = 0) -> TwoModeState:
    amps = np.zeros((n + 1 + pad, m + 1 + pad))
    amps[n, m] = 1.0
    return TwoModeState(amps)


def sector_vector(state: TwoModeState, t: int) -> np.ndarray:
    return np.array([state.amps[p, t - p] for p in range(t + 1)])


def test_two_mode_state_validation():
    with pytest.raises(InvalidArgumentError):
        TwoModeState(np.ones(3))
    with pytest.raises(InvalidArgumentError):
        TwoModeState(np.full((2, 2), 0.5) * 1.1)
    s = fock_two_mode(1, 2)
    assert not s.amps.flags.writeable
    assert s.cutoffs == (1, 2)
    with pytest.raises(InvalidArgumentError):
        s.marginal_pn(2)


def test_beamsplitter_parameterizations():
    bs = BeamSplitter(0.25)
    assert bs.reflectivity == 0.75
    assert BeamSplitter.from_reflectivity(0.75).transmittance == 0.25
    assert BeamSplitter.from_angle(0.0).reflectivity == 1.0
    with pytest.raises(InvalidArgumentError):
        BeamSplitter(1.2)
    with pytest.raises(InvalidArgumentError):
        BeamSplitter.from_reflectivity(-0.1)


@pytest.mark.parametrize("transmittance", [0.17, 0.5, 0.83])
@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_sectors_match_matrix_exponential(transmittance, t):
    oracle = beamsplitter_sector_by_expm(t, transmittance)
    bs = BeamSplitter(transmittance)
    for n in range(t + 1):
        out = apply_beamsplitter(fock_two_mode(n, t - n), bs)
        np.testing.assert_allclose(sector_vector(out, t), oracle[:, n], atol=1e-12)


@pytest.mark.parametrize("transmittance", [0.17, 0.5, 0.83])
def test_superposition_sectors_match_matrix_exponential(transmittance):
    # Every sector of a dense input has several non-zero columns, which the
    # basis-state test above never exercises.
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((5, 6))
    state = TwoModeState(raw / math.sqrt(np.sum(raw * raw)))
    out = apply_beamsplitter(state, BeamSplitter(transmittance))
    for t in range(4 + 5 + 1):
        v = np.array([state.amps[n, t - n] if n <= 4 and t - n <= 5 else 0.0 for n in range(t + 1)])
        oracle = beamsplitter_sector_by_expm(t, transmittance)
        np.testing.assert_allclose(sector_vector(out, t), oracle @ v, atol=1e-12)
    assert np.count_nonzero([state.amps[n, 5 - n] for n in range(5)]) == 5


def test_partial_sector_matrix_columns_are_bit_identical():
    ct, st_ = math.sqrt(0.37), math.sqrt(0.63)
    for t in (1, 4, 9):
        full = _sector_matrix(t, ct, st_, range(t + 1))
        part = _sector_matrix(t, ct, st_, [1, t])
        assert np.array_equal(part[:, [1, t]], full[:, [1, t]])
        assert not np.any(np.delete(part, [1, t], axis=1))


@pytest.mark.parametrize("transmittance", [0.3, 0.7])
def test_two_photon_amplitudes_match_hand_expansion(transmittance):
    table = two_photon_amplitudes(transmittance)
    bs = BeamSplitter(transmittance)
    for (n, m) in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]:
        out = apply_beamsplitter(fock_two_mode(n, m), bs)
        for (p, q), amp in ((k[1], v) for k, v in table.items() if k[0] == (n, m)):
            assert out.amps[p, q] == pytest.approx(amp, abs=1e-12)


def test_hong_ou_mandel_dip():
    out = apply_beamsplitter(fock_two_mode(1, 1), BeamSplitter(0.5))
    assert abs(out.amps[1, 1]) < 1e-15
    grid = out.joint_pn()
    assert grid[2, 0] == pytest.approx(0.5, abs=1e-12)
    assert grid[0, 2] == pytest.approx(0.5, abs=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((4, 5))
    state = TwoModeState(raw / math.sqrt(np.sum(raw * raw)))
    bs = BeamSplitter(0.37)
    back = apply_beamsplitter(apply_beamsplitter(state, bs), bs, inverse=True)
    np.testing.assert_allclose(back.amps[:4, :5], state.amps, atol=1e-12)
    mask = np.ones_like(back.amps, dtype=bool)
    mask[:4, :5] = False
    assert np.max(np.abs(back.amps[mask])) < 1e-12


def test_product_input_shapes_and_marginals():
    state = product_input(1, 1.2, cutoff=30)
    assert state.cutoffs == (1, 30)
    np.testing.assert_allclose(
        state.marginal_pn(0).probs, fock_pn(1).probs, atol=1e-15
    )
    np.testing.assert_allclose(
        state.marginal_pn(1).probs, coherent_pn(1.44, n_max=30).probs, atol=1e-14
    )
    with pytest.raises(InvalidArgumentError):
        product_input(-1, 1.0)
    with pytest.raises(InvalidArgumentError):
        product_input(1, -0.5)


def test_beamsplitter_conserves_mean_photon_number():
    state = product_input(1, 1.5, cutoff=50)
    out = apply_beamsplitter(state, BeamSplitter.from_reflectivity(0.35))
    total = out.marginal_pn(0).mean + out.marginal_pn(1).mean
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
        with pytest.raises(InvalidArgumentError):
            TwoModeState(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidArgumentError, match="alpha"):
            product_input(1, bad)
        with pytest.raises(InvalidArgumentError, match="fock_n"):
            product_input(bad, 1.0)
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
    with pytest.raises(InvalidArgumentError, match="fock_n"):
        product_input(2.5, 1.0)


def test_catalysis_interpolates_between_anchors():
    # At intermediate reflectivity the heralded state is genuinely new:
    # sub-Poissonian but not a Fock state.
    signal, prob = catalysis_conditional_pn(1.0, 0.9, herald_k=1)
    assert 0.0 < prob < 1.0
    assert -1.0 < q_mandel(signal) < -0.05
