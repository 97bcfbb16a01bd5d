import numpy as np
import pytest
from scipy import stats

from clickstats import (
    CatalysisSweepConfig,
    ClickDistribution,
    CountRecord,
    CutoffOverflowError,
    DetectorModel,
    InvalidArgumentError,
    PhotonDistribution,
    TmsvConfig,
    apply_loss,
    catalysis_conditional_pn,
    coherent_pn,
    fock_pn,
    moments,
    sample_counts,
    thermal_pn,
)
from clickstats.distributions import HARD_CUTOFF_LIMIT, TAIL_TOLERANCE, is_integer


def test_photon_distribution_validates_and_freezes():
    p = PhotonDistribution(np.array([0.25, 0.75]))
    assert not p.probs.flags.writeable
    assert p.n_max == 1
    with pytest.raises(InvalidArgumentError):
        PhotonDistribution(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(InvalidArgumentError):
        PhotonDistribution(np.array([0.5, 0.4]))  # sums to 0.9
    # Rounding below zero is clipped to +0.0, as for click probabilities;
    # anything further below is refused.
    clipped = PhotonDistribution(np.array([0.25, -1e-13, 0.75])).probs
    assert clipped[1] == 0.0 and not np.signbit(clipped[1])
    with pytest.raises(InvalidArgumentError, match="photon-number probabilities must be >= 0"):
        PhotonDistribution(np.array([0.25, -1e-11, 0.75]))
    for bad in (np.array([[0.5, 0.5]]), np.array([])):
        with pytest.raises(InvalidArgumentError, match="non-empty 1-d vector"):
            PhotonDistribution(bad)


@pytest.mark.parametrize("mu", [0.1, 1.0, 5.0])
def test_coherent_matches_poisson(mu):
    p = coherent_pn(mu, n_max=80)
    ref = stats.poisson.pmf(np.arange(81), mu)
    assert np.allclose(p.probs, ref, atol=1e-13, rtol=0)
    assert np.isclose(p.probs.sum(), 1.0, atol=1e-15)


@pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 6.0, 20.0, 75.0, 140.0, 200.0])
def test_coherent_matches_scipy_pmf_relative(mu):
    # scipy computes exp(k log mu - mu - lgamma(k + 1)) too; both round the
    # exponent, so the relative gap grows with mu (4.3e-13 at mu = 200).
    p = coherent_pn(mu)
    ref = stats.poisson.pmf(np.arange(p.n_max + 1), mu)
    np.testing.assert_allclose(p.probs, ref / ref.sum(), rtol=1e-12, atol=0)


def test_coherent_cutoff_matches_scipy_sf_on_dense_grid():
    n = np.arange(HARD_CUTOFF_LIMIT + 1)
    for mu in np.arange(1, 3001) * 0.1:
        expected = int(np.argmax(stats.poisson.sf(n, mu) < TAIL_TOLERANCE))
        assert coherent_pn(mu).n_max == expected, mu


def test_coherent_mean_beyond_hard_limit_overflows():
    for mu in (HARD_CUTOFF_LIMIT + 1.0, 1e12):
        with pytest.raises(CutoffOverflowError):
            coherent_pn(mu)


@pytest.mark.parametrize("mu", [0.0, 0.2, 1.0, 3.0])  # 0: the vacuum, all mass at n = 0
def test_thermal_matches_geometric(mu):
    p = thermal_pn(mu, n_max=200)
    r = mu / (1.0 + mu)
    ref = (1 - r) * r ** np.arange(201)
    assert np.allclose(p.probs, ref, atol=1e-13, rtol=0)


@pytest.mark.parametrize(
    "build,mu,mean,var",
    [
        (coherent_pn, 0.7, 0.7, 0.7),
        (thermal_pn, 0.7, 0.7, 0.7 + 0.49),
        (thermal_pn, 2.0, 2.0, 6.0),
    ],
)
def test_moments_against_closed_forms(build, mu, mean, var):
    p = build(mu, n_max=150)
    m, v = moments(p)
    assert np.isclose(m, mean, atol=1e-9)
    assert np.isclose(v, var, atol=1e-9)


def test_moments_of_vacuum_and_fock():
    assert moments(coherent_pn(0.0)) == (0.0, 0.0)
    m, v = moments(fock_pn(3))
    assert m == 3.0 and v == 0.0


def test_default_cutoff_resolves_tail():
    for build, mu in [(coherent_pn, 4.0), (thermal_pn, 1.5)]:
        p = build(mu)
        wide = build(mu, n_max=p.n_max + 200)
        assert wide.probs[p.n_max + 1 :].sum() < 1e-10


def test_moments_stable_under_cutoff_doubling():
    # The n^2 weighting makes the variance the slowest moment to converge;
    # (2/3)^90 leaves it stable at the 1e-12 level.
    a = thermal_pn(2.0, n_max=90)
    b = thermal_pn(2.0, n_max=180)
    assert abs(a.mean - b.mean) < 1e-9
    assert abs(a.variance - b.variance) < 1e-9


def test_cutoff_overflow_raises():
    with pytest.raises(CutoffOverflowError):
        thermal_pn(50.0)
    beyond = HARD_CUTOFF_LIMIT + 1
    for build in (lambda: thermal_pn(0.5, n_max=beyond), lambda: fock_pn(1, n_max=beyond)):
        with pytest.raises(CutoffOverflowError, match=f"requested cutoff {beyond} exceeds hard limit"):
            build()


def test_explicit_cutoff_renormalizes():
    p = coherent_pn(2.0, n_max=4)  # aggressive truncation
    assert np.isclose(p.probs.sum(), 1.0, atol=1e-15)


def _assert_rejects_photon_number(bad):
    with pytest.raises(InvalidArgumentError, match="n must be an integer"):
        fock_pn(bad)
    with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
        fock_pn(1, n_max=bad)
    with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
        coherent_pn(1.0, n_max=bad)
    with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
        thermal_pn(1.0, n_max=bad)
    with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
        thermal_pn(0.0, n_max=bad)


def test_fock_one_hot_and_bounds():
    p = fock_pn(2, n_max=5)
    expected = np.zeros(6)
    expected[2] = 1.0
    assert np.array_equal(p.probs, expected)
    with pytest.raises(InvalidArgumentError):
        fock_pn(7, n_max=5)
    with pytest.raises(InvalidArgumentError):
        fock_pn(-1)
    assert np.array_equal(fock_pn(2.0, n_max=5.0).probs, p.probs)
    _assert_rejects_photon_number(2.5)
    _assert_rejects_photon_number(-3)


@pytest.mark.parametrize("bad", [[3], "3", 3j])
def test_non_numeric_photon_numbers_rejected(bad):
    assert not is_integer(bad)
    _assert_rejects_photon_number(bad)


@pytest.mark.parametrize("mu", [-0.5, -1e-9])
def test_negative_means_rejected(mu):
    with pytest.raises(InvalidArgumentError):
        coherent_pn(mu)
    with pytest.raises(InvalidArgumentError):
        thermal_pn(mu)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_inputs_rejected(bad):
    _assert_rejects_photon_number(bad)
    with pytest.raises(InvalidArgumentError):
        coherent_pn(bad)
    with pytest.raises(InvalidArgumentError):
        thermal_pn(bad)
    with pytest.raises(InvalidArgumentError):
        PhotonDistribution(np.array([bad, 0.5]))
    with pytest.raises(InvalidArgumentError):
        PhotonDistribution(np.array([bad]))


@pytest.mark.parametrize(
    "call, name",
    [
        ('coherent_pn(None)', "mean_photons"),
        ('thermal_pn("x")', "mean_photons"),
        ('coherent_pn("0.5")', "mean_photons"),
        ('coherent_pn(10**400)', "mean_photons"),
        ('TmsvConfig(mean_photons=None)', "mean_photons"),
        ('catalysis_conditional_pn(None, 0.5, 1)', "alpha"),
        ('CatalysisSweepConfig(alpha=None)', "alpha"),
        ('CatalysisSweepConfig(signal_efficiency=None)', "signal_efficiency"),
        ('CatalysisSweepConfig(reflectivities=("a",))', "reflectivity"),
        ('CatalysisSweepConfig(reflectivities=0.5)', "reflectivities"),
        ('DetectorModel(4, dark_click_prob=None)', "dark_click_prob"),
        ('DetectorModel(4, efficiency="x")', "efficiency"),
        ('DetectorModel(4, efficiency="0.5")', "efficiency"),
        ('DetectorModel(2, bin_weights=(None, 1))', "bin_weights"),
        ('CountRecord((None, 1))', "counts"),
        ('CountRecord((1.5, 1))', "counts"),
        ('apply_loss(fock_pn(1), None)', "efficiency"),
        ('sample_counts(c, None, 0)', "expected_total"),
    ],
)
def test_non_numbers_are_invalid_arguments_that_name_the_argument(call, name):
    # None, text (numeric text too), an int past float range, a fraction
    # where a count belongs and a bare number where a sequence belongs.
    with pytest.raises(InvalidArgumentError, match=rf"^{name} must"):
        eval(call, globals(), {"c": ClickDistribution(np.array([0.5, 0.5]))})
