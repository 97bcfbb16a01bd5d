import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats import (
    CatalysisSweepConfig,
    ClickDistribution,
    CountRecord,
    DetectorModel,
    InvalidArgumentError,
    UndefinedWitnessError,
    coherent_pn,
    fock_pn,
    forward_clicks,
    mc_q_mandel_from_clicks,
    mc_witness,
    q_binomial,
    q_fake,
    q_mandel,
    run_catalysis_sweep,
    sample_counts,
    thermal_pn,
    witness_from_counts,
)
from clickstats.detector import _BLOCK_FLOATS
from clickstats.witnesses import WITNESSES, poisson_bootstrap, witness_rows
from oracles import click_witness_gradient, click_witness_of_counts, delta_method_std, delta_method_std_of_rows


def test_q_mandel_anchors():
    assert abs(q_mandel(coherent_pn(1.0, n_max=60))) < 1e-10
    assert q_mandel(fock_pn(1)) == -1.0
    assert abs(q_mandel(thermal_pn(0.5)) - 0.5) < 1e-6
    assert abs(q_mandel(thermal_pn(2.0, n_max=80)) - 2.0) < 1e-7


def test_q_mandel_undefined_for_vacuum():
    with pytest.raises(UndefinedWitnessError, match="mean photon number is 0"):
        q_mandel(fock_pn(0))


def test_q_binomial_zero_for_binomial_clicks():
    c = forward_clicks(coherent_pn(1.5, n_max=70), DetectorModel.ideal(8))
    assert abs(q_binomial(c)) < 1e-10


def test_q_binomial_is_negative_for_coherent_light_on_unequal_bins():
    # A documented limit, not a feature: Q_B's binomial benchmark assumes
    # equal bins.  On unequal bins coherent light lights each bin on its own
    # with p_b = 1 - exp(-eta w_b mu), and this Poisson-binomial variance
    # sum p_b (1 - p_b) lies below N pbar (1 - pbar), so Q_B < 0 although
    # the light is classical.
    for s, expected in ((0.1, -1.5286e-3), (0.2, -6.1329e-3), (0.3, -1.3869e-2)):
        w = 1.0 + s * np.linspace(-1.0, 1.0, 8)
        w /= w.sum()
        det = DetectorModel(8, efficiency=0.6, bin_weights=tuple(w))
        p = 1.0 - np.exp(-0.6 * 6.0 * w)
        poisson_binomial = 8 * np.sum(p * (1 - p)) / (p.sum() * (8 - p.sum())) - 1.0
        assert poisson_binomial == pytest.approx(expected, rel=1e-4)
        assert q_binomial(forward_clicks(coherent_pn(6.0), det)) == pytest.approx(poisson_binomial, abs=1e-8)


def test_tiny_coherent_means_read_their_cutoff_as_nonclassical():
    # A documented limit, not a feature: TAIL_TOLERANCE is absolute, so
    # below a mean of 1.414e-5 the n = 2 mass mu^2/2 is under 1e-10 and the
    # state is cut at n = 1.  A two-level state reads Q_M = -p_1 and, on N
    # ideal bins, Q_B = -(N - 1) p_1 / (N - p_1), although the light is
    # coherent.  Larger means keep more terms, and the residue is smaller.
    p = coherent_pn(1.41e-5)
    assert p.n_max == 1
    assert q_mandel(p) == pytest.approx(-p.probs[1], rel=1e-12)
    for n_bins, expected in ((8, -1.2337e-5), (64, -1.3879e-5)):
        det = DetectorModel.ideal(n_bins)
        assert q_binomial(forward_clicks(p, det)) == pytest.approx(expected, rel=1e-4)
        residues = [q_binomial(forward_clicks(coherent_pn(mu), det)) for mu in np.geomspace(1e-3, 1.0, 601)]
        assert max(map(abs, residues)) < 1.7e-7


def test_q_binomial_single_photon_is_minus_one():
    c = forward_clicks(fock_pn(1), DetectorModel.ideal(8))
    assert q_binomial(c) == -1.0


def test_q_binomial_golden_super_binomial():
    # Half vacuum, half two-photon collisions on N=2: variance doubles.
    c = ClickDistribution(np.array([0.5, 0.0, 0.5]))
    assert np.isclose(q_binomial(c), 1.0, atol=1e-12)
    assert np.isclose(q_fake(c), 0.0, atol=1e-12)


def test_q_fake_negative_for_coherent():
    mu = 1.0
    c = forward_clicks(coherent_pn(mu, n_max=70), DetectorModel.ideal(8))
    q = 1.0 - np.exp(-mu / 8)
    assert np.isclose(q_fake(c), -q, atol=1e-10)


def test_click_witnesses_undefined_at_pinned_means():
    vacuum = ClickDistribution(np.array([1.0, 0.0, 0.0]))
    everything = ClickDistribution(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(UndefinedWitnessError, match="pinned at 0 or N"):
        q_binomial(vacuum)
    with pytest.raises(UndefinedWitnessError, match="pinned at 0 or N"):
        q_binomial(everything)
    # A mean within q of N is not pinned.  The direct E[c^2] - E[c]^2 is pure
    # round-off there (it gives Q_B = -1.0 at q = 2e-15), so Q_B takes the
    # moments of the unlit-bin count 8 - c, which is 1 with probability q.
    # Exact Q_B = 8 q (1 - q) / ((8 - q) q) - 1 = -7 q / (8 - q).
    for q in (1e-15, 2e-15):
        nearly_everything = np.zeros(9)
        nearly_everything[7:] = q, 1.0 - q
        assert q_binomial(ClickDistribution(nearly_everything)) == pytest.approx(-7 * q / (8 - q), rel=0, abs=2e-16)
    with pytest.raises(UndefinedWitnessError, match="mean click number is 0"):
        q_fake(vacuum)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_bins=st.integers(1, 64),
    eta=st.floats(0.05, 1.0),
    dark=st.sampled_from([0.0, 0.01, 0.1]),
    mu=st.floats(1.0, 381.8),  # 381.8: about the largest mean coherent_pn's cutoff of 512 can hold
)
def test_q_binomial_of_coherent_light_is_zero_up_to_saturation(n_bins, eta, dark, mu):
    # Coherent light lights each equal bin on its own: exact Q_B = 0, at
    # any mean.  What is left is the cutoff residue of coherent_pn's 1e-10
    # tail, at most 1.064e-8 over mu >= 1 (N = 64, eta = 1, mu = 1.038, just
    # past a cutoff step); 3.6e-10 at mu = 6 on 8 bins.  The direct moments
    # give 3.8e-8 at mu = 150 and 7.0 at mu = 300 on ideal:8.
    det = DetectorModel(n_bins, efficiency=eta, dark_click_prob=dark)
    assert abs(q_binomial(forward_clicks(coherent_pn(mu), det))) <= 1.1e-8


def test_bootstrap_refuses_fewer_than_two_defined_replicas():
    # One click in each of 1 + 1 outcomes: Q_B is defined (mean 1/2 of N = 1),
    # but a replica with either count 0 pins the mean at 0 or N.
    for seed, defined in ((0, 0), (2, 1)):
        with pytest.raises(UndefinedWitnessError, match=f"only {defined} of 2 replicas gave a defined witness"):
            mc_witness(CountRecord((1, 1)), "Q_B", 2, seed)


def test_witness_from_counts_matches_probabilities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        counts = tuple(int(x) for x in rng.integers(1, 500, size=9))
        rec = CountRecord(counts)
        probs = np.array(counts, dtype=float) / sum(counts)
        c = ClickDistribution(probs)
        assert np.isclose(witness_from_counts(rec, "Q_B"), q_binomial(c), atol=1e-12)
        assert np.isclose(witness_from_counts(rec, "Q_F"), q_fake(c), atol=1e-12)


def test_witness_from_counts_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        witness_from_counts(CountRecord((1, 2)), "Q_X")
    with pytest.raises(UndefinedWitnessError):
        witness_from_counts(CountRecord((0, 0, 0)), "Q_B")


def test_witness_lookup_names_every_witness_when_it_rejects_a_name():
    with pytest.raises(InvalidArgumentError) as info:
        witness_rows("Q_X", 3)
    for name in WITNESSES:
        assert name in str(info.value)


def test_witness_lookup_builds_q_mandel_from_the_detector():
    det = DetectorModel(4, efficiency=0.6)
    freqs = forward_clicks(fock_pn(1), det).probs[None, :]
    # n_max defaults to the detector's N.
    values = witness_rows("Q_M", 4, det)(freqs)
    assert np.array_equal(values, witness_rows("Q_M", 4, det, n_max=4)(freqs))
    assert values[0] == pytest.approx(-0.6, abs=1e-6)
    for name in WITNESSES:
        with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
            witness_rows(name, 4, det, n_max=-1)


def test_mc_witness_reproducible_and_centered():
    c = forward_clicks(coherent_pn(1.0), DetectorModel.ideal(8))
    rec = sample_counts(c, 100_000, seed=42)
    a = mc_witness(rec, "Q_B", n_replicas=3000, seed=7)
    b = mc_witness(rec, "Q_B", n_replicas=3000, seed=7)
    assert a.value == b.value
    assert a.std_error == b.std_error
    assert np.array_equal(a.samples, b.samples)
    # The reported value is the observed record's witness, not a replica mean.
    assert a.value == witness_from_counts(rec, "Q_B")
    # The replica scatter should cover the truth (Q_B = 0 for coherent).
    assert abs(a.value) < 4 * a.std_error
    assert a.n_replicas + round(a.dropped_fraction * 3000) == 3000
    assert not a.samples.flags.writeable


def test_mc_witness_drops_undefined_replicas():
    # A tiny record makes many replicas empty or pinned at zero clicks.
    rec = CountRecord((3, 1, 0, 0, 0))
    est = mc_witness(rec, "Q_B", n_replicas=2000, seed=1)
    assert est.dropped_fraction > 0.1
    assert est.n_replicas >= 2


def test_mc_witness_rejects_hopeless_records():
    with pytest.raises(UndefinedWitnessError):
        mc_witness(CountRecord((0, 0, 0, 0)), "Q_B", n_replicas=100, seed=0)
    with pytest.raises(InvalidArgumentError):
        mc_witness(CountRecord((5, 5)), "Q_B", n_replicas=1, seed=0)
    with pytest.raises(InvalidArgumentError):
        mc_witness(CountRecord((5, 5)), "nope", n_replicas=10, seed=0)
    with pytest.raises(InvalidArgumentError, match="needs a detector"):
        mc_witness(CountRecord((5, 5)), "Q_M", n_replicas=10, seed=0)


@pytest.mark.parametrize("n_replicas", [2.5, "100", [100], None])
def test_bootstraps_reject_non_integer_replica_counts(n_replicas):
    rec = CountRecord((50, 5, 3))
    with pytest.raises(InvalidArgumentError, match="n_replicas must be an integer"):
        mc_witness(rec, "Q_B", n_replicas=n_replicas, seed=0)
    with pytest.raises(InvalidArgumentError, match="n_replicas must be an integer"):
        mc_q_mandel_from_clicks(rec, DetectorModel.ideal(2), 2, n_replicas=n_replicas, seed=0)


def test_bootstrap_takes_an_integer_valued_float_replica_count():
    rec = CountRecord((50, 5, 3))
    a = mc_witness(rec, "Q_B", n_replicas=100.0, seed=0)
    assert np.array_equal(a.samples, mc_witness(rec, "Q_B", n_replicas=100, seed=0).samples)


def test_bootstraps_reject_counts_too_large_to_resample():
    # numpy's Poisson sampler refuses means beyond ~9.2e18.
    rec = CountRecord((10**19, 5, 3))
    for witness in ("Q_B", "Q_F"):
        with pytest.raises(InvalidArgumentError, match="too large"):
            mc_witness(rec, witness, n_replicas=10, seed=0)
    with pytest.raises(InvalidArgumentError, match="too large"):
        mc_q_mandel_from_clicks(rec, DetectorModel.ideal(2), 2, n_replicas=10, seed=0)


@pytest.mark.parametrize(
    "counts",
    [
        (900, 0, 40, 0, 3, 0, 0),  # zeros in the middle and at the tail
        (0, 0, 7, 0, 0),  # every count but one is zero
        (12, 5, 0, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, 1),  # 1,640 replicas total 0 and are dropped: 1,122 and 518 in its two blocks
        (1, 0, 0, 0, 0, 0, 0, 0, 1),  # four blocks of 3,640 rows, dropping 498, 489, 497 and 156
    ],
)
def test_poisson_bootstrap_replicas_equal_the_full_documented_draw(counts):
    # Only non-zero counts are drawn, one block at a time; that matches the
    # full draw only while numpy consumes no randomness for a zero rate and
    # each block's draw continues the stream where the last one stopped.
    est = poisson_bootstrap(CountRecord(counts), np.ravel, n_replicas=12_000, seed=17)
    full = np.random.default_rng(17).poisson(np.array(counts, dtype=float), size=(12_000, len(counts)))
    totals = full.sum(axis=1, dtype=float)
    expected = full[totals > 0] / totals[totals > 0, None]
    assert np.array_equal(est.samples, expected.ravel())


_BLOCK_BYTES = 8 * _BLOCK_FLOATS
_Q_M_RECORD = CountRecord((26948, 17321, 4644, 749, 80, 7, 0, 0, 0))  # every replica enters the active set


@pytest.mark.parametrize(
    "bootstrap, n_replicas",
    [
        (lambda n: mc_witness(CountRecord((900, 300, 40, 6, 3, 1, 0, 0, 0)), "Q_B", n, 3), 200_000),
        (lambda n: mc_q_mandel_from_clicks(_Q_M_RECORD, DetectorModel(8, efficiency=0.3, dark_click_prob=0.001), 8, n, 3), 50_000),
    ],
    ids=["Q_B", "Q_M"],
)
def test_poisson_bootstrap_memory_does_not_grow_with_the_replica_matrix(bootstrap, n_replicas):
    # Replicas are drawn, normalised and scored a block at a time: the peak
    # is the scores and their concatenation (8 bytes a replica each) plus a
    # few blocks.  Q_M's active set holds about 13 copies of its block.
    # Drawing the whole replica matrix at once peaked at 25.8 (Q_B) and
    # 49.3 MB (Q_M) on these cases.
    bootstrap(2)  # numpy's first seeded draw imports modules
    tracemalloc.start()
    try:
        bootstrap(n_replicas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n_replicas + 16 * _BLOCK_BYTES


def test_poisson_blocks_hands_each_block_over():
    # The generator holds no block it has yielded, so the bootstrap frees a
    # block when it drops its empty replicas.  One block of 2,000 replicas of
    # 9 click numbers is 144,000 bytes; this case peaked at 2.1 blocks, and
    # at 2.8 while the generator held the block it had yielded.
    record = CountRecord((1, 0, 0, 0, 0, 0, 0, 0, 1))  # 13.5% of replicas are empty
    mc_witness(record, "Q_B", 2000, 3)  # numpy's first seeded draw imports modules
    tracemalloc.start()
    try:
        mc_witness(record, "Q_B", 2000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * 9 * 2000


@pytest.mark.parametrize("seed", [1.5, -1, np.int64(-3)])
def test_samplers_reject_a_seed_numpy_refuses(seed):
    # Both samplers take default_rng's seed rule; its refusal names the seed.
    with pytest.raises(InvalidArgumentError, match="seed"):
        sample_counts(ClickDistribution(np.array([0.5, 0.5])), 100, seed)
    with pytest.raises(InvalidArgumentError, match="seed"):
        mc_witness(CountRecord((5, 5, 5)), "Q_B", 10, seed)


def test_bootstraps_reject_replica_matrices_too_large_to_allocate():
    # 10^15 replicas ask for petabytes: the allocation fails at once.
    rec = CountRecord((50, 5, 0))
    for witness in ("Q_B", "Q_F"):
        with pytest.raises(InvalidArgumentError, match="do not fit in memory"):
            mc_witness(rec, witness, n_replicas=10**15, seed=0)
    with pytest.raises(InvalidArgumentError, match="do not fit in memory"):
        mc_q_mandel_from_clicks(rec, DetectorModel.ideal(2), 2, n_replicas=10**15, seed=0)


def test_mc_witness_error_scale_tracks_events():
    c = forward_clicks(thermal_pn(0.6), DetectorModel.ideal(8))
    small = mc_witness(sample_counts(c, 1e3, seed=2), "Q_B", n_replicas=2000, seed=3)
    large = mc_witness(sample_counts(c, 1e5, seed=2), "Q_B", n_replicas=2000, seed=3)
    ratio = small.std_error / large.std_error
    assert 10 * 0.7 < ratio < 10 * 1.3


_DELTA_RECORDS = [
    sample_counts(forward_clicks(p, DetectorModel(8, efficiency=0.6)), 1e5, seed=seed)
    for seed, p in enumerate((coherent_pn(2.0), thermal_pn(1.0), fock_pn(3)))
]


def test_delta_method_gradient_matches_central_differences():
    for record in _DELTA_RECORDS:
        n = np.asarray(record.counts, dtype=float)
        for witness in ("Q_B", "Q_F"):
            assert click_witness_of_counts(n, witness) == pytest.approx(witness_from_counts(record, witness), abs=1e-12)
            grad = click_witness_gradient(n, witness)
            steps = 1e-3 * np.maximum(n, 1.0)
            central = [
                (click_witness_of_counts(n + h * e, witness) - click_witness_of_counts(n - h * e, witness)) / (2 * h)
                for h, e in zip(steps, np.eye(n.size))
            ]
            np.testing.assert_allclose(grad, central, rtol=0, atol=1e-6 * np.abs(grad).max())
            generic = delta_method_std_of_rows(witness_rows(witness, record.n_bins), n)
            assert generic == pytest.approx(delta_method_std(n, witness), rel=1e-6)


def test_click_bootstrap_errors_match_the_delta_method():
    # Var Q ~ sum_i (dQ/dn_i)^2 n_i under Poisson counts.  Over 40 seeds of
    # these records (1e5 events, 10k replicas) the ratio spanned
    # 0.981-1.027 with sd 0.008, the bootstrap's own noise; over 12 seeds of
    # the default catalysis sweep, 0.976-1.022.
    for k, record in enumerate(_DELTA_RECORDS):
        for witness in ("Q_B", "Q_F"):
            est = mc_witness(record, witness, n_replicas=10_000, seed=1000 + k)
            assert 0.96 < est.std_error / delta_method_std(record.counts, witness) < 1.04


def test_q_mandel_bootstrap_errors_match_the_delta_method():
    # The default sweep's physics at two reflectivities, 10k replicas (three
    # blocks), against central differences of the same rows function.  Over
    # 30 sweep seeds the ratio spanned 0.985-1.012 at R = 0.7 and 0.980-1.060
    # at R = 0.15, where 2 of 30 exceeded 1.04: tail counts of 0-12 leave
    # the linearised error loose there.
    config = CatalysisSweepConfig(reflectivities=(0.15, 0.7))
    rows = witness_rows("Q_M", config.n_bins, config.signal_detector())
    for point in run_catalysis_sweep(config).points:
        assert 0.96 < point.q_m.std_error / delta_method_std_of_rows(rows, point.record.counts) < 1.04
