import dataclasses

import numpy as np
import pytest

from clickstats import (
    CatalysisSweepConfig,
    DegenerateConditioningError,
    DetectorModel,
    InvalidArgumentError,
    TmsvConfig,
    apply_loss,
    catalysis_conditional_pn,
    forward_clicks,
    mc_q_mandel_from_clicks,
    q_binomial,
    q_mandel,
    q_mandel_from_clicks,
    run_catalysis_sweep,
    run_tmsv,
    thermal_pn,
    tmsv_joint_pn,
)


def test_tmsv_joint_pn_is_correlated_thermal():
    grid = tmsv_joint_pn(0.3, cutoff=40)
    assert grid.shape == (41, 41)
    off_diagonal = grid - np.diag(np.diag(grid))
    assert np.max(np.abs(off_diagonal)) == 0.0
    assert grid.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.diag(grid), thermal_pn(0.3, n_max=40).probs, atol=1e-15)


def fast_tmsv(**overrides):
    base = dict(
        mean_photons=0.2,
        n_bins=2,
        efficiency_1=0.4,
        efficiency_2=0.4,
        herald_ks=(0, 1, 2),
        cutoff=40,
    )
    base.update(overrides)
    return TmsvConfig(**base)


def test_run_tmsv_exact_table_structure():
    config = fast_tmsv()
    result = run_tmsv(config)
    assert len(result.rows) == 2 * 4
    for row in result.rows:
        assert row.record is None and row.q_b is None
        assert np.isfinite(row.q_b_exact)
    by_arm = {arm: [r for r in result.rows if r.arm == arm] for arm in (1, 2)}
    for arm, rows in by_arm.items():
        unconditional = [r for r in rows if r.herald_k is None]
        assert len(unconditional) == 1
        assert unconditional[0].probability == pytest.approx(1.0, abs=1e-12)
        # herald_ks covers every click outcome of the 2-bin opposite arm.
        total = sum(r.probability for r in rows if r.herald_k is not None)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_run_tmsv_unconditional_matches_thermal_marginal():
    config = fast_tmsv()
    result = run_tmsv(config)
    marginal = forward_clicks(thermal_pn(0.2, n_max=40), config.detector(1))
    row = next(r for r in result.rows if r.arm == 1 and r.herald_k is None)
    assert row.q_b_exact == pytest.approx(q_binomial(marginal), abs=1e-12)


def test_run_tmsv_arms_mirror_at_equal_efficiency():
    result = run_tmsv(fast_tmsv())
    one = {r.herald_k: r for r in result.rows if r.arm == 1}
    two = {r.herald_k: r for r in result.rows if r.arm == 2}
    for k in one:
        assert one[k].probability == pytest.approx(two[k].probability, abs=1e-12)
        assert one[k].q_b_exact == pytest.approx(two[k].q_b_exact, abs=1e-12)


def test_run_tmsv_arms_differ_at_unequal_efficiency():
    result = run_tmsv(fast_tmsv(efficiency_2=0.1))
    one = next(r for r in result.rows if r.arm == 1 and r.herald_k is None)
    two = next(r for r in result.rows if r.arm == 2 and r.herald_k is None)
    assert abs(one.q_b_exact - two.q_b_exact) > 1e-4


def test_run_tmsv_sampling_is_reproducible():
    config = fast_tmsv(expected_events=5_000.0, n_replicas=100, seed=17)
    a = run_tmsv(config)
    b = run_tmsv(config)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.record.counts == rb.record.counts
        assert ra.q_b.value == rb.q_b.value
        assert ra.q_b.std_error == rb.q_b.std_error
        assert ra.q_b.value == pytest.approx(ra.q_b_exact, abs=6 * ra.q_b.std_error + 0.05)
    c = run_tmsv(dataclasses.replace(config, seed=18))
    assert any(ra.record.counts != rc.record.counts for ra, rc in zip(a.rows, c.rows))


def test_tmsv_config_rejects_bad_arm():
    with pytest.raises(InvalidArgumentError):
        fast_tmsv().detector(3)


def test_configs_reject_empty_sweeps_and_negative_seeds():
    with pytest.raises(InvalidArgumentError, match="reflectivities"):
        CatalysisSweepConfig(reflectivities=())
    with pytest.raises(InvalidArgumentError, match="herald_ks"):
        TmsvConfig(herald_ks=())
    for config in (CatalysisSweepConfig(), TmsvConfig()):
        with pytest.raises(InvalidArgumentError, match="seed"):
            dataclasses.replace(config, seed=-1)
    # Every field is checked at construction, not when the run reaches it.
    bad = [
        (TmsvConfig, {"efficiency_1": 2.0}, "efficiency"),
        (TmsvConfig, {"n_bins": 0}, "n_bins"),
        (TmsvConfig, {"n_replicas": 0}, "n_replicas"),
        (TmsvConfig, {"mean_photons": -1.0}, "mean_photons"),
        (CatalysisSweepConfig, {"signal_efficiency": 2.0}, "efficiency"),
        (CatalysisSweepConfig, {"alpha": float("nan")}, "alpha"),
        (CatalysisSweepConfig, {"reflectivities": (2.0,)}, "reflectivity"),
        (CatalysisSweepConfig, {"herald_k": -1}, "herald_k"),
        (CatalysisSweepConfig, {"herald_detector": DetectorModel(2), "herald_k": 3}, "herald_k"),
        (TmsvConfig, {"herald_ks": (1.5,)}, "herald_k"),
        (TmsvConfig, {"herald_ks": (0, 9)}, "herald_k"),  # 8 bins
        (TmsvConfig, {"herald_ks": (-1,)}, "herald_k"),
        (CatalysisSweepConfig, {"expected_events": -1.0}, "expected_events"),
    ]
    for cls, kwargs, field_name in bad:
        with pytest.raises(InvalidArgumentError, match=field_name):
            cls(**kwargs)


def test_the_sweep_requires_an_event_count():
    # None is "exact only" for the squeezed-pair table; the sweep draws a
    # count record at every point, so it refuses None when it is built.
    with pytest.raises(InvalidArgumentError, match="expected_events"):
        CatalysisSweepConfig(expected_events=None)
    assert TmsvConfig(expected_events=None).expected_events is None


def fast_catalysis(**overrides):
    base = dict(
        alpha=1.0,
        reflectivities=(0.3, 0.9),
        herald_k=1,
        n_bins=4,
        signal_efficiency=0.4,
        expected_events=2_000.0,
        n_replicas=100,
        seed=5,
        cutoff=25,
    )
    base.update(overrides)
    return CatalysisSweepConfig(**base)


def test_catalysis_sweep_point_consistency():
    config = fast_catalysis()
    result = run_catalysis_sweep(config)
    assert len(result.points) == 2
    det = config.signal_detector()
    for point in result.points:
        assert not point.degenerate
        signal_pn, prob = catalysis_conditional_pn(
            config.alpha, point.reflectivity, config.herald_k, cutoff=config.cutoff
        )
        assert point.herald_prob == pytest.approx(prob, abs=1e-12)
        clicks = forward_clicks(signal_pn, det)
        assert point.q_b_exact == pytest.approx(q_binomial(clicks), abs=1e-12)
        detected = apply_loss(signal_pn, config.signal_efficiency)
        assert point.q_m_exact == pytest.approx(q_mandel(detected), abs=1e-12)
        assert point.record.total_events > 0
        for est in (point.q_b, point.q_f, point.q_m):
            assert est.std_error > 0
            assert est.n_replicas >= 2


def test_catalysis_sweep_inverts_to_the_configured_n_max():
    # A tall inversion: 8 bins read back onto 0..6 photons.  Each point's
    # Q_M is the bootstrap of its own record on the fourth of its seeds.
    config = fast_catalysis(n_bins=8, inversion_n_max=6)
    det = config.signal_detector()
    root = np.random.SeedSequence(config.seed)
    for point in run_catalysis_sweep(config).points:
        seeds = root.spawn(1)[0].spawn(4)
        expected = mc_q_mandel_from_clicks(point.record, det, 6, config.n_replicas, seeds[3])
        assert point.q_m.value == expected.value
        assert np.array_equal(point.q_m.samples, expected.samples)
    assert point.q_m.value != run_catalysis_sweep(fast_catalysis(n_bins=8)).points[-1].q_m.value
    with pytest.raises(InvalidArgumentError, match="inversion_n_max"):
        fast_catalysis(inversion_n_max=-1)


def test_inversion_route_truncation_gives_a_false_certificate_for_coherent_light():
    # A documented limit, not a feature: Q_M from clicks assumes at most
    # n_max = N = 8 photons arrive.  At efficiency 0.6 the default sweep's
    # detected light has mass beyond 8, and the square inversion, whose
    # residual is 0, folds it into 0..8 and biases Q_M downward.
    config = CatalysisSweepConfig(signal_efficiency=0.6)
    det = config.signal_detector()
    for reflectivity, beyond, bias in ((0.0, 0.011671, -0.010322), (0.15, 0.028568, -0.045537)):
        signal_pn, _ = catalysis_conditional_pn(config.alpha, reflectivity, config.herald_k)
        detected = apply_loss(signal_pn, config.signal_efficiency)
        assert detected.probs[9:].sum() == pytest.approx(beyond, rel=1e-4)
        from_clicks = q_mandel_from_clicks(forward_clicks(signal_pn, det), det, 8)
        assert from_clicks - q_mandel(detected) == pytest.approx(bias, rel=1e-4)
    # At R = 0 the light is coherent (exact Q_M ~ 0), yet a 1e6-event
    # record reads Q_M = -0.0127 +- 0.0020, over 6 sigma, while Q_B stays
    # within 2 sigma of 0.
    point = run_catalysis_sweep(
        dataclasses.replace(config, reflectivities=(0.0,), expected_events=1e6, n_replicas=2000)
    ).points[0]
    assert abs(point.q_m_exact) < 1e-8
    assert point.q_m.value == pytest.approx(-0.012734, rel=1e-4)
    assert point.q_m.value < -6 * point.q_m.std_error
    assert point.q_b.value == pytest.approx(-0.001856, rel=1e-3)
    assert abs(point.q_b.value) < 2 * point.q_b.std_error


def test_catalysis_sweep_reproducible():
    config = fast_catalysis()
    a = run_catalysis_sweep(config)
    b = run_catalysis_sweep(config)
    for pa, pb in zip(a.points, b.points):
        assert pa.record.counts == pb.record.counts
        assert pa.q_b.value == pb.q_b.value
        assert pa.q_f.std_error == pb.q_f.std_error
        assert pa.q_m.value == pb.q_m.value
    c = run_catalysis_sweep(dataclasses.replace(config, seed=6))
    assert any(pa.record.counts != pc.record.counts for pa, pc in zip(a.points, c.points))


def test_catalysis_sweep_flags_degenerate_points_and_continues():
    # With an ideal herald, k=0 at zero reflectivity can never fire: the
    # single photon always stays in the herald arm.
    config = fast_catalysis(herald_k=0, reflectivities=(0.0, 0.5))
    result = run_catalysis_sweep(config)
    first, second = result.points
    assert first.degenerate
    assert first.herald_prob == 0.0
    assert first.record is None and first.q_b is None and first.q_m_exact is None
    assert not second.degenerate
    assert second.q_b is not None


def test_catalysis_sweep_with_every_point_degenerate_raises():
    # An ideal herald never sees 99 photons: no point has a state to score.
    with pytest.raises(DegenerateConditioningError, match="every sweep point"):
        run_catalysis_sweep(fast_catalysis(herald_k=99))
    with pytest.raises(DegenerateConditioningError):
        run_catalysis_sweep(fast_catalysis(herald_k=0, reflectivities=(0.0,)))


def test_catalysis_sweep_respects_click_herald():
    tmd = fast_catalysis().signal_detector()
    config = fast_catalysis(herald_detector=tmd, reflectivities=(0.5,))
    point = run_catalysis_sweep(config).points[0]
    signal_pn, prob = catalysis_conditional_pn(
        config.alpha, 0.5, config.herald_k, herald_detector=tmd, cutoff=config.cutoff
    )
    assert point.herald_prob == pytest.approx(prob, abs=1e-12)
    assert point.q_b_exact == pytest.approx(
        q_binomial(forward_clicks(signal_pn, config.signal_detector())), abs=1e-12
    )
