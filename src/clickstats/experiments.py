"""End-to-end simulated experiments.

Two source-to-witness pipelines, each producing exact click statistics and,
optionally, noisy count records with bootstrapped error bars:

- ``run_tmsv``: a two-mode squeezed vacuum source feeding one multiplexed
  click detector per arm.  Each arm is analyzed unconditionally and
  conditioned on the click count of the opposite arm; heralding on k >= 1
  clicks turns the positive-witness thermal marginal into a sub-binomial
  state, which is the regime the binomial witness exists for.
- ``run_catalysis_sweep``: single-photon catalysis versus splitter
  reflectivity.  At every point the signal's click record is scored three
  ways: the binomial witness taken directly on clicks, the naive Mandel
  formula on clicks (the known-bad baseline), and the Mandel witness of the
  photon statistics recovered by constrained inversion.  The sweep is how
  the direct witness is validated against the inversion route.

Seeding is hierarchical: one ``numpy.random.SeedSequence`` per run, one
child per sweep point or table row, one grandchild per purpose (record,
each bootstrap), so results are reproducible and rows are independent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .detector import (
    CountRecord,
    DetectorModel,
    JointClickDistribution,
    condition_on_clicks,
    forward_clicks,
    joint_forward_clicks,
    sample_counts,
)
from .distributions import (
    PhotonDistribution,
    check_count,
    check_nonnegative,
    check_probability,
    thermal_pn,
)
from .errors import DegenerateConditioningError, InvalidArgumentError
from .fockspace import apply_loss, catalysis_conditional_pn
from .witnesses import (
    WITNESSES,
    WitnessEstimate,
    mc_witness,
    poisson_bootstrap,
    q_binomial,
    q_fake,
    q_mandel,
    witness_rows,
)


def _check_run(config) -> None:
    """The checks both configs share: seed, bootstrap size, events, cutoff."""
    check_count(config.seed, "seed")
    if check_count(config.n_replicas, "n_replicas") < 2:
        raise InvalidArgumentError("n_replicas must be >= 2")
    if config.expected_events is not None:
        check_nonnegative(config.expected_events, "expected_events", strict=True)
    if config.cutoff is not None:
        check_count(config.cutoff, "cutoff")


def tmsv_joint_pn(mean_photons: float, cutoff: int | None = None) -> np.ndarray:
    """Joint photon-number grid of a two-mode squeezed vacuum.

    Photon numbers in the two arms are perfectly correlated: the grid is
    diagonal with a geometric (thermal) profile whose per-arm mean is
    ``mean_photons``.  Loss is not included here; fold it into the
    detectors or apply a loss channel per arm.
    """
    marginal = thermal_pn(mean_photons, n_max=cutoff)
    return np.diag(marginal.probs)


@dataclass(frozen=True)
class TmsvConfig:
    """Two-mode squeezed vacuum study configuration.

    Defaults are calibrated to a weakly squeezed source read out by 8-bin
    detectors at 7% total efficiency: the unconditional arms show a small
    positive binomial witness, heralding on one opposite-arm click drives
    it negative at the 1e-2 scale.
    """

    mean_photons: float = 0.15
    n_bins: int = 8
    efficiency_1: float = 0.07
    efficiency_2: float = 0.07
    dark_click_prob: float = 0.0
    herald_ks: tuple[int, ...] = (0, 1, 2)
    expected_events: float | None = None
    n_replicas: int = 10_000
    seed: int = 0
    cutoff: int | None = None

    def __post_init__(self):
        _check_run(self)
        check_nonnegative(self.mean_photons, "mean_photons")
        if not self.herald_ks:
            raise InvalidArgumentError("herald_ks must not be empty")
        for arm in (1, 2):
            self.detector(arm)  # DetectorModel checks n_bins, efficiency and dark clicks
        for k in self.herald_ks:
            if check_count(k, "herald_k") > self.n_bins:
                raise InvalidArgumentError(f"herald_k={k} exceeds n_bins={self.n_bins}")

    def detector(self, arm: int) -> DetectorModel:
        if arm not in (1, 2):
            raise InvalidArgumentError("arm must be 1 or 2")
        eta = self.efficiency_1 if arm == 1 else self.efficiency_2
        return DetectorModel(self.n_bins, efficiency=eta, dark_click_prob=self.dark_click_prob)


@dataclass(frozen=True)
class TmsvRow:
    """One analyzed slice: witness arm, opposite-arm condition, results.

    ``herald_k`` of ``None`` is the unconditional marginal.  ``q_b`` is
    present only when the run sampled count records.
    """

    arm: int
    herald_k: int | None
    probability: float
    record: CountRecord | None
    q_b_exact: float
    q_b: WitnessEstimate | None


@dataclass(frozen=True)
class TmsvResult:
    config: TmsvConfig
    joint: JointClickDistribution
    rows: tuple[TmsvRow, ...]


def run_tmsv(config: TmsvConfig) -> TmsvResult:
    """Exact (and optionally sampled) witness table for a squeezed source.

    For each arm and each condition in {unconditional} + herald_ks, the
    conditional click distribution is computed exactly; when
    ``expected_events`` is set, a Poissonian count record is drawn with the
    expected total split across conditions by their exact probabilities,
    and the binomial witness is bootstrapped from it.
    """
    joint_pn = tmsv_joint_pn(config.mean_photons, cutoff=config.cutoff)
    joint = joint_forward_clicks(joint_pn, config.detector(1), config.detector(2))
    root = np.random.SeedSequence(config.seed)

    rows = []
    for arm in (1, 2):
        for k in (None, *config.herald_ks):
            cond, prob = condition_on_clicks(joint, which_arm=3 - arm, k=k)
            q_b_exact = q_binomial(cond)
            record = None
            estimate = None
            if config.expected_events is not None:
                seed_record, seed_boot = root.spawn(2)
                record = sample_counts(cond, config.expected_events * prob, seed_record)
                estimate = mc_witness(record, "Q_B", config.n_replicas, seed_boot)
            rows.append(
                TmsvRow(
                    arm=arm,
                    herald_k=k,
                    probability=prob,
                    record=record,
                    q_b_exact=q_b_exact,
                    q_b=estimate,
                )
            )
    return TmsvResult(config=config, joint=joint, rows=tuple(rows))


@dataclass(frozen=True)
class CatalysisSweepConfig:
    """Catalysis sweep configuration.

    Defaults follow the regime where the comparison is interesting: a
    moderately bright coherent input, an ideal number-resolving herald kept
    at one photon, and a signal detector with low total efficiency.
    ``expected_events`` is the mean total count per sweep point.
    """

    alpha: float = 2.449489742783178  # mean photon number 6 at the input
    reflectivities: tuple[float, ...] = tuple(float(r) for r in np.round(np.linspace(0.0, 1.0, 21), 10))
    herald_k: int = 1
    herald_detector: DetectorModel | None = None
    n_bins: int = 8
    signal_efficiency: float = 0.07
    dark_click_prob: float = 0.0
    expected_events: float = 10_000.0
    n_replicas: int = 10_000
    seed: int = 0
    cutoff: int | None = None
    inversion_n_max: int | None = None

    def __post_init__(self):
        # None is "exact only" in TmsvConfig; the sweep samples every point.
        check_nonnegative(self.expected_events, "expected_events", strict=True)
        _check_run(self)
        check_nonnegative(self.alpha, "alpha")
        if not isinstance(self.reflectivities, Sequence) or not self.reflectivities:
            raise InvalidArgumentError(f"reflectivities must be a non-empty sequence, got {self.reflectivities!r}")
        for reflectivity in self.reflectivities:
            check_probability(reflectivity, "reflectivity")
        check_count(self.herald_k, "herald_k")
        herald = self.herald_detector
        if herald is not None and self.herald_k > herald.n_bins:
            raise InvalidArgumentError(f"herald_k={self.herald_k} exceeds the herald's {herald.n_bins} bins")
        check_probability(self.signal_efficiency, "signal_efficiency")
        self.signal_detector()  # DetectorModel checks n_bins and dark clicks
        if self.inversion_n_max is not None:
            check_count(self.inversion_n_max, "inversion_n_max")

    def signal_detector(self) -> DetectorModel:
        return DetectorModel(
            self.n_bins,
            efficiency=self.signal_efficiency,
            dark_click_prob=self.dark_click_prob,
        )


@dataclass(frozen=True)
class CatalysisPoint:
    """Results at one reflectivity.

    A degenerate point (herald outcome has zero probability) carries only
    the flag; every estimate field is ``None`` and the sweep continues.
    ``q_m`` is the Mandel witness of the detected photons recovered by
    inversion; ``q_b``/``q_f`` act directly on the click record.
    """

    reflectivity: float
    degenerate: bool
    herald_prob: float
    record: CountRecord | None = None
    q_b_exact: float | None = None
    q_f_exact: float | None = None
    q_m_exact: float | None = None
    q_b: WitnessEstimate | None = None
    q_f: WitnessEstimate | None = None
    q_m: WitnessEstimate | None = None


@dataclass(frozen=True)
class CatalysisSweepResult:
    config: CatalysisSweepConfig
    points: tuple[CatalysisPoint, ...]


def run_catalysis_sweep(config: CatalysisSweepConfig) -> CatalysisSweepResult:
    """Sweep the splitter reflectivity and score the signal three ways.

    Per point: exact conditional signal statistics, the exact witnesses,
    one Poissonian count record, and bootstrapped estimates of the binomial
    witness, the naive click-Mandel number, and the inversion-route Mandel
    witness.  Points whose herald outcome cannot occur are flagged
    degenerate and skipped, not fatal, unless every point is degenerate:
    then the sweep raises DegenerateConditioningError.
    """
    det = config.signal_detector()
    rows = [witness_rows(name, config.n_bins, det, config.inversion_n_max) for name in WITNESSES]
    root = np.random.SeedSequence(config.seed)
    points = []
    for reflectivity in config.reflectivities:
        point_seed = root.spawn(1)[0]
        try:
            signal_pn, herald_prob = catalysis_conditional_pn(
                config.alpha,
                reflectivity,
                config.herald_k,
                herald_detector=config.herald_detector,
                cutoff=config.cutoff,
            )
        except DegenerateConditioningError as exc:
            degenerate = exc
            points.append(CatalysisPoint(reflectivity=reflectivity, degenerate=True, herald_prob=0.0))
            continue
        clicks = forward_clicks(signal_pn, det)
        detected_pn = apply_loss(signal_pn, config.signal_efficiency)
        seed_record, *seeds = point_seed.spawn(4)
        record = sample_counts(clicks, config.expected_events, seed_record)
        q_b, q_f, q_m = (poisson_bootstrap(record, r, config.n_replicas, s) for r, s in zip(rows, seeds))
        points.append(
            CatalysisPoint(
                reflectivity=reflectivity,
                degenerate=False,
                herald_prob=herald_prob,
                record=record,
                q_b_exact=q_binomial(clicks),
                q_f_exact=q_fake(clicks),
                q_m_exact=q_mandel(detected_pn),
                q_b=q_b,
                q_f=q_f,
                q_m=q_m,
            )
        )
    if all(point.degenerate for point in points):
        raise DegenerateConditioningError(f"every sweep point is degenerate: {degenerate}")
    return CatalysisSweepResult(config=config, points=tuple(points))
