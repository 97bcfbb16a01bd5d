"""Click statistics of multiplexed single-photon detectors.

Forward models (photon statistics to click statistics), nonclassicality
witnesses directly on click records, detector-matrix inversion back to
photon statistics, and simulated experiments with Poissonian counting
noise and bootstrapped error bars.
"""

from .detector import (
    ClickDistribution,
    CountRecord,
    DetectorModel,
    JointClickDistribution,
    click_matrix,
    condition_on_clicks,
    forward_clicks,
    joint_forward_clicks,
    sample_counts,
)
from .distributions import (
    PhotonDistribution,
    coherent_pn,
    fock_pn,
    moments,
    thermal_pn,
)
from .errors import (
    ClickStatsError,
    CutoffOverflowError,
    DegenerateConditioningError,
    IllConditionedInversionError,
    InvalidArgumentError,
    SolverNotConvergedError,
    UndefinedWitnessError,
)
from .experiments import (
    CatalysisPoint,
    CatalysisSweepConfig,
    CatalysisSweepResult,
    TmsvConfig,
    TmsvResult,
    TmsvRow,
    run_catalysis_sweep,
    run_tmsv,
    tmsv_joint_pn,
)
from .fockspace import apply_loss, catalysis_conditional_pn
from .inversion import (
    InversionResult,
    invert_clicks,
    lstsq_simplex,
    mc_q_mandel_from_clicks,
    q_mandel_from_clicks,
)
from .witnesses import (
    WitnessEstimate,
    mc_witness,
    q_binomial,
    q_fake,
    q_mandel,
    witness_from_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CatalysisPoint",
    "CatalysisSweepConfig",
    "CatalysisSweepResult",
    "ClickDistribution",
    "ClickStatsError",
    "CountRecord",
    "CutoffOverflowError",
    "DegenerateConditioningError",
    "DetectorModel",
    "IllConditionedInversionError",
    "InvalidArgumentError",
    "InversionResult",
    "JointClickDistribution",
    "PhotonDistribution",
    "SolverNotConvergedError",
    "TmsvConfig",
    "TmsvResult",
    "TmsvRow",
    "UndefinedWitnessError",
    "WitnessEstimate",
    "apply_loss",
    "catalysis_conditional_pn",
    "click_matrix",
    "coherent_pn",
    "condition_on_clicks",
    "fock_pn",
    "forward_clicks",
    "invert_clicks",
    "joint_forward_clicks",
    "lstsq_simplex",
    "mc_q_mandel_from_clicks",
    "mc_witness",
    "moments",
    "q_binomial",
    "q_fake",
    "q_mandel",
    "q_mandel_from_clicks",
    "run_catalysis_sweep",
    "run_tmsv",
    "sample_counts",
    "thermal_pn",
    "tmsv_joint_pn",
    "witness_from_counts",
]
