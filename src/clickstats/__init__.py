"""Click statistics of multiplexed single-photon detectors.

Forward models (photon statistics to click statistics), nonclassicality
witnesses directly on click records, detector-matrix inversion back to
photon statistics, and simulated experiments with Poissonian counting
noise and bootstrapped error bars.

Every public name resolves on first use from the submodule that defines
it (PEP 562), so ``import clickstats`` loads no submodule and no numpy.
The resolved names are not cached here: each lookup reads the submodule's
attribute, so a wrapper installed on that attribute is seen, and its
removal too.
"""

from importlib import import_module

#: Submodule -> the public names it defines.
_EXPORTS = {
    "detector": (
        "ClickDistribution",
        "CountRecord",
        "DetectorModel",
        "JointClickDistribution",
        "click_matrix",
        "condition_on_clicks",
        "forward_clicks",
        "joint_forward_clicks",
        "sample_counts",
    ),
    "distributions": ("PhotonDistribution", "coherent_pn", "fock_pn", "moments", "thermal_pn"),
    "errors": (
        "ClickStatsError",
        "CutoffOverflowError",
        "DegenerateConditioningError",
        "IllConditionedInversionError",
        "InvalidArgumentError",
        "SolverNotConvergedError",
        "UndefinedWitnessError",
    ),
    "experiments": (
        "CatalysisPoint",
        "CatalysisSweepConfig",
        "CatalysisSweepResult",
        "TmsvConfig",
        "TmsvResult",
        "TmsvRow",
        "run_catalysis_sweep",
        "run_tmsv",
        "tmsv_joint_pn",
    ),
    "fockspace": ("apply_loss", "catalysis_conditional_pn"),
    "inversion": (
        "InversionResult",
        "invert_clicks",
        "lstsq_simplex",
        "mc_q_mandel_from_clicks",
        "q_mandel_from_clicks",
    ),
    "witnesses": (
        "WitnessEstimate",
        "mc_witness",
        "q_binomial",
        "q_fake",
        "q_mandel",
        "witness_from_counts",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
