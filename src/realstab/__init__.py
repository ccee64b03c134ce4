"""Exact realization/stability algebra for discrete-time closed loops.

The package builds realization matrices for standard closed-loop diagrams,
computes internal stability matrices exactly, propagates additive
perturbations in closed form, and certifies robustness margins for the
Youla, input-output, and system-level parameterization families.
"""

__version__ = "0.1.0"

from .analysis import (
    StabilityVerdict,
    freq_response,
    hinf_norm,
    hinf_peak,
    matrix_poles,
    poles,
    stability_verdict,
)
from .errors import RealstabError
from .iop import IopQuadruple, iop_controller, iop_from_loop, iop_margin, \
    iop_robust_check, iop_verify
from .matrix import StateSpace, TransferMatrix, block_matrix, loop_determinant
from .mu import mu_destab_test, mu_m_matrix
from .poly import Polynomial
from .ratfun import RationalFunction, canonicalize
from .realization import (
    AdditivePerturbation,
    RealizationSystem,
    Transformation,
    apply_transformation,
    build_output_feedback,
    build_plant_controller,
    build_sf_sls,
    build_state_feedback,
    check_offdiagonal_properness,
    perturbed_stability,
    raw_realization,
    robust_loop,
    robust_verdict,
    stability_matrix,
    verify_rs_identity,
)
from .sls import (
    SlsOutputFeedback,
    SlsStateFeedback,
    sls_of_controller,
    sls_of_from_blocks,
    sls_of_from_controller,
    sls_of_margin,
    sls_of_perturbed_response,
    sls_of_robust_check,
    sls_of_verify,
    sls_sf_from_gain,
    sls_sf_robust,
)
from .uncertainty import (
    Certificate,
    SampleStats,
    TightnessProbe,
    UncertaintySpec,
    monte_carlo_certify,
    robust_condition,
    sample_delta,
    worst_case_delta,
)
from .youla import (
    CoprimeFactorization,
    YoulaPair,
    coprime_from_gains,
    deadbeat_observer_gain,
    deadbeat_state_gain,
    observer_controller,
    youla_controller,
    youla_plant,
    youla_pq_stability,
    youla_robust_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
