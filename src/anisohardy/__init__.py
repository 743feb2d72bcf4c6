"""Sharp constants of anisotropic Hardy and CKN inequalities, numerically certified.

Three independent routes confirm every closed-form constant: a constrained
optimization oracle, Rayleigh-quotient sweeps over extremizing trial
families with singularity-aware quadrature, and finite-difference checks of
the underlying divergence identities.
"""

__version__ = "0.1.0"

from .params import (HardyParams, CknParams, CknAdmissibility, ExponentPair,
                     Regime, RegimeFamily, admissible_hardy, admissible_ckn,
                     compute_K)
from .closed_form import (Kind, Branch, ConstantResult, sharp_constant_p2,
                          sharp_constant_general_p, sharp_constant_general_k_p2,
                          branch_candidates, ckn_constant)
from .optimizer import OptimizerBranch, OptimizerReport, maximize
from .quadrature import (QuadratureSpec, QuadResult, XiSpec,
                         log_gamma, beta, sin_power_integral,
                         cutoff_eta, cutoff_eta_prime, gauss_jacobi,
                         integrate_1d, integrate_rows, integrate_2d,
                         lemma1_check)
from .rayleigh import (FamilyKind, TrialFamily, SweepResult, SweepRow,
                       quotient_p2, quotient_general_p, sweep_and_extrapolate)
from .weights import (WeightSpec, H, H1, H2, weight_p2, weight_general_p,
                      divergence_oracle, divergence_oracle_p)
from .identities import (BumpFunction, IdentityReport, r_functional,
                         verify_E2, verify_Ep, verify_CKNp,
                         ckn_extremal_check, hardy_spot_test)

__all__ = [
    "__version__",
    "HardyParams", "CknParams", "CknAdmissibility", "ExponentPair",
    "Regime", "RegimeFamily", "admissible_hardy", "admissible_ckn", "compute_K",
    "Kind", "Branch", "ConstantResult", "sharp_constant_p2",
    "sharp_constant_general_p", "sharp_constant_general_k_p2",
    "branch_candidates", "ckn_constant",
    "OptimizerBranch", "OptimizerReport", "maximize",
    "QuadratureSpec", "QuadResult", "XiSpec",
    "log_gamma", "beta", "sin_power_integral",
    "cutoff_eta", "cutoff_eta_prime", "gauss_jacobi", "integrate_1d",
    "integrate_rows", "integrate_2d", "lemma1_check",
    "FamilyKind", "TrialFamily", "SweepResult", "SweepRow",
    "quotient_p2", "quotient_general_p", "sweep_and_extrapolate",
    "WeightSpec", "H", "H1", "H2", "weight_p2", "weight_general_p",
    "divergence_oracle", "divergence_oracle_p",
    "BumpFunction", "IdentityReport", "r_functional",
    "verify_E2", "verify_Ep", "verify_CKNp", "ckn_extremal_check",
    "hardy_spot_test",
]
