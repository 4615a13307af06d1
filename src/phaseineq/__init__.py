"""Numerical verification of bosonic phase-space geometric inequalities."""

from .fock_core import (
    DensityMatrix,
    HealthMetrics,
    IllConditionedError,
    StateFamily,
    TruncationError,
    entropy_power,
    fock_rearrangement,
    majorizes,
    mean_photon,
    random_state,
    relative_entropy,
    thermal_state,
    truncation_health,
    von_neumann_entropy,
    weyl_operator,
)
from .semigroups import (
    Amplifier,
    Attenuator,
    GaussianDensity,
    Heat,
    QOU,
    convolve,
    entropy_rate,
    evolve,
    liouvillian_apply,
    relent_decay_rate,
    standard_gaussian,
)
from .fisher import (
    FisherEstimate,
    classical_fisher_gaussian,
    quantum_fisher,
)
from .gaussian import (
    ClassicalOUParams,
    GaussianStateSpec,
    carbone_lsi2_bounds,
    cou_step,
    g_entropy,
    g_inverse,
    gaussian_evolve,
    h_function,
    h_minimize,
    j_pm_gaussian,
    relent_to_qou_fixed,
    thermal_fisher_closed,
    zeta_optimality_witness,
)
from .classical import (
    ClassicalPMF,
    F_of_S0,
    certified_rate_bound,
    death_entropy_rate,
    death_evolve,
    death_generator,
    f_of_H,
    geometric_pmf,
    min_entropy_rate_constrained,
)
from .verify import (
    VerificationReport,
    run_suite,
    threshold_solve,
)

__version__ = "0.1.0"
