"""Thermodynamic formalism for quasimorphisms on subshifts of finite type."""

from .sft import Sft, full_shift, golden_mean
from .qm import (
    LetterWeights,
    LinearCombinationQm,
    PatternCount,
    PerturbedQm,
    Quasicocycle,
    SignedPatternCount,
    TabulatedQm,
    WindowQm,
    cohomologous,
    cyclic_average,
    defect,
    homogenize,
    qm_of_quasicocycle,
    quasicocycle_of,
    zero_qm,
)
from .measures import CylinderMeasure, bernoulli_measure, periodic_orbit_measure
from .thermo import (
    entropy_report,
    gibbs_measure,
    gibbs_ratio_report,
    log_partition,
    mixing_ratio_report,
    pressure,
    pressure_oracle_memory1,
    qm_integral,
    variational_check,
    weak_bernoulli_report,
)
from .markov import (
    LocallyConstantFn,
    MarkovMeasure,
    MarkovPotential,
    degeneracy_test,
    gibbs_chain_from_qm,
    markov_measure,
    martingale_part,
    normalize_potential,
    parry_measure,
    project_conditional,
    solve_cohomological,
    transfer_apply,
    variance,
)
from .bowen import (
    WeakBowenFn,
    birkhoff_check,
    bowen_norm_estimate,
    coboundary_solve,
    komlos_potential,
    komlos_zeta,
    livsic_quasicocycle_test,
    potential_from_measure,
    quasicocycle_from_potential,
)
from .experiments import (
    clt_experiment,
    deviation_experiment,
    invariance_experiment,
    lil_experiment,
    sample_path,
)
from .freegroup import (
    FreeGroup,
    boundary_ray_clt,
    brooks,
    compactification_experiment,
    spherical_clt,
)

__version__ = "0.1.0"
