"""fqlab: a desk-scale first-quantized electron-dynamics laboratory."""

__version__ = "0.3.0"

from .grids import GridSpec
from .states import (
    FirstQuantizedState,
    antisymmetrize,
    apply_register_unitary,
    exact_krdm_element,
    first_second_equivalence_check,
    measure_all,
    slater_oracle,
    transition_expectation,
)
from .hamiltonian import CoulombKernel, EvolutionPlan, GridHamiltonian, NuclearConfig, evolve, total_energy
from .meanfield import GridIntegrals, OccupiedOrbitals, TdhfPlan, build_fock, evolve_tdhf
from .stateprep import GivensNetwork, ToffoliLedger, givens_decompose, prepare_slater, toffoli_count
from .shadows import (
    EstimatorConfig,
    ShadowBatch,
    collect_shadows,
    estimate_krdm_element,
    required_samples,
    variance_bound,
)
from .costmodel import CostQuery, LambdaParams, beta_exponents, speedup_exponent
